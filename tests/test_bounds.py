"""Closed-form intervals, extremal catalog, attainment, rotation invariance."""

import math

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyint

from succoeff import (
    AtomicHerglotzRep,
    ClassParams,
    CoeffTriple,
    DomainError,
    ExtremalDescriptor,
    ExtremalName,
    bound_d1,
    bound_d2,
    extremal_coeffs,
    extremal_measure,
    extremal_series,
    moments,
    mu,
    solve_two_atom,
    two_atom_parameters,
)
from conftest import (PARAM_GRID, assert_series_close, classes, endpoints, float_bits, gated,
                      lz_c2, t_factor)
from jets import cpow, np_product, polynomial

SPIRAL_00 = ClassParams.spirallike(0.0, 0.0)
CONVEX_00 = ClassParams.convex(0.0, 0.0)


def atom_product(rep, w, order):
    """Coefficients of prod_j (1 - eps_j z)^(w g_j), each factor a principal-branch cpow."""
    acc = polynomial(order, 1).coeffs
    for g, eps in zip(rep.weights, rep.points):
        acc = np_product(acc, cpow(polynomial(order, 1, -eps), w * g).coeffs)
    return acc


class TestTFactor:
    # bounds states T only inside _tilted_forms; spirallike's c* = 2/sqrt(1+T) reads it.
    def test_known_values(self):
        for params, t in ((SPIRAL_00, 3.0), (ClassParams.spirallike(0.5, 0.0), 2.0),
                          (ClassParams.spirallike(0.0, math.pi / 3), math.sqrt(3))):
            assert two_atom_parameters(params)[0] == gated(2 / math.sqrt(1 + t))

    def test_range_and_monotonicity(self):
        alphas = np.linspace(0.0, 0.999, 50)
        gammas = np.linspace(-1.5, 1.5, 50)
        for g in gammas:
            values = [two_atom_parameters(ClassParams.spirallike(a, g))[0] for a in alphas]
            assert all(1.0 <= c < math.sqrt(2) for c in values)  # T in (1, 3]
            assert all(b > a - 1e-15 for a, b in zip(values, values[1:]))  # T falls with alpha


class TestIntervals:
    def test_d1_spirallike(self):
        b = bound_d1(SPIRAL_00)
        assert (b.lower, b.upper) == (-1.0, 1.0)
        assert b.lower_extremal.name is ExtremalName.H
        assert b.upper_extremal.name is ExtremalName.K

    def test_d1_convex_alpha(self):
        for alpha in (0.0, 0.3, 0.8):
            b = bound_d1(ClassParams.convex(alpha, 0.0))
            assert b.lower == -1.0
            assert b.upper == gated(-alpha)

    def test_d1_ozaki(self):
        b = bound_d1(ClassParams.ozaki(1.0))
        assert (b.lower, b.upper) == (-1.0, -0.5)
        assert b.upper_extremal.name is ExtremalName.G_OZAKI

    def test_d2_spirallike_starlike_case(self):
        b = bound_d2(SPIRAL_00)
        assert b.lower == gated(-1.0)
        assert b.upper == gated(1.0)
        assert b.lower_extremal == ExtremalDescriptor(ExtremalName.F_SPIRAL, SPIRAL_00)

    def test_d2_convex_li_sugawa_case(self):
        b = bound_d2(CONVEX_00)
        assert b.lower == gated(-0.5)
        assert b.upper == gated(1 / 3)

    def test_d2_ozaki_quarter(self):
        b = bound_d2(ClassParams.ozaki(0.25))
        assert b.lower == gated(-4 / 42)
        assert b.upper == gated(1 / 24)

    def test_ozaki_branch_continuity(self):
        # The vertex branch runs up to lam = 1/2 and the c* = 2 branch just above it.
        for lam in (math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0)):
            assert bound_d2(ClassParams.ozaki(lam)).lower == gated(-5 / 24)

    def test_d2_contains_zero(self):
        for params in PARAM_GRID:
            b = bound_d2(params)
            assert b.lower <= 0.0 <= b.upper

    def test_interval_ordering(self):
        for params in PARAM_GRID:
            assert bound_d1(params).lower <= bound_d1(params).upper


class TestDescriptors:
    def test_descriptor_is_name_and_class(self):
        # The d2 lower extremal carries no measure: its class fixes it.
        assert ExtremalDescriptor._fields == ("name", "params")
        p = ClassParams.spirallike(0.25, 0.5)
        assert bound_d2(p).lower_extremal == ExtremalDescriptor(ExtremalName.F_SPIRAL, p)
        for params, name in ((CONVEX_00, ExtremalName.G_CONVEX),
                             (ClassParams.ozaki(0.25), ExtremalName.F_OZAKI)):
            assert bound_d2(params).lower_extremal == ExtremalDescriptor(name, params)

    def test_order_floor(self):
        with pytest.raises(DomainError):
            extremal_series(ExtremalDescriptor(ExtremalName.K, SPIRAL_00), order=3)

    def test_name_of_another_family(self):
        # The catalog fixes each name's family; params of another family
        # would report one class and build the member of another.
        with pytest.raises(DomainError, match="L belongs to the convex family, not spirallike"):
            ExtremalDescriptor(ExtremalName.L, ClassParams.spirallike(0.3, 0.2))
        with pytest.raises(DomainError, match="K belongs to the spirallike family, not ozaki"):
            ExtremalDescriptor(ExtremalName.K, ClassParams.ozaki(0.5))

    @pytest.mark.parametrize("name, params, weights, points", [
        (ExtremalName.K, SPIRAL_00, (1.0,), (1,)),
        (ExtremalName.L, CONVEX_00, (1.0,), (1,)),
        (ExtremalName.G_OZAKI, ClassParams.ozaki(0.3), (1.0,), (-1,)),
        (ExtremalName.H, SPIRAL_00, (0.5, 0.5), (1, -1)),
        (ExtremalName.Q, CONVEX_00, (0.5, 0.5), (1, -1)),
        (ExtremalName.H_OZAKI, ClassParams.ozaki(0.3), (0.5, 0.5), (1, -1)),
        # c* = 2 at lam >= 1/2: the two-atom measure collapses to the point mass at 1.
        (ExtremalName.F_OZAKI, ClassParams.ozaki(0.5), (1.0,), (1,)),
        (ExtremalName.F_OZAKI, ClassParams.ozaki(0.75), (1.0,), (1,)),
    ], ids=["K", "L", "G_OZAKI", "H", "Q", "H_OZAKI", "F_OZAKI-0.5", "F_OZAKI-0.75"])
    def test_fixed_measures(self, name, params, weights, points):
        desc = ExtremalDescriptor(name, params)
        assert extremal_measure(desc) == AtomicHerglotzRep(weights, points)

    @pytest.mark.parametrize("name, params", [
        (ExtremalName.F_SPIRAL, SPIRAL_00),
        (ExtremalName.F_SPIRAL, ClassParams.spirallike(0.25, 0.5)),
        (ExtremalName.G_CONVEX, ClassParams.convex(0.25, -0.5)),
        (ExtremalName.G_CONVEX, ClassParams.convex(0.5, 1.4)),  # T < 5/4: c* = 3/(T+1)
        (ExtremalName.F_OZAKI, ClassParams.ozaki(0.25)),
    ], ids=["F_SPIRAL-0-0", "F_SPIRAL-0.25-0.5", "G_CONVEX-0.25--0.5", "G_CONVEX-0.5-1.4",
            "F_OZAKI-0.25"])
    def test_two_atom_measures(self, name, params):
        # The measure solved at the class's (c*, x*): its c1 and c2 are c*
        # and lz_c2(c*, x*).
        c, x = two_atom_parameters(params)
        rep = extremal_measure(ExtremalDescriptor(name, params))
        assert rep == solve_two_atom(c, x)
        assert len(rep.weights) == 2
        c1, c2 = moments(rep, 2)
        assert c1 == gated(c)
        assert c2 == gated(lz_c2(c, x))


class TestExtremalSeries:
    def test_koebe(self):
        f = extremal_series(ExtremalDescriptor(ExtremalName.K, SPIRAL_00), 8)
        assert_series_close(f, np.arange(9), atol=1e-12)

    def test_h_closed_form(self):
        params = ClassParams.spirallike(0.3, 0.6)
        f = extremal_series(ExtremalDescriptor(ExtremalName.H, params), 10)
        closed = cpow(polynomial(9, 1, 0, -1), -(1 - 0.3) * mu(0.6))
        assert_series_close(f, [0, *closed.coeffs], atol=1e-13)

    def test_l_closed_form(self):
        # l = [(1-z)^{1-2(1-a)mu} - 1]/(2(1-a)mu - 1), cross-checked against
        # the Alexander-path construction.
        params = ClassParams.convex(0.2, -0.4)
        s = 2 * (1 - 0.2) * mu(-0.4) - 1
        closed = cpow(polynomial(10, 1, -1), -s)
        f = extremal_series(ExtremalDescriptor(ExtremalName.L, params), 10)
        assert_series_close(f, np.r_[0, closed.coeffs[1:]] / s, atol=1e-12)

    def test_l_degenerate_exponent(self):
        # 2(1-alpha)mu = 1 at alpha = 1/2, gamma = 0: the closed form has a
        # removable 0/0 but the Alexander path is regular and gives the
        # logarithmic series with a_n = 1/n.
        params = ClassParams.convex(0.5, 0.0)
        f = extremal_series(ExtremalDescriptor(ExtremalName.L, params), 8)
        assert_series_close(f, [0] + [1 / n for n in range(1, 9)], atol=1e-13)

    def test_q_closed_form(self):
        params = ClassParams.convex(0.35, 0.5)
        closed = cpow(polynomial(9, 1, 0, -1), -(1 - 0.35) * mu(0.5))
        f = extremal_series(ExtremalDescriptor(ExtremalName.Q, params), 10)
        assert_series_close(f, polyint(closed.coeffs), atol=1e-13)

    def test_alexander_relations(self):
        # z l' = k and z q' = h.
        params = ClassParams.spirallike(0.25, 0.75)
        convex = ClassParams.convex(0.25, 0.75)
        k = extremal_series(ExtremalDescriptor(ExtremalName.K, params), 10)
        l = extremal_series(ExtremalDescriptor(ExtremalName.L, convex), 10)
        assert_series_close(l.derivative(), [*k.coeffs[1:], 0], atol=1e-12)
        h = extremal_series(ExtremalDescriptor(ExtremalName.H, params), 10)
        q = extremal_series(ExtremalDescriptor(ExtremalName.Q, convex), 10)
        assert_series_close(q.derivative(), [*h.coeffs[1:], 0], atol=1e-12)

    def test_f_spiral_starlike_case(self):
        desc = bound_d2(SPIRAL_00).lower_extremal
        f = extremal_series(desc, 8)
        assert f.coeffs[2] == pytest.approx(1.0, abs=1e-10)
        assert abs(f.coeffs[3]) < 1e-10

    def test_f_spiral_matches_p_construction(self):
        # f = z prod_j (1 - eps_j z)^(-2(1-a) mu g_j) over the two atoms.
        params = ClassParams.spirallike(0.25, 0.5)
        desc = bound_d2(params).lower_extremal
        rep = extremal_measure(desc)
        assert len(rep.weights) == 2
        product = atom_product(rep, -2 * (1 - 0.25) * mu(0.5), 9)
        assert_series_close(extremal_series(desc, 10), [0, *product], atol=1e-12)

    def test_g_convex_matches_atom_product(self):
        # z g' = f, so g' is the spirallike atom product itself.
        params = ClassParams.convex(0.25, 0.5)
        desc = bound_d2(params).lower_extremal
        rep = extremal_measure(desc)
        assert len(rep.weights) == 2
        product = atom_product(rep, -2 * (1 - 0.25) * mu(0.5), 9)
        assert_series_close(extremal_series(desc, 10), polyint(product), atol=1e-12)

    def test_f_ozaki_two_atom_matches_atom_product(self):
        # lam < 1/2 keeps both atoms: F' = prod_j (1 - eps_j z)^(lam g_j).
        desc = bound_d2(ClassParams.ozaki(0.25)).lower_extremal
        rep = extremal_measure(desc)
        assert len(rep.weights) == 2
        product = atom_product(rep, 0.25, 9)
        assert_series_close(extremal_series(desc, 10), polyint(product), atol=1e-12)

    def test_f_spiral_proof_coefficients(self):
        for params in (SPIRAL_00, ClassParams.spirallike(0.4, -0.8)):
            t = t_factor(params.alpha, params.gamma)
            desc = bound_d2(params).lower_extremal
            f = extremal_series(desc, 8)
            expected_a2 = 2 * (1 - params.alpha) * mu(params.gamma) / math.sqrt(1 + t)
            assert f.coeffs[2] == pytest.approx(expected_a2, abs=1e-10)
            assert abs(f.coeffs[3]) < 1e-10

    def test_g_ozaki(self):
        f = extremal_series(ExtremalDescriptor(ExtremalName.G_OZAKI, ClassParams.ozaki(1.0)), 8)
        assert f.coeffs[2] == pytest.approx(0.5, abs=1e-13)
        closed = cpow(polynomial(8, 1, 1), 2.0)
        assert_series_close(f, np.r_[0, closed.coeffs[1:]] / 2, atol=1e-13)

    def test_h_ozaki_signed_a3(self):
        f = extremal_series(ExtremalDescriptor(ExtremalName.H_OZAKI, ClassParams.ozaki(0.9)), 8)
        assert abs(f.coeffs[2]) < 1e-14
        assert f.coeffs[3] == pytest.approx(-0.15, abs=1e-14)  # signed value; |a3| = lam/6

    @pytest.mark.parametrize("lam", [0.75, 0.4999999999999])
    def test_f_ozaki_degenerate_atom(self, lam):
        # lam >= 1/2 uses c* = 2, where solve_two_atom finds the measure
        # degenerate: a single atom at 1, and F is the antiderivative of
        # (1-z)^lam.  Just below 1/2, c* = 3/(2-lam) < 2 and F is the two-atom
        # extremal, however near c* is to 2: equal weights on the atoms
        # e^{+-it} with 2 cos t = c*, so F' = (1 - c* z + z^2)^(lam/2).
        params = ClassParams.ozaki(lam)
        c, x = two_atom_parameters(params)
        desc = bound_d2(params).lower_extremal
        rep = extremal_measure(desc)
        if lam > 0.5:
            assert c == 2.0
            assert rep == AtomicHerglotzRep((1.0,), (1.0,))
            closed = cpow(polynomial(7, 1, -1), lam)
        else:
            assert c < 2.0 and x == -1.0
            assert rep == solve_two_atom(c, x)
            np.testing.assert_allclose(rep.weights, [0.5, 0.5], atol=1e-15)
            closed = cpow(polynomial(7, 1, -c, 1), lam / 2)
        assert_series_close(extremal_series(desc, 8), polyint(closed.coeffs), atol=1e-13)

    def test_f_ozaki_half_branch_agreement(self):
        # At lam = 1/2 both stated parameter choices give c = 2.
        lam = 0.5
        assert 3 / (2 - lam) == 2.0
        desc = bound_d2(ClassParams.ozaki(lam)).lower_extremal
        assert extremal_coeffs(desc).d2() == gated(-5 / 24)


class TestAttainment:
    def test_named_examples(self):
        params = ClassParams.spirallike(0.3, 0.7)
        h = ExtremalDescriptor(ExtremalName.H, params)
        assert extremal_coeffs(h).d2() == gated(0.7 * math.cos(0.7))
        q = ExtremalDescriptor(ExtremalName.Q, ClassParams.convex(0.3, 0.7))
        assert extremal_coeffs(q).d1() == gated(-1.0)
        desc = bound_d2(ClassParams.ozaki(0.75)).lower_extremal
        assert extremal_coeffs(desc).d2() == gated(-0.34375)

    def test_rotation_invariance(self, rng):
        # e^{-i theta} f(e^{i theta} z) multiplies a_n by e^{i(n-1)theta};
        # both functionals are unchanged.
        for params in (ClassParams.spirallike(0.25, 0.5), ClassParams.ozaki(0.6)):
            for desc, _, _ in endpoints(params):
                f = extremal_series(desc, 8).coeffs
                theta = rng.uniform(0, 2 * math.pi)
                g = np.multiply(f, np.exp(1j * theta * (np.arange(9) - 1)))
                assert abs(g[2]) - abs(g[1]) == pytest.approx(abs(f[2]) - abs(f[1]), abs=1e-12)
                assert abs(g[3]) - abs(g[2]) == pytest.approx(abs(f[3]) - abs(f[2]), abs=1e-12)

    @pytest.mark.parametrize("params", [
        ClassParams.spirallike(0.25, 0.5), ClassParams.spirallike(0.4, -0.8),
        SPIRAL_00, ClassParams.convex(0.3, 0.0),                       # real exponents
        ClassParams.convex(0.25, -0.5), ClassParams.convex(0.5, 1.4),  # T >= 5/4 and T < 5/4
        ClassParams.ozaki(0.3), ClassParams.ozaki(0.75),               # two atoms and one
    ])
    def test_coeffs_match_series_reference(self, params):
        # The commands read a2 and a3 from order-2 jets; the lone member of
        # any order builds the same g_1 and g_2 by the same operations and
        # divides them the same way.  Every bit counts, the sign of a zero
        # part too.  The points cover all nine catalog extremals.
        for desc, _, _ in endpoints(params):
            got = float_bits(extremal_coeffs(desc))
            for order in (4, 12, 128, 1024):
                want = CoeffTriple(*extremal_series(desc, order).coeffs[2:4])
                assert got == float_bits(want), (desc.name, order)


class TestTwoAtomParameters:
    def test_starlike_values(self):
        c, x = two_atom_parameters(SPIRAL_00)
        assert c == gated(1.0)
        assert x == gated(-1.0)

    def test_ozaki_branches(self):
        c, x = two_atom_parameters(ClassParams.ozaki(0.25))
        assert c == gated(12 / 7)
        assert x == -1.0
        c, _ = two_atom_parameters(ClassParams.ozaki(0.75))
        assert c == 2.0


class TestClosedFormBits:
    # The first 16 hex digits of the SHA-256 of every closed form's repr at
    # the classes test_exact checks; a rewrite of the closed forms must keep
    # every bit.
    DIGEST = "5a0a73c1fcc7b6bc"

    def test_closed_forms_keep_every_bit(self):
        import hashlib

        lines = []
        for params in classes(667):
            d1, d2 = bound_d1(params), bound_d2(params)
            lines.append(repr((d1.lower, d1.upper, d2.lower, d2.upper,
                               two_atom_parameters(params),
                               [e.name.value for e in (*d1[2:], *d2[2:])])))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        assert len(lines) == 2473
        assert digest == self.DIGEST
