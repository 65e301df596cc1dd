"""Closed-form intervals, extremal catalog, attainment, rotation invariance."""

import math
import random

import numpy as np
import pytest

from succoeff import (
    AtomicHerglotzRep,
    ClassParams,
    CoeffTriple,
    DomainError,
    ExtremalDescriptor,
    ExtremalName,
    TruncatedSeries,
    Which,
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
from conftest import assert_series_close, endpoints, float_bits, lz_c2
from jets import cpow, monomial, one
from succoeff.bounds import _t

SPIRAL_00 = ClassParams.spirallike(0.0, 0.0)
CONVEX_00 = ClassParams.convex(0.0, 0.0)

PARAM_GRID = [
    SPIRAL_00,
    ClassParams.spirallike(0.25, math.pi / 6),
    ClassParams.spirallike(0.5, -math.pi / 3),
    CONVEX_00,
    ClassParams.convex(0.25, -math.pi / 6),
    ClassParams.convex(0.5, math.pi / 3),
    ClassParams.ozaki(0.25),
    ClassParams.ozaki(0.5),
    ClassParams.ozaki(0.75),
    ClassParams.ozaki(1.0),
]


def atom_product(rep, w, order):
    """prod_j (1 - eps_j z)^(w g_j), each factor a principal-branch cpow."""
    acc = one(order)
    for g, eps in zip(rep.weights, rep.points):
        acc = acc * cpow(one(order) + monomial(1, order, -eps), w * g)
    return acc


class TestTFactor:
    def test_known_values(self):
        assert _t(0.0, 0.0) == pytest.approx(3.0)
        assert _t(0.5, 0.0) == pytest.approx(2.0)
        assert _t(0.0, math.pi / 3) == pytest.approx(math.sqrt(3))

    def test_range_and_monotonicity(self):
        alphas = np.linspace(0.0, 0.999, 50)
        gammas = np.linspace(-1.5, 1.5, 50)
        for g in gammas:
            values = [_t(a, g) for a in alphas]
            assert all(1.0 < t <= 3.0 for t in values)
            assert all(b < a + 1e-15 for a, b in zip(values, values[1:]))


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
            assert b.upper == pytest.approx(-alpha)

    def test_d1_ozaki(self):
        b = bound_d1(ClassParams.ozaki(1.0))
        assert (b.lower, b.upper) == (-1.0, -0.5)
        assert b.upper_extremal.name is ExtremalName.G_OZAKI

    def test_d2_spirallike_starlike_case(self):
        b = bound_d2(SPIRAL_00)
        assert b.lower == pytest.approx(-1.0)
        assert b.upper == pytest.approx(1.0)
        assert b.lower_extremal == ExtremalDescriptor(ExtremalName.F_SPIRAL, SPIRAL_00)

    def test_d2_convex_li_sugawa_case(self):
        b = bound_d2(CONVEX_00)
        assert b.lower == pytest.approx(-0.5)
        assert b.upper == pytest.approx(1 / 3)

    def test_d2_ozaki_quarter(self):
        b = bound_d2(ClassParams.ozaki(0.25))
        assert b.lower == pytest.approx(-4 / 42)
        assert b.upper == pytest.approx(1 / 24)

    def test_ozaki_branch_continuity(self):
        left = 0.5 * (4 * 0.5 - 17) / (24 * (2 - 0.5))
        right = -0.5 * (0.5 + 2) / 6
        assert left == pytest.approx(-5 / 24, abs=1e-14)
        assert right == pytest.approx(-5 / 24, abs=1e-14)
        assert bound_d2(ClassParams.ozaki(0.5)).lower == pytest.approx(-5 / 24, abs=1e-14)

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
        assert c1 == pytest.approx(c, abs=1e-14)
        assert c2 == pytest.approx(lz_c2(c, x), abs=1e-14)


class TestExtremalSeries:
    def test_koebe(self):
        f = extremal_series(ExtremalDescriptor(ExtremalName.K, SPIRAL_00), 8)
        assert_series_close(f, np.arange(9), atol=1e-12)

    def test_h_closed_form(self):
        params = ClassParams.spirallike(0.3, 0.6)
        f = extremal_series(ExtremalDescriptor(ExtremalName.H, params), 10)
        closed = cpow(one(10) + monomial(2, 10, -1.0), -(1 - 0.3) * mu(0.6)).shift_up()
        assert_series_close(f, closed.coeffs, atol=1e-13)

    def test_l_closed_form(self):
        # l = [(1-z)^{1-2(1-a)mu} - 1]/(2(1-a)mu - 1), cross-checked against
        # the Alexander-path construction.
        params = ClassParams.convex(0.2, -0.4)
        s = 2 * (1 - 0.2) * mu(-0.4) - 1
        closed = (1 / s) * (cpow(one(10) + monomial(1, 10, -1.0), -s) - one(10))
        f = extremal_series(ExtremalDescriptor(ExtremalName.L, params), 10)
        assert_series_close(f, closed.coeffs, atol=1e-12)

    def test_l_degenerate_exponent(self):
        # 2(1-alpha)mu = 1 at alpha = 1/2, gamma = 0: the closed form has a
        # removable 0/0 but the Alexander path is regular and gives the
        # logarithmic series with a_n = 1/n.
        params = ClassParams.convex(0.5, 0.0)
        f = extremal_series(ExtremalDescriptor(ExtremalName.L, params), 8)
        assert_series_close(f, [0] + [1 / n for n in range(1, 9)], atol=1e-13)

    def test_q_closed_form(self):
        params = ClassParams.convex(0.35, 0.5)
        closed = cpow(one(10) + monomial(2, 10, -1.0), -(1 - 0.35) * mu(0.5)).antiderivative()
        f = extremal_series(ExtremalDescriptor(ExtremalName.Q, params), 10)
        assert_series_close(f, closed.coeffs, atol=1e-13)

    def test_alexander_relations(self):
        # z l' = k and z q' = h.
        params = ClassParams.spirallike(0.25, 0.75)
        convex = ClassParams.convex(0.25, 0.75)
        k = extremal_series(ExtremalDescriptor(ExtremalName.K, params), 10)
        l = extremal_series(ExtremalDescriptor(ExtremalName.L, convex), 10)
        assert_series_close(l.derivative().shift_up(), k.coeffs, atol=1e-12)
        h = extremal_series(ExtremalDescriptor(ExtremalName.H, params), 10)
        q = extremal_series(ExtremalDescriptor(ExtremalName.Q, convex), 10)
        assert_series_close(q.derivative().shift_up(), h.coeffs, atol=1e-12)

    def test_f_spiral_starlike_case(self):
        desc = bound_d2(SPIRAL_00).lower_extremal
        f = extremal_series(desc, 8)
        assert f[2] == pytest.approx(1.0, abs=1e-10)
        assert abs(f[3]) < 1e-10

    def test_f_spiral_matches_p_construction(self):
        # f = z prod_j (1 - eps_j z)^(-2(1-a) mu g_j) over the two atoms.
        params = ClassParams.spirallike(0.25, 0.5)
        desc = bound_d2(params).lower_extremal
        rep = extremal_measure(desc)
        assert len(rep.weights) == 2
        product = atom_product(rep, -2 * (1 - 0.25) * mu(0.5), 10).shift_up()
        assert_series_close(extremal_series(desc, 10), product.coeffs, atol=1e-12)

    def test_g_convex_matches_atom_product(self):
        # z g' = f, so g' is the spirallike atom product itself.
        params = ClassParams.convex(0.25, 0.5)
        desc = bound_d2(params).lower_extremal
        rep = extremal_measure(desc)
        assert len(rep.weights) == 2
        product = atom_product(rep, -2 * (1 - 0.25) * mu(0.5), 10).antiderivative()
        assert_series_close(extremal_series(desc, 10), product.coeffs, atol=1e-12)

    def test_f_ozaki_two_atom_matches_atom_product(self):
        # lam < 1/2 keeps both atoms: F' = prod_j (1 - eps_j z)^(lam g_j).
        desc = bound_d2(ClassParams.ozaki(0.25)).lower_extremal
        rep = extremal_measure(desc)
        assert len(rep.weights) == 2
        product = atom_product(rep, 0.25, 10).antiderivative()
        assert_series_close(extremal_series(desc, 10), product.coeffs, atol=1e-12)

    def test_f_spiral_proof_coefficients(self):
        for params in (SPIRAL_00, ClassParams.spirallike(0.4, -0.8)):
            t = _t(params.alpha, params.gamma)
            desc = bound_d2(params).lower_extremal
            f = extremal_series(desc, 8)
            expected_a2 = 2 * (1 - params.alpha) * mu(params.gamma) / math.sqrt(1 + t)
            assert f[2] == pytest.approx(expected_a2, abs=1e-10)
            assert abs(f[3]) < 1e-10

    def test_g_ozaki(self):
        f = extremal_series(ExtremalDescriptor(ExtremalName.G_OZAKI, ClassParams.ozaki(1.0)), 8)
        assert f[2] == pytest.approx(0.5, abs=1e-13)
        closed = (1 / 2) * (cpow(one(8) + monomial(1, 8), 2.0) - one(8))
        assert_series_close(f, closed.coeffs, atol=1e-13)

    def test_h_ozaki_signed_a3(self):
        f = extremal_series(ExtremalDescriptor(ExtremalName.H_OZAKI, ClassParams.ozaki(0.9)), 8)
        assert abs(f[2]) < 1e-14
        assert f[3] == pytest.approx(-0.15, abs=1e-14)  # signed value; |a3| = lam/6

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
            closed = cpow(one(8) + monomial(1, 8, -1.0), lam)
        else:
            assert c < 2.0 and x == -1.0
            assert rep == solve_two_atom(c, x)
            np.testing.assert_allclose(rep.weights, [0.5, 0.5], atol=1e-15)
            closed = cpow(one(8) + monomial(1, 8, -c) + monomial(2, 8), lam / 2)
        assert_series_close(extremal_series(desc, 8), closed.antiderivative().coeffs, atol=1e-13)

    def test_f_ozaki_half_branch_agreement(self):
        # At lam = 1/2 both stated parameter choices give c = 2.
        lam = 0.5
        assert 3 / (2 - lam) == pytest.approx(2.0)
        desc = bound_d2(ClassParams.ozaki(lam)).lower_extremal
        assert extremal_coeffs(desc).d2() == pytest.approx(-5 / 24, abs=1e-12)


class TestAttainment:
    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_all_targets_attained(self, params):
        for desc, which, target in endpoints(params):
            triple = extremal_coeffs(desc)
            value = triple.d1() if which is Which.D1 else triple.d2()
            assert value == pytest.approx(target, abs=1e-9), (
                f"{desc.name.value} misses its {which.value} endpoint"
            )

    def test_named_examples(self):
        params = ClassParams.spirallike(0.3, 0.7)
        h = ExtremalDescriptor(ExtremalName.H, params)
        assert extremal_coeffs(h).d2() == pytest.approx(0.7 * math.cos(0.7), abs=1e-12)
        q = ExtremalDescriptor(ExtremalName.Q, ClassParams.convex(0.3, 0.7))
        assert extremal_coeffs(q).d1() == pytest.approx(-1.0, abs=1e-12)
        desc = bound_d2(ClassParams.ozaki(0.75)).lower_extremal
        assert extremal_coeffs(desc).d2() == pytest.approx(-0.34375, abs=1e-12)

    def test_rotation_invariance(self, rng):
        # e^{-i theta} f(e^{i theta} z) multiplies a_n by e^{i(n-1)theta};
        # both functionals are unchanged.
        for params in (ClassParams.spirallike(0.25, 0.5), ClassParams.ozaki(0.6)):
            for desc, _, _ in endpoints(params):
                f = extremal_series(desc, 8)
                theta = rng.uniform(0, 2 * math.pi)
                phases = np.exp(1j * theta * (np.arange(9) - 1))
                g = TruncatedSeries(np.multiply(f.coeffs, phases))
                assert abs(g[2]) - abs(g[1]) == pytest.approx(
                    abs(f[2]) - abs(f[1]), abs=1e-12
                )
                assert abs(g[3]) - abs(g[2]) == pytest.approx(
                    abs(f[3]) - abs(f[2]), abs=1e-12
                )

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

    def test_nine_catalog_names(self):
        names = set()
        for params in (SPIRAL_00, CONVEX_00, ClassParams.ozaki(1.0)):
            for desc, _, _ in endpoints(params):
                names.add(desc.name)
        assert len(names) == 9


class TestTwoAtomParameters:
    def test_starlike_values(self):
        c, x = two_atom_parameters(SPIRAL_00)
        assert c == pytest.approx(1.0)
        assert x == pytest.approx(-1.0)

    def test_ozaki_branches(self):
        c, x = two_atom_parameters(ClassParams.ozaki(0.25))
        assert c == pytest.approx(12 / 7)
        assert x == -1.0
        c, _ = two_atom_parameters(ClassParams.ozaki(0.75))
        assert c == 2.0

    def test_x_unimodular(self):
        for params in PARAM_GRID:
            if params.family.value == "ozaki":
                continue
            _, x = two_atom_parameters(params)
            assert abs(abs(x) - 1.0) < 1e-14

    def test_solver_agrees_with_moments(self):
        params = ClassParams.convex(0.25, math.pi / 6)
        c, x = two_atom_parameters(params)
        rep = solve_two_atom(c, x)
        w, e = np.asarray(rep.weights), np.asarray(rep.points)
        m1 = (w * e).sum()
        m2 = (w * e**2).sum()
        assert abs(m1 - c / 2) < 1e-14
        assert abs(m2 - (c * c + (4 - c * c) * x) / 4) < 1e-14


def _ulp_neighbours(x, steps=3):
    """x and the `steps` floats on either side of it."""
    below, above, out = x, x, [x]
    for _ in range(steps):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return out


def _closed_form_points():
    """Seeded 1,000 points per family, then the branch seams and the box edges."""
    # random.Random, not numpy: its draws do not depend on a library version.
    rng = random.Random(2107)
    half_pi = math.pi / 2
    points = []
    for make in (ClassParams.spirallike, ClassParams.convex):
        points += [make(rng.random(), rng.uniform(-half_pi, half_pi)) for _ in range(1000)]
    points += [ClassParams.ozaki(1.0 - rng.random()) for _ in range(1000)]
    # Convex T = 5/4 exactly at alpha = 7/8, gamma = 0; Ozaki's seam is lam = 1/2.
    points += [ClassParams.convex(a, g) for a in _ulp_neighbours(0.875)
               for g in _ulp_neighbours(0.0, 1)]
    points += [ClassParams.ozaki(lam) for lam in _ulp_neighbours(0.5)]
    edges = (0.0, 1.0 - 1e-12)
    for make in (ClassParams.spirallike, ClassParams.convex):
        points += [make(a, g) for a in edges for g in (0.0, half_pi - 1e-12, 1e-12 - half_pi)]
    points += [ClassParams.ozaki(lam) for lam in (1e-12, 1.0)]
    return points


class TestClosedFormBits:
    # The first 16 hex digits of the SHA-256 of every closed form's repr at
    # _closed_form_points(), recorded before bounds.py chose each family's
    # branch in one place; a rewrite of the closed forms must keep every bit.
    DIGEST = "f7a4264256af303c"

    def test_closed_forms_keep_every_bit(self):
        import hashlib

        lines = []
        for params in _closed_form_points():
            d1, d2 = bound_d1(params), bound_d2(params)
            lines.append(repr((d1.lower, d1.upper, d2.lower, d2.upper,
                               two_atom_parameters(params),
                               [e.name.value for e in (*d1[2:], *d2[2:])])))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        assert len(lines) == 3000 + 7 * 3 + 7 + 12 + 2
        assert digest == self.DIGEST
