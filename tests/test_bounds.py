"""Closed-form intervals, extremal catalog, attainment, rotation invariance."""

import math

import numpy as np
import pytest

from succoeff import (
    AtomicHerglotzRep,
    ClassParams,
    DomainError,
    ExtremalDescriptor,
    ExtremalName,
    TruncatedSeries,
    Which,
    attainment,
    bound_d1,
    bound_d2,
    extremal_series,
    extremal_targets,
    mu,
    solve_two_atom,
    t_factor,
    two_atom_parameters,
)
from conftest import assert_series_close
from jets import cpow, monomial, one

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
    for g, eps in rep.atoms():
        acc = acc * cpow(one(order) + monomial(1, order, -eps), w * g)
    return acc


class TestTFactor:
    def test_known_values(self):
        assert t_factor(0.0, 0.0) == pytest.approx(3.0)
        assert t_factor(0.5, 0.0) == pytest.approx(2.0)
        assert t_factor(0.0, math.pi / 3) == pytest.approx(math.sqrt(3))

    def test_range_and_monotonicity(self):
        alphas = np.linspace(0.0, 0.999, 50)
        gammas = np.linspace(-1.5, 1.5, 50)
        for g in gammas:
            values = [t_factor(a, g) for a in alphas]
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
        assert b.lower_extremal.name is ExtremalName.F_SPIRAL
        assert b.lower_extremal.rep is not None

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
    def test_rep_required_for_two_atom_names(self):
        with pytest.raises(DomainError):
            ExtremalDescriptor(ExtremalName.F_SPIRAL, SPIRAL_00)
        rep = AtomicHerglotzRep(np.array([1.0]), np.array([1.0 + 0j]))
        with pytest.raises(DomainError):
            ExtremalDescriptor(ExtremalName.K, SPIRAL_00, rep=rep)

    def test_order_floor(self):
        with pytest.raises(DomainError):
            extremal_series(ExtremalDescriptor(ExtremalName.K, SPIRAL_00), order=3)


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
        params = ClassParams.spirallike(0.2, -0.4)
        s = 2 * (1 - 0.2) * mu(-0.4) - 1
        closed = (1 / s) * (cpow(one(10) + monomial(1, 10, -1.0), -s) - one(10))
        f = extremal_series(ExtremalDescriptor(ExtremalName.L, params), 10)
        assert_series_close(f, closed.coeffs, atol=1e-12)

    def test_l_degenerate_exponent(self):
        # 2(1-alpha)mu = 1 at alpha = 1/2, gamma = 0: the closed form has a
        # removable 0/0 but the Alexander path is regular and gives the
        # logarithmic series with a_n = 1/n.
        params = ClassParams.spirallike(0.5, 0.0)
        f = extremal_series(ExtremalDescriptor(ExtremalName.L, params), 8)
        assert_series_close(f, [0] + [1 / n for n in range(1, 9)], atol=1e-13)

    def test_q_closed_form(self):
        params = ClassParams.spirallike(0.35, 0.5)
        closed = cpow(one(10) + monomial(2, 10, -1.0), -(1 - 0.35) * mu(0.5)).antiderivative()
        f = extremal_series(ExtremalDescriptor(ExtremalName.Q, params), 10)
        assert_series_close(f, closed.coeffs, atol=1e-13)

    def test_alexander_relations(self):
        # z l' = k and z q' = h.
        params = ClassParams.spirallike(0.25, 0.75)
        k = extremal_series(ExtremalDescriptor(ExtremalName.K, params), 10)
        l = extremal_series(ExtremalDescriptor(ExtremalName.L, params), 10)
        assert_series_close(l.derivative().shift_up(), k.coeffs, atol=1e-12)
        h = extremal_series(ExtremalDescriptor(ExtremalName.H, params), 10)
        q = extremal_series(ExtremalDescriptor(ExtremalName.Q, params), 10)
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
        assert desc.rep.n_atoms == 2
        product = atom_product(desc.rep, -2 * (1 - 0.25) * mu(0.5), 10).shift_up()
        assert_series_close(extremal_series(desc, 10), product.coeffs, atol=1e-12)

    def test_g_convex_matches_atom_product(self):
        # z g' = f, so g' is the spirallike atom product itself.
        params = ClassParams.convex(0.25, 0.5)
        desc = bound_d2(params).lower_extremal
        assert desc.rep.n_atoms == 2
        product = atom_product(desc.rep, -2 * (1 - 0.25) * mu(0.5), 10).antiderivative()
        assert_series_close(extremal_series(desc, 10), product.coeffs, atol=1e-12)

    def test_f_ozaki_two_atom_matches_atom_product(self):
        # lam < 1/2 keeps both atoms: F' = prod_j (1 - eps_j z)^(lam g_j).
        desc = bound_d2(ClassParams.ozaki(0.25)).lower_extremal
        assert desc.rep.n_atoms == 2
        product = atom_product(desc.rep, 0.25, 10).antiderivative()
        assert_series_close(extremal_series(desc, 10), product.coeffs, atol=1e-12)

    def test_f_spiral_proof_coefficients(self):
        for params in (SPIRAL_00, ClassParams.spirallike(0.4, -0.8)):
            t = t_factor(params.alpha, params.gamma)
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

    def test_f_ozaki_degenerate_atom(self):
        # lam >= 1/2 uses c = 2: a single atom at 1, so F is the
        # antiderivative of (1-z)^lam.
        desc = bound_d2(ClassParams.ozaki(0.75)).lower_extremal
        assert desc.rep.n_atoms == 1
        f = extremal_series(desc, 8)
        closed = cpow(one(8) + monomial(1, 8, -1.0), 0.75).antiderivative()
        assert_series_close(f, closed.coeffs, atol=1e-13)

    def test_f_ozaki_half_branch_agreement(self):
        # At lam = 1/2 both stated parameter choices give c = 2.
        lam = 0.5
        assert 3 / (2 - lam) == pytest.approx(2.0)
        desc = bound_d2(ClassParams.ozaki(lam)).lower_extremal
        assert attainment(desc, Which.D2) == pytest.approx(-5 / 24, abs=1e-12)


class TestAttainment:
    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_all_targets_attained(self, params):
        for desc, which, target in extremal_targets(params):
            assert attainment(desc, which, order=8) == pytest.approx(target, abs=1e-9), (
                f"{desc.name.value} misses its {which.value} endpoint"
            )

    def test_named_examples(self):
        params = ClassParams.spirallike(0.3, 0.7)
        h = ExtremalDescriptor(ExtremalName.H, params)
        assert attainment(h, Which.D2) == pytest.approx(0.7 * math.cos(0.7), abs=1e-12)
        q = ExtremalDescriptor(ExtremalName.Q, ClassParams.convex(0.3, 0.7))
        assert attainment(q, Which.D1) == pytest.approx(-1.0, abs=1e-12)
        desc = bound_d2(ClassParams.ozaki(0.75)).lower_extremal
        assert attainment(desc, Which.D2) == pytest.approx(-0.34375, abs=1e-12)

    def test_rotation_invariance(self, rng):
        # e^{-i theta} f(e^{i theta} z) multiplies a_n by e^{i(n-1)theta};
        # both functionals are unchanged.
        for params in (ClassParams.spirallike(0.25, 0.5), ClassParams.ozaki(0.6)):
            for desc, which, _ in extremal_targets(params):
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

    def test_nine_catalog_names(self):
        names = set()
        for params in (SPIRAL_00, CONVEX_00, ClassParams.ozaki(1.0)):
            for desc, _, _ in extremal_targets(params):
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
