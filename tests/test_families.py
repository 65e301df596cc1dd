"""Class constructors, coefficient maps, and membership sampling."""

import math

import numpy as np
import pytest

from succoeff import (
    AtomicHerglotzRep,
    ClassParams,
    CoeffTriple,
    DomainError,
    EvaluationError,
    Family,
    TruncatedSeries,
    alexander_inverse,
    coeffs_from_c,
    coeffs_from_series,
    construct_member,
    gclass_from_p,
    membership_check,
    mu,
    random_rep,
    spirallike_from_p,
    to_series,
)
from conftest import assert_series_close, atom_jet_reference, float_bits
from succoeff.families import _atom_jets, _exponent, _member
from jets import cpow, monomial, one


def herglotz_series(order):
    """p = (1+z)/(1-z)."""
    return TruncatedSeries([1] + [2] * order)


def even_herglotz_series(order):
    """p = (1+z^2)/(1-z^2)."""
    c = np.zeros(order + 1, dtype=complex)
    c[0] = 1.0
    c[2::2] = 2.0
    return TruncatedSeries(c)


def conj_reflect(f: TruncatedSeries) -> TruncatedSeries:
    """g(z) = conj(f(conj z)): coefficientwise conjugation."""
    return TruncatedSeries(np.conj(f.coeffs))


class TestParams:
    def test_mu_invariants(self):
        for g in (-1.2, -0.3, 0.0, 0.7, 1.5):
            m = mu(g)
            assert abs(abs(m) - math.cos(g)) < 1e-15
            assert abs(m.real - math.cos(g) ** 2) < 1e-15

    def test_range_validation(self):
        with pytest.raises(DomainError):
            ClassParams.spirallike(alpha=1.0)
        with pytest.raises(DomainError):
            ClassParams.spirallike(gamma=math.pi / 2)
        with pytest.raises(DomainError):
            ClassParams.ozaki(0.0)
        with pytest.raises(DomainError):
            ClassParams.ozaki(1.5)
        with pytest.raises(DomainError):
            ClassParams(Family.OZAKI_G, alpha=0.2, lam=0.5)
        with pytest.raises(DomainError):
            ClassParams(Family.SPIRALLIKE, lam=0.5)

    def test_coeff_triple_normalization(self):
        with pytest.raises(DomainError):
            CoeffTriple(a2=0.0, a3=0.0, a1=2.0)


class TestSpirallikeConstruction:
    def test_trivial_p(self):
        f = spirallike_from_p(one(8), 0.3, 0.4)
        assert_series_close(f, monomial(1, 8).coeffs)

    def test_koebe(self):
        f = spirallike_from_p(herglotz_series(8), 0.0, 0.0)
        assert_series_close(f, [0, 1, 2, 3, 4, 5, 6, 7, 8], atol=1e-12)

    @pytest.mark.parametrize("alpha,gamma", [(0.0, 0.0), (0.25, 0.6), (0.5, -0.9)])
    def test_even_kernel_coefficients(self, alpha, gamma):
        # p = (1+z^2)/(1-z^2) produces a2 = 0 and a3 = (1-alpha) mu.
        f = spirallike_from_p(even_herglotz_series(8), alpha, gamma)
        assert abs(f[2]) < 1e-14
        assert f[3] == pytest.approx((1 - alpha) * mu(gamma), abs=1e-14)

    def test_rejects_bad_p(self):
        with pytest.raises(DomainError):
            spirallike_from_p(monomial(1, 6), 0.0, 0.0)


class TestOzakiConstruction:
    def test_trivial_p(self):
        f = gclass_from_p(one(8), 0.5)
        assert_series_close(f, monomial(1, 8).coeffs)

    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.0])
    def test_even_kernel_gives_h(self, lam):
        # The even kernel generates int_0^z (1-t^2)^{lam/2} dt: a2 = 0 and
        # a3 = -lam/6 (modulus lam/6).
        f = gclass_from_p(even_herglotz_series(10), lam)
        h = cpow(one(10) + monomial(2, 10, -1.0), lam / 2).antiderivative()
        assert_series_close(f, h.coeffs, atol=1e-13)
        assert abs(f[2]) < 1e-14
        assert f[3] == pytest.approx(-lam / 6, abs=1e-14)
        assert abs(f[3]) == pytest.approx(lam / 6)

    def test_full_mass_atom(self):
        # c1 = 2 gives a2 = -lam/2.
        f = gclass_from_p(herglotz_series(8), 0.8)
        assert f[2] == pytest.approx(-0.4, abs=1e-14)


class TestAlexander:
    def test_identity(self):
        assert_series_close(alexander_inverse(monomial(1, 6)), monomial(1, 6).coeffs)

    def test_koebe_maps_to_half_plane_function(self):
        koebe = TruncatedSeries(np.arange(9, dtype=complex))
        assert_series_close(alexander_inverse(koebe), [0] + [1] * 8)

    def test_even_kernel_maps_h_to_q(self):
        alpha, gamma = 0.3, -0.5
        h = spirallike_from_p(even_herglotz_series(8), alpha, gamma)
        q = alexander_inverse(h)
        assert q[3] == pytest.approx((1 - alpha) * mu(gamma) / 3, abs=1e-14)

    def test_roundtrip(self, rng):
        g = TruncatedSeries(
            np.r_[0.0, 1.0, rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)]
        )
        f = alexander_inverse(g)
        assert_series_close(f.derivative().shift_up(), g.coeffs, atol=1e-14)


class TestCoeffMaps:
    def test_spirallike_koebe_kernel(self):
        t = coeffs_from_c(ClassParams.spirallike(0, 0), 2.0, 2.0)
        assert t.a2 == pytest.approx(2.0)
        assert t.a3 == pytest.approx(3.0)

    def test_convex_even_kernel(self):
        t = coeffs_from_c(ClassParams.convex(0, 0), 0.0, 2.0)
        assert t.a2 == pytest.approx(0.0)
        assert t.a3 == pytest.approx(1 / 3)

    def test_ozaki(self):
        t = coeffs_from_c(ClassParams.ozaki(1.0), 0.0, -2.0)
        assert t.a2 == pytest.approx(0.0)
        assert t.a3 == pytest.approx(1 / 6)

    def test_rejects_oversized_moments(self):
        with pytest.raises(DomainError):
            coeffs_from_c(ClassParams.ozaki(1.0), 2.5, 0.0)
        with pytest.raises(DomainError):
            coeffs_from_c(ClassParams.ozaki(1.0), 0.0, 2 + 5e-10)

    @pytest.mark.parametrize(
        "params",
        [
            ClassParams.spirallike(0.0, 0.0),
            ClassParams.spirallike(0.35, 0.8),
            ClassParams.convex(0.0, 0.0),
            ClassParams.convex(0.5, -0.7),
            ClassParams.ozaki(0.3),
            ClassParams.ozaki(1.0),
        ],
    )
    def test_construction_matches_closed_form(self, params, rng):
        # Coefficients read off the constructed series agree with the maps.
        for _ in range(20):
            rep = random_rep(int(rng.integers(1, 6)), int(rng.integers(0, 2**31)))
            p = to_series(rep, 8)
            triple = coeffs_from_series(construct_member(params, p))
            expected = coeffs_from_c(params, p[1], p[2])
            assert triple.a2 == pytest.approx(expected.a2, abs=1e-10)
            assert triple.a3 == pytest.approx(expected.a3, abs=1e-10)

    def test_coeffs_from_series_validates(self):
        with pytest.raises(DomainError):
            coeffs_from_series(one(8))


ATOM_PATH_PARAMS = [
    ClassParams.spirallike(0.0, 0.0),
    ClassParams.spirallike(0.25, 0.5),
    ClassParams.convex(0.0, 0.0),
    ClassParams.convex(0.25, -0.5),
    ClassParams.ozaki(0.6),
    ClassParams.ozaki(1.0),
]


def _atom_path_tol(order: int) -> float:
    """Agreement of two float constructions, as a fraction of the largest
    coefficient.  At order 1024 with alpha = 0 the O(N^2) exp of the series
    errs by up to 1.5e-14 against a 200-bit reference (the atom sums by
    3e-15), and the binomial product recurrence with complex v by 3e-14."""
    return 1e-14 if order <= 128 else 5e-14


def _rel_diff(got: TruncatedSeries, ref) -> float:
    ref = np.asarray(ref, dtype=complex)
    return np.max(np.abs(np.asarray(got.coeffs) - ref)) / np.max(np.abs(ref))


class TestAtomPath:
    """construct_member from an atomic measure against the series form."""

    @pytest.mark.parametrize("params", ATOM_PATH_PARAMS)
    @pytest.mark.parametrize("order", [12, 128, 1024])
    @pytest.mark.parametrize("n_atoms", [1, 6, 64])
    def test_agrees_with_series_path(self, params, order, n_atoms, rng):
        rep = random_rep(n_atoms, int(rng.integers(0, 2**31)))
        got = construct_member(params, rep, order)
        ref = construct_member(params, to_series(rep, order))
        assert got.order == order
        assert _rel_diff(got, ref.coeffs) <= _atom_path_tol(order)

    @pytest.mark.parametrize("params", ATOM_PATH_PARAMS)
    @pytest.mark.parametrize("order", [12, 128, 1024])
    def test_point_mass_is_binomial_series(self, params, order):
        # One atom at eps: the exponential factor is (1 - eps z)^{-2v},
        # b_k = b_{k-1} eps (2v + k - 1)/k, with v = (1-a) mu(g) or -lam/2.
        if params.family is Family.OZAKI_G:
            v = -params.lam / 2.0
        else:
            v = (1.0 - params.alpha) * mu(params.gamma)
        for eps in (1.0 + 0j, -1.0 + 0j, np.exp(0.7j)):
            b = [1.0 + 0j]
            for k in range(1, order):
                b.append(b[-1] * eps * (2.0 * v + k - 1) / k)
            if params.family is Family.SPIRALLIKE:
                ref = [0j, *b]                                    # z g
            else:
                ref = [0j, *(bk / (k + 1) for k, bk in enumerate(b))]  # a_n = b_{n-1}/n
            got = construct_member(params, AtomicHerglotzRep((1.0,), (eps,)), order)
            assert _rel_diff(got, ref) <= _atom_path_tol(order)

    @pytest.mark.parametrize("params", ATOM_PATH_PARAMS)
    @pytest.mark.parametrize("order", [4, 12, 128, 1024])
    def test_batch_matches_lone_members_bitwise(self, params, order):
        # Mixed atom counts, with ties, in no particular order: every member
        # of the batch is bitwise the lone member and the per-member loop.
        counts = (3, 64, 1, 17, 64, 2, 1, 6) if order < 1024 else (3, 64, 1, 6, 1)
        reps = [random_rep(n, seed) for seed, n in enumerate(counts)]
        v = _exponent(params)
        for rep, g in zip(reps, _atom_jets(reps, order - 1, v)):
            got = float_bits(_member(params, g).coeffs)
            assert got == float_bits(construct_member(params, rep, order).coeffs)
            assert got == float_bits(_member(params, atom_jet_reference(rep, order - 1, v)).coeffs)

    def test_argument_errors(self):
        params = ClassParams.convex(0.25, 0.5)
        rep = random_rep(3, 7)
        with pytest.raises(DomainError):
            construct_member(params, rep)
        with pytest.raises(DomainError):
            construct_member(params, rep, 0)
        with pytest.raises(DomainError):
            construct_member(params, to_series(rep, 8), 8)


class TestMembership:
    def test_identity_margins(self):
        f = monomial(1, 8)
        for params, expected in [
            (ClassParams.spirallike(0.25, 0.5), 0.75 * math.cos(0.5)),
            (ClassParams.convex(0.25, 0.5), 0.75 * math.cos(0.5)),
            (ClassParams.ozaki(0.6), 0.3),
        ]:
            report = membership_check(f, params)
            assert report.passed
            assert report.worst_margin == pytest.approx(expected, abs=1e-12)

    def test_constructed_members_pass(self, rng):
        # Sampling radii up to 0.9 is reliable once the truncation order is
        # large enough that the dropped tail is small against |f| there.
        for params in (
            ClassParams.spirallike(0.2, 0.4),
            ClassParams.convex(0.2, 0.4),
            ClassParams.ozaki(0.8),
        ):
            for _ in range(5):
                rep = random_rep(int(rng.integers(1, 6)), int(rng.integers(0, 2**31)))
                f = construct_member(params, to_series(rep, 128))
                assert membership_check(f, params).passed

    def test_tilted_spiral_example(self):
        # z (1 - i z)^{i-1} lies in the tilt angle |pi/4| spirallike class
        # (at gamma = -pi/4 for this orientation convention) but in no
        # starlike class, and not at the opposite tilt.
        n = 64
        f = cpow(one(n) + monomial(1, n, -1j), 1j - 1).shift_up()
        assert membership_check(f, ClassParams.spirallike(0.0, -math.pi / 4)).passed
        assert not membership_check(f, ClassParams.spirallike(0.0, 0.0)).passed
        assert not membership_check(f, ClassParams.spirallike(0.0, math.pi / 4)).passed
        # the reflected companion realizes the opposite tilt
        assert membership_check(conj_reflect(f), ClassParams.spirallike(0.0, math.pi / 4)).passed

    def test_tilted_convex_example(self):
        # i (1 - z)^i - i: tilted-convex at |gamma| = pi/4, not convex.
        n = 64
        f = 1j * cpow(one(n) + monomial(1, n, -1.0), 1j) - 1j * one(n)
        assert abs(f[1] - 1.0) < 1e-14
        assert membership_check(f, ClassParams.convex(0.0, -math.pi / 4)).passed
        assert not membership_check(f, ClassParams.convex(0.0, 0.0)).passed
        assert membership_check(conj_reflect(f), ClassParams.convex(0.0, math.pi / 4)).passed

    def test_zero_of_f_reported(self):
        # f(z) = z - z^2/0.6 vanishes at the sample point z = 0.6.
        f = monomial(1, 8) + monomial(2, 8, -1 / 0.6)
        with pytest.raises(EvaluationError):
            membership_check(f, ClassParams.spirallike(0.0, 0.0), radii=[0.6])

    def test_zero_of_fprime_reported(self):
        # f'(z) = 1 - z/0.6 vanishes at the sample point z = 0.6.
        f = monomial(1, 8) + monomial(2, 8, -1 / 1.2)
        with pytest.raises(EvaluationError):
            membership_check(f, ClassParams.ozaki(1.0), radii=[0.6])

    def test_truncation_caveat_documented(self):
        # At the default order the check is necessary-style only: the jet of
        # the full-mass-atom (Koebe-type) member misreports the functional
        # already at r = 0.6, because the dropped tail dominates there.
        koebe_jet = spirallike_from_p(herglotz_series(12), 0.0, 0.0)
        report = membership_check(
            koebe_jet, ClassParams.spirallike(0.0, 0.0), radii=[0.6]
        )
        assert not report.passed  # false negative, documented limitation
        deep = spirallike_from_p(herglotz_series(128), 0.0, 0.0)
        assert membership_check(deep, ClassParams.spirallike(0.0, 0.0)).passed

    def test_grid_validation(self):
        f = monomial(1, 8)
        with pytest.raises(DomainError):
            membership_check(f, ClassParams.ozaki(1.0), radii=[1.5])
        with pytest.raises(DomainError):
            membership_check(f, ClassParams.ozaki(1.0), n_angles=0)
