"""Class constructors, coefficient maps, and membership sampling."""

import cmath
import math

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyint

from succoeff import (
    AtomicHerglotzRep,
    ClassParams,
    CoeffTriple,
    DomainError,
    EvaluationError,
    ExtremalDescriptor,
    Family,
    TruncatedSeries,
    bound_d1,
    bound_d2,
    config,
    construct_member,
    extremal_series,
    membership_check,
    moments,
    mu,
    random_rep,
    to_series,
)
from conftest import assert_series_close, atom_jet_reference, coeffs_from_c, float_bits, gated
from succoeff.families import _atom_jet, _exponent, _member
from succoeff.verify import _d1_slope, _d2_constants
from jets import cpow, polynomial


def herglotz_series(order):
    """p = (1+z)/(1-z)."""
    return TruncatedSeries([1] + [2] * order)


def even_herglotz_series(order):
    """p = (1+z^2)/(1-z^2)."""
    c = np.zeros(order + 1, dtype=complex)
    c[0] = 1.0
    c[2::2] = 2.0
    return TruncatedSeries(c)


def spirallike_member(p, alpha=0.0, gamma=0.0):
    return construct_member(ClassParams.spirallike(alpha, gamma), p)


def ozaki_member(p, lam):
    return construct_member(ClassParams.ozaki(lam), p)


class TestParams:
    def test_mu_invariants(self):
        for g in (-1.2, -0.3, 0.0, 0.7, 1.5):
            m = mu(g)
            assert abs(abs(m) - math.cos(g)) < 1e-15
            assert abs(m.real - math.cos(g) ** 2) < 1e-15

    @pytest.mark.parametrize("value, stored", [
        (np.float32(0.3), float(np.float32(0.3))), (np.float64(0.3), 0.3), (np.int64(1), 1.0),
        ("0.3", None), (b"0.3", None), (0.3 + 0j, None), (np.complex128(0.3), None),
        (np.complex64(0.3), None), (None, None), ([0.3], None)],
        ids=["float32", "float64", "int64", "str", "bytes", "complex", "complex128", "complex64",
             "None", "list"])
    def test_parameters_are_stored_as_float(self, value, stored):
        # A numpy scalar is kept as a Python float, so no result inherits its
        # type; a string, a complex or a non-number is a DomainError.
        if stored is None:
            with pytest.raises(DomainError, match="lam must be a real number"):
                ClassParams.ozaki(value)
            return
        params = ClassParams.ozaki(value)
        assert type(params.lam) is float and params.lam.hex() == stored.hex()
        assert type(bound_d2(params).lower) is float

    @pytest.mark.parametrize("family, values", [
        ("spirallike", {"alpha": 0.2, "gamma": 0.3}),
        ("convex", {"alpha": 0.2, "gamma": 0.3}),
        ("ozaki", {"lam": 0.3}),
    ])
    def test_family_given_by_value(self, family, values):
        # The family is stored as the enum member, so the family checks
        # downstream, which use `is`, see it.
        by_value, by_enum = ClassParams(family, **values), ClassParams(Family(family), **values)
        assert by_value.family is by_enum.family is Family(family)
        rep = random_rep(3, 1)
        assert construct_member(by_value, rep, 6).coeffs == construct_member(by_enum, rep, 6).coeffs
        assert coeffs_from_c(by_value, 1.2, 0.5j) == coeffs_from_c(by_enum, 1.2, 0.5j)
        assert bound_d1(by_value) == bound_d1(by_enum)
        assert bound_d2(by_value) == bound_d2(by_enum)

    def test_coeff_triple_normalization(self):
        # a1 is 1 by normalization, so it is not a field.
        assert CoeffTriple._fields == ("a2", "a3")
        with pytest.raises(TypeError):
            CoeffTriple(a2=0.0, a3=0.0, a1=1.0)
        assert CoeffTriple(-0.75 + 1j, 0.0).d1() == 0.25


class TestSpirallikeConstruction:
    def test_trivial_p(self):
        f = spirallike_member(polynomial(8, 1), 0.3, 0.4)
        assert_series_close(f, polynomial(8, 0, 1).coeffs)

    def test_koebe(self):
        f = spirallike_member(herglotz_series(8), 0.0, 0.0)
        assert_series_close(f, [0, 1, 2, 3, 4, 5, 6, 7, 8], atol=1e-12)

    @pytest.mark.parametrize("alpha,gamma", [(0.0, 0.0), (0.25, 0.6), (0.5, -0.9)])
    def test_even_kernel_coefficients(self, alpha, gamma):
        # p = (1+z^2)/(1-z^2) produces a2 = 0 and a3 = (1-alpha) mu.
        f = spirallike_member(even_herglotz_series(8), alpha, gamma)
        assert abs(f.coeffs[2]) < 1e-14
        assert f.coeffs[3] == pytest.approx((1 - alpha) * mu(gamma), abs=1e-14)

    def test_rejects_bad_p(self):
        with pytest.raises(DomainError):
            spirallike_member(polynomial(6, 0, 1), 0.0, 0.0)


class TestOzakiConstruction:
    def test_trivial_p(self):
        f = ozaki_member(polynomial(8, 1), 0.5)
        assert_series_close(f, polynomial(8, 0, 1).coeffs)

    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.0])
    def test_even_kernel_gives_h(self, lam):
        # The even kernel generates int_0^z (1-t^2)^{lam/2} dt: a2 = 0 and
        # a3 = -lam/6 (modulus lam/6).
        f = ozaki_member(even_herglotz_series(10), lam)
        h = cpow(polynomial(9, 1, 0, -1), lam / 2)
        assert_series_close(f, polyint(h.coeffs), atol=1e-13)
        assert abs(f.coeffs[2]) < 1e-14
        assert f.coeffs[3] == pytest.approx(-lam / 6, abs=1e-14)
        assert abs(f.coeffs[3]) == gated(lam / 6)

    def test_full_mass_atom(self):
        # c1 = 2 gives a2 = -lam/2.
        f = ozaki_member(herglotz_series(8), 0.8)
        assert f.coeffs[2] == pytest.approx(-0.4, abs=1e-14)


class TestAlexander:
    @pytest.mark.parametrize("order", [8, 128])
    def test_convex_member_is_alexander_inverse(self, order):
        # z f' of the convex member is the spirallike member of the same p,
        # from its atoms and from its series.
        rep = AtomicHerglotzRep((0.2, 0.5, 0.3), (1j, cmath.exp(2.1j), -1.0))
        for p, n in ((rep, order), (to_series(rep, order), None)):
            for alpha, gamma in ((0.0, 0.0), (0.3, -0.5), (0.6, 1.2)):
                f = construct_member(ClassParams.convex(alpha, gamma), p, n)
                g = construct_member(ClassParams.spirallike(alpha, gamma), p, n)
                assert_series_close(f.derivative(), [*g.coeffs[1:], 0], atol=1e-13)


class TestCoeffMaps:
    def test_spirallike_koebe_kernel(self):
        t = coeffs_from_c(ClassParams.spirallike(0, 0), 2.0, 2.0)
        assert t.a2 == gated(2.0)
        assert t.a3 == gated(3.0)

    def test_convex_even_kernel(self):
        t = coeffs_from_c(ClassParams.convex(0, 0), 0.0, 2.0)
        assert t.a2 == gated(0.0)
        assert t.a3 == gated(1 / 3)

    def test_ozaki(self):
        t = coeffs_from_c(ClassParams.ozaki(1.0), 0.0, -2.0)
        assert t.a2 == gated(0.0)
        assert t.a3 == gated(1 / 6)

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
            triple = CoeffTriple(*construct_member(params, p).coeffs[2:4])
            expected = coeffs_from_c(params, *p.coeffs[1:3])
            assert triple.a2 == pytest.approx(expected.a2, abs=1e-10)
            assert triple.a3 == pytest.approx(expected.a3, abs=1e-10)


def per_family_formulas(params):
    """(d1 slope, d2 constants, (c1, c2) -> (a2, a3)), written out family by family.

    These are the forms the derivation from the exponent v replaced; they
    pin v and the coefficient rule, which the derived code shares.
    """
    a, g, lam = params.alpha, params.gamma, params.lam
    if params.family is Family.OZAKI_G:
        return (lam / 4.0, (lam / 24.0, 1.0 - lam + 0j, 6.0),
                lambda c1, c2: (-lam * c1 / 4.0, (lam * lam * c1 * c1 - 2.0 * lam * c2) / 24.0))
    w = (1.0 - a) * mu(g)
    u = 1.0 + 2.0 * (1.0 - a) * mu(g)
    cosg = math.cos(g)
    if params.family is Family.SPIRALLIKE:
        return ((1.0 - a) * cosg, ((1.0 - a) * cosg / 4.0, u, 4.0),
                lambda c1, c2: (w * c1, (w * w * c1 * c1 + w * c2) / 2.0))
    return ((1.0 - a) * cosg / 2.0, ((1.0 - a) * cosg / 12.0, u, 6.0),
            lambda c1, c2: (w * c1 / 2.0, (w * w * c1 * c1 + w * c2) / 6.0))


@pytest.mark.parametrize("params", [
    ClassParams.spirallike(0.3, 0.7),
    ClassParams.spirallike(0.0, -1.1),
    ClassParams.convex(0.5, -0.4),
    ClassParams.convex(0.2, 1.3),
    ClassParams.ozaki(0.3),
    ClassParams.ozaki(0.5),
    ClassParams.ozaki(1.0),
])
def test_derived_constants_match_per_family_formulas(params):
    slope, constants, coeffs = per_family_formulas(params)
    assert _d1_slope(params) == slope
    assert _d2_constants(params) == constants
    for c1, c2 in ((2.0, 2.0), (0.0, -2.0), (1.3 - 0.4j, -0.7 + 1.1j), (-0.9j, 1.9 + 0.1j)):
        assert tuple(coeffs_from_c(params, c1, c2)) == coeffs(c1, c2)


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
        assert len(got.coeffs) == order + 1
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
    def test_jet_matches_per_member_loop_bitwise(self, params, order):
        # Mixed atom counts, with ties, and a measure with zero parts of
        # either sign: the jet and each lone member are bitwise the
        # per-member loop.  Every g_k is finite and within Duren's
        # majorant (1 - z)^{-2|v|}, |v| <= 1, plus one gate per recurrence
        # step: sample_no_violation reads a member from g_1 and g_2 alone
        # because no later coefficient can fail.  One atom meets the
        # majorant at |v| = 1.
        counts = (3, 64, 1, 17, 64, 2, 1, 6) if order < 1024 else (3, 64, 1, 6, 1)
        reps = [random_rep(n, seed) for seed, n in enumerate(counts)]
        reps.append(AtomicHerglotzRep((0.125,) * 8, (
            1 + 0j, complex(1, -0.0), -1 + 0j, complex(-1, -0.0),
            1j, -1j, complex(-0.0, 1), complex(0.0, -1))))
        v = _exponent(params)
        for rep in reps:
            want = atom_jet_reference(rep, order - 1, v)
            assert float_bits(_atom_jet(rep.weights, rep.points, order - 1, v)) == float_bits(want)
            got = float_bits(construct_member(params, rep, order).coeffs)
            assert got == float_bits(_member(params, want).coeffs)
            assert all(cmath.isfinite(g) for g in want)
            assert all(abs(g) <= (k + 1) * (1 + k * config.gate(1.0)) for k, g in enumerate(want))

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
        f = polynomial(8, 0, 1)
        for params, expected in [
            (ClassParams.spirallike(0.25, 0.5), 0.75 * math.cos(0.5)),
            (ClassParams.convex(0.25, 0.5), 0.75 * math.cos(0.5)),
            (ClassParams.ozaki(0.6), 0.3),
        ]:
            report = membership_check(f, params)
            assert report.passed
            assert report.worst_margin == pytest.approx(expected, abs=1e-12)

    def test_zero_of_f_reported(self):
        # f(z) = z - z^2/0.6 vanishes at the sample point z = 0.6.
        f = polynomial(8, 0, 1, -1 / 0.6)
        with pytest.raises(EvaluationError, match=r"z=0\.6\+0j"):
            membership_check(f, ClassParams.spirallike(0.0, 0.0))

    def test_zero_of_fprime_reported(self):
        # f'(z) = 1 - z/0.6 vanishes at the sample point z = 0.6.
        f = polynomial(8, 0, 1, -1 / 1.2)
        with pytest.raises(EvaluationError, match=r"z=0\.6\+0j"):
            membership_check(f, ClassParams.ozaki(1.0))

    def test_truncation_caveat_documented(self):
        # At the default order the check is necessary-style only: the jet of
        # the full-mass-atom (Koebe-type) member misreports the functional
        # already at r = 0.6, because the dropped tail dominates there.  The
        # grid is config.MEMBERSHIP_RADII; no caller picks its radii.
        koebe_jet = spirallike_member(herglotz_series(12), 0.0, 0.0)
        report = membership_check(koebe_jet, ClassParams.spirallike(0.0, 0.0))
        assert not report.passed  # false negative, documented limitation
        assert abs(report.worst_z) == gated(0.6)
        with pytest.raises(TypeError, match="radii"):
            membership_check(koebe_jet, ClassParams.spirallike(0.0, 0.0), radii=[0.6])
        deep = spirallike_member(herglotz_series(128), 0.0, 0.0)
        assert membership_check(deep, ClassParams.spirallike(0.0, 0.0)).passed


_SPIRAL = ClassParams.spirallike(0.25, 0.5)
_REP = AtomicHerglotzRep([0.5, 0.5], [1, -1])


@pytest.mark.parametrize("call, name", [
    (lambda: construct_member(_SPIRAL, _REP, 4.5), "order"),
    (lambda: construct_member(_SPIRAL, _REP), "order"),
    (lambda: to_series(_REP, 2.5), "order"),
    (lambda: moments(_REP, 2.5), "k_max"),
    (lambda: extremal_series(ExtremalDescriptor("K", _SPIRAL), 4.5), "order"),
], ids=["construct_member", "construct_member-none", "to_series", "moments", "extremal_series"])
def test_library_counts_must_be_integers(call, name):
    # A count that is no integer is a DomainError, not a bare TypeError from
    # range() or list repetition deep inside the call.
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        call()
