"""Atomic representations, the (c2, c3) parametrization, two-atom solving."""

import math
import re

import numpy as np
import pytest

from succoeff import (
    AtomicHerglotzRep,
    DegenerateError,
    DomainError,
    InfeasibleError,
    config,
    moments,
    random_rep,
    solve_two_atom,
    to_series,
)
from conftest import (
    LZParams,
    assert_series_close,
    fft_taylor_coeffs,
    gated,
    lz_c2,
    lz_c3,
    lz_invert_x,
    lz_invert_y,
    normalize_rotation,
)


def herglotz_eval(rep, z):
    z = np.asarray(z)
    w, e = np.asarray(rep.weights), np.asarray(rep.points)
    num = 1.0 + e[None, :] * z[..., None]
    den = 1.0 - e[None, :] * z[..., None]
    return (w[None, :] * num / den).sum(axis=-1)


class TestRepInvariants:
    def test_rejects_bad_weights(self):
        with pytest.raises(DomainError):
            AtomicHerglotzRep(np.array([0.5, 0.6]), np.array([1.0 + 0j, -1.0 + 0j]))
        with pytest.raises(DomainError):
            AtomicHerglotzRep(np.array([1.0, 0.0]), np.array([1.0 + 0j, -1.0 + 0j]))

    def test_rejects_interior_points(self):
        with pytest.raises(DomainError):
            AtomicHerglotzRep(np.array([1.0]), np.array([0.5 + 0j]))

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            AtomicHerglotzRep(np.array([]), np.array([]))

    # (weights, points, the error AtomicHerglotzRep raises for them)
    BAD_MEASURES = {
        "zero-weight": ((0.5, 0.0, 0.5), (1 + 0j, 1j, -1 + 0j), "weights must lie in (0, 1]"),
        "sum-off-1e-9": ((0.5, 0.5 + 1e-9), (1 + 0j, -1 + 0j), "weights must sum to 1"),
        "sum-off-1e-13": ((0.5, 0.5 + 1e-13), (1 + 0j, -1 + 0j), "weights must sum to 1"),
        "eps-1e-9-out": ((1.0,), (1 + 1e-9 + 0j,), "atom points must lie on the unit circle"),
        "eps-1e-13-out": ((1.0,), (1 + 1e-13 + 0j,), "atom points must lie on the unit circle"),
        "eps-1e-13-in": ((1.0,), (1 - 1e-13 + 0j,), "atom points must lie on the unit circle"),
        "nan-weight": ((0.5, math.nan), (1j, -1j), "weights must lie in (0, 1]"),
        "nan-point": ((1.0,), (complex(math.nan, 0.0),), "atom points must lie on the unit circle"),
        "mismatched": ((0.5, 0.5), (1 + 0j,), "need matching, nonempty weight/point sequences"),
        "empty": ((), (), "need matching, nonempty weight/point sequences"),
    }

    @pytest.mark.parametrize("weights, points, message", BAD_MEASURES.values(), ids=BAD_MEASURES)
    def test_bad_measure_raises_its_message(self, weights, points, message):
        # The checks run in a fixed order, so each measure names one rule.
        with pytest.raises(DomainError) as exc:
            AtomicHerglotzRep(weights, points)
        assert str(exc.value) == message

    def test_accepts_one_ulp_off(self):
        # Each check forgives config.gate(1.0), the weight sum one per atom.
        up, down = math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)
        AtomicHerglotzRep((up,), (down,))
        AtomicHerglotzRep((0.5, math.nextafter(0.5, 1.0)), (1j, -1j))
        AtomicHerglotzRep((0.5, 0.5), (up, complex(0.0, -up)))
        # At the bounds themselves too, and one ulp of 1 beyond them not.
        tol = config.gate(1.0)
        AtomicHerglotzRep((0.5, 0.5 + 2 * tol), (1 + tol, -1 + 0j))
        AtomicHerglotzRep((1 + tol,), (1 + 0j,))
        with pytest.raises(DomainError, match=r"lie in \(0, 1\]"):
            AtomicHerglotzRep((math.nextafter(1 + tol, 2.0),), (1 + 0j,))
        with pytest.raises(DomainError, match="sum to 1"):
            AtomicHerglotzRep((0.5, 0.5 + 2 * tol + 2.0**-52), (1 + 0j, -1 + 0j))
        with pytest.raises(DomainError, match="unit circle"):
            AtomicHerglotzRep((1.0,), (math.nextafter(1 + tol, 2.0),))


class TestMoments:
    def test_single_atom_at_one(self):
        rep = AtomicHerglotzRep([1.0], [1.0 + 0j])
        np.testing.assert_allclose(moments(rep, 5), 2.0 * np.ones(5), atol=1e-14)

    def test_conjugate_imaginary_pair(self):
        rep = AtomicHerglotzRep([0.5, 0.5], [1j, -1j])
        np.testing.assert_allclose(moments(rep, 3), [0, -2, 0], atol=1e-14)

    def test_pi_third_pair(self):
        rep = AtomicHerglotzRep([0.5, 0.5], [np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3)])
        np.testing.assert_allclose(moments(rep, 3), [1, -1, -2], atol=1e-14)

    def test_against_contour_oracle(self, rng):
        rep = random_rep(4, seed=77)
        oracle = fft_taylor_coeffs(lambda z: herglotz_eval(rep, z), 9)
        np.testing.assert_allclose(moments(rep, 8), oracle[1:], atol=1e-12)
        assert abs(oracle[0] - 1.0) < 1e-13


class TestToSeries:
    def test_single_atom(self):
        rep = AtomicHerglotzRep([1.0], [1.0 + 0j])
        assert_series_close(to_series(rep, 5), [1, 2, 2, 2, 2, 2])

    def test_plus_minus_pair(self):
        rep = AtomicHerglotzRep([0.5, 0.5], [1.0 + 0j, -1.0 + 0j])
        assert_series_close(to_series(rep, 6), [1, 0, 2, 0, 2, 0, 2])

    def test_order_zero_is_the_constant(self):
        rep = AtomicHerglotzRep([0.5, 0.5], [1.0 + 0j, -1.0 + 0j])
        assert to_series(rep, 0).coeffs == (1 + 0j,)

    def test_positivity_sampled(self, rng):
        # Herglotz positivity survives truncation once the dropped tail
        # 2 r^{N+1}/(1-r) is below the smallest kernel real part; at
        # r = 0.95 that needs order ~256.
        for _ in range(5):
            rep = random_rep(int(rng.integers(1, 6)), int(rng.integers(0, 2**31)))
            p = to_series(rep, 256)
            z = 0.95 * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
            assert p.eval(z).real.min() > 0

    def test_positivity_near_boundary_exact(self, rng):
        # At |z| up to 0.999 no practical truncation order is faithful, so
        # the represented function itself is sampled in rational form.
        reps = [
            random_rep(int(rng.integers(1, 7)), int(rng.integers(0, 2**31)))
            for _ in range(10)
        ]
        reps.append(solve_two_atom(1.0, -1.0))
        reps.append(solve_two_atom(0.7, np.exp(0.3j)))
        z = 0.999 * np.sqrt(rng.random(500)) * np.exp(2j * np.pi * rng.random(500))
        for rep in reps:
            assert herglotz_eval(rep, z).real.min() > 0


class TestLZFormulas:
    def test_c2_koebe_kernel(self):
        assert lz_c2(2.0, 0.3 + 0.4j) == gated(2.0)

    def test_c2_even_kernel(self):
        assert lz_c2(0.0, 1.0) == gated(2.0)

    def test_c2_starlike_extremal(self):
        # c=1, x=-1 generates the e^{+-i pi/3} pair, whose c2 is -1.
        assert lz_c2(1.0, -1.0) == gated(-1.0)

    def test_c3_koebe_kernel(self):
        assert lz_c3(2.0, 0.5j, -0.2) == gated(2.0)

    def test_c3_even_kernel(self):
        assert lz_c3(0.0, 1.0, 0.77j) == gated(0.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lz_c2(2.5, 0.0)
        with pytest.raises(DomainError):
            lz_c2(1.0, 1.2)
        with pytest.raises(DomainError):
            lz_c2(1.0, 1 + 1e-13)
        assert lz_c2(1.0, math.nextafter(1.0, 2.0)) == gated(2.0)
        with pytest.raises(DomainError):
            lz_c3(1.0, 0.5, 1.5)
        with pytest.raises(DomainError):
            LZParams(-0.1, 0.0, 0.0)

    def test_four_atom_oracle_with_y(self, rng):
        # Measures with >= 4 atoms lie strictly inside the level-3 moment
        # body, so |x| < 1 and the determined y must land in the disk.
        checked = 0
        while checked < 200:
            rep = random_rep(4, int(rng.integers(0, 2**31)))
            rotated, c1 = normalize_rotation(rep)
            if 4.0 - c1 * c1 < 1e-3:
                continue
            c = moments(rotated, 3)
            x = lz_invert_x(c1, c[1])
            if abs(x) > 1 - 1e-4:
                continue
            y = lz_invert_y(c1, x, c[2])
            assert abs(y) <= 1 + 1e-9
            if abs(y) > 1.0:  # boundary-touching up to roundoff
                y /= abs(y)
            assert lz_c3(c1, x, y) == pytest.approx(c[2], abs=1e-10)
            checked += 1


class TestSolveTwoAtom:
    @pytest.mark.parametrize("c", [0.0, 0.5, 1.0, 1.5, 1.99])
    def test_symmetric_pair(self, c):
        rep = solve_two_atom(c, 1.0)
        np.testing.assert_array_equal(rep.points, [1.0, -1.0])
        assert rep.weights == (gated((2 + c) / 4), gated((2 - c) / 4))

    def test_atoms_sorted_by_argument(self, rng):
        for _ in range(10):
            rep = solve_two_atom(rng.uniform(0, 1.9), np.exp(2j * np.pi * rng.random()))
            args = np.mod(np.angle(rep.points), 2 * np.pi)
            assert args[0] <= args[1]

    def test_degenerate_c(self):
        with pytest.raises(DegenerateError):
            solve_two_atom(2.0, -1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            solve_two_atom(-0.5, 1.0)
        with pytest.raises(DomainError):
            solve_two_atom(2.5, 1.0)
        with pytest.raises(DomainError):
            solve_two_atom(1.0, 1 + 1e-13)

    def test_interior_x_infeasible(self):
        for x in (0.5 + 0j, 1.0 - 1e-9, 1.0 - 1e-13):
            with pytest.raises(InfeasibleError):
                solve_two_atom(1.0, x)
        # |x| one ulp off 1, and |x| = 1 + gate(1.0) itself, is on the boundary.
        for x in (math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 1 + config.gate(1.0)):
            assert solve_two_atom(1.0, x).weights == (gated(0.75), gated(0.25))


class TestRandomRep:
    def test_single_atom(self):
        rep = random_rep(1, seed=5)
        assert len(rep.weights) == 1
        assert rep.weights[0] == gated(1.0)

    def test_deterministic(self):
        a = random_rep(3, seed=11)
        b = random_rep(3, seed=11)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.points, b.points)

    def test_rejects_zero_atoms(self):
        with pytest.raises(DomainError):
            random_rep(0, seed=1)


_NAN = float("nan")
_REP = AtomicHerglotzRep([0.5, 0.5], [1, -1])


@pytest.mark.parametrize("call, message", [
    (lambda: solve_two_atom(1.0, _NAN), "|x| must be <= 1"),
    (lambda: solve_two_atom(_NAN, -1.0), "c must lie in"),
    (lambda: to_series(_REP, -1), "order must be >= 0"),
    (lambda: to_series(_REP, -3), "order must be >= 0"),
], ids=["solve_two_atom-x", "solve_two_atom-c", "to_series-1", "to_series-3"])
def test_input_checks_reject_nan_and_negative_order(call, message):
    # A NaN fails every comparison, so each bound is written `not v <= bound`.
    with pytest.raises(DomainError, match=re.escape(message)):
        call()
