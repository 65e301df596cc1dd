"""Jet arithmetic: examples, ring axioms, analytic round trips."""

import math

import numpy as np
import pytest

from succoeff import (ClassParams, DomainError, OrderMismatchError, TruncatedSeries,
                      construct_member, mu, random_rep, to_series)
from conftest import assert_series_close, random_series
from jets import cpow, log, monomial, np_eval, np_exp, np_integrate_kernel, np_product, one, zero


def geometric(order):
    return TruncatedSeries(np.ones(order + 1))


class TestConstruction:
    def test_length_and_order(self):
        f = TruncatedSeries([1, 2, 3])
        assert f.order == 2
        assert len(f) == 3

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            TruncatedSeries([1.0, np.nan])
        with pytest.raises(DomainError):
            TruncatedSeries([np.inf, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            TruncatedSeries([])

    def test_coeffs_read_only(self):
        f = TruncatedSeries([1, 2, 3])
        with pytest.raises(TypeError):
            f.coeffs[0] = 5.0

    def test_repr(self):
        f = TruncatedSeries([0, 1 / 3, complex(0, -2.5e-7)])
        assert repr(f) == "TruncatedSeries(order=2, coeffs=(0+0j, 0.333333+0j, 0-2.5e-07j))"


class TestAddMul:
    def test_additive_identity(self):
        f = TruncatedSeries([1, 2, 3])
        assert_series_close(f + zero(2), [1, 2, 3])

    def test_componentwise(self):
        got = TruncatedSeries([1, 1, 0]) + TruncatedSeries([0, -1, 1])
        assert_series_close(got, [1, 0, 1])

    def test_additive_inverse(self):
        f = TruncatedSeries([2, -1, 0.5])
        assert_series_close(f + (-1) * f, [0, 0, 0])

    @pytest.mark.parametrize("operation", [
        lambda f: f + 1, lambda f: f - 1, lambda f: f * None, lambda f: None * f,
    ], ids=["add", "sub", "mul", "rmul"])
    def test_other_operands_raise_type_error(self, operation):
        with pytest.raises(TypeError):
            operation(TruncatedSeries([1, 2, 3]))

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            TruncatedSeries([1, 2]) + TruncatedSeries([1, 2, 3])
        with pytest.raises(OrderMismatchError):
            TruncatedSeries([1, 2]) * TruncatedSeries([1, 2, 3])

    def test_geometric_product(self):
        # (1 - z) * (1 + z + ... + z^N) = 1 - z^{N+1}; the z^{N+1} term is
        # beyond the truncation order, so the jet product is exactly 1.
        n = 8
        one_minus_z = one(n) + monomial(1, n, -1.0)
        assert_series_close(one_minus_z * geometric(n), [1] + [0] * n)

    def test_multiplicative_identity(self):
        f = TruncatedSeries([1, 2, 3, 4])
        assert_series_close(f * one(3), f.coeffs)

    def test_binomial_square(self):
        f = one(4) + monomial(1, 4)
        assert_series_close(f * f, [1, 2, 1, 0, 0])

    def test_ring_axioms_random(self, rng):
        for _ in range(25):
            f = random_series(rng, 10)
            g = random_series(rng, 10)
            h = random_series(rng, 10)
            assert_series_close(f + g, (g + f).coeffs)
            assert_series_close((f + g) + h, (f + (g + h)).coeffs)
            assert_series_close(f * g, (g * f).coeffs)
            np.testing.assert_allclose(
                ((f * g) * h).coeffs, (f * (g * h)).coeffs, atol=1e-12, rtol=0
            )
            np.testing.assert_allclose(
                (f * (g + h)).coeffs, (f * g + f * h).coeffs, atol=1e-12, rtol=0
            )


class TestExpLog:
    def test_exp_zero(self):
        assert_series_close(zero(5).exp(), [1, 0, 0, 0, 0, 0])

    def test_exp_z(self):
        got = monomial(1, 6).exp()
        expected = [1 / math.factorial(k) for k in range(7)]
        assert_series_close(got, expected)

    def test_exp_requires_zero_constant(self):
        with pytest.raises(DomainError):
            one(4).exp()

    def test_log_one(self):
        assert_series_close(log(one(5)), np.zeros(6))

    def test_log_geometric_is_mercator(self):
        got = log(geometric(8))
        expected = [0] + [1 / k for k in range(1, 9)]
        assert_series_close(got, expected)

    def test_log_requires_unit_constant(self):
        with pytest.raises(DomainError):
            log(2 * one(4))

    def test_exp_log_geometric_roundtrip(self):
        # exp(log(1/(1-z))) recovers the geometric series.
        g = geometric(16)
        assert_series_close(log(g).exp(), g.coeffs, atol=1e-12)

    def test_log_exp_polynomial(self):
        f = monomial(1, 6) + monomial(2, 6)
        assert_series_close(log(f.exp()), f.coeffs, atol=1e-12)

    def test_roundtrips_random(self, rng):
        for order in (6, 12, 24):
            for _ in range(10):
                f = random_series(rng, order, constant=1.0, scale=0.5)
                assert_series_close(log(f).exp(), f.coeffs, atol=1e-11)
                g = random_series(rng, order, constant=0.0, scale=0.5)
                assert_series_close(log(g.exp()), g.coeffs, atol=1e-11)


class TestComplexPower:
    def test_koebe_denominator(self):
        one_minus_z = one(6) + monomial(1, 6, -1.0)
        assert_series_close(cpow(one_minus_z, -2), [1, 2, 3, 4, 5, 6, 7], atol=1e-12)

    def test_power_zero(self, rng):
        f = random_series(rng, 8, constant=1.0)
        assert_series_close(cpow(f, 0), one(8).coeffs, atol=1e-13)

    def test_power_one_identity(self, rng):
        f = random_series(rng, 8, constant=1.0)
        assert_series_close(cpow(f, 1), f.coeffs, atol=1e-13)

    def test_power_additivity(self, rng):
        for _ in range(20):
            f = random_series(rng, 12, constant=1.0, scale=0.5)
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            np.testing.assert_allclose(
                (cpow(f, a) * cpow(f, b)).coeffs, cpow(f, a + b).coeffs, atol=1e-11, rtol=0
            )

    def test_requires_unit_constant(self):
        with pytest.raises(DomainError):
            cpow(monomial(1, 4), 2.0)


class TestIntegrals:
    def test_kernel_of_constant_one(self):
        assert_series_close(one(5).integrate_kernel(), np.zeros(6))

    def test_kernel_single_term(self):
        p = one(4) + monomial(1, 4, 2.0)
        assert_series_close(p.integrate_kernel(), [0, 2, 0, 0, 0])

    def test_kernel_herglotz(self):
        # p = (1+z)/(1-z) = 1 + 2z + 2z^2 + ...  ->  2 z^k / k
        p = TruncatedSeries([1] + [2] * 6)
        assert_series_close(p.integrate_kernel(), [0, 2, 1, 2 / 3, 1 / 2, 2 / 5, 1 / 3])

    def test_kernel_requires_unit_constant(self):
        with pytest.raises(DomainError):
            (2 * one(3)).integrate_kernel()

    def test_kernel_inverse_of_z_ddz(self, rng):
        # z * d/dz of the kernel integral recovers p - 1 at every order.
        p = random_series(rng, 10, constant=1.0)
        recovered = p.integrate_kernel().derivative().shift_up()
        assert_series_close(recovered, np.subtract(p.coeffs, one(10).coeffs))

    def test_antiderivative_of_one(self):
        assert_series_close(one(4).antiderivative(), [0, 1, 0, 0, 0])

    def test_antiderivative_quadratic(self):
        f = TruncatedSeries([1, 0, -0.5, 0])
        assert_series_close(f.antiderivative(), [0, 1, 0, -1 / 6])

    def test_derivative_antiderivative_roundtrip(self, rng):
        f = random_series(rng, 9)
        got = f.antiderivative().derivative()
        # Exact up to order N-1; the top coefficient is lost to truncation.
        assert_series_close(
            got, np.r_[f.coeffs[:-1], 0.0], atol=1e-14
        )


class TestEval:
    def test_eval_at_zero(self, rng):
        f = random_series(rng, 7)
        assert f.eval(0) == f[0]

    def test_eval_geometric_partial_sum(self):
        n = 10
        got = geometric(n).eval(0.5)
        assert abs(got - (2 - 0.5**n)) < 1e-14

    def test_eval_koebe(self):
        koebe = TruncatedSeries(np.arange(13, dtype=complex))
        exact = 0.1 / 0.81
        assert abs(koebe.eval(0.1) - exact) < 1e-11

    def test_eval_vectorized(self, rng):
        f = random_series(rng, 6)
        z = np.array([0.1, 0.2 + 0.1j, -0.3j])
        np.testing.assert_allclose(f.eval(z), [f.eval(v) for v in z], rtol=1e-13)


class TestHelpers:
    def test_shift_up_drops_top(self):
        f = TruncatedSeries([1, 2, 3])
        assert_series_close(f.shift_up(), [0, 1, 2])

    def test_monomial_bounds(self):
        with pytest.raises(DomainError):
            monomial(5, 4)

    def test_numpy_scalars(self):
        f = TruncatedSeries([1, 2, 3])
        for scalar in (np.float64(2.0), np.complex128(2.0), np.int64(2)):
            assert isinstance(f * scalar, TruncatedSeries)
            assert isinstance(scalar * f, TruncatedSeries)
            assert_series_close(scalar * f, [2, 4, 6])


def _max_abs(values) -> float:
    return float(np.abs(np.asarray(values)).max())


def _reference_tol(order: int) -> float:
    """Relative agreement with the numpy formulas, as a fraction of the
    largest coefficient.  Both accumulate k roundings per coefficient, in a
    different order; at order 1024 they differ by up to about 3e-15, and
    against an exact rational product the left-to-right sums err by 1.6e-15
    where numpy's blocked sums err by 3e-16."""
    return 1e-15 if order <= 128 else 1e-14


ORDERS = [12, 128, 1024]


class TestNumpyReference:
    """The plain-Python jet operations against the numpy formulas they replaced."""

    @staticmethod
    def member_series(order, seed):
        rep = random_rep(4, seed)
        params = ClassParams.spirallike(0.25, 0.5)
        p = to_series(rep, order)
        return p, construct_member(params, p)

    @pytest.mark.parametrize("order", ORDERS)
    def test_exp(self, order, rng):
        p, _ = self.member_series(order, int(rng.integers(0, 2**31)))
        # The argument the spirallike construction exponentiates, then a random one.
        for arg in ((0.75 * mu(0.5)) * p.integrate_kernel(),
                    random_series(rng, order, constant=0.0, scale=0.5)):
            got, ref = arg.exp().coeffs, np_exp(arg.coeffs)
            assert _max_abs(np.subtract(got, ref)) <= _reference_tol(order) * _max_abs(ref)

    @pytest.mark.parametrize("order", ORDERS)
    def test_product(self, order, rng):
        p, f = self.member_series(order, int(rng.integers(0, 2**31)))
        for a, b in ((p, f), (random_series(rng, order), random_series(rng, order))):
            got, ref = (a * b).coeffs, np_product(a.coeffs, b.coeffs)
            assert _max_abs(np.subtract(got, ref)) <= _reference_tol(order) * _max_abs(ref)

    @pytest.mark.parametrize("order", ORDERS)
    def test_integrate_kernel(self, order, rng):
        p = random_series(rng, order, constant=1.0)
        got, ref = p.integrate_kernel().coeffs, np_integrate_kernel(p.coeffs)
        assert _max_abs(np.subtract(got, ref)) <= 1e-15 * _max_abs(ref)

    @pytest.mark.parametrize("order", ORDERS)
    def test_eval(self, order, rng):
        _, f = self.member_series(order, int(rng.integers(0, 2**31)))
        for series in (f, random_series(rng, order)):
            z = 0.9 * np.sqrt(rng.random(16)) * np.exp(2j * np.pi * rng.random(16))
            got = np.array([series.eval(complex(v)) for v in z])
            ref = np_eval(series.coeffs, z)
            assert _max_abs(got - ref) <= 1e-15 * _max_abs(series.coeffs)
