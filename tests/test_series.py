"""Jet arithmetic: examples, scalar multiples, analytic round trips."""

import math

import numpy as np
import pytest

from succoeff import (ClassParams, DomainError, TruncatedSeries, config, construct_member, mu,
                      random_rep, to_series)
from conftest import assert_series_close, random_series
from jets import cpow, log, np_eval, np_exp, np_integrate_kernel, polynomial


def geometric(order):
    return TruncatedSeries(np.ones(order + 1))


class TestConstruction:
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
        assert repr(f) == "TruncatedSeries(coeffs=(0+0j, 0.333333+0j, 0-2.5e-07j))"


class TestAddMul:
    @pytest.mark.parametrize("operation", [
        lambda f: f + 1, lambda f: f - 1, lambda f: f * None, lambda f: None * f,
        lambda f: f * f,
    ], ids=["add", "sub", "mul", "rmul", "series-product"])
    def test_other_operands_raise_type_error(self, operation):
        with pytest.raises(TypeError):
            operation(TruncatedSeries([1, 2, 3]))


class TestExpLog:
    def test_exp_zero(self):
        assert_series_close(polynomial(5).exp(), [1, 0, 0, 0, 0, 0])

    def test_exp_z(self):
        got = polynomial(6, 0, 1).exp()
        expected = [1 / math.factorial(k) for k in range(7)]
        assert_series_close(got, expected)

    def test_exp_requires_zero_constant(self):
        with pytest.raises(DomainError):
            polynomial(4, 1).exp()
        with pytest.raises(DomainError):
            TruncatedSeries([5e-15, 1]).exp()
        with pytest.raises(DomainError):
            TruncatedSeries([math.nextafter(config.gate(0.0), 1.0), 1]).exp()
        for c0 in (math.nextafter(0.0, 1.0), 2.0**-52, config.gate(0.0)):
            assert TruncatedSeries([c0, 1]).exp().coeffs[1] == 1

    def test_log_one(self):
        assert_series_close(log(polynomial(5, 1)), np.zeros(6))

    def test_log_geometric_is_mercator(self):
        got = log(geometric(8))
        expected = [0] + [1 / k for k in range(1, 9)]
        assert_series_close(got, expected)

    def test_log_requires_unit_constant(self):
        with pytest.raises(DomainError):
            log(polynomial(4, 2))

    def test_exp_log_geometric_roundtrip(self):
        # exp(log(1/(1-z))) recovers the geometric series.
        g = geometric(16)
        assert_series_close(log(g).exp(), g.coeffs, atol=1e-12)

    def test_log_exp_polynomial(self):
        f = polynomial(6, 0, 1, 1)
        assert_series_close(log(f.exp()), f.coeffs, atol=1e-12)


class TestComplexPower:
    def test_koebe_denominator(self):
        assert_series_close(cpow(polynomial(6, 1, -1), -2), [1, 2, 3, 4, 5, 6, 7], atol=1e-12)

    def test_power_zero(self, rng):
        f = random_series(rng, 8, constant=1.0)
        assert_series_close(cpow(f, 0), polynomial(8, 1).coeffs, atol=1e-13)

    def test_power_one_identity(self, rng):
        f = random_series(rng, 8, constant=1.0)
        assert_series_close(cpow(f, 1), f.coeffs, atol=1e-13)

    def test_requires_unit_constant(self):
        with pytest.raises(DomainError):
            cpow(polynomial(4, 0, 1), 2.0)


class TestIntegrals:
    def test_kernel_of_constant_one(self):
        assert_series_close(polynomial(5, 1).integrate_kernel(), np.zeros(6))

    def test_kernel_single_term(self):
        p = polynomial(4, 1, 2)
        assert_series_close(p.integrate_kernel(), [0, 2, 0, 0, 0])

    def test_kernel_herglotz(self):
        # p = (1+z)/(1-z) = 1 + 2z + 2z^2 + ...  ->  2 z^k / k
        p = TruncatedSeries([1] + [2] * 6)
        assert_series_close(p.integrate_kernel(), [0, 2, 1, 2 / 3, 1 / 2, 2 / 5, 1 / 3])

    def test_kernel_requires_unit_constant(self):
        with pytest.raises(DomainError):
            polynomial(3, 2).integrate_kernel()
        with pytest.raises(DomainError):
            TruncatedSeries([1 + 5e-15, 0.5]).integrate_kernel()
        for c0 in (math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)):
            assert TruncatedSeries([c0, 0.5]).integrate_kernel().coeffs[1] == 0.5

    def test_kernel_inverse_of_z_ddz(self, rng):
        # d/dz of the kernel integral recovers (p - 1)/z; the top coefficient is
        # lost to truncation.
        p = random_series(rng, 10, constant=1.0)
        assert_series_close(p.integrate_kernel().derivative(), [*p.coeffs[1:], 0])


class TestEval:
    def test_eval_at_zero(self, rng):
        f = random_series(rng, 7)
        assert f.eval(0) == f.coeffs[0]

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
    def test_polynomial_bounds(self):
        with pytest.raises(DomainError):
            polynomial(4, *range(6))

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
