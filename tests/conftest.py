"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they are used to check:
Taylor coefficients are recovered by contour integration (FFT on a circle),
and the (x, y) disk parameters are inverted directly from raw moments.
"""

import numpy as np
import pytest

from succoeff import AtomicHerglotzRep, TruncatedSeries, moments


def assert_series_close(f: TruncatedSeries, expected, atol=1e-12):
    expected = np.asarray(expected, dtype=complex)
    np.testing.assert_allclose(f.coeffs, expected, atol=atol, rtol=0)


def random_series(rng: np.random.Generator, order: int, constant=None, scale=1.0) -> TruncatedSeries:
    """Random series with coefficients in the polydisk of radius ``scale``.

    exp/log/pow round-trip tolerances are conditioning-limited: the higher
    coefficients of log f grow with the coefficient magnitude of f, so the
    1e-11 round-trip contract is asserted on the half-polydisk (scale 0.5)
    where it holds with a wide margin up to order 24.
    """
    c = (rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1)) * scale
    if constant is not None:
        c[0] = constant
    return TruncatedSeries(c)


def fft_taylor_coeffs(fn, n_coeffs: int, radius: float = 0.5, n_samples: int = 4096):
    """Taylor coefficients of an analytic callable by contour integration."""
    theta = 2.0 * np.pi * np.arange(n_samples) / n_samples
    z = radius * np.exp(1j * theta)
    values = fn(z)
    coeffs = np.fft.fft(values) / n_samples
    k = np.arange(n_coeffs)
    return coeffs[:n_coeffs] / radius**k


def rotate_rep(rep: AtomicHerglotzRep, phi: float) -> AtomicHerglotzRep:
    """The representation of p(e^{i phi} z): every atom rotates by phi."""
    return AtomicHerglotzRep(rep.weights, [e * np.exp(1j * phi) for e in rep.points])


def normalize_rotation(rep: AtomicHerglotzRep) -> tuple[AtomicHerglotzRep, float]:
    """Rotate so that c1 becomes real and nonnegative; returns (rep, c1)."""
    c1 = complex(moments(rep, 1)[0])
    phi = 0.0 if abs(c1) < 1e-15 else -np.angle(c1)
    rotated = rotate_rep(rep, phi)
    return rotated, abs(c1)


def lz_invert_x(c1: float, c2: complex) -> complex:
    """Disk parameter x from the first two rotation-normalized moments."""
    return (2.0 * c2 - c1 * c1) / (4.0 - c1 * c1)


def lz_invert_y(c1: float, x: complex, c3: complex) -> complex:
    """Disk parameter y from c3 once x is known; needs |x| < 1."""
    b = 4.0 - c1 * c1
    num = 4.0 * c3 - c1**3 - 2.0 * b * c1 * x + b * c1 * x * x
    return num / (2.0 * b * (1.0 - abs(x) ** 2))


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
