"""Shared fixtures and independent oracles for the test suite.

Most oracles here avoid the code paths they are used to check: Taylor
coefficients are recovered by contour integration (FFT on a circle), and
the (x, y) disk parameters are inverted directly from raw moments.  The
Libera–Złotkiewicz parametrization lives here whole: ``lz_c2`` and
``lz_c3`` give c2 and c3 from the disk parameters (c, x, y), and
``coeffs_from_c`` gives a member's (a2, a3) from c1 and c2, so the
commands' reductions and extremals can be checked against it.  The
exception is ``atom_jet_reference``, which mirrors ``families._atom_jet``
step for step: it pins the order of operations that ``construct_member``
and the sampler's written-out first two steps must match bit for bit,
not the algebra.  ``sample_reference`` reads each member's (a2, a3) from
an order-2 reference jet, as ``bounds.extremal_coeffs`` does, so it takes
no order.  ``test_families`` checks the algebra of ``construct_member``
from atoms independently, against the series (``exp``) path and the
binomial series of a point mass, and holds the order-1024 reference
jets to Duren's majorant, the bound behind the sampler's claim that a
member with finite g_1 and g_2 is finite at every order.
"""

import cmath
import importlib.util
import math
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import add, mul
from pathlib import Path

import numpy as np
import pytest

from succoeff import (AtomicHerglotzRep, ClassParams, CoeffTriple, DomainError, TruncatedSeries,
                      Which, bound_d1, bound_d2, config, moments)
from succoeff.caratheodory import _draw_atoms, _seeded_stream
from succoeff.families import _divisors, _exponent
from succoeff.verify import SampleReport, WorstMargin, _atom_count


def endpoints(params: ClassParams):
    """(extremal, functional, endpoint) of each end of bound_d1 and bound_d2, upper first."""
    for which, interval in ((Which.D1, bound_d1(params)), (Which.D2, bound_d2(params))):
        yield interval.upper_extremal, which, interval.upper
        yield interval.lower_extremal, which, interval.lower


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


@dataclass(frozen=True)
class LZParams:
    """Disk parameters (c, x, y) for the (c2, c3) coefficient map."""

    c: float
    x: complex
    y: complex = 0j

    def __post_init__(self):
        if not 0.0 <= self.c <= 2.0:
            raise DomainError(f"c must lie in [0, 2], got {self.c}")
        if abs(self.x) > 1 + config.gate(1.0):
            raise DomainError("|x| must be <= 1")
        if abs(self.y) > 1 + config.gate(1.0):
            raise DomainError("|y| must be <= 1")


def lz_c2(c: float, x: complex) -> complex:
    """c2 of a Carathéodory function with c1 = c >= 0 and disk parameter x.

    2 c2 = c^2 + (4 - c^2) x.
    """
    if not 0.0 <= c <= 2.0:
        raise DomainError(f"c must lie in [0, 2], got {c}")
    if not abs(x) <= 1 + config.gate(1.0):
        raise DomainError("|x| must be <= 1")
    return (c * c + (4.0 - c * c) * x) / 2.0


def lz_c3(c: float, x: complex, y: complex) -> complex:
    """c3 in terms of (c, x, y).

    4 c3 = c^3 + 2 (4 - c^2) c x - (4 - c^2) c x^2 + 2 (4 - c^2)(1 - |x|^2) y.
    The middle term is linear in x; the moment oracles of the suite check it.
    """
    LZParams(c, x, y)
    b = 4.0 - c * c
    return (c**3 + 2.0 * b * c * x - b * c * x * x + 2.0 * b * (1.0 - abs(x) ** 2) * y) / 4.0


def lz_invert_x(c1: float, c2: complex) -> complex:
    """Disk parameter x from the first two rotation-normalized moments."""
    return (2.0 * c2 - c1 * c1) / (4.0 - c1 * c1)


def lz_invert_y(c1: float, x: complex, c3: complex) -> complex:
    """Disk parameter y from c3 once x is known; needs |x| < 1."""
    b = 4.0 - c1 * c1
    num = 4.0 * c3 - c1**3 - 2.0 * b * c1 * x + b * c1 * x * x
    return num / (2.0 * b * (1.0 - abs(x) ** 2))


def coeffs_from_c(params: ClassParams, c1: complex, c2: complex) -> CoeffTriple:
    """Closed-form (a2, a3) of the member generated by p = 1 + c1 z + c2 z^2 + ...

    z g' = v (p - 1) g gives g1 = v c1 and g2 = (v^2 c1^2 + v c2)/2; then
    a2 = g1/n2 and a3 = g2/n3 by the family's coefficient rule.
    """
    if not (abs(c1) <= 2 + config.gate(2.0) and abs(c2) <= 2 + config.gate(2.0)):
        raise DomainError("Carathéodory coefficients satisfy |c_k| <= 2")
    v = _exponent(params)
    n2, n3 = _divisors(params)
    return CoeffTriple(a2=v * c1 / n2, a3=(v * v * c1 * c1 + v * c2) / 2.0 / n3)


def atom_jet_reference(rep: AtomicHerglotzRep, order: int, v: complex) -> list[complex]:
    """g_0..g_order of g = exp{v int (p(t)-1)/t dt} for one measure, one step per coefficient.

    S_i <- eps_i (S_i + g_{k-1}) for every atom, then g_k = (2v/k) sum_i w_i S_i
    accumulated left to right from 0j.
    """
    w, eps = rep.weights, rep.points
    two_v = 2.0 * v
    s = [0j] * len(w)
    gk = 1 + 0j
    g = [gk]
    for k in range(1, order + 1):
        s = list(map(mul, eps, map(add, s, repeat(gk))))
        gk = two_v / k * reduce(add, map(mul, w, s), 0j)
        g.append(gk)
    return g


def sample_reference(params: ClassParams, n_samples: int, n_atoms_max: int = 6,
                     seed: int = 0) -> SampleReport:
    """sample_no_violation one member at a time: draw, read, check, in sample order.

    Each member's (a2, a3) is g_1/n2, g_2/n3 of its order-2 reference jet,
    the rule of ``bounds.extremal_coeffs``; a jet is a bitwise prefix of
    any longer one, so no order enters.  A margin violates when it is
    below minus ``config.gate`` of its endpoint.
    """
    d1, d2 = bound_d1(params), bound_d2(params)
    rng = _seeded_stream(seed)
    v = _exponent(params)
    n2, n3 = _divisors(params)
    worst = {name: (math.inf, -1, None) for name in ("d1_low", "d1_high", "d2_low", "d2_high")}
    n_constructed = n_failures = n_violations = 0
    for i in range(n_samples):
        rep = AtomicHerglotzRep(*_draw_atoms(rng, _atom_count(rng.random(), n_atoms_max)))
        _, g1, g2 = atom_jet_reference(rep, 2, v)
        triple = CoeffTriple(g1 / n2, g2 / n3)
        if not (cmath.isfinite(triple.a2) and cmath.isfinite(triple.a3)):
            n_failures += 1
            continue
        n_constructed += 1
        for key, value, bound in (("d1", triple.d1(), d1), ("d2", triple.d2(), d2)):
            lo_margin = value - bound.lower
            hi_margin = bound.upper - value
            if lo_margin < -config.gate(bound.lower) or hi_margin < -config.gate(bound.upper):
                n_violations += 1
            if lo_margin < worst[key + "_low"][0]:
                worst[key + "_low"] = (lo_margin, i, rep)
            if hi_margin < worst[key + "_high"][0]:
                worst[key + "_high"] = (hi_margin, i, rep)
    return SampleReport(
        params=params, n_samples=n_samples, n_atoms_max=n_atoms_max, seed=seed,
        n_constructed=n_constructed, n_failures=n_failures,
        n_violations=n_violations, **{k: WorstMargin(*t) for k, t in worst.items()},
    )


def float_bits(coeffs) -> list[tuple[str, str]]:
    """Exact bit patterns of complex coefficients (-0.0 differs from 0.0)."""
    return [(complex(c).real.hex(), complex(c).imag.hex()) for c in coeffs]


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def perfbench(monkeypatch):
    """A loader of perfbench/<name>.py as a module, read where it stands; nothing is written."""
    def load(name):
        path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
        module = importlib.util.module_from_spec(spec)
        # dataclasses resolves the module's annotations through sys.modules.
        monkeypatch.setitem(sys.modules, spec.name, module)
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec.loader.exec_module(module)
        return module
    return load
