"""Numerical re-derivation of the sharp constants.

The two functionals |a2|-|a1| and |a3|-|a2| reduce, after rotating the
generating Carathéodory function so that c1 = c >= 0, to explicit real
functions of (c, x) with c in [0, 2] and x = r e^{i theta} in the closed
unit disk.  This module evaluates those reductions, eliminates x exactly
by the triangle inequality, takes the extremes of the remaining piecewise
quadratic in c at its candidate points, and cross-checks the result
against the closed-form bounds, the catalog extremals, and randomized
class members.  :func:`case_boundary_check` compares the c at which the
lower extremal of |a3|-|a2| sits with the exact minimizing c.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from . import config
from .bounds import Which, bound_d1, bound_d2, two_atom_parameters
from .caratheodory import AtomicHerglotzRep, _check_atoms, _draw_atoms, _seeded_stream
from .errors import DomainError
from .families import ClassParams, _abs_exponent, _atom_jets, _divisors, _exponent

__all__ = [
    "FunctionalSpec",
    "functional_value",
    "VerifyReport",
    "grid_optimize",
    "SampleReport",
    "sample_no_violation",
    "CaseBoundaryReport",
    "case_boundary_check",
]


class FunctionalSpec(namedtuple("FunctionalSpec", "params which")):
    """A coefficient functional restricted to one function class."""

    __slots__ = ()


def _d2_constants(params: ClassParams) -> tuple[float, complex, float]:
    """(prefactor, quadratic weight u, linear weight K) of the d2 reduction.

    value = prefactor * (|c^2 u + (4 - c^2) x| - K c).

    From g1 = v c1, g2 = (v^2 c1^2 + v c2)/2, a2 = g1/n2 and a3 = g2/n3: with
    c1 = c and c2 = (c^2 + (4 - c^2) x)/2, g2 = (v/4)(c^2 u + (4 - c^2) x) where
    u = 1 + 2v, so prefactor = |v|/(4 n3) and K = 4 n3/n2; |a2| - 1 = (|v|/n2) c - 1.
    """
    n2, n3 = _divisors(params)
    return _abs_exponent(params) / (4 * n3), 1.0 + 2.0 * _exponent(params), 4 * n3 / n2


def _d1_slope(params: ClassParams) -> float:
    return _abs_exponent(params) / _divisors(params)[0]


def functional_value(spec: FunctionalSpec, c: float, x: complex) -> float:
    """Value of the reduced functional at one point (c, x)."""
    if not -config.REP_ATOL <= c <= 2 + config.REP_ATOL:
        raise DomainError("c must lie in [0, 2]")
    if not abs(x) <= 1 + config.REP_ATOL:
        raise DomainError("|x| must be <= 1")
    if spec.which is Which.D1:
        return _d1_slope(spec.params) * c - 1.0
    pref, u, k = _d2_constants(spec.params)
    return pref * (abs(c * c * u + (4.0 - c * c) * x) - k * c)


class VerifyReport(namedtuple("VerifyReport", [
        "spec", "analytic", "numeric_min", "numeric_max", "argmin", "argmax",
        "residual_min", "residual_max", "passed", "grid", "tol"])):
    """Exact extrema of one functional against its analytic interval.

    ``argmin`` and ``argmax`` are (c, r, theta); ``grid`` is (candidate
    points evaluated, 1, 1).
    """

    __slots__ = ()


def _d2_argmin(params: ClassParams) -> tuple[float, float, float]:
    """(c, r, theta) of the minimum of d2 over c in [0, 2] and |x| <= 1.

    Over the disk, min |c^2 u + (4 - c^2) x| = max((m+1) c^2 - 4, 0) with
    m = |u|, attained at x = -u/m once the maximum is positive.  So the
    lower envelope is -p K c up to cb = 2/sqrt(m+1), then the convex
    p((m+1) c^2 - 4 - K c), whose minimum on [cb, 2] is its vertex clamped
    to that interval.  At c = 2 the x term vanishes and x = 0 is taken.
    """
    _, u, k = _d2_constants(params)
    m = abs(u)
    cb = 2.0 / math.sqrt(m + 1.0)
    c = max(cb, min(k / (2.0 * (m + 1.0)), 2.0))
    if c == 2.0:
        return (2.0, 0.0, 0.0)
    return (c, 1.0, cmath.phase(-u) % (2.0 * math.pi))


def _extreme_points(spec: FunctionalSpec) -> tuple[list, list]:
    """Candidate points (c, r, theta) for the minimum and the maximum, by increasing c."""
    if spec.which is Which.D1:
        # s c - 1 with s > 0 does not depend on x.
        return [(0.0, 0.0, 0.0)], [(2.0, 0.0, 0.0)]
    # Over the disk, max |c^2 u + (4 - c^2) x| = c^2 m + 4 - c^2, so the
    # upper envelope p((m-1) c^2 - K c + 4) is convex (m >= 1) or
    # decreasing (m < 1) and peaks at an end: c = 0 with any unimodular x,
    # or c = 2 with any x.
    return [_d2_argmin(spec.params)], [(0.0, 1.0, 0.0), (2.0, 0.0, 0.0)]


def _values(spec: FunctionalSpec, points: list) -> list[float]:
    return [functional_value(spec, c, r * cmath.exp(1j * theta)) for c, r, theta in points]


def grid_optimize(spec: FunctionalSpec, tol: float = config.GRID_TOL) -> VerifyReport:
    """Exact minimum and maximum of the reduced functional over c and x.

    The extremes over x for fixed c follow from the triangle inequality,
    which leaves a piecewise quadratic in c with a few candidate points.
    Ties go to the lexicographically smallest (c, r, theta).  Never raises
    on a mathematical mismatch; the report's ``passed`` flag records
    whether both endpoints match the analytic interval within ``tol``.
    """
    lows, highs = _extreme_points(spec)
    low_values, high_values = _values(spec, lows), _values(spec, highs)
    # min and max return the first of equal values.
    i = min(range(len(lows)), key=low_values.__getitem__)
    j = max(range(len(highs)), key=high_values.__getitem__)
    vmin, vmax = low_values[i], high_values[j]
    analytic = bound_d1(spec.params) if spec.which is Which.D1 else bound_d2(spec.params)
    res_min = abs(vmin - analytic.lower)
    res_max = abs(vmax - analytic.upper)
    return VerifyReport(
        spec=spec,
        analytic=analytic,
        numeric_min=vmin,
        numeric_max=vmax,
        argmin=lows[i],
        argmax=highs[j],
        residual_min=res_min,
        residual_max=res_max,
        passed=bool(res_min <= tol and res_max <= tol),
        grid=(len(lows) + len(highs), 1, 1),
        tol=tol,
    )


class WorstMargin(namedtuple("WorstMargin", "margin sample_index rep")):
    """Smallest observed slack to one side of a bound, with its witness (or None)."""

    __slots__ = ()


class SampleReport(namedtuple("SampleReport", [
        "params", "n_samples", "n_atoms_max", "seed", "order", "slack",
        "n_constructed", "n_failures", "n_violations",
        "d1_low", "d1_high", "d2_low", "d2_high"])):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        # A run that built no member has checked nothing.
        return self.n_violations == 0 and self.n_constructed > 0


# Members drawn and built per kernel call.  Results do not depend on it; it
# caps the jets held at once, so peak memory does not grow with n_samples.
_CHUNK = 256


def _atom_count(r: float, n_max: int) -> int:
    """An atom count in [1, n_max] from one draw r in [0, 1).

    The min guards against r * n_max rounding up to n_max.
    """
    return 1 + min(int(r * n_max), n_max - 1)


def sample_no_violation(
    params: ClassParams,
    n_samples: int,
    n_atoms_max: int = 6,
    seed: int = 0,
    order: int = config.DEFAULT_ORDER,
    slack: float = config.SAMPLE_SLACK,
) -> SampleReport:
    """Draw random members and check both functionals against their intervals.

    Unlike the exact optimizer this path exercises the unreduced functional:
    members are built from un-normalized random measures, and each value
    must lie within [lower - slack, upper + slack].  Both functionals read
    only a2 and a3, which are g_1 and g_2 of the member's exponential factor
    g (a_n = g_{n-1} for spirallike, g_{n-1}/n otherwise), so each member
    is built to g_0..g_2 only.  ``order`` (at least 4, as for the
    extremals) is validated and echoed in the report; it changes no other
    field, since g_1 and g_2 take the same operations at every truncation.

    A member with g_1 or g_2 not finite is a construction failure, counted,
    never fatal.  This is the rule "some coefficient up to ``order`` is not
    finite": g = prod_i (1 - eps_i z)^{-2 v w_i} is majorized coefficientwise
    by (1 - z)^{-2|v|}, and |v| <= 1 in every family, so |g_k| <= k + 1
    (Duren, *Univalent Functions*, 1983, §2).  A finite v never overflows at
    any order, and a non-finite v already shows at g_1.

    Members are drawn and built in chunks: per chunk, one check of the
    drawn measures against the invariants of AtomicHerglotzRep and one
    batch-kernel call.  Ties in a worst margin go to the lowest sample
    index; only the witnesses become AtomicHerglotzReps.

    Every draw is ``random.Random(seed).random()``: per member an atom
    count ``1 + min(int(r * n_atoms_max), n_atoms_max - 1)``, then weights
    ``0.05 + 0.95 r`` (normalized to sum 1) and angles ``2 pi r``.
    """
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    if n_atoms_max < 1:
        raise DomainError("n_atoms_max must be >= 1")
    if order < 4:
        raise DomainError(f"order must be >= 4 to expose a2 and a3, got {order}")
    d1 = bound_d1(params)
    d2 = bound_d2(params)
    rng = _seeded_stream(seed)
    n2, n3 = _divisors(params)
    worst = {
        ("d1", "low"): (math.inf, -1, None),
        ("d1", "high"): (math.inf, -1, None),
        ("d2", "low"): (math.inf, -1, None),
        ("d2", "high"): (math.inf, -1, None),
    }
    n_constructed = n_failures = n_violations = 0
    v = _exponent(params)
    for start in range(0, n_samples, _CHUNK):
        chunk = [_draw_atoms(rng, _atom_count(rng.random(), n_atoms_max))
                 for _ in range(min(_CHUNK, n_samples - start))]
        _check_atoms(chunk)
        for i, (atoms, (_, g1, g2)) in enumerate(zip(chunk, _atom_jets(chunk, 2, v)), start):
            if not (cmath.isfinite(g1) and cmath.isfinite(g2)):
                n_failures += 1
                continue
            n_constructed += 1
            a2, a3 = g1 / n2, g2 / n3
            # CoeffTriple(a2, a3).d1()/.d2(), without the object.
            for key, value, bound in (("d1", abs(a2) - 1.0, d1), ("d2", abs(a3) - abs(a2), d2)):
                lo_margin = value - bound.lower
                hi_margin = bound.upper - value
                if lo_margin < -slack or hi_margin < -slack:
                    n_violations += 1
                if lo_margin < worst[(key, "low")][0]:
                    worst[(key, "low")] = (lo_margin, i, atoms)
                if hi_margin < worst[(key, "high")][0]:
                    worst[(key, "high")] = (hi_margin, i, atoms)
    return SampleReport(
        params=params,
        n_samples=n_samples,
        n_atoms_max=n_atoms_max,
        seed=seed,
        order=order,
        slack=slack,
        n_constructed=n_constructed,
        n_failures=n_failures,
        n_violations=n_violations,
        **{f"{key}_{side}": WorstMargin(
            margin, i, None if atoms is None else AtomicHerglotzRep(*atoms))
           for (key, side), (margin, i, atoms) in worst.items()},
    )


class CaseBoundaryReport(namedtuple("CaseBoundaryReport", "spec c_star argmin_c passed")):
    __slots__ = ()


def case_boundary_check(spec: FunctionalSpec) -> CaseBoundaryReport:
    """Check where the d2 case analysis puts the minimum over c.

    The proof's pieces are monotone by construction: the inner
    4 - (m+1) c^2 - K c falls for every c >= 0, and each outer piece
    (m+1) c^2 - 4 - K c ends at its own vertex or at c = 2.  What can
    fail is the location, so this compares the analytic c* of the lower
    extremal with the exact minimizing c within ``config.GRID_TOL``.
    """
    if spec.which is not Which.D2:
        raise DomainError("case boundary analysis applies to the d2 functional only")
    c_star = two_atom_parameters(spec.params)[0]
    argmin_c = _d2_argmin(spec.params)[0]
    return CaseBoundaryReport(
        spec=spec,
        c_star=c_star,
        argmin_c=argmin_c,
        passed=bool(abs(argmin_c - c_star) <= config.GRID_TOL),
    )
