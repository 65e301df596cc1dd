"""Numerical re-derivation of the sharp constants.

The two functionals |a2|-|a1| and |a3|-|a2| reduce, after rotating the
generating Carathéodory function so that c1 = c >= 0, to explicit real
functions of (c, x) with c in [0, 2] and x = r e^{i theta} in the closed
unit disk.  This module evaluates those reductions, eliminates x exactly
by the triangle inequality, reads the extremes of the remaining piecewise
quadratic in c at their closed-form points, and cross-checks the result
against the closed-form bounds, the catalog extremals, and randomized
class members.  :func:`case_boundary_check` compares the c at which the
lower extremal of |a3|-|a2| sits with the exact minimizing c.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from . import _EXPORTS, config
from .bounds import Which, bound_d1, bound_d2, two_atom_parameters
from .caratheodory import AtomicHerglotzRep, _check_disk_point, _seeded_stream
from .errors import _count
from .families import ClassParams, _abs_exponent, _check_class, _divisors, _exponent

__all__ = list(_EXPORTS["verify"])


class FunctionalSpec(namedtuple("FunctionalSpec", "params which")):
    """A coefficient functional restricted to one function class."""

    __slots__ = ()

    def __new__(cls, params: ClassParams, which: Which | str):
        _check_class(params)
        # Downstream checks compare functionals with `is`: store the member.
        return super().__new__(cls, params, Which(which))

    # _replace builds through _make; route it through the coercion above.
    _make = classmethod(lambda cls, fields: cls(*fields))


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
    _check_disk_point(c, x)
    if spec.which is Which.D1:
        return _d1_slope(spec.params) * c - 1.0
    pref, u, k = _d2_constants(spec.params)
    return pref * (abs(c * c * u + (4.0 - c * c) * x) - k * c)


class VerifyReport(namedtuple("VerifyReport", [
        "spec", "analytic", "numeric_min", "numeric_max", "argmin", "argmax",
        "residual_min", "residual_max", "passed", "grid"])):
    """Exact extrema of one functional against its analytic interval.

    ``argmin`` and ``argmax`` are (c, r, theta); ``grid`` is (points
    evaluated, 1, 1).
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


def grid_optimize(spec: FunctionalSpec) -> VerifyReport:
    """Exact minimum and maximum of the reduced functional over c and x.

    The extremes over x for fixed c follow from the triangle inequality,
    which leaves a piecewise quadratic in c whose extremes sit at
    closed-form points.  Ties go to the lexicographically smallest
    (c, r, theta).  Never raises on a mathematical mismatch; the report's
    ``passed`` flag records whether each endpoint matches the analytic one
    within ``config.gate`` of that endpoint.
    """
    if spec.which is Which.D1:
        # s c - 1 with s > 0 does not depend on x.
        argmin, highs = (0.0, 0.0, 0.0), [(2.0, 0.0, 0.0)]
    else:
        # Over the disk, max |c^2 u + (4 - c^2) x| = c^2 m + 4 - c^2, so the
        # upper envelope p((m-1) c^2 - K c + 4) is convex (m >= 1) or
        # decreasing (m < 1) and peaks at an end: c = 0 with any unimodular
        # x, or c = 2 with any x.
        argmin, highs = _d2_argmin(spec.params), [(0.0, 1.0, 0.0), (2.0, 0.0, 0.0)]

    def value(point):
        c, r, theta = point
        return functional_value(spec, c, r * cmath.exp(1j * theta))

    vmin = value(argmin)
    # max returns the first of equal values, the one of smaller c.
    vmax, argmax = max([(value(p), p) for p in highs], key=lambda pair: pair[0])
    analytic = bound_d1(spec.params) if spec.which is Which.D1 else bound_d2(spec.params)
    res_min = abs(vmin - analytic.lower)
    res_max = abs(vmax - analytic.upper)
    return VerifyReport(
        spec=spec,
        analytic=analytic,
        numeric_min=vmin,
        numeric_max=vmax,
        argmin=argmin,
        argmax=argmax,
        residual_min=res_min,
        residual_max=res_max,
        passed=bool(res_min <= config.gate(analytic.lower)
                    and res_max <= config.gate(analytic.upper)),
        grid=(1 + len(highs), 1, 1),
    )


class WorstMargin(namedtuple("WorstMargin", "margin sample_index rep")):
    """Smallest observed slack to one side of a bound, with its witness (or None)."""

    __slots__ = ()


class SampleReport(namedtuple("SampleReport", [
        "params", "n_samples", "n_atoms_max", "seed", "n_constructed", "n_failures", "n_violations",
        "d1_low", "d1_high", "d2_low", "d2_high"])):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        # A run that built no member has checked nothing.
        return self.n_violations == 0 and self.n_constructed > 0


def _atom_count(r: float, n_max: int) -> int:
    """An atom count in [1, n_max] from one draw r in [0, 1).

    The min guards against r * n_max rounding up to n_max.
    """
    return 1 + min(int(r * n_max), n_max - 1)


def sample_no_violation(
    params: ClassParams,
    n_samples: int,
    n_atoms_max: int = config.DEFAULT_ATOMS,
    seed: int = 0,
) -> SampleReport:
    """Draw random members and check both functionals against their intervals.

    Unlike the exact optimizer this path exercises the unreduced functional:
    members are built from un-normalized random measures, and a value
    violates an endpoint when it is beyond it by more than ``config.gate``
    of that endpoint.  Both functionals read only a2 = g_1/n2 and
    a3 = g_2/n3 of the member's exponential factor g, so no truncation
    order enters.

    A member with a2 or a3 not finite is a construction failure, counted,
    never fatal; dividing g_1 or g_2 by 1, 2 or 3 keeps finiteness.  This
    is the rule "some coefficient is not finite" at every order:
    g = prod_i (1 - eps_i z)^{-2 v w_i} is majorized coefficientwise
    by (1 - z)^{-2|v|}, and |v| <= 1 in every family, so |g_k| <= k + 1
    (Duren, *Univalent Functions*, 1983, §2).  A finite v never overflows at
    any order, and a non-finite v already shows at g_1.  ``TestAtomPath``
    in ``tests/test_families.py`` holds the jets of its measures to that
    majorant up to order 1024, one gate per step, at |v| = 1 among others.

    One pass per member draws it as ``caratheodory._draw_atoms`` does,
    takes g_1 and g_2 by the first two steps of ``families._atom_jet``, in
    its order of operations, and gives its verdicts: the calls would cost
    more than the arithmetic.  Taking the jet's 2v/1 and S_i(1) =
    eps_i (0 + g_0) as 2v and eps_i changes at most the sign of a zero
    part, so |a2| and |a3| are bitwise those of ``construct_member``.
    Ties in a worst margin go to the lowest sample index.  Only the four
    witnesses are validated, when they become AtomicHerglotzReps; the
    draw gives a valid measure by construction.

    Every draw is ``random.Random(seed).random()``: per member an atom
    count ``1 + min(int(r * n_atoms_max), n_atoms_max - 1)``, then weights
    ``0.05 + 0.95 r`` (normalized to sum 1) and angles ``2 pi r``.
    """
    n_samples = _count("n_samples", n_samples, 1)
    n_atoms_max = _count("n_atoms_max", n_atoms_max, 1)
    seed = _count("seed", seed, 0)
    d1, d2 = bound_d1(params), bound_d2(params)
    # The most negative margin each endpoint forgives.
    d1_lo_floor, d1_hi_floor = -config.gate(d1.lower), -config.gate(d1.upper)
    d2_lo_floor, d2_hi_floor = -config.gate(d2.lower), -config.gate(d2.upper)
    two_v = 2.0 * _exponent(params)
    v = two_v / 2  # the jet's 2v/k at k = 2, bit for bit
    n2, n3 = _divisors(params)
    tau = 2.0 * math.pi
    draw, rect, isfinite = _seeded_stream(seed).random, cmath.rect, cmath.isfinite
    # (margin, sample index, measure) of each side's worst member.
    d1_lo = d1_hi = d2_lo = d2_hi = (math.inf, -1, None)
    n_constructed = n_failures = n_violations = 0
    for i in range(n_samples):
        raw = []
        total = 0.0
        for _ in range(_atom_count(draw(), n_atoms_max)):
            w = 0.05 + 0.95 * draw()
            raw.append(w)
            total += w
        weights, points = [], []
        acc = 0j
        for w in raw:
            w /= total
            eps = rect(1.0, tau * draw())
            weights.append(w)
            points.append(eps)
            acc += w * eps
        measure = (weights, points)
        g1 = two_v * acc
        acc = 0j
        for w, eps in zip(weights, points):
            acc += w * (eps * (eps + g1))
        a2, a3 = g1 / n2, v * acc / n3
        if not (isfinite(a2) and isfinite(a3)):
            n_failures += 1
            continue
        n_constructed += 1
        value = abs(a2) - 1.0
        lo, hi = value - d1.lower, d1.upper - value
        n_violations += lo < d1_lo_floor or hi < d1_hi_floor
        if lo < d1_lo[0]:
            d1_lo = (lo, i, measure)
        if hi < d1_hi[0]:
            d1_hi = (hi, i, measure)
        value = abs(a3) - abs(a2)
        lo, hi = value - d2.lower, d2.upper - value
        n_violations += lo < d2_lo_floor or hi < d2_hi_floor
        if lo < d2_lo[0]:
            d2_lo = (lo, i, measure)
        if hi < d2_hi[0]:
            d2_hi = (hi, i, measure)
    return SampleReport(
        params, n_samples, n_atoms_max, seed, n_constructed, n_failures, n_violations,
        *(WorstMargin(margin, i, None if measure is None else AtomicHerglotzRep(*measure))
          for margin, i, measure in (d1_lo, d1_hi, d2_lo, d2_hi)),
    )


class CaseBoundaryReport(namedtuple("CaseBoundaryReport", "params c_star argmin_c passed")):
    __slots__ = ()


def case_boundary_check(params: ClassParams) -> CaseBoundaryReport:
    """Check where the d2 case analysis puts the minimum over c.

    The proof's pieces are monotone by construction: the inner
    4 - (m+1) c^2 - K c falls for every c >= 0, and each outer piece
    (m+1) c^2 - 4 - K c ends at its own vertex or at c = 2.  What can
    fail is the location, so this compares the analytic c* of the lower
    extremal with the exact minimizing c within ``config.gate(c*)``.
    """
    c_star = two_atom_parameters(params)[0]
    argmin_c = _d2_argmin(params)[0]
    return CaseBoundaryReport(
        params=params,
        c_star=c_star,
        argmin_c=argmin_c,
        passed=bool(abs(argmin_c - c_star) <= config.gate(c_star)),
    )
