"""The three function classes: construction, coefficients, membership.

Families covered (all normalized f(z) = z + a2 z^2 + a3 z^3 + ...):

* spirallike of order alpha with tilt gamma:
      Re(e^{-i gamma} z f'(z)/f(z)) > alpha cos(gamma),
* tilted convex of order alpha:
      Re(e^{-i gamma} (1 + z f''(z)/f'(z))) > alpha cos(gamma),
  equivalently z f' lies in the spirallike family (Alexander-type relation),
* the Ozaki-type class with parameter lam:
      Re(1 + z f''(z)/f'(z)) < 1 + lam/2.

Every member comes from g = exp{v int (p(t)-1)/t dt} of a Carathéodory
function p, given by its atoms or by its series.  The families differ in
the exponent v and in the coefficient rule only: f = z g (spirallike) or
f' = g (convex, Ozaki); :func:`coeffs_from_c` derives a2 and a3 from both.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from collections import namedtuple
from enum import Enum
from itertools import repeat, zip_longest
from operator import add, mul, truediv
from typing import Optional, Sequence, Union

from . import config
from .caratheodory import AtomicHerglotzRep
from .errors import DomainError, EvaluationError
from .series import TruncatedSeries

__all__ = [
    "Family",
    "ClassParams",
    "CoeffTriple",
    "mu",
    "construct_member",
    "coeffs_from_c",
    "coeffs_from_series",
    "membership_check",
    "MembershipReport",
]


class Family(str, Enum):
    SPIRALLIKE = "spirallike"
    CONVEX_GAMMA = "convex"
    OZAKI_G = "ozaki"


class ClassParams(namedtuple("ClassParams", "family alpha gamma lam")):
    """Identifies one concrete function class.

    alpha/gamma apply to the spirallike and convex families, lam to the
    Ozaki-type class; the unused parameters must stay at their defaults.
    """

    __slots__ = ()

    def __new__(cls, family: Family, alpha: float = 0.0, gamma: float = 0.0, lam: float = 0.0):
        if family in (Family.SPIRALLIKE, Family.CONVEX_GAMMA):
            if not 0.0 <= alpha < 1.0:
                raise DomainError(f"alpha must lie in [0, 1), got {alpha}")
            if not -math.pi / 2 < gamma < math.pi / 2:
                raise DomainError(f"gamma must lie in (-pi/2, pi/2), got {gamma}")
            if lam != 0.0:
                raise DomainError("lam is meaningful only for the ozaki family")
        elif family is Family.OZAKI_G:
            if not 0.0 < lam <= 1.0:
                raise DomainError(f"lam must lie in (0, 1], got {lam}")
            if alpha != 0.0 or gamma != 0.0:
                raise DomainError("alpha/gamma are meaningful only for spirallike/convex")
        else:  # pragma: no cover - enum exhausts the cases
            raise DomainError(f"unknown family {family}")
        return super().__new__(cls, family, alpha, gamma, lam)

    # _replace builds through _make; route it through the checks above.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def spirallike(cls, alpha: float = 0.0, gamma: float = 0.0) -> "ClassParams":
        return cls(Family.SPIRALLIKE, alpha=alpha, gamma=gamma)

    @classmethod
    def convex(cls, alpha: float = 0.0, gamma: float = 0.0) -> "ClassParams":
        return cls(Family.CONVEX_GAMMA, alpha=alpha, gamma=gamma)

    @classmethod
    def ozaki(cls, lam: float) -> "ClassParams":
        return cls(Family.OZAKI_G, lam=lam)


def mu(gamma: float) -> complex:
    """The tilt constant e^{i gamma} cos(gamma): |mu| = cos g, Re mu = cos^2 g."""
    return cmath.exp(1j * gamma) * math.cos(gamma)


class CoeffTriple(namedtuple("CoeffTriple", "a2 a3")):
    """Initial coefficients a2, a3 of a normalized member, whose a1 is 1."""

    __slots__ = ()

    def d1(self) -> float:
        return abs(self.a2) - 1.0

    def d2(self) -> float:
        return abs(self.a3) - abs(self.a2)


def _exponent(params: ClassParams) -> complex:
    """The v of exp{v int (p(t)-1)/t dt}; Ozaki's sign is from p = (lam - 2 z f''/f')/lam."""
    if params.family is Family.OZAKI_G:
        return -0.5 * params.lam
    return (1.0 - params.alpha) * mu(params.gamma)


def _abs_exponent(params: ClassParams) -> float:
    """|v| in closed form; abs(v) goes through hypot and may differ in the last bit."""
    if params.family is Family.OZAKI_G:
        return 0.5 * params.lam
    return (1.0 - params.alpha) * math.cos(params.gamma)


def _f_prime_is_g(params: ClassParams) -> bool:
    """The coefficient rule: f' = g (convex, Ozaki) or f = z g (spirallike)."""
    return params.family is not Family.SPIRALLIKE


def _divisors(params: ClassParams) -> tuple[int, int]:
    """(n2, n3) with a2 = g_1/n2 and a3 = g_2/n3."""
    return (2, 3) if _f_prime_is_g(params) else (1, 1)


def _atom_jets(
    measures: Sequence[tuple[Sequence[float], Sequence[complex]]], order: int, v: complex
) -> list[tuple[complex, ...]]:
    """g_0..g_order of g = exp{v int (p(t)-1)/t dt} for each p, given by its (weights, points).

    With p - 1 = sum_i w_i 2 eps_i z/(1 - eps_i z), z g' = v (p-1) g gives
    k g_k = 2 v sum_i w_i S_i(k), where S_i(k) = sum_{j=1}^{k} eps_i^j g_{k-j}
    obeys S_i(k) = eps_i (S_i(k-1) + g_{k-1}).  That is O(atoms * order)
    work, against O(order^2) for exp of the series; |eps_i| = 1, so the
    running sums do not amplify rounding.  g_k is computed by the same
    operations whatever ``order`` is, so a shorter jet is a bitwise prefix
    of a longer one: ``sample`` asks for order 2 only, since a2 and a3 read
    g_1 and g_2.  The measures are not validated here.

    The measures advance side by side.  Sorted by atom count, largest
    first, slot i holds atom i of every measure that has one, and those
    measures form a prefix of the batch, so each coefficient costs two list
    passes in C per slot, not a Python step per measure.  Each measure gets
    the operations of a batch of one in the same order (acc from 0j, adding
    w_i S_i(k) by increasing i), so its jet does not depend on its batch.
    """
    by_size = sorted(range(len(measures)), key=lambda m: len(measures[m][0]), reverse=True)
    sizes = sorted(len(w) for w, _ in measures)
    # Slot i is column i of the size-sorted batch, cut before the measures
    # with at most i atoms (zip_longest pads them).
    weights, points = (
        [col[: len(sizes) - bisect_right(sizes, i)]
         for i, col in enumerate(zip_longest(*[measures[m][k] for m in by_size]))]
        for k in (0, 1))
    two_v = 2.0 * v
    zeros = [0j] * len(measures)
    s = [zeros[: len(w)] for w in weights]
    gk = [1 + 0j] * len(measures)
    cols = [gk]
    for k in range(1, order + 1):
        acc = zeros.copy()
        for i, (w, eps) in enumerate(zip(weights, points)):
            s[i] = si = list(map(mul, eps, map(add, s[i], gk)))
            acc[: len(si)] = map(add, acc, map(mul, w, si))
        gk = list(map(mul, repeat(two_v / k), acc))
        cols.append(gk)
    jets: list = [None] * len(measures)
    for m, g in zip(by_size, zip(*cols)):
        jets[m] = g
    return jets


def _member(params: ClassParams, g: Sequence[complex]) -> TruncatedSeries:
    """The member of order len(g) whose exponential factor begins g_0..g_{N-1}.

    Spirallike: z g.  Convex: the Alexander inverse of z g, and Ozaki: the
    antiderivative of g; both give a_n = g_{n-1}/n.
    """
    if _f_prime_is_g(params):
        return TruncatedSeries([0j, *map(truediv, g, range(1, len(g) + 1))])
    return TruncatedSeries([0j, *g])


def construct_member(
    params: ClassParams,
    p: Union[TruncatedSeries, AtomicHerglotzRep],
    order: Optional[int] = None,
) -> TruncatedSeries:
    """Build the member of params' class generated by the Carathéodory p.

    p is either a truncated series, whose order the member keeps, or an
    atomic measure together with the truncation ``order``.  Both forms
    share the family wrapping (z g for spirallike, the antiderivative of g
    for convex and Ozaki); they differ only in how they get the exponential
    factor g: exp of the series (O(order^2)), or one running sum per atom
    (O(atoms * order)).  params is not validated again: a ClassParams is
    checked when it is made.
    """
    if isinstance(p, AtomicHerglotzRep):
        if order is None or order < 1:
            raise DomainError(f"an atomic measure needs an order >= 1, got {order}")
        jet = _atom_jets([(p.weights, p.points)], order - 1, _exponent(params))[0]
        return _member(params, jet)
    if order is not None:
        raise DomainError("a series carries its own order; pass order only with a measure")
    return _member(params, (_exponent(params) * p.integrate_kernel()).exp().coeffs[:-1])


def coeffs_from_c(params: ClassParams, c1: complex, c2: complex) -> CoeffTriple:
    """Closed-form (a2, a3) of the member generated by p = 1 + c1 z + c2 z^2 + ...

    z g' = v (p - 1) g gives g1 = v c1 and g2 = (v^2 c1^2 + v c2)/2; then
    a2 = g1/n2 and a3 = g2/n3 by the family's coefficient rule.
    """
    if abs(c1) > 2 + config.REP_ATOL or abs(c2) > 2 + config.REP_ATOL:
        raise DomainError("Carathéodory coefficients satisfy |c_k| <= 2")
    v = _exponent(params)
    n2, n3 = _divisors(params)
    return CoeffTriple(a2=v * c1 / n2, a3=(v * v * c1 * c1 + v * c2) / 2.0 / n3)


def coeffs_from_series(f: TruncatedSeries) -> CoeffTriple:
    """Extract (a2, a3) from a constructed member; validates normalization."""
    if f.order < 3:
        raise DomainError("need order >= 3 to read off a2 and a3")
    tol = config.NORMALIZATION_ATOL
    if abs(f[0]) > tol or abs(f[1] - 1.0) > tol:
        raise DomainError("member must be normalized: f(0) = 0, f'(0) = 1")
    return CoeffTriple(a2=f[2], a3=f[3])


class MembershipReport(namedtuple("MembershipReport", "passed worst_margin worst_z")):
    __slots__ = ()


def membership_check(
    f: TruncatedSeries,
    params: ClassParams,
    radii: Sequence[float] = config.MEMBERSHIP_RADII,
    n_angles: int = config.MEMBERSHIP_ANGLES,
    tol: float = config.MEMBERSHIP_TOL,
) -> MembershipReport:
    """Sample the defining real-part condition of params' class on a polar grid.

    Returns the worst margin (positive means the strict inequality holds with
    room to spare) and pass/fail at ``tol``.  The check evaluates the
    *truncated* series, so it is a necessary-style numeric test: for members
    whose coefficients grow like the extremal ones, the evaluation is only
    trustworthy while the dropped tail is small relative to |f| — raise the
    truncation order before sampling radii near 1.

    Raises :class:`EvaluationError` when f (or f') vanishes at a sample
    point, rather than silently skipping it.
    """
    if not radii or any(not 0.0 < r < 1.0 for r in radii):
        raise DomainError("radii must lie in (0, 1)")
    if n_angles < 1:
        raise DomainError("need at least one angle")

    fprime = f.derivative()
    fsecond = None if params.family is Family.SPIRALLIKE else fprime.derivative()
    tilt = cmath.exp(-1j * params.gamma)
    floor = params.alpha * math.cos(params.gamma)
    worst_margin, worst_z = math.inf, 0j
    for r in radii:
        for k in range(n_angles):
            z = r * cmath.exp(1j * (2.0 * math.pi * k / n_angles))
            fz, fpz = f.eval(z), fprime.eval(z)
            if params.family is Family.SPIRALLIKE:
                if abs(fz) < config.VANISHING_ATOL:
                    raise EvaluationError(f"f vanishes at sample point z={z:.6g}")
                margin = (tilt * z * fpz / fz).real - floor
            else:
                if abs(fpz) < config.VANISHING_ATOL:
                    raise EvaluationError(f"f' vanishes at sample point z={z:.6g}")
                curv = 1.0 + z * fsecond.eval(z) / fpz
                if params.family is Family.CONVEX_GAMMA:
                    margin = (tilt * curv).real - floor
                else:
                    margin = (1.0 + params.lam / 2.0) - curv.real
            if margin < worst_margin:
                worst_margin, worst_z = margin, z
    return MembershipReport(
        passed=worst_margin >= tol,
        worst_margin=worst_margin,
        worst_z=worst_z,
    )
