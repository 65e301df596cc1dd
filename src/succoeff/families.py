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
f' = g (convex, Ozaki), so a2 = g_1/n2 and a3 = g_2/n3 by :func:`_divisors`.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Sequence
from enum import Enum
from functools import reduce
from itertools import repeat
from operator import add, mul, truediv

from . import _EXPORTS, config
from .errors import DomainError, EvaluationError, _count, _real

__all__ = list(_EXPORTS["families"])


class Family(str, Enum):
    SPIRALLIKE = "spirallike"
    CONVEX_GAMMA = "convex"
    OZAKI_G = "ozaki"

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown family {value!r}")


class ClassParams(namedtuple("ClassParams", "family alpha gamma lam")):
    """Identifies one concrete function class.

    alpha/gamma apply to the spirallike and convex families, lam to the
    Ozaki-type class; the unused parameters must stay at their defaults.
    """

    __slots__ = ()

    def __new__(cls, family: Family | str, alpha: float = 0.0, gamma: float = 0.0,
                lam: float = 0.0):
        # Downstream checks compare families with `is`: store the member.
        family = Family(family)
        alpha, gamma, lam = _real("alpha", alpha), _real("gamma", gamma), _real("lam", lam)
        if family is Family.OZAKI_G:
            if not 0.0 < lam <= 1.0:
                raise DomainError(f"lam must lie in (0, 1], got {lam}")
            if alpha != 0.0 or gamma != 0.0:
                raise DomainError("alpha/gamma are meaningful only for spirallike/convex")
        else:
            if not 0.0 <= alpha < 1.0:
                raise DomainError(f"alpha must lie in [0, 1), got {alpha}")
            if not -math.pi / 2 < gamma < math.pi / 2:
                raise DomainError(f"gamma must lie in (-pi/2, pi/2), got {gamma}")
            if lam != 0.0:
                raise DomainError("lam is meaningful only for the ozaki family")
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


def _check_class(params) -> None:
    """DomainError unless params is a ClassParams, whose fields were checked when made."""
    if not isinstance(params, ClassParams):
        raise DomainError("params must be a ClassParams")


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


def _atom_jet(weights: Sequence[float], points: Sequence[complex], order: int,
              v: complex) -> list[complex]:
    """g_0..g_order of g = exp{v int (p(t)-1)/t dt} for p given by its (weights, points).

    With p - 1 = sum_i w_i 2 eps_i z/(1 - eps_i z), z g' = v (p-1) g gives
    k g_k = 2 v sum_i w_i S_i(k), where S_i(k) = sum_{j=1}^{k} eps_i^j g_{k-j}
    obeys S_i(k) = eps_i (S_i(k-1) + g_{k-1}); |eps_i| = 1, so the running
    sums do not amplify rounding.  A shorter jet is a bitwise prefix of a
    longer one.  The measure is not validated here.
    """
    two_v = 2.0 * v
    s = [0j] * len(weights)
    gk = 1 + 0j
    jet = [gk]
    for k in range(1, order + 1):
        s = list(map(mul, points, map(add, s, repeat(gk))))
        gk = two_v / k * reduce(add, map(mul, weights, s), 0j)
        jet.append(gk)
    return jet


def _member(params: ClassParams, g: Sequence[complex]) -> TruncatedSeries:
    """The member of order len(g) whose exponential factor begins g_0..g_{N-1}.

    Spirallike: z g.  Convex: the Alexander inverse of z g, and Ozaki: the
    antiderivative of g; both give a_n = g_{n-1}/n.
    """
    # The series algebra is library-only; no command builds a member.
    from .series import TruncatedSeries

    if _f_prime_is_g(params):
        return TruncatedSeries([0j, *map(truediv, g, range(1, len(g) + 1))])
    return TruncatedSeries([0j, *g])


def construct_member(
    params: ClassParams,
    p: TruncatedSeries | AtomicHerglotzRep,
    order: int | None = None,
) -> TruncatedSeries:
    """Build the member of params' class generated by the Carathéodory p.

    p is either a truncated series, whose order the member keeps, or an
    atomic measure together with the truncation ``order``.  Both forms
    share the family wrapping (z g for spirallike, the antiderivative of g
    for convex and Ozaki); they differ only in how they get the exponential
    factor g: exp of the series (O(order^2)), or one running sum per atom
    (O(atoms * order)).  DomainError unless params is a ClassParams.
    """
    # Imported here: bounds, which builds no measure, does not load it.
    from .caratheodory import AtomicHerglotzRep

    _check_class(params)
    if isinstance(p, AtomicHerglotzRep):
        order = _count("order", order, 1)
        return _member(params, _atom_jet(p.weights, p.points, order - 1, _exponent(params)))
    if order is not None:
        raise DomainError("a series carries its own order; pass order only with a measure")
    return _member(params, (_exponent(params) * p.integrate_kernel()).exp().coeffs[:-1])


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
    _check_class(params)
    if not radii or any(not 0.0 < r < 1.0 for r in radii):
        raise DomainError("radii must lie in (0, 1)")
    n_angles = _count("n_angles", n_angles, 1)

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
