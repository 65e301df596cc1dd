"""The three function classes: construction, coefficients, membership.

Families covered (all normalized f(z) = z + a2 z^2 + a3 z^3 + ...):

* spirallike of order alpha with tilt gamma:
      Re(e^{-i gamma} z f'(z)/f(z)) > alpha cos(gamma),
* tilted convex of order alpha:
      Re(e^{-i gamma} (1 + z f''(z)/f'(z))) > alpha cos(gamma),
  equivalently z f' lies in the spirallike family (Alexander-type relation),
* the Ozaki-type class with parameter lam:
      Re(1 + z f''(z)/f'(z)) < 1 + lam/2.

Members are built from a Carathéodory function p through the exponential
representations; the low-order coefficient maps are available in closed
form through :func:`coeffs_from_c`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from . import config
from .errors import DomainError, EvaluationError
from .series import TruncatedSeries

__all__ = [
    "Family",
    "ClassParams",
    "CoeffTriple",
    "mu",
    "spirallike_from_p",
    "gclass_from_p",
    "alexander_inverse",
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


@dataclass(frozen=True)
class ClassParams:
    """Identifies one concrete function class.

    alpha/gamma apply to the spirallike and convex families, lam to the
    Ozaki-type class; the unused parameters must stay at their defaults.
    """

    family: Family
    alpha: float = 0.0
    gamma: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        if self.family in (Family.SPIRALLIKE, Family.CONVEX_GAMMA):
            if not 0.0 <= self.alpha < 1.0:
                raise DomainError(f"alpha must lie in [0, 1), got {self.alpha}")
            if not -math.pi / 2 < self.gamma < math.pi / 2:
                raise DomainError(f"gamma must lie in (-pi/2, pi/2), got {self.gamma}")
            if self.lam != 0.0:
                raise DomainError("lam is meaningful only for the ozaki family")
        elif self.family is Family.OZAKI_G:
            if not 0.0 < self.lam <= 1.0:
                raise DomainError(f"lam must lie in (0, 1], got {self.lam}")
            if self.alpha != 0.0 or self.gamma != 0.0:
                raise DomainError("alpha/gamma are meaningful only for spirallike/convex")
        else:  # pragma: no cover - enum exhausts the cases
            raise DomainError(f"unknown family {self.family}")

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


@dataclass(frozen=True)
class CoeffTriple:
    """Initial coefficients of a normalized member; a1 is identically 1."""

    a2: complex
    a3: complex
    a1: complex = 1.0 + 0j

    def __post_init__(self):
        if self.a1 != 1:
            raise DomainError("normalized members have a1 = 1")

    def d1(self) -> float:
        return abs(self.a2) - abs(self.a1)

    def d2(self) -> float:
        return abs(self.a3) - abs(self.a2)


def _check_p(p: TruncatedSeries) -> None:
    if abs(p[0] - 1.0) > 1e-12:
        raise DomainError("Carathéodory series must have constant term 1")


def spirallike_from_p(p: TruncatedSeries, alpha: float, gamma: float) -> TruncatedSeries:
    """Spirallike member z exp{(1-alpha) mu int (p(t)-1)/t dt} as a series."""
    ClassParams.spirallike(alpha, gamma)
    _check_p(p)
    w = (1.0 - alpha) * mu(gamma)
    return (w * p.integrate_kernel()).exp().shift_up()


def gclass_from_p(p: TruncatedSeries, lam: float) -> TruncatedSeries:
    """Ozaki-class member with f' = exp{-(lam/2) int (p(t)-1)/t dt}.

    The sign follows the defining substitution p = (lam - 2 z f''/f')/lam,
    which gives a2 = -lam c1 / 4.
    """
    ClassParams.ozaki(lam)
    _check_p(p)
    fprime = (-0.5 * lam * p.integrate_kernel()).exp()
    return fprime.antiderivative()


def alexander_inverse(g: TruncatedSeries) -> TruncatedSeries:
    """The f with z f' = g, i.e. a_n(f) = a_n(g)/n (a_0 passes through)."""
    c = g.coeffs
    return TruncatedSeries([c[0]] + [c[k] / k for k in range(1, len(c))])


def construct_member(params: ClassParams, p: TruncatedSeries) -> TruncatedSeries:
    """Build the member of params' class generated by the Carathéodory p."""
    if params.family is Family.SPIRALLIKE:
        return spirallike_from_p(p, params.alpha, params.gamma)
    if params.family is Family.CONVEX_GAMMA:
        return alexander_inverse(spirallike_from_p(p, params.alpha, params.gamma))
    return gclass_from_p(p, params.lam)


def coeffs_from_c(params: ClassParams, c1: complex, c2: complex) -> CoeffTriple:
    """Closed-form (a2, a3) of the member generated by p = 1 + c1 z + c2 z^2 + ...

    spirallike:  a2 = (1-a) mu c1,        2 a3 = (1-a)^2 mu^2 c1^2 + (1-a) mu c2
    convex:      2 a2 = (1-a) mu c1,      6 a3 = (1-a)^2 mu^2 c1^2 + (1-a) mu c2
    ozaki:       a2 = -lam c1 / 4,        a3 = (lam^2 c1^2 - 2 lam c2) / 24
    """
    if abs(c1) > 2 + 1e-9 or abs(c2) > 2 + 1e-9:
        raise DomainError("Carathéodory coefficients satisfy |c_k| <= 2")
    if params.family is Family.OZAKI_G:
        lam = params.lam
        return CoeffTriple(a2=-lam * c1 / 4.0, a3=(lam * lam * c1 * c1 - 2.0 * lam * c2) / 24.0)
    w = (1.0 - params.alpha) * mu(params.gamma)
    quad = w * w * c1 * c1 + w * c2
    if params.family is Family.SPIRALLIKE:
        return CoeffTriple(a2=w * c1, a3=quad / 2.0)
    return CoeffTriple(a2=w * c1 / 2.0, a3=quad / 6.0)


def coeffs_from_series(f: TruncatedSeries) -> CoeffTriple:
    """Extract (a2, a3) from a constructed member; validates normalization."""
    if f.order < 3:
        raise DomainError("need order >= 3 to read off a2 and a3")
    if abs(f[0]) > 1e-12 or abs(f[1] - 1.0) > 1e-12:
        raise DomainError("member must be normalized: f(0) = 0, f'(0) = 1")
    return CoeffTriple(a2=f[2], a3=f[3])


@dataclass(frozen=True)
class MembershipReport:
    passed: bool
    worst_margin: float
    worst_z: complex


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
                if abs(fz) < 1e-13:
                    raise EvaluationError(f"f vanishes at sample point z={z:.6g}")
                margin = (tilt * z * fpz / fz).real - floor
            else:
                if abs(fpz) < 1e-13:
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
