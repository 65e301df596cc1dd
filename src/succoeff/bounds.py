"""Sharp two-sided bounds for |a2|-|a1| and |a3|-|a2|, with extremals.

For each family the interval endpoints are closed-form in the class
parameters; every endpoint is attained by a catalog function, the class
member generated by one Carathéodory measure (see :func:`extremal_coeffs`
and :func:`extremal_series`), which is how the package cross-checks each
bound against an explicit member.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from . import config
from .caratheodory import AtomicHerglotzRep, solve_two_atom
from .errors import DomainError
from .families import ClassParams, CoeffTriple, Family, _initial_coeffs, construct_member

__all__ = [
    "Which",
    "ExtremalName",
    "ExtremalDescriptor",
    "BoundInterval",
    "t_factor",
    "two_atom_parameters",
    "bound_d1",
    "bound_d2",
    "extremal_measure",
    "extremal_coeffs",
    "extremal_series",
    "attainment",
    "extremal_targets",
]


class Which(str, Enum):
    """Which successive-coefficient functional: |a2|-|a1| or |a3|-|a2|."""

    D1 = "d1"
    D2 = "d2"

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown functional {value!r}")


class ExtremalName(str, Enum):
    K = "K"                  # spirallike, upper d1
    H = "H"                  # spirallike, lower d1 / upper d2
    L = "L"                  # convex, upper d1
    Q = "Q"                  # convex, lower d1 / upper d2
    F_SPIRAL = "F_SPIRAL"    # spirallike, lower d2 (two-atom)
    G_CONVEX = "G_CONVEX"    # convex, lower d2 (two-atom)
    G_OZAKI = "G_OZAKI"      # ozaki, upper d1
    H_OZAKI = "H_OZAKI"      # ozaki, lower d1 / upper d2
    F_OZAKI = "F_OZAKI"      # ozaki, lower d2 (two-atom, single atom at lam >= 1/2)

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown extremal {value!r}")


_POINT_AT_1 = AtomicHerglotzRep((1.0,), (1.0 + 0j,))
_POINT_AT_MINUS_1 = AtomicHerglotzRep((1.0,), (-1.0 + 0j,))
_PAIR_AT_PM_1 = AtomicHerglotzRep((0.5, 0.5), (1.0 + 0j, -1.0 + 0j))

# Each extremal is the member of its family generated by one Carathéodory
# measure; None marks the boundary two-atom measure that the class's c*
# fixes (see extremal_measure).
_CATALOG = {
    ExtremalName.K: (Family.SPIRALLIKE, _POINT_AT_1),
    ExtremalName.H: (Family.SPIRALLIKE, _PAIR_AT_PM_1),
    ExtremalName.F_SPIRAL: (Family.SPIRALLIKE, None),
    ExtremalName.L: (Family.CONVEX_GAMMA, _POINT_AT_1),
    ExtremalName.Q: (Family.CONVEX_GAMMA, _PAIR_AT_PM_1),
    ExtremalName.G_CONVEX: (Family.CONVEX_GAMMA, None),
    ExtremalName.G_OZAKI: (Family.OZAKI_G, _POINT_AT_MINUS_1),
    ExtremalName.H_OZAKI: (Family.OZAKI_G, _PAIR_AT_PM_1),
    ExtremalName.F_OZAKI: (Family.OZAKI_G, None),
}


class ExtremalDescriptor(namedtuple("ExtremalDescriptor", "name params")):
    """A catalog extremal: its name and the class it is the extremal of."""

    __slots__ = ()

    def __new__(cls, name: ExtremalName | str, params: ClassParams):
        name = ExtremalName(name)
        family = _CATALOG[name][0]
        if params.family is not family:
            raise DomainError(f"extremal {name.value} belongs to the {family.value} family, "
                              f"not {params.family.value}")
        return super().__new__(cls, name, params)

    # _replace builds through _make; route it through the checks above.
    _make = classmethod(lambda cls, fields: cls(*fields))


class BoundInterval(namedtuple("BoundInterval", "lower upper lower_extremal upper_extremal")):
    __slots__ = ()

    def __new__(cls, lower: float, upper: float, lower_extremal: ExtremalDescriptor,
                upper_extremal: ExtremalDescriptor):
        if not lower <= upper:
            raise DomainError(f"empty interval [{lower}, {upper}]")
        return super().__new__(cls, lower, upper, lower_extremal, upper_extremal)

    _make = classmethod(lambda cls, fields: cls(*fields))


def t_factor(alpha: float, gamma: float) -> float:
    """sqrt(1 + 4 (1-alpha)(2-alpha) cos^2 gamma), in (1, 3]."""
    ClassParams.spirallike(alpha, gamma)
    return math.sqrt(1.0 + 4.0 * (1.0 - alpha) * (2.0 - alpha) * math.cos(gamma) ** 2)


def two_atom_parameters(params: ClassParams) -> tuple[float, complex]:
    """(c, x) generating the lower-endpoint extremal of |a3|-|a2|.

    spirallike/convex: x = -(1 + 2(1-a)cos^2 g + i(1-a)sin 2g)/T, c = 2/sqrt(T+1),
                       except c = 3/(T+1) for convex with T < 5/4
    ozaki:             x = -1, c = 3/(2-lam) for lam <= 1/2, c = 2 above.
    """
    if params.family is Family.OZAKI_G:
        lam = params.lam
        c = 3.0 / (2.0 - lam) if lam <= 0.5 else 2.0
        return c, -1.0 + 0j
    a, g = params.alpha, params.gamma
    t = t_factor(a, g)
    if params.family is Family.CONVEX_GAMMA and t < 1.25:
        c = 3.0 / (t + 1.0)
    else:
        c = 2.0 / math.sqrt(t + 1.0)
    x = -(1.0 + 2.0 * (1.0 - a) * math.cos(g) ** 2 + 1j * (1.0 - a) * math.sin(2.0 * g)) / t
    return c, x


def bound_d1(params: ClassParams) -> BoundInterval:
    """Sharp interval for |a2| - |a1|; the lower endpoint is always -1."""
    if params.family is Family.SPIRALLIKE:
        upper = 2.0 * (1.0 - params.alpha) * math.cos(params.gamma) - 1.0
        lo, hi = ExtremalName.H, ExtremalName.K
    elif params.family is Family.CONVEX_GAMMA:
        upper = (1.0 - params.alpha) * math.cos(params.gamma) - 1.0
        lo, hi = ExtremalName.Q, ExtremalName.L
    else:
        upper = params.lam / 2.0 - 1.0
        lo, hi = ExtremalName.H_OZAKI, ExtremalName.G_OZAKI
    return BoundInterval(
        lower=-1.0,
        upper=upper,
        lower_extremal=ExtremalDescriptor(lo, params),
        upper_extremal=ExtremalDescriptor(hi, params),
    )


def ozaki_lower_d2(lam: float) -> float:
    """Branch formula for the ozaki lower endpoint of |a3| - |a2|.

    The two branches agree at lam = 1/2 (both give -5/24).
    """
    if lam <= 0.5:
        return lam * (4.0 * lam - 17.0) / (24.0 * (2.0 - lam))
    return -lam * (lam + 2.0) / 6.0


def convex_lower_d2(alpha: float, gamma: float) -> float:
    """Branch formula for the convex lower endpoint of |a3| - |a2|.

    The lower envelope is p((T+1)c^2 - 4 - 6c) on [2/sqrt(T+1), 2], with
    p = (1-a)cos(g)/12.  Its vertex c0 = 3/(T+1) lies inside that interval
    exactly when T < 5/4, and the minimum is taken there; otherwise at the
    left end.  The two branches agree at T = 5/4 (both give -(2/3)(1-a)cos g).
    """
    t = t_factor(alpha, gamma)
    scale = (1.0 - alpha) * math.cos(gamma)
    if t < 1.25:
        return -scale * (4.0 * (t + 1.0) + 9.0) / (12.0 * (t + 1.0))
    return -scale / math.sqrt(1.0 + t)


def bound_d2(params: ClassParams) -> BoundInterval:
    """Sharp interval for |a3| - |a2|, with two-atom lower extremals."""
    if params.family is Family.OZAKI_G:
        lower = ozaki_lower_d2(params.lam)
        upper = params.lam / 6.0
        lo, hi = ExtremalName.F_OZAKI, ExtremalName.H_OZAKI
    else:
        a, g = params.alpha, params.gamma
        t = t_factor(a, g)
        cosg = math.cos(g)
        if params.family is Family.SPIRALLIKE:
            lower = -2.0 * (1.0 - a) * cosg / math.sqrt(1.0 + t)
            upper = (1.0 - a) * cosg
            lo, hi = ExtremalName.F_SPIRAL, ExtremalName.H
        else:
            lower = convex_lower_d2(a, g)
            upper = (1.0 - a) * cosg / 3.0
            lo, hi = ExtremalName.G_CONVEX, ExtremalName.Q
    return BoundInterval(
        lower=lower,
        upper=upper,
        lower_extremal=ExtremalDescriptor(lo, params),
        upper_extremal=ExtremalDescriptor(hi, params),
    )


def extremal_measure(desc: ExtremalDescriptor) -> AtomicHerglotzRep:
    """The generating measure of a catalog extremal.

    The point mass at 1 (K, L) or at -1 (G_OZAKI), the pair at +-1 with
    weights 1/2 (H, Q, H_OZAKI), or the two-atom measure at the class's
    (c*, x*) of :func:`two_atom_parameters` (F_SPIRAL, G_CONVEX, F_OZAKI),
    which is the point mass at 1 where c* = 2.
    """
    measure = _CATALOG[desc.name][1]
    if measure is not None:
        return measure
    c, x = two_atom_parameters(desc.params)
    if c >= 2.0 - config.DEGENERATE_C_TOL:
        # Measure degenerates to the point mass at 1 (Koebe-type kernel).
        return _POINT_AT_1
    return solve_two_atom(c, x)


def extremal_coeffs(desc: ExtremalDescriptor) -> CoeffTriple:
    """(a2, a3) of a catalog extremal, read from g_1 and g_2 of its measure.

    The way ``sample`` reads its members; bitwise equal to
    ``coeffs_from_series(extremal_series(desc, order))`` at every order.
    """
    return CoeffTriple(*_initial_coeffs(desc.params, [extremal_measure(desc)])[0])


def extremal_series(desc: ExtremalDescriptor, order: int) -> TruncatedSeries:
    """Taylor series (to ``order``) of a catalog extremal function.

    ``construct_member`` of its generating measure at ``desc.params``, the
    library's reference form.  The commands read a2 and a3, bitwise the
    same, through :func:`extremal_coeffs`.
    """
    if order < 4:
        raise DomainError("order must be >= 4 to expose a2 and a3")
    return construct_member(desc.params, extremal_measure(desc), order)


def attainment(desc: ExtremalDescriptor, which: Which | str) -> float:
    """|a2|-|a1| (resp. |a3|-|a2|) of the catalog extremal."""
    which = Which(which)
    triple = extremal_coeffs(desc)
    return triple.d1() if which is Which.D1 else triple.d2()


def extremal_targets(params: ClassParams) -> list[tuple[ExtremalDescriptor, Which, float]]:
    """Catalog of (extremal, functional, attained endpoint) for a family."""
    d1 = bound_d1(params)
    d2 = bound_d2(params)
    return [
        (d1.upper_extremal, Which.D1, d1.upper),
        (d1.lower_extremal, Which.D1, d1.lower),
        (d2.upper_extremal, Which.D2, d2.upper),
        (d2.lower_extremal, Which.D2, d2.lower),
    ]
