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

from . import _EXPORTS
from .errors import DegenerateError, DomainError, _count
from .families import (ClassParams, CoeffTriple, Family, _atom_jet, _check_class, _divisors,
                       _exponent, construct_member)

__all__ = list(_EXPORTS["bounds"])


class Which(str, Enum):
    """Which successive-coefficient functional: |a2|-|a1| or |a3|-|a2|."""

    D1 = "d1"
    D2 = "d2"

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown functional {value!r}")


class ExtremalName(str, Enum):
    """The catalog extremals; _EXTREMALS says which endpoint each attains."""

    K = "K"
    H = "H"
    L = "L"
    Q = "Q"
    F_SPIRAL = "F_SPIRAL"
    G_CONVEX = "G_CONVEX"
    G_OZAKI = "G_OZAKI"
    H_OZAKI = "H_OZAKI"
    F_OZAKI = "F_OZAKI"

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown extremal {value!r}")


# family -> ((d1 lower, d1 upper), (d2 lower, d2 upper)) extremals.
_EXTREMALS = {
    Family.SPIRALLIKE: ((ExtremalName.H, ExtremalName.K),
                        (ExtremalName.F_SPIRAL, ExtremalName.H)),
    Family.CONVEX_GAMMA: ((ExtremalName.Q, ExtremalName.L),
                          (ExtremalName.G_CONVEX, ExtremalName.Q)),
    Family.OZAKI_G: ((ExtremalName.H_OZAKI, ExtremalName.G_OZAKI),
                     (ExtremalName.F_OZAKI, ExtremalName.H_OZAKI)),
}
_FAMILY_OF = {name: family for family, pairs in _EXTREMALS.items() for p in pairs for name in p}

_POINT_AT_1 = ((1.0,), (1.0 + 0j,))
_PAIR_AT_PM_1 = ((0.5, 0.5), (1.0 + 0j, -1.0 + 0j))

# Each extremal is its family's member generated by the Carathéodory measure of
# these (weights, points), or, if unlisted, by the two-atom measure at the
# class's c* (extremal_measure).
_CATALOG = {
    ExtremalName.K: _POINT_AT_1,
    ExtremalName.L: _POINT_AT_1,
    ExtremalName.G_OZAKI: ((1.0,), (-1.0 + 0j,)),
    ExtremalName.H: _PAIR_AT_PM_1,
    ExtremalName.Q: _PAIR_AT_PM_1,
    ExtremalName.H_OZAKI: _PAIR_AT_PM_1,
}


class ExtremalDescriptor(namedtuple("ExtremalDescriptor", "name params")):
    """A catalog extremal: its name and the class it is the extremal of."""

    __slots__ = ()

    def __new__(cls, name: ExtremalName | str, params: ClassParams):
        _check_class(params)
        name = ExtremalName(name)
        family = _FAMILY_OF[name]
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


def _t(alpha: float, gamma: float) -> float:
    """T = sqrt(1 + 4 (1-alpha)(2-alpha) cos^2 gamma), in (1, 3], of checked parameters."""
    return math.sqrt(1.0 + 4.0 * (1.0 - alpha) * (2.0 - alpha) * math.cos(gamma) ** 2)


def _closed_forms(params: ClassParams) -> tuple[float, float, float, float, complex]:
    """(upper of |a2|-|a1|, lower and upper of |a3|-|a2|, c*, x*): the one family branch.

    x* = -1 (ozaki), else -(1 + 2(1-a)cos^2 g + i(1-a)sin 2g)/T.  The convex
    envelope (1-a)cos(g)/12 ((T+1)c^2 - 4 - 6c) on [2/sqrt(T+1), 2] has its
    minimum at the vertex 3/(T+1) when T < 5/4, else at the left end, as
    spirallike has.  Ozaki's c* is 3/(2-lam) for lam <= 1/2, else 2.  The
    branches agree at T = 5/4 (-(2/3)(1-a)cos g) and at lam = 1/2 (-5/24).
    """
    _check_class(params)
    if params.family is Family.OZAKI_G:
        lam = params.lam
        if lam <= 0.5:
            lower, c = lam * (4.0 * lam - 17.0) / (24.0 * (2.0 - lam)), 3.0 / (2.0 - lam)
        else:
            lower, c = -lam * (lam + 2.0) / 6.0, 2.0
        return lam / 2.0 - 1.0, lower, lam / 6.0, c, -1.0 + 0j
    a, g = params.alpha, params.gamma
    t = _t(a, g)
    cosg = math.cos(g)
    x = -(1.0 + 2.0 * (1.0 - a) * cosg ** 2 + 1j * (1.0 - a) * math.sin(2.0 * g)) / t
    root = math.sqrt(1.0 + t)
    scale = (1.0 - a) * cosg
    if params.family is Family.SPIRALLIKE:
        return 2.0 * scale - 1.0, -2.0 * scale / root, scale, 2.0 / root, x
    if t < 1.25:
        lower, c = -scale * (4.0 * (t + 1.0) + 9.0) / (12.0 * (t + 1.0)), 3.0 / (t + 1.0)
    else:
        lower, c = -scale / root, 2.0 / root
    return scale - 1.0, lower, scale / 3.0, c, x


def two_atom_parameters(params: ClassParams) -> tuple[float, complex]:
    """(c*, x*) generating the lower-endpoint extremal of |a3|-|a2| (see _closed_forms)."""
    return _closed_forms(params)[3:]


def _interval(params: ClassParams, functional: int, lower: float, upper: float) -> BoundInterval:
    lo, hi = _EXTREMALS[params.family][functional]
    return BoundInterval(lower, upper, ExtremalDescriptor(lo, params),
                         ExtremalDescriptor(hi, params))


def bound_d1(params: ClassParams) -> BoundInterval:
    """Sharp interval for |a2| - |a1|; the lower endpoint is always -1."""
    return _interval(params, 0, -1.0, _closed_forms(params)[0])


def bound_d2(params: ClassParams) -> BoundInterval:
    """Sharp interval for |a3| - |a2|, with two-atom lower extremals."""
    _, lower, upper, _, _ = _closed_forms(params)
    return _interval(params, 1, lower, upper)


def extremal_measure(desc: ExtremalDescriptor) -> AtomicHerglotzRep:
    """The generating measure of a catalog extremal.

    Its fixed measure in _CATALOG, or else the two-atom measure at the
    class's (c*, x*) of :func:`two_atom_parameters`, which is the point
    mass at 1 where :func:`solve_two_atom` finds c* degenerate (c* = 2).
    """
    # Only the commands that read an extremal load the measure module.
    from .caratheodory import AtomicHerglotzRep, solve_two_atom

    atoms = _CATALOG.get(desc.name)
    if atoms is None:
        try:
            return solve_two_atom(*two_atom_parameters(desc.params))
        except DegenerateError:
            # Measure degenerates to the point mass at 1 (Koebe-type kernel).
            atoms = _POINT_AT_1
    return AtomicHerglotzRep(*atoms)


def extremal_coeffs(desc: ExtremalDescriptor) -> CoeffTriple:
    """(a2, a3) of a catalog extremal, read from g_1 and g_2 of its measure.

    An order-2 jet, divided by the family's n2 and n3; bitwise equal to
    ``coeffs_from_series(extremal_series(desc, order))`` at every order.
    """
    rep = extremal_measure(desc)
    _, g1, g2 = _atom_jet(rep.weights, rep.points, 2, _exponent(desc.params))
    n2, n3 = _divisors(desc.params)
    return CoeffTriple(g1 / n2, g2 / n3)


def extremal_series(desc: ExtremalDescriptor, order: int) -> TruncatedSeries:
    """Taylor series (to ``order``) of a catalog extremal function.

    ``construct_member`` of its generating measure at ``desc.params``, the
    library's reference form.  The commands read a2 and a3, bitwise the
    same, through :func:`extremal_coeffs`.
    """
    order = _count("order", order, 4)  # a2 and a3 need order >= 4
    return construct_member(desc.params, extremal_measure(desc), order)
