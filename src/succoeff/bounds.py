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

_POINT_AT_1 = ((1.0,), (1.0,))
_PAIR_AT_PM_1 = ((0.5, 0.5), (1.0, -1.0))

# Each extremal is its family's member generated by the Carathéodory measure of
# these (weights, points), or, if unlisted, by the two-atom measure at the
# class's c* (extremal_measure).
_CATALOG = {
    ExtremalName.K: _POINT_AT_1,
    ExtremalName.L: _POINT_AT_1,
    ExtremalName.G_OZAKI: ((1.0,), (-1.0,)),
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


def _tilted_forms(alpha, cosg, sin2g, sqrt):
    """{family: (d1 upper, d2 lower, d2 upper, c*, x*)} of both tilted classes, x* as (re, im).

    In any arithmetic: only + - * /, integer powers and literals, comparison
    and ``sqrt``.  The convex envelope s/12 ((T+1)c^2 - 4 - 6c), s = (1-a) cos g,
    is least at its vertex 3/(T+1) when T < 5/4, else at spirallike's 2/sqrt(T+1).
    """
    t = sqrt(1 + 4 * (1 - alpha) * (2 - alpha) * cosg ** 2)
    # 0 - v, not -v: the imaginary part is +0.0, never -0.0, where sin 2g vanishes.
    x = (-(1 + 2 * (1 - alpha) * cosg ** 2) / t, (0 - (1 - alpha) * sin2g) / t)
    root = sqrt(1 + t)
    s = (1 - alpha) * cosg
    if 4 * t < 5:
        lower, c = -s * (4 * (t + 1) + 9) / (12 * (t + 1)), 3 / (t + 1)
    else:
        lower, c = -s / root, 2 / root
    return {Family.SPIRALLIKE: (2 * s - 1, -2 * s / root, s, 2 / root, x),
            Family.CONVEX_GAMMA: (s - 1, lower, s / 3, c, x)}


def _ozaki_forms(lam):
    """The Ozaki class's forms, as :func:`_tilted_forms`; both branches give -5/24 at 1/2."""
    if 2 * lam <= 1:
        lower, c = lam * (4 * lam - 17) / (24 * (2 - lam)), 3 / (2 - lam)
    else:
        lower, c = -lam * (lam + 2) / 6, 2
    return lam / 2 - 1, lower, lam / 6, c, (-1, 0)


def _closed_forms(params: ClassParams) -> tuple[float, float, float, float, complex]:
    """(upper of |a2|-|a1|, lower and upper of |a3|-|a2|, c*, x*): the one family branch.

    :func:`_tilted_forms` at (alpha, cos g, sin 2g, math.sqrt) or
    :func:`_ozaki_forms` at lam, in floats (Ozaki's c* = 2 is an integer).
    """
    _check_class(params)
    if params.family is Family.OZAKI_G:
        d1_upper, lower, upper, c, x = _ozaki_forms(params.lam)
    else:
        g = params.gamma
        forms = _tilted_forms(params.alpha, math.cos(g), math.sin(2.0 * g), math.sqrt)
        d1_upper, lower, upper, c, x = forms[params.family]
    return d1_upper, lower, upper, float(c), complex(*x)


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
    return _interval(params, 1, *_closed_forms(params)[1:3])


def extremal_measure(desc: ExtremalDescriptor) -> AtomicHerglotzRep:
    """The generating measure of a catalog extremal.

    Its fixed measure in _CATALOG, or else the two-atom measure at the
    class's (c*, x*) of :func:`two_atom_parameters`, which is the point
    mass at 1 where :func:`solve_two_atom` finds it degenerate (c* = 2).
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
    ``CoeffTriple(*extremal_series(desc, order).coeffs[2:4])`` at every order.
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
