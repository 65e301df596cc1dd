"""``bounds``' branch functions ``_tilted_forms`` and ``_ozaki_forms`` at 60 digits.

:func:`endpoints` runs them in :mod:`decimal` on the exact binary value of
each float input, each branch chosen on the 60-digit ``T`` or ``lam``, with
``cos`` and ``sin`` summed from their Taylor series.  So ``test_exact``'s
closed-form check measures the float code's rounding; its optimizer check,
whose ``grid_optimize`` never reads the closed forms, holds the formulas.
The one formula here is the ``corrected=False`` control.
"""

from collections import namedtuple
from decimal import Decimal, localcontext

from conftest import gap_units
from succoeff import ClassParams, Family
from succoeff.bounds import _ozaki_forms, _tilted_forms

DIGITS = 60

# x_star is (real part, imaginary part).
Endpoints = namedtuple("Endpoints", "d1_upper d2_lower d2_upper c_star x_star")


def _cos_sin(x: Decimal) -> tuple[Decimal, Decimal]:
    """cos x and sin x from their Taylor series, to the working precision."""
    with localcontext() as ctx:
        ctx.prec += 10  # guard digits for the cancellation near |x| = pi/2
        tiny = Decimal(10) ** -(ctx.prec + 5)
        cos, sin, term, k = Decimal(0), Decimal(0), Decimal(1), 0
        while abs(term) > tiny:
            cos += term  # (-1)^j x^(2j) / (2j)!, k = 2j
            term = term * x / (k + 1)
            sin += term
            term = -term * x / (k + 2)
            k += 2
    return +cos, +sin


def endpoints(params: ClassParams, corrected: bool = True) -> Endpoints:
    """The endpoints, c* and x* of ``params``, to DIGITS digits.

    ``corrected=False`` gives the paper's convex ``d2`` lower endpoint as
    printed, ``-s/q`` on both branches, for a negative control.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        if params.family is Family.OZAKI_G:
            return Endpoints(*_ozaki_forms(Decimal(params.lam)))
        cos, sin = _cos_sin(Decimal(params.gamma))
        tilted = _tilted_forms(Decimal(params.alpha), cos, 2 * sin * cos, Decimal.sqrt)
        ref = Endpoints(*tilted[params.family])
        # The printed -s/q is half of spirallike's -2s/q.
        return ref if corrected else ref._replace(d2_lower=tilted[Family.SPIRALLIKE][1] / 2)


def units(value: float, ref: Decimal) -> float:
    """|value - ref| in ``conftest.gap_units`` of ``ref``.

    The difference is taken in decimal, exactly and then rounded; only the
    scaling, which needs no more than a float's precision, is in floats.
    """
    return gap_units(float(abs(Decimal(value) - ref)), float(ref))
