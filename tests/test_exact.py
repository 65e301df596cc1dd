"""Every endpoint the package computes, against its closed forms run at 60 digits.

:mod:`exact` runs ``bounds``' branch functions in ``decimal`` on each class's
float inputs.  Errors are in ``conftest.gap_units`` of the reference.
The float closed forms must be within :data:`CLOSED_FORM_UNITS`, which measures
their rounding.  Each extremal's value and each ``grid_optimize`` endpoint,
computed apart from the endpoint formulas, must be within half the verdict gate,
``test_verdict_gates.MAX_GAP_UNITS``; these two hold the formulas.  The classes
are ``conftest.classes``: seeded random classes, the box edges, the ulps
either side of ``T = 5/4`` and ``lam = 1/2``, Ozaki classes down to
``lam = 1/2 - 7.5e-13``, whose ``c*`` is within about 1e-12 of 2, and named
classes.  Over ``Fraction`` the branch functions are exact.
"""

from decimal import Decimal
from fractions import Fraction
from functools import cache

from exact import endpoints, units
from succoeff import (ClassParams, Family, FunctionalSpec, Which, bound_d1, bound_d2,
                      extremal_coeffs, grid_optimize, two_atom_parameters)
from succoeff.bounds import _ozaki_forms, _tilted_forms
from conftest import classes
from test_verdict_gates import MAX_GAP_UNITS

CLOSED_FORM_UNITS = 2


def _errors(params: ClassParams) -> dict[str, float]:
    """The worst error of each kind of computation at ``params``, in units."""
    ref = endpoints(params)
    d1, d2 = bound_d1(params), bound_d2(params)
    c, x = two_atom_parameters(params)
    # |a2| - |a1| >= -1 for every class, with |a1| = 1.
    intervals = ((d1, Which.D1, -1, ref.d1_upper),
                 (d2, Which.D2, ref.d2_lower, ref.d2_upper))
    closed = [units(c, ref.c_star), units(x.real, ref.x_star[0]), units(x.imag, ref.x_star[1])]
    extremal, optimizer = [], []
    for interval, which, lower, upper in intervals:
        closed += [units(interval.lower, lower), units(interval.upper, upper)]
        # Which.D1 is "d1", the CoeffTriple method that reads it.
        extremal += [units(getattr(extremal_coeffs(interval.lower_extremal), which.value)(), lower),
                     units(getattr(extremal_coeffs(interval.upper_extremal), which.value)(), upper)]
        report = grid_optimize(FunctionalSpec(params, which))
        optimizer += [units(report.numeric_min, lower), units(report.numeric_max, upper)]
    return {"closed form": max(closed), "extremal": max(extremal), "optimizer": max(optimizer)}


@cache
def _worst() -> dict[str, tuple[float, ClassParams]]:
    """The worst error of each kind over the classes, with the class it is at."""
    worst = {}
    # 667 per family: 2,001 random classes, and the 472 others.
    for params in classes(667):
        for kind, error in _errors(params).items():
            if error > worst.get(kind, (-1.0,))[0]:
                worst[kind] = (error, params)
    return worst


def test_closed_forms_are_within_two_units():
    error, params = _worst()["closed form"]
    assert error <= CLOSED_FORM_UNITS, (error, params)


def test_extremal_values_are_within_eight_units():
    error, params = _worst()["extremal"]
    assert error <= MAX_GAP_UNITS, (error, params)


def test_optimizer_endpoints_are_within_eight_units():
    error, params = _worst()["optimizer"]
    assert error <= MAX_GAP_UNITS, (error, params)


def test_the_uncorrected_convex_endpoint_fails_the_closed_form_check():
    # The paper's convex d2 lower endpoint as printed, -s/sqrt(T+1), is
    # about 6.97e-5 above the true one at (0.5, 1.4), where T < 5/4.
    params = ClassParams.convex(0.5, 1.4)
    ref = endpoints(params)
    printed = float(endpoints(params, corrected=False).d2_lower)
    assert abs(float(ref.d2_lower) - printed) > 6.9e-5
    assert units(printed, ref.d2_lower) > CLOSED_FORM_UNITS
    assert units(bound_d2(params).lower, ref.d2_lower) <= CLOSED_FORM_UNITS


def test_branch_functions_are_exact_over_fractions():
    # gamma = 0 gives T = 3 - 2a.  At a = 7/8, T = 5/4 and q = sqrt(T + 1) = 3/2,
    # where both convex branches meet; at a = 495/512, T = 273/256 and q = 23/16,
    # on the convex vertex branch.  Both Ozaki branches meet at lam = 1/2.
    roots = {Fraction(25, 16): Fraction(5, 4), Fraction(9, 4): Fraction(3, 2),
             Fraction(273, 256) ** 2: Fraction(273, 256), Fraction(529, 256): Fraction(23, 16)}
    for params, lower, c in ((ClassParams.spirallike(0.875, 0.0), "-1/6", "4/3"),
                             (ClassParams.convex(0.875, 0.0), "-1/12", "4/3"),
                             (ClassParams.convex(495 / 512, 0.0), "-18785/812544", "768/529"),
                             (ClassParams.ozaki(0.25), "-2/21", "12/7"),
                             (ClassParams.ozaki(0.5), "-5/24", "2"),
                             (ClassParams.ozaki(0.75), "-11/32", "2")):
        if params.family is Family.OZAKI_G:
            forms = _ozaki_forms(Fraction(params.lam))
        else:
            forms = _tilted_forms(Fraction(params.alpha), Fraction(1), Fraction(0),
                                  roots.__getitem__)[params.family]
        # A float literal in a branch function would turn these into floats.
        assert all(type(v) in (Fraction, int) for v in (*forms[:4], *forms[4])), forms
        assert (forms[1], forms[3]) == (Fraction(lower), Fraction(c)), params
        ref = Decimal(forms[1].numerator) / forms[1].denominator  # 28 digits: ample for units
        assert units(bound_d2(params).lower, ref) <= CLOSED_FORM_UNITS, params
