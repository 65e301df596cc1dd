"""Every endpoint the package computes, against the exact value at its float inputs.

:mod:`exact` gives each class's endpoints, ``c*`` and ``x*`` to 60 digits.
Errors are in units of ``eps * max(1, |ref|)`` with ``eps = 2**-52``.  The
closed forms (``bound_d1``, ``bound_d2``, ``two_atom_parameters``) must be
within :data:`CLOSED_FORM_UNITS`; the value each extremal attains
(``extremal_coeffs(desc).d1()`` and ``.d2()``) and each ``grid_optimize``
endpoint within :data:`DERIVED_UNITS`.  The classes are those of
:mod:`test_verdict_gates`: seeded random classes of every family, the edges
of each box, the ulps either side of ``T = 5/4`` and ``lam = 1/2``, and the
Ozaki classes down to ``lam = 1/2 - 7.5e-13``, whose ``c*`` lies within
about 1e-12 of 2.
"""

from functools import cache

from exact import endpoints, units
from succoeff import (ClassParams, FunctionalSpec, Which, bound_d1, bound_d2, extremal_coeffs,
                      grid_optimize, two_atom_parameters)
from test_verdict_gates import _classes

CLOSED_FORM_UNITS = 2
DERIVED_UNITS = 8


def _errors(params: ClassParams) -> dict[str, float]:
    """The worst error of each kind of computation at ``params``, in units."""
    ref = endpoints(params.family.value, params.alpha, params.gamma, params.lam)
    d1, d2 = bound_d1(params), bound_d2(params)
    c, x = two_atom_parameters(params)
    intervals = ((d1, Which.D1, ref.d1_lower, ref.d1_upper),
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
    # 667 per family: about 2,000 random classes, and the 417 edge classes.
    for params in _classes(per_family=667, seed=20261019):
        for kind, error in _errors(params).items():
            if error > worst.get(kind, (-1.0,))[0]:
                worst[kind] = (error, params)
    return worst


def test_closed_forms_are_within_two_units():
    error, params = _worst()["closed form"]
    assert error <= CLOSED_FORM_UNITS, (error, params)


def test_extremal_values_are_within_eight_units():
    error, params = _worst()["extremal"]
    assert error <= DERIVED_UNITS, (error, params)


def test_optimizer_endpoints_are_within_eight_units():
    error, params = _worst()["optimizer"]
    assert error <= DERIVED_UNITS, (error, params)


def test_the_uncorrected_convex_endpoint_fails_the_closed_form_check():
    # The paper's convex d2 lower endpoint as printed, -s/sqrt(T+1), is
    # about 6.97e-5 above the true one at (0.5, 1.4), where T < 5/4.
    ref = endpoints("convex", 0.5, 1.4)
    printed = float(endpoints("convex", 0.5, 1.4, corrected=False).d2_lower)
    assert abs(float(ref.d2_lower) - printed) > 6.9e-5
    assert units(printed, ref.d2_lower) > CLOSED_FORM_UNITS
    assert units(bound_d2(ClassParams.convex(0.5, 1.4)).lower, ref.d2_lower) <= CLOSED_FORM_UNITS
