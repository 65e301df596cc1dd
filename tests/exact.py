"""Exact reference values of the sharp endpoints, at the float class parameters.

Every value is computed with stdlib :mod:`decimal` at :data:`DIGITS`
significant digits from the exact binary value of each float input
(``Decimal(0.1)`` is 0.1000000000000000055511151231257827..., not 0.1).
So a float result can be measured against the number it approximates,
not against a second float computation that may err the same way.

The formulas are the paper's, with the convex erratum (see the README):
with ``s = (1-a) cos g``, ``T = sqrt(1 + 4(1-a)(2-a) cos^2 g)`` and
``q = sqrt(T + 1)``,

* spirallike: ``|a2|-|a1|`` in ``[-1, 2s - 1]``, ``|a3|-|a2|`` in
  ``[-2s/q, s]``, ``c* = 2/q``;
* convex: ``|a2|-|a1|`` in ``[-1, s - 1]``, ``|a3|-|a2|`` in
  ``[-s(4q^2 + 9)/(12 q^2), s/3]`` with ``c* = 3/q^2`` when ``T < 5/4``,
  else ``[-s/q, s/3]`` with ``c* = 2/q``;
* Ozaki: ``|a2|-|a1|`` in ``[-1, lam/2 - 1]``, ``|a3|-|a2|`` in
  ``[lam(4 lam - 17)/(24(2 - lam)), lam/6]`` with ``c* = 3/(2 - lam)``
  when ``lam <= 1/2``, else ``[-lam(lam + 2)/6, lam/6]`` with ``c* = 2``;

and ``x* = -(1 + 2v)/|1 + 2v|`` with ``v = (1-a) e^{ig} cos g`` and
``|1 + 2v| = T`` (Ozaki: ``x* = -1``).  Each branch is chosen on the exact
``T < 5/4`` and ``lam <= 1/2``.  ``cos`` and ``sin`` are summed from their
Taylor series, which needs no range reduction for ``|g| < pi/2``.  Nothing
here imports the package's ``bounds`` or ``verify``.
"""

from collections import namedtuple
from decimal import Decimal, localcontext

DIGITS = 60

# d1 lower is -1 for every class.  x_star is (real part, imaginary part).
Endpoints = namedtuple("Endpoints", "d1_lower d1_upper d2_lower d2_upper c_star x_star")


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


def endpoints(family: str, alpha: float = 0.0, gamma: float = 0.0, lam: float = 0.0,
              corrected: bool = True) -> Endpoints:
    """The exact endpoints, c* and x* of the class with these float parameters.

    ``corrected=False`` gives the paper's convex ``d2`` lower endpoint as
    printed, ``-s/q`` on both branches, for a negative control.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        one = Decimal(1)
        if family == "ozaki":
            lam = Decimal(lam)
            if lam <= Decimal("0.5"):
                lower, c = lam * (4 * lam - 17) / (24 * (2 - lam)), 3 / (2 - lam)
            else:
                lower, c = -lam * (lam + 2) / 6, Decimal(2)
            return Endpoints(-one, lam / 2 - 1, lower, lam / 6, c, (-one, Decimal(0)))
        a = Decimal(alpha)
        cos, sin = _cos_sin(Decimal(gamma))
        s = (1 - a) * cos
        t2 = 1 + 4 * (1 - a) * (2 - a) * cos * cos
        t = t2.sqrt()
        q2 = t + 1
        q = q2.sqrt()
        x = (-(1 + 2 * (1 - a) * cos * cos) / t, -(2 * (1 - a) * cos * sin) / t)
        if family == "spirallike":
            return Endpoints(-one, 2 * s - 1, -2 * s / q, s, 2 / q, x)
        if corrected and t2 < Decimal(25) / 16:
            lower, c = -s * (4 * q2 + 9) / (12 * q2), 3 / q2
        else:
            lower, c = -s / q, 2 / q
        return Endpoints(-one, s - 1, lower, s / 3, c, x)


def units(value: float, ref: Decimal) -> float:
    """|value - ref| in units of eps * max(1, |ref|), eps = 2**-52.

    The difference is taken in decimal, exactly and then rounded; only the
    scaling, which needs no more than a float's precision, is in floats.
    """
    return float(abs(Decimal(value) - ref)) / (2.0**-52 * max(1.0, abs(float(ref))))
