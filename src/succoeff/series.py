"""Truncated complex power-series (jet) arithmetic on the unit disk.

A :class:`TruncatedSeries` stores the Taylor coefficients a_0..a_N of an
analytic function as a tuple of Python complex numbers.  Products are
Cauchy products truncated at order N (coefficients above N are silently
dropped — standard jet arithmetic).  exp uses the first-order ODE
recurrence; its precondition f(0) = 0 removes any branch ambiguity.

Every sum of products is accumulated left to right, acc += a*b, so results
do not depend on the summation algorithm of a library or of the builtin
``sum``.  ``_dot`` runs that loop through ``functools.reduce`` and
``operator``, which performs exactly the same operations in C.
"""

from __future__ import annotations

import cmath
from collections.abc import Iterable
from functools import reduce
from itertools import repeat
from numbers import Complex
from operator import add, mul, truediv

from . import _EXPORTS, config
from .errors import DomainError, OrderMismatchError

__all__ = list(_EXPORTS["series"])


def _dot(a: Iterable[complex], b: Iterable[complex]) -> complex:
    """a_0 b_0 + a_1 b_1 + ..., accumulated left to right from 0j."""
    return reduce(add, map(mul, a, b), 0j)


class TruncatedSeries:
    """Coefficients a_0..a_N of an analytic function, truncated at order N."""

    __slots__ = ("_coeffs",)

    # Scalars of array libraries defer to __rmul__ instead of iterating the series.
    __array_priority__ = 1000

    def __init__(self, coeffs: Iterable[complex]):
        c = tuple(map(complex, coeffs))
        if not c:
            raise DomainError("coefficients must be a nonempty sequence")
        if not all(map(cmath.isfinite, c)):
            raise DomainError("coefficients must be finite")
        self._coeffs = c

    @property
    def coeffs(self) -> tuple[complex, ...]:
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def __len__(self) -> int:
        return len(self._coeffs)

    def __getitem__(self, k: int) -> complex:
        return self._coeffs[k]

    def __repr__(self) -> str:
        body = ", ".join(f"{c:.6g}" for c in self._coeffs)
        return f"TruncatedSeries(order={self.order}, coeffs=({body}))"

    # -- ring operations ---------------------------------------------------

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"truncation orders differ: {self.order} != {other.order}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        return TruncatedSeries([a + b for a, b in zip(self._coeffs, other._coeffs)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        return TruncatedSeries([a - b for a, b in zip(self._coeffs, other._coeffs)])

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            # Cauchy product truncated at order N.
            f, g = self._coeffs, other._coeffs
            return TruncatedSeries([_dot(f, g[k::-1]) for k in range(len(f))])
        if isinstance(other, Complex):
            return TruncatedSeries(map(mul, self._coeffs, repeat(complex(other))))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Complex):
            return self * other
        return NotImplemented

    # -- analytic operations -----------------------------------------------

    def exp(self) -> "TruncatedSeries":
        """Series of exp(f); requires f(0) = 0 within ``config.gate(0.0)``."""
        f = self._coeffs
        if abs(f[0]) > config.gate(0.0):
            raise DomainError("exp requires a series with zero constant term")
        # (exp f)' = f' exp f  =>  k g_k = sum_{j=1}^{k} j f_j g_{k-j}
        df = list(map(mul, range(1, len(f)), f[1:]))
        g = [1 + 0j]
        for k in range(1, len(f)):
            g.append(_dot(df, reversed(g)) / k)
        return TruncatedSeries(g)

    def integrate_kernel(self) -> "TruncatedSeries":
        """Series of the Herglotz transport integral of p: c_k/k at z^k.

        For p = 1 + c_1 z + c_2 z^2 + ... this is the antiderivative of
        (p(t) - 1)/t, i.e. sum_k (c_k/k) z^k with zero constant term.
        Requires p(0) = 1 within ``config.gate(1.0)``.
        """
        p = self._coeffs
        if abs(p[0] - 1.0) > config.gate(1.0):
            raise DomainError("kernel integral requires constant term 1")
        return TruncatedSeries([0j, *map(truediv, p[1:], range(1, len(p)))])

    def antiderivative(self) -> "TruncatedSeries":
        """Termwise antiderivative with value 0 at the origin (same order)."""
        c = self._coeffs
        return TruncatedSeries([0j, *map(truediv, c[:-1], range(1, len(c)))])

    def derivative(self) -> "TruncatedSeries":
        """Termwise derivative, zero-padded to keep the order (top is lost)."""
        c = self._coeffs
        return TruncatedSeries([*map(mul, range(1, len(c)), c[1:]), 0j])

    def shift_up(self) -> "TruncatedSeries":
        """Multiply by z, dropping the overflowing top coefficient."""
        return TruncatedSeries((0j,) + self._coeffs[:-1])

    def eval(self, z):
        """Horner evaluation of the truncated polynomial at z."""
        acc = 0j
        for a in reversed(self._coeffs):
            acc = acc * z + a
        return acc
