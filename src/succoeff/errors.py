"""Exception types and the argument checks that raise them."""

from operator import index


class SuccoeffError(Exception):
    """Base class for all package errors."""


class DomainError(SuccoeffError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class DegenerateError(SuccoeffError, ValueError):
    """The requested representation collapses to fewer atoms than asked for."""


class InfeasibleError(SuccoeffError, RuntimeError):
    """No representation satisfies the moment conditions within tolerance."""


class EvaluationError(SuccoeffError, ArithmeticError):
    """A sampled evaluation hit a zero of f or f' and cannot be trusted."""


def _count(name: str, value: int, least: int) -> int:
    """``value`` as an int; DomainError if it is no integer or is below ``least``."""
    try:
        value = index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
    return value


def _real(name: str, value) -> float:
    """``value`` as a float; DomainError unless it is a real number.

    float() would parse a string and would drop the imaginary part of a
    numpy complex with only a warning, so both are turned away first.
    """
    if not (isinstance(value, (str, bytes, bytearray, complex))
            or getattr(getattr(value, "dtype", None), "kind", "") == "c"):
        try:
            # -0.0 + 0.0 is 0.0, so a -0 input is stored and printed as 0.
            return float(value) + 0.0
        except (TypeError, ValueError, OverflowError):
            pass
    raise DomainError(f"{name} must be a real number, got {value!r}")
