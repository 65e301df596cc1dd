"""Carathéodory-class functions as atomic Herglotz measures.

A function p with p(0)=1 and positive real part on the disk is represented
here as a finite convex combination of Herglotz kernels (1+eps z)/(1-eps z)
with unimodular eps.  The module checks the domain of the (c1, x)
parametrization of c2, extracts moments, and reconstructs the boundary
two-atom measures used by the extremal functions.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Sequence
from itertools import accumulate, repeat
from operator import add, mul

from . import _EXPORTS, config
from .errors import DegenerateError, DomainError, InfeasibleError, _count

__all__ = list(_EXPORTS["caratheodory"])


class AtomicHerglotzRep(namedtuple("AtomicHerglotzRep", "weights points")):
    """Convex combination sum_j w_j (1+eps_j z)/(1-eps_j z), |eps_j| = 1.

    Any sequences are accepted; they are stored as tuples of float and
    complex.  Raises DomainError unless they match and are nonempty, the
    weights lie in (0, 1] and the points are unimodular, each within
    ``config.gate(1.0)``, and the weights sum to 1 within ``len(weights)``
    gates: normalizing n weights left to right misses 1 by about n/2 ulps.
    A NaN or an infinity fails the test of the sequence that holds it.
    """

    __slots__ = ()

    def __new__(cls, weights: Sequence[float], points: Sequence[complex]):
        w = tuple(map(float, weights))
        e = tuple(map(complex, points))
        tol = config.gate(1.0)
        if not w or len(w) != len(e):
            raise DomainError("need matching, nonempty weight/point sequences")
        if not all(0.0 < v <= 1.0 + tol for v in w):
            raise DomainError("weights must lie in (0, 1]")
        if abs(math.fsum(w) - 1.0) > len(w) * tol:
            raise DomainError("weights must sum to 1")
        if not all(abs(abs(p) - 1.0) <= tol for p in e):
            raise DomainError("atom points must lie on the unit circle")
        return super().__new__(cls, w, e)

    # _replace builds through _make; route it through the checks above.
    _make = classmethod(lambda cls, fields: cls(*fields))


def _check_disk_point(c: float, x: complex) -> None:
    """DomainError unless 0 <= c <= 2 exactly and |x| <= 1 + ``config.gate(1.0)``.

    c gets no slack: outside [0, 2] the reduced functionals leave the sharp intervals.
    """
    if not 0.0 <= c <= 2.0:
        raise DomainError(f"c must lie in [0, 2], got {c}")
    if not abs(x) <= 1.0 + config.gate(1.0):
        raise DomainError("|x| must be <= 1")


def moments(rep: AtomicHerglotzRep, k_max: int) -> list[complex]:
    """Taylor coefficients c_1..c_kmax of p; c_k = 2 sum_j w_j eps_j^k.

    eps^k is taken by repeated multiplication, eps^k = eps^(k-1) * eps.
    """
    k_max = _count("k_max", k_max, 1)
    out = [0j] * k_max
    for w, e in zip(rep.weights, rep.points):
        powers = accumulate(repeat(e, k_max), mul)
        out = list(map(add, out, map(mul, powers, repeat(w))))
    return list(map(mul, out, repeat(2.0)))


def to_series(rep: AtomicHerglotzRep, order: int) -> TruncatedSeries:
    """p as a truncated series 1 + c_1 z + ... + c_order z^order."""
    # The series algebra is library-only; no command builds p's series.
    from .series import TruncatedSeries

    order = _count("order", order, 0)
    return TruncatedSeries([1 + 0j] + (moments(rep, order) if order >= 1 else []))


def solve_two_atom(c: float, x: complex) -> AtomicHerglotzRep:
    """Reconstruct the boundary two-atom measure with prescribed moments.

    Returns weights w1 + w2 = 1 (both positive) and distinct unimodular
    eps1, eps2 with

        w1 eps1 + w2 eps2     = m1 = c / 2,
        w1 eps1^2 + w2 eps2^2 = m2 = (c^2 + (4 - c^2) x) / 4.

    A solution exists exactly on the degenerate boundary |x| = 1 with
    0 <= c < 2, and it is found in closed form; |x| may miss 1 by
    ``config.gate(1.0)``, and InfeasibleError is raised beyond that.  With
    m0 = 1 and m_{-1} = conj(m1) = m1, the moments of a two-atom measure
    obey the recurrence m_{k+2} = s m_{k+1} - q m_k with s = eps1 + eps2
    and q = eps1 eps2.  Its steps k = -1 and k = 0 give q = -x and
    s = (c/2)(1 - x), so the atoms are the roots

        eps1,2 = (s +- sqrt(s^2 + 4x)) / 2   of   z^2 - s z - x,

    the para-orthogonal polynomial at the step where the Schur algorithm
    stops.  Each s +- sqrt(s^2 + 4x) is divided by its modulus, so the exact halving is
    left out.  With x = e^{i phi}, |phi| <= pi, the root is e^{i phi/2} |root|, so w1 =
    Re((c/2 - eps2) / (eps1 - eps2)) = 1/2 + c cos(phi/2) / (2 |root|) >= 1/2.  Atoms are
    ordered by argument in [0, 2pi); at x = 1 they are exactly 1 and -1.  DegenerateError
    when c == 2, where the measure is the point mass at 1, or when w1 rounds to 1, which
    only the last floats below 2 do.
    """
    _check_disk_point(c, x)
    if c == 2.0:
        raise DegenerateError("c = 2 collapses the measure to a single atom at 1")
    if abs(abs(x) - 1.0) > config.gate(1.0):
        raise InfeasibleError(
            f"no two-atom measure matches (c={c}, x={x}); the pair must satisfy |x| = 1"
        )

    s = c / 2.0 * (1.0 - x)
    root = cmath.sqrt(s * s + 4.0 * x)
    e1, e2 = s + root, s - root
    e1, e2 = e1 / abs(e1), e2 / abs(e2)
    w = ((c / 2.0 - e2) / (e1 - e2)).real
    if not w < 1.0:
        raise DegenerateError(f"the measure at (c={c}, x={x}) collapses to a single atom")
    weights, points = [w, 1.0 - w], [e1, e2]
    if cmath.phase(e1) % (2.0 * math.pi) > cmath.phase(e2) % (2.0 * math.pi):
        weights.reverse()
        points.reverse()
    return AtomicHerglotzRep(weights, points)


def _seeded_stream(seed: int) -> random.Random:
    """The pseudo-random stream of ``seed``.

    Only ``random()`` is drawn from it: Python keeps the sequence of
    ``random.Random(seed).random()`` the same across versions, which it
    does not promise for ``randrange`` or ``uniform``.  ``random`` is
    imported here, so only the commands that draw load it.
    """
    import random

    return random.Random(_count("seed", seed, 0))


def _draw_atoms(rng: random.Random, n_atoms: int) -> tuple[list[float], list[complex]]:
    """The (weights, points) of a random measure: n_atoms weight draws, then n_atoms angles.

    Weights ``0.05 + 0.95 r`` are summed left to right and divided by the
    sum; points are ``cmath.rect(1, 2 pi r)``.  The pair is not validated.
    """
    n_atoms = _count("n_atoms", n_atoms, 1)
    # Weights bounded away from zero so invariants hold after normalization.
    w = [0.05 + 0.95 * rng.random() for _ in range(n_atoms)]
    total = 0.0
    for v in w:
        total += v
    angles = [2.0 * math.pi * rng.random() for _ in range(n_atoms)]
    return [v / total for v in w], [cmath.rect(1.0, a) for a in angles]


def random_rep(n_atoms: int, seed: int) -> AtomicHerglotzRep:
    """Reproducible pseudo-random atomic representation."""
    return AtomicHerglotzRep(*_draw_atoms(_seeded_stream(seed), n_atoms))
