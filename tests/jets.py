"""Jet helpers that only the tests use, and numpy reference formulas.

``log`` and ``cpow`` build principal-branch complex powers independently of
the package's construction path, so they serve as the reference for the
two-atom extremals.  The ``np_*`` functions are the numpy formulas the
package's plain-Python jet operations replaced; the reference tests in
``test_series.py`` compare the two, and ``np_product`` stands in for the
series product the package does not have.
"""

import numpy as np

from succoeff import DomainError, TruncatedSeries


def polynomial(order: int, *coeffs: complex) -> TruncatedSeries:
    """c_0 + c_1 z + ... as a truncated series of the given order."""
    if len(coeffs) > order + 1:
        raise DomainError(f"{len(coeffs)} coefficients exceed order {order}")
    return TruncatedSeries([*coeffs, *[0j] * (order + 1 - len(coeffs))])


def log(f: TruncatedSeries) -> TruncatedSeries:
    """Series of log(f) with log(1) = 0; requires f(0) = 1."""
    c = f.coeffs
    if abs(c[0] - 1.0) > 1e-14:
        raise DomainError("log requires constant term 1 (principal branch)")
    # (log f)' = f'/f  =>  k h_k = k f_k - sum_{j=1}^{k-1} j h_j f_{k-j}
    h = [0j]
    for k in range(1, len(c)):
        acc = k * c[k]
        for j in range(1, k):
            acc -= j * h[j] * c[k - j]
        h.append(acc / k)
    return TruncatedSeries(h)


def cpow(f: TruncatedSeries, w: complex) -> TruncatedSeries:
    """Principal-branch f**w = exp(w log f); requires f(0) = 1."""
    return (complex(w) * log(f)).exp()


# ------------------------------------------------- numpy reference formulas

def np_exp(f) -> np.ndarray:
    f = np.asarray(f, dtype=complex)
    g = np.zeros(f.size, dtype=complex)
    g[0] = 1.0
    for k in range(1, f.size):
        j = np.arange(1, k + 1)
        g[k] = np.sum(j * f[1 : k + 1] * g[k - 1 :: -1][:k]) / k
    return g


def np_product(f, g) -> np.ndarray:
    f = np.asarray(f, dtype=complex)
    return np.convolve(f, np.asarray(g, dtype=complex))[: f.size]


def np_integrate_kernel(p) -> np.ndarray:
    p = np.asarray(p, dtype=complex)
    out = np.zeros_like(p)
    out[1:] = p[1:] / np.arange(1, p.size)
    return out


def np_eval(f, z):
    return np.polyval(np.asarray(f, dtype=complex)[::-1], z)
