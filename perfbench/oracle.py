"""Reference endpoints computed without the package, and checks of CLI rows.

After rotating the generating Carathéodory function so that c1 = c >= 0,
both functionals are explicit in (c, x) with c in [0, 2] and |x| <= 1:

    d1 = s c - 1
    d2 = p (|c^2 u + (4 - c^2) x| - K c)

For a fixed c the triangle inequality gives the extremes over the disk:
the maximum of |c^2 u + (4 - c^2) x| is c^2 |u| + (4 - c^2) and the
minimum is max(c^2 |u| - (4 - c^2), 0).  So each endpoint is the extreme
of a piecewise quadratic in c alone, attained at an end of [0, 2], at the
breakpoint, or at a vertex of one of the pieces.  Nothing here imports
``succoeff``; the constants (s, p, u, K) are re-derived from the class
definitions below.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

# Absolute tolerance for a closed-form endpoint against the reference.
CLOSED_FORM_ATOL = 1e-12
# Absolute tolerance for the optimizer's refined endpoint against the reference.
NUMERIC_ATOL = 1e-6
# Slack for values attained by explicit members (extremal or sampled).
MEMBER_ATOL = 1e-9

KNOWN_DEFECT = "convex-small-T-d2-lower"
KNOWN_DEFECT_TEXT = (
    "convex family with T < 5/4: the closed-form lower endpoint of |a3|-|a2| "
    "sits above the true minimum, which lies at c = 3/(T+1), not 2/sqrt(1+T)"
)


@dataclass(frozen=True)
class Reference:
    d1: tuple[float, float]
    d2: tuple[float, float]

    def interval(self, which: str) -> tuple[float, float]:
        return self.d1 if which == "d1" else self.d2


def _constants(family: str, alpha: float, gamma: float, lam: float):
    """(d1 slope s, d2 prefactor p, |u|, K) of the reduced functionals."""
    if family == "ozaki":
        return lam / 4.0, lam / 24.0, abs(1.0 - lam), 6.0
    tilt = cmath.exp(1j * gamma) * math.cos(gamma)
    u = abs(1.0 + 2.0 * (1.0 - alpha) * tilt)
    scale = (1.0 - alpha) * math.cos(gamma)
    if family == "spirallike":
        return scale, scale / 4.0, u, 4.0
    if family == "convex":
        return scale / 2.0, scale / 12.0, u, 6.0
    raise ValueError(f"unknown family {family!r}")


def t_value(alpha: float, gamma: float) -> float:
    """|u| = T for the spirallike and convex families."""
    return _constants("spirallike", alpha, gamma, 0.0)[2]


def _extremes(pieces, breaks) -> tuple[float, float]:
    """Min and max over [0, 2] of a continuous piecewise quadratic.

    ``pieces`` are (a, b, c0) with value a c^2 + b c + c0 on consecutive
    intervals split at ``breaks``.
    """
    edges = [0.0] + [b for b in breaks if 0.0 < b < 2.0] + [2.0]
    values = []
    for (a, b, c0), lo, hi in zip(pieces, edges, edges[1:]):
        cands = [lo, hi]
        if a != 0.0 and lo < -b / (2.0 * a) < hi:
            cands.append(-b / (2.0 * a))
        values += [a * c * c + b * c + c0 for c in cands]
    return min(values), max(values)


def reference(family: str, alpha: float = 0.0, gamma: float = 0.0, lam: float = 0.0) -> Reference:
    s, p, u, k = _constants(family, alpha, gamma, lam)
    d1 = (min(-1.0, 2.0 * s - 1.0), max(-1.0, 2.0 * s - 1.0))
    # Maximum over the disk: p ((u - 1) c^2 - K c + 4), one piece.
    _, d2_hi = _extremes([(p * (u - 1.0), -p * k, 4.0 * p)], [])
    # Minimum over the disk: p (max((u + 1) c^2 - 4, 0) - K c), split where
    # the modulus can reach zero.
    cb = 2.0 / math.sqrt(u + 1.0)
    d2_lo, _ = _extremes([(0.0, -p * k, 0.0), (p * (u + 1.0), -p * k, -4.0 * p)], [cb])
    return Reference(d1=d1, d2=(d2_lo, d2_hi))


def is_small_t_convex(family: str, alpha: float, gamma: float) -> bool:
    return family == "convex" and t_value(alpha, gamma) < 1.25


def breakpoint_lower(family: str, alpha: float, gamma: float) -> float:
    """The lower envelope of d2 at c = 2/sqrt(1 + |u|), where the modulus
    first reaches zero.  The known defect puts the convex minimum here."""
    _, p, u, k = _constants(family, alpha, gamma, 0.0)
    return -k * p * 2.0 / math.sqrt(u + 1.0)


def _is_known_defect(family: str, alpha: float, gamma: float, lower: float) -> bool:
    """A d2 lower endpoint that the known defect explains: convex, T < 5/4,
    and equal to the envelope at the breakpoint instead of its minimum."""
    return (is_small_t_convex(family, alpha, gamma)
            and abs(lower - breakpoint_lower(family, alpha, gamma)) <= CLOSED_FORM_ATOL)


# ------------------------------------------------------------- row checks

@dataclass
class CheckResult:
    """Verdicts on the rows of one command's output."""

    operations: int = 0
    failures: list = field(default_factory=list)        # (operation, reason)
    known: list = field(default_factory=list)           # (operation, reason) explained by KNOWN_DEFECT
    bound_err: float = 0.0
    endpoint_err: float = 0.0
    points: int = 0
    members: int = 0
    sample_failures: int = 0
    sample_constructed: int = 0

    def fail(self, op: str, reason: str, known: bool) -> None:
        (self.known if known else self.failures).append((op, reason))

    @property
    def failed_operations(self) -> int:
        return len({op for op, _ in self.failures} | {op for op, _ in self.known})


def _f(row: dict, key: str) -> float:
    return float(row[key])


def _params(row: dict) -> tuple[str, float, float, float]:
    return row["family"], _f(row, "alpha"), _f(row, "gamma"), _f(row, "lambda")


def _closed_form(res: CheckResult, op: str, row: dict, which: str, lower: float, upper: float) -> None:
    fam, a, g, lam = _params(row)
    ref_lo, ref_hi = reference(fam, a, g, lam).interval(which)
    err_lo, err_hi = abs(lower - ref_lo), abs(upper - ref_hi)
    res.bound_err = max(res.bound_err, err_lo, err_hi)
    if err_hi > CLOSED_FORM_ATOL:
        res.fail(op, f"{which} closed-form upper {upper!r} != reference {ref_hi!r}", False)
    if err_lo > CLOSED_FORM_ATOL:
        known = which == "d2" and _is_known_defect(fam, a, g, lower)
        res.fail(op, f"{which} closed-form lower {lower!r} != reference {ref_lo!r}", known)


def _numeric(res: CheckResult, op: str, ref: Reference, which: str, vmin: float, vmax: float) -> None:
    ref_lo, ref_hi = ref.interval(which)
    res.endpoint_err = max(res.endpoint_err, abs(vmin - ref_lo), abs(vmax - ref_hi))
    if not (ref_lo - CLOSED_FORM_ATOL <= vmin <= ref_lo + NUMERIC_ATOL):
        res.fail(op, f"{which} numeric min {vmin!r} vs reference {ref_lo!r}", False)
    if not (ref_hi - NUMERIC_ATOL <= vmax <= ref_hi + CLOSED_FORM_ATOL):
        res.fail(op, f"{which} numeric max {vmax!r} vs reference {ref_hi!r}", False)


def _attained(res: CheckResult, op: str, ref: Reference, which: str, value: float) -> None:
    ref_lo, ref_hi = ref.interval(which)
    if not ref_lo - MEMBER_ATOL <= value <= ref_hi + MEMBER_ATOL:
        res.fail(op, f"{which} member value {value!r} outside [{ref_lo!r}, {ref_hi!r}]", False)


def _passed(res: CheckResult, op: str, row: dict, known: bool) -> None:
    if row["passed"] != "true":
        res.fail(op, "row reports passed=false", known)


def check_bounds(rows: list[dict], res: CheckResult) -> None:
    for i, row in enumerate(rows):
        op = f"bounds[{i}]"
        res.operations += 1
        _closed_form(res, op, row, row["which"], _f(row, "lower"), _f(row, "upper"))
    res.points += 1


def check_extremal(rows: list[dict], res: CheckResult) -> None:
    for i, row in enumerate(rows):
        fam, a, g, lam = _params(row)
        which = row["which"]
        ref = reference(fam, a, g, lam)
        ref_lo, ref_hi = ref.interval(which)
        target = _f(row, "target")
        op = f"extremal[{i}]"
        res.operations += 1
        res.members += 1
        is_lower = abs(target - ref_lo) < abs(target - ref_hi)
        err = abs(target - (ref_lo if is_lower else ref_hi))
        res.bound_err = max(res.bound_err, err)
        if err > CLOSED_FORM_ATOL:
            known = is_lower and which == "d2" and _is_known_defect(fam, a, g, target)
            res.fail(op, f"{row['extremal']} target {target!r} != reference", known)
        _attained(res, op, ref, which, _f(row, which))
        if abs(_f(row, which) - target) > MEMBER_ATOL:
            res.fail(op, f"{row['extremal']} attains {row[which]} not {target!r}", False)
        _passed(res, op, row, False)


def check_verify(rows: list[dict], res: CheckResult) -> None:
    for i, row in enumerate(rows):
        fam, a, g, lam = _params(row)
        which = row["which"]
        ref = reference(fam, a, g, lam)
        op = f"verify[{i}]"
        res.operations += 1
        res.members += 2
        lower, upper = _f(row, "analytic_lower"), _f(row, "analytic_upper")
        _closed_form(res, op, row, which, lower, upper)
        _numeric(res, op, ref, which, _f(row, "numeric_min"), _f(row, "numeric_max"))
        for side, bound in (("lower", lower), ("upper", upper)):
            value = _f(row, f"{side}_attainment")
            _attained(res, op, ref, which, value)
            if abs(value - bound) > MEMBER_ATOL:
                res.fail(op, f"{side} attainment {value!r} != closed form {bound!r}", False)
        known = which == "d2" and _is_known_defect(fam, a, g, lower) and row["case_check"] == "fail"
        _passed(res, op, row, known)
    res.points += 1


def check_sweep(rows: list[dict], res: CheckResult) -> None:
    for i, row in enumerate(rows):
        fam, a, g, lam = _params(row)
        ref = reference(fam, a, g, lam)
        op = f"sweep[{i}]"
        res.operations += 1
        res.points += 1
        if row["error"]:
            res.fail(op, f"row error {row['error']!r}", False)
            continue
        for which in ("d1", "d2"):
            _closed_form(res, op, row, which, _f(row, f"{which}_lower"), _f(row, f"{which}_upper"))
            _numeric(res, op, ref, which, _f(row, f"{which}_min"), _f(row, f"{which}_max"))
        _passed(res, op, row, _is_known_defect(fam, a, g, _f(row, "d2_lower")))


def check_sample(rows: list[dict], res: CheckResult, package_d2_lower=None) -> None:
    """Margins are measured from the package's closed forms; a negative
    margin is a sampled member outside the package's interval.

    ``package_d2_lower()`` gives the package's closed-form lower endpoint of
    d2 at the rows' point.  It is asked only for a convex T < 5/4 row with a
    member below that endpoint; without it such a member is a real fault.
    """
    for i, row in enumerate(rows):
        fam, a, g, lam = _params(row)
        op = f"sample[{i}]"
        known_low = False
        low_margin = _f(row, "d2_low_margin")
        if low_margin < 0.0 and is_small_t_convex(fam, a, g) and package_d2_lower is not None:
            # The known defect shows only while the package's endpoint is the
            # breakpoint value, and only down to the true minimum; a member
            # any lower, or below a corrected endpoint, is a real fault.
            lower = package_d2_lower()
            known_low = (_is_known_defect(fam, a, g, lower)
                         and lower + low_margin >= reference(fam, a, g, lam).d2[0] - MEMBER_ATOL)
        n = int(row["n_samples"])
        constructed, failures = int(row["constructed"]), int(row["failures"])
        res.operations += 1
        res.points += 1
        res.members += constructed
        res.sample_constructed += constructed
        res.sample_failures += failures
        if constructed + failures != n or constructed == 0:
            res.fail(op, f"{constructed} constructed and {failures} failed of {n}", False)
        for which in ("d1", "d2"):
            for side in ("low", "high"):
                margin = _f(row, f"{which}_{side}_margin")
                if not margin >= -MEMBER_ATOL:
                    known = known_low and which == "d2" and side == "low"
                    res.fail(op, f"{which} sampled value beyond the {side} endpoint by {-margin!r}", known)
        _passed(res, op, row, known_low)


CHECKERS = {
    "bounds": check_bounds,
    "extremal": check_extremal,
    "verify": check_verify,
    "sweep": check_sweep,
    "sample": check_sample,
}
