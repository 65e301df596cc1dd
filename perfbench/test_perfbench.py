"""Tests of the benchmark's own parts: the oracle, the row checks, the statistics.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import math
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
import oracle  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from succoeff import ClassParams, Family, bound_d1, bound_d2  # noqa: E402

LATTICE = [(float(a), float(g)) for a in np.linspace(0.0, 0.5, 3)
           for g in np.linspace(-math.pi / 3, math.pi / 3, 5)]


def _closed(params):
    return {"d1": bound_d1(params), "d2": bound_d2(params)}


@pytest.mark.parametrize("family", ["spirallike", "convex"])
def test_oracle_matches_closed_forms_on_acceptance_lattice(family):
    assert len(LATTICE) == 15
    for alpha, gamma in LATTICE:
        ref = oracle.reference(family, alpha, gamma)
        for which, iv in _closed(ClassParams(Family(family), alpha=alpha, gamma=gamma)).items():
            lo, hi = ref.interval(which)
            assert abs(lo - iv.lower) <= 1e-12 and abs(hi - iv.upper) <= 1e-12, (alpha, gamma, which)


@pytest.mark.parametrize("lam", [0.05, 0.25, 0.5, 0.75, 1.0])
def test_oracle_matches_ozaki_closed_forms(lam):
    ref = oracle.reference("ozaki", lam=lam)
    for which, iv in _closed(ClassParams.ozaki(lam)).items():
        lo, hi = ref.interval(which)
        assert abs(lo - iv.lower) <= 1e-12 and abs(hi - iv.upper) <= 1e-12


def test_oracle_reproduces_convex_small_t_gap():
    alpha, gamma = 0.5, 1.4
    t = oracle.t_value(alpha, gamma)
    assert t < 1.25 and oracle.is_small_t_convex("convex", alpha, gamma)
    ref_lo = oracle.reference("convex", alpha, gamma).d2[0]
    # Minimum at c0 = 3/(T+1): -(1-a) cos g (4(T+1) + 9) / (12 (T+1)).
    exact = -(1 - alpha) * math.cos(gamma) * (4 * (t + 1) + 9) / (12 * (t + 1))
    assert ref_lo == pytest.approx(exact, abs=1e-15)
    gap = bound_d2(ClassParams.convex(alpha, gamma)).lower - ref_lo
    assert gap == pytest.approx(6.9647e-5, abs=1e-9)


@pytest.mark.parametrize("family,alpha,gamma,lam", [
    ("spirallike", 0.3, 0.7, 0.0), ("convex", 0.5, 1.4, 0.0), ("convex", 0.0, -0.4, 0.0),
    ("ozaki", 0.0, 0.0, 0.3), ("ozaki", 0.0, 0.0, 0.9),
])
def test_oracle_bounds_a_brute_force_scan(family, alpha, gamma, lam):
    """The reference brackets a dense scan of the reduced functional over (c, x)."""
    _, p, _, k = oracle._constants(family, alpha, gamma, lam)
    if family == "ozaki":
        u = 1.0 - lam
    else:
        u = 1.0 + 2.0 * (1.0 - alpha) * np.exp(1j * gamma) * math.cos(gamma)
    c = np.linspace(0.0, 2.0, 2001)[:, None]
    # The disk is scanned in polar coordinates about the direction of -u.
    circle = -u / abs(u) * np.exp(1j * np.linspace(0, 2 * np.pi, 512, endpoint=False))[None, :]
    scan = [p * (np.abs(c * c * u + (4.0 - c * c) * r * circle) - k * c)
            for r in np.linspace(0.0, 1.0, 11)]
    lo, hi = oracle.reference(family, alpha, gamma, lam).d2
    # No scanned value lies outside the reference interval; the scan comes
    # within its c step times the largest slope (K p <= 1) of each end.
    assert lo - 1e-15 <= min(v.min() for v in scan) <= lo + 1e-3
    assert hi - 1e-3 <= max(v.max() for v in scan) <= hi + 1e-15


def _bounds_rows(family, alpha, gamma, lam=0.0):
    fam = Family(family)
    params = ClassParams(fam, lam=lam) if fam is Family.OZAKI_G else ClassParams(fam, alpha=alpha, gamma=gamma)
    rows = []
    for which, iv in _closed(params).items():
        rows.append({"family": family, "alpha": repr(params.alpha), "gamma": repr(params.gamma),
                     "lambda": repr(params.lam), "which": which,
                     "lower": repr(iv.lower), "upper": repr(iv.upper)})
    return rows


def test_check_bounds_passes_and_names_the_known_defect():
    res = oracle.CheckResult()
    oracle.check_bounds(_bounds_rows("spirallike", 0.2, 0.3), res)
    assert (res.operations, res.failures, res.known) == (2, [], [])
    oracle.check_bounds(_bounds_rows("convex", 0.5, 1.4), res)
    assert res.failures == [] and len(res.known) == 1
    assert res.bound_err == pytest.approx(6.9647e-5, abs=1e-9)


def test_check_bounds_flags_a_wrong_endpoint():
    rows = _bounds_rows("ozaki", 0.0, 0.0, lam=0.4)
    rows[1]["upper"] = repr(float(rows[1]["upper"]) + 1e-9)
    res = oracle.CheckResult()
    oracle.check_bounds(rows, res)
    assert len(res.failures) == 1 and res.known == []


def test_tail_has_ten_samples_beyond_but_never_falls_below_p90():
    samples = list(range(1, 201))
    value, pct, n = stats.tail(reversed(samples))
    assert (value, n) == (190, 200) and pct == pytest.approx(95.0)
    assert sum(s > value for s in samples) == 10
    assert stats.tail(range(1, 101)) == (90, 90.0, 100)
    # Too few samples for ten beyond p90: p90 by nearest rank.
    assert stats.tail(range(1, 31)) == (27, 90.0, 30)
    assert stats.tail(range(1, 17)) == (15, 100 * 15 / 16, 16)
    assert stats.tail(range(11)) == (9, 100 * 10 / 11, 11)
    assert stats.tail([3.0, 1.0]) == (3.0, 100.0, 2)
    for n in range(1, 250):
        value, pct, _ = stats.tail(range(n))
        assert pct >= 90.0 and value >= statistics.median(range(n))
    with pytest.raises(ValueError):
        stats.tail([])


def test_spread_uses_quartiles():
    med, rel = stats.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert med == 3.0 and rel == pytest.approx((4.5 - 1.5) / 3.0)


def test_parse_importtime_counts_scipy_pulls_as_scipy():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        10 |         10 |         numpy.f2py",
        "import time:        30 |         40 |       scipy.optimize",
        "import time:         5 |         45 |     succoeff.caratheodory",
        "import time:         5 |        200 |   succoeff",
        "import time:         1 |        201 | succoeff.cli",
    ])
    assert layers.parse_importtime(text) == {
        "import.succoeff_cli_ms": 0.201, "import.scipy_ms": 0.04, "import.numpy_ms": 0.15}


def test_workloads_are_seeded():
    for make in workloads.WORKLOADS.values():
        assert make(7) == make(7)
        assert make(7) != make(8)
    assert ["verify", "--family", "convex", "--alpha", "0.5", "--gamma", "1.4"] in workloads.verify_lattice(3)


@pytest.mark.parametrize("depth,endpoint,known", [
    (0.5, "breakpoint", True), (2.0, "breakpoint", False),
    (0.5, "reference", False), (0.5, None, False),
])
def test_check_sample_separates_the_known_defect_from_a_real_violation(depth, endpoint, known):
    """A member below the convex closed form is the known defect only while the
    package's endpoint is the breakpoint value and the member stays above the
    true minimum; ``depth`` is its distance below that endpoint in units of the gap."""
    alpha, gamma = 0.5, 1.4
    ref_lo = oracle.reference("convex", alpha, gamma).d2[0]
    gap = bound_d2(ClassParams.convex(alpha, gamma)).lower - ref_lo
    lower = {"breakpoint": ref_lo + gap, "reference": ref_lo}.get(endpoint)
    row = {"family": "convex", "alpha": "0.5", "gamma": "1.4", "lambda": "0", "n_samples": "10",
           "constructed": "10", "failures": "0", "violations": "1",
           "d1_low_margin": "0.1", "d1_high_margin": "0.1", "d2_low_margin": repr(-depth * gap),
           "d2_high_margin": "0.1", "passed": "false"}
    res = oracle.CheckResult()
    oracle.check_sample([row], res, None if lower is None else lambda: lower)
    assert res.failed_operations == 1
    assert (res.failures == []) == known and (res.known != []) == known


def test_check_sample_asks_for_the_endpoint_only_below_it():
    row = {"family": "convex", "alpha": "0.5", "gamma": "1.4", "lambda": "0", "n_samples": "10",
           "constructed": "10", "failures": "0", "violations": "0",
           "d1_low_margin": "0.1", "d1_high_margin": "0.1", "d2_low_margin": "0.0",
           "d2_high_margin": "0.1", "passed": "true"}
    res = oracle.CheckResult()
    oracle.check_sample([row], res, lambda: pytest.fail("endpoint asked for"))
    assert (res.operations, res.failed_operations) == (1, 0)
