"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is pinned here, not computed.
"""

import math
import time

import numpy as np
import pytest

from succoeff import (
    ClassParams,
    FunctionalSpec,
    TruncatedSeries,
    Which,
    attainment,
    case_boundary_check,
    construct_member,
    extremal_targets,
    grid_optimize,
    lz_c2,
    lz_c3,
    membership_check,
    moments,
    random_rep,
    sample_no_violation,
    solve_two_atom,
    t_factor,
    to_series,
    two_atom_parameters,
)
from conftest import lz_invert_x, normalize_rotation, random_series
from jets import cpow, log, monomial, one

LATTICE = [
    (alpha, gamma)
    for alpha in (0.0, 0.25, 0.5)
    for gamma in (-math.pi / 3, -math.pi / 6, 0.0, math.pi / 6, math.pi / 3)
]


def report(criterion: int, label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion} [{label}]: {status}{suffix}")
    return ok


def test_criterion_1_starlike_endpoints():
    spec = FunctionalSpec(ClassParams.spirallike(0.0, 0.0), Which.D2)
    start = time.perf_counter()
    rep = grid_optimize(spec)
    runtime = time.perf_counter() - start
    res_max = abs(rep.numeric_max - 1.0)
    res_min = abs(rep.numeric_min + 1.0)
    ok = res_max <= 1e-12 and res_min <= 1e-12
    ok = ok and runtime <= 60.0
    assert report(
        1, "starlike endpoint recovery", ok,
        f"max_res={res_max:.2e}, min_res={res_min:.2e}, runtime={runtime:.2f}s",
    )


def test_criterion_2_convex_endpoints():
    spec = FunctionalSpec(ClassParams.convex(0.0, 0.0), Which.D2)
    rep = grid_optimize(spec)
    res_max = abs(rep.numeric_max - 1.0 / 3.0)
    res_min = abs(rep.numeric_min + 0.5)
    ok = res_max <= 1e-12 and res_min <= 1e-12
    assert report(
        2, "convex endpoint recovery", ok,
        f"max_res={res_max:.2e}, min_res={res_min:.2e}",
    )


def test_criterion_3_ozaki_endpoints():
    checks = []
    rep = grid_optimize(FunctionalSpec(ClassParams.ozaki(1.0), Which.D2))
    checks.append(abs(rep.numeric_min + 0.5) <= 1e-12)
    checks.append(abs(rep.numeric_max - 1.0 / 6.0) <= 1e-12)
    rep = grid_optimize(FunctionalSpec(ClassParams.ozaki(0.5), Which.D2))
    checks.append(abs(rep.numeric_min + 5.0 / 24.0) <= 1e-12)
    rep = grid_optimize(FunctionalSpec(ClassParams.ozaki(0.25), Which.D2))
    expected = 0.25 * (4 * 0.25 - 17) / (24 * (2 - 0.25))  # = -4/42
    checks.append(abs(rep.numeric_min - expected) <= 1e-12)
    assert report(3, "ozaki endpoints (lam = 1, 1/2, 1/4)", all(checks))


def test_criterion_4_parameter_sweep():
    start = time.perf_counter()
    worst = 0.0
    for alpha, gamma in LATTICE:
        t = t_factor(alpha, gamma)
        cosg = math.cos(gamma)
        for params, lower, upper in (
            (
                ClassParams.spirallike(alpha, gamma),
                -2 * (1 - alpha) * cosg / math.sqrt(1 + t),
                (1 - alpha) * cosg,
            ),
            (
                ClassParams.convex(alpha, gamma),
                -(1 - alpha) * cosg / math.sqrt(1 + t),
                (1 - alpha) * cosg / 3,
            ),
        ):
            rep = grid_optimize(FunctionalSpec(params, Which.D2))
            worst = max(worst, abs(rep.numeric_min - lower), abs(rep.numeric_max - upper))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed <= 1800.0
    assert report(
        4, "15-point sweep, spirallike + convex", ok,
        f"worst residual={worst:.2e}, total={elapsed:.1f}s",
    )


def test_criterion_5_extremal_attainment():
    families = [
        ClassParams.spirallike(0.0, 0.0),
        ClassParams.spirallike(0.25, math.pi / 6),
        ClassParams.convex(0.0, 0.0),
        ClassParams.convex(0.25, -math.pi / 6),
        ClassParams.ozaki(0.25),
        ClassParams.ozaki(1.0),
    ]
    names = set()
    worst = 0.0
    for params in families:
        for desc, which, target in extremal_targets(params):
            names.add(desc.name)
            worst = max(worst, abs(attainment(desc, which, order=8) - target))
    ok = worst <= 1e-9 and len(names) == 9
    assert report(
        5, "nine extremals attain their endpoints", ok,
        f"worst residual={worst:.2e}, catalog size={len(names)}",
    )


def test_criterion_6_two_atom_solver():
    worst = 0.0
    for alpha, gamma in LATTICE:
        c, x = two_atom_parameters(ClassParams.spirallike(alpha, gamma))
        rep = solve_two_atom(c, x)
        w, e = np.asarray(rep.weights), np.asarray(rep.points)
        m1 = (w * e).sum()
        m2 = (w * e**2).sum()
        worst = max(worst, abs(m1 - c / 2), abs(m2 - (c * c + (4 - c * c) * x) / 4))
    pair = solve_two_atom(*two_atom_parameters(ClassParams.spirallike(0.0, 0.0)))
    atoms_ok = (
        np.allclose(pair.weights, [0.5, 0.5], atol=1e-9)
        and np.allclose(
            sorted(pair.points, key=lambda e: e.imag),
            [np.exp(-1j * np.pi / 3), np.exp(1j * np.pi / 3)],
            atol=1e-9,
        )
    )
    ok = worst < 1e-14 and atoms_ok
    assert report(
        6, "two-atom moment residuals on the lattice", ok,
        f"worst residual={worst:.2e}",
    )


def test_criterion_7_lz_oracle():
    rng = np.random.default_rng(1234)
    checked = 0
    worst = 0.0
    while checked < 1000:
        rep = random_rep(2, int(rng.integers(0, 2**31)))
        rotated, c1 = normalize_rotation(rep)
        if 4.0 - c1 * c1 < 1e-3:
            continue  # nearly merged atoms: the x-inversion is ill-posed
        c = moments(rotated, 3)
        x = lz_invert_x(c1, c[1])
        x /= abs(x)  # two-atom data sits on |x| = 1 exactly
        worst = max(
            worst,
            abs(lz_c2(c1, x) - c[1]),
            abs(lz_c3(c1, x, 0.0) - c[2]),
        )
        checked += 1
    ok = worst <= 1e-10
    assert report(
        7, "moment-parametrization oracle, 1000 two-atom samples", ok,
        f"worst residual={worst:.2e}",
    )


def test_criterion_8a_no_violations():
    reports = [
        sample_no_violation(ClassParams.spirallike(0.25, math.pi / 6), 500, seed=101),
        sample_no_violation(ClassParams.convex(0.25, -math.pi / 6), 500, seed=202),
        sample_no_violation(ClassParams.ozaki(0.6), 500, seed=303),
    ]
    ok = all(r.n_violations == 0 and r.n_failures == 0 for r in reports)
    worst = min(
        min(r.d1_low.margin, r.d1_high.margin, r.d2_low.margin, r.d2_high.margin)
        for r in reports
    )
    assert report(
        8, "8a: 500 random members per family stay in bounds", ok,
        f"smallest margin={worst:.2e}",
    )


def test_criterion_8b_moment_bound():
    rng = np.random.default_rng(999)
    worst = 0.0
    for _ in range(1000):
        rep = random_rep(int(rng.integers(1, 9)), int(rng.integers(0, 2**31)))
        worst = max(worst, float(np.abs(moments(rep, 10)).max()))
    ok = worst <= 2.0 + 1e-12
    assert report(8, "8b: |c_k| <= 2 on 1000 random measures", ok, f"max |c_k|={worst:.12f}")


def test_criterion_8c_series_roundtrips():
    rng = np.random.default_rng(555)
    worst = 0.0
    for order in (12, 24):
        for _ in range(25):
            f = random_series(rng, order, constant=1.0, scale=0.5)
            worst = max(worst, float(np.abs(np.subtract(log(f).exp().coeffs, f.coeffs)).max()))
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            diff = np.subtract((cpow(f, a) * cpow(f, b)).coeffs, cpow(f, a + b).coeffs)
            worst = max(worst, float(np.abs(diff).max()))
    ok = worst <= 1e-11
    assert report(8, "8c: exp/log and power-additivity round trips", ok,
                  f"worst deviation={worst:.2e}")


def test_criterion_8d_membership():
    rng = np.random.default_rng(777)
    ok = True
    # constructed members, deep truncation so radius 0.9 sampling is reliable
    for params in (
        ClassParams.spirallike(0.25, math.pi / 6),
        ClassParams.convex(0.25, -math.pi / 6),
        ClassParams.ozaki(0.8),
    ):
        for _ in range(100):
            rep = random_rep(int(rng.integers(1, 6)), int(rng.integers(0, 2**31)))
            member = construct_member(params, to_series(rep, 128))
            ok = ok and membership_check(member, params).passed
    # the tilted examples: spirallike/convex at tilt |pi/4| but not at 0
    n = 64
    spiral_example = cpow(one(n) + monomial(1, n, -1j), 1j - 1).shift_up()
    convex_example = 1j * cpow(one(n) + monomial(1, n, -1.0), 1j) - 1j * one(n)
    ok = ok and membership_check(spiral_example, ClassParams.spirallike(0.0, -math.pi / 4)).passed
    ok = ok and not membership_check(spiral_example, ClassParams.spirallike(0.0, 0.0)).passed
    ok = ok and membership_check(convex_example, ClassParams.convex(0.0, -math.pi / 4)).passed
    ok = ok and not membership_check(convex_example, ClassParams.convex(0.0, 0.0)).passed
    # reflections realize the opposite tilt orientation
    for f, ctor in ((spiral_example, ClassParams.spirallike), (convex_example, ClassParams.convex)):
        reflected = TruncatedSeries(np.conj(f.coeffs))
        ok = ok and membership_check(reflected, ctor(0.0, math.pi / 4)).passed
    assert report(8, "8d: membership of constructed members + tilted examples", ok)


def test_criterion_9_case_boundary():
    cases = [
        (ClassParams.spirallike(0.0, 0.0), 2 / math.sqrt(1 + t_factor(0.0, 0.0))),
        (ClassParams.spirallike(0.25, math.pi / 6), 2 / math.sqrt(1 + t_factor(0.25, math.pi / 6))),
        (ClassParams.convex(0.0, 0.0), 2 / math.sqrt(1 + t_factor(0.0, 0.0))),
        (ClassParams.convex(0.5, math.pi / 3), 2 / math.sqrt(1 + t_factor(0.5, math.pi / 3))),
        (ClassParams.ozaki(0.25), 3 / (2 - 0.25)),
        (ClassParams.ozaki(0.75), 2.0),
    ]
    ok = True
    for params, c_star in cases:
        rep = case_boundary_check(FunctionalSpec(params, Which.D2))
        ok = ok and rep.passed and rep.c_star == pytest.approx(c_star, abs=1e-12)
    assert report(9, "case analysis: monotonicity and argmin locations", ok)
