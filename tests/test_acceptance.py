"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  What a command computes is held to ``config.gate`` of its
expected value (``conftest.gated``); the other tolerances are pinned here.
"""

import math
import time
from itertools import product

import numpy as np

from succoeff import (
    ClassParams,
    DegenerateError,
    FunctionalSpec,
    TruncatedSeries,
    Which,
    case_boundary_check,
    config,
    construct_member,
    grid_optimize,
    membership_check,
    moments,
    random_rep,
    sample_no_violation,
    solve_two_atom,
    to_series,
    two_atom_parameters,
)
from conftest import (PARAM_GRID, endpoints, gated, lz_c2, lz_c3, lz_invert_x,
                      normalize_rotation, random_series, t_factor, ulps_around)
from jets import cpow, log, np_product, polynomial

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
    ok = rep.numeric_max == gated(1.0) and rep.numeric_min == gated(-1.0)
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
    ok = rep.numeric_max == gated(1.0 / 3.0) and rep.numeric_min == gated(-0.5)
    assert report(
        2, "convex endpoint recovery", ok,
        f"max_res={res_max:.2e}, min_res={res_min:.2e}",
    )


def test_criterion_3_ozaki_endpoints():
    checks = []
    rep = grid_optimize(FunctionalSpec(ClassParams.ozaki(1.0), Which.D2))
    checks.append(rep.numeric_min == gated(-0.5))
    checks.append(rep.numeric_max == gated(1.0 / 6.0))
    rep = grid_optimize(FunctionalSpec(ClassParams.ozaki(0.5), Which.D2))
    checks.append(rep.numeric_min == gated(-5.0 / 24.0))
    rep = grid_optimize(FunctionalSpec(ClassParams.ozaki(0.25), Which.D2))
    expected = 0.25 * (4 * 0.25 - 17) / (24 * (2 - 0.25))  # = -4/42
    checks.append(rep.numeric_min == gated(expected))
    assert report(3, "ozaki endpoints (lam = 1, 1/2, 1/4)", all(checks))


def test_criterion_4_parameter_sweep():
    start = time.perf_counter()
    worst = 0.0  # in gates of the endpoint
    for alpha, gamma in LATTICE:
        # The paper's s and q; every lattice point has T >= 5/4.
        s, q = (1 - alpha) * math.cos(gamma), math.sqrt(1 + t_factor(alpha, gamma))
        for params, lower, upper in ((ClassParams.spirallike(alpha, gamma), -2 * s / q, s),
                                     (ClassParams.convex(alpha, gamma), -s / q, s / 3)):
            rep = grid_optimize(FunctionalSpec(params, Which.D2))
            worst = max(worst, abs(rep.numeric_min - lower) / config.gate(lower),
                        abs(rep.numeric_max - upper) / config.gate(upper))
    elapsed = time.perf_counter() - start
    ok = worst <= 1 and elapsed <= 1800.0
    assert report(
        4, "15-point sweep, spirallike + convex", ok,
        f"worst residual={worst:.3g} gates, total={elapsed:.1f}s",
    )


def test_criterion_5_extremal_attainment():
    # Each endpoint's extremal attains it within half a gate on every class
    # of conftest.classes, these ten among them: test_verdict_gates'
    # test_worst_gap_is_at_most_half_the_gate.  Here, the ten name all nine.
    names = {desc.name for params in PARAM_GRID for desc, _, _ in endpoints(params)}
    assert report(5, "the ten classes name all nine extremals", len(names) == 9,
                  f"catalog size={len(names)}")


def light_weight(c: float, x: complex) -> float:
    """1 - w1 of solve_two_atom's closed form w1 = 1/2 + c cos(phi/2) / (2R), x = e^{i phi}.

    R = sqrt(4 - c^2 sin^2(phi/2)); written as (4 - c^2) / (2R (R + c cos(phi/2)))
    so that it keeps its digits as c nears 2.
    """
    cos_half = math.sqrt((1 + x.real) / 2)
    r = math.sqrt(4 - c * c * (1 - x.real) / 2)
    return (2 - c) * (2 + c) / (2 * r * (r + c * cos_half))


def test_criterion_6_two_atom_solver():
    # (c, x) at the (c*, x*) of both lattices, at spirallike (0.5, pi/4)
    # written out, at random c, at 2 - 1e-11 and the 300 floats below 2,
    # and at 2 - k 2**-51, where the light weight 1 - w1 is at least k 2**-53.
    cases = [two_atom_parameters(make(alpha, gamma))
             for (alpha, gamma), make in product(LATTICE, (ClassParams.spirallike,
                                                           ClassParams.convex))]
    a, g = 0.5, np.pi / 4
    t = np.sqrt(1 + 4 * (1 - a) * (2 - a) * np.cos(g) ** 2)
    cases.append((2 / np.sqrt(t + 1),
                  -(1 + 2 * (1 - a) * np.cos(g) ** 2 + 1j * (1 - a) * np.sin(2 * g)) / t))
    rng = np.random.default_rng(20260809)
    cases += [(rng.uniform(0.0, 1.95), np.exp(2j * np.pi * rng.random())) for _ in range(25)]
    cases.append((2.0 - 1e-11, np.exp(2j * np.pi * rng.random())))
    cases += [(c, x) for c in reversed(ulps_around(2.0, 300)[:300])
              for x in (np.exp(2j * np.pi * rng.random()), -1.0)]
    cases += [(2.0 - k * 2.0**-51, x) for k in range(1, 9)
              for x in (1.0, np.exp(2j * np.pi * rng.random()), np.exp(1e-3j * rng.random()))]
    worst = 0.0  # in gates of the moment; |m1|, |m2| <= 1
    degenerate = []  # the light weight of each, in spacings 2**-53 of the floats below 1
    for c, x in cases:
        try:
            rep = solve_two_atom(c, x)
        except DegenerateError:
            degenerate.append(light_weight(c, complex(x)) / 2.0**-53)
            continue
        w, e = np.asarray(rep.weights), np.asarray(rep.points)
        m1 = (w * e).sum()
        m2 = (w * e**2).sum()
        gap = max(abs(m1 - c / 2), abs(m2 - (c * c + (4 - c * c) * x) / 4))
        worst = max(worst, gap / config.gate(1.0))
    # The starlike pair, its atoms in argument order in [0, 2pi).
    pair = solve_two_atom(*two_atom_parameters(ClassParams.spirallike(0.0, 0.0)))
    atoms_ok = (
        pair.weights == (gated(0.5), gated(0.5))
        and pair.points == (gated(np.exp(1j * np.pi / 3)), gated(np.exp(-1j * np.pi / 3)))
    )
    # A DegenerateError only where w1 rounds to 1: its light weight is within
    # four spacings, the reach of w1's roundoff, of 0.
    ok = worst <= 1 and atoms_ok and all(light < 4 for light in degenerate)
    assert report(
        6, f"two-atom moments at {len(cases)} (c, x), starlike pair in argument order", ok,
        f"worst residual={worst:.3g} gates, {len(degenerate)} degenerate, "
        f"the largest light weight {max(degenerate, default=None)!r} spacings",
    )


def test_criterion_7_lz_oracle():
    rng = np.random.default_rng(1234)
    checked = 0
    worst = worst_x = 0.0
    while checked < 1000:
        rep = random_rep(2, int(rng.integers(0, 2**31)))
        rotated, c1 = normalize_rotation(rep)
        if 4.0 - c1 * c1 < 1e-3:
            continue  # nearly merged atoms: the x-inversion is ill-posed
        c = moments(rotated, 3)
        x = lz_invert_x(c1, c[1])
        # Two-atom data sits on |x| = 1, where the y term's coefficient
        # vanishes; inverting divides by 4 - c1^2 (the worst here is 0.3 gates).
        worst_x = max(worst_x, abs(abs(x) - 1.0) * (4.0 - c1 * c1) / config.gate(4.0))
        x /= abs(x)
        worst = max(
            worst,
            abs(lz_c2(c1, x) - c[1]),
            abs(lz_c3(c1, x, 0.0) - c[2]),
        )
        checked += 1
    ok = worst <= config.gate(2.0) and worst_x <= 1  # |c_k| <= 2; the worst here is 4.2e-15
    assert report(
        7, "moment-parametrization oracle and |x| = 1, 1000 two-atom samples", ok,
        f"worst residual={worst:.2e}, worst |x| defect={worst_x:.3g} gates",
    )


def test_criterion_8a_no_violations():
    reports = [
        sample_no_violation(ClassParams.spirallike(0.25, math.pi / 6), 500, seed=101),
        sample_no_violation(ClassParams.convex(0.25, -math.pi / 6), 500, seed=202),
        sample_no_violation(ClassParams.ozaki(0.6), 500, seed=303),
        sample_no_violation(ClassParams.spirallike(0.0, 0.0), 200, seed=42),
        sample_no_violation(ClassParams.ozaki(1.0), 200, seed=7),
    ]
    # passed holds every margin to -config.gate of its endpoint.
    ok = all(r.passed and r.n_failures == 0 and r.n_constructed == r.n_samples for r in reports)
    worst = min(
        min(r.d1_low.margin, r.d1_high.margin, r.d2_low.margin, r.d2_high.margin)
        for r in reports
    )
    assert report(
        8, "8a: 1900 random members of five classes stay in bounds", ok,
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
    for order in (6, 12, 24):
        for _ in range(25):
            f = random_series(rng, order, constant=1.0, scale=0.5)
            g = random_series(rng, order, constant=0.0, scale=0.5)
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            for got, want in ((log(f).exp().coeffs, f.coeffs), (log(g.exp()).coeffs, g.coeffs),
                              (np_product(cpow(f, a).coeffs, cpow(f, b).coeffs),
                               cpow(f, a + b).coeffs)):
                worst = max(worst, float(np.abs(np.subtract(got, want)).max()))
    # A library-only series path, not a command quantity: the round trips'
    # conditioning on the half-polydisk sets 1e-11 (see random_series).
    ok = worst <= 1e-11
    assert report(8, "8c: exp/log, log/exp and power-additivity round trips, orders 6-24", ok,
                  f"worst deviation={worst:.2e}")


def test_criterion_8d_membership():
    rng = np.random.default_rng(777)
    ok = True
    # constructed members, deep truncation so radius 0.9 sampling is reliable
    for params, count in (
        (ClassParams.spirallike(0.25, math.pi / 6), 100),
        (ClassParams.convex(0.25, -math.pi / 6), 100),
        (ClassParams.ozaki(0.8), 100),
        (ClassParams.spirallike(0.2, 0.4), 5),
        (ClassParams.convex(0.2, 0.4), 5),
    ):
        for _ in range(count):
            rep = random_rep(int(rng.integers(1, 6)), int(rng.integers(0, 2**31)))
            member = construct_member(params, to_series(rep, 128))
            ok = ok and membership_check(member, params).passed
    # The tilted examples z (1 - i z)^{i-1} and i (1 - z)^i - i, each with
    # a1 = 1, lie in their family at gamma = -pi/4 for this orientation
    # convention, but not at 0 nor at the opposite tilt; their reflections
    # conj(f(conj z)) realize the opposite tilt.
    n = 64
    spiral_example = TruncatedSeries([0, *cpow(polynomial(n - 1, 1, -1j), 1j - 1).coeffs])
    convex_example = TruncatedSeries(1j * np.r_[0, cpow(polynomial(n, 1, -1), 1j).coeffs[1:]])
    for f, ctor in ((spiral_example, ClassParams.spirallike), (convex_example, ClassParams.convex)):
        reflected = TruncatedSeries(np.conj(f.coeffs))
        ok = (ok and f.coeffs[1] == gated(1.0)
              and membership_check(f, ctor(0.0, -math.pi / 4)).passed
              and not membership_check(f, ctor(0.0, 0.0)).passed
              and not membership_check(f, ctor(0.0, math.pi / 4)).passed
              and membership_check(reflected, ctor(0.0, math.pi / 4)).passed)
    assert report(8, "8d: membership of 310 constructed members + tilted examples", ok)


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
        rep = case_boundary_check(params)
        ok = ok and rep.passed and rep.c_star == gated(c_star) and rep.argmin_c == gated(c_star)
    assert report(9, "case analysis: c* and the exact argmin at the closed form", ok)
