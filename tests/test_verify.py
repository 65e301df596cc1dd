"""Reduced functionals, exact optimizer, sampling, case-analysis checks."""

import cmath
import math
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from succoeff import (
    AtomicHerglotzRep,
    ClassParams,
    CoeffTriple,
    DomainError,
    FunctionalSpec,
    Which,
    bound_d1,
    bound_d2,
    case_boundary_check,
    construct_member,
    config,
    extremal_coeffs,
    extremal_measure,
    functional_value,
    grid_optimize,
    random_rep,
    sample_no_violation,
    SampleReport,
    solve_two_atom,
    to_series,
    two_atom_parameters,
)
from conftest import (CONVEX_SMALL_T, coeffs_from_c, endpoints, gated, lz_c2, sample_reference,
                      t_factor)
from succoeff.caratheodory import _draw_atoms, _seeded_stream
from succoeff.families import _atom_jet
from succoeff.verify import WorstMargin, _atom_count
from test_outputs import cli_rows

SPIRAL_00 = ClassParams.spirallike(0.0, 0.0)
CONVEX_00 = ClassParams.convex(0.0, 0.0)

SANE_PARAMS = [
    SPIRAL_00,
    ClassParams.spirallike(0.25, math.pi / 6),
    ClassParams.spirallike(0.5, -math.pi / 3),
    CONVEX_00,
    ClassParams.convex(0.25, math.pi / 6),
    ClassParams.ozaki(0.25),
    ClassParams.ozaki(0.75),
    ClassParams.ozaki(1.0),
]


class TestFunctionalValue:
    def test_starlike_upper_point(self):
        spec = FunctionalSpec(SPIRAL_00, Which.D2)
        assert functional_value(spec, 0.0, 1.0) == gated(1.0)

    def test_starlike_lower_point(self):
        spec = FunctionalSpec(SPIRAL_00, Which.D2)
        assert functional_value(spec, 1.0, -1.0) == gated(-1.0)

    def test_ozaki_lower_point(self):
        spec = FunctionalSpec(ClassParams.ozaki(1.0), Which.D2)
        assert functional_value(spec, 2.0, -1.0) == gated(-0.5)

    def test_d1_forms(self):
        assert functional_value(
            FunctionalSpec(ClassParams.spirallike(0.25, 0.5), Which.D1), 2.0, 0.0
        ) == gated(2 * 0.75 * math.cos(0.5) - 1)
        assert functional_value(
            FunctionalSpec(ClassParams.convex(0.25, 0.5), Which.D1), 2.0, 0.0
        ) == gated(0.75 * math.cos(0.5) - 1)
        assert functional_value(
            FunctionalSpec(ClassParams.ozaki(0.8), Which.D1), 1.0, 0.0
        ) == gated(-0.8)

    def test_domain_errors(self):
        spec = FunctionalSpec(SPIRAL_00, Which.D2)
        with pytest.raises(DomainError):
            functional_value(spec, 2.5, 0.0)
        with pytest.raises(DomainError):
            functional_value(spec, 1.0, 1.5)
        with pytest.raises(DomainError):
            functional_value(spec, 1.0, 1 + 5e-10)
        with pytest.raises(DomainError):
            functional_value(spec, 1.0, 1 + 1e-13)
        assert functional_value(spec, 1.0, math.nextafter(1.0, 2.0)) == pytest.approx(
            functional_value(spec, 1.0, 1.0), abs=1e-15)

    @pytest.mark.parametrize("which", list(Which))
    @pytest.mark.parametrize("c", [-1e-13, 2.0 + 1e-13])
    def test_c_gets_no_slack(self, which, c):
        # Just outside [0, 2] the reduction leaves the sharp interval: d1 at
        # c = -1e-12 fell below -1.  solve_two_atom holds c to [0, 2] alike.
        spec = FunctionalSpec(ClassParams.spirallike(0.25, 0.5), which)
        with pytest.raises(DomainError, match=r"c must lie in \[0, 2\]"):
            functional_value(spec, c, 0j)
        with pytest.raises(DomainError, match=r"c must lie in \[0, 2\]"):
            solve_two_atom(c, -1.0)

    def test_c_at_zero_and_two_evaluates(self):
        params = ClassParams.spirallike(0.25, 0.5)
        d1, d2 = bound_d1(params), bound_d2(params)
        assert functional_value(FunctionalSpec(params, Which.D1), 0.0, 0j) == d1.lower
        assert functional_value(FunctionalSpec(params, Which.D1), 2.0, 0j) == d1.upper
        assert functional_value(FunctionalSpec(params, Which.D2), 0.0, 1.0) == pytest.approx(
            d2.upper, abs=1e-15)
        assert d2.lower <= functional_value(FunctionalSpec(params, Which.D2), 2.0, 0j) <= d2.upper

    @pytest.mark.parametrize("params", SANE_PARAMS)
    def test_matches_coefficient_map(self, params, rng):
        # The reduction is exactly |a3|-|a2| (resp. |a2|-|a1|) of the member
        # generated by the rotation-normalized (c, x) pair.
        for _ in range(25):
            c = rng.uniform(0, 2)
            x = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.random())
            triple = coeffs_from_c(params, c, lz_c2(c, x))
            d2 = functional_value(FunctionalSpec(params, Which.D2), c, x)
            d1 = functional_value(FunctionalSpec(params, Which.D1), c, x)
            assert d2 == gated(triple.d2())
            assert d1 == gated(triple.d1())

    def test_conjugation_symmetry(self, rng):
        # theta -> -theta combined with gamma -> -gamma leaves the value.
        for _ in range(25):
            a = rng.uniform(0, 0.9)
            g = rng.uniform(0, 1.4)
            c = rng.uniform(0, 2)
            r = rng.uniform(0, 1)
            th = rng.uniform(0, 2 * np.pi)
            for fam in (ClassParams.spirallike, ClassParams.convex):
                plus = functional_value(
                    FunctionalSpec(fam(a, g), Which.D2), c, r * np.exp(1j * th)
                )
                minus = functional_value(
                    FunctionalSpec(fam(a, -g), Which.D2), c, r * np.exp(-1j * th)
                )
                assert plus == gated(minus)


def naive_scan(spec, n_c, n_r, n_theta):
    """Triple-loop scan of (c, r, theta), ties to the smallest point: a 3-D oracle."""
    best_min, best_max = math.inf, -math.inf
    arg_min = arg_max = None
    for c in np.linspace(0, 2, n_c):
        for r in np.linspace(0, 1, n_r):
            for th in np.linspace(0, 2 * np.pi, n_theta, endpoint=False):
                v = functional_value(spec, c, r * np.exp(1j * th))
                if v < best_min:
                    best_min, arg_min = v, (c, r, th)
                if v > best_max:
                    best_max, arg_max = v, (c, r, th)
    return best_min, arg_min, best_max, arg_max


ORACLE_PARAMS = SANE_PARAMS + [ClassParams.convex(0.9, 0.0), ClassParams.ozaki(0.5)]


class TestGridOptimize:
    @pytest.mark.parametrize("which", [Which.D1, Which.D2])
    @pytest.mark.parametrize("params", ORACLE_PARAMS)
    def test_exact_extremes_bound_naive_scan(self, params, which):
        # The argmin and argmax give the reported values back, and no point
        # of a 3-D scan lies outside [numeric_min, numeric_max].
        spec = FunctionalSpec(params, which)
        report = grid_optimize(spec)
        for (c, r, th), value in ((report.argmin, report.numeric_min),
                                  (report.argmax, report.numeric_max)):
            assert functional_value(spec, c, r * np.exp(1j * th)) == pytest.approx(value, abs=1e-15)
        scan_min, _, scan_max, _ = naive_scan(spec, 13, 7, 16)
        assert scan_min >= report.numeric_min - 1e-15
        assert scan_max <= report.numeric_max + 1e-15
        if params == SPIRAL_00 and which is Which.D2:
            assert report.argmax == (0.0, 1.0, 0.0)
            assert report.numeric_max == 1.0

    def test_d1_argopt_tiebreak(self):
        report = grid_optimize(FunctionalSpec(SPIRAL_00, Which.D1))
        assert report.argmin == (0.0, 0.0, 0.0)
        assert report.argmax == (2.0, 0.0, 0.0)
        assert report.numeric_min == gated(-1.0)
        assert report.numeric_max == gated(1.0)

    def test_d2_argmax_tiebreak_prefers_small_c(self):
        # At alpha = gamma = 0 the maximum value 1 is attained both along
        # c = 0, r = 1 (any theta) and at c = 2; the optimizer must settle
        # in the c = 0, r = 1 ring.
        report = grid_optimize(FunctionalSpec(SPIRAL_00, Which.D2))
        assert report.argmax[0] == 0.0
        assert report.argmax[1] == 1.0

    def test_exact_at_irrational_optimum(self):
        # theta* and c* are irrational here; the endpoints are still exact.
        spec = FunctionalSpec(ClassParams.spirallike(0.25, math.pi / 6), Which.D2)
        report = grid_optimize(spec)
        assert report.residual_min <= config.gate(report.analytic.lower)
        assert report.residual_max <= config.gate(report.analytic.upper)
        assert report.passed

    @pytest.mark.parametrize("params", SANE_PARAMS)
    def test_one_sided_safety(self, params):
        # The optimizer can never beat a sharp bound (in its regime of
        # validity) by more than roundoff slack.
        report = grid_optimize(FunctionalSpec(params, Which.D2))
        assert report.numeric_min >= report.analytic.lower - config.gate(report.analytic.lower)
        assert report.numeric_max <= report.analytic.upper + config.gate(report.analytic.upper)

    def test_report_passed_semantics(self):
        # Each endpoint passes within the gate of its own analytic value.
        for params in SANE_PARAMS:
            for which in Which:
                report = grid_optimize(FunctionalSpec(params, which))
                assert report.passed == (
                    report.residual_min <= config.gate(report.analytic.lower)
                    and report.residual_max <= config.gate(report.analytic.upper)
                )
                assert report.passed

    @pytest.mark.parametrize("params", SANE_PARAMS)
    def test_extremal_parametrization_agreement(self, params):
        # The reduced functional evaluated at the extremal (c*, x*) equals
        # the attainment of the reconstructed extremal series.
        c_star, x_star = two_atom_parameters(params)
        value = functional_value(FunctionalSpec(params, Which.D2), c_star, x_star)
        desc = bound_d2(params).lower_extremal
        assert extremal_coeffs(desc).d2() == gated(value)


# (params, n_atoms_max): several atoms, one atom (exact d1 ties), the most atoms.
SAMPLED_POINTS = [
    (CONVEX_00, 6), (ClassParams.spirallike(0.25, 0.5), 1), (ClassParams.ozaki(0.6), 64),
]


class TestSampling:
    def test_single_atom_attains_d1_upper(self):
        # Any one-atom measure is a rotation of the full-mass kernel, so
        # |a2|-|a1| sits exactly on the upper endpoint.
        params = ClassParams.spirallike(0.3, 0.5)
        report = sample_no_violation(params, n_samples=50, n_atoms_max=1, seed=3)
        assert report.passed
        assert abs(report.d1_high.margin) <= config.gate(0.0)

    def test_single_atom_exact_value(self):
        params = ClassParams.spirallike(0.3, 0.5)
        rep = random_rep(1, seed=11)
        triple = CoeffTriple(*construct_member(params, to_series(rep, 8)).coeffs[2:4])
        assert triple.d1() == pytest.approx(2 * 0.7 * math.cos(0.5) - 1, abs=1e-12)

    def test_worst_margin_witnesses_recorded(self):
        report = sample_no_violation(CONVEX_00, n_samples=50, seed=1)
        assert report.d2_low.sample_index >= 0
        assert report.d2_low.rep is not None

    @pytest.mark.parametrize("n_samples", [1, 600])
    @pytest.mark.parametrize("params, n_atoms_max", SAMPLED_POINTS)
    def test_matches_per_member_loop(self, params, n_atoms_max, n_samples):
        # The reference draws each member through _draw_atoms and validates
        # it as an AtomicHerglotzRep, so the sampler's inline draw is pinned
        # to a checked measure, member by member.  One atom gives exact ties
        # in the d1 upper margin, which go to the lowest index.
        got = sample_no_violation(params, n_samples, n_atoms_max, seed=9)
        assert got == sample_reference(params, n_samples, n_atoms_max, seed=9)

    @pytest.mark.parametrize("params", [
        ClassParams.spirallike(0.25, 0.5), ClassParams.convex(0.5, 1.4),
        ClassParams.ozaki(0.3), ClassParams.ozaki(0.75)])
    def test_every_verdict_fails_at_its_extremal(self, params, monkeypatch):
        # Random draws stay 7e-3 or more inside the upper d2 endpoint, so
        # both members of each run here are drawn as a side's catalog
        # measure: the atom count (0 or 0.5), then weights
        # r = (w - 0.05)/0.95, whose raw values already sum to 1, then
        # angles r = phase/2 pi.  Its margin sits on the endpoint, and an
        # endpoint 1e-12 inward fails.  The two members tie on every side,
        # and each tie goes to the lower index, 0.
        bounds = {Which.D1: bound_d1, Which.D2: bound_d2}
        sides = (("high", "upper", -1e-12), ("low", "lower", 1e-12)) * 2
        for (desc, which, endpoint), (side, end, inward) in zip(endpoints(params), sides):
            rep = extremal_measure(desc)
            draws = [0.5 * (len(rep.weights) - 1), *((w - 0.05) / 0.95 for w in rep.weights),
                     *(cmath.phase(eps) / (2 * math.pi) for eps in rep.points)] * 2
            monkeypatch.setattr("succoeff.verify._seeded_stream",
                                lambda seed: SimpleNamespace(random=iter(draws).__next__))
            report = sample_no_violation(params, 2, n_atoms_max=2)
            assert abs(getattr(report, f"{which.value}_{side}").margin) <= config.gate(endpoint)
            assert report.passed
            assert [report.d1_low.sample_index, report.d1_high.sample_index,
                    report.d2_low.sample_index, report.d2_high.sample_index] == [0, 0, 0, 0]
            shifted = bounds[which](params)._replace(**{end: endpoint + inward})
            with monkeypatch.context() as m:
                m.setattr(f"succoeff.verify.bound_{which.value}", lambda _: shifted)
                report = sample_no_violation(params, 2, n_atoms_max=2)
            assert report.n_violations == 2
            assert not report.passed

    def test_no_member_built_does_not_pass(self, monkeypatch, tmp_path):
        # An infinite exponent makes every g_1 non-finite: each member is a
        # construction failure, and a run that checked nothing fails.
        monkeypatch.setattr("succoeff.verify._exponent", lambda params: math.inf)
        report = sample_no_violation(ClassParams.convex(0.3, 0.2), n_samples=50)
        assert (report.n_constructed, report.n_failures, report.n_violations) == (0, 50, 0)
        for name in ("d1_low", "d1_high", "d2_low", "d2_high"):
            assert getattr(report, name) == WorstMargin(math.inf, -1, None)
        assert not report.passed
        # parse_rows reads json strictly: the infinite margins must be null, not Infinity.
        for fmt, cells in (("csv", ("0", "50", "false")), ("json", (0, 50, False))):
            code, (row,) = cli_rows(["sample", "--family", "convex", "--alpha", "0.3", "--gamma",
                                     "0.2", "--samples", "50"], tmp_path, fmt)
            assert (code, row["constructed"], row["failures"], row["passed"]) == (1, *cells)
        assert {v for k, v in row.items() if k.endswith("_margin")} == {None}

    @pytest.mark.parametrize("order", [4, 12, 1024])
    def test_verdicts_build_order_two_jets(self, order, monkeypatch, tmp_path):
        # Whatever --order says, sample builds no jet: it reads g_1 and g_2
        # inline.  Each of the four extremals of each extremal or verify row
        # set is one order-2 jet.  No command builds a longer jet.
        jets = []

        def jet_spy(weights, points, order, v):
            jets.append(order)
            return _atom_jet(weights, points, order, v)

        for module in ("families", "bounds"):
            monkeypatch.setattr(f"succoeff.{module}._atom_jet", jet_spy)
        assert cli_rows(["sample", "--samples", "600", "--order", str(order)], tmp_path)[0] == 0
        assert jets == []
        for command in ("extremal", "verify"):
            assert cli_rows([command, "--family", "convex", "--alpha", "0.5", "--gamma", "1.4"],
                            tmp_path)[0] == 0
        assert jets == [2] * 8

    def test_peak_memory_flat_in_n_samples(self):
        # Each member's lists are dropped as the loop moves on, so 4096
        # members must peak where 512 do; held, 4096 one-atom measures
        # would add about 1 MB, and even a None held per member shows.  The
        # untraced first run fills the free lists of small tuples, which
        # would otherwise grow the traced peak.
        sample_no_violation(CONVEX_00, 600, n_atoms_max=1, seed=1)

        def peak(n_samples):
            tracemalloc.start()
            try:
                sample_no_violation(CONVEX_00, n_samples, n_atoms_max=1, seed=4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4096) <= peak(512) + 16 * 1024

    @pytest.mark.parametrize("seed", range(50))
    def test_every_draw_is_a_valid_measure(self, seed):
        # sample validates only its witnesses, so the draw itself must give
        # measures that AtomicHerglotzRep accepts, at every atom count.
        for n_atoms in range(1, 65):
            AtomicHerglotzRep(*_draw_atoms(_seeded_stream(seed), n_atoms))

    def test_non_finite_draw_is_a_construction_failure(self, monkeypatch):
        # A NaN weight draw for the 300th member makes its a2 not finite:
        # one construction failure, and the run goes on.  One atom per
        # member takes three draws: its count, its weight and its angle.
        class BadWeight300:
            def __init__(self, seed):
                self.rng, self.n = random.Random(seed), 0

            def random(self):
                self.n += 1
                return math.nan if self.n == 3 * 299 + 2 else self.rng.random()

        monkeypatch.setattr("succoeff.verify._seeded_stream", BadWeight300)
        report = sample_no_violation(CONVEX_00, n_samples=600, n_atoms_max=1, seed=2)
        assert (report.n_constructed, report.n_failures, report.n_violations) == (599, 1, 0)
        assert report.passed

    @pytest.mark.parametrize("name, value", [
        ("n_samples", 2.5), ("n_samples", "10"), ("n_atoms_max", 2.0), ("seed", 1.0)])
    def test_counts_must_be_integers(self, name, value):
        # A float or a string count is a DomainError: it is neither echoed
        # into the report nor raised as a bare TypeError.
        kwargs = {"n_samples": 10, name: value}
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            sample_no_violation(SPIRAL_00, **kwargs)

    def test_counts_echoed_as_int(self):
        # numpy integers are taken through operator.index, not echoed as given.
        report = sample_no_violation(SPIRAL_00, np.int64(10), np.int64(2), seed=np.int64(3))
        assert [type(x) for x in report[1:4]] == [int] * 3
        assert report == sample_no_violation(SPIRAL_00, 10, 2, seed=3)

    def test_sample_count_validation(self):
        with pytest.raises(DomainError):
            sample_no_violation(SPIRAL_00, n_samples=0)
        with pytest.raises(DomainError):
            sample_no_violation(SPIRAL_00, n_samples=10, n_atoms_max=0)

    def test_takes_no_order(self):
        # The order changed no member, margin or count; only `sample
        # --order` checks and echoes one.
        with pytest.raises(TypeError, match="order"):
            sample_no_violation(SPIRAL_00, n_samples=10, order=12)
        assert "order" not in SampleReport._fields
        assert len(SampleReport._fields) == 11


class TestConvexSmallTRegime:
    """The convex regime T(alpha, gamma) < 5/4, where the paper's endpoint fails.

    There the outer minorant (T+1)c^2 - 4 - 6c has its vertex
    c0 = 3/(T+1) to the RIGHT of 2/sqrt(1+T), so the minimum over c is
    taken at c0 and lies below the paper's -(1-a)cos(g)/sqrt(1+T) by
    (pref) (2 sqrt(T+1) - 3)^2 / (T+1).  The package's closed form,
    extremal and case analysis follow the vertex branch.
    """

    PARAMS = ClassParams.convex(0.9, 0.0)  # T = 1.2 exactly

    def test_t_below_threshold(self):
        # test_verdict_gates holds every gap at these classes to half the gate.
        assert t_factor(0.9, 0.0) == pytest.approx(1.2, abs=1e-14)
        assert all(t_factor(p.alpha, p.gamma) < 1.25 for p in CONVEX_SMALL_T)

    def test_closed_form_is_vertex_minimum(self):
        t = 1.2
        pref = 0.1 / 12.0
        gap = pref * (2 * math.sqrt(t + 1) - 3) ** 2 / (t + 1)
        expected_min = -0.1 / math.sqrt(1 + t) - gap
        assert expected_min == pytest.approx(-0.1 * (4 * (t + 1) + 9) / (12 * (t + 1)), abs=1e-15)
        report = grid_optimize(FunctionalSpec(self.PARAMS, Which.D2))
        assert report.numeric_min == gated(expected_min)
        assert report.analytic.lower == pytest.approx(expected_min, abs=1e-15)
        assert report.residual_min <= 1e-15
        assert report.passed
        # the exact argmin and the analytic c* both sit at the vertex 3/(T+1)
        c_star, x_star = two_atom_parameters(self.PARAMS)
        assert c_star == pytest.approx(3 / 2.2, abs=1e-15)
        assert case_boundary_check(self.PARAMS).argmin_c == pytest.approx(3 / 2.2, abs=1e-15)
        desc = report.analytic.lower_extremal
        assert extremal_coeffs(desc).d2() == gated(expected_min)

    def test_branches_meet_at_five_quarters(self):
        # T = 5/4 exactly at cos^2 g = 9/64 / ((1-a)(2-a)); both branches give -(2/3)(1-a)cos g.
        alpha = 0.0
        gamma = math.acos(math.sqrt(9 / 128))
        assert t_factor(alpha, gamma) == pytest.approx(1.25, abs=1e-14)
        for g in (math.nextafter(gamma, 0.0), gamma, math.nextafter(gamma, 2.0)):
            lower = bound_d2(ClassParams.convex(alpha, g)).lower
            assert lower == gated(-2 / 3 * math.cos(gamma))


class TestStdlibStream:
    @pytest.mark.parametrize("n_max", [1, 2, 3, 6, 7, 64, 1000, 2**31 - 1, 2**53, 2**53 + 1])
    def test_atom_count_stays_in_range(self, n_max):
        # The largest double below 1 must not give n_max + 1 atoms.
        assert 1 <= _atom_count(1.0 - 2.0**-53, n_max) <= n_max
        assert _atom_count(0.0, n_max) == 1

    def test_atom_count_is_uniform_on_a_fine_grid(self):
        counts = [_atom_count(k / 600, 6) for k in range(600)]
        assert [counts.count(n) for n in range(1, 7)] == [100] * 6

    def test_random_rep_draws_only_random(self):
        # weights 0.05 + 0.95 r normalized, angles 2 pi r, from random() alone.
        stream = random.Random(123)
        draws = [stream.random() for _ in range(6)]
        rep = random_rep(3, seed=123)
        raw = [0.05 + 0.95 * r for r in draws[:3]]
        total = raw[0] + raw[1] + raw[2]
        assert rep.weights == tuple(v / total for v in raw)
        assert rep.points == tuple(cmath.rect(1.0, 2 * math.pi * r) for r in draws[3:])

    @pytest.mark.parametrize("n_atoms", [2.0, 0])
    def test_atom_count_rejected(self, n_atoms):
        # A float count is a DomainError, as in sample_no_violation.
        with pytest.raises(DomainError, match="n_atoms must be"):
            random_rep(n_atoms, seed=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError):
            random_rep(2, seed=-1)
        with pytest.raises(DomainError):
            sample_no_violation(SPIRAL_00, n_samples=5, seed=-3)
