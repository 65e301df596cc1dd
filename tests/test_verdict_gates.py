"""The verdict gate against the gaps it forgives, and verdicts that no libm bit moves.

Every verdict compares two computations of one quantity and forgives
``config.gate(scale)``, ``GATE_ULPS`` of ``conftest.gap_units``, each
``eps * max(1, |scale|)``.  :func:`test_worst_gap_is_at_most_half_the_gate`
measures each gap in those units over ``conftest.classes``: seeded classes
of every family, the edges of their parameter boxes, the two branch points,
the Ozaki classes just below ``lam = 1/2`` whose ``c*`` lies within about
1e-12 of 2, and named classes, among them convex ones with ``T < 5/4``.  It
requires the worst to be at most half the gate, so every verdict there
passes.  The same gate bounds the measures and disk points a command
builds, and :func:`test_built_measures_use_at_most_half_their_gates` holds
their defects to half of it too.  A gap of exactly the gate still passes:
:func:`test_a_gap_of_exactly_the_gate_passes` plants one at each comparison.

The digests of :mod:`test_outputs` depend on the libm: a ``cos`` one ulp
off moves printed digits.  :func:`test_no_verdict_depends_on_libm` checks
that no exit code and no ``passed`` cell does, with each of ``math.cos``,
``math.sin``, ``cmath.rect`` and ``cmath.exp`` moved one ulp either way.
Its unpatched side is the rows of the one pass of
:mod:`test_command_map`, in fresh interpreters, which keep each line's
``passed`` cells.  The patched side runs each line in json through
``test_outputs._row_or_error``, so through ``test_outputs.run_cli``, the one
in-process runner.  A line that raises is compared by what it raised, and
the digest test names it.
"""

import ast
import cmath
import math
import random

import pytest

import succoeff.verify as verify_module
from succoeff import (AtomicHerglotzRep, ClassParams, DegenerateError, FunctionalSpec, Which,
                      bound_d1, bound_d2, case_boundary_check, config, grid_optimize,
                      sample_no_violation, solve_two_atom, two_atom_parameters)
from conftest import classes, convex_branch_gamma, gap_units, parsed_tests, t_factor
from succoeff.caratheodory import _draw_atoms, _seeded_stream
from succoeff.cli import _attained
from test_command_map import every_command_run
from test_outputs import COMMANDS, _row_or_error

# The worst gap allowed, in conftest.gap_units: half the gate.
MAX_GAP_UNITS = 8


def _gaps(params: ClassParams) -> dict[str, float]:
    """The worst gap of each exact verdict at ``params``, in units."""
    gaps = {"optimizer": 0.0, "attainment": 0.0}
    for which in (Which.D1, Which.D2):
        report = grid_optimize(FunctionalSpec(params, which))
        gaps["optimizer"] = max(gaps["optimizer"],
                                gap_units(report.residual_min, report.analytic.lower),
                                gap_units(report.residual_max, report.analytic.upper))
        for att in _attained(report.analytic, which):
            gaps["attainment"] = max(gaps["attainment"], gap_units(att.residual, att.target))
    case = case_boundary_check(params)
    gaps["case check"] = gap_units(abs(case.argmin_c - case.c_star), case.c_star)
    return gaps


def test_every_approx_states_its_bound():
    # pytest.approx alone forgives rel=1e-6, about 3e8 gates: each call in
    # the tests names its bound, as gated does with abs=.
    bare = []
    for path, tree in parsed_tests().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "approx"
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "pytest"
                    and not {"abs", "rel"} & {kw.arg for kw in node.keywords}):
                bare.append(f"{path.name}:{node.lineno}")
    assert bare == []


def test_convex_branch_gamma_is_at_t_five_quarters():
    for alpha in (0.0, 0.3, 0.6):
        assert t_factor(alpha, convex_branch_gamma(alpha)) == pytest.approx(1.25, abs=1e-15)


def test_gate_is_twice_the_worst_gap_allowed():
    assert config.GATE_ULPS == 2 * MAX_GAP_UNITS


def test_worst_gap_is_at_most_half_the_gate():
    worst = {}
    for params in classes(2000):
        for name, gap in _gaps(params).items():
            if gap > worst.get(name, (-1.0,))[0]:
                worst[name] = (gap, params)
    assert set(worst) == {"optimizer", "attainment", "case check"}
    assert all(gap <= MAX_GAP_UNITS for gap, _ in worst.values()), worst


def test_worst_sampled_margin_is_at_most_half_the_gate():
    # A margin below 0 is the only gap sample forgives; each run's four
    # worst margins are measured against the endpoints they gate.
    rng = random.Random(20261019)
    gaps = []
    for i in range(90):
        params = (ClassParams.spirallike(rng.random(), (rng.random() - 0.5) * math.pi),
                  ClassParams.convex(rng.random(), (rng.random() - 0.5) * math.pi),
                  ClassParams.ozaki(1.0 - rng.random()))[i % 3]
        report = sample_no_violation(params, 500, n_atoms_max=1 + i % 6, seed=i)
        assert report.passed
        d1, d2 = bound_d1(params), bound_d2(params)
        gaps += [(gap_units(-side.margin, scale), params)
                 for side, scale in ((report.d1_low, d1.lower), (report.d1_high, d1.upper),
                                     (report.d2_low, d2.lower), (report.d2_high, d2.upper))]
    worst = max(gaps, key=lambda gap: gap[0])
    assert worst[0] <= MAX_GAP_UNITS, worst


def test_built_measures_use_at_most_half_their_gates():
    # A measure passes AtomicHerglotzRep when each |eps| is within
    # gate(1.0) of 1 and its weight sum within len(w) gates; a disk point
    # passes when |x| is within gate(1.0) of 1.  Every measure and point a
    # command builds must keep half of that: the two-atom extremals'
    # (c*, x*) and solved measures, whose sum gets only one gate, the
    # witnesses of sample at 1, 6 and 64 atoms, and 64-atom draws.
    assert config.MAX_ATOMS * config.gate(1.0) < 1e-12  # the slack all these had before
    gaps = []

    def measure_gaps(rep, sum_gate_units, source):
        gaps.append((gap_units(abs(math.fsum(rep.weights) - 1.0), 1.0) / sum_gate_units,
                     "weight sum", source))
        gaps.extend((gap_units(abs(abs(e) - 1.0), 1.0), "|eps|", source) for e in rep.points)

    for params in classes(2000):
        c, x = two_atom_parameters(params)
        gaps.append((gap_units(abs(abs(x) - 1.0), 1.0), "|x*|", params))
        try:
            measure_gaps(solve_two_atom(c, x), 1, params)
        except DegenerateError:  # c* = 2: the point mass at 1
            pass
    for i, params in enumerate(classes(2000)[::20]):
        for n_atoms_max in (1, 6, 64):
            report = sample_no_violation(params, 100, n_atoms_max=n_atoms_max, seed=i)
            for side in (report.d1_low, report.d1_high, report.d2_low, report.d2_high):
                measure_gaps(side.rep, len(side.rep.weights), (params, n_atoms_max, i))
    rng = _seeded_stream(20261019)
    for i in range(2000):
        measure_gaps(AtomicHerglotzRep(*_draw_atoms(rng, config.MAX_ATOMS)), config.MAX_ATOMS, i)
    worst = max(gaps, key=lambda gap: gap[0])
    assert worst[0] <= MAX_GAP_UNITS, worst


# ------------------------------------------------------------- gate edges

# The starlike class: its d1 endpoints are -1 and 1 and its c* is 1.  An
# endpoint planted GATE from a value in [-1, 1] is exact, and so is the gap.
STARLIKE = ClassParams.spirallike(0.0, 0.0)
GATE = config.gate(1.0)  # the gate of every scale in [-1, 1]


def _plant(monkeypatch, bound, **ends):
    """``bound``, as verify reads it, gives its interval with ``ends`` in place."""
    exact = getattr(verify_module, bound)
    monkeypatch.setattr(verify_module, bound, lambda params: exact(params)._replace(**ends))


def _attainment(monkeypatch):
    interval = bound_d1(STARLIKE)
    value = next(_attained(interval, Which.D1)).value
    upper = next(_attained(interval._replace(upper=value - GATE), Which.D1))
    return [(upper.residual, upper.target)], upper.passed


def _optimizer(monkeypatch):
    spec = FunctionalSpec(STARLIKE, Which.D1)
    exact = grid_optimize(spec)
    _plant(monkeypatch, "bound_d1", lower=exact.numeric_min + GATE, upper=exact.numeric_max - GATE)
    report = grid_optimize(spec)
    return [(report.residual_min, report.analytic.lower),
            (report.residual_max, report.analytic.upper)], report.passed


def _sample(monkeypatch):
    # Of two members, against endpoints at 0, each lower side's worst margin
    # is the least value, and each upper side's is minus the greatest.
    sides = {"d1_low": 1.0, "d1_high": -1.0, "d2_low": 1.0, "d2_high": -1.0}
    with monkeypatch.context() as zeroed:
        for bound in ("bound_d1", "bound_d2"):
            _plant(zeroed, bound, lower=0.0, upper=0.0)
        zero = sample_no_violation(STARLIKE, 2)
    # Each least or greatest value lies GATE beyond its planted endpoint.
    planted = {side: sign * (getattr(zero, side).margin + GATE) for side, sign in sides.items()}
    for k in (1, 2):
        _plant(monkeypatch, f"bound_d{k}", lower=planted[f"d{k}_low"], upper=planted[f"d{k}_high"])
    report = sample_no_violation(STARLIKE, 2)
    return [(-getattr(report, side).margin, planted[side]) for side in sides], report.passed


def _case_check(monkeypatch):
    c_star, x_star = two_atom_parameters(STARLIKE)
    monkeypatch.setattr(verify_module, "two_atom_parameters", lambda params: (c_star - GATE, x_star))
    report = case_boundary_check(STARLIKE)
    return [(abs(report.argmin_c - report.c_star), report.c_star)], report.passed


@pytest.mark.parametrize("plant", [_attainment, _optimizer, _sample, _case_check],
                         ids=["attainment", "optimizer", "sample", "case check"])
def test_a_gap_of_exactly_the_gate_passes(monkeypatch, plant):
    # Each verdict forgives a gap up to and including the gate.
    gaps, passed = plant(monkeypatch)
    assert [gap for gap, _ in gaps] == [config.gate(scale) for _, scale in gaps]
    assert passed


# ------------------------------------------------------------------- libm

def _shifted(fn, direction: float):
    """``fn`` with its result moved one ulp toward ``direction``, both parts of a complex one."""
    def moved(*args):
        value = fn(*args)
        if isinstance(value, complex):
            return complex(math.nextafter(value.real, direction),
                           math.nextafter(value.imag, direction))
        return math.nextafter(value, direction)
    return moved


def _verdicts(rows) -> dict:
    """command line -> (exit code, its json rows' passed cells), or the repr of what it raised."""
    return {command: repr(row) if isinstance(row, BaseException) else (row[0], row[-1])
            for command, row in rows.items()}


@pytest.mark.parametrize("direction", [math.inf, -math.inf], ids=["up", "down"])
@pytest.mark.parametrize("module, name", [(math, "cos"), (math, "sin"), (cmath, "rect"),
                                          (cmath, "exp")],
                         ids=["cos", "sin", "rect", "cexp"])
def test_no_verdict_depends_on_libm(monkeypatch, tmp_path, module, name, direction):
    unpatched = every_command_run().rows  # computed before the patch, once per session
    monkeypatch.setattr(module, name, _shifted(getattr(module, name), direction))
    patched = {command: _row_or_error(command, tmp_path, ("json",)) for command in COMMANDS}
    assert _verdicts(patched) == _verdicts(unpatched)
    # The shift reaches the printed digits of some row, so the check is not
    # vacuous.  A json-only row holds its json digest second, a full row third.
    assert any(patched[command][1] != unpatched[command][2] for command in COMMANDS
               if not isinstance(patched[command], BaseException))
