"""The verdict gate against the gaps it forgives, and verdicts that no libm bit moves.

Every verdict compares two computations of one quantity and forgives
``config.gate(scale)``, ``GATE_ULPS`` units of ``eps * max(1, |scale|)``
with ``eps = 2**-52``.  :func:`test_worst_gap_is_at_most_half_the_gate`
measures each gap in those units over seeded classes of every family, the
edges of their parameter boxes, the two branch points and the Ozaki
classes just below ``lam = 1/2`` whose ``c*`` lies within about 1e-12 of 2,
and requires the worst to be at most half the gate.  The same gate bounds
the measures and disk points a command builds, and
:func:`test_built_measures_use_at_most_half_their_gates` holds their
defects to half of it too.

The digests of :mod:`test_outputs` depend on the libm: a ``cos`` one ulp
off moves printed digits.  :func:`test_no_verdict_depends_on_libm` checks
that no exit code and no ``passed`` cell does, with each of ``math.cos``,
``math.sin``, ``cmath.rect`` and ``cmath.exp`` moved one ulp either way.
Its unpatched side is the rows of the traced pass of
:mod:`test_command_map`, which keep each line's ``passed`` cells.  The
patched side runs each line in json through ``test_outputs._row_or_error``,
so through ``test_outputs.run_cli``, the one in-process runner.  A line that
raises is compared by what it raised, and the digest test names it.
"""

import cmath
import math
import random

import pytest

from succoeff import (AtomicHerglotzRep, ClassParams, DegenerateError, FunctionalSpec, Which,
                      bound_d1, bound_d2, case_boundary_check, config, grid_optimize,
                      sample_no_violation, solve_two_atom, two_atom_parameters)
from succoeff.caratheodory import _draw_atoms, _seeded_stream
from succoeff.cli import _attained
from test_command_map import every_command_traced
from test_outputs import COMMANDS, _row_or_error

# The worst gap allowed, in units of eps * max(1, |scale|): half the gate.
MAX_GAP_UNITS = 8


def _units(gap: float, scale: float) -> float:
    return gap / (2.0**-52 * max(1.0, abs(scale)))


def _ulps_around(x: float, n: int) -> list[float]:
    """x and the n floats on either side of it."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return [*reversed(below[1:]), *above]


def _convex_branch_gamma(alpha: float) -> float:
    """The gamma where T = sqrt(1 + 4(1-a)(2-a)cos^2 g) is 5/4, the convex branch point."""
    return math.acos(math.sqrt(9.0 / (64.0 * (1.0 - alpha) * (2.0 - alpha))))


def _classes(per_family: int, seed: int) -> list[ClassParams]:
    rng = random.Random(seed)
    half_pi = math.nextafter(math.pi / 2, 0.0)
    classes = []
    for _ in range(per_family):
        # gamma = (r - 1/2) pi lies in (-pi/2, pi/2), and 1 - r in (0, 1].
        classes.append(ClassParams.spirallike(rng.random(), (rng.random() - 0.5) * math.pi))
        classes.append(ClassParams.convex(rng.random(), (rng.random() - 0.5) * math.pi))
        classes.append(ClassParams.ozaki(1.0 - rng.random()))
    # The edges of each box.
    alphas = [0.0, 1e-12, 0.5, 1.0 - 1e-12, math.nextafter(1.0, 0.0)]
    gammas = [0.0, 1e-12, math.pi / 4, 1.5, math.nextafter(half_pi, 0.0), half_pi]
    classes += [ClassParams(family, alpha, sign * gamma) for family in ("spirallike", "convex")
                for alpha in alphas for gamma in gammas for sign in (1.0, -1.0)]
    classes += [ClassParams.ozaki(lam) for lam in
                (5e-324, 1e-12, 0.25, 0.75, math.nextafter(1.0, 0.0), 1.0)]
    # lam down to 1/2 - 7.5e-13, where c* is within about 1e-12 of 2 and still two atoms.
    classes += [ClassParams.ozaki(0.5 - k * 1.25e-13) for k in range(1, 7)]
    classes += [ClassParams.ozaki(0.4999999999999)]
    # 40 ulps of gamma either side of T = 5/4, and 20 ulps of lam either side of 1/2.
    classes += [ClassParams.convex(alpha, gamma) for alpha in (0.0, 0.3, 0.6)
                for gamma in _ulps_around(_convex_branch_gamma(alpha), 40)]
    classes += [ClassParams.ozaki(lam) for lam in _ulps_around(0.5, 20)]
    return classes


def _gaps(params: ClassParams) -> dict[str, float]:
    """The worst gap of each exact verdict at ``params``, in units."""
    gaps = {"optimizer": 0.0, "attainment": 0.0}
    for which in (Which.D1, Which.D2):
        report = grid_optimize(FunctionalSpec(params, which))
        gaps["optimizer"] = max(gaps["optimizer"],
                                _units(report.residual_min, report.analytic.lower),
                                _units(report.residual_max, report.analytic.upper))
        for att in _attained(report.analytic, which):
            gaps["attainment"] = max(gaps["attainment"], _units(att.residual, att.target))
    case = case_boundary_check(params)
    gaps["case check"] = _units(abs(case.argmin_c - case.c_star), case.c_star)
    return gaps


def test_convex_branch_gamma_is_at_t_five_quarters():
    for alpha in (0.0, 0.3, 0.6):
        cosg = math.cos(_convex_branch_gamma(alpha))
        t = math.sqrt(1.0 + 4.0 * (1.0 - alpha) * (2.0 - alpha) * cosg**2)
        assert t == pytest.approx(1.25, abs=1e-15)


def test_gate_is_twice_the_worst_gap_allowed():
    assert config.GATE_ULPS == 2 * MAX_GAP_UNITS


def test_worst_gap_is_at_most_half_the_gate():
    worst = {}
    for params in _classes(per_family=2000, seed=20261019):
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
        gaps += [(_units(-side.margin, scale), params)
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
    classes = _classes(per_family=2000, seed=20261019)
    gaps = []

    def measure_gaps(rep, sum_gate_units, source):
        gaps.append((_units(abs(math.fsum(rep.weights) - 1.0), 1.0) / sum_gate_units,
                     "weight sum", source))
        gaps.extend((_units(abs(abs(e) - 1.0), 1.0), "|eps|", source) for e in rep.points)

    for params in classes:
        c, x = two_atom_parameters(params)
        gaps.append((_units(abs(abs(x) - 1.0), 1.0), "|x*|", params))
        try:
            measure_gaps(solve_two_atom(c, x), 1, params)
        except DegenerateError:  # c* = 2: the point mass at 1
            pass
    for i, params in enumerate(classes[::20]):
        for n_atoms_max in (1, 6, 64):
            report = sample_no_violation(params, 100, n_atoms_max=n_atoms_max, seed=i)
            for side in (report.d1_low, report.d1_high, report.d2_low, report.d2_high):
                measure_gaps(side.rep, len(side.rep.weights), (params, n_atoms_max, i))
    rng = _seeded_stream(20261019)
    for i in range(2000):
        measure_gaps(AtomicHerglotzRep(*_draw_atoms(rng, config.MAX_ATOMS)), config.MAX_ATOMS, i)
    worst = max(gaps, key=lambda gap: gap[0])
    assert worst[0] <= MAX_GAP_UNITS, worst


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
    unpatched = every_command_traced().rows  # computed before the patch, once per session
    monkeypatch.setattr(module, name, _shifted(getattr(module, name), direction))
    patched = {command: _row_or_error(command, tmp_path, ("json",)) for command in COMMANDS}
    assert _verdicts(patched) == _verdicts(unpatched)
    # The shift reaches the printed digits of some row, so the check is not
    # vacuous.  A json-only row holds its json digest second, a full row third.
    assert any(patched[command][1] != unpatched[command][2] for command in COMMANDS
               if not isinstance(patched[command], BaseException))
