"""Command-line front end.

Subcommands: ``bounds`` (closed-form intervals), ``verify`` (exact optimizer
vs analytic endpoints, extremal attainment, case analysis), ``sweep``
(verification over a parameter lattice), ``extremal`` (catalog coefficient
table) and ``sample`` (randomized no-violation check).

Output formats: an aligned text table (default), CSV, or JSON.  A command
builds each row in column order, so the row carries its header: CSV, JSON
and the table share the first row's keys.  Reals are printed with 17
significant digits and complex quantities as separate re/im columns, so
identical configurations produce byte-identical files.

Every option is declared once, in :func:`_build_parser`, and a subcommand
takes only the flags it reads; any other flag is a usage error.  A
``--config`` file names the long flags of any subcommand, and its values
pass the same conversions and checks.

Exit status: 0 on success, 1 when a verification fails, 2 on usage errors
(including an ``--out`` path that cannot be written).

A command imports only what it runs: ``verify``, ``sweep`` and ``sample``
import :mod:`succoeff.verify` when they start, and ``--format json``
imports :mod:`json` when it renders.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from . import config
from .bounds import Which, attainment, bound_d1, bound_d2, extremal_series, extremal_targets
from .errors import DomainError, SuccoeffError
from .families import ClassParams, Family, coeffs_from_series

if TYPE_CHECKING:
    from .verify import VerifyReport

__all__ = ["main"]

_PI_RE = re.compile(
    r"^(?P<sign>[+-]?)(?P<coef>\d+(?:\.\d*)?|\.\d+)?\s*\*?\s*pi\s*(?:/\s*(?P<den>\d+(?:\.\d*)?|\.\d+))?$",
    re.IGNORECASE,
)


def parse_angle(text: str) -> float:
    """Radians from a float literal or a fraction of pi such as '-pi/3'."""
    s = str(text).strip()
    try:
        return float(s)
    except ValueError:
        pass
    m = _PI_RE.match(s)
    if not m:
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}")
    value = float(m.group("coef") or 1.0) * math.pi
    if m.group("den"):
        den = float(m.group("den"))
        if den == 0.0:
            raise argparse.ArgumentTypeError(f"zero denominator in angle {text!r}")
        value /= den
    return -value if m.group("sign") == "-" else value


def parse_tol(text: str) -> float:
    """A finite, nonnegative endpoint tolerance."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tolerance {text!r}") from exc
    if not math.isfinite(value) or value < 0.0:
        raise argparse.ArgumentTypeError("tolerance must be finite and >= 0")
    return value


def int_range(low: int, high: Optional[int] = None):
    """An argparse type for integers in [low, high]; no upper limit when high is None."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad integer {text!r}") from exc
        if value < low or (high is not None and value > high):
            span = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"{value} is not {span}")
        return value
    return parse


def parse_range(text: str) -> tuple[float, float, int]:
    """START,STOP,COUNT lattice axis; START/STOP accept pi fractions."""
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("range must be START,STOP,COUNT")
    return parse_angle(parts[0]), parse_angle(parts[1]), int_range(1)(parts[2])


def _class_params(args: argparse.Namespace) -> ClassParams:
    """The class named by ``--family``, at the flags' parameter values."""
    family = Family(args.family)
    if family is Family.OZAKI_G:
        return ClassParams(family, lam=args.lam)
    return ClassParams(family, alpha=args.alpha, gamma=args.gamma)


# ---------------------------------------------------------------- rendering

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def render_csv(rows: Sequence[dict]) -> str:
    lines = [",".join(rows[0])]
    lines.extend(",".join(map(_fmt, row.values())) for row in rows)
    return "\n".join(lines) + "\n"


def render_json(rows: Sequence[dict]) -> str:
    import json

    def clean(v):
        # NaN marks a field missing after a per-row failure; JSON gets null.
        return None if isinstance(v, float) and math.isnan(v) else v

    payload = [{c: clean(v) for c, v in row.items()} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def render_table(rows: Sequence[dict]) -> str:
    columns = list(rows[0])
    cells = [list(map(_fmt, row.values())) for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells)) for i, c in enumerate(columns)]
    out = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for r in cells:
        out.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return "\n".join(out) + "\n"


_RENDERERS = {"csv": render_csv, "json": render_json, "table": render_table}

# What a command hands back for rendering: at least one row, each built in
# column order, and whether every check passed.
Outcome = tuple[list[dict], bool]


def _param_columns(params: ClassParams) -> dict:
    return {
        "family": params.family.value,
        "alpha": params.alpha,
        "gamma": params.gamma,
        "lambda": params.lam,
    }


# ----------------------------------------------------------------- commands

def cmd_bounds(args: argparse.Namespace) -> Outcome:
    params = _class_params(args)
    rows = []
    for which, interval in (("d1", bound_d1(params)), ("d2", bound_d2(params))):
        rows.append({
            **_param_columns(params),
            "which": which,
            "lower": interval.lower,
            "upper": interval.upper,
            "lower_extremal": interval.lower_extremal.name.value,
            "upper_extremal": interval.upper_extremal.name.value,
        })
    return rows, True


def _endpoint_cells(report: VerifyReport, names: Sequence[str]) -> dict:
    """Lower, upper, min, max and the two residuals of a report, under ``names``."""
    return dict(zip(names, (
        report.analytic.lower, report.analytic.upper,
        report.numeric_min, report.numeric_max,
        report.residual_min, report.residual_max,
    )))


_VERIFY_ENDPOINTS = [
    "analytic_lower", "analytic_upper", "numeric_min", "numeric_max",
    "residual_min", "residual_max",
]
_SWEEP_ENDPOINTS = {
    which: tuple(f"{which.value}_{name}" for name in
                 ("lower", "upper", "min", "max", "residual_min", "residual_max"))
    for which in Which
}


def _verify_row(args: argparse.Namespace, params: ClassParams, which: Which) -> dict:
    from .verify import FunctionalSpec, case_boundary_check, grid_optimize

    spec = FunctionalSpec(params, which)
    report = grid_optimize(spec, tol=args.tol)
    interval = report.analytic
    att_lo = attainment(interval.lower_extremal, which, args.order)
    att_hi = attainment(interval.upper_extremal, which, args.order)
    res_lo = abs(att_lo - interval.lower)
    res_hi = abs(att_hi - interval.upper)
    row = {
        **_param_columns(params),
        "which": which.value,
        **_endpoint_cells(report, _VERIFY_ENDPOINTS),
        "argmin_c": report.argmin[0],
        "argmin_r": report.argmin[1],
        "argmin_theta": report.argmin[2],
        "argmax_c": report.argmax[0],
        "argmax_r": report.argmax[1],
        "argmax_theta": report.argmax[2],
        "lower_attainment": att_lo,
        "upper_attainment": att_hi,
        "lower_attainment_residual": res_lo,
        "upper_attainment_residual": res_hi,
        "case_check": "",
        "passed": bool(report.passed
                       and res_lo <= config.ATTAINMENT_ATOL
                       and res_hi <= config.ATTAINMENT_ATOL),
    }
    if which is Which.D2:
        case = case_boundary_check(spec)
        row["case_check"] = "pass" if case.passed else "fail"
        row["passed"] = bool(row["passed"] and case.passed)
    return row


def cmd_verify(args: argparse.Namespace) -> Outcome:
    params = _class_params(args)
    rows = [_verify_row(args, params, Which.D1), _verify_row(args, params, Which.D2)]
    return rows, all(r["passed"] for r in rows)


def _lattice(args: argparse.Namespace) -> list[ClassParams]:
    def axis(rng, fallback):
        if rng is None:
            return [fallback]
        start, stop, count = rng
        if count == 1:
            return [start]
        # start + i*step with the last point exactly stop, as np.linspace.
        step = (stop - start) / (count - 1)
        return sorted([start + i * step for i in range(count - 1)] + [stop])

    family = Family(args.family)
    foreign = ("alphas", "gammas") if family is Family.OZAKI_G else ("lambdas",)
    for name in foreign:
        if getattr(args, name) is not None:
            raise DomainError(f"--{name} does not apply to the {family.value} family")
    if family is Family.OZAKI_G:
        return [ClassParams(family, lam=lam) for lam in axis(args.lambdas, args.lam)]
    return [ClassParams(family, alpha=alpha, gamma=gamma)
            for alpha in axis(args.alphas, args.alpha)
            for gamma in axis(args.gammas, args.gamma)]


def cmd_sweep(args: argparse.Namespace) -> Outcome:
    from .verify import FunctionalSpec, grid_optimize

    rows = []
    all_passed = True
    for params in _lattice(args):
        # A point that fails keeps NaN in the cells it did not reach.
        row = {**_param_columns(params),
               **dict.fromkeys(_SWEEP_ENDPOINTS[Which.D1] + _SWEEP_ENDPOINTS[Which.D2], math.nan),
               "error": "", "passed": False}
        try:
            ok = True
            for which in (Which.D1, Which.D2):
                rep = grid_optimize(FunctionalSpec(params, which), tol=args.tol)
                row.update(_endpoint_cells(rep, _SWEEP_ENDPOINTS[which]))
                ok = ok and rep.passed
            row["passed"] = bool(ok)
        except SuccoeffError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        all_passed = all_passed and row["passed"]
        rows.append(row)
    return rows, all_passed


def cmd_extremal(args: argparse.Namespace) -> Outcome:
    params = _class_params(args)
    rows = []
    all_passed = True
    for desc, which, target in extremal_targets(params):
        triple = coeffs_from_series(extremal_series(desc, args.order))
        a2, a3, d1, d2 = triple.a2, triple.a3, triple.d1(), triple.d2()
        value = d1 if which is Which.D1 else d2
        residual = abs(value - target)
        passed = residual <= config.ATTAINMENT_ATOL
        all_passed = all_passed and passed
        rows.append({
            **_param_columns(params),
            "extremal": desc.name.value,
            "which": which.value,
            "a2_re": a2.real, "a2_im": a2.imag,
            "a3_re": a3.real, "a3_im": a3.imag,
            "d1": d1, "d2": d2,
            "target": target,
            "residual": residual,
            "passed": passed,
        })
    return rows, all_passed


def cmd_sample(args: argparse.Namespace) -> Outcome:
    from .verify import sample_no_violation

    params = _class_params(args)
    report = sample_no_violation(
        params,
        n_samples=args.samples,
        n_atoms_max=args.atoms_max,
        seed=args.seed,
        order=args.order,
    )
    rows = [{
        **_param_columns(params),
        "n_samples": report.n_samples,
        "n_atoms_max": report.n_atoms_max,
        "seed": report.seed,
        "order": report.order,
        "constructed": report.n_constructed,
        "failures": report.n_failures,
        "violations": report.n_violations,
        "d1_low_margin": report.d1_low.margin,
        "d1_high_margin": report.d1_high.margin,
        "d2_low_margin": report.d2_low.margin,
        "d2_high_margin": report.d2_high.margin,
        "passed": report.passed,
    }]
    return rows, report.passed


# ------------------------------------------------------------------ parsing

def _build_parser() -> tuple[argparse.ArgumentParser, list[argparse.ArgumentParser]]:
    # One -h serves every child: add_help would build a help formatter per child.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("-h", "--help", action="help", help="show this help message and exit")
    shared.add_argument("--config", type=str, default=None,
                        help="flat KEY=VALUE file supplying defaults")
    shared.add_argument("--family", choices=[f.value for f in Family], default="spirallike")
    shared.add_argument("--alpha", type=float, default=0.0)
    shared.add_argument("--gamma", type=parse_angle, default=0.0,
                        help="radians; fractions of pi accepted, e.g. pi/4")
    shared.add_argument("--lambda", dest="lam", type=float, default=1.0)
    shared.add_argument("--out", type=str, default=None)
    shared.add_argument("--format", choices=sorted(_RENDERERS), default="table")
    # A flag that several subcommands read has a parent of its own.
    order = argparse.ArgumentParser(add_help=False)
    order.add_argument("--order", type=int_range(4, config.MAX_ORDER), default=config.DEFAULT_ORDER)
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=parse_tol, default=config.GRID_TOL)

    parser = argparse.ArgumentParser(
        prog="succoeff",
        description="Sharp successive-coefficient bounds: compute, attain, re-derive.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, *parents):
        child = sub.add_parser(name, parents=[shared, *parents], help=summary, add_help=False)
        child.set_defaults(run=run)
        return child

    command("bounds", cmd_bounds, "print the analytic intervals")
    command("verify", cmd_verify, "optimizer vs analytic endpoints", order, tol)
    sweep = command("sweep", cmd_sweep, "verify over a parameter lattice", tol)
    # Values starting with a minus need the = form: --gammas=-pi/6,pi/6,3
    for axis in ("--alphas", "--gammas", "--lambdas"):
        sweep.add_argument(axis, type=parse_range, default=None, metavar="START,STOP,COUNT")
    command("extremal", cmd_extremal, "extremal coefficient table", order)
    sample = command("sample", cmd_sample, "randomized no-violation check", order)
    sample.add_argument("--seed", type=int_range(0), default=0)
    sample.add_argument("--samples", type=int_range(1), default=500)
    sample.add_argument("--atoms-max", type=int_range(1, config.MAX_ATOMS), default=6)
    return parser, list(sub.choices.values())


def _load_config_file(path: str, children: Sequence[argparse.ArgumentParser]) -> dict:
    """Defaults from a KEY=VALUE file whose keys are the long flags.

    ``KEY`` names the flag ``--KEY`` (``_`` read as ``-``) of any subcommand;
    the value goes through that flag's own type and choices.
    """
    # argparse has no public way to list a parser's actions.  Flags that
    # take no value (--help) and --config itself are not keys.
    actions = {flag: action for child in children for action in child._actions
               for flag in action.option_strings
               if flag.startswith("--") and action.nargs != 0 and action.dest != "config"}
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected KEY=VALUE, got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip().lower()
        action = actions.get("--" + key.replace("_", "-"))
        if action is None:
            raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
        text = text.strip()
        try:
            value = text if action.type is None else action.type(text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise DomainError(f"{path}:{lineno}: {key}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            raise DomainError(f"{path}:{lineno}: {key}: invalid choice {text!r} "
                              f"(choose from {', '.join(map(str, action.choices))})")
        values[action.dest] = value
    return values


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, children = _build_parser()
    args = parser.parse_args(argv)
    # Config file supplies defaults only; explicit flags always win.
    if args.config is not None:
        try:
            defaults = _load_config_file(args.config, children)
        except (OSError, DomainError) as exc:
            print(f"succoeff: {exc}", file=sys.stderr)
            return 2
        # Subparsers hold their own defaults, so update every one of them.
        for child in children:
            child.set_defaults(**defaults)
        args = parser.parse_args(argv)
    try:
        rows, passed = args.run(args)
    except DomainError as exc:
        print(f"succoeff: usage error: {exc}", file=sys.stderr)
        return 2
    except SuccoeffError as exc:
        print(f"succoeff: {exc}", file=sys.stderr)
        return 1
    text = _RENDERERS[args.format](rows)
    if not args.out:
        sys.stdout.write(text)
    else:
        try:
            Path(args.out).write_text(text, encoding="utf-8", newline="\n")
        except OSError as exc:
            print(f"succoeff: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
