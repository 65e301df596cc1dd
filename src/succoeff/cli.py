"""Command-line front end.

Subcommands: ``bounds`` (closed-form intervals), ``verify`` (exact optimizer
vs analytic endpoints, extremal attainment, case analysis), ``sweep``
(verification over a parameter lattice), ``extremal`` (catalog coefficient
table) and ``sample`` (randomized no-violation check).

``sweep`` checks each lattice point through ``verify``'s two rows: a
point's ``passed`` includes extremal attainment and the case check, and a
point whose check raises stops the command as it stops ``verify``, with
nothing written.  So its ``error`` column is always empty; it is kept so
the columns stay those of earlier releases.

Output formats: an aligned text table (default), CSV, or JSON.  A command
builds each row in column order, so the row carries its header: CSV, JSON
and the table share the first row's keys.  CSV and the table print reals
with ``%.17g``, JSON with Python's shortest round-trip ``repr``, so each
gives back the same finite float; JSON writes a non-finite one as ``null``.
Complex values are re/im columns; identical configurations give identical bytes.

Every option is declared once, in :func:`_build_parser`, and a subcommand
takes only the flags it reads; any other flag is a usage error.  A
``--config`` file names the long flags of any subcommand; its values pass
the same conversions and checks, and each subcommand reads only its own.

Exit status: 0 on success, 1 when a row's ``passed`` cell is false or a
verification raises, 2 on usage errors (including an ``--out`` path that
cannot be written).

A command imports only what it runs: ``LOADS`` in ``tests/test_command_map.py``
states the modules each subcommand loads.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import product

from . import config
from .bounds import BoundInterval, Which, bound_d1, bound_d2, extremal_coeffs
from .errors import DomainError, SuccoeffError
from .families import ClassParams, Family

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


def int_range(low: int, high: int | None = None):
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


# (dest, flag, whether Ozaki's) of the point flags; sweep's axis of each is
# dest + "s".  An absent flag takes ClassParams' default, or lam = 1.
_POINT_FLAGS = (("alpha", "--alpha", False), ("gamma", "--gamma", False),
                ("lam", "--lambda", True))


def _classes(args: argparse.Namespace) -> list[ClassParams]:
    """The classes named by ``--family`` at the point flags, over sweep's axes.

    A point flag or an axis of another family, given or read from
    ``--config``, is a usage error rather than ignored, as are a point flag
    that its own axis spans and a lattice of over ``config.MAX_LATTICE``
    points; no axis is built before those checks.  Only ``sweep`` takes
    axes, so any other command gets one class.
    """
    family = Family(args.family)
    is_ozaki = family is Family.OZAKI_G
    point = {"lam": 1.0} if is_ozaki else {}
    for dest, flag, ozaki in _POINT_FLAGS:
        if getattr(args, dest) is not None:
            if ozaki != is_ozaki:
                raise DomainError(f"{flag} does not apply to the {family.value} family")
            point[dest] = getattr(args, dest)
    params = ClassParams(family, **point)
    ranges = {}
    for dest, flag, ozaki in _POINT_FLAGS:
        rng = getattr(args, dest + "s", None)
        if rng is None:
            continue
        if ozaki != is_ozaki:
            raise DomainError(f"{flag}s does not apply to the {family.value} family")
        if getattr(args, dest) is not None:
            raise DomainError(f"{flag} does not apply when {flag}s spans it")
        ranges[dest] = rng
    size = math.prod(count for _, _, count in ranges.values())
    if size > config.MAX_LATTICE:
        raise DomainError(f"the lattice has {size} points, more than {config.MAX_LATTICE}")
    axes = {}
    for dest, (start, stop, count) in ranges.items():
        axes[dest] = [start]
        if count > 1:  # as np.linspace, from the smaller end: either order gives the same points
            lo, hi = sorted((start, stop))
            step = (hi - lo) / (count - 1)
            axes[dest] = [lo + i * step for i in range(count - 1)] + [hi]
    return [params._replace(**dict(zip(axes, values))) for values in product(*axes.values())]


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

    # Strict JSON: a non-finite real (a margin of a run that checked nothing) is null.
    rows = [{k: None if isinstance(v, float) and not math.isfinite(v) else v
             for k, v in row.items()} for row in rows]
    return json.dumps(rows, indent=2, allow_nan=False) + "\n"


def render_table(rows: Sequence[dict]) -> str:
    columns = list(rows[0])
    cells = [list(map(_fmt, row.values())) for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells)) for i, c in enumerate(columns)]
    out = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for r in cells:
        out.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return "\n".join(out) + "\n"


_RENDERERS = {"csv": render_csv, "json": render_json, "table": render_table}


def _param_columns(params: ClassParams) -> dict:
    return {
        "family": params.family.value,
        "alpha": params.alpha,
        "gamma": params.gamma,
        "lambda": params.lam,
    }


# ----------------------------------------------------------------- commands
# A command returns at least one row, each built in column order.

def cmd_bounds(args: argparse.Namespace) -> list[dict]:
    [params] = _classes(args)
    return [{
        **_param_columns(params),
        "which": which,
        "lower": interval.lower,
        "upper": interval.upper,
        "lower_extremal": interval.lower_extremal.name.value,
        "upper_extremal": interval.upper_extremal.name.value,
    } for which, interval in (("d1", bound_d1(params)), ("d2", bound_d2(params)))]


_Attained = namedtuple("_Attained", "desc target triple value residual passed")


def _attained(interval: BoundInterval, which: Which) -> Iterator[_Attained]:
    """The upper and then the lower extremal of ``interval``, each read once."""
    for desc, target in ((interval.upper_extremal, interval.upper),
                         (interval.lower_extremal, interval.lower)):
        triple = extremal_coeffs(desc)
        value = triple.d1() if which is Which.D1 else triple.d2()
        residual = abs(value - target)
        yield _Attained(desc, target, triple, value, residual, residual <= config.gate(target))


def _verify_row(params: ClassParams, which: Which) -> dict:
    from .verify import FunctionalSpec, case_boundary_check, grid_optimize

    report = grid_optimize(FunctionalSpec(params, which))
    interval = report.analytic
    upper, lower = _attained(interval, which)
    row = {
        **_param_columns(params),
        "which": which.value,
        "analytic_lower": interval.lower,
        "analytic_upper": interval.upper,
        "numeric_min": report.numeric_min,
        "numeric_max": report.numeric_max,
        "residual_min": report.residual_min,
        "residual_max": report.residual_max,
        "argmin_c": report.argmin[0],
        "argmin_r": report.argmin[1],
        "argmin_theta": report.argmin[2],
        "argmax_c": report.argmax[0],
        "argmax_r": report.argmax[1],
        "argmax_theta": report.argmax[2],
        "lower_attainment": lower.value,
        "upper_attainment": upper.value,
        "lower_attainment_residual": lower.residual,
        "upper_attainment_residual": upper.residual,
        "case_check": "",
        "passed": bool(report.passed and lower.passed and upper.passed),
    }
    if which is Which.D2:
        case = case_boundary_check(params)
        row["case_check"] = "pass" if case.passed else "fail"
        row["passed"] = bool(row["passed"] and case.passed)
    return row


def cmd_verify(args: argparse.Namespace) -> list[dict]:
    [params] = _classes(args)
    return [_verify_row(params, Which.D1), _verify_row(params, Which.D2)]


# sweep's cells of each functional: name suffix -> verify's column.
_SWEEP_CELLS = {
    "lower": "analytic_lower", "upper": "analytic_upper",
    "min": "numeric_min", "max": "numeric_max",
    "residual_min": "residual_min", "residual_max": "residual_max",
}


def cmd_sweep(args: argparse.Namespace) -> list[dict]:
    rows = []
    for params in _classes(args):
        checks = [_verify_row(params, Which.D1), _verify_row(params, Which.D2)]
        rows.append({
            **_param_columns(params),
            **{f"{check['which']}_{name}": check[column]
               for check in checks for name, column in _SWEEP_CELLS.items()},
            # Always empty: an error stops the command (see the module docstring).
            "error": "",
            "passed": all(check["passed"] for check in checks),
        })
    return rows


def cmd_extremal(args: argparse.Namespace) -> list[dict]:
    [params] = _classes(args)
    return [{
        **_param_columns(params),
        "extremal": att.desc.name.value,
        "which": which.value,
        "a2_re": att.triple.a2.real, "a2_im": att.triple.a2.imag,
        "a3_re": att.triple.a3.real, "a3_im": att.triple.a3.imag,
        "d1": att.triple.d1(), "d2": att.triple.d2(),
        "target": att.target,
        "residual": att.residual,
        "passed": att.passed,
    } for which, interval in ((Which.D1, bound_d1(params)), (Which.D2, bound_d2(params)))
        for att in _attained(interval, which)]


def cmd_sample(args: argparse.Namespace) -> list[dict]:
    from .verify import sample_no_violation

    [params] = _classes(args)
    report = sample_no_violation(
        params,
        n_samples=args.samples,
        n_atoms_max=args.atoms_max,
        seed=args.seed,
    )
    return [{
        **_param_columns(params),
        "n_samples": report.n_samples,
        "n_atoms_max": report.n_atoms_max,
        "seed": report.seed,
        # Checked by its flag and echoed; no other cell depends on it.
        "order": args.order,
        "constructed": report.n_constructed,
        "failures": report.n_failures,
        "violations": report.n_violations,
        "d1_low_margin": report.d1_low.margin,
        "d1_high_margin": report.d1_high.margin,
        "d2_low_margin": report.d2_low.margin,
        "d2_high_margin": report.d2_high.margin,
        "passed": report.passed,
    }]


# ------------------------------------------------------------------ parsing

def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # One -h serves every child: add_help would build a help formatter per child.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("-h", "--help", action="help", help="show this help message and exit")
    shared.add_argument("--config", type=str, default=None,
                        help="flat KEY=VALUE file supplying defaults")
    shared.add_argument("--family", choices=[f.value for f in Family], default="spirallike")
    shared.add_argument("--alpha", type=float, help="spirallike, convex (default 0)")
    shared.add_argument("--gamma", type=parse_angle,
                        help="spirallike, convex (default 0); radians or pi fractions, e.g. pi/4")
    shared.add_argument("--lambda", dest="lam", type=float, help="ozaki (default 1)")
    shared.add_argument("--out", type=str, default=None)
    shared.add_argument("--format", choices=sorted(_RENDERERS), default="table")

    parser = argparse.ArgumentParser(
        prog="succoeff",
        description="Sharp successive-coefficient bounds: compute, attain, re-derive.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary):
        child = sub.add_parser(name, parents=[shared], help=summary, add_help=False)
        child.set_defaults(run=run)
        return child

    command("bounds", cmd_bounds, "print the analytic intervals")
    command("verify", cmd_verify, "optimizer vs analytic endpoints")
    sweep = command("sweep", cmd_sweep, "verify over a parameter lattice")
    # Values starting with a minus need the = form: --gammas=-pi/6,pi/6,3
    for dest, flag, _ in _POINT_FLAGS:
        sweep.add_argument(flag + "s", dest=dest + "s", type=parse_range,
                           metavar="START,STOP,COUNT")
    command("extremal", cmd_extremal, "extremal coefficient table")
    sample = command("sample", cmd_sample, "randomized no-violation check")
    sample.add_argument("--order", type=int_range(4, config.MAX_ORDER), default=config.DEFAULT_ORDER)
    sample.add_argument("--seed", type=int_range(0), default=0)
    sample.add_argument("--samples", type=int_range(1), default=500)
    sample.add_argument("--atoms-max", type=int_range(1, config.MAX_ATOMS),
                        default=config.DEFAULT_ATOMS)
    return parser, sub.choices


def _load_config_file(path: str, children: dict[str, argparse.ArgumentParser]) -> dict:
    """Defaults from a KEY=VALUE file whose keys are the long flags.

    ``KEY`` names the flag ``--KEY`` (``_`` read as ``-``) of any subcommand;
    the value goes through that flag's own type and choices.  A flag named
    on two lines is an error, not a silent override.
    """
    # argparse has no public way to list a parser's actions.  Flags that
    # take no value (--help) and --config itself are not keys.
    actions = {flag: action for child in children.values() for action in child._actions
               for flag in action.option_strings
               if flag.startswith("--") and action.nargs != 0 and action.dest != "config"}
    values, first_line = {}, {}
    with open(path, encoding="utf-8-sig") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
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
        if action.dest in first_line:
            raise DomainError(f"{path}:{lineno}: {key}: already set on line "
                              f"{first_line[action.dest]}")
        first_line[action.dest] = lineno
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


def main(argv: Sequence[str] | None = None) -> int:
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
        # The subcommand that runs takes the keys of its own flags, the ones args has.
        children[args.command].set_defaults(
            **{dest: v for dest, v in defaults.items() if hasattr(args, dest)})
        args = parser.parse_args(argv)
    try:
        rows = args.run(args)
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
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"succoeff: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    return 0 if all(row.get("passed", True) for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
