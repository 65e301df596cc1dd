"""Command-line front end.

Subcommands: ``bounds`` (closed-form intervals), ``verify`` (exact optimizer
vs analytic endpoints, extremal attainment, case analysis), ``sweep``
(verification over a parameter lattice), ``extremal`` (catalog coefficient
table) and ``sample`` (randomized no-violation check).

Output formats: an aligned text table (default), CSV, or JSON.  CSV and
JSON carry the same fields in the same order; reals are printed with 17
significant digits and complex quantities as separate re/im columns, so
identical configurations produce byte-identical files.

Exit status: 0 on success, 1 when a verification fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import config
from .bounds import Which, attainment, bound_d1, bound_d2, extremal_series, extremal_targets
from .errors import DomainError, SuccoeffError
from .families import ClassParams, Family
from .verify import (FunctionalSpec, VerifyReport, case_boundary_check, grid_optimize,
                     sample_no_violation)

__all__ = ["main", "RunConfig"]

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
        value /= float(m.group("den"))
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


def parse_range(text: str) -> tuple[float, float, int]:
    """START,STOP,COUNT lattice axis; START/STOP accept pi fractions."""
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("range must be START,STOP,COUNT")
    start, stop = parse_angle(parts[0]), parse_angle(parts[1])
    try:
        count = int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad count in {text!r}") from exc
    if count < 1:
        raise argparse.ArgumentTypeError("count must be >= 1")
    return start, stop, count


@dataclass
class RunConfig:
    """Resolved options of one CLI invocation."""

    command: str
    family: str = "spirallike"
    alpha: float = 0.0
    gamma: float = 0.0
    lam: float = 1.0
    order: int = config.DEFAULT_ORDER
    tol: float = config.GRID_TOL
    seed: int = 0
    out: Optional[str] = None
    fmt: str = "table"
    n_samples: int = 500
    n_atoms_max: int = 6
    alphas: Optional[tuple[float, float, int]] = None
    gammas: Optional[tuple[float, float, int]] = None
    lambdas: Optional[tuple[float, float, int]] = None

    def class_params(self, alpha=None, gamma=None, lam=None) -> ClassParams:
        fam = Family(self.family)
        if fam is Family.OZAKI_G:
            return ClassParams(fam, lam=self.lam if lam is None else lam)
        return ClassParams(
            fam,
            alpha=self.alpha if alpha is None else alpha,
            gamma=self.gamma if gamma is None else gamma,
        )


# ---------------------------------------------------------------- rendering

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def render_csv(columns: Sequence[str], rows: Sequence[dict]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def render_json(columns: Sequence[str], rows: Sequence[dict]) -> str:
    def clean(v):
        # NaN marks a field missing after a per-row failure; JSON gets null.
        return None if isinstance(v, float) and math.isnan(v) else v

    payload = [{c: clean(row[c]) for c in columns} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def render_table(columns: Sequence[str], rows: Sequence[dict]) -> str:
    cells = [[_fmt(row[c]) for c in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
              for i, c in enumerate(columns)]
    out = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for r in cells:
        out.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return "\n".join(out) + "\n"


_RENDERERS = {"csv": render_csv, "json": render_json, "table": render_table}


def _emit(cfg: RunConfig, columns: Sequence[str], rows: Sequence[dict]) -> None:
    text = _RENDERERS[cfg.fmt](columns, rows)
    if cfg.out:
        Path(cfg.out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _param_columns(params: ClassParams) -> dict:
    return {
        "family": params.family.value,
        "alpha": params.alpha,
        "gamma": params.gamma,
        "lambda": params.lam,
    }


# ----------------------------------------------------------------- commands

def cmd_bounds(cfg: RunConfig) -> int:
    params = cfg.class_params()
    columns = ["family", "alpha", "gamma", "lambda", "which",
               "lower", "upper", "lower_extremal", "upper_extremal"]
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
    _emit(cfg, columns, rows)
    return 0


def _endpoint_cells(report: VerifyReport, names: Sequence[str]) -> dict:
    """Lower, upper, min, max and the two residuals of a report, under ``names``."""
    return dict(zip(names, (
        report.analytic.lower, report.analytic.upper,
        report.numeric_min, report.numeric_max,
        report.residual_min, report.residual_max,
    )))


def _sweep_endpoints(which: Which) -> list[str]:
    key = which.value
    return [f"{key}_{name}" for name in
            ("lower", "upper", "min", "max", "residual_min", "residual_max")]


_VERIFY_ENDPOINTS = [
    "analytic_lower", "analytic_upper", "numeric_min", "numeric_max",
    "residual_min", "residual_max",
]


def _verify_row(cfg: RunConfig, params: ClassParams, which: Which) -> dict:
    spec = FunctionalSpec(params, which)
    report = grid_optimize(spec, tol=cfg.tol)
    interval = report.analytic
    order = max(cfg.order, 4)
    att_lo = attainment(interval.lower_extremal, which, order)
    att_hi = attainment(interval.upper_extremal, which, order)
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


_VERIFY_COLUMNS = [
    "family", "alpha", "gamma", "lambda", "which",
    *_VERIFY_ENDPOINTS,
    "argmin_c", "argmin_r", "argmin_theta",
    "argmax_c", "argmax_r", "argmax_theta",
    "lower_attainment", "upper_attainment",
    "lower_attainment_residual", "upper_attainment_residual",
    "case_check", "passed",
]


def cmd_verify(cfg: RunConfig) -> int:
    params = cfg.class_params()
    rows = [_verify_row(cfg, params, Which.D1), _verify_row(cfg, params, Which.D2)]
    _emit(cfg, _VERIFY_COLUMNS, rows)
    return 0 if all(r["passed"] for r in rows) else 1


def _lattice(cfg: RunConfig) -> list[ClassParams]:
    def axis(rng, fallback):
        if rng is None:
            return [fallback]
        start, stop, count = rng
        return [float(v) for v in np.linspace(start, stop, int(count))]

    points = []
    if Family(cfg.family) is Family.OZAKI_G:
        for lam in sorted(axis(cfg.lambdas, cfg.lam)):
            points.append(cfg.class_params(lam=lam))
    else:
        for alpha in sorted(axis(cfg.alphas, cfg.alpha)):
            for gamma in sorted(axis(cfg.gammas, cfg.gamma)):
                points.append(cfg.class_params(alpha=alpha, gamma=gamma))
    return points


_SWEEP_COLUMNS = [
    "family", "alpha", "gamma", "lambda",
    *_sweep_endpoints(Which.D1), *_sweep_endpoints(Which.D2),
    "error", "passed",
]


def cmd_sweep(cfg: RunConfig) -> int:
    rows = []
    all_passed = True
    for params in _lattice(cfg):
        row = {**_param_columns(params), "error": "", "passed": False}
        for col in _SWEEP_COLUMNS[4:-2]:
            row[col] = math.nan
        try:
            ok = True
            for which in (Which.D1, Which.D2):
                rep = grid_optimize(FunctionalSpec(params, which), tol=cfg.tol)
                row.update(_endpoint_cells(rep, _sweep_endpoints(which)))
                ok = ok and rep.passed
            row["passed"] = bool(ok)
        except SuccoeffError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
            row["passed"] = False
        all_passed = all_passed and row["passed"]
        rows.append(row)
    _emit(cfg, _SWEEP_COLUMNS, rows)
    return 0 if all_passed else 1


_EXTREMAL_COLUMNS = [
    "family", "alpha", "gamma", "lambda", "extremal", "which",
    "a2_re", "a2_im", "a3_re", "a3_im", "d1", "d2",
    "target", "residual", "passed",
]


def cmd_extremal(cfg: RunConfig) -> int:
    params = cfg.class_params()
    order = max(cfg.order, 4)
    rows = []
    all_passed = True
    for desc, which, target in extremal_targets(params):
        f = extremal_series(desc, order)
        a2, a3 = f[2], f[3]
        d1 = abs(a2) - abs(f[1])
        d2 = abs(a3) - abs(a2)
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
    _emit(cfg, _EXTREMAL_COLUMNS, rows)
    return 0 if all_passed else 1


_SAMPLE_COLUMNS = [
    "family", "alpha", "gamma", "lambda",
    "n_samples", "n_atoms_max", "seed", "order",
    "constructed", "failures", "violations",
    "d1_low_margin", "d1_high_margin", "d2_low_margin", "d2_high_margin",
    "passed",
]


def cmd_sample(cfg: RunConfig) -> int:
    params = cfg.class_params()
    report = sample_no_violation(
        params,
        n_samples=cfg.n_samples,
        n_atoms_max=cfg.n_atoms_max,
        seed=cfg.seed,
        order=max(cfg.order, 4),
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
    _emit(cfg, _SAMPLE_COLUMNS, rows)
    return 0 if report.passed else 1


_COMMANDS = {
    "bounds": cmd_bounds,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "extremal": cmd_extremal,
    "sample": cmd_sample,
}


# ------------------------------------------------------------------ parsing

def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", type=str, default=None,
                        help="flat KEY=VALUE file supplying defaults")
    shared.add_argument("--family", choices=[f.value for f in Family], default="spirallike")
    shared.add_argument("--alpha", type=float, default=0.0)
    shared.add_argument("--gamma", type=parse_angle, default=0.0,
                        help="radians; fractions of pi accepted, e.g. pi/4")
    shared.add_argument("--lambda", dest="lam", type=float, default=1.0)
    shared.add_argument("--order", type=int, default=config.DEFAULT_ORDER)
    shared.add_argument("--tol", type=parse_tol, default=config.GRID_TOL)
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--out", type=str, default=None)
    shared.add_argument("--format", dest="fmt", choices=sorted(_RENDERERS), default="table")

    parser = argparse.ArgumentParser(
        prog="succoeff",
        description="Sharp successive-coefficient bounds: compute, attain, re-derive.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    children = [
        sub.add_parser("bounds", parents=[shared], help="print the analytic intervals"),
        sub.add_parser("verify", parents=[shared], help="optimizer vs analytic endpoints"),
    ]
    sweep = sub.add_parser("sweep", parents=[shared], help="verify over a parameter lattice")
    # Values starting with a minus need the = form: --gammas=-pi/6,pi/6,3
    sweep.add_argument("--alphas", type=parse_range, default=None, metavar="START,STOP,COUNT")
    sweep.add_argument("--gammas", type=parse_range, default=None, metavar="START,STOP,COUNT")
    sweep.add_argument("--lambdas", type=parse_range, default=None, metavar="START,STOP,COUNT")
    children.append(sweep)
    children.append(sub.add_parser("extremal", parents=[shared],
                                   help="extremal coefficient table"))
    sample = sub.add_parser("sample", parents=[shared], help="randomized no-violation check")
    sample.add_argument("--samples", dest="n_samples", type=int, default=500)
    sample.add_argument("--atoms-max", dest="n_atoms_max", type=int, default=6)
    children.append(sample)
    return parser, children


_CONFIG_CONVERTERS = {
    "family": str,
    "alpha": float,
    "gamma": parse_angle,
    "lambda": float,
    "order": int,
    "tol": parse_tol,
    "seed": int,
    "out": str,
    "format": str,
    "samples": int,
    "atoms_max": int,
}
_CONFIG_DESTS = {"lambda": "lam", "format": "fmt", "samples": "n_samples", "atoms_max": "n_atoms_max"}


def _load_config_file(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected KEY=VALUE, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _CONFIG_CONVERTERS:
            raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            converted = _CONFIG_CONVERTERS[key](value.strip())
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise DomainError(f"{path}:{lineno}: {exc}") from exc
        values[_CONFIG_DESTS.get(key, key)] = converted
    return values


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in ("family", "alpha", "gamma", "lam", "order", "tol",
                 "seed", "out", "fmt", "n_samples", "n_atoms_max",
                 "alphas", "gammas", "lambdas"):
        if hasattr(args, name):
            value = getattr(args, name)
            if value is not None or name in ("out", "alphas", "gammas", "lambdas"):
                setattr(cfg, name, value)
    if cfg.alphas is not None:
        cfg.alphas = tuple(cfg.alphas)
    if cfg.gammas is not None:
        cfg.gammas = tuple(cfg.gammas)
    if cfg.lambdas is not None:
        cfg.lambdas = tuple(cfg.lambdas)
    return cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, children = _build_parser()
    # Config file supplies defaults only; explicit flags always win.
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is not None:
        try:
            defaults = _load_config_file(path)
        except (OSError, DomainError) as exc:
            print(f"succoeff: {exc}", file=sys.stderr)
            return 2
        # Subparsers hold their own defaults, so update every one of them.
        for child in children:
            child.set_defaults(**defaults)
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[args.command](cfg)
    except DomainError as exc:
        print(f"succoeff: usage error: {exc}", file=sys.stderr)
        return 2
    except SuccoeffError as exc:
        print(f"succoeff: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
