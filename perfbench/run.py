"""Benchmark of the ``succoeff`` command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload closed-forms --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload's commands as users do: one fresh
``python`` process per command, import included, one after another.  It
makes round(seconds / nominal pass time) passes over the command list and
reports the end-to-end metrics.  Set-up imports ``succoeff.cli`` in fresh
processes and reports the median as ``setup_s``.

``--trace 1`` runs one such pass, then replays the same argument lists in
this process through ``succoeff.cli.main``, alternating an untraced and a
traced call per command.  The traced calls go through wrappers that
:mod:`tracer` puts around the package's public functions, so no file of
the package changes.  It reports the per-layer metrics, including fixed
``timeit`` microbenchmarks and ``-X importtime`` costs, and checks that
every traced ``--out`` file is byte-identical to the untraced one.

Every output row is checked against :mod:`oracle`, which computes each
endpoint without the package.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans, outputs and a full result record go under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import oracle
import stats
from workloads import WORKLOADS, passes

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_CLI = "import sys; from succoeff.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_IMPORTS = 7
COMMAND_TIMEOUT_S = 150.0
MIN_REPLAY_S, MAX_REPLAY_ROUNDS = 2.0, 20
BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def unit_of(name: str) -> str:
    """Unit of a metric that BENCHMARK.json does not declare, from its name."""
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s"), ("_mb", "MB"),
                         ("_calls", "count"), ("_points", "count"), ("_members", "count"),
                         ("_err_max", "abs"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "1"


class BenchError(Exception):
    """The benchmark cannot run here."""


# ----------------------------------------------------------------- helpers

def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list, env: dict, cwd: Path, log) -> tuple[float, int, int]:
    """Run one child to completion: (wall seconds, exit code, max RSS in KiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(args, env=env, cwd=cwd, stdout=log, stderr=log)
    killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.returncode = 0  # reaped by wait4; keep Popen from waiting again
    wall = time.perf_counter() - start
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss


def command_line(argv: list, out: Path) -> list:
    return [*argv, "--format", "csv", "--out", str(out)]


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def sample_d2_lower(argv: list, out: Path, root: Path, env: dict, log) -> float:
    """The package's closed-form d2 lower endpoint at a ``sample`` command's
    point, read from a ``bounds`` command run there; NaN if that fails."""
    point, rest = [], iter(argv[1:])
    for flag in rest:
        if flag in ("--order", "--samples", "--seed"):
            next(rest)
        else:
            point.append(flag)
    spawn([sys.executable, "-c", RUN_CLI, *command_line(["bounds", *point], out)], env, root, log)
    try:
        return next(float(row["lower"]) for row in read_rows(out) if row["which"] == "d2")
    except (OSError, StopIteration, KeyError, ValueError):
        return float("nan")


def check_outputs(cmds: list, outdir: Path, codes: list, root: Path, env: dict, log) -> oracle.CheckResult:
    """Check every output of one pass against the reference."""
    res = oracle.CheckResult()
    for i, (argv, code) in enumerate(zip(cmds, codes)):
        path = outdir / f"{i:03d}.csv"
        sub = oracle.CheckResult()
        try:
            rows = read_rows(path)
        except OSError:
            rows = []
        if rows and argv[0] == "sample":
            oracle.check_sample(rows, sub, lambda: sample_d2_lower(
                argv, outdir / f"{i:03d}.bounds.csv", root, env, log))
        elif rows:
            oracle.CHECKERS[argv[0]](rows, sub)
        else:
            sub.operations = 1
            sub.fail("output", f"exit {code} and no rows", False)
        passed = all(r.get("passed", "true") == "true" for r in rows)
        if rows and code != (0 if passed else 1):
            sub.fail("exit", f"exit code {code} with passed={passed}", False)
        prefix = f"cmd{i}:"
        res.operations += sub.operations
        res.failures += [(prefix + op, why) for op, why in sub.failures]
        res.known += [(prefix + op, why) for op, why in sub.known]
        res.bound_err = max(res.bound_err, sub.bound_err)
        res.endpoint_err = max(res.endpoint_err, sub.endpoint_err)
        res.points += sub.points
        res.members += sub.members
        res.sample_failures += sub.sample_failures
        res.sample_constructed += sub.sample_constructed
    return res


def same_bytes(a: Path, b: Path) -> bool:
    try:
        return a.read_bytes() == b.read_bytes()
    except OSError:
        return False


def environment(root: Path, args) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def declared_metrics() -> dict:
    spec = json.loads(BENCH_FILE.read_text(encoding="utf-8"))
    return {key: [(m["name"], m["unit"]) for m in spec[key]] for key in ("end_to_end", "per_layer")}


# ------------------------------------------------------------------- runs

def measure_setup(root: Path, env: dict, log) -> float:
    args = [sys.executable, "-c", "import succoeff.cli"]
    wall, code, _ = spawn(args, env, root, log)  # also writes the bytecode cache
    if code != 0:
        raise BenchError("cannot import succoeff.cli from src/")
    return statistics.median(spawn(args, env, root, log)[0] for _ in range(SETUP_IMPORTS))


def subprocess_pass(cmds: list, outdir: Path, root: Path, env: dict, log):
    outdir.mkdir(parents=True, exist_ok=True)
    latencies, codes, rss = [], [], 0
    start = time.perf_counter()
    for i, argv in enumerate(cmds):
        wall, code, kib = spawn([sys.executable, "-c", RUN_CLI, *command_line(argv, outdir / f"{i:03d}.csv")],
                                env, root, log)
        latencies.append(wall)
        codes.append(code)
        rss = max(rss, kib)
    return time.perf_counter() - start, latencies, codes, rss


def run_untraced(cmds, n_pass, work, root, env, log):
    setup = measure_setup(root, env, log)
    walls, latencies, rss, mismatched = [], [], 0, 0
    first = work / "pass0"
    for k in range(n_pass):
        outdir = work / f"pass{k}"
        wall, lat, codes, kib = subprocess_pass(cmds, outdir, root, env, log)
        walls.append(wall)
        latencies += lat
        rss = max(rss, kib)
        if k == 0:
            check = check_outputs(cmds, outdir, codes, root, env, log)
            first_codes = codes
        else:
            mismatched += sum(codes[i] != first_codes[i]
                              or not same_bytes(outdir / f"{i:03d}.csv", first / f"{i:03d}.csv")
                              for i in range(len(cmds)))
            shutil.rmtree(outdir)
    failed = check.failed_operations * n_pass + mismatched
    attempted = check.operations * n_pass
    wall = statistics.median(walls)
    tail, pct, n = stats.tail(latencies)
    metrics = {
        "setup_s": setup,
        "wall_s": wall,
        "cmd_p50_ms": statistics.median(latencies) * 1e3,
        "cmd_tail_ms": tail * 1e3,
        "points_per_s": check.points / wall,
        "members_per_s": check.members / wall,
        "peak_rss_mb": rss / 1024.0,
        "fail_frac": failed / max(attempted, 1),
        "endpoint_err_max": check.endpoint_err,
        "bound_err_max": check.bound_err,
    }
    extra = {"passes": n_pass, "pass_walls_s": walls, "cmd_latencies_s": latencies,
             "cmd_samples": n, "cmd_tail_pct": pct,
             "points_per_pass": check.points, "members_per_pass": check.members,
             "outputs_differing_between_passes": mismatched}
    return metrics, check, extra, (attempted, failed, mismatched == 0)


def run_traced(cmds, work, root, env, log):
    import layers
    from tracer import Tracer

    ref_dir, plain_dir, traced_dir = work / "subprocess", work / "inprocess", work / "traced"
    _, latencies, codes, _ = subprocess_pass(cmds, ref_dir, root, env, log)
    check = check_outputs(cmds, ref_dir, codes, root, env, log)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    import succoeff.cli as cli

    def call(argv, out, tracer=None):
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            cli.main(command_line(argv, out))
        except SystemExit:
            pass
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        return elapsed

    plain_dir.mkdir()
    traced_dir.mkdir()
    # Warm the process up on the cheapest command before anything is timed.
    call(cmds[latencies.index(min(latencies))], work / "warmup.csv")
    tracer = Tracer()
    plain_s = traced_s = 0.0
    rounds = 0
    # Short replays are repeated so that the overhead is not lost in noise.
    while rounds == 0 or (plain_s + traced_s < MIN_REPLAY_S and rounds < MAX_REPLAY_ROUNDS):
        rounds += 1
        for i, argv in enumerate(cmds):
            tracer.command = i
            name = f"{i:03d}.csv"
            if (i + rounds) % 2:
                traced_s += call(argv, traced_dir / name, tracer)
                plain_s += call(argv, plain_dir / name)
            else:
                plain_s += call(argv, plain_dir / name)
                traced_s += call(argv, traced_dir / name, tracer)
    for i in range(len(cmds)):
        if not same_bytes(traced_dir / f"{i:03d}.csv", ref_dir / f"{i:03d}.csv"):
            check.failures.append((f"cmd{i}", "traced --out differs from the subprocess output"))
    tracer.write(work / "spans.jsonl")

    # Per-layer figures are per pass over the command list.
    totals = {name: (ms / rounds, calls // rounds, own / rounds)
              for name, (ms, calls, own) in tracer.totals().items()}
    counters = {name: count // rounds for name, count in tracer.counters.items()}
    metrics = dict(layers.import_times(env, str(root)))
    micro, micro_absent = layers.microbenchmarks()
    metrics.update(micro)

    def total(name, default=0.0):
        return totals.get(name, (default, 0, default))

    grid_names = ("verify.grid_optimize_d1", "verify.grid_optimize_d2")
    metrics.update({
        "cli.main_self_ms": total("cli.main")[2],
        "cli.fail_frac": check.failed_operations / max(check.operations, 1),
        "bounds.bound_err_max": check.bound_err,
        "verify.endpoint_err_max": check.endpoint_err,
        "verify.grid_optimize_self_ms": sum(total(n)[2] for n in grid_names),
        "verify.grid_points": counters.get("verify.grid_points", 0),
        "verify.sample_members": counters.get("verify.sample_members", 0),
        "series.init_calls": counters.get("series.init_calls", 0),
        "families.construct_fail_frac": check.sample_failures
        / max(check.sample_failures + check.sample_constructed, 1),
        "trace.overhead_frac": traced_s / plain_s - 1.0,
    })
    for name in ("bounds.bound_d2", "bounds.extremal_series", "caratheodory.solve_two_atom",
                 "caratheodory.to_series", "families.construct_member", "series.exp",
                 "verify.functional_value", "verify.case_boundary_check",
                 "verify.sample_no_violation", *grid_names):
        ms, calls, _ = total(name)
        metrics[name + "_ms"] = ms
        metrics[name + "_calls"] = calls
    # A function the package no longer has leaves its metrics absent, not zero.
    metrics = {name: value for name, value in metrics.items()
               if not any(name.startswith(span + "_") for span in tracer.absent)}
    absent = sorted(tracer.absent) + micro_absent
    extra = {"absent": absent, "spans": len(tracer.spans), "replay_rounds": rounds,
             "importtime_runs": layers.IMPORT_RUNS, "microbenchmark_repeats": layers.MICRO_REPEATS,
             "inprocess_untraced_s": plain_s, "inprocess_traced_s": traced_s}
    return metrics, check, extra, (check.operations, check.failed_operations, True)


# ------------------------------------------------------------------- main

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(metrics: dict, declared: list, check: oracle.CheckResult, extra: dict, env: dict) -> None:
    """Human-readable lines; the JSON result follows them."""
    print(f"# {env['workload']} seed={env['seed']} trace={env['trace']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"commit={env['git_commit']} src={env['source_sha256'][:12]}")
    units = dict(declared)
    for name in sorted(metrics):
        unit = units.get(name) or unit_of(name)
        print(f"#   {name:40s} {metrics[name]!r:>24} {unit}")
    for key, value in extra.items():
        print(f"#   {key}: {value}")
    print(f"#   operations: {check.operations}, failed: {check.failed_operations} "
          f"(unexpected: {len({op for op, _ in check.failures})})")
    if check.known:
        print(f"#   known defect {oracle.KNOWN_DEFECT}: {oracle.KNOWN_DEFECT_TEXT}")
        for op, why in check.known[:10]:
            print(f"#     {op}: {why}")
    for op, why in check.failures[:20]:
        print(f"#   FAILED {op}: {why}")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "succoeff" / "cli.py").is_file():
        print("perfbench: run from a checkout of the repository (src/succoeff/cli.py not found)",
              file=sys.stderr)
        return 2
    declared = declared_metrics()
    work = root / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(root)
    cmds = WORKLOADS[args.workload](args.seed)
    record = environment(root, args)
    with open(work / "stderr.log", "wb") as log:
        if args.trace:
            metrics, check, extra, (attempted, failed, stable) = run_traced(cmds, work, root, env, log)
            names = declared["per_layer"]
        else:
            metrics, check, extra, (attempted, failed, stable) = run_untraced(
                cmds, passes(args.workload, args.seconds), work, root, env, log)
            names = declared["end_to_end"]
    report(metrics, names, check, extra, record)
    result = {
        "correct": not check.failures and stable,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names
                    if name in metrics},
    }
    (work / "result.json").write_text(json.dumps({
        **result, "environment": record, "all_metrics": metrics, "extra": extra,
        "known_defect": oracle.KNOWN_DEFECT if check.known else None,
        "known_failures": check.known, "unexpected_failures": check.failures,
        "commands": cmds}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
