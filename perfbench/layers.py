"""Fixed-input layer timings: import costs and ``timeit`` microbenchmarks."""

from __future__ import annotations

import cmath
import statistics
import subprocess
import sys
import timeit

MICROBENCHMARKS = ("series.exp_o12_us", "series.exp_o128_us", "caratheodory.solve_two_atom_us",
                   "caratheodory.to_series_us", "families.construct_member_us",
                   "families.membership_check_o12_us", "families.membership_check_o128_us")
IMPORT_ROOTS = {"import.succoeff_cli_ms": "succoeff", "import.scipy_ms": "scipy",
                "import.numpy_ms": "numpy"}


def parse_importtime(stderr: str) -> dict:
    """Cumulative ms per root package from ``python -X importtime`` output.

    An entry counts only when every enclosing entry belongs to ``succoeff``
    and none has the entry's own root.  So submodules are not counted twice,
    and what scipy pulls in (numpy.f2py, numpy.testing) is scipy's cost,
    not numpy's.
    """
    entries = []  # (depth, root, cumulative us)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip().split(".")[0], int(cumulative)))
    totals: dict = {}
    open_roots: list = []  # root of the nearest enclosing entry at each depth
    # importtime prints a module after its children, so walk backwards.
    for depth, root, cum in reversed(entries):
        del open_roots[depth:]
        if root not in open_roots and all(r == "succoeff" for r in open_roots):
            totals[root] = totals.get(root, 0) + cum
        open_roots.append(root)
    return {metric: totals.get(root, 0) / 1e3 for metric, root in IMPORT_ROOTS.items()}


IMPORT_RUNS = 3
MICRO_REPEATS = 7


def import_times(env: dict, cwd: str, runs: int = IMPORT_RUNS) -> dict:
    samples = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import succoeff.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr[-500:]}")
        samples.append(parse_importtime(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def _per_call_us(fn, target_s: float = 0.02, repeats: int = MICRO_REPEATS) -> float:
    fn()  # warm up
    timer = timeit.Timer(fn)
    number = 1
    while True:
        elapsed = timer.timeit(number)
        if elapsed >= target_s / 4 or number >= 1 << 20:
            break
        number *= 4
    number = max(1, round(number * target_s / max(elapsed, 1e-9)))
    return statistics.median(timer.repeat(repeats, number)) / number * 1e6


def microbenchmarks() -> tuple[dict, list]:
    """Per-call µs of single layers on fixed inputs; also the names skipped."""
    import succoeff as sc

    try:
        rep = sc.random_rep(n_atoms=4, seed=20211)
        params = sc.ClassParams.spirallike(alpha=0.25, gamma=0.5)
        tilt = (1.0 - params.alpha) * sc.mu(params.gamma)
        p12, p128 = sc.to_series(rep, 12), sc.to_series(rep, 128)
        arg12 = tilt * p12.integrate_kernel()
        arg128 = tilt * p128.integrate_kernel()
        f12 = sc.construct_member(params, p12)
        f128 = sc.construct_member(params, p128)
    except AttributeError:
        return {}, list(MICROBENCHMARKS)
    cases = dict(zip(MICROBENCHMARKS, (
        lambda: arg12.exp(),
        lambda: arg128.exp(),
        lambda: sc.solve_two_atom(1.2, cmath.exp(2.5j)),
        lambda: sc.to_series(rep, 12),
        lambda: sc.construct_member(params, p12),
        # No CLI command calls membership_check yet, so these two move no
        # end-to-end metric; they are kept for the layer itself.
        lambda: sc.membership_check(f12, params),
        lambda: sc.membership_check(f128, params),
    )))
    out, absent = {}, []
    for name, fn in cases.items():
        try:
            out[name] = _per_call_us(fn)
        except AttributeError:
            absent.append(name)
    return out, absent
