"""Mutation audit: every arithmetic operation of ``src/succoeff`` is needed and pinned.

Run from the root of a checkout, with the test dependencies installed:

    PYTHONPATH=src python tests/mutants.py

A site is one operation that a small change could break.  For each site
the script makes one mutant:

* ``+`` and ``-`` swap, as do ``*`` and ``/`` (in ``+=`` and the like too);
* ``<`` and ``<=`` swap, as do ``>`` and ``>=``, each comparison of a chain
  on its own;
* an int literal grows by 1;
* a float literal is scaled by ``1 + 2**-40``, and a zero one becomes
  ``2**-40``.

Each mutant is written into a temporary copy of the checkout, never into
the checkout itself, and the tier-1 command runs there with ``-x``.  A
mutant the tests pass survives.  Every survivor must be listed in
:data:`EQUIVALENT`, with the reason no test can or should see it; the
script exits 1 on a survivor not listed there and on a listed mutant the
tests now kill, and 0 when the survivors are exactly the listed ones.
It takes no flags and runs ``os.cpu_count()`` mutants at a time.  A full
run, 518 sites, took 20 to 22 minutes on a 2-vCPU Xeon.

``tests/test_suite.py`` checks, without running any mutant, that every
entry of the table still names a site, so the table cannot go stale
between full runs.  This file is no test module, so pytest does not
collect it.
"""

import ast
import bisect
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter, namedtuple
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "succoeff")

# The tier-1 command, stopping at the first failure.  The check that
# EQUIVALENT names sites is left out: a mutant rewrites the line it mutates,
# so that check would kill every listed mutant.
COMMAND = (sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
           "-p", "no:cacheprovider",
           "--deselect", "tests/test_suite.py::test_every_accepted_mutant_names_a_site")

# What a copy of the checkout leaves out.
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench",
                                 ".bench_build")

# (file under src/succoeff, stripped line text, operator, category, reason) of
# each mutant the tests pass on purpose.  The categories:
#   equivalent    no input tells the mutant from the original, or only a gap
#                 of exactly the gate, which no computed verdict reaches;
#   library-only  in code that no command runs and that ROADMAP item 20
#                 deletes; its tests are not widened meanwhile.
# An operator reads "#2" after it for the second site of that operator on
# lines with the same text in the file, and so on.
_AT_GATE = "only a gap of exactly the gate differs; the worst verdict gap is 4.5 of 16 units"
_GATE_MOVE = "moves gate(1.0) by 3e-27, and what it bounds is a multiple of 2**-53 near 1"
_SIGNED_ZERO = "a -0.0 imaginary part, which the jet's first step adds to +0.0"
_TWO_ATOMS = "two atoms below c = 2 are 1e-8 or more apart in argument; this moves one by 6e-12"
_MEMBERSHIP = "membership_check"
_TO_SERIES = "to_series at order 1"
_SERIES = "the series algebra"
EQUIVALENT = (
    ("bounds.py", "_POINT_AT_1 = ((1.0,), (1.0 + 0j,))", "+ to -", "equivalent", _SIGNED_ZERO),
    ("bounds.py", "_PAIR_AT_PM_1 = ((0.5, 0.5), (1.0 + 0j, -1.0 + 0j))", "+ to -", "equivalent",
     _SIGNED_ZERO),
    ("bounds.py", "_PAIR_AT_PM_1 = ((0.5, 0.5), (1.0 + 0j, -1.0 + 0j))", "+ to - #2",
     "equivalent", _SIGNED_ZERO),
    ("bounds.py", "ExtremalName.G_OZAKI: ((1.0,), (-1.0 + 0j,)),", "+ to -", "equivalent",
     _SIGNED_ZERO),
    ("bounds.py", "if 4 * t < 5:", "< to <=", "equivalent",
     "at T = 5/4 both convex branches give c* = 4/3 and -2s/3"),
    ("bounds.py", "if 2 * lam <= 1:", "<= to <", "equivalent",
     "at lam = 1/2 both Ozaki branches give c* = 2 and -5/24, each rounded once"),
    ("caratheodory.py", "tol = config.gate(1.0)", "float * (1 + 2**-40)", "equivalent",
     _GATE_MOVE),
    ("caratheodory.py",
     "return TruncatedSeries([1 + 0j] + (moments(rep, order) if order >= 1 else []))",
     "+ to -", "library-only", "to_series: a -0.0 imaginary part of p's constant term"),
    ("caratheodory.py",
     "return TruncatedSeries([1 + 0j] + (moments(rep, order) if order >= 1 else []))",
     ">= to >", "library-only", _TO_SERIES),
    ("caratheodory.py",
     "return TruncatedSeries([1 + 0j] + (moments(rep, order) if order >= 1 else []))",
     "int + 1 #2", "library-only", _TO_SERIES),
    ("caratheodory.py", "if not abs(x) <= 1.0 + config.gate(1.0):", "float * (1 + 2**-40) #2",
     "equivalent", _GATE_MOVE),
    ("caratheodory.py", "if abs(abs(x) - 1.0) > config.gate(1.0):", "float * (1 + 2**-40) #2",
     "equivalent", _GATE_MOVE),
    ("caratheodory.py",
     "if cmath.phase(e1) % (2.0 * math.pi) > cmath.phase(e2) % (2.0 * math.pi):",
     "float * (1 + 2**-40)", "equivalent", _TWO_ATOMS),
    ("caratheodory.py",
     "if cmath.phase(e1) % (2.0 * math.pi) > cmath.phase(e2) % (2.0 * math.pi):",
     "float * (1 + 2**-40) #2", "equivalent", _TWO_ATOMS),
    ("caratheodory.py",
     "if cmath.phase(e1) % (2.0 * math.pi) > cmath.phase(e2) % (2.0 * math.pi):",
     "> to >=", "equivalent", "two distinct atoms never share an argument"),
    ("cli.py",
     "yield _Attained(desc, target, triple, value, residual, residual <= config.gate(target))",
     "<= to <", "equivalent", _AT_GATE),
    ("config.py", "VANISHING_ATOL = 1e-13", "float * (1 + 2**-40)", "library-only", _MEMBERSHIP),
    ("config.py", "MEMBERSHIP_TOL = -1e-9", "float * (1 + 2**-40)", "library-only", _MEMBERSHIP),
    ("config.py", "MEMBERSHIP_RADII = (0.3, 0.6, 0.9)", "float * (1 + 2**-40)", "library-only",
     _MEMBERSHIP),
    ("config.py", "MEMBERSHIP_RADII = (0.3, 0.6, 0.9)", "float * (1 + 2**-40) #3",
     "library-only", _MEMBERSHIP),
    ("config.py", "return GATE_ULPS * 2.0**-52 * max(1.0, abs(scale))", "float * (1 + 2**-40) #2",
     "equivalent", "raises each gate at scale below 1 by 3e-27, short of any computed gap"),
    ("families.py", 'def convex(cls, alpha: float = 0.0, gamma: float = 0.0) -> "ClassParams":',
     "float * (1 + 2**-40)", "library-only", "a default of a named constructor"),
    ("families.py", 'def convex(cls, alpha: float = 0.0, gamma: float = 0.0) -> "ClassParams":',
     "float * (1 + 2**-40) #2", "library-only", "a default of a named constructor"),
    ("families.py", "gk = 1 + 0j", "+ to -", "library-only",
     "g_0, whose -0.0 imaginary part only construct_member's a1 shows"),
    ("families.py", "return TruncatedSeries([0j, *map(truediv, g, range(1, len(g) + 1))])",
     "int + 1 #2", "equivalent", "map stops at the end of g, before the range's extra term"),
    ("families.py", 'order = _count("order", order, 1)', "int + 1", "library-only",
     "construct_member from a measure at order 1"),
    ("families.py", "z = r * cmath.exp(1j * (2.0 * math.pi * k / n_angles))", "* to /",
     "library-only", _MEMBERSHIP),
    ("families.py", "z = r * cmath.exp(1j * (2.0 * math.pi * k / n_angles))",
     "float * (1 + 2**-40)", "library-only", _MEMBERSHIP),
    ("families.py", "if abs(fz) < config.VANISHING_ATOL:", "< to <=", "library-only", _MEMBERSHIP),
    ("families.py", "if abs(fpz) < config.VANISHING_ATOL:", "< to <=", "library-only",
     _MEMBERSHIP),
    ("families.py", "curv = 1.0 + z * fsecond.eval(z) / fpz", "float * (1 + 2**-40)",
     "library-only", _MEMBERSHIP),
    ("families.py", "margin = (1.0 + params.lam / 2.0) - curv.real", "float * (1 + 2**-40)",
     "library-only", _MEMBERSHIP),
    ("families.py", "margin = (1.0 + params.lam / 2.0) - curv.real", "float * (1 + 2**-40) #2",
     "library-only", _MEMBERSHIP),
    ("families.py", "if margin < worst_margin:", "< to <=", "library-only", _MEMBERSHIP),
    ("families.py", "passed=worst_margin >= config.MEMBERSHIP_TOL,", ">= to >", "library-only",
     _MEMBERSHIP),
    ("series.py", "__array_priority__ = 1000", "int + 1", "library-only", _SERIES),
    ("series.py", "if abs(f[0]) > config.gate(0.0):", "float * (1 + 2**-40)", "library-only",
     _SERIES),
    ("series.py", "g = [1 + 0j]", "+ to -", "library-only", _SERIES),
    ("series.py", "if abs(p[0] - 1.0) > config.gate(1.0):", "> to >=", "library-only", _SERIES),
    ("series.py", "if abs(p[0] - 1.0) > config.gate(1.0):", "float * (1 + 2**-40) #2",
     "library-only", _SERIES),
    ("verify.py",
     "argmin, highs = _d2_argmin(spec.params), [(0.0, 1.0, 0.0), (2.0, 0.0, 0.0)]",
     "float * (1 + 2**-40) #5", "equivalent",
     "the d2 value at c = 2 does not depend on x, and c = 2 never beats c = 0"),
    ("verify.py",
     "argmin, highs = _d2_argmin(spec.params), [(0.0, 1.0, 0.0), (2.0, 0.0, 0.0)]",
     "float * (1 + 2**-40) #6", "equivalent",
     "the d2 value at c = 2 does not depend on x, and c = 2 never beats c = 0"),
    ("verify.py", "passed=bool(res_min <= config.gate(analytic.lower)", "<= to <", "equivalent",
     _AT_GATE),
    ("verify.py", "and res_max <= config.gate(analytic.upper)),", "<= to <", "equivalent",
     _AT_GATE),
    ("verify.py", "acc += w * (eps * (eps + g1))", "+ to -", "equivalent",
     "a3 is read only through |a3| and isfinite, which ignore its sign"),
    ("verify.py", "n_violations += lo < d1_lo_floor or hi < d1_hi_floor", "< to <=",
     "equivalent", _AT_GATE),
    ("verify.py", "n_violations += lo < d1_lo_floor or hi < d1_hi_floor", "< to <= #2",
     "equivalent", _AT_GATE),
    ("verify.py", "n_violations += lo < d2_lo_floor or hi < d2_hi_floor", "< to <=",
     "equivalent", _AT_GATE),
    ("verify.py", "n_violations += lo < d2_lo_floor or hi < d2_hi_floor", "< to <= #2",
     "equivalent", _AT_GATE),
    ("verify.py", "passed=bool(abs(argmin_c - c_star) <= config.gate(c_star)),", "<= to <",
     "equivalent", _AT_GATE),
)

Site = namedtuple("Site", "file line text op start end new")


def _swap(op: ast.AST) -> tuple[str, str] | None:
    """(token, replacement) of an operator the audit swaps, or None."""
    return {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
            ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
            ast.GtE: (">=", ">")}.get(type(op))


def _token_at(source: bytes, start: int, end: int, token: str) -> int:
    """Offset of the operator ``token`` between two operands, outside any comment."""
    want, i = token.encode(), start
    while i < end:
        if source.startswith(want, i):
            return i
        i = source.index(b"\n", i) if source[i:i + 1] == b"#" else i + 1
    raise ValueError(f"no {token!r} in {source[start:end]!r}")


def sites(file: str, source: bytes) -> list[Site]:
    """Every mutant of one module's source, in source order."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    lines = source.decode("utf-8").splitlines()

    def offset(lineno, col):  # ast columns count UTF-8 bytes
        return starts[lineno - 1] + col

    def end_of(node):
        return offset(node.end_lineno, node.end_col_offset)

    def start_of(node):
        return offset(node.lineno, node.col_offset)

    found = []

    def swap(op, left, right):
        pair = _swap(op)
        if pair is not None:
            at = _token_at(source, end_of(left), start_of(right), pair[0])
            found.append((f"{pair[0]} to {pair[1]}", at, at + len(pair[0]), pair[1]))

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp):
            swap(node.op, node.left, node.right)
        elif isinstance(node, ast.AugAssign):
            swap(node.op, node.target, node.value)
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops,
                                       node.comparators):
                swap(op, left, right)
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            value = node.value
            if type(value) is int:
                op, new = "int + 1", repr(value + 1)
            else:
                op, new = "float * (1 + 2**-40)", repr(value * (1 + 2**-40) if value else 2**-40)
            found.append((op, start_of(node), end_of(node), new))
    found.sort(key=lambda f: f[1])
    seen = Counter()
    out = []
    for op, start, end, new in found:
        lineno = bisect.bisect_right(starts, start)  # the line the mutated token is on
        text = lines[lineno - 1].strip()
        seen[text, op] += 1
        label = op if seen[text, op] == 1 else f"{op} #{seen[text, op]}"
        out.append(Site(file, lineno, text, label, start, end, new))
    return out


def all_sites(root: Path = ROOT) -> list[Site]:
    """The sites of every module of the package, module by module."""
    return [site for path in sorted((root / PACKAGE).glob("*.py"))
            for site in sites(path.name, path.read_bytes())]


def _run(copy: Path, timeout: float | None) -> tuple[bool, float]:
    """(whether the tier-1 command passed in ``copy``, its wall time)."""
    start = time.perf_counter()
    # No .pyc, neither from the tier-1 command nor from the fresh interpreters
    # its tests start, which the environment reaches and a -B flag would not:
    # a mutant and the original have the same size and may share an mtime
    # second, so a cached .pyc of one could be loaded for the other.
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        code = subprocess.run(COMMAND, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code == 0, time.perf_counter() - start


def run(chosen: list[Site], workers: int) -> dict[Site, bool]:
    """Whether each mutant survives, ``workers`` at a time, each in a copy of the checkout."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copies = queue.Queue()
        for i in range(workers):
            copy = Path(tmp, str(i))
            shutil.copytree(ROOT, copy, ignore=_IGNORE)
            copies.put(copy)
        passed, seconds = _run(Path(tmp, "0"), None)
        if not passed:
            raise SystemExit("the tests fail on an unmutated copy; nothing to audit")
        # A mutant that runs far past the whole suite is stuck: count it killed.
        timeout = max(120.0, 5 * seconds)

        def one(site: Site) -> bool:
            copy = copies.get()
            path = copy / PACKAGE / site.file
            original = path.read_bytes()
            try:
                path.write_bytes(original[:site.start] + site.new.encode() + original[site.end:])
                alive = _run(copy, timeout)[0]
                if alive:
                    print(f"survives: {site.file}:{site.line}: {site.op}: {site.text}", flush=True)
                return alive
            finally:
                path.write_bytes(original)
                copies.put(copy)

        with ThreadPoolExecutor(workers) as pool:
            return dict(zip(chosen, pool.map(one, chosen)))


def main() -> int:
    start = time.perf_counter()
    found = all_sites()
    listed = {entry[:3]: entry[3] for entry in EQUIVALENT}
    workers = os.cpu_count() or 1
    survived = run(found, workers)
    print(f"{'module':<16}{'sites':>7}{'survivors':>11}")
    for file in sorted({site.file for site in found}):
        alive = [survived[site] for site in found if site.file == file]
        print(f"{file:<16}{len(alive):>7}{sum(alive):>11}")
    categories = ", ".join(f"{n} {c}" for c, n in sorted(Counter(listed.values()).items()))
    print(f"{len(found)} sites, {len(found) - sum(survived.values())} killed, "
          f"{sum(survived.values())} survived; listed: {categories}; "
          f"{workers} workers, {time.perf_counter() - start:.0f} s")
    problems = [f"{'survives, not in EQUIVALENT' if alive else 'in EQUIVALENT, now killed'}: "
                f"{site.file}:{site.line}: {site.op}: {site.text}"
                for site, alive in survived.items()
                if alive != ((site.file, site.text, site.op) in listed)]
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
