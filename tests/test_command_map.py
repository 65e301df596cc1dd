"""What the commands run: every function of ``src/succoeff`` that no command enters is declared.

Every command line of :mod:`test_outputs` runs once per format in one pass,
:func:`every_command_run`: one fresh interpreter per subcommand, under
``-S`` (pyproject declares no dependencies, so the package must run every
line without site-packages).  Each line runs through ``cli.main`` under the
child's one call tracer, ``traced`` in :data:`_RUN_LINES`, which records
each ``def`` and ``lambda`` of the package that is entered.  The same pass
records what each subcommand loads, and keeps each line's digest row, with
its json rows' ``passed`` cells, for
``test_outputs.test_outputs_match_the_recorded_digests`` and the unpatched
side of ``test_verdict_gates.test_no_verdict_depends_on_libm``; tracing
moves no byte of them, as :func:`test_tracing_moves_no_byte` checks against
untraced in-process runs.  The functions never entered must be exactly
:data:`LIBRARY_ONLY`, each listed with the reason it stays.  So code that
no command runs cannot arrive unnoticed: a change that adds some adds its
name here, and a change that deletes library-only code shrinks the tuple.
Its first group, :data:`PERFBENCH_REACHES`, must be exactly what the
benchmark in ``perfbench/`` reaches and no command enters, as one more
fresh interpreter, :func:`benchmark_contract`, finds it: perfbench's
microbenchmarks run there under the same tracer, and perfbench's ``Tracer``
is installed there, never in the test process, for three command lines.

The package modules a subcommand loads must be exactly its entry of
:data:`LOADS`, the one statement of that rule, and every other module it
loads must come from the standard library, within the limits
:func:`load_differences` states; ``test_cli.test_commands_load_only_what_they_run``
checks them per subcommand and format.  Under ``-S`` no ``.pth`` hook
preloads a module, so none can hide a load; but a guarded import of a
third-party package fails silently there, which
``test_package.test_package_imports_only_the_standard_library`` rules out
statically.  Every module of the package that a subcommand loads has a
function that the subcommand enters, except the modules of
:data:`LOADED_FOR_NO_CALL`.  So a module-level import that pulls in a
module only for a name it never calls fails here.

A function is keyed by its file and first line (a decorated ``def``
starts at its first decorator), which its code object carries on every
CPython.  Comprehensions are not functions here: CPython 3.12 inlines
them, so whether they have a code object of their own depends on the
version.  In the child, modules load lazily while a line runs, so a class
or module body may run under the hook; only keys of a def or lambda of
:func:`functions` are kept, so a body is no call.

``PYTHONPATH=src python tests/test_command_map.py`` prints, for each
subcommand, the functions it enters and, for each module it loads, the
lines compiled against the lines of the functions it enters and of those
it never enters.  Then it prints every way the run differs from
:data:`LIBRARY_ONLY`, :data:`LOADS` and the load rules, one line each, and
exits 1 when there is one.
"""

import ast
import importlib
import os
import subprocess
import sys
import tempfile
from collections import namedtuple
from functools import cache
from pathlib import Path

import succoeff
from test_outputs import COMMANDS, FORMATS, _argv, _row, out_flags, row_of

# The functions that perfbench reaches and no command line enters: those
# tracer.TARGETS and COUNTED_INIT name, and those layers.microbenchmarks
# enters.  They stay until perfbench's spans are re-declared;
# test_perfbench_group_is_what_perfbench_reaches keeps the list exact.
PERFBENCH_REACHES = (
    "series._dot",
    "series.TruncatedSeries.__init__",
    "series.TruncatedSeries.coeffs",
    "series.TruncatedSeries.__mul__",
    "series.TruncatedSeries.__rmul__",
    "series.TruncatedSeries.exp",
    "series.TruncatedSeries.integrate_kernel",
    "series.TruncatedSeries.derivative",
    "series.TruncatedSeries.eval",
    "caratheodory.to_series",
    "caratheodory.moments",
    "caratheodory.random_rep",
    "caratheodory._draw_atoms",  # random_rep's draw
    "families.construct_member",
    "families._member",  # construct_member's family wrapping
    "families.membership_check",
    "families.ClassParams.spirallike",
    "bounds.extremal_series",
    "__init__.__getattr__",  # resolves the public names layers reads
)

# The functions of src/succoeff that no command line enters, by module and
# qualified name (a lambda is named by the variable it is assigned to).
LIBRARY_ONLY = PERFBENCH_REACHES + (
    # Named constructors beside ClassParams.spirallike, which perfbench resolves.
    "families.ClassParams.convex",
    "families.ClassParams.ozaki",
    # The series type prints its coefficients, not as object does.
    "series.TruncatedSeries.__repr__",
    # They check what a library caller passes; the command line checks its
    # flags before any of them could be reached.
    "families.Family._missing_",
    "bounds.Which._missing_",
    "bounds.ExtremalName._missing_",
    "caratheodory.AtomicHerglotzRep._make",
    "bounds.ExtremalDescriptor._make",
    "bounds.BoundInterval._make",
    "verify.FunctionalSpec._make",
    "__init__.__dir__",
)

# The modules a subcommand may load without entering any function of theirs:
# the lazy public surface, and the constants.
LOADED_FOR_NO_CALL = ("succoeff", "succoeff.config")

# The package modules each subcommand loads.  bounds evaluates the closed
# forms and builds no measure; extremal reads its extremals' measures from
# caratheodory; verify, sweep and sample also run verify.py.  No command
# loads series.py.
_CLOSED_FORMS = frozenset({"succoeff", "succoeff.bounds", "succoeff.cli", "succoeff.config",
                           "succoeff.errors", "succoeff.families"})
_MEASURES = _CLOSED_FORMS | {"succoeff.caratheodory"}
LOADS = {
    "bounds": _CLOSED_FORMS,
    "extremal": _MEASURES,
    "verify": _MEASURES | {"succoeff.verify"},
    "sweep": _MEASURES | {"succoeff.verify"},
    "sample": _MEASURES | {"succoeff.verify"},
}

# Standard modules no command loads: the records are namedtuples, not
# dataclasses, and no command needs pathlib or typing.
NEVER_LOADED = frozenset({"dataclasses", "inspect", "pathlib", "typing"})

Function = namedtuple("Function", "name path first last")
# rows: command line -> its row, as test_outputs._row gives it, or what it
# raised; entered: command line -> the (file, first line) of each package
# function it enters; text and every: subcommand -> the modules its lines
# load in csv and table, and once they have also run in json.
CommandRun = namedtuple("CommandRun", "rows entered text every")
# What perfbench finds of the package (benchmark_contract): the (module,
# attribute) pairs its tracer targets; its microbenchmarks, those timed and
# those absent, and the (file, first line) of each package frame they call;
# the tracer's absent spans; three command lines' exit codes, and the
# tracer's counters and span names.
BenchmarkContract = namedtuple(
    "BenchmarkContract", "targets cases timed unmeasured entered absent codes counters spans")

# The package's directory, as the prefix of its files' names.
_PACKAGE = os.path.join(os.path.dirname(succoeff.__file__), "")


class Raised(Exception):
    """What a command line raised in a fresh interpreter, shown by its repr there."""

    def __repr__(self):
        return self.args[0]


def _defs(node, scope, assigned=None):
    """(qualified name, first line, last line) of each def and lambda below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _defs(child, f"{scope}{child.name}.")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            if isinstance(child, ast.Lambda):
                name, first = assigned or "<lambda>", child.lineno
            else:
                name = child.name
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
            yield scope + name, first, child.end_lineno
            yield from _defs(child, f"{scope}{name}.")
        elif (isinstance(child, ast.Assign) and len(child.targets) == 1
              and isinstance(child.targets[0], ast.Name)):
            yield from _defs(child, scope, child.targets[0].id)
        else:
            yield from _defs(child, scope, assigned)


@cache
def functions() -> tuple[Function, ...]:
    """Every def and lambda of the package, in module and line order, parsed once."""
    found = []
    for path in sorted(Path(succoeff.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend(Function(name, str(path), first, last)
                     for name, first, last in _defs(tree, f"{path.stem}."))
    return tuple(found)


def never_entered(by_command) -> list[str]:
    """Names of the package functions that no command line entered."""
    hit = set().union(*by_command.values())
    return [f.name for f in functions() if (f.path, f.first) not in hit]


def differences(unentered) -> list[str]:
    """How ``unentered`` differs from :data:`LIBRARY_ONLY`, one line per name."""
    declared = set(LIBRARY_ONLY)
    known = {f.name for f in functions()}
    lines = [f"no command enters {name}, and LIBRARY_ONLY does not declare it"
             for name in unentered if name not in declared]
    lines += [f"LIBRARY_ONLY declares {name}, which "
              + ("a command enters" if name in known else "is no function of src/succoeff")
              for name in LIBRARY_ONLY if name not in unentered]
    lines += [f"LIBRARY_ONLY declares {name} twice"
              for name in sorted(declared) if LIBRARY_ONLY.count(name) > 1]
    return lines


def subcommands(commands) -> dict[str, list[str]]:
    """subcommand -> its command lines, in order."""
    by_subcommand = {}
    for command in commands:
        by_subcommand.setdefault(command.split()[0], []).append(command)
    return by_subcommand


def fresh(*codes: str) -> list[list]:
    """What fresh interpreters under ``-S``, one per code and all started at once, print.

    Each of ``codes`` runs after ``before = set(sys.modules)``;
    ``snapshot()`` prints the sorted modules loaded since.  For each, the
    result is what its interpreter printed, one literal per line.  The child
    finds the package through PYTHONPATH only: it is not installed, and
    ``-S`` skips site-packages.  The path is not resolved, so the child's
    file names are this process's.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(succoeff.__file__).parents[1])}
    prelude = ("import sys\nbefore = set(sys.modules)\n\n"
               "def snapshot():\n    print(sorted(set(sys.modules) - before))\n\n")
    procs = [subprocess.Popen([sys.executable, "-S", "-c", prelude + code], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) for code in codes]
    printed = [proc.communicate(timeout=600) for proc in procs]
    for proc, (_, stderr) in zip(procs, printed):
        if proc.returncode != 0:
            raise RuntimeError(f"{sys.executable} -S failed:\n{stderr}")
    return [[ast.literal_eval(line) for line in stdout.splitlines()] for stdout, _ in printed]


# The child's runner.  traced() calls call() under a tracer that keeps the
# (file, first line) of each frame of the package that is called, and gives
# what call() returned, or the repr of what it raised (SystemExit included),
# with those keys.  run() runs each argv through main under traced(), prints
# the results, and then snapshot() prints what has been loaded so far.  It
# imports nothing until run() imports the command line.
_RUN_LINES = """\
def traced(call, package):
    keys = set()

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(package) and (code.co_name == "<lambda>"
                                                     or not code.co_name.startswith("<")):
            keys.add((code.co_filename, code.co_firstlineno))

    sys.settrace(trace)
    try:
        got = call()
    except (Exception, SystemExit) as error:
        got = repr(error)
    finally:
        sys.settrace(None)
    return got, sorted(keys)

def run(lines, package):
    from succoeff.cli import main

    print([traced(lambda: main(argv), package) for argv in lines])
    snapshot()

"""


def loaded(commands) -> CommandRun:
    """What each command line enters, loads and writes: one fresh interpreter per subcommand.

    The interpreters run at once.  Each runs its subcommand's lines in csv
    and table, takes a snapshot of what it has loaded, runs them in json and
    takes another.  Each line writes its own ``--out`` file per format; this
    process reads them once the children have exited, so no child loads
    hashlib or json for the tests, and builds each line's row with
    :func:`test_outputs.row_of`.  A line that raised in a format is the
    :class:`Raised` of the first format it raised in, as
    :func:`test_outputs._row` raises it.  Of the keys the child records,
    only those of a def or lambda of :func:`functions` are kept: a class or
    module body that runs while a module loads lazily is no call.
    """
    known = {(f.path, f.first) for f in functions()}
    result = CommandRun({}, {}, {}, {})
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        outs = {(command, fmt): tmp / f"{index}.{fmt}"
                for index, command in enumerate(commands) for fmt in FORMATS}

        def argv(command, fmt):
            return [*_argv(command, tmp), *out_flags(fmt, outs[command, fmt])]

        batches = {subcommand: [[(command, fmt) for command in lines for fmt in formats]
                                for formats in (("csv", "table"), ("json",))]
                   for subcommand, lines in subcommands(commands).items()}
        scripts = [_RUN_LINES + "".join(f"run({[argv(*line) for line in batch]!r}, {_PACKAGE!r})\n"
                                        for batch in pair) for pair in batches.values()]
        got = {}
        for (subcommand, (first, second)), (ran, text, ran_json, every) in zip(
                batches.items(), fresh(*scripts)):
            result.text[subcommand], result.every[subcommand] = set(text), set(every)
            got.update(zip(first + second, ran + ran_json))
        for command in commands:
            result.entered[command] = {key for fmt in FORMATS
                                       for key in got[command, fmt][1] if key in known}
            result.rows[command] = _fresh_row(
                command, {fmt: (got[command, fmt][0], outs[command, fmt]) for fmt in FORMATS})
    return result


def _fresh_row(command: str, ran: dict):
    """``command``'s row, or what it raised, from (exit code or repr raised, out file) by format."""
    raised = [code for code, _ in ran.values() if isinstance(code, str)]
    if raised:
        return Raised(raised[0])
    try:
        return row_of(command, {fmt: (code, out.read_bytes() if out.exists() else None)
                                for fmt, (code, out) in ran.items()})
    except ValueError as error:  # exit codes that differ by format, or json that does not parse
        return error


def _in_package(name: str) -> bool:
    return name.partition(".")[0] == "succoeff"


def package_modules(run: CommandRun) -> dict[str, list[str]]:
    """subcommand -> the package modules it loads, from :func:`loaded`."""
    return {subcommand: sorted(filter(_in_package, every))
            for subcommand, every in run.every.items()}


def load_differences(run: CommandRun, subcommand: str, fmt: str) -> list[str]:
    """One line per way ``subcommand``'s lines in ``fmt`` break :data:`LOADS` or the load rules.

    ``run`` is what :func:`loaded` gives.  For ``"csv"`` the modules are
    those the lines load in csv and table; for ``"json"``, those they have
    loaded once they have also run in json.
    """
    modules = (run.text if fmt == "csv" else run.every)[subcommand]
    where = f"{subcommand} ({fmt})"
    package = set(filter(_in_package, modules))
    lines = []
    if package != LOADS[subcommand]:
        lines.append(f"{where} loads {', '.join(sorted(package))}; "
                     f"LOADS says {', '.join(sorted(LOADS[subcommand]))}")
    lines += [f"{where} loads {name}, which is not in the standard library"
              for name in sorted(modules - package)
              if name.partition(".")[0] not in sys.stdlib_module_names]
    lines += [f"{where} loads {name}" for name in sorted(NEVER_LOADED & modules)]
    # Only sample draws random numbers.
    if ("random" in modules) != (subcommand == "sample"):
        lines.append(f"{where} {'does not load' if subcommand == 'sample' else 'loads'} random")
    # Only --format json loads json.
    if ("json" in modules) != (fmt == "json"):
        lines.append(f"{where} {'does not load' if fmt == 'json' else 'loads'} json")
    return lines


def loaded_for_no_call(by_command, modules) -> list[str]:
    """One line per module that a subcommand loads and enters no function of.

    ``modules`` is what :func:`package_modules` gives for the command lines.
    """
    lines = []
    for subcommand, commands in subcommands(by_command).items():
        files = {path for command in commands for path, _ in by_command[command]}
        lines += [f"{subcommand} loads {name}, and enters none of its functions"
                  for name in modules[subcommand] if name not in LOADED_FOR_NO_CALL
                  and importlib.import_module(name).__file__ not in files]
    return lines


@cache
def every_command_run() -> CommandRun:
    """:func:`loaded` of every command line, run once per session for every test that reads it."""
    return loaded(COMMANDS)


# The contract child, after the runner: each microbenchmark of perfbench's
# layers runs once under traced(); then perfbench's Tracer is installed and
# three command lines, whose reports it reads, run through succoeff.cli.main,
# looked up on the module so that the tracer's wrapper runs.
_CONTRACT_LINES = """\
sys.dont_write_bytecode = True
sys.path.insert(0, {perfbench!r})
import layers
import tracer

layers._per_call_us = lambda fn: (fn(), 0.0)[1]  # one call per case
(timings, unmeasured), keys = traced(layers.microbenchmarks, {package!r})
hooks = tracer.Tracer()
hooks.install()
import succoeff.cli
codes = [succoeff.cli.main([*argv, "--format", "table", "--out", {out!r}])
         for argv in (["verify"], ["sweep", "--alphas", "0,0.5,2"], ["sample", "--samples", "20"])]
hooks.uninstall()
_, module, cls = tracer.COUNTED_INIT
print(([(target.module, target.attr) for target in tracer.TARGETS] + [(module, cls + ".__init__")],
       sorted(layers.MICROBENCHMARKS), sorted(timings), unmeasured, keys, sorted(hooks.absent),
       codes, dict(hooks.counters), sorted(set(span[0] for span in hooks.spans))))
"""


@cache
def benchmark_contract() -> BenchmarkContract:
    """:data:`BenchmarkContract` from one fresh interpreter under ``-S`` that writes no bytecode."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    [[printed]] = fresh(_RUN_LINES + _CONTRACT_LINES.format(
        perfbench=str(perfbench), package=_PACKAGE, out=os.devnull))
    return BenchmarkContract(*printed)


def test_library_only_is_what_no_command_enters():
    problems = differences(never_entered(every_command_run().entered))
    assert not problems, "\n".join(problems)


def test_each_loaded_module_has_a_function_the_subcommand_enters():
    run = every_command_run()
    problems = loaded_for_no_call(run.entered, package_modules(run))
    assert not problems, "\n".join(problems)


def test_package_import_is_lazy():
    # `import succoeff` loads no submodule; resolving every public name
    # loads them all, and still none of NEVER_LOADED.  One
    # interpreter takes the three snapshots, each of what it has loaded so
    # far; under -S, so that no module a .pth hook preloads goes unseen.
    [printed] = fresh(
        "import succoeff\nsnapshot()\nsuccoeff.verify.grid_optimize\nsnapshot()\n"
        "for name in succoeff.__all__:\n    getattr(succoeff, name)\nsnapshot()")
    bare, verify, every = map(set, printed)
    assert set(filter(_in_package, bare)) == {"succoeff"}
    assert "succoeff.verify" in verify
    assert "succoeff.verify" in every
    assert not NEVER_LOADED & every


def test_perfbench_group_is_what_perfbench_reaches():
    contract = benchmark_contract()
    reached = {f"{module.removeprefix('succoeff.')}.{attr}" for module, attr in contract.targets}
    by_command = set().union(*every_command_run().entered.values())
    reached |= {f.name for f in functions() if (f.path, f.first) in contract.entered}
    reached -= {f.name for f in functions() if (f.path, f.first) in by_command}
    assert sorted(PERFBENCH_REACHES) == sorted(reached)


def test_tracing_moves_no_byte(tmp_path):
    # The digest and libm tests read the rows of the traced fresh pass: for
    # one line of each subcommand, the row must be the one an untraced
    # in-process run gives.
    rows = every_command_run().rows
    for command, *_ in subcommands(COMMANDS).values():
        assert rows[command] == _row(command, tmp_path), command


# ------------------------------------------------------------------ script

def _report(by_command, modules) -> None:
    every = functions()
    for subcommand, commands in subcommands(by_command).items():
        hit = set().union(*(by_command[command] for command in commands))
        names = [f.name for f in every if (f.path, f.first) in hit]
        sys.stdout.write(f"{subcommand}: {len(commands)} command lines enter {len(names)} "
                         f"of {len(every)} functions\n    {', '.join(names)}\n")
        sys.stdout.write(f"    {'module':<28} {'compiled':>8} {'entered':>8} {'never':>8}\n")
        for module_name in modules[subcommand]:
            path = importlib.import_module(module_name).__file__
            lines = {was_hit: {line for f in every if f.path == path
                               and ((f.path, f.first) in hit) == was_hit
                               for line in range(f.first, f.last + 1)}
                     for was_hit in (True, False)}
            compiled = len(Path(path).read_text(encoding="utf-8").splitlines())
            sys.stdout.write(f"    {module_name:<28} {compiled:>8} "
                             f"{len(lines[True] - lines[False]):>8} {len(lines[False]):>8}\n")


if __name__ == "__main__":
    run = loaded(COMMANDS)
    by_command = run.entered
    _report(by_command, package_modules(run))
    unentered = never_entered(by_command)
    problems = differences(unentered)
    idle = loaded_for_no_call(by_command, package_modules(run))
    misloaded = [line for subcommand in subcommands(COMMANDS) for fmt in ("csv", "json")
                 for line in load_differences(run, subcommand, fmt)]
    for line in problems + idle + misloaded:
        sys.stdout.write(line + "\n")
    sys.stdout.write(f"{len(unentered)} functions no command enters; LIBRARY_ONLY declares "
                     f"{len(LIBRARY_ONLY)}{'' if problems else ', the same'}\n"
                     f"modules loaded for no call: {len(idle)}\n"
                     f"load differences from LOADS and the load rules: {len(misloaded)}\n")
    sys.exit(1 if problems or idle or misloaded else 0)
