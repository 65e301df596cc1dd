"""What the commands run: every function of ``src/succoeff`` that no command enters is declared.

Every command line of :mod:`test_outputs` runs in-process through
``cli.main`` once per format, under a ``sys.settrace`` hook that records
each ``def`` and ``lambda`` of the package that is entered.  The same pass
keeps each line's digest row for
``test_outputs.test_outputs_match_the_recorded_digests``, so the lines run
once in-process; tracing moves no byte of them.  The functions never
entered must be exactly :data:`LIBRARY_ONLY`, each listed with the reason it stays.  So code that
no command runs cannot arrive unnoticed: a change that adds some adds its
name here, and a change that deletes library-only code shrinks the tuple.
Its first group, :data:`PERFBENCH_REACHES`, must be exactly what the
benchmark in ``perfbench/`` reaches and no command enters.

The same lines also test what each subcommand loads, in one fresh
interpreter per subcommand, with ``site`` and under ``-S``; this process
hashes the files each line wrote there for
``test_outputs.test_digests_match_in_fresh_interpreters``.  The package
modules it loads must be exactly its entry of :data:`LOADS`, the one
statement of that rule, and every other module it loads must come from the
standard library, within the limits :func:`load_differences` states;
``test_cli.test_commands_load_only_what_they_run`` checks them, per
subcommand and format, against the one pass of :func:`every_command_loaded`.  Every
module of the package that a subcommand loads has a function that the
subcommand enters, except the modules of :data:`LOADED_FOR_NO_CALL`.  So a
module-level import that pulls in a module only for a name it never calls
fails here.

A function is keyed by its file and first line (a decorated ``def``
starts at its first decorator), which its code object carries on every
CPython.  Comprehensions are not functions here: CPython 3.12 inlines
them, so whether they have a code object of their own depends on the
version.  Every module of the package is imported before the hook goes
in, so only calls made while a command line runs count, not calls made
at import, and the result does not depend on what was imported first.

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
from test_outputs import COMMANDS, DIGESTS, _argv, _digest, _row, _row_or_error, _write_configs

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
    # The series type's accessors beside coeffs, used by the tests.
    "series.TruncatedSeries.order",
    "series.TruncatedSeries.__getitem__",
    # Named constructors beside ClassParams.spirallike, which perfbench resolves.
    "families.ClassParams.convex",
    "families.ClassParams.ozaki",
    # The series type's own algebra, used by the tests; it leaves src/ with
    # the rest of series.py.
    "series.TruncatedSeries.__len__",
    "series.TruncatedSeries.__repr__",
    "series.TruncatedSeries._check_order",
    "series.TruncatedSeries.__add__",
    "series.TruncatedSeries.__sub__",
    "series.TruncatedSeries.antiderivative",
    "series.TruncatedSeries.shift_up",
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
# dataclasses.  Without site, no command loads pathlib or typing either;
# with it, a .pth hook may import them, and random, before a command starts.
NEVER_LOADED = frozenset({"dataclasses", "inspect"})
NEVER_LOADED_WITHOUT_SITE = frozenset({"pathlib", "typing"})

Function = namedtuple("Function", "name path first last")
Traced = namedtuple("Traced", "entered rows")
FreshRun = namedtuple("FreshRun", "text every failures digests")


def _modules():
    """(name, module) of every module of the package, each imported."""
    for path in sorted(Path(succoeff.__file__).parent.glob("*.py")):
        module = succoeff if path.stem == "__init__" else importlib.import_module(
            f"succoeff.{path.stem}")
        yield path.stem, module


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
    for stem, module in _modules():
        path = module.__file__
        tree = ast.parse(Path(path).read_text(encoding="utf-8"))
        found.extend(Function(name, path, first, last)
                     for name, first, last in _defs(tree, f"{stem}."))
    return tuple(found)


def _entered_by(run) -> tuple[set[tuple[str, int]], object]:
    """(file, first line) of each package function ``run()`` enters, and what it returns.

    The tracer that was installed before, if any, is put back.
    """
    files = {module.__file__ for _, module in _modules()}
    keys = set()

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename in files and (code.co_name == "<lambda>"
                                          or not code.co_name.startswith("<")):
            keys.add((code.co_filename, code.co_firstlineno))
        # No local tracer: only call events are paid for.
        return None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return keys, result


def traced(commands) -> Traced:
    """What each command line enters, and its digest row, from one traced run of each.

    Each line runs through :func:`test_outputs._row`, in csv, json and
    table.  ``entered`` maps it to the (file, first line) of each package
    function it enters, ``rows`` to its row or to what ``_row`` raised.
    """
    result = Traced({}, {})
    with tempfile.TemporaryDirectory() as tmp:
        for command in commands:
            result.entered[command], result.rows[command] = _entered_by(
                lambda: _row_or_error(command, Path(tmp)))
    return result


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


def new_modules(code: str, *flags: str) -> list[set[str]]:
    """The modules a fresh interpreter with ``flags`` has loaded at each ``snapshot()`` of ``code``.

    ``code`` runs after ``before = set(sys.modules)``; ``snapshot()`` prints
    what has been loaded since.  Each line the child prints is a list of
    strings, returned as a set.  The child finds the package through
    PYTHONPATH only: it is not installed, and ``-S`` skips site-packages.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(succoeff.__file__).resolve().parents[1])}
    script = ("import sys\nbefore = set(sys.modules)\n\n"
              "def snapshot():\n    print(sorted(set(sys.modules) - before))\n\n" + code)
    proc = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True,
                          text=True, env=env, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{[sys.executable, *flags]} failed:\n{proc.stderr}")
    return [set(ast.literal_eval(line)) for line in proc.stdout.splitlines()]


# The child's runner: each line that raises (SystemExit included) or exits
# with another code than DIGESTS records is kept, as _row_or_error keeps it
# in-process, and the rest still run.  It imports nothing.
_RUN_LINES = """\
from succoeff.cli import main
failures = []

def run(lines):
    for line, argv, code in lines:
        try:
            got = main(argv)
        except (Exception, SystemExit) as error:
            failures.append(f"{line}: raised {error!r}")
        else:
            if got != code:
                failures.append(f"{line}: exited {got!r}, not {code}")

"""


def loaded(commands) -> dict[tuple[str, str], FreshRun]:
    """(subcommand, "site" or "-S") -> what a fresh interpreter loads to run its lines, and digests.

    ``text`` is what the lines load in csv and table, ``every`` what they
    have loaded once they have also run in json.  ``failures`` names each
    line, with its format, that raised or did not exit as
    :data:`test_outputs.DIGESTS` records.  Each line writes its own
    ``--out`` file per format; this process hashes them into ``digests``
    (line -> csv, json and table digests, None for a file not written) once
    the child has exited.  The child imports nothing of the tests, nor
    hashlib, so every module it loads is one the commands load.
    """
    by_run = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _write_configs(tmp)
        outs = {(command, fmt): tmp / f"{index}.{fmt}"
                for index, command in enumerate(commands) for fmt in ("csv", "json", "table")}

        def lines_in(lines, formats):
            return [(f"{command} --format {fmt}", _argv(command, fmt, tmp, outs[command, fmt]),
                     DIGESTS[command][0]) for command in lines for fmt in formats]

        for subcommand, lines in subcommands(commands).items():
            code = (_RUN_LINES + f"run({lines_in(lines, ('csv', 'table'))!r})\nsnapshot()\n"
                    f"run({lines_in(lines, ('json',))!r})\nsnapshot()\nprint(failures)\n")
            for setting, flags in (("site", ()), ("-S", ("-S",))):
                for out in outs.values():
                    out.unlink(missing_ok=True)
                text, every, failures = new_modules(code, *flags)
                digests = {command: tuple(_digest(outs[command, fmt])
                                          if outs[command, fmt].exists() else None
                                          for fmt in ("csv", "json", "table"))
                           for command in lines}
                by_run[subcommand, setting] = FreshRun(text, every, failures, digests)
    return by_run


def _in_package(name: str) -> bool:
    return name.partition(".")[0] == "succoeff"


def package_modules(loads) -> dict[str, list[str]]:
    """subcommand -> the package modules it loads with site, from :func:`loaded`."""
    return {subcommand: sorted(filter(_in_package, run.every))
            for (subcommand, setting), run in loads.items() if setting == "site"}


def load_differences(loads, subcommand: str, fmt: str) -> list[str]:
    """One line per way ``subcommand``'s runs in ``fmt`` break :data:`LOADS` or the load rules.

    ``loads`` is what :func:`loaded` gives.  For ``"csv"`` the modules are
    those the lines load in csv and table; for ``"json"``, those they have
    loaded once they have also run in json.
    """
    lines = []
    for setting in ("site", "-S"):
        run = loads[subcommand, setting]
        modules = run.text if fmt == "csv" else run.every
        where = f"{subcommand} ({setting}, {fmt})"
        package = set(filter(_in_package, modules))
        if package != LOADS[subcommand]:
            lines.append(f"{where} loads {', '.join(sorted(package))}; "
                         f"LOADS says {', '.join(sorted(LOADS[subcommand]))}")
        lines += [f"{where} loads {name}, which is not in the standard library"
                  for name in sorted(modules - package)
                  if name.partition(".")[0] not in sys.stdlib_module_names]
        never = NEVER_LOADED | (NEVER_LOADED_WITHOUT_SITE if setting == "-S" else set())
        lines += [f"{where} loads {name}" for name in sorted(never & modules)]
        # Only sample draws random numbers; with site, a .pth file may load random first.
        if setting == "-S" and ("random" in modules) != (subcommand == "sample"):
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
def every_command_traced():
    """:func:`traced` of every command line, run once for the tests here and in test_outputs."""
    return traced(COMMANDS)


@cache
def every_command_loaded():
    """:func:`loaded` of every command line, run once for test_cli, test_outputs and here."""
    return loaded(COMMANDS)


def test_library_only_is_what_no_command_enters():
    problems = differences(never_entered(every_command_traced().entered))
    assert not problems, "\n".join(problems)


def test_each_loaded_module_has_a_function_the_subcommand_enters():
    problems = loaded_for_no_call(every_command_traced().entered,
                                  package_modules(every_command_loaded()))
    assert not problems, "\n".join(problems)


def test_package_import_is_lazy():
    # `import succoeff` loads no submodule; resolving every public name
    # loads them all, and still neither dataclasses nor inspect.
    [bare] = new_modules("import succoeff\nsnapshot()")
    assert set(filter(_in_package, bare)) == {"succoeff"}
    [verify] = new_modules("import succoeff\nsuccoeff.verify.grid_optimize\nsnapshot()")
    assert "succoeff.verify" in verify
    [every] = new_modules("import succoeff\n"
                          "for name in succoeff.__all__:\n    getattr(succoeff, name)\nsnapshot()")
    assert "succoeff.verify" in every
    assert not NEVER_LOADED & every


def test_perfbench_group_is_what_perfbench_reaches(monkeypatch, perfbench):
    tracer, layers = perfbench("tracer"), perfbench("layers")
    reached = {f"{target.module.removeprefix('succoeff.')}.{target.attr}"
               for target in tracer.TARGETS}
    _, module, cls = tracer.COUNTED_INIT
    reached.add(f"{module.removeprefix('succoeff.')}.{cls}.__init__")
    # Each case runs once, as test_benchmark_names_resolve runs it, and every
    # public name resolves afresh, as in the fresh process perfbench runs.
    def once(fn):
        fn()
        return 0.0

    monkeypatch.setattr(layers, "_per_call_us", once)
    for name in succoeff.__all__:
        monkeypatch.delitem(vars(succoeff), name, raising=False)
    hit, _ = _entered_by(layers.microbenchmarks)
    by_command = set().union(*every_command_traced().entered.values())
    reached |= {f.name for f in functions() if (f.path, f.first) in hit}
    reached -= {f.name for f in functions() if (f.path, f.first) in by_command}
    assert sorted(PERFBENCH_REACHES) == sorted(reached)


def test_the_previous_tracer_is_restored():
    def sentinel(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(sentinel)
    try:
        traced(COMMANDS[:1])
        assert sys.gettrace() is sentinel
    finally:
        sys.settrace(previous)


def test_tracing_moves_no_byte(tmp_path):
    # The in-process digest test reads the traced rows: for one line of each
    # subcommand, the row must be the one an untraced run gives.
    rows = every_command_traced().rows
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
            path = sys.modules[module_name].__file__
            lines = {was_hit: {line for f in every if f.path == path
                               and ((f.path, f.first) in hit) == was_hit
                               for line in range(f.first, f.last + 1)}
                     for was_hit in (True, False)}
            compiled = len(Path(path).read_text(encoding="utf-8").splitlines())
            sys.stdout.write(f"    {module_name:<28} {compiled:>8} "
                             f"{len(lines[True] - lines[False]):>8} {len(lines[False]):>8}\n")


if __name__ == "__main__":
    by_command = traced(COMMANDS).entered
    loads = loaded(COMMANDS)
    _report(by_command, package_modules(loads))
    unentered = never_entered(by_command)
    problems = differences(unentered)
    idle = loaded_for_no_call(by_command, package_modules(loads))
    misloaded = [line for subcommand in subcommands(COMMANDS) for fmt in ("csv", "json")
                 for line in load_differences(loads, subcommand, fmt)]
    for line in problems + idle + misloaded:
        sys.stdout.write(line + "\n")
    sys.stdout.write(f"{len(unentered)} functions no command enters; LIBRARY_ONLY declares "
                     f"{len(LIBRARY_ONLY)}{'' if problems else ', the same'}\n"
                     f"modules loaded for no call: {len(idle)}\n"
                     f"load differences from LOADS and the load rules: {len(misloaded)}\n")
    sys.exit(1 if problems or idle or misloaded else 0)
