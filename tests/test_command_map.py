"""What the commands run: every function of ``src/succoeff`` that no command enters is declared.

Every command line of :mod:`test_outputs` runs in-process through
``cli.main`` once per format, as the digest table runs it, under a
``sys.settrace`` hook that records each ``def`` and ``lambda`` of the
package that is entered.  The functions never entered must be exactly
:data:`LIBRARY_ONLY`, each listed with the reason it stays.  So code that
no command runs cannot arrive unnoticed: a change that adds some adds its
name here, and a change that deletes library-only code shrinks the tuple.

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
it never enters.  With ``--check`` it prints only the comparison with
:data:`LIBRARY_ONLY` and exits 0 when they are equal; it needs no pytest,
so the map can be checked under any interpreter the package runs on.
"""

import ast
import importlib
import os
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

import succoeff
from test_outputs import COMMANDS, _row

# The functions of src/succoeff that no command line enters, by module and
# qualified name (a lambda is named by the variable it is assigned to).
LIBRARY_ONLY = (
    # perfbench resolves these by name (tracer.TARGETS, COUNTED_INIT,
    # layers.microbenchmarks), so they stay until its spans are re-declared.
    "series._dot",
    "series.TruncatedSeries.__init__",
    "series.TruncatedSeries.coeffs",
    "series.TruncatedSeries.order",
    "series.TruncatedSeries.__len__",
    "series.TruncatedSeries.__getitem__",
    "series.TruncatedSeries.__repr__",
    "series.TruncatedSeries._check_order",
    "series.TruncatedSeries.__add__",
    "series.TruncatedSeries.__sub__",
    "series.TruncatedSeries.__neg__",
    "series.TruncatedSeries.__mul__",
    "series.TruncatedSeries.__rmul__",
    "series.TruncatedSeries.exp",
    "series.TruncatedSeries.integrate_kernel",
    "series.TruncatedSeries.antiderivative",
    "series.TruncatedSeries.derivative",
    "series.TruncatedSeries.shift_up",
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
    # The tests use these as references for what the commands compute.
    "caratheodory.lz_c2",
    "families.coeffs_from_c",
    "families.coeffs_from_series",
    "bounds.t_factor",
    "families.ClassParams.convex",
    "families.ClassParams.ozaki",
    "caratheodory.AtomicHerglotzRep.from_atoms",
    "caratheodory.AtomicHerglotzRep.n_atoms",
    "caratheodory.AtomicHerglotzRep.atoms",
    # They check what a library caller passes; the command line checks its
    # flags before any of them could be reached.
    "families.Family._missing_",
    "bounds.Which._missing_",
    "bounds.ExtremalName._missing_",
    "caratheodory.AtomicHerglotzRep._make",
    "bounds.ExtremalDescriptor._make",
    "bounds.BoundInterval._make",
    "verify.FunctionalSpec._make",
    "__init__.__getattr__",
    "__init__.__dir__",
)

Function = namedtuple("Function", "name path first last")


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


def functions() -> list[Function]:
    """Every def and lambda of the package, in module and line order."""
    found = []
    for stem, module in _modules():
        path = module.__file__
        tree = ast.parse(Path(path).read_text(encoding="utf-8"))
        found.extend(Function(name, path, first, last)
                     for name, first, last in _defs(tree, f"{stem}."))
    return found


def entered(commands) -> dict[str, set[tuple[str, int]]]:
    """command line -> (file, first line) of each package function it enters.

    Each line runs through :func:`test_outputs._row`, in csv, json and
    table.  The tracer that was installed before, if any, is put back.
    """
    files = {f.path for f in functions()}

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename in files and (code.co_name == "<lambda>"
                                          or not code.co_name.startswith("<")):
            keys.add((code.co_filename, code.co_firstlineno))
        # No local tracer: only call events are paid for.
        return None

    by_command = {}
    previous = sys.gettrace()
    with tempfile.TemporaryDirectory() as tmp:
        for command in commands:
            keys = set()
            sys.settrace(trace)
            try:
                _row(command, Path(tmp))
            finally:
                sys.settrace(previous)
            by_command[command] = keys
    return by_command


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


def test_library_only_is_what_no_command_enters():
    problems = differences(never_entered(entered(COMMANDS)))
    assert not problems, "\n".join(problems)


def test_the_previous_tracer_is_restored():
    def sentinel(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(sentinel)
    try:
        entered(COMMANDS[:1])
        assert sys.gettrace() is sentinel
    finally:
        sys.settrace(previous)


# ------------------------------------------------------------------ script

def _loaded(commands) -> list[str]:
    """The package modules a fresh interpreter loads to run ``commands``."""
    code = ("import sys, tempfile\nfrom pathlib import Path\nfrom test_outputs import _row\n"
            "with tempfile.TemporaryDirectory() as tmp:\n"
            f"    for command in {list(commands)!r}:\n"
            "        _row(command, Path(tmp))\n"
            "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'succoeff'))\n")
    path = [Path(succoeff.__file__).resolve().parents[1], Path(__file__).resolve().parent]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, path))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=600)
    return proc.stdout.split()


def _report(by_command) -> None:
    every = functions()
    subcommands = {}
    for command in by_command:
        subcommands.setdefault(command.split()[0], []).append(command)
    for subcommand, commands in subcommands.items():
        hit = set().union(*(by_command[command] for command in commands))
        names = [f.name for f in every if (f.path, f.first) in hit]
        sys.stdout.write(f"{subcommand}: {len(commands)} command lines enter {len(names)} "
                         f"of {len(every)} functions\n    {', '.join(names)}\n")
        sys.stdout.write(f"    {'module':<28} {'compiled':>8} {'entered':>8} {'never':>8}\n")
        for module_name in _loaded(commands):
            path = sys.modules[module_name].__file__
            lines = {was_hit: {line for f in every if f.path == path
                               and ((f.path, f.first) in hit) == was_hit
                               for line in range(f.first, f.last + 1)}
                     for was_hit in (True, False)}
            compiled = len(Path(path).read_text(encoding="utf-8").splitlines())
            sys.stdout.write(f"    {module_name:<28} {compiled:>8} "
                             f"{len(lines[True] - lines[False]):>8} {len(lines[False]):>8}\n")


if __name__ == "__main__":
    check = sys.argv[1:] == ["--check"]
    by_command = entered(COMMANDS)
    if not check:
        _report(by_command)
    unentered = never_entered(by_command)
    problems = differences(unentered)
    for line in problems:
        sys.stdout.write(line + "\n")
    sys.stdout.write(f"{len(unentered)} functions no command enters; LIBRARY_ONLY declares "
                     f"{len(LIBRARY_ONLY)}{'' if problems else ', the same'}\n")
    sys.exit(1 if check and problems else 0)
