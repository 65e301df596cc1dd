"""Byte-identical outputs: every command's csv, json and table bytes and exit code are pinned.

Each command line below runs through ``cli.main`` once per format, and
the first 16 hex digits of the SHA-256 of what it wrote to ``--out``, with
its exit code, must match the recorded table.  A ``--config`` row
names a file of :data:`CONFIGS`, written from its fixed text before the
row runs, so the bytes of the config reader are pinned as well.  A change that is meant
to keep every output (a refactor, a speed-up) leaves the table alone; one
that changes outputs on purpose re-records it and says which rows moved.
The table was recorded with CPython 3.11 on x86-64 Linux; floats are
printed to 17 significant digits, so a libm whose cos or exp differs in
the last bit would change digests.

:func:`run_cli` is the one way a test runs a command line in-process.  It
appends ``--format F --out P``, removes ``P`` before the run, and returns
the exit code with the bytes the line wrote, or ``None`` when it wrote
nothing, so no line can show another's output.  :func:`cli_rows` parses
those bytes into rows with :func:`parse_rows`, the parser that the tests
which check stdout use too.  :func:`_row` is one line's row of the table,
from its three runs, followed by the ``passed`` cells of its json rows; a
digest is ``None`` for a format the line wrote nothing in.
:func:`_row_or_error` returns what a line raised instead, so that one line
cannot fail the others.  This module imports neither pytest nor numpy, so
the script below runs without them.

Tier-1 runs the lines once per format, in the one pass of
:mod:`test_command_map`: a fresh interpreter per subcommand, under ``-S``
(pyproject declares no dependencies, so the package must give every row
without site-packages).  That pass records what each line loads and
enters, and this process builds each line's row with :func:`row_of` from
the files the line wrote; :func:`test_outputs_match_the_recorded_digests`
checks its digests, and ``test_verdict_gates`` its ``passed`` cells.
In-process, the lines run in the ``--check`` script below and in that
module's patched runs.

Re-record with ``PYTHONPATH=src python tests/test_outputs.py`` from the
root of a checkout, and paste its output over ``DIGESTS``.  With
``--check`` the script compares every row with the table instead, names
each line that raises as moved, and exits 0 only when all match.  It
needs no pytest, so the table can be checked under any interpreter the
package runs on; since Python 3.12, ``sum`` adds floats with
compensation, so a ``sum`` where the package adds left to right shows
there as a moved digest.  Under pytest,
:func:`test_digests_match_under_other_interpreters` runs ``--check``
under each other CPython 3.10-3.13 it finds that starts.
"""

import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import succoeff
import succoeff.cli as cli

_POINTS = [
    "--family spirallike --alpha 0.25 --gamma 0.5",
    "--family spirallike --alpha 0 --gamma 0",
    "--family spirallike --alpha 0.6 --gamma=-pi/3",
    "--family convex --alpha 0.5 --gamma 1.4",
    "--family convex --alpha 0.3 --gamma 0",
    "--family ozaki --lambda 0.3",
    "--family ozaki --lambda 0.5",
]
# The branch edges of the |a3|-|a2| lower endpoint: c* = 2 (a point mass),
# c* = 2 - 1.3e-13 (two atoms) on the lam <= 1/2 side, and T = 1.250035
# and T = 1.249871 on either side of the convex erratum's T = 5/4.
_EDGE_POINTS = [
    "--family ozaki --lambda 0.75",
    "--family ozaki --lambda 0.4999999999999",
    "--family convex --alpha 0 --gamma 1.3024",
    "--family convex --alpha 0 --gamma 1.3025",
]
_SAMPLE_POINTS = [
    "--family spirallike --alpha 0.25 --gamma 0.5",
    "--family convex --alpha 0.5 --gamma 1.4",
    "--family ozaki --lambda 0.5",
]

COMMANDS = [
    *(f"{command} {point}" for command in ("bounds", "extremal", "verify") for point in _POINTS),
    *(f"{command} {point}" for command in ("bounds", "extremal", "verify")
      for point in _EDGE_POINTS),
    "sweep --family spirallike --alphas 0,0.5,2 --gammas=-pi/6,pi/6,3",
    "sweep --family convex --alphas 0,0.5,2 --gammas=-pi/6,pi/6,3",
    "sweep --family ozaki --lambdas 0.25,0.75,3",
    *(f"sample {point} --samples 300 --atoms-max {atoms} --seed {seed}"
      for point in _SAMPLE_POINTS for seed, atoms in ((7, 1), (8, 6), (9, 64))),
    "sample --family spirallike --alpha 0 --gamma 0 --samples 300 --seed 10",
    "bounds --config bounds.cfg",
    "verify --config verify.cfg",
    "sweep --config sweep.cfg",
    "extremal --config extremal.cfg --alpha 0.25",
    "sample --config sample.cfg",
]

# The --config files by name.  Between them they hold a comment, blank and
# indented lines, a byte order mark, upper-case keys, spaces around "=",
# a key spelled with "_", a pi fraction, keys of another subcommand (read
# by that one only) and a key that the command line overrides.
CONFIGS = {
    "bounds.cfg": "# the Ozaki family\n\nfamily = ozaki\n  lambda=0.3\nseed = 5\n",
    "verify.cfg": "\ufeffFAMILY=convex\nALPHA = 0.5\nGamma = 1.4\n",
    "sweep.cfg": "family=spirallike\nalphas = 0, 0.5, 2\ngammas = -pi/6,pi/6,3\n",
    "extremal.cfg": "family = spirallike\nalpha = 0.6\ngamma = -pi/3\nformat = json\n",
    "sample.cfg": ("family=convex\nalpha=0.3\ngamma=pi/8\nsamples=300\natoms_max = 6\n"
                   "seed=11\norder=8\nalphas=0,1,3\n"),
}

# command line -> (exit code, csv digest, json digest, table digest)
DIGESTS = {
    "bounds --family spirallike --alpha 0.25 --gamma 0.5":
        (0, "70b934eef9d485fb", "8198bd05500b5abd", "228c7d84aecf4425"),
    "bounds --family spirallike --alpha 0 --gamma 0":
        (0, "b0d167991e271f6b", "cdd5e2079659b377", "27ad933f4e22f76a"),
    "bounds --family spirallike --alpha 0.6 --gamma=-pi/3":
        (0, "ef7a7c2c0402bf1d", "1fc1ad705a5ae269", "014174f4b5ffd438"),
    "bounds --family convex --alpha 0.5 --gamma 1.4":
        (0, "5b7129c3eb13f035", "73c748e1077b661d", "9a5a552cb415a3fc"),
    "bounds --family convex --alpha 0.3 --gamma 0":
        (0, "e98ec2e262c29faf", "6153c399841e0120", "0859c9bafa710539"),
    "bounds --family ozaki --lambda 0.3":
        (0, "8e809a596c784daf", "166e989808ded3f3", "c2f8d9683da212d9"),
    "bounds --family ozaki --lambda 0.5":
        (0, "6b2b636772c03c92", "766b3d47b82ba64b", "42d556dfa5778f5c"),
    "extremal --family spirallike --alpha 0.25 --gamma 0.5":
        (0, "fdc1c72ee9949eee", "a470ab052c75b2dd", "8e1c9044bb17e964"),
    "extremal --family spirallike --alpha 0 --gamma 0":
        (0, "63d9a99e38a773c5", "9363d56dca8e5873", "21b05bdf3b5a3527"),
    "extremal --family spirallike --alpha 0.6 --gamma=-pi/3":
        (0, "bc9b26b8ea162641", "9146f4173ddc06a1", "c67fbcd12b60111c"),
    "extremal --family convex --alpha 0.5 --gamma 1.4":
        (0, "41ac8249c36c2346", "75f7013aa0c33cb5", "9e7be40f42e5ef8a"),
    "extremal --family convex --alpha 0.3 --gamma 0":
        (0, "2e36045218d96eb9", "d935d94dd3465705", "033bb38600bf332d"),
    "extremal --family ozaki --lambda 0.3":
        (0, "1b0ed46398c565b7", "289feaec23ebe569", "01f8a00d4dfb0b80"),
    "extremal --family ozaki --lambda 0.5":
        (0, "b3c4a07d13953fcc", "dc8227194a520e48", "97060164e882044e"),
    "verify --family spirallike --alpha 0.25 --gamma 0.5":
        (0, "46b6ca5dc1fab1f6", "3968f331a0d6a67c", "29f81e4b37d0ccfe"),
    "verify --family spirallike --alpha 0 --gamma 0":
        (0, "93279c01a4e1e463", "0e80281dd7286e24", "8aff6c493775062c"),
    "verify --family spirallike --alpha 0.6 --gamma=-pi/3":
        (0, "5b3a9efcdd9b7b13", "a6467e14c9f78484", "589568f0cb8e10f1"),
    "verify --family convex --alpha 0.5 --gamma 1.4":
        (0, "0e6bf14ed26d94fe", "12fcfd5d6079ae74", "45e21a69f226160e"),
    "verify --family convex --alpha 0.3 --gamma 0":
        (0, "d4b304938211b01c", "028e9237f7eecf6f", "83ee044069247745"),
    "verify --family ozaki --lambda 0.3":
        (0, "5da73654f085dc7b", "bb3ee19721e5740c", "cce735642f4b7c57"),
    "verify --family ozaki --lambda 0.5":
        (0, "7090000424b29664", "fa0d1e3d9feb8880", "0cc199f063fa3017"),
    "bounds --family ozaki --lambda 0.75":
        (0, "815b3c7737cc0e7b", "daf4aa0c15b2c7b9", "89f1982e08f52ca7"),
    "bounds --family ozaki --lambda 0.4999999999999":
        (0, "212a5a7e9a80ace2", "d6bc430b06c2629d", "f4249e1ac475fb25"),
    "bounds --family convex --alpha 0 --gamma 1.3024":
        (0, "221bc0d602ca02e5", "031516ee3dc051af", "40818f9c348bff6d"),
    "bounds --family convex --alpha 0 --gamma 1.3025":
        (0, "01d3d78e85bd3133", "4eaf9b5a09ebd17d", "58c4314a80c5823e"),
    "extremal --family ozaki --lambda 0.75":
        (0, "b9cecdcdd2e465c4", "1143bc7b472f0c35", "e039025ba877f877"),
    "extremal --family ozaki --lambda 0.4999999999999":
        (0, "8229072e27143204", "0e17ccde7ec454a9", "5c90f871f9a33dbd"),
    "extremal --family convex --alpha 0 --gamma 1.3024":
        (0, "b7e9e5a75103bfe6", "ace98826d3bb3e13", "da8024fd5395e8f5"),
    "extremal --family convex --alpha 0 --gamma 1.3025":
        (0, "c695c2005ca34b73", "f84a13c9421cc41c", "c9b8cdd2b0b0589a"),
    "verify --family ozaki --lambda 0.75":
        (0, "496a88d2bc7ad36c", "af96e7f9e27161d5", "44b3fc3bf1cfd11b"),
    "verify --family ozaki --lambda 0.4999999999999":
        (0, "dd978d4382dbec82", "ea7d9dd70c2e7389", "ad5fd8e7b1949eb0"),
    "verify --family convex --alpha 0 --gamma 1.3024":
        (0, "7ca46a86e33ef0f9", "799063b1ee5b4b37", "cce8d930b7034f14"),
    "verify --family convex --alpha 0 --gamma 1.3025":
        (0, "01b898ef71f2ad59", "00bd439c1a3d4c4e", "06928e3baccd463a"),
    "sweep --family spirallike --alphas 0,0.5,2 --gammas=-pi/6,pi/6,3":
        (0, "836a77fea6c74bea", "272e5235a7eef346", "a5ce5a98f93aecc9"),
    "sweep --family convex --alphas 0,0.5,2 --gammas=-pi/6,pi/6,3":
        (0, "57965b2430bc7a1f", "0fb1b0b2b17e5433", "d2de25f84d605392"),
    "sweep --family ozaki --lambdas 0.25,0.75,3":
        (0, "47732fa44034588f", "b23710b6325068e8", "57bf18c028990c65"),
    "sample --family spirallike --alpha 0.25 --gamma 0.5 --samples 300 --atoms-max 1 --seed 7":
        (0, "5b075583f70df767", "ca121cd9c0b61946", "805d20d0336ee86f"),
    "sample --family spirallike --alpha 0.25 --gamma 0.5 --samples 300 --atoms-max 6 --seed 8":
        (0, "d2434ee44499496d", "f1a37272610d144d", "0967e30d01d8cb9b"),
    "sample --family spirallike --alpha 0.25 --gamma 0.5 --samples 300 --atoms-max 64 --seed 9":
        (0, "7fcfbb3abcfbf1f6", "a8a5db88b0e66e43", "b87d17ee88374a47"),
    "sample --family convex --alpha 0.5 --gamma 1.4 --samples 300 --atoms-max 1 --seed 7":
        (0, "2c2ca6d32e0def0b", "5e803340b7911d53", "d1a87baa5607cf40"),
    "sample --family convex --alpha 0.5 --gamma 1.4 --samples 300 --atoms-max 6 --seed 8":
        (0, "39965012b715b2dd", "b360b1c0b04ece0e", "e3049b2ad4ef2e72"),
    "sample --family convex --alpha 0.5 --gamma 1.4 --samples 300 --atoms-max 64 --seed 9":
        (0, "5f2574be76ec3e3a", "c02c36de6e335af4", "e3121ddaa005bcd6"),
    "sample --family ozaki --lambda 0.5 --samples 300 --atoms-max 1 --seed 7":
        (0, "033d653ed6d21e1e", "861aa692fc8a0826", "cded4156d63972f9"),
    "sample --family ozaki --lambda 0.5 --samples 300 --atoms-max 6 --seed 8":
        (0, "90f03d5cbbe5902e", "77ce4f7e01f5b59b", "5823a26807a86a52"),
    "sample --family ozaki --lambda 0.5 --samples 300 --atoms-max 64 --seed 9":
        (0, "8bafa341dc8535e8", "eb54a4035ea8577c", "30adf60f897f418b"),
    "sample --family spirallike --alpha 0 --gamma 0 --samples 300 --seed 10":
        (0, "64a1de2ca0dfa601", "74e2d6fffa0f6a36", "d7a58924c9a6a6b6"),
    "bounds --config bounds.cfg":
        (0, "8e809a596c784daf", "166e989808ded3f3", "c2f8d9683da212d9"),
    "verify --config verify.cfg":
        (0, "0e6bf14ed26d94fe", "12fcfd5d6079ae74", "45e21a69f226160e"),
    "sweep --config sweep.cfg":
        (0, "836a77fea6c74bea", "272e5235a7eef346", "a5ce5a98f93aecc9"),
    "extremal --config extremal.cfg --alpha 0.25":
        (0, "1165f6361ef010ff", "c65ea052fd5e38f3", "65dba8995aa0d281"),
    "sample --config sample.cfg":
        (0, "40dc3f73d04dc27e", "3f223e198ec658e5", "24ff217776eb8959"),
}


FORMATS = ("csv", "json", "table")


def _argv(command: str, tmp: Path) -> list[str]:
    """``command``'s argv; each file of :data:`CONFIGS` it names is written into ``tmp``."""
    argv = shlex.split(command)
    for index, arg in enumerate(argv):
        if arg in CONFIGS:
            argv[index] = str(tmp / arg)
            (tmp / arg).write_text(CONFIGS[arg], encoding="utf-8", newline="\n")
    return argv


def out_flags(fmt: str, out) -> list[str]:
    """The flags that send a command line's output to the file ``out`` in ``fmt``."""
    return ["--format", fmt, "--out", str(out)]


def run_cli(argv: list[str], fmt: str, tmp: Path) -> tuple[int, bytes | None]:
    """(exit code, bytes written) of ``argv`` run in-process with ``--format fmt``.

    The line writes to ``tmp / "out.<fmt>"``, removed before the run, so the
    bytes are None when the line wrote nothing.  ``cli.main`` is looked up
    at each call, so a wrapper set on it runs.
    """
    out = tmp / f"out.{fmt}"
    out.unlink(missing_ok=True)
    code = cli.main([*argv, *out_flags(fmt, out)])
    return code, out.read_bytes() if out.exists() else None


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def parse_rows(text: str, fmt: str) -> list[dict]:
    """The rows of a command's csv or json output, each a dict in column order.

    CSV cells stay strings.  JSON must be strict: no NaN, Infinity or -Infinity.
    """
    if fmt == "json":
        return json.loads(text, parse_constant=_reject_constant)
    header, *lines = text.splitlines()
    columns = header.split(",")
    return [dict(zip(columns, line.split(","))) for line in lines]


def cli_rows(argv: list[str], tmp: Path, fmt: str = "csv") -> tuple[int, list[dict] | None]:
    """(exit code, rows written) of :func:`run_cli`; the rows are None when it wrote nothing."""
    code, data = run_cli(argv, fmt, tmp)
    return code, None if data is None else parse_rows(data.decode("utf-8"), fmt)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _row(command: str, tmp: Path, formats=FORMATS) -> tuple:
    """One command line's exit code, its digest in each format, and its json rows' passed cells.

    A digest is None where the line wrote nothing, and so are the cells,
    which are also None when ``formats`` has no json.  With the default
    ``formats``, the first four fields are the line's row of :data:`DIGESTS`.
    """
    argv = _argv(command, tmp)
    return row_of(command, {fmt: run_cli(argv, fmt, tmp) for fmt in formats})


def row_of(command: str, written: dict) -> tuple:
    """:func:`_row` of ``command`` from its (exit code, bytes written) in each format it ran in."""
    codes = [code for code, _ in written.values()]
    if len(set(codes)) != 1:
        raise ValueError(f"{command}: {', '.join(written)} exit {codes}")
    digests = [None if data is None else _digest(data) for _, data in written.values()]
    _, json_out = written.get("json", (None, None))
    passed = None if json_out is None else tuple(
        row.get("passed") for row in parse_rows(json_out.decode("utf-8"), "json"))
    return (codes[0], *digests, passed)


def _row_or_error(command: str, tmp: Path, formats=FORMATS):
    """:func:`_row`, or what it raised, so that one line cannot fail the others."""
    try:
        return _row(command, tmp, formats)
    # argparse exits on a flag it rejects.
    except (Exception, SystemExit) as error:
        return error


# The interpreters the table is checked under; pyproject asks for >= 3.10.
_VERSIONS = ("3.10", "3.11", "3.12", "3.13")


def pytest_generate_tests(metafunc):
    # Parametrized here rather than by a mark, so that the script below
    # runs without pytest.
    if "command" in metafunc.fixturenames:
        metafunc.parametrize("command", COMMANDS)
    if "version" in metafunc.fixturenames:
        metafunc.parametrize("version", _VERSIONS)


def test_table_covers_the_commands():
    assert list(DIGESTS) == COMMANDS


def test_outputs_match_the_recorded_digests(command):
    from test_command_map import every_command_run  # it imports this module

    row = every_command_run().rows[command]
    if isinstance(row, BaseException):
        raise row
    assert row[:4] == DIGESTS[command]


def _interpreter(version: str) -> str | None:
    """A CPython ``version`` that starts: ``python<version>`` on PATH, or a sibling install."""
    siblings = sorted(Path(sys.base_prefix).parent.glob(f"{version}*/bin/python3"))
    probe = "import sys; print(sys.implementation.name, '%d.%d' % sys.version_info[:2])"
    for exe in filter(None, [shutil.which(f"python{version}"), *map(str, siblings)]):
        try:
            proc = subprocess.run([exe, "-c", probe], capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        # A version manager's shim of an interpreter it does not have exits non-zero.
        if proc.returncode == 0 and proc.stdout.split() == ["cpython", version]:
            return exe
    return None


def test_digests_match_under_other_interpreters(version):
    import pytest  # the script below runs without it

    if version == "%d.%d" % sys.version_info[:2]:
        pytest.skip("this interpreter checks the table in-process")
    exe = _interpreter(version)
    if exe is None:
        pytest.skip(f"no CPython {version} starts here")
    package_root = str(Path(succoeff.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": package_root, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([exe, str(Path(__file__).resolve()), "--check"],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{len(DIGESTS)} of {len(DIGESTS)} rows match"


if __name__ == "__main__":
    check = sys.argv[1:] == ["--check"]
    matched = 0
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            row = (_row_or_error if check else _row)(command, Path(tmp))
            if not isinstance(row, BaseException):
                row = row[:4]
            if not check:
                code, *digests = row
                cells = ", ".join(f'"{digest}"' for digest in digests)
                sys.stdout.write(f'    "{command}":\n        ({code}, {cells}),\n')
            elif row == DIGESTS.get(command):
                matched += 1
            else:
                sys.stdout.write(f"moved: {command}: {row!r} != {DIGESTS.get(command)}\n")
    if check:
        complete = list(DIGESTS) == COMMANDS
        sys.stdout.write(f"{matched} of {len(DIGESTS)} rows match"
                         f"{'' if complete else '; the table does not cover the commands'}\n")
        sys.exit(0 if complete and matched == len(DIGESTS) else 1)
