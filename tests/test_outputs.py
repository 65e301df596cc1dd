"""Byte-identical outputs: every command's csv and json bytes and exit code are pinned.

Each command line below runs in-process through ``cli.main`` once per
format, and the first 16 hex digits of the SHA-256 of its ``--out`` file,
with its exit code, must match the recorded table.  A change that is meant
to keep every output (a refactor, a speed-up) leaves the table alone; one
that changes outputs on purpose re-records it and says which rows moved.
The table was recorded with CPython 3.11 on x86-64 Linux; floats are
printed to 17 significant digits, so a libm whose cos or exp differs in
the last bit would change digests.

Re-record with ``PYTHONPATH=src python tests/test_outputs.py`` from the
root of a checkout, and paste its output over ``DIGESTS``.  With
``--check`` the script compares every row with the table instead and
exits 0 only when all match.  It needs no pytest, so the table can be
checked under any interpreter the package runs on; since Python 3.12,
``sum`` adds floats with compensation, so a ``sum`` where the package
adds left to right shows there as a moved digest.  Under pytest,
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
from succoeff.cli import main

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
# c* within DEGENERATE_C_TOL of 2 on the lam <= 1/2 side, and T = 1.250035
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
]

# command line -> (exit code, csv digest, json digest)
DIGESTS = {
    "bounds --family spirallike --alpha 0.25 --gamma 0.5":
        (0, "70b934eef9d485fb", "8198bd05500b5abd"),
    "bounds --family spirallike --alpha 0 --gamma 0":
        (0, "b0d167991e271f6b", "cdd5e2079659b377"),
    "bounds --family spirallike --alpha 0.6 --gamma=-pi/3":
        (0, "ef7a7c2c0402bf1d", "1fc1ad705a5ae269"),
    "bounds --family convex --alpha 0.5 --gamma 1.4":
        (0, "5b7129c3eb13f035", "73c748e1077b661d"),
    "bounds --family convex --alpha 0.3 --gamma 0":
        (0, "e98ec2e262c29faf", "6153c399841e0120"),
    "bounds --family ozaki --lambda 0.3":
        (0, "8e809a596c784daf", "166e989808ded3f3"),
    "bounds --family ozaki --lambda 0.5":
        (0, "6b2b636772c03c92", "766b3d47b82ba64b"),
    "extremal --family spirallike --alpha 0.25 --gamma 0.5":
        (0, "fdc1c72ee9949eee", "a470ab052c75b2dd"),
    "extremal --family spirallike --alpha 0 --gamma 0":
        (0, "63d9a99e38a773c5", "9363d56dca8e5873"),
    "extremal --family spirallike --alpha 0.6 --gamma=-pi/3":
        (0, "bc9b26b8ea162641", "9146f4173ddc06a1"),
    "extremal --family convex --alpha 0.5 --gamma 1.4":
        (0, "41ac8249c36c2346", "75f7013aa0c33cb5"),
    "extremal --family convex --alpha 0.3 --gamma 0":
        (0, "2e36045218d96eb9", "d935d94dd3465705"),
    "extremal --family ozaki --lambda 0.3":
        (0, "1b0ed46398c565b7", "289feaec23ebe569"),
    "extremal --family ozaki --lambda 0.5":
        (0, "b3c4a07d13953fcc", "dc8227194a520e48"),
    "verify --family spirallike --alpha 0.25 --gamma 0.5":
        (0, "46b6ca5dc1fab1f6", "3968f331a0d6a67c"),
    "verify --family spirallike --alpha 0 --gamma 0":
        (0, "93279c01a4e1e463", "0e80281dd7286e24"),
    "verify --family spirallike --alpha 0.6 --gamma=-pi/3":
        (0, "5b3a9efcdd9b7b13", "a6467e14c9f78484"),
    "verify --family convex --alpha 0.5 --gamma 1.4":
        (0, "0e6bf14ed26d94fe", "12fcfd5d6079ae74"),
    "verify --family convex --alpha 0.3 --gamma 0":
        (0, "d4b304938211b01c", "028e9237f7eecf6f"),
    "verify --family ozaki --lambda 0.3":
        (0, "5da73654f085dc7b", "bb3ee19721e5740c"),
    "verify --family ozaki --lambda 0.5":
        (0, "7090000424b29664", "fa0d1e3d9feb8880"),
    "bounds --family ozaki --lambda 0.75":
        (0, "815b3c7737cc0e7b", "daf4aa0c15b2c7b9"),
    "bounds --family ozaki --lambda 0.4999999999999":
        (0, "212a5a7e9a80ace2", "d6bc430b06c2629d"),
    "bounds --family convex --alpha 0 --gamma 1.3024":
        (0, "221bc0d602ca02e5", "031516ee3dc051af"),
    "bounds --family convex --alpha 0 --gamma 1.3025":
        (0, "01d3d78e85bd3133", "4eaf9b5a09ebd17d"),
    "extremal --family ozaki --lambda 0.75":
        (0, "b9cecdcdd2e465c4", "1143bc7b472f0c35"),
    "extremal --family ozaki --lambda 0.4999999999999":
        (0, "085b2a259b1e1199", "1597d827ec97b07e"),
    "extremal --family convex --alpha 0 --gamma 1.3024":
        (0, "b7e9e5a75103bfe6", "ace98826d3bb3e13"),
    "extremal --family convex --alpha 0 --gamma 1.3025":
        (0, "c695c2005ca34b73", "f84a13c9421cc41c"),
    "verify --family ozaki --lambda 0.75":
        (0, "496a88d2bc7ad36c", "af96e7f9e27161d5"),
    "verify --family ozaki --lambda 0.4999999999999":
        (0, "dd978d4382dbec82", "ea7d9dd70c2e7389"),
    "verify --family convex --alpha 0 --gamma 1.3024":
        (0, "7ca46a86e33ef0f9", "799063b1ee5b4b37"),
    "verify --family convex --alpha 0 --gamma 1.3025":
        (0, "01b898ef71f2ad59", "00bd439c1a3d4c4e"),
    "sweep --family spirallike --alphas 0,0.5,2 --gammas=-pi/6,pi/6,3":
        (0, "836a77fea6c74bea", "272e5235a7eef346"),
    "sweep --family convex --alphas 0,0.5,2 --gammas=-pi/6,pi/6,3":
        (0, "57965b2430bc7a1f", "0fb1b0b2b17e5433"),
    "sweep --family ozaki --lambdas 0.25,0.75,3":
        (0, "47732fa44034588f", "b23710b6325068e8"),
    "sample --family spirallike --alpha 0.25 --gamma 0.5 --samples 300 --atoms-max 1 --seed 7":
        (0, "5b075583f70df767", "ca121cd9c0b61946"),
    "sample --family spirallike --alpha 0.25 --gamma 0.5 --samples 300 --atoms-max 6 --seed 8":
        (0, "d2434ee44499496d", "f1a37272610d144d"),
    "sample --family spirallike --alpha 0.25 --gamma 0.5 --samples 300 --atoms-max 64 --seed 9":
        (0, "7fcfbb3abcfbf1f6", "a8a5db88b0e66e43"),
    "sample --family convex --alpha 0.5 --gamma 1.4 --samples 300 --atoms-max 1 --seed 7":
        (0, "2c2ca6d32e0def0b", "5e803340b7911d53"),
    "sample --family convex --alpha 0.5 --gamma 1.4 --samples 300 --atoms-max 6 --seed 8":
        (0, "39965012b715b2dd", "b360b1c0b04ece0e"),
    "sample --family convex --alpha 0.5 --gamma 1.4 --samples 300 --atoms-max 64 --seed 9":
        (0, "5f2574be76ec3e3a", "c02c36de6e335af4"),
    "sample --family ozaki --lambda 0.5 --samples 300 --atoms-max 1 --seed 7":
        (0, "033d653ed6d21e1e", "861aa692fc8a0826"),
    "sample --family ozaki --lambda 0.5 --samples 300 --atoms-max 6 --seed 8":
        (0, "90f03d5cbbe5902e", "77ce4f7e01f5b59b"),
    "sample --family ozaki --lambda 0.5 --samples 300 --atoms-max 64 --seed 9":
        (0, "8bafa341dc8535e8", "eb54a4035ea8577c"),
    "sample --family spirallike --alpha 0 --gamma 0 --samples 300 --seed 10":
        (0, "64a1de2ca0dfa601", "74e2d6fffa0f6a36"),
}


def _run(command: str, fmt: str, out: Path) -> tuple[int, str]:
    code = main([*shlex.split(command), "--format", fmt, "--out", str(out)])
    return code, hashlib.sha256(out.read_bytes()).hexdigest()[:16]


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def _row(command: str, tmp: Path) -> tuple[int, str, str]:
    """(exit code, csv digest, json digest) of one command line."""
    (code, csv_digest), (json_code, json_digest) = (
        _run(command, fmt, tmp / f"out.{fmt}") for fmt in ("csv", "json"))
    if json_code != code:
        raise ValueError(f"{command}: csv exits {code}, json exits {json_code}")
    # Strict JSON: no NaN, Infinity or -Infinity.
    json.loads((tmp / "out.json").read_text(encoding="utf-8"), parse_constant=_reject_constant)
    return code, csv_digest, json_digest


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


def test_outputs_match_the_recorded_digests(command, tmp_path):
    assert _row(command, tmp_path) == DIGESTS[command]


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
            code, csv_digest, json_digest = row = _row(command, Path(tmp))
            if not check:
                sys.stdout.write(
                    f'    "{command}":\n        ({code}, "{csv_digest}", "{json_digest}"),\n')
            elif row == DIGESTS.get(command):
                matched += 1
            else:
                sys.stdout.write(f"moved: {command}: {row} != {DIGESTS.get(command)}\n")
    if check:
        complete = list(DIGESTS) == COMMANDS
        sys.stdout.write(f"{matched} of {len(DIGESTS)} rows match"
                         f"{'' if complete else '; the table does not cover the commands'}\n")
        sys.exit(0 if complete and matched == len(DIGESTS) else 1)
