"""The README's cross-references and migration table against the package.

Every ``see "X"`` names a heading or a bold lead-in (``**X.**``) of the
README.  Each row of the table under "Migrating from earlier versions"
names what is gone and where it was: a Python name must no longer resolve
from ``succoeff`` or from the row's module, a keyword argument must no
longer be a parameter of its function, and a flag must exit 2 on each
subcommand the row names, which runs without it.  The class counts of
"Verdict gates" are those of ``conftest.classes``.
"""

import importlib
import inspect
import re
import shlex
from pathlib import Path

import pytest

import succoeff
from conftest import BOX_EDGES, CONVEX_SMALL_T, PARAM_GRID, classes
from succoeff.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _migration_rows() -> list[tuple[list[str], list[str]]]:
    """(removed items, from items) of each row of the table of removals."""
    section = README.split("\n## Migrating from earlier versions\n")[1].split("\n## ")[0]
    table = section.split("\n| removed |")[1].split("\n\n")[0]
    rows = []
    for line in table.splitlines()[2:]:
        cells = [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
        rows.append((re.findall(r"`([^`]+)`", cells[0]), re.findall(r"`([^`]+)`", cells[1])))
    return rows


ROWS = _migration_rows()
NAMES = [(name, module) for removed, where in ROWS for name in removed
         if not name.startswith("--") and not name.endswith("=)") for module in where]
KEYWORDS = [name for removed, _ in ROWS for name in removed if name.endswith("=)")]
FLAGS = [(flag, command) for removed, where in ROWS for flag in removed
         if flag.startswith("--") for command in where]


def _resolve(root, dotted: str):
    value = root
    for part in dotted.split("."):
        value = getattr(value, part)
    return value


def _exit_code(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a flag it does not know
        return exc.code


def test_cross_references_name_a_heading_or_lead_in():
    headings = {line.lstrip("#").strip() for line in README.splitlines()
                if re.match(r"#{1,6} ", line)}
    lead_ins = set(re.findall(r"^\*\*(.+?)\.\*\*", README, re.MULTILINE))
    # A reference may wrap, in prose or in a code comment.
    prose = re.sub(r"\s+#?\s*", " ", README)
    references = set(re.findall(r"\bsee \"([^\"]+)\"", prose, re.IGNORECASE))
    assert references
    assert sorted(references - headings - lead_ins) == []


def test_class_counts_come_from_the_class_set():
    # test_verdict_gates draws 2,000 random classes per family, test_exact
    # and TestClosedFormBits 667, and the 3-seed columns 10,000 per seed.
    gates, seeds = len(classes(2000)), 3 * (3 * 10000 + len(classes(0)))
    counts = [f"tier-1 classes ({gates:,})", f"3 seeds ({seeds:,} classes)", f"over the {seeds:,}",
              f"{len(BOX_EDGES)} box edges",
              f"{len(PARAM_GRID) + len(CONVEX_SMALL_T)} named classes",
              f"{gates:,} classes, 3 x {len(classes(2000)[::20])} `sample` runs",
              f"{len(classes(667)):,} classes in tier-1 ({3 * 667:,} of them random)"]
    prose = re.sub(r"\s+", " ", README)
    assert [count for count in counts if count not in prose] == []


def test_migration_table_has_every_kind():
    assert NAMES and KEYWORDS and FLAGS


@pytest.mark.parametrize("name, module", NAMES, ids=[f"{m}:{n}" for n, m in NAMES])
def test_removed_name_does_not_resolve(name, module):
    # Only the last part is gone: `config.REP_ATOL` needs `config`, and a
    # name of `succoeff.config` may be written from the package.
    own = importlib.import_module(module)
    short = module.rsplit(".", 1)[-1]
    for root, dotted in ((succoeff, name), (own, name.removeprefix(f"{short}."))):
        parent, _, last = dotted.rpartition(".")
        holder = _resolve(root, parent) if parent else root
        with pytest.raises(AttributeError):
            getattr(holder, last)


@pytest.mark.parametrize("call", KEYWORDS)
def test_removed_keyword_is_not_a_parameter(call):
    function, keyword = re.fullmatch(r"([\w.]+)\((\w+)=\)", call).groups()
    assert keyword not in inspect.signature(_resolve(succoeff, function)).parameters


@pytest.mark.parametrize("flag, command", FLAGS, ids=[f"{c}{f}" for f, c in FLAGS])
def test_removed_flag_exits_2(flag, command, capsys):
    argv = [*shlex.split(command), "--format", "csv"]
    assert _exit_code(argv) == 0
    assert _exit_code([*argv, flag, "1"]) == 2
    capsys.readouterr()
