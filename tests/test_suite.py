"""The suite's own shape: no test is silently shadowed, no accepted mutant is stale."""

import ast
from collections import Counter
from pathlib import Path

from conftest import parsed_tests
from mutants import EQUIVALENT, all_sites


def _defined_twice(body: list[ast.stmt], prefix: str = "") -> list[str]:
    """The names a module or class body defines more than once, in it and in its classes."""
    defs = [node for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    twice = [prefix + name for name, n in Counter(node.name for node in defs).items() if n > 1]
    for node in defs:
        if isinstance(node, ast.ClassDef):
            twice += _defined_twice(node.body, f"{prefix}{node.name}.")
    return twice


def test_no_name_is_defined_twice():
    # Python keeps only the last def of a name, so pytest never collects the first.
    trees = dict(parsed_tests())
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    trees |= {path: ast.parse(path.read_text(encoding="utf-8"))
              for path in sorted(perfbench.glob("test_*.py"))}
    twice = {f"{path.parent.name}/{path.name}": names
             for path, tree in trees.items() if (names := _defined_twice(tree.body))}
    assert twice == {}


def test_every_accepted_mutant_names_a_site():
    # mutants.py runs the mutants only in a full audit; between audits an
    # entry whose line was edited away would excuse nothing, so it fails here.
    sites = {(site.file, site.text, site.op) for site in all_sites()}
    keys = [entry[:3] for entry in EQUIVALENT]
    assert [key for key in keys if key not in sites] == []
    assert len(set(keys)) == len(keys)
    assert {entry[3] for entry in EQUIVALENT} <= {"equivalent", "library-only"}
