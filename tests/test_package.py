"""Package surface: every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import succoeff

MODULES = ["succoeff", *(f"succoeff.{m.name}" for m in pkgutil.iter_modules(succoeff.__path__))]


def test_modules_found():
    assert {"succoeff.bounds", "succoeff.cli", "succoeff.verify"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
