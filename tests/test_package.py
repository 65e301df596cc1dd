"""Package surface: every name a module exports resolves, and only those."""

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


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        succoeff.no_such_name
    # A private name of a submodule is not part of the package surface.
    assert not hasattr(succoeff, "_atom_jets")


def test_dir_lists_all():
    assert set(succoeff.__all__) <= set(dir(succoeff))
    assert "__version__" in dir(succoeff)
