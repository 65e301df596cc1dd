"""Package surface: every name a module exports resolves, and only those."""

import importlib
import pkgutil

import pytest

import succoeff
from test_outputs import run_cli

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


@pytest.mark.parametrize("module_name", sorted(succoeff._EXPORTS))
def test_exports_match_module(module_name):
    # The lazy surface lists each module's names by hand: every listed name
    # exists, and where the module declares __all__ the two lists agree.
    module = importlib.import_module(f"succoeff.{module_name}")
    names = succoeff._EXPORTS[module_name]
    assert [n for n in names if not hasattr(module, n)] == []
    if hasattr(module, "__all__"):
        assert sorted(names) == sorted(module.__all__)
        assert len(set(names)) == len(names)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        succoeff.no_such_name
    # A private name of a submodule is not part of the package surface.
    assert not hasattr(succoeff, "_atom_jet")
    assert not hasattr(succoeff, "_draw_atoms")


def test_dir_lists_all():
    assert set(succoeff.__all__) <= set(dir(succoeff))
    assert "__version__" in dir(succoeff)


def test_benchmark_names_resolve(monkeypatch, perfbench):
    # The benchmark traces and times package functions by name; a name it
    # cannot find is reported absent, and the run then lacks the per-layer
    # metrics it declares.  Moving one of these is a benchmark change.
    tracer = perfbench("tracer").Tracer()
    try:
        tracer.install()
        assert tracer.absent == set()
    finally:
        tracer.uninstall()
    layers = perfbench("layers")

    def once(fn):
        fn()
        return 0.0

    monkeypatch.setattr(layers, "_per_call_us", once)
    timings, absent = layers.microbenchmarks()
    assert absent == []
    assert sorted(timings) == sorted(layers.MICROBENCHMARKS)


def test_benchmark_result_hooks(perfbench, tmp_path):
    # The tracer counts what the reports it sees carry: VerifyReport.grid,
    # SampleReport.n_samples, and FunctionalSpec.which in a span's name.
    tracer = perfbench("tracer").Tracer()
    tracer.install()
    try:
        # run_cli calls cli.main through the module, so the tracer's wrapper runs.
        for argv in (["verify"], ["sweep", "--alphas", "0,0.5,2"], ["sample", "--samples", "20"]):
            assert run_cli(argv, "table", tmp_path)[0] == 0
    finally:
        tracer.uninstall()
    # Two points for d1 and three for d2 at each of the three classes checked.
    assert tracer.counters["verify.grid_points"] == 15
    assert tracer.counters["verify.sample_members"] == 20
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "verify.grid_optimize_d1", "verify.grid_optimize_d2", "verify.functional_value",
            "verify.case_boundary_check"} <= names
