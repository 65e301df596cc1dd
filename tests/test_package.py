"""Package surface: every name a module exports resolves, and only those."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

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


def test_every_config_setting_is_read():
    # A setting no code reads is dead: a tolerance left behind would hold
    # nothing while seeming to.  A reader is ``config.NAME`` in any module of
    # the package, or ``NAME`` inside a function of config, as gate reads
    # GATE_ULPS.
    from succoeff import config
    read = set()
    for path in Path(config.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "config"):
                read.add(node.attr)
    for node in ast.parse(Path(config.__file__).read_text()).body:
        if isinstance(node, ast.FunctionDef):
            read |= {name.id for name in ast.walk(node) if isinstance(name, ast.Name)}
    settings = {name for name, value in vars(config).items()
                if not name.startswith("_") and not callable(value)}
    assert "GATE_ULPS" in settings
    assert sorted(settings - read) == []


def test_package_imports_only_the_standard_library():
    # pyproject declares no dependency.  The load tests run the commands
    # under -S, where a guarded `try: import numpy` passes without error, so
    # every absolute import of the package, at module level or in a function,
    # library-only code included, must name a module of the standard library.
    outside = []
    for path in sorted(Path(succoeff.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


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
