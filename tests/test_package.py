"""Package hygiene: the exported names resolve, the package imports numpy
alone (scipy and sympy are test-only oracles), and the names the benchmark's
tracer wraps still exist."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import clebschflow

MODULES = sorted(info.name for info in pkgutil.iter_modules(clebschflow.__path__))
SOURCES = sorted(Path(clebschflow.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"clebschflow.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_namespace_reexports_only_module_exports():
    exported = set()
    for name in MODULES:
        module = importlib.import_module(f"clebschflow.{name}")
        exported.update(getattr(module, "__all__", ()))
    namespace = {n for n, value in vars(clebschflow).items()
                 if not n.startswith("_") and not inspect.ismodule(value)}
    assert namespace <= exported, sorted(namespace - exported)


def test_each_exported_name_has_one_home():
    homes = {}
    for name in MODULES:
        module = importlib.import_module(f"clebschflow.{name}")
        for n in getattr(module, "__all__", ()):
            homes.setdefault(n, []).append(name)
    shared = {n: where for n, where in homes.items() if len(where) > 1}
    assert not shared


def test_reference_exports_only_the_characteristics_oracles():
    from clebschflow import reference
    assert sorted(reference.__all__) == ["burgers_characteristics",
                                         "burgers_shock_time"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_or_sympy_import(path):
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            roots.add(node.module.split(".")[0])
    assert not roots & {"scipy", "sympy"}


@pytest.mark.parametrize("module, attr", [
    ("harness", "integrate"),
    ("dynamics", "midpoint_step"),
    ("dynamics", "fd_jacobian"),
    ("cli", "run_experiment"),
    ("cli", "records_to_csv"),
    ("cli", "finals_to_csv"),
    ("reference", "burgers_characteristics"),
])
def test_traced_layer_boundaries_exist(module, attr):
    # perfbench/tracing.py wraps these module attributes by name; a missing
    # one would leave its layer's spans silently empty
    assert callable(getattr(importlib.import_module(f"clebschflow.{module}"),
                            attr, None))


def test_integrate_keeps_its_traced_parameters():
    from clebschflow.harness import integrate
    assert {"field", "observer"} <= set(inspect.signature(integrate).parameters)
