"""Package hygiene: the exported names resolve, the package imports numpy
alone (scipy and sympy are test-only oracles), no module imports a name it
never uses, the names the benchmark's tracer wraps still exist, and the
README's quick start runs and its plain-round totals are what the run
prints."""

import ast
import importlib
import inspect
import pkgutil
import shlex
from pathlib import Path

import numpy as np
import pytest

import clebschflow

MODULES = sorted(info.name for info in pkgutil.iter_modules(clebschflow.__path__))
SOURCES = sorted(Path(clebschflow.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


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
    assert sorted(reference.__all__) == ["burgers_breaking",
                                         "burgers_characteristics"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_or_sympy_import(path):
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            roots.add(node.module.split(".")[0])
    assert not roots & {"scipy", "sympy"}


def unused_imports(path):
    """Names a module imports but never reads; __future__ imports are
    directives, not names."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_no_unused_imports():
    # the package __init__ imports only to re-export
    paths = [*sorted((ROOT / "src").rglob("*.py")),
             *sorted((ROOT / "tests").glob("*.py")),
             *sorted((ROOT / "tools").glob("*.py")), ROOT / "conftest.py"]
    unused = [f"{path.relative_to(ROOT)}: {name}" for path in paths
              if path != ROOT / "src" / "clebschflow" / "__init__.py"
              for name in unused_imports(path)]
    assert not unused, unused


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


def test_readme_quick_start_runs():
    # the quick start is the first python block after "Quick start:"
    readme = (ROOT / "README.md").read_text()
    after = readme.split("Quick start:", 1)[1]
    code = after.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md quick start", "exec"), namespace)
    grid, u = namespace["grid"], namespace["u"]
    assert namespace["run"].converged
    assert u.shape == (grid.N,) and np.all(np.isfinite(u))


def test_readme_round_totals_are_what_the_command_prints(
        tmp_path, monkeypatch, capsys):
    # after the rounds table, the first sh block is a command and the
    # first text block the summary lines it prints
    from clebschflow.cli import main
    readme = (ROOT / "README.md").read_text()
    after = readme.split("| linear, then cubic from step 4 | a carried rate |",
                         1)[1]
    command = after.split("```sh\n", 1)[1].split("```", 1)[0]
    quoted = after.split("```text\n", 1)[1].split("```", 1)[0].splitlines()
    argv = shlex.split(command)
    assert argv[0] == "clebschflow"
    assert len(quoted) == 2
    monkeypatch.delenv("CLEBSCHFLOW_OUTDIR", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == 0
    printed = capsys.readouterr().out.splitlines()
    for line in quoted:
        assert line in printed
