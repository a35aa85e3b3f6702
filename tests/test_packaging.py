import ast
import importlib
import importlib.metadata
import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_console_script_targets_import():
    # an entry point whose target does not import fails only once installed
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_perfbench_imports_resolve():
    # the benchmark harness calls the package by name and is not run by these
    # tests, so a rename would otherwise break it unnoticed
    imported = 0
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "occlugrasp":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path.name}: from {node.module} import {alias.name}"
                    imported += 1
    assert imported > 0


def _canonical(distribution: str) -> str:
    return re.sub(r"[-_.]+", "-", distribution).lower()


def test_declared_dependencies_import():
    # a declared dependency that is not installed breaks an offline install
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    declared = project["dependencies"] + project["optional-dependencies"]["test"]
    modules = {}
    for module, dists in importlib.metadata.packages_distributions().items():
        for dist in dists:
            modules.setdefault(_canonical(dist), []).append(module)
    for requirement in declared:
        name = _canonical(re.match(r"[A-Za-z0-9._-]+", requirement).group())
        public = [m for m in modules.get(name, []) if not m.startswith("_")]
        assert public, f"{requirement}: no installed distribution provides it"
        for module in public:
            importlib.import_module(module)
