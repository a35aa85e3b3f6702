import ast
import importlib
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
