import ast
import collections
import importlib
import importlib.metadata
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

# a fresh interpreter that renders a scene pair and measures its occlusion,
# then completes nothing but one chamfer distance
OCCLUSION_ONLY = """
import importlib, pkgutil, sys
import occlugrasp
for module in pkgutil.iter_modules(occlugrasp.__path__):
    importlib.import_module(f"occlugrasp.{module.name}")
from occlugrasp.camera import back_project, default_camera, render
from occlugrasp.completion import chamfer_l1
from occlugrasp.occlusion import BinScheme, occlusion_level
from occlugrasp.scenes import SceneConfig, derive_single_scene, generate_packed_scene
scene = generate_packed_scene(SceneConfig(object_count_range=(4, 6), seed=1))
cam = default_camera(width=160, height=120, focal=135.0)
cluttered = render(scene, cam)
single = render(derive_single_scene(scene, scene.target_index), cam)
occlusion_level(single, cluttered, scene.target_index, BinScheme.test())
assert "scipy.spatial" not in sys.modules
partial = back_project(cluttered, scene.target_index)
chamfer_l1(partial, partial)
assert "scipy.spatial" in sys.modules
"""


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


def test_scipy_spatial_loads_at_the_first_kd_tree():
    # no module loads scipy.spatial at import: a process that only renders
    # and measures occlusion never pays for it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", OCCLUSION_ONLY], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


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


def _functools_name(node, names: dict[str, str]) -> str | None:
    """The `functools` attribute an expression names, as `functools.x` or as
    `x` imported from functools under any alias."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and names.get(node.value.id) == "functools":
        return node.attr
    if isinstance(node, ast.Name) and names.get(node.id, "").startswith("functools."):
        return names[node.id].removeprefix("functools.")
    return None


def test_module_caches_are_bounded():
    # a module-level cache lives as long as the process, so each needs an
    # integer maxsize (a literal or a module constant) to stay bounded; the
    # tests' shared corpus lives as long as the test run
    cached = []
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        text = path.read_text()
        if "functools" not in text:
            continue  # it imports no name that could be a functools cache
        tree = ast.parse(text, str(path))
        names, constants = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update({a.asname or a.name: a.name for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                names.update({a.asname or a.name: f"functools.{a.name}" for a in node.names})
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
                constants.update({t.id: node.value.value for t in node.targets if isinstance(t, ast.Name)})
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            name = _functools_name(node, names)
            assert name != "cache", f"{where}: functools.cache is unbounded"
            if name == "lru_cache":
                call = next((c for c in ast.walk(tree) if isinstance(c, ast.Call) and c.func is node), None)
                maxsize = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "maxsize"] if call else []
                value = maxsize[0] if maxsize else None
                value = constants.get(value.id) if isinstance(value, ast.Name) else getattr(value, "value", None)
                assert type(value) is int, f"{where}: lru_cache needs an integer maxsize"
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(d, ast.Call) and _functools_name(d.func, names) == "lru_cache" for d in node.decorator_list):
                cached.append(node.name)
    assert {"_shared_catalog", "_voxel_projection", "scene", "_result"} <= set(cached)


SOURCES = sorted((ROOT / "src").rglob("*.py"))
# the harness's own modules, not its tests, are callers of the package
CALLERS = SOURCES + sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))

# Public names that nothing in the package or the harness calls yet, each with
# the open item of ROADMAP.md that gives it a caller.
ENTRY_POINTS = {
    "add_depth_noise": "the noisy real-world rows of `evaluate` (the paper's table)",
    "near_surface_mask": "the network inputs of `run_episode` (one episode pipeline)",
    "BinScheme.training": "one of the dataset's three bin schemes (the north star)",
    "BinScheme.real_world": "the bins of `evaluate`'s noisy rows (the paper's table)",
    "PassthroughCompleter": "the no-completion source of `evaluate` (the paper's table)",
    "OracleCompleter": "the upper-bound source of `evaluate` (the paper's table)",
}


def _referenced_names(paths) -> set[str]:
    """Every name the code in `paths` reads: a `Name` load, an attribute, or an
    imported name."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def _module_names(path) -> list[tuple[str, ast.AST]]:
    """The functions, classes and constants a module defines at its top level."""
    names = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append((node.name, node))
        elif isinstance(node, ast.Assign):
            names += [(t.id, node) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append((node.target.id, node))
    return names


def test_private_module_names_are_used():
    # a private function, class or constant that no code of the package names
    # is dead: being private, nothing outside the package should call it. A
    # name of module M counts as used when M reads it or another module imports
    # it from M, so two modules' names of one spelling cannot hide each other
    imported = collections.defaultdict(set)
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported[node.module.rpartition(".")[2]] |= {alias.name for alias in node.names}
    unused = [f"{path.name}: {name}" for path in SOURCES for name, _ in _module_names(path)
              if name.startswith("_") and not name.startswith("__")
              and name not in _referenced_names([path]) | imported[path.stem]]
    assert not unused


def test_public_names_are_used():
    # a public function, class, constant or method that neither the package
    # nor the harness calls is dead weight, unless an open item names its
    # caller; an allow-listed name that gains a caller leaves the list
    used = _referenced_names(CALLERS)
    unused = set()
    for path in SOURCES:
        for name, node in _module_names(path):
            if not name.startswith("_") and name not in used:
                unused.add(name)
            if isinstance(node, ast.ClassDef):
                unused |= {f"{name}.{f.name}" for f in node.body if isinstance(f, ast.FunctionDef)
                           and not f.name.startswith("_") and f.name not in used}
    assert unused == set(ENTRY_POINTS)
