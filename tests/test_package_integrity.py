"""Package-integrity checks: every module imports, carries a docstring,
is reached from a root, and the declared public APIs exist."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

ALL_MODULES = sorted(
    module.name
    for module in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


def test_module_inventory_is_substantial():
    assert len(ALL_MODULES) >= 45


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_module_imports_and_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize(
    "module_name",
    [
        "repro.sim",
        "repro.cluster",
        "repro.orb",
        "repro.winner",
        "repro.ft",
        "repro.opt",
        "repro.core",
        "repro.bench",
    ],
)
def test_declared_exports_exist(module_name):
    module = importlib.import_module(module_name)
    missing = [
        name for name in getattr(module, "__all__", []) if not hasattr(module, name)
    ]
    assert not missing, f"{module_name} exports missing names: {missing}"


def test_version_is_exposed():
    assert repro.__version__ == "1.0.0"


def test_public_classes_have_docstrings():
    for module_name in (
        "repro.sim",
        "repro.orb",
        "repro.ft",
        "repro.winner",
        "repro.core",
    ):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if isinstance(obj, type):
                assert obj.__doc__, f"{module_name}.{name} lacks a docstring"


# -- reachability ------------------------------------------------------------------

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


MODULE_FILES = {
    _module_name(path): path for path in (SRC / "repro").rglob("*.py")
}


def _with_parents(module: str) -> set[str]:
    """``a.b.c`` -> ``{a, a.b, a.b.c}``: importing a module runs its
    packages' ``__init__`` first."""
    parts = module.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts) + 1)}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _from_base(node: ast.ImportFrom, module: str, path: Path) -> str:
    """The absolute module a ``from ... import`` statement names."""
    if not node.level:
        return node.module
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    parts = package.split(".")
    parts = parts[: len(parts) - node.level + 1]
    return ".".join(parts + ([node.module] if node.module else []))


def _package_bindings() -> dict[str, dict[str, str]]:
    """For each package ``__init__``: imported name -> module it came from."""
    bindings: dict[str, dict[str, str]] = {}
    for module, path in MODULE_FILES.items():
        if path.name != "__init__.py":
            continue
        names = bindings.setdefault(module, {})
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom):
                base = _from_base(node, module, path)
                for alias in node.names:
                    names[alias.asname or alias.name] = base
    return bindings


def _imported(base: str, name: str, bindings: dict) -> set[str]:
    """Modules that ``from base import name`` needs, following package
    re-exports to the module that defines ``name``."""
    needed = _with_parents(base)
    if f"{base}.{name}" in MODULE_FILES:
        needed.add(f"{base}.{name}")
    elif name in bindings.get(base, {}) and bindings[base][name] != base:
        needed |= _imported(bindings[base][name], name, bindings)
    return needed


def _edges(path: Path, module: str, bindings: dict) -> set[str]:
    """``repro`` modules one file imports, function bodies included.

    In a package ``__init__``, an import whose names are used only in
    ``__all__`` re-exports them and is not an edge: the edge is drawn from
    whoever imports the name through the package.  ``repro`` itself is the
    exception, a root for the ``__version__`` it exports.
    """
    tree = _parse(path)
    used = None
    if path.name == "__init__.py" and module != "repro":
        used = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        }
    edges: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                edges |= _with_parents(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = _from_base(node, module, path)
            for alias in node.names:
                if used is not None and (alias.asname or alias.name) not in used:
                    continue
                edges |= _imported(base, alias.name, bindings)
    return {edge for edge in edges if edge in MODULE_FILES}


def test_every_module_is_reached_from_a_root():
    """Every module under ``src/repro`` is imported, directly or through
    other modules, from ``repro`` itself, a ``python -m`` entry point or a
    benchmark script; a module nothing reaches is dead code."""
    bindings = _package_bindings()
    roots = [(path, "") for path in (REPO_ROOT / "benchmarks").rglob("*.py")]
    roots += [
        (path, module)
        for module, path in MODULE_FILES.items()
        if module == "repro" or module.endswith(".__main__")
    ]
    reached = {module for _, module in roots if module}
    work = [_edges(path, module, bindings) for path, module in roots]
    while work:
        for module in work.pop() - reached:
            reached.add(module)
            work.append(_edges(MODULE_FILES[module], module, bindings))
    assert sorted(set(MODULE_FILES) - reached) == []


# -- configuration surface ---------------------------------------------------------

#: settable fields of the five config objects together; this number only
#: goes down (a value no experiment sets becomes a named constant or the
#: component's own default instead of a field).
MAX_CONFIG_FIELDS = 74


def test_config_surface_only_shrinks():
    from repro.chaos.campaign import CampaignConfig
    from repro.core import RuntimeConfig, Scenario
    from repro.ft import FtPolicy
    from repro.orb import OrbConfig

    counts = {
        cls.__name__: len(dataclasses.fields(cls))
        for cls in (RuntimeConfig, OrbConfig, Scenario, FtPolicy, CampaignConfig)
    }
    assert sum(counts.values()) <= MAX_CONFIG_FIELDS, counts
