"""Package-integrity checks: every module imports, carries a docstring,
is reached from a root, and the declared public APIs exist."""

import ast
import dataclasses
import importlib
import importlib.util
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


# -- per-function reachability -----------------------------------------------------

#: functions no root enters that stay on purpose (``ALLOWLIST`` in
#: ``benchmarks/reach.py``); this number only goes down (a function a root
#: stops entering is deleted, or given a root, not listed).
MAX_UNREACHED_ALLOWED = 203


def test_reach_allowlist_names_live_functions_and_only_shrinks():
    """Every allowlist entry names a ``def`` under ``src/repro`` and gives a
    reason from the closed set.  This reads the list only; the census that
    runs every root is ``python benchmarks/reach.py`` (the CI ``reach``
    job)."""
    spec = importlib.util.spec_from_file_location(
        "reach", REPO_ROOT / "benchmarks" / "reach.py"
    )
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    defined = {key for key, _ in reach.functions().values()}
    assert sorted(set(reach.ALLOWLIST) - defined) == []
    assert set(reach.ALLOWLIST.values()) <= set(reach.REASONS)
    assert len(reach.ALLOWLIST) <= MAX_UNREACHED_ALLOWED


# -- unused imports ----------------------------------------------------------------

#: what the check scans; CI's ``ruff check`` (rule ``F401``) covers the same
#: ground, this check runs wherever the tests do.
IMPORT_TREES = ("src", "tests", "benchmarks")
#: analyzer test inputs that break rules on purpose.
IMPORT_EXCLUDED = REPO_ROOT / "tests" / "analysis" / "fixtures"


def _module_imports(node: ast.AST):
    """Import statements outside any function or class body (inside a
    module-level ``if``/``try`` too)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.expr)
        ):
            yield from _module_imports(child)


def _names_read(node: ast.AST) -> set[str]:
    """Every name ``node`` mentions, reading string literals in annotations
    (``Optional["Host"]``) as the expressions they stand for."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            try:
                names |= _names_read(ast.parse(child.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Names a module reads, its annotations' strings and ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            used |= _names_read(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _names_read(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _names_read(node.annotation)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(target, "id", None) == "__all__" for target in targets):
                used |= {
                    child.value
                    for child in ast.walk(node.value)
                    if isinstance(child, ast.Constant) and isinstance(child.value, str)
                }
    return used


def _unused_imports(path: Path) -> list[str]:
    """``path:line: name`` for each module-level import nothing reads.  A
    package ``__init__`` re-exports a name through ``__all__`` or the
    ``import x as x`` form; an import kept for its side effect carries
    ``# noqa: F401`` and a reason."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = _used_names(tree)
    unused = []
    for statement in _module_imports(tree):
        if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
            continue
        for alias in statement.names:
            bound = alias.asname or alias.name.partition(".")[0]
            if alias.name == "*" or bound in used:
                continue
            if path.name == "__init__.py" and alias.asname == alias.name:
                continue
            if any(
                "noqa: F401" in lines[line - 1]
                for line in (statement.lineno, alias.lineno)
            ):
                continue
            unused.append(f"{path.relative_to(REPO_ROOT)}:{alias.lineno}: {bound}")
    return unused


def test_no_unused_module_imports():
    unused = [
        finding
        for tree in IMPORT_TREES
        for path in sorted((REPO_ROOT / tree).rglob("*.py"))
        if IMPORT_EXCLUDED not in path.parents
        for finding in _unused_imports(path)
    ]
    assert unused == []
