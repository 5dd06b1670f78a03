"""Source-file and project models the checkers operate on.

A :class:`SourceFile` bundles one parsed module: text, AST, the comment map
(extracted with :mod:`tokenize`, so trailing comments are attributed to the
right line), the parsed ``# analysis:`` directives, and an import-alias
table for resolving dotted call names.  A :class:`Project` is the set of
files under analysis plus the root used for repo-relative paths, and
holds the one call graph every interprocedural checker shares.
"""

from __future__ import annotations

import ast
import io
import subprocess
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.analysis.findings import Finding, Severity
from repro.analysis.suppressions import Directives, parse_directives

if TYPE_CHECKING:
    from repro.analysis.callgraph import CallGraph


def extract_comments(text: str) -> dict[int, str]:
    """``{line: comment_text}`` for every comment token in ``text``."""
    comments: dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # A file that fails to tokenize surfaces as an ANA001 parse
        # finding via ast.parse; comments are best-effort here.
        pass
    return comments


def _import_aliases(nodes: list[ast.AST]) -> dict[str, str]:
    """Local name -> fully-qualified dotted origin, from import statements."""
    aliases: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".")[0]
                aliases[local] = name.name if name.asname else name.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                if name.name == "*":
                    continue
                local = name.asname or name.name
                aliases[local] = f"{node.module}.{name.name}"
    return aliases


@dataclass
class SourceFile:
    """One parsed Python module under analysis."""

    path: Path
    relpath: str
    text: str
    tree: Optional[ast.Module]
    comments: dict[int, str] = field(default_factory=dict)
    directives: Directives = field(default_factory=Directives)
    import_aliases: dict[str, str] = field(default_factory=dict)
    parse_error: Optional[str] = None
    #: every node of ``tree`` in ``ast.walk`` order, walked once here so
    #: no checker walks the whole module again.
    nodes: list[ast.AST] = field(default_factory=list)

    @classmethod
    def load(cls, path: Path, root: Path) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        return cls.from_text(text, path, root)

    @classmethod
    def from_text(cls, text: str, path: Path, root: Path) -> "SourceFile":
        try:
            relpath = path.relative_to(root).as_posix()
        except ValueError:
            relpath = path.as_posix()
        tree: Optional[ast.Module] = None
        parse_error: Optional[str] = None
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            parse_error = f"syntax error: {exc.msg}"
        comments = extract_comments(text)
        nodes = list(ast.walk(tree)) if tree else []
        return cls(
            path=path,
            relpath=relpath,
            text=text,
            tree=tree,
            comments=comments,
            directives=parse_directives(comments),
            import_aliases=_import_aliases(nodes),
            parse_error=parse_error,
            nodes=nodes,
        )

    @cached_property
    def attribute_loads(self) -> frozenset[str]:
        """Every ``<name>`` read as ``x.<name>`` anywhere in the module."""
        return frozenset(
            node.attr
            for node in self.nodes
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )

    @cached_property
    def string_constants(self) -> frozenset[str]:
        """Every string literal in the module."""
        return frozenset(
            node.value
            for node in self.nodes
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        )

    def resolve_call_name(self, node: ast.expr) -> str:
        """Best-effort dotted name of a call target, import-resolved.

        ``np.random.rand`` with ``import numpy as np`` resolves to
        ``numpy.random.rand``; unresolvable shapes return ``""``.
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return ""
        parts.append(current.id)
        parts.reverse()
        head = self.import_aliases.get(parts[0], parts[0])
        return ".".join([head, *parts[1:]])


@dataclass
class Project:
    """The file set one analysis run operates on."""

    root: Path
    files: list[SourceFile] = field(default_factory=list)

    @classmethod
    def from_paths(
        cls, paths: Iterable[Path], root: Optional[Path] = None
    ) -> "Project":
        paths = [Path(p).resolve() for p in paths]
        if root is None:
            root = find_repo_root(paths[0] if paths else Path.cwd())
        root = Path(root).resolve()
        return cls.from_files(discover_python_files(paths, root), root=root)

    @classmethod
    def from_files(cls, file_paths: Iterable[Path], root: Path) -> "Project":
        """Build a project from an already-discovered, ordered file list."""
        project = cls(root=Path(root).resolve())
        for file_path in file_paths:
            project.files.append(SourceFile.load(file_path, project.root))
        return project

    @cached_property
    def call_graph(self) -> "CallGraph":
        """The project call graph, built on first use and shared by every
        checker of the run."""
        from repro.analysis.callgraph import CallGraph  # imports this module

        return CallGraph(self)

    def config_findings(self) -> list[Finding]:
        """Findings about the analysis inputs themselves: unparseable
        files and malformed directives (code ``ANA001``)."""
        findings: list[Finding] = []
        for source in self.files:
            if source.parse_error:
                findings.append(
                    Finding(
                        code="ANA001",
                        message=source.parse_error,
                        path=source.relpath,
                        line=1,
                        severity=Severity.ERROR,
                        checker="framework",
                    )
                )
            for line, message in source.directives.malformed:
                findings.append(
                    Finding(
                        code="ANA001",
                        message=message,
                        path=source.relpath,
                        line=line,
                        severity=Severity.ERROR,
                        checker="framework",
                    )
                )
        return findings


def discover_python_files(
    paths: Iterable[Path], root: Path
) -> list[Path]:
    """The sorted, deduplicated file set an analysis run operates on.

    Directory walks are intersected with ``git ls-files`` when ``root``
    is a git work tree: untracked scratch files (and ``__pycache__``,
    always) cannot make a dirty local tree report differently from CI.
    Files named *explicitly* are always analysed, tracked or not — naming
    a file is an instruction, walking a directory is a default.
    """
    tracked = _git_tracked_files(Path(root))
    out: list[Path] = []
    seen: set[Path] = set()
    for path in paths:
        path = Path(path)
        for candidate in sorted(_iter_python_files(path)):
            if candidate in seen:
                continue
            if (
                tracked is not None
                and path.is_dir()
                and candidate not in tracked
            ):
                continue
            seen.add(candidate)
            out.append(candidate)
    return out


def _git_tracked_files(root: Path) -> Optional[set[Path]]:
    """Absolute paths of git-tracked files, or None outside a work tree."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "ls-files", "-z"],
            capture_output=True,
            check=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return {
        (root / name).resolve()
        for name in proc.stdout.decode("utf-8", "replace").split("\0")
        if name
    }


def _iter_python_files(path: Path) -> Iterator[Path]:
    if path.is_file():
        if path.suffix == ".py":
            yield path
        return
    for candidate in path.rglob("*.py"):
        if "__pycache__" in candidate.parts:
            continue
        yield candidate


def find_repo_root(start: Path) -> Path:
    """Walk up from ``start`` to the directory holding ``pyproject.toml``."""
    current = start if start.is_dir() else start.parent
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return current
