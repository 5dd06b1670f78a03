"""Checker base class, registry, and the analysis runner.

Checkers are pluggable: subclass :class:`Checker`, declare the finding
codes you emit, implement ``check_file`` (per-module findings) and/or
``check_project`` (cross-module findings such as lockset races), and list the class in :data:`repro.analysis.checkers.ALL_CHECKERS`.

The runner applies, in order: path scoping (each checker sees only the
files its ``default_scope`` selects, unless constructed with an explicit
scope) and inline ``# analysis: ignore[...]`` suppressions.  What survives
is the actionable finding list, plus one ``ANA002`` warning for every
directive that silenced nothing — a suppression is a debt to retire, so a
stale one fails ``--strict``.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterable, Optional, Sequence

from repro.analysis.cache import AnalysisCache
from repro.analysis.findings import AnalysisResult, Finding, Severity
from repro.analysis.source import Project, SourceFile


def qualname_index(tree: ast.Module) -> dict[ast.AST, str]:
    """Map every function/class node to its dotted qualified name."""
    index: dict[ast.AST, str] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                index[child] = qual
                visit(child, qual)
            else:
                visit(child, prefix)

    visit(tree, "")
    return index


def enclosing_context(tree: ast.Module, line: int) -> str:
    """Qualified name of the innermost def/class containing ``line``."""
    best = ""
    best_span = None
    for node, qual in qualname_index(tree).items():
        end = getattr(node, "end_lineno", node.lineno)
        if node.lineno <= line <= (end or node.lineno):
            span = (end or node.lineno) - node.lineno
            if best_span is None or span <= best_span:
                best, best_span = qual, span
    return best


class Checker:
    """Base class every checker family derives from."""

    #: short machine name, used in reports and ``--select``.
    name: ClassVar[str] = "checker"
    #: finding code -> one-line description (the checker catalog).
    codes: ClassVar[dict[str, str]] = {}
    #: repo-relative path fragments this checker applies to by default;
    #: ``()`` means every file.  Overridable per instance for fixtures.
    default_scope: ClassVar[tuple[str, ...]] = ()

    def __init__(self, scope: Optional[Sequence[str]] = None) -> None:
        self.scope: tuple[str, ...] = (
            self.default_scope if scope is None else tuple(scope)
        )

    def applies_to(self, source: SourceFile) -> bool:
        if not self.scope:
            return True
        rel = f"/{source.relpath}"
        return any(f"/{fragment}" in rel for fragment in self.scope)

    def scoped_files(self, project: Project) -> list[SourceFile]:
        """Parsed project files this checker's scope selects.

        ``check_project`` implementations iterate this instead of
        ``project.files`` so path scoping applies to cross-module passes
        exactly as the runner applies it to per-file passes.
        """
        return [
            source
            for source in project.files
            if source.tree is not None and self.applies_to(source)
        ]

    def check_file(
        self, source: SourceFile, project: Project
    ) -> Iterable[Finding]:
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        return ()

    # -- helpers shared by subclasses -------------------------------------------

    def finding(
        self,
        code: str,
        message: str,
        source: SourceFile,
        node_or_line: "ast.AST | int",
        severity: Severity = Severity.ERROR,
        context: str = "",
    ) -> Finding:
        if isinstance(node_or_line, int):
            line, column = node_or_line, 0
        else:
            line = getattr(node_or_line, "lineno", 1)
            column = getattr(node_or_line, "col_offset", 0)
        if not context and source.tree is not None:
            context = enclosing_context(source.tree, line)
        return Finding(
            code=code,
            message=message,
            path=source.relpath,
            line=line,
            column=column,
            severity=severity,
            checker=self.name,
            context=context,
        )


def run_checkers(
    project: Project,
    checkers: Sequence[Checker],
    select: Optional[Sequence[str]] = None,
    cache: Optional[AnalysisCache] = None,
) -> AnalysisResult:
    """Run ``checkers`` over ``project`` and post-process the findings.

    With ``cache``, ``check_file`` results are reused when that file is
    unchanged (``check_file`` is per-module by framework contract, so a
    single file's content hash is a sound key).
    """
    raw: list[Finding] = list(project.config_findings())
    for checker in checkers:
        raw.extend(checker.check_project(project))
        for source in project.files:
            if source.tree is None or not checker.applies_to(source):
                continue
            file_findings: Optional[list[Finding]] = None
            if cache is not None:
                file_findings = cache.load_file_findings(
                    checker.name, source.relpath
                )
            if file_findings is None:
                file_findings = list(checker.check_file(source, project))
                if cache is not None:
                    cache.store_file_findings(
                        checker.name, source.relpath, file_findings
                    )
            raw.extend(file_findings)

    wanted = {code.strip().upper() for code in select} if select else None

    def selected(code: str) -> bool:
        return (
            wanted is None
            or code in wanted
            or code.rstrip("0123456789") in wanted
        )

    result = AnalysisResult(
        files_checked=len(project.files),
        checkers_run=tuple(checker.name for checker in checkers),
    )
    sources = {source.relpath: source for source in project.files}
    used: set[tuple[str, int, str]] = set()
    for finding in sorted(raw, key=lambda f: (f.path, f.line, f.code)):
        if not selected(finding.code):
            continue
        source = sources.get(finding.path)
        directive = (
            source.directives.is_suppressed(finding.code, finding.line)
            if source is not None
            else None
        )
        if directive is None:
            result.findings.append(finding)
            continue
        used.add((finding.path, directive.line, finding.code))
        result.suppressed.append(finding)
    # A directive for a family that did not run (or that --select left
    # out) silenced nothing *because its checker never fired*, which is
    # not evidence of staleness.
    live = {
        code for checker in checkers for code in checker.codes if selected(code)
    }
    stale = [
        Finding(
            code="ANA002",
            message=f"ignore[{code}] directive silences no finding; delete it",
            path=file.relpath,
            line=ignore.line,
            severity=Severity.WARNING,
            checker="framework",
        )
        for file in project.files
        for ignore in file.directives.ignores
        for code in ignore.codes
        if code in live and (file.relpath, ignore.line, code) not in used
    ]
    result.findings = sorted(
        [*result.findings, *stale], key=lambda f: (f.path, f.line, f.code)
    )
    return result


def checker_catalog(checkers: Sequence[Checker]) -> dict[str, dict[str, str]]:
    """``{checker_name: {code: description}}`` for docs and ``--list``."""
    return {checker.name: dict(checker.codes) for checker in checkers}
