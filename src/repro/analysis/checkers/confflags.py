"""RuntimeConfig flag hygiene (CFG).

The runtime's fast paths are all opt-in: the paper-faithful protocol is
the default and a ``RuntimeConfig`` flag turns each optimisation on.
That contract is what keeps every benchmark an apples-to-apples
comparison against the paper — and it erodes silently: a flag that
defaults on changes the baseline for every experiment, and a flag nobody
consults is dead configuration surface.

CFG001  a fast-path flag (a ``bool`` field whose doc comment marks it as
        a fast path / off-by-default optimisation) defaults to ``True``;
CFG002  a config field is never consulted anywhere in the project
        outside the config module itself (``validate()`` reading its own
        field does not count as the runtime consulting it).

The config class is found structurally (a class named ``RuntimeConfig``),
not by path, so violation fixtures exercise the checker without
replicating the repo layout.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.findings import Finding, Severity
from repro.analysis.framework import Checker
from repro.analysis.source import Project, SourceFile

CONFIG_CLASS = "RuntimeConfig"

#: lowercase doc-comment fragments that mark a flag as a fast path whose
#: paper-faithful default is *off*.
FAST_PATH_MARKERS = ("fast path", "off = the paper", "off by default")


class ConfigFlagChecker(Checker):
    name = "confflags"
    codes = {
        "CFG001": "fast-path config flag does not default off",
        "CFG002": "config field never consulted outside the config module",
    }
    default_scope = ("repro/",)

    def check_project(self, project: Project) -> Iterable[Finding]:
        findings: list[Finding] = []
        scoped = self.scoped_files(project)
        config = self._find_config(scoped)
        if config is not None:
            source, class_node = config
            findings.extend(
                self._check_flags(source, class_node, scoped)
            )
        return findings

    # -- CFG001 / CFG002: flag defaults and consultation --------------------------

    @staticmethod
    def _find_config(
        scoped: list[SourceFile],
    ) -> Optional[tuple[SourceFile, ast.ClassDef]]:
        for source in scoped:
            for node in source.nodes:
                if isinstance(node, ast.ClassDef) and node.name == CONFIG_CLASS:
                    return source, node
        return None

    def _check_flags(
        self,
        source: SourceFile,
        class_node: ast.ClassDef,
        scoped: list[SourceFile],
    ) -> list[Finding]:
        findings: list[Finding] = []
        fields: list[tuple[str, ast.AnnAssign]] = []
        for stmt in class_node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                fields.append((stmt.target.id, stmt))

        for name, stmt in fields:
            if (
                self._is_bool_flag(stmt)
                and self._is_fast_path(source, stmt)
                and not self._defaults_false(stmt)
            ):
                findings.append(
                    self.finding(
                        "CFG001",
                        f"fast-path flag {CONFIG_CLASS}.{name} must default "
                        "off: the paper-faithful protocol is the baseline "
                        "and every optimisation is opt-in",
                        source,
                        stmt.lineno,
                        context=f"{CONFIG_CLASS}.{name}",
                    )
                )
            if not self._consulted(name, source, scoped):
                findings.append(
                    self.finding(
                        "CFG002",
                        f"config field {CONFIG_CLASS}.{name} is never "
                        "consulted outside the config module — dead "
                        "configuration surface (either wire it up or "
                        "remove it)",
                        source,
                        stmt.lineno,
                        severity=Severity.WARNING,
                        context=f"{CONFIG_CLASS}.{name}",
                    )
                )
        return findings

    @staticmethod
    def _is_bool_flag(stmt: ast.AnnAssign) -> bool:
        annotation = stmt.annotation
        return isinstance(annotation, ast.Name) and annotation.id == "bool"

    @staticmethod
    def _defaults_false(stmt: ast.AnnAssign) -> bool:
        return (
            isinstance(stmt.value, ast.Constant) and stmt.value.value is False
        )

    @staticmethod
    def _is_fast_path(source: SourceFile, stmt: ast.AnnAssign) -> bool:
        """The field's doc-comment block carries a fast-path marker.

        The block is the contiguous run of comment lines directly above
        the field, plus a trailing comment on the field's own line.
        """
        block: list[str] = []
        line = stmt.lineno - 1
        while line in source.comments:
            block.append(source.comments[line])
            line -= 1
        trailing = source.comments.get(stmt.lineno)
        if trailing:
            block.append(trailing)
        text = " ".join(block).lower()
        return any(marker in text for marker in FAST_PATH_MARKERS)

    @staticmethod
    def _consulted(
        name: str, config_source: SourceFile, scoped: list[SourceFile]
    ) -> bool:
        return any(
            name in source.attribute_loads
            for source in scoped
            if source is not config_source
        )
