"""RuntimeConfig flag and report-counter hygiene (CFG).

The runtime's fast paths are all opt-in: the paper-faithful protocol is
the default and a ``RuntimeConfig`` flag turns each optimisation on.
That contract is what keeps every benchmark an apples-to-apples
comparison against the paper — and it erodes silently: a flag that
defaults on changes the baseline for every experiment, a flag nobody
consults is dead configuration surface, and a ``runtime_report`` counter
nothing ever formats or asserts on is observability that quietly rotted.

CFG001  a fast-path flag (a ``bool`` field whose doc comment marks it as
        a fast path / off-by-default optimisation) defaults to ``True``;
CFG002  a config field is never consulted anywhere in the project
        outside the config module itself (``validate()`` reading its own
        field does not count as the runtime consulting it);
CFG003  report-shape drift around ``runtime_report``: a formatter
        consumes a section key the report never produces (ERROR — that
        is a latent ``KeyError``), or a produced counter key is neither
        formatted nor referenced anywhere else in the project (WARNING —
        an orphan counter).

The config class is found structurally (a class named ``RuntimeConfig``),
not by path, so violation fixtures exercise the checker without
replicating the repo layout; the same goes for ``runtime_report``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.findings import Finding, Severity
from repro.analysis.framework import Checker
from repro.analysis.source import Project, SourceFile

CONFIG_CLASS = "RuntimeConfig"
REPORT_FUNCTION = "runtime_report"

#: lowercase doc-comment fragments that mark a flag as a fast path whose
#: paper-faithful default is *off*.
FAST_PATH_MARKERS = ("fast path", "off = the paper", "off by default")


class ConfigFlagChecker(Checker):
    name = "confflags"
    codes = {
        "CFG001": "fast-path config flag does not default off",
        "CFG002": "config field never consulted outside the config module",
        "CFG003": "runtime_report shape drift (missing or orphan counter)",
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
        report = self._find_report(scoped)
        if report is not None:
            source, fn_node = report
            findings.extend(self._check_report(source, fn_node, scoped))
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

    # -- CFG003: runtime_report shape ---------------------------------------------

    @staticmethod
    def _find_report(
        scoped: list[SourceFile],
    ) -> Optional[tuple[SourceFile, ast.FunctionDef]]:
        for source in scoped:
            for node in source.nodes:
                if (
                    isinstance(node, ast.FunctionDef)
                    and node.name == REPORT_FUNCTION
                ):
                    return source, node
        return None

    def _check_report(
        self,
        source: SourceFile,
        fn_node: ast.FunctionDef,
        scoped: list[SourceFile],
    ) -> list[Finding]:
        produced = self._produced_sections(fn_node)
        consumed = self._consumed_keys(source, fn_node)
        findings: list[Finding] = []

        for section, key, line in sorted(consumed):
            keys = produced.get(section)
            if keys is not None and key not in keys:
                findings.append(
                    self.finding(
                        "CFG003",
                        f"formatter reads key '{key}' from report section "
                        f"'{section}', which {REPORT_FUNCTION} never "
                        "produces — a latent KeyError on the render path",
                        source,
                        line,
                        context=f"{REPORT_FUNCTION}:{section}",
                    )
                )

        consumed_by_section: dict[str, set[str]] = {}
        for section, key, _ in consumed:
            consumed_by_section.setdefault(section, set()).add(key)
        for section, keys in sorted(produced.items()):
            for key, line in sorted(keys.items()):
                if key in consumed_by_section.get(section, set()):
                    continue
                if self._string_appears_elsewhere(key, source, scoped):
                    continue
                findings.append(
                    self.finding(
                        "CFG003",
                        f"counter '{key}' in report section '{section}' is "
                        "produced but never formatted or referenced "
                        "anywhere in the project — an orphan counter "
                        "nothing can observe",
                        source,
                        line,
                        severity=Severity.WARNING,
                        context=f"{REPORT_FUNCTION}:{section}",
                    )
                )
        return findings

    @staticmethod
    def _produced_sections(
        fn_node: ast.FunctionDef,
    ) -> dict[str, dict[str, int]]:
        """``{section: {key: line}}`` for statically-known report sections.

        Sections whose value is a dict literal (inline or via a local
        variable assigned one) are analysable; dynamically-built sections
        (snapshots, setdefault accumulation) are skipped — confident-only,
        like everything else in the analysis.
        """
        locals_: dict[str, ast.Dict] = {}
        dynamic: set[str] = set()
        for node in ast.walk(fn_node):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            if not isinstance(target, ast.Name) or value is None:
                continue
            if isinstance(value, ast.Dict) and value.keys:
                locals_[target.id] = value
            else:
                # A branch rebinding the name to anything non-literal
                # (a snapshot call, an empty accumulator) makes the
                # section's shape dynamic — skip it entirely.
                dynamic.add(target.id)
        for name in dynamic:
            locals_.pop(name, None)

        returned: Optional[ast.Dict] = None
        for node in ast.walk(fn_node):
            if isinstance(node, ast.Return) and isinstance(
                node.value, ast.Dict
            ):
                returned = node.value
        if returned is None:
            return {}

        produced: dict[str, dict[str, int]] = {}
        for key_node, value in zip(returned.keys, returned.values):
            if not (
                isinstance(key_node, ast.Constant)
                and isinstance(key_node.value, str)
            ):
                continue
            section = key_node.value
            literal: Optional[ast.Dict] = None
            if isinstance(value, ast.Dict) and value.keys:
                literal = value
            elif isinstance(value, ast.Name):
                literal = locals_.get(value.id)
            if literal is None:
                continue
            keys: dict[str, int] = {}
            for inner_key in literal.keys:
                if isinstance(inner_key, ast.Constant) and isinstance(
                    inner_key.value, str
                ):
                    keys[inner_key.value] = inner_key.lineno
            produced[section] = keys
        return produced

    @staticmethod
    def _consumed_keys(
        source: SourceFile, report_fn: ast.FunctionDef
    ) -> set[tuple[str, str, int]]:
        """``(section, key, line)`` reads in the report module's *other*
        functions, via ``var = report["section"]`` / ``var['key']`` and
        ``report.get("section")`` / ``var.get('key')`` tracking."""
        consumed: set[tuple[str, str, int]] = set()
        for node in source.nodes:
            if not isinstance(node, ast.FunctionDef) or node is report_fn:
                continue
            sections: dict[str, str] = {}
            for stmt in ast.walk(node):
                if not (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                ):
                    continue
                section = _subscript_or_get_key(stmt.value)
                if section is not None:
                    sections[stmt.targets[0].id] = section
            for expr in ast.walk(node):
                key = _subscript_or_get_key(expr)
                if key is None:
                    continue
                base = _base_name(expr)
                if base is not None and base in sections:
                    consumed.add((sections[base], key, expr.lineno))
        return consumed

    @staticmethod
    def _string_appears_elsewhere(
        key: str, report_source: SourceFile, scoped: list[SourceFile]
    ) -> bool:
        return any(
            key in source.string_constants
            for source in scoped
            if source is not report_source
        )


def _subscript_or_get_key(node: ast.AST) -> Optional[str]:
    """The string key of ``x["key"]`` or ``x.get("key", ...)``, else None."""
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, str)
    ):
        return node.slice.value
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ):
        return node.args[0].value
    return None


def _base_name(node: ast.AST) -> Optional[str]:
    """The receiver Name of a subscript/.get consumption, if simple."""
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
        return node.value.id
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
    ):
        return node.func.value.id
    return None
