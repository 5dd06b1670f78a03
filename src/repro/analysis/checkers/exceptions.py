"""Exception-safety lint (EXC).

The SLS CORBA experience report attributes most production incidents to
silently swallowed failures: a handler that catches too much (or catches a
communication failure and does nothing) converts a recoverable fault into
silent state divergence.  Three codes:

EXC001  bare ``except:`` — catches ``SystemExit``/``KeyboardInterrupt`` too;
EXC002  ``except Exception`` / ``BaseException`` that neither re-raises nor
        carries a justification;
EXC003  a ``CommFailure``/``TRANSIENT``-class error swallowed outside the
        designated recovery handlers (``ft/recovery.py``) — recoverable
        failures must either propagate, reach a recovery coordinator, or
        document why dropping them is safe.

A handler counts as *propagating* when its body re-raises (any ``raise``),
feeds the caught exception into a failure sink (``try_fail``,
``mark_error``, ``set_exception``, ``_finish_failure``, ...) — the
future-based equivalent of re-raising in this codebase — or *aggregates*
it into a variable the enclosing function later raises (the quorum-write
pattern: ``last_error = exc`` in the loop, ``raise RecoveryError(...)
from last_error`` after it).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.findings import Finding, Severity
from repro.analysis.framework import Checker
from repro.analysis.source import Project, SourceFile

#: exception names that represent recoverable communication failures.
RECOVERABLE_NAMES = frozenset(
    {
        "COMM_FAILURE",
        "CommFailure",
        "TRANSIENT",
        "OBJECT_NOT_EXIST",
        "TIMEOUT",
        "SystemException",
        "RECOVERABLE",
        "HOST_BLAMING",
    }
)

#: attribute calls that count as propagating the caught exception.
FAILURE_SINKS = frozenset(
    {
        "try_fail",
        "fail",
        "mark_error",
        "set_exception",
        "_note_persist_failure",
        "_finish_failure",
    }
)

#: files whose whole job is deciding what to do with recoverable failures.
DESIGNATED_HANDLER_FILES = ("repro/ft/recovery.py",)


def _handler_type_names(handler: ast.ExceptHandler) -> list[str]:
    """Exception class names a handler catches (last dotted segment)."""
    names: list[str] = []

    def add(node: ast.expr) -> None:
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.Tuple):
            for element in node.elts:
                add(element)
        elif isinstance(node, ast.Starred):
            add(node.value)

    if handler.type is not None:
        add(handler.type)
    return names


def _aggregated_names(handler: ast.ExceptHandler) -> set[str]:
    """Names the handler assigns the caught exception to (``last_error = exc``)."""
    caught = handler.name
    if caught is None:
        return set()
    names: set[str] = set()
    for node in ast.walk(handler):
        if not isinstance(node, ast.Assign):
            continue
        uses_caught = any(
            isinstance(ref, ast.Name) and ref.id == caught
            for ref in ast.walk(node.value)
        )
        if not uses_caught:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Attribute):
                names.add(target.attr)
    return names


def _raise_referenced_names(scope: ast.AST) -> set[str]:
    """Names referenced by any ``raise`` in ``scope`` (value or cause),
    excluding nested function bodies."""
    names: set[str] = set()

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(child, ast.Raise):
                for part in (child.exc, child.cause):
                    if part is None:
                        continue
                    for ref in ast.walk(part):
                        if isinstance(ref, ast.Name):
                            names.add(ref.id)
                        elif isinstance(ref, ast.Attribute):
                            names.add(ref.attr)
            walk(child)

    walk(scope)
    return names


def _propagates(handler: ast.ExceptHandler) -> bool:
    """Whether the handler re-raises or feeds a failure sink."""
    caught = handler.name  # may be None
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr not in FAILURE_SINKS:
                continue
            if caught is None:
                return True
            for arg in node.args:
                for name in ast.walk(arg):
                    if isinstance(name, ast.Name) and name.id == caught:
                        return True
    return False


class ExceptionSafetyChecker(Checker):
    name = "exception-safety"
    codes = {
        "EXC001": "bare except",
        "EXC002": "overbroad except without re-raise or justification",
        "EXC003": "recoverable comm failure swallowed outside designated handlers",
    }
    default_scope = ("repro/", "benchmarks/", "examples/")

    def check_file(
        self, source: SourceFile, project: Project
    ) -> Iterable[Finding]:
        assert source.tree is not None
        findings: list[Finding] = []
        designated = any(
            source.relpath.endswith(path) for path in DESIGNATED_HANDLER_FILES
        )
        raise_names_of = self._scope_raise_names(source.tree)
        for node in source.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(
                    self.finding(
                        "EXC001",
                        "bare 'except:' catches SystemExit and "
                        "KeyboardInterrupt; name the exceptions",
                        source,
                        node,
                    )
                )
                continue
            names = _handler_type_names(node)
            propagates = _propagates(node) or bool(
                _aggregated_names(node) & raise_names_of.get(id(node), set())
            )
            if not propagates and (
                "Exception" in names or "BaseException" in names
            ):
                findings.append(
                    self.finding(
                        "EXC002",
                        "except clause catches Exception without re-raising; "
                        "narrow it or justify with an ignore directive",
                        source,
                        node,
                    )
                )
            if (
                not designated
                and not propagates
                and any(name in RECOVERABLE_NAMES for name in names)
            ):
                caught = sorted(set(names) & RECOVERABLE_NAMES)
                findings.append(
                    self.finding(
                        "EXC003",
                        f"recoverable failure ({', '.join(caught)}) is "
                        "swallowed here; propagate it, route it to recovery, "
                        "or document why dropping it is safe",
                        source,
                        node,
                        severity=Severity.WARNING,
                    )
                )
        return findings

    @staticmethod
    def _scope_raise_names(tree: ast.Module) -> dict[int, set[str]]:
        """``id(handler) -> names raised by its innermost enclosing scope``.

        Feeds the aggregate-then-raise rule: ``last_error = exc`` counts as
        propagation when the same function later does ``raise ...`` with (or
        from) that variable.
        """
        out: dict[int, set[str]] = {}
        cache: dict[int, set[str]] = {}

        def names_for(scope: ast.AST) -> set[str]:
            if id(scope) not in cache:
                cache[id(scope)] = _raise_referenced_names(scope)
            return cache[id(scope)]

        def walk(node: ast.AST, scope: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    walk(child, child)
                    continue
                if isinstance(child, ast.ExceptHandler):
                    out[id(child)] = names_for(scope)
                walk(child, scope)

        walk(tree, tree)
        return out
