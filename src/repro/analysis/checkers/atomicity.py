"""Yield-point / atomicity analysis (ATM).

The simulator is cooperative: a process can only be preempted at a
``yield``.  Every invariant of the form "these two updates happen
atomically" therefore reduces to "no yield point between them" — which is
exactly what this checker proves.  It builds on the project-wide call
graph in :mod:`repro.analysis.callgraph` (functions classified *may-yield*
when they are generators or confidently reach one) and enforces two kinds
of declarations:

``# analysis: atomic`` on a function
    The function must not be a generator and must not transitively call a
    may-yield function: it executes as one indivisible step.

``# analysis: atomic-begin(name)`` / ``atomic-end(name)`` inside a generator
    No yield point may occur between the markers — the bracketed span runs
    without the scheduler interleaving another process.

Codes:

ATM001  yield point inside a declared-atomic function/region;
ATM002  call to a may-yield function inside a declared-atomic scope;
ATM004  malformed atomicity annotation (unmatched markers, no function).

The race family (RACE) exempts the declared-atomic scopes this family
proves yield-free.

Call resolution is deliberately *confident-only*: ``self.m()`` resolves
through the enclosing class and its project-visible bases, bare names
through the defining module and explicit imports.  Unresolvable calls are
ignored rather than over-approximated — suppressions should silence real
noise, not analysis guesses.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    SourceFile,
    function_at_marker,
)
from repro.analysis.findings import Finding
from repro.analysis.framework import Checker
from repro.analysis.source import Project


class AtomicityChecker(Checker):
    name = "atomicity"
    codes = {
        "ATM001": "yield point inside a declared-atomic scope",
        "ATM002": "call to a may-yield function inside a declared-atomic scope",
        "ATM004": "malformed atomicity annotation",
    }
    default_scope = ("src/repro/",)

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = project.call_graph
        findings: list[Finding] = []
        for source in self.scoped_files(project):
            findings.extend(self._check_markers(source, graph))
        return findings

    # -- declared-atomic functions and regions ----------------------------------

    def _check_markers(
        self, source: SourceFile, graph: CallGraph
    ) -> list[Finding]:
        findings: list[Finding] = []
        functions = [fn for fn in graph.functions if fn.source is source]
        open_regions: dict[str, int] = {}
        for marker in source.directives.atomic_markers:
            if marker.kind == "function":
                fn = function_at_marker(functions, marker.line)
                if fn is None:
                    findings.append(
                        self.finding(
                            "ATM004",
                            "atomic annotation is not attached to a function "
                            "definition",
                            source,
                            marker.line,
                        )
                    )
                    continue
                findings.extend(self._check_atomic_function(source, fn, graph))
            elif marker.kind == "begin":
                if marker.name in open_regions:
                    findings.append(
                        self.finding(
                            "ATM004",
                            f"atomic-begin({marker.name}) opened twice",
                            source,
                            marker.line,
                        )
                    )
                open_regions[marker.name] = marker.line
            elif marker.kind == "end":
                begin = open_regions.pop(marker.name, None)
                if begin is None:
                    findings.append(
                        self.finding(
                            "ATM004",
                            f"atomic-end({marker.name}) without a matching "
                            "begin",
                            source,
                            marker.line,
                        )
                    )
                    continue
                findings.extend(
                    self._check_region(
                        source, graph, marker.name, begin, marker.line
                    )
                )
        for name, line in open_regions.items():
            findings.append(
                self.finding(
                    "ATM004",
                    f"atomic-begin({name}) is never closed",
                    source,
                    line,
                )
            )
        return findings

    def _check_atomic_function(
        self, source: SourceFile, fn: FunctionInfo, graph: CallGraph
    ) -> list[Finding]:
        findings: list[Finding] = []
        if fn.is_generator:
            findings.append(
                self.finding(
                    "ATM001",
                    f"declared-atomic function {fn.qualname} is a generator "
                    "(contains yield) — it cannot be atomic",
                    source,
                    fn.yield_lines[0] if fn.yield_lines else fn.node.lineno,
                    context=fn.qualname,
                )
            )
            return findings
        for site in fn.calls:
            if site.deferred:
                continue
            for target in graph.resolve(fn, site):
                if target.may_yield:
                    findings.append(
                        self.finding(
                            "ATM002",
                            f"declared-atomic function {fn.qualname} calls "
                            f"{target.chain()}, which may yield to the "
                            "scheduler",
                            source,
                            site.line,
                            context=fn.qualname,
                        )
                    )
                    break
        return findings

    def _check_region(
        self,
        source: SourceFile,
        graph: CallGraph,
        region_name: str,
        begin: int,
        end: int,
    ) -> list[Finding]:
        findings: list[Finding] = []
        owner: Optional[FunctionInfo] = None
        for fn in graph.functions:
            if fn.source is not source:
                continue
            node = fn.node
            fn_end = getattr(node, "end_lineno", node.lineno) or node.lineno
            if node.lineno <= begin and end <= fn_end:
                if owner is None or node.lineno > owner.node.lineno:
                    owner = fn  # innermost enclosing function
        if owner is None:
            findings.append(
                self.finding(
                    "ATM004",
                    f"atomic region '{region_name}' is not inside a function",
                    source,
                    begin,
                )
            )
            return findings
        for line in owner.yield_lines:
            if begin <= line <= end:
                findings.append(
                    self.finding(
                        "ATM001",
                        f"yield point inside atomic region '{region_name}' — "
                        "the scheduler can interleave another process here",
                        source,
                        line,
                        context=owner.qualname,
                    )
                )
        for site in owner.calls:
            if not (begin <= site.line <= end) or site.under_yield:
                continue
            if site.deferred:
                continue
            for target in graph.resolve(owner, site):
                if target.may_yield:
                    findings.append(
                        self.finding(
                            "ATM002",
                            f"atomic region '{region_name}' calls "
                            f"{target.chain()}, which may yield to the "
                            "scheduler",
                            source,
                            site.line,
                            context=owner.qualname,
                        )
                    )
                    break
        return findings
