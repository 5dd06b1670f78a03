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
ATM003  lock acquisition-order cycle (two code paths take the same locks
        in opposite orders — a deadlock waiting for the right schedule);
ATM004  malformed atomicity annotation (unmatched markers, no function).

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
        "ATM003": "lock acquisition-order cycle",
        "ATM004": "malformed atomicity annotation",
    }
    default_scope = ("src/repro/",)

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = project.call_graph
        findings: list[Finding] = []
        for source in self.scoped_files(project):
            findings.extend(self._check_markers(source, graph))
        findings.extend(self._check_lock_order(project, graph))
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

    # -- lock-order cycles ---------------------------------------------------------

    def _check_lock_order(
        self, project: Project, graph: CallGraph
    ) -> list[Finding]:
        acquired = graph.transitive_locks()
        # edge (held -> wanted) -> one witness (source, line, qualname)
        edges: dict[tuple[str, str], tuple[SourceFile, int, str]] = {}
        for fn in graph.functions:
            if not self.applies_to(fn.source):
                continue
            held: list[str] = []
            for event in fn.events:
                if event.kind == "acquire":
                    for holder in held:
                        if holder != event.name:
                            edges.setdefault(
                                (holder, event.name),
                                (fn.source, event.line, fn.qualname),
                            )
                    held.append(event.name)
                elif event.kind == "release":
                    if event.name in held:
                        held.remove(event.name)
                elif event.kind == "call" and held and event.call is not None:
                    for target in graph.resolve(fn, event.call):
                        for wanted in acquired[id(target)]:
                            for holder in held:
                                if holder != wanted:
                                    edges.setdefault(
                                        (holder, wanted),
                                        (fn.source, event.line, fn.qualname),
                                    )
        return self._report_cycles(edges)

    def _report_cycles(
        self,
        edges: dict[tuple[str, str], tuple[SourceFile, int, str]],
    ) -> list[Finding]:
        graph: dict[str, set[str]] = {}
        for held, wanted in edges:
            graph.setdefault(held, set()).add(wanted)
            graph.setdefault(wanted, set())
        findings: list[Finding] = []
        reported: set[frozenset[str]] = set()
        for start in sorted(graph):
            cycle = self._find_cycle(graph, start)
            if not cycle:
                continue
            key = frozenset(cycle)
            if key in reported:
                continue
            reported.add(key)
            closing = (cycle[-1], cycle[0])
            witness = edges.get(closing)
            if witness is None:
                for i in range(len(cycle) - 1):
                    witness = edges.get((cycle[i], cycle[i + 1]))
                    if witness:
                        break
            if witness is None:
                continue
            source, line, qualname = witness
            order = " -> ".join([*cycle, cycle[0]])
            findings.append(
                self.finding(
                    "ATM003",
                    f"lock acquisition-order cycle: {order}; acquiring in "
                    "opposite orders on two code paths can deadlock",
                    source,
                    line,
                    context=qualname,
                )
            )
        return findings

    @staticmethod
    def _find_cycle(
        graph: dict[str, set[str]], start: str
    ) -> Optional[list[str]]:
        """A simple cycle through ``start``, as an ordered lock list."""
        stack: list[tuple[str, list[str]]] = [(start, [start])]
        seen: set[str] = set()
        while stack:
            node, path = stack.pop()
            for succ in sorted(graph.get(node, ())):
                if succ == start:
                    return path
                if succ in seen or succ in path:
                    continue
                stack.append((succ, path + [succ]))
            seen.add(node)
        return None
