"""Interprocedural shared-state race inference (RACE).

The atomicity checker verifies *declared* critical sections; this family
*infers* protection, RacerD/Eraser-style, so unannotated shared state is
covered too.  The model: the simulator is cooperative, so two processes
can only interleave at yield points — a field is racy when one process
can observe or modify it in the window another process opened by yielding
mid-update.  Protection comes from sim ``Lock``s held across the window,
or from declared-atomic scopes (which the ATM family proves yield-free).

For every class in the deterministic core the checker computes, per
``self.<field>`` access, the *lockset* — locks held at the access point,
both locally (``with lock:`` / ``acquire()``...``release()`` in statement
order) and interprocedurally (locks every confident caller is known to
hold when the enclosing helper runs — the caller-context fixpoint).

RACE001  inconsistent locksets: the same field is guarded by different
         locks in different methods, so neither lock actually excludes
         the other path;
RACE002  stale read: a field is read before a yield point and written
         after it in the same function with no lock or atomic scope
         spanning the window — the scheduler can interleave a concurrent
         update between the read and the write (lost update);
RACE003  a lock is acquired on a yielding path without ``with`` or an
         immediate ``try/finally`` release — an exception thrown into
         the generator leaves the lock held forever;
RACE004  unprotected write: a field some method accesses under a lock is
         written elsewhere with no lock held, bypassing the exclusion the
         lock was meant to provide.

``__init__``/``__post_init__`` run before the object is shared and are
exempt; accesses inside declared-atomic functions or regions are exempt
(the ATM family proves those scopes indivisible).  Resolution stays
confident-only — an unresolvable call contributes no locks and no edges.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.analysis.callgraph import (
    AccessEvent,
    CallGraph,
    FunctionInfo,
    atomic_function_ids,
    atomic_regions,
    lock_call,
    stmt_bodies,
)
from repro.analysis.findings import Finding
from repro.analysis.framework import Checker
from repro.analysis.source import Project

#: constructors that run before the object escapes to other processes.
CONSTRUCTION_METHODS = frozenset({"__init__", "__post_init__", "__new__"})

#: ids of declared-atomic functions, and the atomic regions of each file.
AtomicScopes = tuple[set[int], dict[str, list[tuple[int, int]]]]


@dataclass
class FieldAccess:
    """One ``self.<field>`` access with its inferred lockset."""

    field: str
    kind: str  # "read" | "write"
    line: int
    fn: FunctionInfo
    locks: frozenset[str]
    #: inside a declared-atomic function or atomic-begin/end region.
    atomic: bool
    #: enclosing method is a constructor (object not yet shared).
    construction: bool


class RaceChecker(Checker):
    name = "races"
    codes = {
        "RACE001": "field guarded by inconsistent locksets across methods",
        "RACE002": "read-yield-write window on a shared field (stale read)",
        "RACE003": "lock acquired on a yielding path without guaranteed release",
        "RACE004": "unprotected write to a field other methods access under a lock",
    }
    #: the deterministic core — the state the paper's FT and load-balancing
    #: guarantees depend on.
    default_scope = (
        "repro/ft/",
        "repro/orb/",
        "repro/services/",
        "repro/cluster/",
        "repro/winner/",
        "repro/sim/",
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = project.call_graph
        atomic = self._atomic_scopes(project, graph)
        accesses, fn_events = self._collect_accesses(graph, atomic)
        findings: list[Finding] = []
        findings.extend(self._check_locksets(accesses))
        findings.extend(self._check_stale_windows(graph, fn_events, atomic))
        findings.extend(self._check_release_paths(project, graph))
        return findings

    def _atomic_scopes(self, project: Project, graph: CallGraph) -> AtomicScopes:
        """ids of declared-atomic functions, and atomic regions per file."""
        atomic_fns: set[int] = set()
        regions: dict[str, list[tuple[int, int]]] = {}
        for source in self.scoped_files(project):
            atomic_fns |= atomic_function_ids(source, graph.functions)
            regions[source.relpath] = atomic_regions(source)
        return atomic_fns, regions

    # -- access collection + caller-context lock inference -----------------------

    def _collect_accesses(
        self, graph: CallGraph, atomic: AtomicScopes
    ) -> tuple[
        dict[tuple[str, str, str], list[FieldAccess]],
        dict[int, list[AccessEvent]],
    ]:
        """Every ``self.<field>`` access in scope, with effective locksets.

        Returns the accesses grouped by (file, class, field) plus the
        in-scope functions' event streams (keyed by ``id(fn)``), which
        the stale-window pass reads too.
        """
        atomic_fns, regions = atomic
        scoped = [fn for fn in graph.functions if self.applies_to(fn.source)]
        fn_events = {id(fn): fn.events for fn in scoped}

        held_in = self._caller_context_locks(graph, fn_events)

        accesses: dict[tuple[str, str, str], list[FieldAccess]] = {}
        for fn in scoped:
            if fn.class_name is None:
                continue
            base_locks = held_in.get(id(fn)) or frozenset()
            spans = regions.get(fn.source.relpath, [])
            in_construction = fn.name in CONSTRUCTION_METHODS
            fn_atomic = id(fn) in atomic_fns
            held: list[str] = list(base_locks)
            for event in fn_events[id(fn)]:
                if event.kind == "acquire":
                    held.append(event.name)
                elif event.kind == "release":
                    if event.name in held:
                        held.remove(event.name)
                elif event.kind in ("read", "write"):
                    in_region = any(
                        begin <= event.line <= end for begin, end in spans
                    )
                    key = (fn.source.relpath, fn.class_name, event.name)
                    accesses.setdefault(key, []).append(
                        FieldAccess(
                            field=event.name,
                            kind=event.kind,
                            line=event.line,
                            fn=fn,
                            locks=frozenset(held),
                            atomic=fn_atomic or in_region,
                            construction=in_construction,
                        )
                    )
        return accesses, fn_events

    @staticmethod
    def _caller_context_locks(
        graph: CallGraph, fn_events: dict[int, list[AccessEvent]]
    ) -> dict[int, frozenset[str]]:
        """``id(fn) -> locks every confident caller holds at every call``.

        A helper that is only ever invoked with ``self._lock`` held is as
        protected as inline code under the lock; the intersection over all
        call sites (iterated to a fixpoint for helper chains) makes that
        explicit.  Functions with no confident in-scope callers get the
        empty set — they are potential entry points.
        """
        held_in: dict[int, Optional[frozenset[str]]] = {
            id(fn): None for fn in graph.functions
        }
        for _ in range(len(graph.functions)):
            changed = False
            for fn in graph.functions:
                events = fn_events.get(id(fn))
                if events is None:
                    continue
                base = held_in[id(fn)] or frozenset()
                held: list[str] = list(base)
                for event in events:
                    if event.kind == "acquire":
                        held.append(event.name)
                    elif event.kind == "release":
                        if event.name in held:
                            held.remove(event.name)
                    elif event.kind == "call" and event.call is not None:
                        if event.call.deferred:
                            context: frozenset[str] = frozenset()
                        else:
                            context = frozenset(held)
                        for target in graph.resolve(fn, event.call):
                            current = held_in[id(target)]
                            narrowed = (
                                context
                                if current is None
                                else current & context
                            )
                            if narrowed != current:
                                held_in[id(target)] = narrowed
                                changed = True
            if not changed:
                break
        return {
            key: value for key, value in held_in.items() if value
        }

    # -- RACE001 / RACE004 --------------------------------------------------------

    def _check_locksets(
        self,
        accesses: dict[tuple[str, str, str], list[FieldAccess]],
    ) -> list[Finding]:
        findings: list[Finding] = []
        for (_, class_name, field_name), field_accesses in sorted(
            accesses.items()
        ):
            live = [
                a
                for a in field_accesses
                if not a.construction and not a.atomic
            ]
            locked = [a for a in live if a.locks]
            if not locked:
                continue
            common = frozenset.intersection(*(a.locks for a in locked))
            if not common:
                a, b = self._disjoint_pair(locked)
                findings.append(
                    self.finding(
                        "RACE001",
                        f"field self.{field_name} of {class_name} has "
                        "inconsistent lock protection: guarded by "
                        f"{{{', '.join(sorted(a.locks))}}} in {a.fn.qualname} "
                        f"but by {{{', '.join(sorted(b.locks))}}} in "
                        f"{b.fn.qualname} — neither lock excludes the other "
                        "path",
                        locked[0].fn.source,
                        locked[0].line,
                        context=locked[0].fn.qualname,
                    )
                )
                continue
            lock_label = ", ".join(sorted(common))
            holder = locked[0].fn.qualname
            for access in live:
                if access.kind != "write" or access.locks & common:
                    continue
                findings.append(
                    self.finding(
                        "RACE004",
                        f"write to self.{field_name} in {access.fn.qualname} "
                        f"without holding {{{lock_label}}}, which {holder} "
                        "holds when accessing it — the write can land inside "
                        "another process's critical section",
                        access.fn.source,
                        access.line,
                        context=access.fn.qualname,
                    )
                )
        return findings

    @staticmethod
    def _disjoint_pair(
        locked: list[FieldAccess],
    ) -> tuple[FieldAccess, FieldAccess]:
        for a in locked:
            for b in locked:
                if not (a.locks & b.locks):
                    return a, b
        return locked[0], locked[-1]

    # -- RACE002: read .. yield .. write windows ----------------------------------

    def _check_stale_windows(
        self,
        graph: CallGraph,
        fn_events: dict[int, list[AccessEvent]],
        atomic: AtomicScopes,
    ) -> list[Finding]:
        findings: list[Finding] = []
        atomic_fns, regions = atomic
        for fn in graph.functions:
            events = fn_events.get(id(fn))
            if (
                events is None
                or not fn.is_generator
                or fn.class_name is None
                or fn.name in CONSTRUCTION_METHODS
                or id(fn) in atomic_fns
            ):
                continue
            spans = regions.get(fn.source.relpath, [])
            held: list[str] = []
            #: field -> line of the most recent unprotected read that no
            #: yield has intervened after ... until promoted below.
            last_read: dict[str, int] = {}
            #: field -> read line, armed by an unprotected yield.
            stale: dict[str, int] = {}
            reported: set[str] = set()
            for event in events:
                if event.kind == "acquire":
                    held.append(event.name)
                elif event.kind == "release":
                    if event.name in held:
                        held.remove(event.name)
                elif event.kind == "read":
                    if not held and not _in_spans(spans, event.line):
                        last_read[event.name] = event.line
                        # a fresh read supersedes the pre-yield one
                        stale.pop(event.name, None)
                elif event.kind == "yield":
                    if not held and not _in_spans(spans, event.line):
                        for field_name, line in last_read.items():
                            stale.setdefault(field_name, line)
                        last_read.clear()
                elif event.kind == "write":
                    read_line = stale.pop(event.name, None)
                    last_read.pop(event.name, None)
                    if (
                        read_line is not None
                        and not held
                        and not _in_spans(spans, event.line)
                        and event.name not in reported
                    ):
                        reported.add(event.name)
                        findings.append(
                            self.finding(
                                "RACE002",
                                f"self.{event.name} is read before a yield "
                                f"point and written after it in "
                                f"{fn.qualname} with no lock or atomic "
                                "scope spanning the window — a concurrent "
                                "process can update it during the wait, so "
                                "the write clobbers that update (stale "
                                "read)",
                                fn.source,
                                event.line,
                                context=fn.qualname,
                            )
                        )
        return findings

    # -- RACE003: release-on-all-paths --------------------------------------------

    def _check_release_paths(
        self, project: Project, graph: CallGraph
    ) -> list[Finding]:
        findings: list[Finding] = []
        if not graph.lock_names:
            return findings
        for fn in graph.functions:
            if not self.applies_to(fn.source) or not fn.may_yield:
                continue
            node = fn.node
            findings.extend(
                self._scan_acquires(
                    getattr(node, "body", []), fn, graph.lock_names, frozenset()
                )
            )
        return findings

    def _scan_acquires(
        self,
        body: list[ast.stmt],
        fn: FunctionInfo,
        lock_names: frozenset[str],
        guarded: frozenset[str],
    ) -> list[Finding]:
        """Report acquires in ``body`` with no structural release guarantee.

        ``guarded`` carries locks released by an enclosing ``try``'s
        ``finally`` — acquires of those inside that try body are safe.
        """
        findings: list[Finding] = []
        for index, stmt in enumerate(body):
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            lock = _acquired_lock(stmt, lock_names)
            if (
                lock is not None
                and lock not in guarded
                and not _released_by_next(body, index, lock)
            ):
                findings.append(
                    self.finding(
                        "RACE003",
                        f"lock {lock} is acquired on a yielding path in "
                        f"{fn.qualname} without a with-block or a "
                        "try/finally release — an exception thrown into "
                        "the generator strands the lock held forever",
                        fn.source,
                        stmt.lineno,
                        context=fn.qualname,
                    )
                )
            if isinstance(stmt, ast.Try) and stmt.finalbody:
                inner = guarded | _released_locks(stmt.finalbody, lock_names)
                findings.extend(
                    self._scan_acquires(stmt.body, fn, lock_names, inner)
                )
                for handler in stmt.handlers:
                    findings.extend(
                        self._scan_acquires(
                            handler.body, fn, lock_names, guarded
                        )
                    )
                for part in (stmt.orelse, stmt.finalbody):
                    findings.extend(
                        self._scan_acquires(part, fn, lock_names, guarded)
                    )
            else:
                for child_body in stmt_bodies(stmt):
                    findings.extend(
                        self._scan_acquires(
                            child_body, fn, lock_names, guarded
                        )
                    )
        return findings


def _in_spans(spans: list[tuple[int, int]], line: int) -> bool:
    return any(begin <= line <= end for begin, end in spans)


def _acquired_lock(
    stmt: ast.stmt, lock_names: frozenset[str]
) -> Optional[str]:
    """The lock a statement acquires via ``.acquire()``, if any.

    ``with lock:`` blocks release structurally and are not reported;
    acquires nested inside a ``try`` body are checked against that same
    try's ``finally`` by the caller's recursion.
    """
    if not isinstance(stmt, (ast.Expr, ast.Assign)):
        return None
    for node in ast.walk(stmt.value):
        lock = lock_call(node, lock_names)
        if lock is not None and lock[0] == "acquire":
            return lock[1]
    return None


def _released_by_next(
    body: list[ast.stmt], acquire_index: int, lock: str
) -> bool:
    """The statement after the acquire is a ``try`` whose ``finally``
    releases ``lock`` — the classic sim-lock idiom."""
    if acquire_index + 1 >= len(body):
        return False
    nxt = body[acquire_index + 1]
    if not isinstance(nxt, ast.Try) or not nxt.finalbody:
        return False
    return lock in _released_locks(nxt.finalbody, frozenset({lock}))


def _released_locks(
    body: list[ast.stmt], lock_names: frozenset[str]
) -> frozenset[str]:
    """Locks released by ``.release()`` calls anywhere in ``body``."""
    return frozenset(
        lock[1]
        for stmt in body
        for node in ast.walk(stmt)
        if (lock := lock_call(node, lock_names)) is not None
        and lock[0] == "release"
    )
