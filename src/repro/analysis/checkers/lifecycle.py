"""Typestate lifecycle analysis for protocol objects (LIF).

The runtime has several objects whose API is a *protocol*: an opening
call puts them in an intermediate state that some closing call must
resolve, or the object silently degrades — a circuit breaker that is
probed but never told the outcome stops adapting, a pipelined state
shipment that is enqueued but never drained loses the tail of the update
stream on failover, a connection-cache entry that is begun but never resolved
wedges every later caller on a future that cannot complete.

Each protocol is a declarative :class:`ProtocolSpec`: the *begin* method
names, the receiver markers that identify the protocol object (so a
stray ``begin()`` on an unrelated object is not claimed), the *sink*
method names that resolve the intermediate state, and how to check:

``reach``    from the function containing the begin call, some sink call
             must be reachable along confident call-graph edges — the
             opener is responsible for (transitively) resolving;
``project``  the class defining the begin must also define a sink, and at
             least one confident call to that sink must exist somewhere
             in the project — the machinery has an exercised exit path.
             Confident means a ``self`` call resolving to the class, or,
             for a protocol object its owners hold in an attribute, an
             attribute call whose receiver text carries one of the
             receiver markers (``ft.shipper.drain()``).

Codes:

LIF001  ``CircuitBreaker.allow()`` outcome never recorded;
LIF002  pipelined state-shipment window (``StateShipper.enqueue``, serving
        checkpoints and standby ships alike) with no exercised ``drain``;
LIF003  ``ConnectionCache.begin`` never resolved to commit-or-invalidate.

Functions on the protocol class itself (a class defining the sinks) are
exempt — the facade forwarding ``allow`` is not a leaked protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.analysis.callgraph import CallGraph, FunctionInfo
from repro.analysis.findings import Finding
from repro.analysis.framework import Checker
from repro.analysis.source import Project


@dataclass(frozen=True)
class ProtocolSpec:
    """One begin-must-reach-sink protocol, declaratively."""

    code: str
    label: str
    #: method names that open the protocol.
    begin: frozenset[str]
    #: lowercase substrings, one of which must appear in the receiver
    #: text for a call to be claimed by this protocol (``frozenset()``
    #: claims any receiver).  Calls with unresolvable receiver text are
    #: skipped — confident-only, like call resolution.
    receiver_markers: frozenset[str]
    #: method names that resolve the intermediate state.
    sinks: frozenset[str]
    mode: str  # "reach" | "project"


PROTOCOLS: tuple[ProtocolSpec, ...] = (
    ProtocolSpec(
        code="LIF001",
        label="circuit breaker probe",
        begin=frozenset({"allow"}),
        receiver_markers=frozenset({"breaker"}),
        sinks=frozenset({"record_success", "record_failure"}),
        mode="reach",
    ),
    ProtocolSpec(
        code="LIF002",
        label="pipelined state shipment",
        begin=frozenset({"enqueue"}),
        receiver_markers=frozenset({"shipper"}),
        sinks=frozenset({"drain"}),
        mode="project",
    ),
    ProtocolSpec(
        code="LIF003",
        label="connection-cache entry",
        begin=frozenset({"begin"}),
        receiver_markers=frozenset({"cache", "connection"}),
        sinks=frozenset({"discard", "try_succeed", "invalidate", "commit"}),
        mode="reach",
    ),
)


class LifecycleChecker(Checker):
    name = "lifecycle"
    codes = {
        "LIF001": "circuit-breaker allow() outcome never recorded",
        "LIF002": "pipelined-shipment enqueue with no exercised drain path",
        "LIF003": "connection-cache begin never resolved",
    }
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
        scoped = [fn for fn in graph.functions if self.applies_to(fn.source)]
        findings: list[Finding] = []
        for spec in PROTOCOLS:
            if spec.mode == "reach":
                findings.extend(self._check_reach(spec, graph, scoped))
            else:
                findings.extend(self._check_project_mode(spec, graph, scoped))
        return findings

    # -- reach mode: opener must (transitively) call a sink ----------------------

    def _check_reach(
        self,
        spec: ProtocolSpec,
        graph: CallGraph,
        scoped: list[FunctionInfo],
    ) -> list[Finding]:
        findings: list[Finding] = []
        for fn in scoped:
            if self._defines_sink(graph, fn.class_name, spec):
                continue  # the protocol object itself / its facade
            for site in fn.calls:
                if site.name not in spec.begin or site.kind == "name":
                    continue
                if spec.receiver_markers:
                    receiver = site.receiver.lower()
                    if not receiver or not any(
                        marker in receiver for marker in spec.receiver_markers
                    ):
                        continue
                if self._sink_reachable(graph, fn, spec.sinks):
                    continue
                findings.append(
                    self.finding(
                        spec.code,
                        f"{spec.label} opened via {site.name}() in "
                        f"{fn.qualname} but no "
                        f"{'/'.join(sorted(spec.sinks))} call is reachable "
                        "from it — the protocol object is left in its "
                        "intermediate state",
                        fn.source,
                        site.line,
                        context=fn.qualname,
                    )
                )
        return findings

    @staticmethod
    def _sink_reachable(
        graph: CallGraph, start: FunctionInfo, sinks: frozenset[str]
    ) -> bool:
        for fn in graph.reachable_from(start):
            for site in fn.calls:
                if site.name in sinks:
                    return True
        return False

    @staticmethod
    def _defines_sink(
        graph: CallGraph, class_name: str | None, spec: ProtocolSpec
    ) -> bool:
        if class_name is None:
            return False
        for cls in graph.classes.get(class_name, []):
            if spec.sinks & cls.methods.keys():
                return True
        return False

    # -- project mode: the machinery must have an exercised exit path ------------

    def _check_project_mode(
        self,
        spec: ProtocolSpec,
        graph: CallGraph,
        scoped: list[FunctionInfo],
    ) -> list[Finding]:
        findings: list[Finding] = []
        for fn in scoped:
            if fn.name not in spec.begin or fn.class_name is None:
                continue
            sink_defined = self._defines_sink(graph, fn.class_name, spec)
            sink_called = sink_defined and self._sink_called_anywhere(
                graph, fn.class_name, spec
            )
            if sink_defined and sink_called:
                continue
            problem = (
                "the class defines no "
                f"{'/'.join(sorted(spec.sinks))} sink"
                if not sink_defined
                else "no call anywhere in the project resolves to its "
                f"{'/'.join(sorted(spec.sinks))} sink"
            )
            findings.append(
                self.finding(
                    spec.code,
                    f"{spec.label} machinery {fn.qualname} has no exercised "
                    f"exit path: {problem} — state opened here can never "
                    "be drained",
                    fn.source,
                    fn.node.lineno,
                    context=fn.qualname,
                )
            )
        return findings

    @staticmethod
    def _sink_called_anywhere(
        graph: CallGraph, class_name: str, spec: ProtocolSpec
    ) -> bool:
        for caller in graph.functions:
            for site in caller.calls:
                if site.name not in spec.sinks:
                    continue
                for target in graph.resolve(caller, site):
                    if target.class_name == class_name:
                        return True
                receiver = site.receiver.lower()
                if site.kind == "attr" and any(
                    marker in receiver for marker in spec.receiver_markers
                ):
                    return True
        return False
