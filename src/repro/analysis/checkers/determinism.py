"""Determinism lint (DET).

The whole reproduction — Fig. 3 / Table 1 goldens, the chaos matrix, the
pinned benchmark gates — is only trustworthy because a simulation run is a
pure function of its seed.  This checker flags the ways wall-clock time and
process-salted entropy leak into simulated code:

DET001  wall-clock reads (``time.time``, ``datetime.now``, ...), both
        direct calls and references that capture the function as a value
        (``clock = time.perf_counter``);
DET002  unseeded / process-global randomness (bare ``random.*``,
        ``numpy.random.*`` module-level state, ``uuid4``, ``os.urandom``);
DET003  ``id()`` / ``hash()`` used as an ordering key (both are salted or
        allocation-dependent across processes);
DET004  iterating a ``set`` where order can leak into results (string
        hashing is randomized per process, so set order is not stable).

Scope: the deterministic core (``sim``, ``cluster``, ``orb``, ``ft``,
``winner``, ``services``, ``chaos``) plus ``obs``; a legitimate host
clock read carries an inline ``# analysis: ignore[DET001]: ...``
allowlist entry with the justification.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.findings import Finding, Severity
from repro.analysis.framework import Checker
from repro.analysis.source import Project, SourceFile

#: functions whose return value is the host wall clock / monotonic clock.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: numpy.random constructors that are fine *when given a seed argument*.
_SEEDABLE_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.Philox",
        "numpy.random.MT19937",
        "numpy.random.SFC64",
    }
)

#: always-nondeterministic entropy sources.
_ENTROPY = frozenset(
    {"uuid.uuid1", "uuid.uuid4", "os.urandom", "os.getrandom"}
)

#: builtins that consume an iterable without caring about its order.
_ORDER_INSENSITIVE = frozenset(
    {
        "sorted",
        "sum",
        "len",
        "min",
        "max",
        "any",
        "all",
        "set",
        "frozenset",
    }
)

#: builtins that materialize iteration order into an ordered result.
_ORDER_MATERIALIZERS = frozenset({"list", "tuple", "enumerate", "iter"})


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class DeterminismChecker(Checker):
    name = "determinism"
    codes = {
        "DET001": "wall-clock read inside simulated code",
        "DET002": "unseeded or process-global randomness",
        "DET003": "id()/hash() used as an ordering key",
        "DET004": "set iteration order can leak into results",
    }
    default_scope = (
        "repro/sim/",
        "repro/cluster/",
        "repro/orb/",
        "repro/ft/",
        "repro/winner/",
        "repro/services/",
        "repro/chaos/",
        "repro/obs/",
        # runnable entry points drive the sim too: a wall-clock read or
        # unseeded RNG there breaks reproducibility just as surely.
        "benchmarks/",
        "examples/",
    )

    def check_file(
        self, source: SourceFile, project: Project
    ) -> Iterable[Finding]:
        assert source.tree is not None
        findings: list[Finding] = []
        parents: dict[ast.AST, ast.AST] = {}
        for node in source.nodes:
            for child in ast.iter_child_nodes(node):
                parents[child] = node
            if isinstance(node, ast.Call):
                findings.extend(self._check_call(source, node))
                findings.extend(self._check_sort_key(source, node))
        findings.extend(self._check_clock_references(source, parents))
        findings.extend(self._check_set_iteration(source, parents))
        return findings

    # -- DET001 / DET002 -----------------------------------------------------------

    def _check_call(
        self, source: SourceFile, node: ast.Call
    ) -> Iterable[Finding]:
        fullname = source.resolve_call_name(node.func)
        if not fullname:
            return
        if fullname in _WALL_CLOCK:
            yield self.finding(
                "DET001",
                f"call to {fullname}() reads the wall clock; simulated "
                "code must use sim.now",
                source,
                node,
            )
            return
        if fullname in _ENTROPY:
            yield self.finding(
                "DET002",
                f"{fullname}() draws OS entropy; derive values from "
                "sim.rng(...) / rng_stream(...) instead",
                source,
                node,
            )
            return
        if fullname in _SEEDABLE_CONSTRUCTORS:
            if not node.args and not node.keywords:
                yield self.finding(
                    "DET002",
                    f"{fullname}() without a seed draws OS entropy; pass "
                    "an explicit seed or SeedSequence",
                    source,
                    node,
                )
            return
        if fullname in ("random.Random", "random.SystemRandom"):
            if fullname == "random.SystemRandom" or not node.args:
                yield self.finding(
                    "DET002",
                    f"{fullname}() is unseeded; use "
                    "repro.sim.randomness.rng_stream(seed, ...)",
                    source,
                    node,
                )
            return
        if fullname.startswith("random."):
            yield self.finding(
                "DET002",
                f"{fullname}() uses the process-global random state; use "
                "a named stream from sim.rng(...) instead",
                source,
                node,
            )
            return
        if fullname.startswith(("numpy.random.", "secrets.")):
            yield self.finding(
                "DET002",
                f"{fullname}() touches process-global or OS entropy; use "
                "a seeded Generator",
                source,
                node,
            )

    def _check_clock_references(
        self, source: SourceFile, parents: dict[ast.AST, ast.AST]
    ) -> Iterable[Finding]:
        """DET001 for wall-clock functions captured as *values*.

        ``clock = time.perf_counter`` smuggles the wall clock past the
        call check — the read happens later, at an uncheckable site (a
        default argument, an injected callback, a dispatch table).  Flag
        the reference itself; a legitimate capture carries the same
        justified ``# analysis: ignore[DET001]`` directive a direct call
        would.
        """
        for node in source.nodes:
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            parent = parents.get(node)
            if isinstance(parent, ast.Call) and parent.func is node:
                continue  # a direct call; _check_call covers it
            if isinstance(parent, ast.Attribute):
                continue  # inner link of a longer dotted chain
            if isinstance(node, ast.Name) and not isinstance(
                getattr(node, "ctx", None), ast.Load
            ):
                continue
            fullname = source.resolve_call_name(node)
            if fullname in _WALL_CLOCK and fullname != (
                node.id if isinstance(node, ast.Name) else None
            ):
                yield self.finding(
                    "DET001",
                    f"reference to {fullname} captures the wall clock as a "
                    "value; simulated code must derive time from sim.now",
                    source,
                    node,
                )

    # -- DET003 ------------------------------------------------------------------

    def _check_sort_key(
        self, source: SourceFile, node: ast.AST
    ) -> Iterable[Finding]:
        if not isinstance(node, ast.Call):
            return
        func = node.func
        is_sorting = (
            isinstance(func, ast.Name) and func.id in ("sorted", "min", "max")
        ) or (isinstance(func, ast.Attribute) and func.attr == "sort")
        if not is_sorting:
            return
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            offender = self._ordering_key_offender(keyword.value)
            if offender:
                yield self.finding(
                    "DET003",
                    f"ordering key uses {offender}(), which is salted or "
                    "allocation-dependent across processes",
                    source,
                    node,
                )

    @staticmethod
    def _ordering_key_offender(key: ast.expr) -> Optional[str]:
        if isinstance(key, ast.Name) and key.id in ("id", "hash"):
            return key.id
        if isinstance(key, ast.Lambda):
            for node in ast.walk(key.body):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("id", "hash")
                ):
                    return node.func.id
        return None

    # -- DET004 ------------------------------------------------------------------

    def _check_set_iteration(
        self, source: SourceFile, parents: dict[ast.AST, ast.AST]
    ) -> Iterable[Finding]:
        assert source.tree is not None
        findings: list[Finding] = []
        set_vars = self._single_assignment_sets(source.nodes)

        def is_set_valued(node: ast.expr) -> bool:
            if _is_set_expr(node):
                return True
            return isinstance(node, ast.Name) and node.id in set_vars

        def flag(node: ast.AST, what: str) -> None:
            findings.append(
                self.finding(
                    "DET004",
                    f"{what} iterates a set whose order is process-"
                    "dependent; sort it first (or use an order-insensitive "
                    "reduction)",
                    source,
                    node,
                    severity=Severity.WARNING,
                )
            )

        for node in source.nodes:
            if isinstance(node, ast.For) and is_set_valued(node.iter):
                flag(node, "for loop")
            elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                if not node.generators or not is_set_valued(
                    node.generators[0].iter
                ):
                    continue
                parent = parents.get(node)
                if (
                    isinstance(node, ast.GeneratorExp)
                    and isinstance(parent, ast.Call)
                    and isinstance(parent.func, ast.Name)
                    and parent.func.id in _ORDER_INSENSITIVE
                ):
                    continue
                flag(node, "comprehension")
            elif isinstance(node, ast.Call):
                func = node.func
                arg0 = node.args[0] if node.args else None
                if arg0 is None or not is_set_valued(arg0):
                    continue
                if isinstance(func, ast.Name) and func.id in _ORDER_MATERIALIZERS:
                    flag(node, f"{func.id}()")
                elif isinstance(func, ast.Attribute) and func.attr == "join":
                    flag(node, "str.join()")
        return findings

    @staticmethod
    def _single_assignment_sets(nodes: list[ast.AST]) -> set[str]:
        """Names assigned exactly once, to a set expression."""
        assigned_sets: dict[str, int] = {}
        assignment_counts: dict[str, int] = {}

        def note(name: str, is_set: bool) -> None:
            assignment_counts[name] = assignment_counts.get(name, 0) + 1
            if is_set:
                assigned_sets[name] = assigned_sets.get(name, 0) + 1

        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    note(target.id, _is_set_expr(node.value))
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                if isinstance(node.target, ast.Name):
                    value = getattr(node, "value", None)
                    note(
                        node.target.id,
                        value is not None and _is_set_expr(value),
                    )
            elif isinstance(node, (ast.For, ast.comprehension)):
                target = node.target
                if isinstance(target, ast.Name):
                    note(target.id, False)
        return {
            name
            for name, count in assigned_sets.items()
            if count == 1 and assignment_counts.get(name) == 1
        }
