"""Tracing from outside: phase spans and the 19-layer profile rollup.

Nothing under ``src/`` is touched.  Two instruments live here:

* :class:`SpanRecorder` — name, start, end, parent and a shared id per
  pass, recorded around the benchmark's own calls into public functions,
  kept in memory and written as JSONL when the run ends.
* :func:`profile_pass` / :func:`rollup` — one extra pass under
  ``cProfile``; self time and call counts are rolled up *by source path*
  to the layers of ``docs/ARCHITECTURE.md``.  Built-ins, the standard
  library and numpy are attributed to the calling layer by walking the
  profiler's caller table until a ``repro/`` frame is reached.

Both are off during timed passes: the end-to-end numbers are measured
without them, and ``harness.trace_overhead_ratio`` says what they cost.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from typing import Callable, Iterator, Optional

import hostclock

#: layer -> path fragments under ``repro/`` (first match wins, so the
#: specific files come before their package's catch-all).
LAYER_PATHS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("sim.kernel", ("sim/kernel.py", "sim/randomness.py", "sim/tracing.py")),
    ("sim.process", ("sim/process.py",)),
    ("sim.events", ("sim/events.py",)),
    ("sim.resources", ("sim/resources.py", "sim/sync.py", "sim/channels.py")),
    ("cluster.network", ("cluster/network.py", "cluster/wan.py")),
    ("cluster.loadgen", ("cluster/loadgen.py",)),
    ("cluster.host", ("cluster/",)),
    ("orb.cdr", ("orb/cdr.py", "orb/typecodes.py")),
    ("orb.giop", ("orb/giop.py",)),
    ("orb.core", ("orb/",)),
    ("services.naming", ("services/naming/",)),
    ("services.checkpoint", ("services/checkpoint.py",)),
    ("ft.proxies", ("ft/proxies.py", "ft/request_proxy.py", "ft/checkpointable.py")),
    ("ft.replication", ("ft/replication.py", "ft/replicated_store.py")),
    ("ft.recovery", ("ft/",)),
    ("winner", ("winner/",)),
    ("opt", ("opt/",)),
    ("obs", ("obs/",)),
    ("core", ("core/", "bench/", "errors.py", "services/")),
)
LAYERS: tuple[str, ...] = tuple(name for name, _ in LAYER_PATHS)
#: the benchmark's own frames (clients, servants, this harness).
HARNESS = "harness"


#: generated-module function prefixes that are marshalling code; the rest
#: of a ``<idl:...>`` module is stubs and skeletons, i.e. ``orb.core``.
_GENERATED_CODER_PREFIXES = ("encode_", "decode_", "_rq_", "_ad_")


def layer_of(func: tuple) -> Optional[str]:
    """The layer a profiled function ``(filename, line, name)`` belongs to:
    ``HARNESS`` for the benchmark's own files, ``None`` for built-ins,
    the standard library and numpy."""
    path = func[0].replace("\\", "/")
    if "/benchmarks/e2e/" in path:
        return HARNESS
    if path.startswith("<idl:"):
        coder = func[2].startswith(_GENERATED_CODER_PREFIXES)
        return "orb.cdr" if coder else "orb.core"
    marker = path.rfind("/repro/")
    if marker < 0:
        return None
    relative = path[marker + len("/repro/") :]
    for layer, fragments in LAYER_PATHS:
        if relative.startswith(fragments):
            return layer
    return "core"


# -- phase spans -------------------------------------------------------------------


class SpanRecorder:
    """In-memory phase spans; ``NULL_SPANS`` is the disabled instance the
    timed passes use, whose ``span()`` costs one attribute test."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: list[dict] = []
        self._stack: list[int] = []
        self._pass_id = 0

    @contextlib.contextmanager
    def _record(self, name: str) -> Iterator[None]:
        index = len(self.records)
        record = {
            "id": index,
            "pass": self._pass_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": hostclock.wall(),
            "cpu_start": hostclock.cpu(),
        }
        self.records.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = hostclock.wall()
            record["cpu"] = hostclock.cpu() - record.pop("cpu_start")

    def span(self, name: str):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name)

    def next_pass(self) -> None:
        self._pass_id += 1

    def phase_cpu(self, name: str) -> list[float]:
        """CPU seconds spent in spans called ``name``, summed per pass."""
        per_pass: dict[int, float] = {}
        for record in self.records:
            if record["name"] == name:
                per_pass[record["pass"]] = (
                    per_pass.get(record["pass"], 0.0) + record["cpu"]
                )
        return list(per_pass.values())

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="ascii") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


NULL_SPANS = SpanRecorder(enabled=False)


# -- the profile rollup ------------------------------------------------------------


def profile_pass(run: Callable[[], object]) -> dict:
    """Run ``run()`` under cProfile; returns the raw stats table
    ``func -> (cc, nc, tt, ct, callers)``."""
    # Imported here: every child interpreter imports this module, and the
    # profiler's import cost is the harness's, not the program's set-up.
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    return pstats.Stats(profiler).stats


def rollup(stats: dict) -> dict:
    """Roll a cProfile stats table up to layers.

    Returns ``{"self_seconds": {layer: s}, "calls": {layer: n},
    "total_seconds": s, "total_calls": n, "unattributed_seconds": s}``.
    A function in a ``repro/`` file (or one of the benchmark's own) owns
    its self time.  Any other function — a built-in, stdlib or numpy —
    hands the self time of each caller edge to that caller's owner, and a
    caller that is itself foreign passes it up its own callers in
    proportion to the time they spent in it, so ``list.append`` called from
    ``heapq.heappush`` called from ``sim/kernel.py`` lands on ``sim.kernel``.
    """
    memo: dict[tuple, dict[str, float]] = {}

    def owners(func: tuple, trail: frozenset) -> dict[str, float]:
        """layer -> share (summing to <= 1) of who answers for ``func``."""
        layer = layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        weights = {
            caller: edge[3] if edge[3] > 0 else 1e-12 * edge[0]
            for caller, edge in callers.items()
            if caller not in trail and caller != func
        }
        total = sum(weights.values())
        shares: dict[str, float] = {}
        if total > 0:
            inner = trail | {func}
            for caller, weight in weights.items():
                for name, share in owners(caller, inner).items():
                    shares[name] = shares.get(name, 0.0) + share * weight / total
        if not trail:
            memo[func] = shares
        return shares

    self_seconds = {layer: 0.0 for layer in (*LAYERS, HARNESS)}
    calls = {layer: 0 for layer in (*LAYERS, HARNESS)}
    total_seconds = 0.0
    total_calls = 0
    for func, (_, ncalls, tottime, _, callers) in stats.items():
        total_seconds += tottime
        total_calls += ncalls
        layer = layer_of(func)
        if layer is not None:
            calls[layer] += ncalls
            self_seconds[layer] += tottime
            continue
        for caller, edge in callers.items():
            for name, share in owners(caller, frozenset()).items():
                self_seconds[name] += edge[2] * share
    return {
        "self_seconds": self_seconds,
        "calls": calls,
        "total_seconds": total_seconds,
        "total_calls": total_calls,
        "unattributed_seconds": max(
            0.0, total_seconds - sum(self_seconds.values())
        ),
    }
