"""Reachability census: which functions of ``src/repro`` does no root enter?

    python benchmarks/reach.py

Every root in :data:`ROOTS` runs in fresh interpreters inside its own
throwaway export of the working tree (the tracked files and the untracked
ones git does not ignore), so no tracked result file is rewritten.  A
``sitecustomize`` placed on the export's ``PYTHONPATH`` traces every
interpreter the root starts, child processes included, and records each
code object of ``src/repro`` a frame runs.  A function is keyed by
``module:qualname``, never by line, so an edit above it moves nothing.

Writes ``benchmarks/results/reach.json`` and exits 1 when a never-entered
function is not on :data:`ALLOWLIST`, or when an entry there names a
function that is gone or that some root now enters.  A root that exits
non-zero is reported but does not fail the census: the functions it did
enter still count, and whatever it did not reach shows up as unlisted.
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
RESULT = ROOT / "benchmarks" / "results" / "reach.json"

#: roots run side by side; each is a chain of interpreters in its own export.
JOBS = 2

#: Each root is a list of commands run in order in one export; each
#: command is the argument list of one ``python`` interpreter.
ROOTS: dict[str, list[list[str]]] = {
    # CI: the static-analysis gate cold, then from its cache, then one family.
    "analysis": [
        ["-m", "repro.analysis", "--strict"],
        ["-m", "repro.analysis", "--strict", "--cache", ".analysis-cache",
         "--json", "analysis-report.json"],
        ["-m", "repro.analysis", "--strict", "--cache", ".analysis-cache",
         "--json", "analysis-report.json"],
        ["-m", "repro.analysis", "--strict", "--select", "RACE,LIF,CFG"],
    ],
    # CI: the five chaos invocations.
    "chaos": [["-m", "repro.chaos", "--fast", "--seeds", "11,12,13"]],
    "chaos-pipelined": [
        ["-m", "repro.chaos", "--fast", "--seeds", "11,12,13",
         "--checkpoint-mode", "pipelined", "--deltas"],
    ],
    "chaos-resolve-cache": [
        ["-m", "repro.chaos", "--fast", "--seeds", "11,12,13", "--resolve-cache"],
    ],
    "chaos-warm-passive": [
        ["-m", "repro.chaos", "--fast", "--seeds", "11,12,13",
         "--ft-mode", "warm-passive", "--enforce-slos"],
    ],
    "chaos-active": [
        ["-m", "repro.chaos", "--fast", "--seeds", "11,12,13",
         "--ft-mode", "active", "--enforce-slos"],
    ],
    # CI: bench-smoke, replication-smoke and the full resolve pin; the
    # other benches with a script entry point in full mode too.
    "checkpoint-fastpath-quick": [
        ["benchmarks/bench_checkpoint_fastpath.py", "--quick"],
    ],
    "checkpoint-fastpath": [["benchmarks/bench_checkpoint_fastpath.py"]],
    "resolve-fastpath-quick": [["benchmarks/bench_resolve_fastpath.py", "--quick"]],
    "resolve-fastpath": [["benchmarks/bench_resolve_fastpath.py"]],
    "replication-quick": [["benchmarks/bench_replication.py", "--quick"]],
    "replication": [["benchmarks/bench_replication.py"]],
    "scale-full": [["benchmarks/bench_scale.py"]],
    # CI: scale-smoke, the regression gate against the pinned baseline.
    "scale": [
        ["-c", "import shutil; shutil.copy('benchmarks/results/BENCH_scale.json',"
         " 'baseline-scale.json')"],
        ["benchmarks/bench_scale.py", "--quick"],
        # --verbose prints every row, so whether a traced (slower) run
        # trips the wall-clock lane does not change what is entered
        ["-m", "repro.obs", "check", "--baseline", "baseline-scale.json",
         "--current", "benchmarks/results/BENCH_scale.json",
         "--wall-tolerance", "0.75", "--verbose"],
    ],
    # CI: obs-smoke.
    "obs": [
        ["-m", "repro.obs", "critical-path", "--calls", "12"],
        ["-m", "repro.obs", "critical-path", "--target", "request", "--calls", "12",
         "--json", "benchmarks/results/critical_path_request.json"],
        ["-m", "repro.obs", "check", "--baseline",
         "benchmarks/results/BENCH_recovery.json"],
    ],
    # CI: the end-to-end self-test (four workloads at 1/10, traced, probes).
    "e2e-selftest": [["benchmarks/e2e/selftest.py"]],
    # Every bench, the paper-pins ones included, run once under pytest.
    "benches": [
        ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
         "benchmarks"],
    ],
    # The CLI subcommands.
    "cli": [
        ["-m", "repro", "demo"],
        ["-m", "repro", "fig3", "--configs", "30/3", "--bg", "0", "2"],
        ["-m", "repro", "table1", "--iterations", "10000"],
        ["-m", "repro", "recovery"],
        ["-m", "repro", "migration"],
        ["-m", "repro", "wan"],
    ],
    # The examples.
    **{
        f"example-{path.stem}": [[f"examples/{path.name}"]]
        for path in sorted((ROOT / "examples").glob("*.py"))
    },
}

#: Why a never-entered function stays.  Every allowlist entry names one.
REASONS = {
    "idl": "an operation declared in a paper service's IDL "
    "(CosNaming, Winner SystemManager, checkpoint store)",
    "dii": "the DII request API that Fig. 2 mirrors",
    "failure": "a failure or hostile-input path",
    "oracle": "a reference oracle",
    "dunder": "a debugging dunder",
    "cli": "a CLI that is not in CI",
}

#: The functions no root enters that stay on purpose, ``module:qualname``
#: to a key of :data:`REASONS`.
ALLOWLIST: dict[str, str] = {
    "repro.analysis.callgraph:FunctionInfo.chain": "failure",
    "repro.analysis.checkers.atomicity:AtomicityChecker._find_cycle": "failure",
    "repro.analysis.checkers.determinism:DeterminismChecker._check_set_iteration.<locals>.flag": "failure",
    "repro.analysis.checkers.races:RaceChecker._disjoint_pair": "failure",
    "repro.analysis.framework:checker_catalog": "cli",
    "repro.analysis.report:render_catalog": "cli",
    "repro.bench.ftbench:PayloadAccumulatorImpl.restore_from": "idl",
    "repro.bench.reporting:_jsonable": "failure",
    "repro.cluster.cluster:Cluster.__len__": "dunder",
    "repro.cluster.failures:FailurePlan.down_window": "failure",
    "repro.cluster.host:Host.__repr__": "dunder",
    "repro.cluster.host:Host.degraded": "failure",
    "repro.cluster.loadgen:BackgroundLoad.running": "failure",
    "repro.cluster.loadgen:BackgroundLoad.stop": "failure",
    "repro.cluster.loadgen:OpenLoopPopulation.__repr__": "dunder",
    "repro.cluster.network:Network.is_bound": "failure",
    "repro.core.report:format_runtime_report": "failure",
    "repro.errors:IdlSyntaxError.__init__": "failure",
    "repro.errors:SystemException.__repr__": "dunder",
    "repro.ft.breaker:CircuitBreaker.__repr__": "dunder",
    "repro.ft.breaker:HostBreakerRegistry.__iter__": "dunder",
    "repro.ft.detector:FailureDetector.stop": "failure",
    "repro.ft.factory:ObjectFactoryServant.host_name": "idl",
    "repro.ft.factory:ObjectFactoryServant.supported_types": "idl",
    "repro.ft.proxies:_FtProxyBase._note_persist_failure": "failure",
    "repro.ft.replicated_store:ReplicatedCheckpointStore.latest_version": "idl",
    "repro.ft.replicated_store:ReplicatedCheckpointStore.replica_count": "idl",
    "repro.ft.replicated_store:ReplicatedCheckpointStore.store_delta": "idl",
    "repro.ft.replication:ActiveGroup._resync": "failure",
    "repro.ft.replication:ReplicaGroup._handle_dead_lead": "failure",
    "repro.ft.replication:ReplicaGroup.call": "failure",
    "repro.ft.replication:ReplicatedServant._capture_checkpoint": "failure",
    "repro.ft.replication:ReplicatedServant.snapshot": "failure",
    "repro.ft.replication:WarmPassiveGroup._handle_dead_lead": "failure",
    "repro.ft.request_proxy:FtRequest.__repr__": "dunder",
    "repro.ft.request_proxy:FtRequest.invoke": "dii",
    "repro.ft.request_proxy:FtRequest.poll_response": "dii",
    "repro.ft.request_proxy:FtRequest.return_value": "dii",
    "repro.ft.request_proxy:FtRequest.sent": "dii",
    "repro.obs.metrics:Gauge.inc": "failure",
    "repro.obs.metrics:Instrument.value_repr": "failure",
    "repro.obs.slo:MetricDelta.to_dict": "cli",
    "repro.obs.trace:Span.__repr__": "dunder",
    "repro.obs.trace:Span.is_open": "failure",
    "repro.obs.trace:TraceContext.__hash__": "dunder",
    "repro.obs.trace:TraceContext.__repr__": "dunder",
    "repro.obs.trace:Tracer.__iter__": "dunder",
    "repro.obs.trace:Tracer.__len__": "dunder",
    "repro.obs.trace:Tracer.clear": "failure",
    "repro.opt.decomposition:DecomposedRosenbrock.__repr__": "dunder",
    "repro.opt.decomposition:DecomposedRosenbrock.extended_vector": "oracle",
    "repro.opt.decomposition:DecomposedRosenbrock.worker_objective": "oracle",
    "repro.opt.worker:RosenbrockWorkerServant.evaluations": "idl",
    "repro.opt.worker:RosenbrockWorkerServant.host_name": "idl",
    "repro.orb.cdr:AnyImage.__repr__": "dunder",
    "repro.orb.cdr:CdrInputStream._read_enum": "idl",
    "repro.orb.cdr:CdrInputStream._read_parameterized_typecode": "failure",
    "repro.orb.cdr:CdrInputStream._read_sequence": "oracle",
    "repro.orb.cdr:CdrInputStream._read_struct": "oracle",
    "repro.orb.cdr:CdrInputStream._read_value_slow": "oracle",
    "repro.orb.cdr:CdrInputStream.read_boolean": "failure",
    "repro.orb.cdr:CdrInputStream.read_primitive": "oracle",
    "repro.orb.cdr:CdrInputStream.read_typecode": "failure",
    "repro.orb.cdr:CdrOutputStream.__len__": "dunder",
    "repro.orb.cdr:CdrOutputStream._check_int": "failure",
    "repro.orb.cdr:CdrOutputStream._write_enum": "idl",
    "repro.orb.cdr:CdrOutputStream._write_sequence": "oracle",
    "repro.orb.cdr:CdrOutputStream._write_struct": "oracle",
    "repro.orb.cdr:CdrOutputStream._write_value_slow": "oracle",
    "repro.orb.cdr:CdrOutputStream.write_boolean": "failure",
    "repro.orb.cdr:CdrOutputStream.write_primitive": "oracle",
    "repro.orb.cdr:GenericStruct.__eq__": "dunder",
    "repro.orb.cdr:GenericStruct.__init__": "failure",
    "repro.orb.cdr:GenericStruct.__repr__": "dunder",
    "repro.orb.cdr:_any_depth_error": "failure",
    "repro.orb.cdr:_count_checker.<locals>.check_zero_width": "failure",
    "repro.orb.cdr:_postprocess_any": "failure",
    "repro.orb.cdr:_read_any_bool": "failure",
    "repro.orb.cdr:_read_any_null": "failure",
    "repro.orb.cdr:_read_any_octets": "failure",
    "repro.orb.cdr:_underrun": "failure",
    "repro.orb.cdr:_write_any_bool": "failure",
    "repro.orb.cdr:_write_any_bytes": "failure",
    "repro.orb.cdr:_write_any_none": "failure",
    "repro.orb.cdr:_zero_width_steps": "failure",
    "repro.orb.cdr:clear_plan_cache": "failure",
    "repro.orb.cdr:infer_typecode": "failure",
    "repro.orb.core:CallStats.__repr__": "dunder",
    "repro.orb.core:Orb.__repr__": "dunder",
    "repro.orb.core:Orb.running": "failure",
    "repro.orb.core:Orb.shutdown": "failure",
    "repro.orb.core:Servant._this": "idl",
    "repro.orb.core:_Call._fall_back": "failure",
    "repro.orb.core:_Call._release": "failure",
    "repro.orb.dii:Request.__repr__": "dunder",
    "repro.orb.dii:Request.arguments": "dii",
    "repro.orb.dii:Request.exception": "dii",
    "repro.orb.dii:Request.invoke": "dii",
    "repro.orb.dii:Request.operation": "dii",
    "repro.orb.dii:Request.poll_response": "dii",
    "repro.orb.dii:Request.return_value": "dii",
    "repro.orb.dii:Request.send_oneway": "dii",
    "repro.orb.dii:Request.sent": "dii",
    "repro.orb.dii:Request.target": "dii",
    "repro.orb.forwarding:ForwardingAgent.replica_count": "failure",
    "repro.orb.giop:_Message.__eq__": "dunder",
    "repro.orb.giop:_Message.__hash__": "dunder",
    "repro.orb.giop:_Message.__repr__": "dunder",
    "repro.orb.giop:_Message._values": "failure",
    "repro.orb.idl.__main__:main": "cli",
    "repro.orb.idl.codegen:generate_source": "cli",
    "repro.orb.idl.idlast:ScopedName.__str__": "dunder",
    "repro.orb.idl.lexer:Token.__repr__": "dunder",
    "repro.orb.idl.parser:_Parser._error": "failure",
    "repro.orb.interceptors:RequestInterceptor.abort_reply": "failure",
    "repro.orb.interceptors:RequestInterceptor.receive_exception": "failure",
    "repro.orb.interceptors:RequestInterceptor.receive_reply": "failure",
    "repro.orb.interceptors:RequestInterceptor.receive_request": "failure",
    "repro.orb.interceptors:RequestInterceptor.send_reply": "failure",
    "repro.orb.interceptors:RequestInterceptor.send_request": "failure",
    "repro.orb.stubs:ObjectStub.__repr__": "dunder",
    "repro.orb.transport:ConnectionCache.__len__": "dunder",
    "repro.orb.transport:ConnectionCache.clear": "failure",
    "repro.orb.transport:ConnectionCache.discard": "failure",
    "repro.orb.transport:ConnectionCache.invalidate_endpoint": "failure",
    "repro.orb.typecodes:TypeCode.__repr__": "dunder",
    "repro.services.checkpoint:CheckpointStoreServant.bytes_stored": "idl",
    "repro.services.checkpoint:CheckpointStoreServant.discard": "idl",
    "repro.services.checkpoint:CheckpointStoreServant.keys": "idl",
    "repro.services.checkpoint:CheckpointStoreServant.latest_version": "idl",
    "repro.services.checkpoint:MemoryBackend.bytes_stored": "idl",
    "repro.services.checkpoint:MemoryBackend.discard": "idl",
    "repro.services.checkpoint:MemoryBackend.keys": "idl",
    "repro.services.checkpoint:MemoryBackend.write": "idl",
    "repro.services.naming.context:NamingContextServant._lookup": "idl",
    "repro.services.naming.context:NamingContextServant._orb": "idl",
    "repro.services.naming.context:NamingContextServant._store": "idl",
    "repro.services.naming.context:NamingContextServant._subcontext_stub": "idl",
    "repro.services.naming.context:NamingContextServant.bind": "idl",
    "repro.services.naming.context:NamingContextServant.bind_context": "idl",
    "repro.services.naming.context:NamingContextServant.bind_new_context": "idl",
    "repro.services.naming.context:NamingContextServant.destroy": "idl",
    "repro.services.naming.context:NamingContextServant.list_bindings": "idl",
    "repro.services.naming.context:NamingContextServant.new_context": "idl",
    "repro.services.naming.context:NamingContextServant.rebind": "idl",
    "repro.services.naming.context:NamingContextServant.resolve": "idl",
    "repro.services.naming.context:NamingContextServant.unbind": "idl",
    "repro.services.naming.load_aware:LoadDistributingContextServant.bind": "idl",
    "repro.services.naming.load_aware:LoadDistributingContextServant.destroy": "idl",
    "repro.services.naming.load_aware:LoadDistributingContextServant.list_bindings": "idl",
    "repro.services.naming.load_aware:LoadDistributingContextServant.rebind": "idl",
    "repro.services.naming.load_aware:LoadDistributingContextServant.replica_count": "idl",
    "repro.services.naming.load_aware:LoadDistributingContextServant.unbind": "idl",
    "repro.services.naming.names:NameComponent.__eq__": "dunder",
    "repro.services.naming.names:NameComponent.__hash__": "dunder",
    "repro.services.naming.sharded:ShardedServiceDirectory.__repr__": "dunder",
    "repro.services.naming.strategies:BreakerAwareStrategy.__repr__": "dunder",
    "repro.services.naming.strategies:ResolveCache._miss": "failure",
    "repro.services.naming.strategies:SelectionStrategy.__repr__": "dunder",
    "repro.services.naming.strategies:SelectionStrategy.choose": "failure",
    "repro.services.naming.strategies:WinnerStrategy._choose_remote": "failure",
    "repro.services.naming.strategies:WinnerStrategy._pick": "failure",
    "repro.services.trader:TraderServant.withdraw": "idl",
    "repro.sim.channels:Channel.__len__": "dunder",
    "repro.sim.channels:Channel.__repr__": "dunder",
    "repro.sim.channels:Channel.close": "failure",
    "repro.sim.events:SimFuture.__repr__": "dunder",
    "repro.sim.events:SimFuture.state": "failure",
    "repro.sim.kernel:Simulator.__repr__": "dunder",
    "repro.sim.kernel:Simulator.pending_event_count": "failure",
    "repro.sim.kernel:Simulator.step": "failure",
    "repro.sim.process:Activity.__repr__": "dunder",
    "repro.sim.process:Activity._release": "failure",
    "repro.sim.process:Process.__repr__": "dunder",
    "repro.sim.process:Waiter._step": "failure",
    "repro.sim.resources:ProcessorSharingCPU.__repr__": "dunder",
    "repro.sim.resources:ProcessorSharingCPU._withdraw": "failure",
    "repro.sim.sync:Lock.__repr__": "dunder",
    "repro.winner.federation:MetaManager.best_site": "oracle",
    "repro.winner.federation:MetaManager.stop": "failure",
    "repro.winner.hierarchy:HierarchicalWinner.__repr__": "dunder",
    "repro.winner.hierarchy:HierarchicalWinner.best_host": "failure",
    "repro.winner.hierarchy:RegionNode.__repr__": "dunder",
    "repro.winner.hierarchy:RegionNode.best_host": "failure",
    "repro.winner.hierarchy:SiteLoadManager.__len__": "dunder",
    "repro.winner.hierarchy:SiteLoadManager.__repr__": "dunder",
    "repro.winner.hierarchy:SiteLoadManager.best_score": "oracle",
    "repro.winner.metrics:Ewma.__repr__": "dunder",
    "repro.winner.metrics:VectorLoadBoard.__len__": "dunder",
    "repro.winner.metrics:VectorLoadBoard.__repr__": "dunder",
    "repro.winner.metrics:VectorLoadBoard.best_host": "oracle",
    "repro.winner.metrics:VectorLoadBoard.pending": "oracle",
    "repro.winner.metrics:VectorLoadBoard.run_queue": "oracle",
    "repro.winner.metrics:VectorLoadBoard.scores": "oracle",
    "repro.winner.metrics:VectorLoadBoard.top_hosts": "oracle",
    "repro.winner.metrics:VectorLoadBoard.up": "oracle",
    "repro.winner.metrics:VectorLoadBoard.utilization": "oracle",
    "repro.winner.node_manager:NodeManager.stop": "failure",
    "repro.winner.service:SystemManagerServant.alive_hosts": "idl",
    "repro.winner.service:SystemManagerServant.best_host": "idl",
    "repro.winner.service:SystemManagerServant.note_placement": "idl",
    "repro.winner.service:SystemManagerServant.snapshot": "idl",
    "repro.winner.system_manager:SystemManager.stop": "failure",
}

#: Written into each export's ``src/`` after two lines that set
#: ``_prefix`` (the export's ``src/repro/``) and ``_out`` (where to dump);
#: runs first in every interpreter the root starts and records the code
#: objects of ``src/repro`` it enters.
_HOOK = '''\
import atexit
import os
import sys
import threading

_seen = set()
_codes = []


def _trace(frame, event, arg):
    code = frame.f_code
    if id(code) not in _seen:
        _seen.add(id(code))
        _codes.append(code)


@atexit.register
def _dump():
    import tempfile

    sys.settrace(None)
    rows = sorted({
        f"{code.co_filename}\\t{code.co_firstlineno}\\t{code.co_name}"
        for code in _codes
        if code.co_filename.startswith(_prefix)
    })
    handle, _ = tempfile.mkstemp(suffix=".tsv", dir=_out)
    with os.fdopen(handle, "w", encoding="utf-8") as dump:
        dump.write("\\n".join(rows))


sys.settrace(_trace)
threading.settrace(_trace)
'''


def module_name(path: Path, package: Path) -> str:
    parts = list(path.relative_to(package.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def functions(package: Path = PACKAGE) -> dict[tuple[str, int, str], tuple[str, int]]:
    """Every ``def`` under ``package``.

    Maps ``(relative path, first line, name)`` — what a code object at run
    time carries — to ``("module:qualname", lines)``, where ``lines`` is
    the span of the definition.  The qualified name is rebuilt from the
    nesting of code objects, as ``co_qualname`` spells it.
    """
    found: dict[tuple[str, int, str], tuple[str, int]] = {}

    def walk(code, prefix: str, relative: str, module: str) -> None:
        for child in code.co_consts:
            if not inspect.iscode(child):
                continue
            qualname = prefix + child.co_name
            if child.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                if not child.co_name.startswith("<"):
                    last = max(
                        line for _, _, line in child.co_lines() if line is not None
                    )
                    found[(relative, child.co_firstlineno, child.co_name)] = (
                        f"{module}:{qualname}",
                        last - child.co_firstlineno + 1,
                    )
                walk(child, qualname + ".<locals>.", relative, module)
            else:
                walk(child, qualname + ".", relative, module)

    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package).as_posix()
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        walk(code, "", relative, module_name(path, package))
    return found


def export(target: Path) -> None:
    """Copy the working tree's tracked and unignored files to ``target``."""
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        check=True, capture_output=True,
    ).stdout.decode("utf-8")
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():
            destination = target / name
            destination.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, destination)


def run_root(name: str, commands: list[list[str]]) -> tuple[set[tuple[str, int, str]], list[int]]:
    """Run one root; returns what it entered and each command's exit code."""
    with tempfile.TemporaryDirectory(prefix=f"reach-{name}-") as scratch:
        tree, out = Path(scratch) / "tree", Path(scratch) / "out"
        export(tree)
        out.mkdir()
        package = tree / "src" / "repro"
        (tree / "src" / "sitecustomize.py").write_text(
            f"_prefix = {str(package) + os.sep!r}\n_out = {str(out)!r}\n" + _HOOK,
            encoding="utf-8",
        )
        environment = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
        codes = [
            subprocess.run(
                [sys.executable, *command], cwd=tree, env=environment,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ).returncode
            for command in commands
        ]
        entered = set()
        for dump in out.glob("*.tsv"):
            for row in filter(None, dump.read_text(encoding="utf-8").split("\n")):
                filename, line, function = row.split("\t")
                relative = Path(filename).relative_to(package).as_posix()
                entered.add((relative, int(line), function))
    return entered, codes


def census() -> tuple[dict, dict[str, list[int]]]:
    """The report written to ``reach.json``, and each root's exit codes."""
    universe = functions()
    keys = {key for key, _ in universe.values()}
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        runs = dict(zip(ROOTS, pool.map(run_root, ROOTS, ROOTS.values())))
    entered: set[str] = set()
    per_root = {}
    for name, (codes_entered, _) in runs.items():
        reached = {universe[code][0] for code in codes_entered if code in universe}
        entered |= reached
        per_root[name] = len(reached)
    never = sorted(keys - entered)
    lines_by_key = {}
    for key, lines in universe.values():
        lines_by_key[key] = max(lines, lines_by_key.get(key, 0))
    outermost = [
        key for key in never
        if not any(key.startswith(other + ".") for other in never)
    ]
    report = {
        "functions": len(keys),
        "entered": len(keys & entered),
        "never_entered": len(never),
        "never_entered_lines": sum(lines_by_key[key] for key in outermost),
        "roots": per_root,
        "unlisted": [key for key in never if key not in ALLOWLIST],
        "stale": sorted(
            key for key in ALLOWLIST if key not in keys or key in entered
        ),
        "allowlisted": {key: ALLOWLIST[key] for key in never if key in ALLOWLIST},
    }
    return report, {name: codes for name, (_, codes) in runs.items()}


def main() -> int:
    report, exit_codes = census()
    RESULT.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for name, entered in report["roots"].items():
        codes = exit_codes[name]
        note = f"  (exit codes {codes})" if any(codes) else ""
        print(f"{name:40s} {entered:5d} entered{note}")
    print(
        f"{report['never_entered']} of {report['functions']} functions entered "
        f"by no root, {report['never_entered_lines']} lines in the outermost"
    )
    for key in report["unlisted"]:
        print(f"never entered and not on the allowlist: {key}")
    for key in report["stale"]:
        print(f"allowlisted but gone or entered: {key}")
    return 1 if report["unlisted"] or report["stale"] else 0


if __name__ == "__main__":
    sys.exit(main())
