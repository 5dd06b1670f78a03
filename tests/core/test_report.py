"""Tests for the runtime report."""

import ast
from pathlib import Path

from repro.core import Runtime, RuntimeConfig
from repro.core.report import runtime_report
from repro.orb import compile_idl

ns = compile_idl("interface R { double spin(in double s); };", name="report-test")


class RImpl(ns.RSkeleton):
    def spin(self, s):
        yield self._host().execute(s)
        return s


def build_busy_runtime():
    runtime = Runtime(RuntimeConfig(num_hosts=3, seed=4)).start()
    ior = runtime.orb(1).poa.activate(RImpl())
    stub = runtime.orb(0).stub(ior, ns.RStub)

    def client():
        for _ in range(3):
            yield stub.spin(1.0)

    runtime.settle(2.0)
    runtime.run(client())
    return runtime


def test_report_structure_and_host_accounting():
    runtime = build_busy_runtime()
    report = runtime_report(runtime)
    assert report["simulated_time"] > 3.0
    hosts = {row["host"]: row for row in report["hosts"]}
    assert set(hosts) == {"ws00", "ws01", "ws02"}
    # ws01 did ~3 s of servant work.
    assert hosts["ws01"]["cpu_busy_seconds"] > 3.0
    assert hosts["ws01"]["cpu_busy_seconds"] > hosts["ws02"]["cpu_busy_seconds"]
    assert 0.0 <= hosts["ws01"]["utilization"] <= 1.0


def test_report_operations_aggregated():
    runtime = build_busy_runtime()
    report = runtime_report(runtime)
    assert report["operations"]["spin"]["calls"] == 3
    assert report["operations"]["spin"]["failures"] == 0
    assert report["operations"]["spin"]["mean_latency"] > 1.0


def test_report_network_counters():
    runtime = build_busy_runtime()
    report = runtime_report(runtime)
    net = report["network"]
    assert net["messages_delivered"] > 6  # calls + winner reports
    assert net["bytes_sent"] > 0


def test_report_ft_section_counts_activity():
    from tests.ft.conftest import FtWorld

    world = FtWorld(num_hosts=4, seed=6)
    ior = world.deploy_counter(host=1)
    proxy = world.proxy(ior)
    world.settle()

    def client():
        yield proxy.increment(1)
        world.cluster.host(1).crash()
        yield proxy.increment(1)

    world.run(client())
    report = runtime_report(world.runtime)
    ft = report["fault_tolerance"]
    assert ft["checkpoints_stored"] >= 2
    assert ft["recoveries"] == 1
    assert ft["recovery_time_total"] > 0
    crashes = {row["host"]: row["crashes"] for row in report["hosts"]}
    assert crashes["ws01"] == 1


def test_scenario_result_report_accessor():
    from repro.core import Scenario
    from repro.opt import WorkerSettings

    result = Scenario(
        dimension=12,
        num_workers=2,
        pool_size=4,
        num_hosts=6,
        worker_iterations=2_000,
        manager_iterations=3,
        worker_settings=WorkerSettings(real_iteration_cap=16),
        seed=2,
    ).run()
    report = result.report()
    assert report["operations"]["solve"]["calls"] == result.result.worker_calls
    assert report["simulated_time"] > result.runtime_seconds


def test_plan_cache_section_counts_this_runtime_only():
    """The plan cache is process-wide; the report is per runtime."""
    from repro.orb import cdr

    before = cdr.plan_cache_stats()
    busy = build_busy_runtime()
    after = cdr.plan_cache_stats()
    own = runtime_report(busy)["cdr_plan_cache"]
    assert own == {key: after[key] - before[key] for key in after}
    assert own["encoder_plan_hits"] + own["decoder_plan_hits"] > 0

    fresh = Runtime(RuntimeConfig(num_hosts=3, seed=4)).start()
    plans = runtime_report(fresh)["cdr_plan_cache"]
    assert set(plans) == set(after)
    assert all(count == 0 for count in plans.values())


#: the directories whose code reads the report: the tests and the benchmarks.
READER_ROOTS = ("tests", "benchmarks")
#: this module's own reader check, which names every section and a planted
#: key, so it cannot count as a reader.
_NOT_READERS = {
    "_orphan_counters",
    "test_every_report_counter_has_a_reader",
    "test_a_planted_orphan_counter_is_caught",
}


def _reader_strings() -> set[str]:
    """Every string constant in a ``.py`` file under :data:`READER_ROOTS`."""
    repo = Path(__file__).resolve().parents[2]
    here = Path(__file__).resolve()
    strings: set[str] = set()
    for root in READER_ROOTS:
        for path in sorted((repo / root).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if path.resolve() == here:
                tree.body = [
                    node
                    for node in tree.body
                    if getattr(node, "name", None) not in _NOT_READERS
                ]
            strings.update(
                node.value
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
            )
    return strings


def _orphan_counters(report: dict, read: set[str]) -> list[str]:
    """``section.key`` of every statically keyed counter nothing reads."""
    rows = {
        section: report[section]
        for section in (
            "network",
            "fault_tolerance",
            "ft_proxies",
            "replication",
            "winner_reports",
            "cdr_plan_cache",
            "observability",
        )
    }
    rows["hosts"] = report["hosts"][0]
    return sorted(
        f"{section}.{key}"
        for section, row in rows.items()
        for key in row
        if key not in read
    )


def test_every_report_counter_has_a_reader():
    """A counter no test or benchmark names is observability nothing uses."""
    report = runtime_report(build_busy_runtime())
    assert _orphan_counters(report, _reader_strings()) == []


def test_a_planted_orphan_counter_is_caught():
    report = runtime_report(build_busy_runtime())
    report["winner_reports"]["reports_never_read"] = 0
    report["hosts"][0]["cycles_never_read"] = 0
    assert _orphan_counters(report, _reader_strings()) == [
        "hosts.cycles_never_read",
        "winner_reports.reports_never_read",
    ]
