"""Sanity tests for the FT ablation drivers (small parameters)."""

from repro.bench.ftbench import (
    checkpoint_interval_sweep,
    migration_bench,
    recovery_bench,
    replication_compare,
    store_backend_compare,
)


def test_checkpoint_interval_sweep_monotone():
    rows = checkpoint_interval_sweep(intervals=(1, 5), calls=10, call_work=0.02)
    assert rows[0].extra["checkpoints"] == 10
    assert rows[1].extra["checkpoints"] == 2
    assert rows[1].runtime < rows[0].runtime


def test_store_backend_compare_disk_slower():
    rows = store_backend_compare(calls=8, call_work=0.02)
    runtimes = {row.label: row.runtime for row in rows}
    assert runtimes["disk"] > runtimes["memory"]


def test_replication_compare_resource_shapes():
    rows = replication_compare(calls=8, call_work=0.05, replicas=3)
    by_label = {row.label: row for row in rows}
    assert set(by_label) == {"plain", "checkpoint", "passive", "active"}
    # The §3 argument in miniature.
    assert by_label["active"].extra["cpu_work"] > 2.5 * by_label["plain"].extra["cpu_work"]
    assert by_label["checkpoint"].extra["hosts_dedicated"] == 1
    assert by_label["active"].extra["hosts_dedicated"] == 3


def test_recovery_bench_state_correct():
    rows = recovery_bench(failure_counts=(0, 1), calls=12, call_work=0.05)
    assert all(row.extra["state_correct"] for row in rows)
    assert rows[1].extra["recoveries"] >= 1


def test_replicated_store_compare_shapes():
    from repro.bench.ftbench import replicated_store_compare

    rows = replicated_store_compare(calls=10, call_work=0.02)
    by_replicas = {row.extra["replicas"]: row for row in rows}
    assert not by_replicas[1].extra["survived_store_crash"]
    assert by_replicas[3].extra["survived_store_crash"]
    assert by_replicas[3].extra["final_total"] == 10.0


def test_wan_compare_crossover():
    from repro.bench.wanbench import wan_compare

    rows = wan_compare(job_counts_seconds=((6, 1.0), (6, 0.05)), hosts_per_site=3)
    by_key = {(row.policy, row.job_seconds): row for row in rows}
    assert (
        by_key[("federated", 1.0)].completion_time
        < by_key[("local-only", 1.0)].completion_time
    )
    assert (
        by_key[("federated", 0.05)].completion_time
        > by_key[("local-only", 0.05)].completion_time
    )
    assert by_key[("federated", 1.0)].remote_jobs >= 2


def test_migration_bench_policy_wins():
    rows = migration_bench(calls=16, call_work=0.05)
    by_label = {row.label: row for row in rows}
    assert by_label["migration on"].runtime < by_label["migration off"].runtime
    assert by_label["migration on"].extra["migrations"] >= 1
