"""Every finding the gate reports on the default tree, as literal rows.

The default tree is what ``python -m repro.analysis`` analyses with no
path arguments: ``src/repro`` plus ``benchmarks/`` and ``examples/``.
Each row is ``(code, path, context, message, fingerprint)`` for one
finding, whether it is reported, silenced by an inline directive or
justified elsewhere: the test runs the checkers with no suppression
applied beyond the directives and compares ``findings + suppressed``.
Fingerprints ignore line numbers, so moving code does not move them;
changing what a checker reports, or where, does.
"""

from __future__ import annotations

from collections import Counter

GOLDEN = [
    (
        "DET001",
        "benchmarks/bench_obs_overhead.py",
        "_run_cell",
        "call to time.perf_counter() reads the wall clock; simulated code must use sim.now",
        "8617cb3ffadb0932",
    ),
    (
        "DET001",
        "benchmarks/bench_obs_overhead.py",
        "_run_cell",
        "call to time.perf_counter() reads the wall clock; simulated code must use sim.now",
        "8617cb3ffadb0932",
    ),
    (
        "DET001",
        "benchmarks/e2e/hostclock.py",
        "cpu",
        "call to time.process_time() reads the wall clock; simulated code must use sim.now",
        "e6ccf0bb08e605ea",
    ),
    (
        "DET001",
        "benchmarks/e2e/hostclock.py",
        "wall",
        "call to time.perf_counter() reads the wall clock; simulated code must use sim.now",
        "947167b75b5a55db",
    ),
    (
        "EXC002",
        "src/repro/bench/ftbench.py",
        "replicated_store_compare.client",
        "except clause catches Exception without re-raising; narrow it or justify with an ignore directive",
        "8e94571833f92540",
    ),
    (
        "EXC002",
        "src/repro/chaos/campaign.py",
        "breaker_ablation.client",
        "except clause catches Exception without re-raising; narrow it or justify with an ignore directive",
        "86bd3d238bb3da47",
    ),
    (
        "EXC002",
        "src/repro/chaos/campaign.py",
        "breaker_ablation.client",
        "except clause catches Exception without re-raising; narrow it or justify with an ignore directive",
        "86bd3d238bb3da47",
    ),
    (
        "EXC002",
        "src/repro/chaos/campaign.py",
        "run_scenario.acc_client",
        "except clause catches Exception without re-raising; narrow it or justify with an ignore directive",
        "1d9fca675e6987c8",
    ),
    (
        "EXC002",
        "src/repro/chaos/campaign.py",
        "run_scenario.acc_client",
        "except clause catches Exception without re-raising; narrow it or justify with an ignore directive",
        "1d9fca675e6987c8",
    ),
    (
        "EXC002",
        "src/repro/chaos/campaign.py",
        "run_scenario.opt_client",
        "except clause catches Exception without re-raising; narrow it or justify with an ignore directive",
        "abb993508183cb1e",
    ),
    (
        "EXC002",
        "src/repro/cluster/network.py",
        "Network._drop",
        "except clause catches Exception without re-raising; narrow it or justify with an ignore directive",
        "6003767e468df9d6",
    ),
    (
        "EXC002",
        "src/repro/orb/core.py",
        "_Serve._answer",
        "except clause catches Exception without re-raising; narrow it or justify with an ignore directive",
        "d42a15cdcd0ff877",
    ),
    (
        "EXC002",
        "src/repro/orb/idl/__main__.py",
        "main",
        "except clause catches Exception without re-raising; narrow it or justify with an ignore directive",
        "fba1ab408e7b1f8d",
    ),
    (
        "EXC003",
        "benchmarks/e2e/workloads.py",
        "orb_small_reads.client",
        "recoverable failure (SystemException) is swallowed here; propagate it, route it to recovery, or document why dropping it is safe",
        "1842afecab398d50",
    ),
    (
        "EXC003",
        "benchmarks/e2e/workloads.py",
        "stream_cell.client",
        "recoverable failure (SystemException) is swallowed here; propagate it, route it to recovery, or document why dropping it is safe",
        "bc371688d869a0c8",
    ),
    (
        "EXC003",
        "src/repro/chaos/campaign.py",
        "run_scenario.drive",
        "recoverable failure (SystemException) is swallowed here; propagate it, route it to recovery, or document why dropping it is safe",
        "2050418cdb09570a",
    ),
    (
        "EXC003",
        "src/repro/core/runtime.py",
        "Runtime._start_factory.bind",
        "recoverable failure (SystemException) is swallowed here; propagate it, route it to recovery, or document why dropping it is safe",
        "d9eee7978850ec32",
    ),
    (
        "EXC003",
        "src/repro/ft/migration.py",
        "MigrationPolicy._run",
        "recoverable failure (SystemException) is swallowed here; propagate it, route it to recovery, or document why dropping it is safe",
        "5dd4f27c956189b0",
    ),
    (
        "EXC003",
        "src/repro/ft/migration.py",
        "_migrate_steps",
        "recoverable failure (SystemException) is swallowed here; propagate it, route it to recovery, or document why dropping it is safe",
        "33c61733572f4f51",
    ),
    (
        "EXC003",
        "src/repro/ft/proxies.py",
        "_FtProxyBase._store_or_buffer",
        "recoverable failure (SystemException) is swallowed here; propagate it, route it to recovery, or document why dropping it is safe",
        "500dfe4b1b6488f3",
    ),
    (
        "EXC003",
        "src/repro/ft/replication.py",
        "ActiveGroup._capture_seed",
        "recoverable failure (RECOVERABLE) is swallowed here; propagate it, route it to recovery, or document why dropping it is safe",
        "d6ccb6ae3e127f4a",
    ),
    (
        "EXC003",
        "src/repro/ft/replication.py",
        "ActiveGroup._resync",
        "recoverable failure (RECOVERABLE) is swallowed here; propagate it, route it to recovery, or document why dropping it is safe",
        "9650296647ff13d1",
    ),
    (
        "EXC003",
        "src/repro/ft/replication.py",
        "ReplicaGroup.ensure_provisioned",
        "recoverable failure (RECOVERABLE) is swallowed here; propagate it, route it to recovery, or document why dropping it is safe",
        "811acbbd78fab7e8",
    ),
    (
        "EXC003",
        "src/repro/ft/replication.py",
        "WarmPassiveGroup._promote",
        "recoverable failure (RECOVERABLE) is swallowed here; propagate it, route it to recovery, or document why dropping it is safe",
        "0c40cf0dcd8ad997",
    ),
    (
        "EXC003",
        "src/repro/ft/replication.py",
        "WarmPassiveGroup._ship_to_standbys",
        "recoverable failure (RECOVERABLE) is swallowed here; propagate it, route it to recovery, or document why dropping it is safe",
        "7fd79d183bfe4a1d",
    ),
    (
        "EXC003",
        "src/repro/orb/core.py",
        "_Serve._answer",
        "recoverable failure (SystemException) is swallowed here; propagate it, route it to recovery, or document why dropping it is safe",
        "528ace1a25e8b158",
    ),
    (
        "RACE002",
        "src/repro/ft/replication.py",
        "ReplicaGroup.ensure_provisioned",
        "self.provisioned is read before a yield point and written after it in ReplicaGroup.ensure_provisioned with no lock or atomic scope spanning the window — a concurrent process can update it during the wait, so the write clobbers that update (stale read)",
        "270931648838bdf6",
    ),
    (
        "RACE004",
        "src/repro/ft/replication.py",
        "ReplicaGroup._replace_now",
        "write to self.members in ReplicaGroup._replace_now without holding {_ft_lock}, which ReplicaGroup._suspect_promote holds when accessing it — the write can land inside another process's critical section",
        "c54583321583f3a5",
    ),
    (
        "RACE004",
        "src/repro/ft/replication.py",
        "ReplicaGroup.ensure_provisioned",
        "write to self.members in ReplicaGroup.ensure_provisioned without holding {_ft_lock}, which ReplicaGroup._suspect_promote holds when accessing it — the write can land inside another process's critical section",
        "a5bb4bac639745fc",
    ),
]


def test_every_finding_of_the_default_tree_is_pinned(default_run):
    result = default_run.result
    rows = [
        (f.code, f.path, f.context, f.message, f.fingerprint)
        for f in [*result.findings, *result.suppressed]
    ]
    assert len(GOLDEN) == 29
    missing = sorted((Counter(GOLDEN) - Counter(rows)).elements())
    extra = sorted((Counter(rows) - Counter(GOLDEN)).elements())
    assert not missing and not extra, f"missing: {missing}\nextra: {extra}"
