"""Tests for the Runtime facade."""

import ast
import math
from pathlib import Path

import pytest

import repro.orb
from repro.core import Runtime, RuntimeConfig
from repro.errors import ConfigurationError
from repro.orb import OrbConfig, compile_idl
from repro.services.naming.names import to_name
from repro.winner.service import SystemManagerStub

ping_ns = compile_idl("interface Ping { string where(); };", name="runtime-ping")


class PingImpl(ping_ns.PingSkeleton):
    def where(self):
        return self._host().name


def test_config_validation():
    with pytest.raises(ConfigurationError):
        RuntimeConfig(naming_strategy="bogus").validate()
    with pytest.raises(ConfigurationError):
        RuntimeConfig(checkpoint_backend="tape").validate()
    with pytest.raises(ConfigurationError):
        RuntimeConfig(service_host=99).validate()
    with pytest.raises(ConfigurationError):
        RuntimeConfig(winner_interval=0).validate()
    with pytest.raises(ConfigurationError):
        RuntimeConfig(winner_interval=math.nan).validate()
    with pytest.raises(ConfigurationError):
        RuntimeConfig(resolve_scoring_work=math.nan).validate()
    for speed in (math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            Runtime(RuntimeConfig(num_hosts=3, speeds=[1.0, speed, 1.0]))


def test_two_runtimes_share_no_orb_switch():
    """Configuration lives on the runtime: building and starting two with
    different configs rebinds no module attribute of the marshal/dispatch
    modules, so neither can change how the other behaves."""
    from repro.orb import cdr, core, stubs

    modules = (cdr, stubs, core)
    before = [dict(vars(module)) for module in modules]
    Runtime(RuntimeConfig(num_hosts=3, seed=1)).start().settle()
    Runtime(
        RuntimeConfig(
            num_hosts=4, seed=2, resolve_cache=True,
            orb=OrbConfig(connection_reuse=True),
        )
    ).start().settle()
    for module, snapshot in zip(modules, before):
        after = vars(module)
        assert after.keys() == snapshot.keys(), module.__name__
        rebound = [name for name in snapshot if after[name] is not snapshot[name]]
        assert not rebound, f"{module.__name__} rebound {rebound}"


def test_no_global_statement_under_orb():
    """A ``global`` statement is how a process-wide switch gets flipped."""
    for path in sorted(Path(repro.orb.__file__).parent.rglob("*.py")):
        offenders = [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Global)
        ]
        assert not offenders, f"{path}: global statement at line(s) {offenders}"


def test_start_brings_up_all_components():
    runtime = Runtime(RuntimeConfig(num_hosts=4)).start()
    assert runtime.system_manager is not None
    assert runtime.naming_ior is not None
    assert runtime.store_ior is not None
    for index in range(4):
        assert runtime.orb(index).running
    # Factories bind into the group once the sim runs.
    runtime.settle()

    def count():
        naming = runtime.naming_stub(0)
        return (yield naming.replica_count(to_name("factories.service")))

    assert runtime.run(count()) == 4


def test_start_is_idempotent():
    runtime = Runtime(RuntimeConfig(num_hosts=2))
    runtime.start()
    orb = runtime.orb(0)
    runtime.start()
    assert runtime.orb(0) is orb


def test_orb_lookup_by_index_and_name():
    runtime = Runtime(RuntimeConfig(num_hosts=2)).start()
    assert runtime.orb(1) is runtime.orb("ws01")
    with pytest.raises(ConfigurationError):
        runtime.orb("ws99")


def test_deploy_group_and_resolve():
    runtime = Runtime(RuntimeConfig(num_hosts=4, naming_strategy="round-robin")).start()
    runtime.register_type("Ping", PingImpl)
    iors = runtime.run(runtime.deploy_group("pings.service", "Ping", [1, 2, 3]))
    assert [ior.host for ior in iors] == ["ws01", "ws02", "ws03"]

    def client():
        naming = runtime.naming_stub(0)
        hosts = []
        for _ in range(3):
            ior = yield naming.resolve(to_name("pings.service"))
            stub = runtime.orb(0).stub(ior, ping_ns.PingStub)
            hosts.append((yield stub.where()))
        return hosts

    assert runtime.run(client()) == ["ws01", "ws02", "ws03"]


def test_deploy_unregistered_type_rejected():
    runtime = Runtime(RuntimeConfig(num_hosts=2)).start()
    with pytest.raises(ConfigurationError):
        runtime.run(runtime.deploy_group("x.service", "Nope", [1]))


def test_background_load_and_stop():
    runtime = Runtime(RuntimeConfig(num_hosts=3)).start()
    loads = runtime.background_load([1, 2])
    assert all(load.running for load in loads)
    runtime.settle()
    assert runtime.cluster.host(1).cpu.utilization_integral() > 1.0
    for load in loads:
        load.stop()
    assert all(not load.running for load in loads)


def test_coordinator_cached_per_host():
    runtime = Runtime(RuntimeConfig(num_hosts=3)).start()
    assert runtime.coordinator(0) is runtime.coordinator(0)
    assert runtime.coordinator(0) is not runtime.coordinator(1)


def test_auto_heal_rejoins_restarted_host():
    runtime = Runtime(RuntimeConfig(num_hosts=4, auto_heal_delay=0.5)).start()
    runtime.settle()
    runtime.cluster.host(2).crash()
    runtime.sim.run(until=runtime.sim.now + 2.0)
    runtime.cluster.host(2).restart()
    runtime.sim.run(until=runtime.sim.now + 6.0)
    # New ORB and node manager: host is alive in Winner and has a factory.
    assert runtime.system_manager.is_alive("ws02")
    assert runtime.orb("ws02").running

    def factories():
        naming = runtime.naming_stub(0)
        refs = yield naming.resolve_all(to_name("factories.service"))
        return [r.host for r in refs]

    hosts = runtime.run(factories())
    assert hosts.count("ws02") >= 1


def test_winner_corba_face_available():
    runtime = Runtime(RuntimeConfig(num_hosts=3, winner_interval=0.5)).start()
    runtime.settle(3.0)

    def client():
        # a remote host queries the system manager through the ORB
        stub = runtime.orb(2).stub(runtime.winner_ior, SystemManagerStub)
        alive = yield stub.alive_hosts()
        best = yield stub.best_host([], [])
        return alive, best

    alive, best = runtime.run(client())
    assert alive == ["ws00", "ws01", "ws02"]
    assert best in alive


def test_naming_strategies_constructed():
    for strategy in ("winner", "round-robin", "random", "first-bound"):
        runtime = Runtime(
            RuntimeConfig(num_hosts=2, naming_strategy=strategy)
        ).start()
        assert runtime.naming_root.strategy.name == strategy.replace("_", "-")


def test_settle_advances_time():
    runtime = Runtime(RuntimeConfig(num_hosts=2, winner_interval=0.5)).start()
    runtime.settle()
    assert runtime.sim.now == pytest.approx(1.6)
    runtime.settle(2.0)
    assert runtime.sim.now == pytest.approx(3.6)
