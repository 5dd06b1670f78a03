"""Structural reproduction of Fig. 1: the load-distribution architecture.

Fig. 1's schema: application objects ask the *naming service* to resolve a
service name; the naming service consults the *Winner system manager*,
which aggregates periodic reports from per-host *node managers*; the
returned reference points at the service instance on the currently best
host.  This test walks exactly that path and asserts each interaction
actually happened.
"""

from repro.cluster import BackgroundLoad
from repro.core import Runtime, RuntimeConfig
from repro.orb import compile_idl
from repro.services.naming.names import to_name

service_ns = compile_idl(
    "interface Compute { double work(in double amount); };", name="fig1-compute"
)


class ComputeImpl(service_ns.ComputeSkeleton):
    def work(self, amount):
        yield self._host().execute(amount)
        return amount


def test_fig1_request_path_end_to_end():
    runtime = Runtime(RuntimeConfig(num_hosts=6, seed=21, winner_interval=0.5)).start()
    runtime.register_type("Compute", ComputeImpl)
    runtime.run(
        runtime.deploy_group("compute.service", "Compute", [1, 2, 3, 4, 5])
    )

    # Independent variable: background load on two hosts.
    BackgroundLoad(runtime.cluster.host(1), chunk=0.25).start()
    BackgroundLoad(runtime.cluster.host(2), chunk=0.25).start()
    runtime.settle(4.0)

    # (1) node managers have been reporting to the system manager...
    manager = runtime.system_manager
    assert manager.reports_received > 0
    assert set(manager.records) == {f"ws{i:02d}" for i in range(6)}
    # ...and the loaded hosts are visible in its records.
    assert manager.records["ws01"].utilization_ewma.value > 0.6
    assert manager.records["ws03"].utilization_ewma.value < 0.2

    # (2) the application object resolves through the *standard* CosNaming
    # interface (transparency) ...
    strategy = runtime.naming_root.strategy
    queries_before = strategy.queries

    def application_object():
        from repro.services.naming import idl as naming_idl

        naming = runtime.orb(0).stub(
            runtime.naming_ior, naming_idl.NamingContextStub
        )
        ior = yield naming.resolve(to_name("compute.service"))
        stub = runtime.orb(0).stub(ior, service_ns.ComputeStub)
        result = yield stub.work(0.5)
        return ior.host, result

    chosen_host, result = runtime.run(application_object())

    # (3) ... the naming service consulted Winner for the selection ...
    assert strategy.queries == queries_before + 1

    # (4) ... and the chosen server avoided the loaded machines.
    assert chosen_host not in ("ws01", "ws02")
    assert result == 0.5

    # (5) the placement was fed back into Winner's bookkeeping.
    assert manager.records[chosen_host].pending_placements >= 1


def test_fig1_selection_tracks_load_changes():
    """Moving the background load moves subsequent placements."""
    runtime = Runtime(RuntimeConfig(num_hosts=4, seed=22, winner_interval=0.5)).start()
    runtime.register_type("Compute", ComputeImpl)
    runtime.run(runtime.deploy_group("compute.service", "Compute", [1, 2, 3]))
    load = BackgroundLoad(runtime.cluster.host(1), chunk=0.25).start()
    runtime.settle(4.0)

    def resolve_once():
        naming = runtime.naming_stub(0)
        ior = yield naming.resolve(to_name("compute.service"))
        return ior.host

    first = runtime.run(resolve_once())
    assert first != "ws01"

    # Shift the load to the previously chosen host.
    load.stop()
    BackgroundLoad(runtime.cluster.host(first), intensity=2, chunk=0.25).start()
    runtime.settle(6.0)
    second = runtime.run(resolve_once())
    assert second != first
