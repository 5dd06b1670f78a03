"""Operation names a servant does not declare bind nothing in the ORB.

A request carries its operation name as a string a peer chooses.  The
server ORB answers a name the target does not declare with
``BAD_OPERATION``; it must not also keep a dispatch record or a
dispatch-time histogram per such name, or a peer grows the ORB's tables
and the metrics registry without bound, one request at a time.
"""

from repro.core import Runtime, RuntimeConfig
from repro.orb import compile_idl, giop

ns = compile_idl("interface Known { double total(); };", name="unknown-operations")


class KnownImpl(ns.KnownSkeleton):
    def total(self):
        return 2.5


def test_undeclared_operation_names_leave_no_per_name_state():
    runtime = Runtime(RuntimeConfig(num_hosts=3, seed=7)).start()
    server = runtime.orb(1)
    ior = server.poa.activate(KnownImpl())
    stub = runtime.orb(2).stub(ior, ns.KnownStub)
    runtime.settle()
    metrics = runtime.obs.metrics
    peer = runtime.cluster.host(2)

    def forge(request_id, operation):
        request = giop.RequestMessage(
            request_id=request_id,
            response_expected=True,
            object_key=ior.object_key,
            operation=operation,
            target_incarnation=ior.incarnation,
            reply_host=peer.name,
            reply_port=40_000,
            body=b"",
            service_contexts=(),
        )
        raw = giop.encode_message(request)
        runtime.network.send(peer, 40_000, server.host.name, server.port, raw, len(raw))

    def send(operations, first_id):
        for offset, operation in enumerate(operations):
            forge(first_id + offset, operation)
        yield runtime.sim.timeout(1.0)

    def known():
        assert (yield stub.total()) == 2.5

    runtime.run(known())
    served = server.requests_served
    runtime.run(send(["no_such_op_0"], 1))
    dispatches, instruments = len(server._dispatches), len(metrics)
    runtime.run(send([f"no_such_op_{n}" for n in range(1, 500)], 2))
    assert server.requests_served == served + 500
    assert len(server._dispatches) == dispatches == 1  # ``total`` only
    assert len(metrics) == instruments
