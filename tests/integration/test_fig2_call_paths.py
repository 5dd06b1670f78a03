"""Structural reproduction of Fig. 2: client / proxy / stub / request-proxy
call relationships.

Fig. 2 shows: the client calls the *proxy object*, which is derived from
the *object stub* and adds checkpoint handling; for DII the client uses a
*request proxy* wrapping a *request* object; checkpoints flow to the
checkpoint service on the client's behalf.  These tests assert each edge of
that diagram on the real classes and the real message flow.
"""

import pytest

from repro.ft import FtRequest, make_ft_proxy
from repro.orb.dii import Request
from repro.orb.stubs import ObjectStub

from tests.ft.conftest import FtWorld, counter_ns


@pytest.fixture
def world():
    return FtWorld(num_hosts=4, seed=31)


def test_proxy_class_is_derived_from_stub_class(world):
    """'This proxy class is derived from the stub class and therefore
    provides all of the methods of the stub class.'"""
    Proxy = make_ft_proxy(counter_ns.CounterStub)
    assert issubclass(Proxy, counter_ns.CounterStub)
    assert issubclass(counter_ns.CounterStub, ObjectStub)
    stub_operations = set(counter_ns.CounterStub.__operations__)
    assert stub_operations <= set(Proxy.__operations__)
    for operation in ("increment", "value", "host_name"):
        assert callable(getattr(Proxy, operation))


def test_client_call_flows_proxy_stub_server_checkpoint(world):
    """One client call traverses: proxy -> stub -> server object, then
    proxy -> server.get_checkpoint -> checkpoint service."""
    ior = world.deploy_counter(host=1)
    proxy = world.proxy(ior)
    store = world.runtime.store_servant
    server_orb = world.runtime.orb(1)
    served_before = server_orb.requests_served

    def client():
        return (yield proxy.increment(3))

    assert world.run(client()) == 3
    # The server object saw two requests: increment + get_checkpoint.
    assert server_orb.requests_served == served_before + 2
    # The checkpoint service stored exactly one snapshot for this call.
    assert store.stores == 1
    assert store.backend.read_latest("counter-1") is not None


def test_request_proxy_wraps_request_objects(world):
    """'To enable fault tolerance in this case, request proxies are used
    just like the object proxies.'"""
    ior = world.deploy_counter(host=1)
    proxy = world.proxy(ior)
    request_proxy = FtRequest(proxy, "increment", (2,))
    # Mirrors the DII Request API: the deferred-synchronous pair.
    for method in ("send_deferred", "get_response"):
        assert hasattr(Request, method)
        assert hasattr(request_proxy, method)

    def client():
        return (yield request_proxy.send_deferred().get_response())

    assert world.run(client()) == 2
    assert request_proxy.attempts == 1
    # The request proxy checkpointed after success, like the object proxy.
    assert proxy._ft.checkpoints_taken == 1


def test_plain_stub_and_proxy_coexist_on_same_object(world):
    """Clients that do not need fault tolerance keep using the plain stub
    against the same server object."""
    ior = world.deploy_counter(host=1)
    proxy = world.proxy(ior)
    plain = world.runtime.orb(0).stub(ior, counter_ns.CounterStub)

    def client():
        yield proxy.increment(5)
        return (yield plain.value())

    assert world.run(client()) == 5
    # Only the proxy call checkpointed.
    assert world.runtime.store_servant.stores == 1


def test_fig2_failure_path_reroutes_both_proxies(world):
    """After a server failure both the object proxy and a request proxy
    transparently talk to the re-created server object."""
    ior = world.deploy_counter(host=1)
    proxy = world.proxy(ior)
    world.settle()

    def client():
        yield proxy.increment(1)  # checkpoint v1 = 1
        world.cluster.host(1).crash()
        via_proxy = yield proxy.increment(1)
        via_request = yield FtRequest(proxy, "increment", (1,)).send_deferred().get_response()
        return via_proxy, via_request, proxy.ior.host

    via_proxy, via_request, host = world.run(client())
    assert (via_proxy, via_request) == (2, 3)
    assert host != "ws01"
