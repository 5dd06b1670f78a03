"""Golden outcomes of the ORB's invocation path, pinned as literals.

Each case scripts one invocation scenario between the ORBs of a three-host
world whose CPUs run at 1/100 speed, so every marshal, dispatch and
unmarshal charge is a window wide enough to crash a host in.  For every
call the case records what its caller got — the value, or the exception
type and its completion status — and ``float.hex`` of the simulated
instant it got it; for every ORB, its request, cancel and handshake
counters and its connection-cache counters.  After the case has run out,
no ORB holds a pending call or an in-flight dispatch and no process died
unhandled.

The record holds no event count and no span: it pins what an invocation
does, not how the kernel schedules it.
"""

from __future__ import annotations

import pytest

from repro.errors import BAD_PARAM
from repro.orb import Orb, OrbConfig, compile_idl
from repro.orb.forwarding import LocationForward

ns = compile_idl(
    """
    exception Refused { string why; };
    interface Golden {
        double echo(in double x);
        double grind(in double seconds);
        oneway void note(in double x);
        double refuse() raises (Refused);
        double fault();
        double bug();
        string contexts();
    };
    """,
    name="invocation-golden",
)

#: the service context the ``contexts`` case ships with its request.
CONTEXT = (0x47444C4E, b"golden")


class GoldenImpl(ns.GoldenSkeleton):
    def __init__(self):
        self.notes = []

    def echo(self, x):
        return x

    def grind(self, seconds):
        yield self._host().execute(seconds)
        return seconds

    def note(self, x):
        self.notes.append(x)

    def refuse(self):
        raise ns.Refused(why="golden")

    def fault(self):
        raise BAD_PARAM("golden fault")

    def bug(self):
        raise ValueError("golden bug")

    def contexts(self):
        # Read before the first yield: the contexts are only valid during
        # the synchronous prefix of the upcall.
        seen = self._poa.orb.current_service_contexts
        yield self._host().execute(1e-4)
        return repr(seen)


class Forwarder(ns.GoldenSkeleton):
    """Forwards every request to ``target`` (itself when None)."""

    def __init__(self, target=None):
        self.target = target

    def _forward(self, *_args):
        raise LocationForward(self.target if self.target is not None else self._this())

    echo = grind = refuse = fault = bug = contexts = _forward


# -- the record ------------------------------------------------------------------


def outcome_of(world, call):
    """Drive ``call()`` (a thunk returning the call's future) from a
    process no host owns; returns ``(what it got, float.hex(now))``."""
    box = {}

    def driver():
        try:
            value = yield call()
        except Exception as exc:  # noqa: BLE001 - the record is the point
            completed = getattr(exc, "completed", None)
            box["got"] = (
                type(exc).__name__,
                completed.name if completed is not None else None,
            )
        else:
            box["got"] = value
        box["at"] = world.sim.now.hex()

    world.sim.spawn(driver())
    return box


def counters(orb):
    cache = orb.connections
    return {
        "sent": orb.requests_sent,
        "served": orb.requests_served,
        "cancelled": orb.requests_cancelled,
        "handshakes": orb.handshakes_sent,
        "cache": None
        if cache is None
        else {
            name: getattr(cache, name)
            for name in (
                "hits",
                "misses",
                "opens",
                "handshake_joins",
                "evictions",
                "invalidations",
                "failures",
            )
        },
    }


def record(world, orbs, boxes):
    """Run the world out, check nothing is left behind, return the record."""
    world.sim.run(until=world.sim.now + 60.0)
    for orb in orbs:
        assert orb._pending == {}, orb.name
        assert orb._inflight_serves == {}, orb.name
    assert world.sim.unhandled_failures == []
    return {
        "calls": [(box["got"], box["at"]) for box in boxes],
        "orbs": [counters(orb) for orb in orbs],
    }


def golden_world(make_world):
    return make_world(num_hosts=3, speeds=0.01)


def pair(world, client_config=None, server_index=1):
    client = (
        world.orb(0)
        if client_config is None
        else Orb(world.host(0), world.network, config=client_config)
    )
    server = world.orb(server_index)
    impl = GoldenImpl()
    ior = server.poa.activate(impl)
    return client, server, impl, client.stub(ior, ns.GoldenStub)


def at(world, when, action):
    world.sim.schedule(when - world.sim.now, action)


# -- the cases --------------------------------------------------------------------


def case_plain(world):
    client, server, _, stub = pair(world)
    boxes = [outcome_of(world, lambda: stub.echo(1.5))]
    return record(world, [client, server], boxes)


def case_oneway(world):
    client, server, impl, stub = pair(world)
    boxes = [outcome_of(world, lambda: stub.note(2.5))]
    result = record(world, [client, server], boxes)
    assert impl.notes == [2.5]
    return result


def case_user_exception(world):
    client, server, _, stub = pair(world)
    boxes = [outcome_of(world, stub.refuse)]
    return record(world, [client, server], boxes)


def case_system_exception(world):
    client, server, _, stub = pair(world)
    boxes = [outcome_of(world, stub.fault), outcome_of(world, stub.bug)]
    return record(world, [client, server], boxes)


def case_stale_incarnation(world):
    client, server, _, stub = pair(world)
    world.host(1).crash()
    world.host(1).restart()
    reborn = Orb(world.host(1), world.network, port=server.port)
    reborn.poa.activate(GoldenImpl(), key=stub.ior.object_key)
    boxes = [outcome_of(world, lambda: stub.echo(1.0))]
    return record(world, [client, reborn], boxes)


def case_forward_single(world):
    client = world.orb(0)
    real = world.orb(2).poa.activate(GoldenImpl())
    agent = world.orb(1).poa.activate(Forwarder(real))
    stub = client.stub(agent, ns.GoldenStub)
    boxes = [outcome_of(world, lambda: stub.echo(3.0))]
    return record(world, [client, world.orb(1), world.orb(2)], boxes)


def case_forward_chained(world):
    client = world.orb(0)
    final = world.orb(2).poa.activate(GoldenImpl())
    middle = world.orb(1).poa.activate(Forwarder(final))
    first = world.orb(0).poa.activate(Forwarder(middle))
    stub = client.stub(first, ns.GoldenStub)
    boxes = [outcome_of(world, lambda: stub.echo(4.0))]
    return record(world, [client, world.orb(1), world.orb(2)], boxes)


def case_forward_loop(world):
    client = world.orb(0)
    looping = world.orb(1).poa.activate(Forwarder())
    stub = client.stub(looping, ns.GoldenStub)
    boxes = [outcome_of(world, lambda: stub.echo(5.0))]
    return record(world, [client, world.orb(1)], boxes)


def case_cached_forward_dead_target(world):
    client = world.orb(0)
    real = world.orb(2).poa.activate(GoldenImpl())
    agent = world.orb(1).poa.activate(Forwarder(real))
    stub = client.stub(agent, ns.GoldenStub)
    boxes = [outcome_of(world, lambda: stub.echo(6.0))]
    world.sim.run(until=1.0)
    world.orb(2).shutdown()
    boxes.append(outcome_of(world, lambda: stub.echo(7.0)))
    return record(world, [client, world.orb(1), world.orb(2)], boxes)


def case_timeout_cancels_yielding_servant(world):
    client, server, _, stub = pair(world, OrbConfig(request_timeout=0.5))
    boxes = [outcome_of(world, lambda: stub.grind(0.3))]
    result = record(world, [client, server], boxes)
    assert world.host(1).cpu.run_queue_length == 0
    return result


def handshake_pair(world):
    return pair(world, OrbConfig(connection_handshake_rtts=2, connection_reuse=True))


def case_handshake_open_and_hit(world):
    client, server, _, stub = handshake_pair(world)
    boxes = [outcome_of(world, lambda: stub.echo(1.0))]
    world.sim.run(until=1.0)
    boxes.append(outcome_of(world, lambda: stub.echo(2.0)))
    return record(world, [client, server], boxes)


def case_handshake_join(world):
    client, server, _, stub = handshake_pair(world)
    boxes = [
        outcome_of(world, lambda: stub.echo(1.0)),
        outcome_of(world, lambda: stub.echo(2.0)),
    ]
    return record(world, [client, server], boxes)


def case_handshake_refused(world):
    client, server, _, stub = handshake_pair(world)
    server.shutdown()
    boxes = [outcome_of(world, lambda: stub.echo(1.0))]
    return record(world, [client, server], boxes)


def case_handshake_timeout(world):
    client, server, _, stub = handshake_pair(world)
    world.network.partition("ws00", "ws01")
    boxes = [outcome_of(world, lambda: stub.echo(1.0))]
    return record(world, [client, server], boxes)


def case_handshake_per_call(world):
    client, server, _, stub = pair(world, OrbConfig(connection_handshake_rtts=1))
    boxes = [outcome_of(world, lambda: stub.echo(1.0))]
    world.sim.run(until=1.0)
    boxes.append(outcome_of(world, lambda: stub.echo(2.0)))
    return record(world, [client, server], boxes)


def case_reset_from_unbound_port(world):
    client, server, _, stub = pair(world)
    server.shutdown()
    boxes = [outcome_of(world, lambda: stub.echo(1.0))]
    return record(world, [client, server], boxes)


# The echo timeline at 1/100 speed: client marshal [0, 5.0 ms], request in
# flight to 5.5 ms, server dispatch to 15.6 ms, reply marshal to 20.6 ms,
# reply in flight to 21.1 ms, client unmarshal to 26.1 ms.


def server_crash_case(world, when, call):
    client, server, _, stub = pair(world)
    boxes = [outcome_of(world, lambda: call(stub))]
    at(world, when, world.host(1).crash)
    return record(world, [client, server], boxes)


def case_server_crash_during_dispatch(world):
    return server_crash_case(world, 0.010, lambda stub: stub.echo(1.0))


def case_server_crash_during_servant(world):
    return server_crash_case(world, 0.5, lambda stub: stub.grind(0.01))


def case_server_crash_during_reply_marshal(world):
    return server_crash_case(world, 0.018, lambda stub: stub.echo(1.0))


def client_crash_case(world, when, call):
    client, server, _, stub = pair(world)
    boxes = [outcome_of(world, lambda: call(stub))]
    at(world, when, world.host(0).crash)
    return record(world, [client, server], boxes)


def case_client_crash_during_marshal(world):
    return client_crash_case(world, 0.002, lambda stub: stub.echo(1.0))


def case_client_crash_while_waiting(world):
    return client_crash_case(world, 0.010, lambda stub: stub.echo(1.0))


def case_client_crash_during_unmarshal(world):
    return client_crash_case(world, 0.024, lambda stub: stub.echo(1.0))


def case_client_shutdown_in_flight(world):
    client, server, _, stub = pair(world)
    boxes = [
        outcome_of(world, lambda: stub.echo(1.0)),
        outcome_of(world, lambda: stub.grind(0.01)),
    ]
    at(world, 0.012, client.shutdown)
    return record(world, [client, server], boxes)


def case_server_shutdown_in_flight(world):
    client, server, _, stub = pair(world)
    boxes = [outcome_of(world, lambda: stub.grind(0.01))]
    at(world, 0.5, server.shutdown)
    return record(world, [client, server], boxes)


def case_servant_reads_service_contexts(world):
    client, server, _, stub = pair(world)
    info = ns.GoldenStub.__operations__["contexts"]
    boxes = [
        outcome_of(
            world,
            lambda: client.invoke(stub.ior, info, (), service_contexts=(CONTEXT,)),
        )
    ]
    return record(world, [client, server], boxes)


CASES = {
    name[len("case_"):]: function
    for name, function in sorted(globals().items())
    if name.startswith("case_")
}

GOLDEN: dict = {'cached_forward_dead_target': {'calls': [(6.0, '0x1.82957115ecd15p-5'),
                                          (('COMM_FAILURE', 'COMPLETED_NO'),
                                           '0x1.07350c51471a7p+0')],
                                'orbs': [{'sent': 5,
                                          'served': 0,
                                          'cancelled': 0,
                                          'handshakes': 0,
                                          'cache': None},
                                         {'sent': 0,
                                          'served': 2,
                                          'cancelled': 0,
                                          'handshakes': 0,
                                          'cache': None},
                                         {'sent': 0,
                                          'served': 1,
                                          'cancelled': 0,
                                          'handshakes': 0,
                                          'cache': None}]},
 'client_crash_during_marshal': {'calls': [(('ProcessKilled', None),
                                            '0x1.0624dd2f1a9fcp-9')],
                                 'orbs': [{'sent': 0,
                                           'served': 0,
                                           'cancelled': 0,
                                           'handshakes': 0,
                                           'cache': None},
                                          {'sent': 0,
                                           'served': 0,
                                           'cancelled': 0,
                                           'handshakes': 0,
                                           'cache': None}]},
 'client_crash_during_unmarshal': {'calls': [(('ProcessKilled', None),
                                              '0x1.89374bc6a7efap-6')],
                                   'orbs': [{'sent': 1,
                                             'served': 0,
                                             'cancelled': 0,
                                             'handshakes': 0,
                                             'cache': None},
                                            {'sent': 0,
                                             'served': 1,
                                             'cancelled': 0,
                                             'handshakes': 0,
                                             'cache': None}]},
 'client_crash_while_waiting': {'calls': [(('ProcessKilled', None),
                                           '0x1.47ae147ae147bp-7')],
                                'orbs': [{'sent': 1,
                                          'served': 0,
                                          'cancelled': 0,
                                          'handshakes': 0,
                                          'cache': None},
                                         {'sent': 0,
                                          'served': 1,
                                          'cancelled': 0,
                                          'handshakes': 0,
                                          'cache': None}]},
 'client_shutdown_in_flight': {'calls': [(('COMM_FAILURE', 'COMPLETED_MAYBE'),
                                          '0x1.89374bc6a7efap-7'),
                                         (('COMM_FAILURE', 'COMPLETED_MAYBE'),
                                          '0x1.89374bc6a7efap-7')],
                               'orbs': [{'sent': 2,
                                         'served': 0,
                                         'cancelled': 0,
                                         'handshakes': 0,
                                         'cache': None},
                                        {'sent': 0,
                                         'served': 2,
                                         'cancelled': 0,
                                         'handshakes': 0,
                                         'cache': None}]},
 'forward_chained': {'calls': [(4.0, '0x1.13cb237f61093p-4')],
                     'orbs': [{'sent': 3,
                               'served': 1,
                               'cancelled': 0,
                               'handshakes': 0,
                               'cache': None},
                              {'sent': 0,
                               'served': 1,
                               'cancelled': 0,
                               'handshakes': 0,
                               'cache': None},
                              {'sent': 0,
                               'served': 1,
                               'cancelled': 0,
                               'handshakes': 0,
                               'cache': None}]},
 'forward_loop': {'calls': [(('TRANSIENT', 'COMPLETED_MAYBE'), '0x1.8f80a6838ce80p-3')],
                  'orbs': [{'sent': 9,
                            'served': 0,
                            'cancelled': 0,
                            'handshakes': 0,
                            'cache': None},
                           {'sent': 0,
                            'served': 9,
                            'cancelled': 0,
                            'handshakes': 0,
                            'cache': None}]},
 'forward_single': {'calls': [(3.0, '0x1.82957115ecd15p-5')],
                    'orbs': [{'sent': 2,
                              'served': 0,
                              'cancelled': 0,
                              'handshakes': 0,
                              'cache': None},
                             {'sent': 0,
                              'served': 1,
                              'cancelled': 0,
                              'handshakes': 0,
                              'cache': None},
                             {'sent': 0,
                              'served': 1,
                              'cancelled': 0,
                              'handshakes': 0,
                              'cache': None}]},
 'handshake_join': {'calls': [(1.0, '0x1.b3410a8c4afc8p-5'),
                              (2.0, '0x1.b3410a8c4afc8p-5')],
                    'orbs': [{'sent': 2,
                              'served': 0,
                              'cancelled': 0,
                              'handshakes': 2,
                              'cache': {'hits': 0,
                                        'misses': 1,
                                        'opens': 1,
                                        'handshake_joins': 1,
                                        'evictions': 0,
                                        'invalidations': 0,
                                        'failures': 0}},
                             {'sent': 0,
                              'served': 2,
                              'cancelled': 0,
                              'handshakes': 0,
                              'cache': None}]},
 'handshake_open_and_hit': {'calls': [(1.0, '0x1.cbfd99f4326c6p-6'),
                                      (2.0, '0x1.06ac5dc17c36bp+0')],
                            'orbs': [{'sent': 2,
                                      'served': 0,
                                      'cancelled': 0,
                                      'handshakes': 2,
                                      'cache': {'hits': 1,
                                                'misses': 1,
                                                'opens': 1,
                                                'handshake_joins': 0,
                                                'evictions': 0,
                                                'invalidations': 0,
                                                'failures': 0}},
                                     {'sent': 0,
                                      'served': 2,
                                      'cancelled': 0,
                                      'handshakes': 0,
                                      'cache': None}]},
 'handshake_per_call': {'calls': [(1.0, '0x1.bb8a8529a00c8p-6'),
                                  (2.0, '0x1.06ee2a14a6803p+0')],
                        'orbs': [{'sent': 2,
                                  'served': 0,
                                  'cancelled': 0,
                                  'handshakes': 2,
                                  'cache': None},
                                 {'sent': 0,
                                  'served': 2,
                                  'cancelled': 0,
                                  'handshakes': 0,
                                  'cache': None}]},
 'handshake_refused': {'calls': [(('COMM_FAILURE', 'COMPLETED_NO'),
                                  '0x1.89f33368e3187p-8')],
                       'orbs': [{'sent': 1,
                                 'served': 0,
                                 'cancelled': 0,
                                 'handshakes': 1,
                                 'cache': {'hits': 0,
                                           'misses': 1,
                                           'opens': 0,
                                           'handshake_joins': 0,
                                           'evictions': 0,
                                           'invalidations': 1,
                                           'failures': 1}},
                                {'sent': 0,
                                 'served': 0,
                                 'cancelled': 0,
                                 'handshakes': 0,
                                 'cache': None}]},
 'handshake_timeout': {'calls': [(('COMM_FAILURE', 'COMPLETED_NO'),
                                  '0x1.c297bfa4c61d9p-5')],
                       'orbs': [{'sent': 1,
                                 'served': 0,
                                 'cancelled': 0,
                                 'handshakes': 1,
                                 'cache': {'hits': 0,
                                           'misses': 1,
                                           'opens': 0,
                                           'handshake_joins': 0,
                                           'evictions': 0,
                                           'invalidations': 0,
                                           'failures': 1}},
                                {'sent': 0,
                                 'served': 0,
                                 'cancelled': 0,
                                 'handshakes': 0,
                                 'cache': None}]},
 'oneway': {'calls': [(None, '0x1.47f13059641f6p-8')],
            'orbs': [{'sent': 1,
                      'served': 0,
                      'cancelled': 0,
                      'handshakes': 0,
                      'cache': None},
                     {'sent': 0,
                      'served': 1,
                      'cancelled': 0,
                      'handshakes': 0,
                      'cache': None}]},
 'plain': {'calls': [(1.5, '0x1.ab17705f0dacap-6')],
           'orbs': [{'sent': 1,
                     'served': 0,
                     'cancelled': 0,
                     'handshakes': 0,
                     'cache': None},
                    {'sent': 0,
                     'served': 1,
                     'cancelled': 0,
                     'handshakes': 0,
                     'cache': None}]},
 'reset_from_unbound_port': {'calls': [(('COMM_FAILURE', 'COMPLETED_NO'),
                                        '0x1.8a57dd36a75c0p-8')],
                             'orbs': [{'sent': 1,
                                       'served': 0,
                                       'cancelled': 0,
                                       'handshakes': 0,
                                       'cache': None},
                                      {'sent': 0,
                                       'served': 0,
                                       'cancelled': 0,
                                       'handshakes': 0,
                                       'cache': None}]},
 'servant_reads_service_contexts': {'calls': [("((1195658318, b'golden'),)",
                                               '0x1.27b302206bb05p-5')],
                                    'orbs': [{'sent': 1,
                                              'served': 0,
                                              'cancelled': 0,
                                              'handshakes': 0,
                                              'cache': None},
                                             {'sent': 0,
                                              'served': 1,
                                              'cancelled': 0,
                                              'handshakes': 0,
                                              'cache': None}]},
 'server_crash_during_dispatch': {'calls': [(('COMM_FAILURE', 'COMPLETED_MAYBE'),
                                             '0x1.5810624dd2f1bp-7')],
                                  'orbs': [{'sent': 1,
                                            'served': 0,
                                            'cancelled': 0,
                                            'handshakes': 0,
                                            'cache': None},
                                           {'sent': 0,
                                            'served': 0,
                                            'cancelled': 0,
                                            'handshakes': 0,
                                            'cache': None}]},
 'server_crash_during_reply_marshal': {'calls': [(('COMM_FAILURE', 'COMPLETED_MAYBE'),
                                                  '0x1.2f1a9fbe76c8bp-6')],
                                       'orbs': [{'sent': 1,
                                                 'served': 0,
                                                 'cancelled': 0,
                                                 'handshakes': 0,
                                                 'cache': None},
                                                {'sent': 0,
                                                 'served': 1,
                                                 'cancelled': 0,
                                                 'handshakes': 0,
                                                 'cache': None}]},
 'server_crash_during_servant': {'calls': [(('COMM_FAILURE', 'COMPLETED_MAYBE'),
                                            '0x1.004189374bc6ap-1')],
                                 'orbs': [{'sent': 1,
                                           'served': 0,
                                           'cancelled': 0,
                                           'handshakes': 0,
                                           'cache': None},
                                          {'sent': 0,
                                           'served': 1,
                                           'cancelled': 0,
                                           'handshakes': 0,
                                           'cache': None}]},
 'server_shutdown_in_flight': {'calls': [(0.01, '0x1.06ac5dc17c36bp+0')],
                               'orbs': [{'sent': 1,
                                         'served': 0,
                                         'cancelled': 0,
                                         'handshakes': 0,
                                         'cache': None},
                                        {'sent': 0,
                                         'served': 1,
                                         'cancelled': 0,
                                         'handshakes': 0,
                                         'cache': None}]},
 'stale_incarnation': {'calls': [(('OBJECT_NOT_EXIST', 'COMPLETED_NO'),
                                  '0x1.acc48428ef0cap-6')],
                       'orbs': [{'sent': 1,
                                 'served': 0,
                                 'cancelled': 0,
                                 'handshakes': 0,
                                 'cache': None},
                                {'sent': 0,
                                 'served': 1,
                                 'cancelled': 0,
                                 'handshakes': 0,
                                 'cache': None}]},
 'system_exception': {'calls': [(('BAD_PARAM', 'COMPLETED_MAYBE'),
                                 '0x1.a327ed84d3390p-5'),
                                (('UNKNOWN', 'COMPLETED_MAYBE'),
                                 '0x1.a35108305029ep-5')],
                      'orbs': [{'sent': 2,
                                'served': 0,
                                'cancelled': 0,
                                'handshakes': 0,
                                'cache': None},
                               {'sent': 0,
                                'served': 2,
                                'cancelled': 0,
                                'handshakes': 0,
                                'cache': None}]},
 'timeout_cancels_yielding_servant': {'calls': [(('TIMEOUT', 'COMPLETED_MAYBE'),
                                                 '0x1.028fe260b2c84p-1')],
                                      'orbs': [{'sent': 1,
                                                'served': 0,
                                                'cancelled': 0,
                                                'handshakes': 0,
                                                'cache': None},
                                               {'sent': 0,
                                                'served': 1,
                                                'cancelled': 1,
                                                'handshakes': 0,
                                                'cache': None}]},
 'user_exception': {'calls': [(('Refused', None), '0x1.ab5ca51c849b0p-6')],
                    'orbs': [{'sent': 1,
                              'served': 0,
                              'cancelled': 0,
                              'handshakes': 0,
                              'cache': None},
                             {'sent': 0,
                              'served': 1,
                              'cancelled': 0,
                              'handshakes': 0,
                              'cache': None}]}}


@pytest.mark.parametrize("name", sorted(CASES))
def test_invocation_outcome_is_pinned(make_world, name):
    assert CASES[name](golden_world(make_world)) == GOLDEN[name]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)
