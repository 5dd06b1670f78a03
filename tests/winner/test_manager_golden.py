"""Bit-exact golden of the Winner system manager and the WAN meta manager,
recorded across commits.

A two-site, eight-host WAN cluster — ``eu`` = ws00..ws03 reporting to a
system manager on ws00, ``us`` = ws04..ws07 reporting to one on ws04 — is
fed hand-built ``LoadReport`` / ``LoadReportDelta`` datagrams over the
network (so every report goes through the collector's decoder) and driven
through a scripted sequence of placements by every caller of the system
manager's placement: ``WinnerStrategy.choose`` with a local manager,
``TraderServant.lookup_one``, ``ForwardingAgent.select``,
``MetaManager.best_host(candidates, prefer_site)``, plus ``score(h,
run_queue_discount=1.0, placement_discount=1)`` (what the migration policy
asks about a service's own host).  Placements expire with time, one host goes stale, one report
arrives out of order, and some candidate lists have no live host.

Per step the golden (``manager_golden_steps.py``, literals only) pins the
answer — replica ``host:port``, host name or ``float.hex`` of a score —,
``float.hex`` of the simulated clock, and, as the entries the step changed,
``float.hex`` of every host's ``cached_score``.

Re-record (only when a change is *meant* to move a placement)::

    PYTHONPATH=src:. python tests/winner/test_manager_golden.py --record
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.cluster import Host
from repro.cluster.wan import WideAreaNetwork
from repro.orb.forwarding import ForwardingAgent
from repro.orb.ior import IOR
from repro.services.naming.strategies import WinnerStrategy
from repro.services.trader import TraderServant
from repro.sim import Simulator
from repro.winner import SystemManager
from repro.winner.federation import MetaManager
from repro.winner.node_manager import NODE_MANAGER_PORT
from repro.winner.protocol import SYSTEM_MANAGER_PORT, LoadReport, LoadReportDelta

from tests.winner.manager_golden_steps import STEPS

HOSTS = [f"ws{i:02d}" for i in range(8)]
SPEEDS = [1.0, 1.5, 1.0, 2.0, 1.25, 1.0, 1.5, 1.0]
CORES = [1, 2, 1, 1, 2, 1, 1, 2]
#: the report goes to the system manager of the sender's site.
MANAGER_OF = {name: ("ws00" if i < 4 else "ws04") for i, name in enumerate(HOSTS)}

#: (host index, port) of the replicas each caller chooses among; ws01 holds
#: two, so "the first candidate on the chosen host" is visible, and ws05 is
#: a ``us`` host the ``eu`` manager has never heard of.
STRATEGY_REPLICAS = [(1, 9000), (1, 9001), (2, 9000), (3, 9000), (5, 9000)]
TRADER_OFFERS = [(3, 9100), (0, 9100), (2, 9100), (2, 9101)]
FORWARD_REPLICAS = [(2, 9200), (1, 9200), (3, 9200)]
#: replicas only on ws02, which goes silent after the first round.
STALE_REPLICAS = [(2, 9300), (2, 9301)]


def _round(loads: dict[int, tuple[float, int]]) -> tuple:
    return ("round", loads)


#: ws02 reports in the first round only: it is stale (> 3.5 s silent) from
#: the fourth round on.  Rounds are 1.2 s apart, so placements charged in
#: one round (TTL 2.5 s) have expired two rounds later.
SCRIPT: list[tuple] = [
    _round({0: (0.10, 0), 1: (0.55, 1), 2: (0.05, 0), 3: (0.80, 2),
            4: (0.20, 0), 5: (0.00, 0), 6: (0.90, 3), 7: (0.35, 1)}),
    ("meta", None, "eu"), ("meta", None, "us"), ("meta", None, None),
    ("strategy", STRATEGY_REPLICAS), ("strategy", STRATEGY_REPLICAS),
    ("strategy", STRATEGY_REPLICAS),
    ("trader", "svc"), ("trader", "svc"),
    ("forward",), ("forward",),
    ("meta", None, "eu"), ("meta", ["ws01", "ws05", "ws06"], "eu"),
    ("meta", ["ws05", "ws06"], None),
    ("score", "ws01", 1.0, 1), ("score", "ws03", 1.0, 1), ("score", "ws05", 0.0, 0),
    ("delta", 1, 0.9, 3), ("delta", 3, None, 2), ("delta", 6, 0.2, None),
    ("delta", 5, None, None),
    ("strategy", STRATEGY_REPLICAS), ("strategy", STRATEGY_REPLICAS),
    ("trader", "svc"), ("forward",),
    ("meta", None, "eu"), ("meta", None, "us"),
    ("advance", 1.2),
    _round({0: (0.30, 1), 1: (0.70, 2), 3: (0.40, 1),
            4: (0.10, 0), 5: (0.60, 2), 6: (0.25, 0), 7: (0.50, 1)}),
    ("score", "ws01", 1.0, 1), ("strategy", STRATEGY_REPLICAS), ("trader", "svc"),
    ("meta", ["ws00", "ws04"], "eu"),
    ("advance", 1.2),
    _round({0: (0.15, 0), 1: (0.65, 1), 3: (0.20, 0),
            4: (0.45, 1), 5: (0.30, 1), 6: (0.05, 0), 7: (0.70, 2)}),
    ("strategy", STRATEGY_REPLICAS), ("strategy", STRATEGY_REPLICAS),
    ("forward",), ("trader", "svc"),
    ("meta", None, "eu"), ("meta", None, "us"),
    ("advance", 1.2),
    _round({0: (0.50, 2), 1: (0.20, 0), 3: (0.35, 1),
            4: (0.95, 4), 5: (0.85, 3), 6: (0.90, 4), 7: (0.99, 5)}),
    ("strategy", STRATEGY_REPLICAS), ("trader", "svc"), ("forward",),
    ("strategy", STALE_REPLICAS), ("trader", "stale"),
    ("meta", ["ws02"], "eu"), ("meta", ["ws02", "ws07"], "eu"),
    ("score", "ws02", 0.0, 0), ("score", "ws02", 1.0, 1),
    ("meta", None, "us"), ("meta", None, "eu"), ("meta", None, None),
    ("meta", None, "us"), ("meta", None, "us"), ("meta", None, None),
    ("stale_report", 1, 0.0, 0),
    ("score", "ws01", 0.0, 0), ("score", "ws04", 1.0, 1), ("score", "ws07", 1.0, 3),
    ("advance", 1.2),
    _round({0: (0.60, 2), 1: (0.40, 1), 3: (0.10, 0),
            4: (0.30, 1), 5: (0.20, 0), 6: (0.40, 1), 7: (0.60, 2)}),
    ("delta", 4, 0.1, 0), ("delta", 7, None, None),
    ("meta", None, "eu"), ("meta", None, "us"),
    ("meta", ["ws03", "ws05"], "us"), ("strategy", STRATEGY_REPLICAS),
    ("trader", "svc"), ("forward",), ("score", "ws03", 1.0, 1),
]


class World:
    """The cluster, the two site managers, the meta manager and the three
    single-site callers of the ``eu`` manager."""

    def __init__(self) -> None:
        self.sim = sim = Simulator(seed=21)
        self.network = WideAreaNetwork(sim)
        self.hosts = []
        for index, name in enumerate(HOSTS):
            host = Host(sim, index, name, speed=SPEEDS[index], cores=CORES[index])
            self.network.attach(host)
            self.network.assign_site(name, "eu" if index < 4 else "us")
            self.hosts.append(host)
        self.managers = {
            "eu": SystemManager(self.hosts[0], self.network),
            "us": SystemManager(self.hosts[4], self.network),
        }
        self.meta = MetaManager(self.network)
        for site, manager in self.managers.items():
            self.meta.register_site(site, manager)
        eu = self.managers["eu"]
        self.strategy = WinnerStrategy(eu)
        self.trader = TraderServant(eu)
        for service, offers in (("svc", TRADER_OFFERS), ("stale", STALE_REPLICAS)):
            for ior in self.iors(offers):
                self.trader.export_offer(service, ior)
        self.agent = ForwardingAgent(eu)
        for ior in self.iors(FORWARD_REPLICAS):
            self.agent.add_replica(ior)
        self.seq = [0] * len(HOSTS)

    @staticmethod
    def iors(replicas: list) -> list[IOR]:
        return [IOR("IDL:Golden:1.0", HOSTS[i], port, b"k", 0) for i, port in replicas]

    def send(self, index: int, report) -> None:
        raw = report.encode()
        name = HOSTS[index]
        self.network.send(
            self.hosts[index], NODE_MANAGER_PORT,
            MANAGER_OF[name], SYSTEM_MANAGER_PORT, raw, len(raw),
        )

    def full(self, index: int, cpu: float, run_queue: int, seq: int) -> LoadReport:
        return LoadReport(
            host=HOSTS[index], time=self.sim.now, cpu_utilization=cpu,
            run_queue=run_queue, speed=SPEEDS[index], cores=CORES[index], seq=seq,
        )

    def deliver(self) -> None:
        self.sim.run(until=self.sim.now + 0.05)

    def step(self, action: tuple) -> Optional[str]:
        """Perform one scripted action; the answer it gave, as text."""
        kind = action[0]
        if kind == "round":
            for index, (cpu, run_queue) in action[1].items():
                self.seq[index] += 1
                self.send(index, self.full(index, cpu, run_queue, self.seq[index]))
            self.deliver()
        elif kind == "delta":
            _, index, cpu, run_queue = action
            self.seq[index] += 1
            self.send(index, LoadReportDelta(
                host=HOSTS[index], time=self.sim.now, seq=self.seq[index],
                cpu_utilization=cpu, run_queue=run_queue,
            ))
            self.deliver()
        elif kind == "stale_report":
            # a reordered datagram: a sequence number already seen
            _, index, cpu, run_queue = action
            self.send(index, self.full(index, cpu, run_queue, 1))
            self.deliver()
        elif kind == "advance":
            self.sim.run(until=self.sim.now + action[1])
        elif kind == "meta":
            return self.meta.best_host(action[1], prefer_site=action[2])
        elif kind == "score":
            _, name, run_queue_discount, placement_discount = action
            site = "eu" if name in HOSTS[:4] else "us"
            return self.managers[site].score(
                name,
                run_queue_discount=run_queue_discount,
                placement_discount=placement_discount,
            ).hex()
        elif kind == "strategy":
            ior = self.strategy.choose("golden", self.iors(action[1]))
            return f"{ior.host}:{ior.port}"
        elif kind == "trader":
            ior = self.trader.lookup_one(action[1])
            return f"{ior.host}:{ior.port}"
        elif kind == "forward":
            ior = self.agent.select()
            return f"{ior.host}:{ior.port}"
        else:  # pragma: no cover - a typo in SCRIPT
            raise ValueError(kind)
        return None

    def state(self) -> dict[str, str]:
        """Every pinned value after a step, keyed for per-step deltas."""
        out = {"now": self.sim.now.hex()}
        for manager in self.managers.values():
            for name, record in sorted(manager.records.items()):
                out[name] = record.cached_score.hex()
        return out


def run_script() -> list[tuple]:
    """``(action kind, answer, state)`` per scripted step."""
    world = World()
    out = []
    for action in SCRIPT:
        answer = world.step(action)
        out.append((action[0], answer, world.state()))
    world.sim.check_unhandled()
    return out


def test_managers_answer_and_score_as_recorded():
    steps = run_script()
    assert len(steps) == len(STEPS) == len(SCRIPT)
    expected: dict[str, str] = {}
    for number, ((kind, answer, state), golden) in enumerate(zip(steps, STEPS)):
        golden_kind, golden_answer, changed = golden
        expected.update(changed)
        assert (kind, answer) == (golden_kind, golden_answer), number
        assert state == expected, number
    # the script really exercises what it says it does
    answers = {kind: [a for k, a, _ in STEPS if k == kind] for kind, _, _ in STEPS}
    assert len(set(answers["strategy"])) > 2 and len(set(answers["meta"])) > 2
    assert None in answers["meta"] and set(answers["meta"]) & set(HOSTS[4:])


def _record() -> None:
    lines = [
        '"""Recorded by ``tests/winner/test_manager_golden.py --record``; '
        'do not edit by hand."""',
        "",
        "#: (action kind, answer, {pinned key: value} changed by the step)",
        "STEPS = [",
    ]
    previous: dict[str, str] = {}
    for kind, answer, state in run_script():
        changed = {k: v for k, v in state.items() if previous.get(k) != v}
        previous = state
        lines.append(f"    ({kind!r}, {answer!r}, {changed!r}),")
    lines.append("]")
    target = Path(__file__).with_name("manager_golden_steps.py")
    target.write_text("\n".join(lines) + "\n")
    print(f"wrote {target}")


if __name__ == "__main__":
    import sys

    if sys.argv[1:] == ["--record"]:
        _record()
    else:
        sys.exit("usage: test_manager_golden.py --record")
