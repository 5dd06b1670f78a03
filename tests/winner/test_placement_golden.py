"""Bit-exact golden of request placement, recorded across commits.

Two halves, both literals (``tests/winner/placement_golden_steps.py``):

* ``scale_run`` at 60 hosts / 2 000 clients / seed 3 (the accounting cell
  of ``tests/bench/test_scalebench.py``) and at 1 000 hosts / 10 000
  clients / seed 11: completion fingerprint, arrivals, completions,
  events scheduled and ``float.hex`` of the mean latency.
  ``test_thousand_host_run_is_bit_identical`` compares two runs of the
  *same* code; this pins the run against the commit that recorded it.
* a 48-host, 3-site :class:`HierarchicalWinner` driven through a scripted
  200-step sequence of placements, refreshes, host crashes and restarts
  (one whole site goes dark and comes back): the host chosen at every
  step and ``float.hex`` of every ``board.scores()`` entry after it,
  stored as the entries that changed since the previous step.  The same
  tree over the scalar oracle's leaves (``scalar_oracle.py``) must choose
  the same hosts.

Any event, float operation, RNG draw or tie-break a change to the request
path moves shows up here as a literal diff.

Re-record (only when a change is *meant* to move a placement)::

    PYTHONPATH=src:. python tests/winner/test_placement_golden.py --record
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Optional

import pytest

from repro.bench.scalebench import cluster_capacity, scale_run
from repro.cluster import Host
from repro.sim import Simulator
from repro.winner import HierarchicalWinner, hierarchy

from tests.winner.placement_golden_steps import SCALE_CELLS, STEPS
from tests.winner.scalar_oracle import ScalarSiteLoadManager

SCALE_KWARGS = {
    "60x2000/seed3": dict(
        num_hosts=60, num_clients=2_000,
        arrival_rate=0.5 * cluster_capacity(60), duration=2.0, seed=3,
        site_fanout=16, num_shards=4, services_per_shard=2,
    ),
    "1000x10000/seed11": dict(
        num_hosts=1_000, num_clients=10_000,
        arrival_rate=0.5 * cluster_capacity(1_000), duration=1.0, seed=11,
    ),
}

HOSTS = 48
SITE_FANOUT = 16
SCRIPT_STEPS = 200
#: site 1 (hosts 16..31) is crashed host by host from ``DARK_FROM`` on and
#: observed dark; requests are placed around it until it is restarted host
#: by host from ``REVIVE_FROM`` on and observed again.
DARK_FROM = 110
REVIVE_FROM = 150


def run_scale_cell(name: str) -> dict:
    result = scale_run(**SCALE_KWARGS[name])
    return {
        "fingerprint": result.fingerprint,
        "arrivals": result.arrivals,
        "completions": result.completions,
        "events_scheduled": result.events_scheduled,
        "latency_mean": result.latency_mean.hex(),
    }


def script() -> Iterator[tuple]:
    """The 200 actions, from a linear congruential generator so that no
    library's random stream is part of the golden."""
    state = 20
    down: list[int] = []
    for step in range(SCRIPT_STEPS):
        state = (state * 1103515245 + 12345) % 2**31
        roll = (state >> 8) % 100
        dark, revive = step - DARK_FROM, step - REVIVE_FROM
        if 0 <= dark < SITE_FANOUT:
            index = SITE_FANOUT + dark
            if index not in down:
                down.append(index)
            yield ("crash", index)
        elif 0 <= revive < SITE_FANOUT:
            down.remove(SITE_FANOUT + revive)
            yield ("restart", SITE_FANOUT + revive)
        elif SITE_FANOUT in (dark, revive) or roll >= 88:
            yield ("refresh", 0.1 + 0.05 * ((state >> 4) % 8))
        elif roll >= 80:
            index = (state >> 12) % HOSTS
            if index not in down:
                down.append(index)
            yield ("crash", index)
        elif roll >= 72 and down and not DARK_FROM <= step < REVIVE_FROM:
            yield ("restart", down.pop(0))
        else:
            yield ("place", (state >> 16) % 3, 0.25 * (1 + (state >> 4) % 12))


def run_script() -> list[tuple]:
    """``(action, chosen host or None, [hex of every score])`` per step."""
    sim = Simulator(seed=20)
    hosts = [
        Host(sim, i, f"h{i:04d}", speed=1.0 + 0.25 * (i % 3), cores=1 + (i % 2))
        for i in range(HOSTS)
    ]
    by_name = {host.name: host for host in hosts}
    winner = HierarchicalWinner(
        sim, hosts, site_fanout=SITE_FANOUT, region_fanout=2,
    )
    winner.refresh()
    out: list[tuple] = []
    for action in script():
        chosen: Optional[str] = None
        if action[0] == "place":
            # the harness's request path: ask the site the directory
            # names, fall back to the tree when that site is dark
            chosen = winner.leaves[action[1]].best_host()
            if chosen is None:
                chosen = winner.best_host()
            if chosen is not None:
                by_name[chosen].execute(action[2])
        elif action[0] == "refresh":
            sim.run(until=sim.now + action[1])
            winner.refresh()
        elif action[0] == "crash":
            hosts[action[1]].crash()
        else:
            hosts[action[1]].restart()
        scores = [
            float(score).hex()
            for leaf in winner.leaves
            for score in leaf.board.scores()
        ]
        out.append((action[0], chosen, scores))
    sim.check_unhandled()
    return out


@pytest.mark.parametrize("name", list(SCALE_KWARGS))
def test_scale_run_matches_the_recorded_commit(name):
    assert run_scale_cell(name) == SCALE_CELLS[name]


def test_scripted_placements_and_scores_match_the_recorded_commit():
    steps = run_script()
    assert len(steps) == len(STEPS) == SCRIPT_STEPS
    expected_scores: list[str] = [""] * HOSTS
    for number, ((action, chosen, scores), golden) in enumerate(zip(steps, STEPS)):
        golden_action, golden_chosen, changed = golden
        for index, value in changed.items():
            expected_scores[index] = value
        assert (action, chosen) == (golden_action, golden_chosen), number
        assert scores == expected_scores, number
    # the script really exercises what it says it does
    assert {step[0] for step in STEPS} == {"place", "refresh", "crash", "restart"}
    site_one_dark = [
        all(score == "-inf" for score in scores[SITE_FANOUT : 2 * SITE_FANOUT])
        for _, _, scores in steps
    ]
    assert any(site_one_dark) and not site_one_dark[-1]


def test_scalar_managers_choose_the_recorded_hosts(monkeypatch):
    monkeypatch.setattr(hierarchy, "SiteLoadManager", ScalarSiteLoadManager)
    chosen = [(action, host) for action, host, _ in run_script()]
    assert chosen == [(action, host) for action, host, _ in STEPS]


def _record() -> None:
    lines = [
        '"""Recorded by ``tests/winner/test_placement_golden.py --record``; '
        'do not edit by hand."""',
        "",
        "SCALE_CELLS = {",
    ]
    for name in SCALE_KWARGS:
        lines.append(f"    {name!r}: {run_scale_cell(name)!r},")
    lines += ["}", "", "#: (action, chosen host, {score index: float.hex} changed by the step)", "STEPS = ["]
    previous: list[str] = [""] * HOSTS
    for action, chosen, scores in run_script():
        changed = {
            index: value
            for index, (value, before) in enumerate(zip(scores, previous))
            if value != before
        }
        previous = scores
        lines.append(f"    ({action!r}, {chosen!r}, {changed!r}),")
    lines.append("]")
    target = Path(__file__).with_name("placement_golden_steps.py")
    target.write_text("\n".join(lines) + "\n")
    print(f"wrote {target}")


if __name__ == "__main__":
    import sys

    if sys.argv[1:] == ["--record"]:
        _record()
    else:
        sys.exit("usage: test_placement_golden.py --record")
