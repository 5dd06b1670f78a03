"""Bit-exact golden of the two state-shipping designs.

42 cells — {checkpoint, warm-passive r=3} × {sync, pipelined depth 1,
pipelined depth 4} × deltas {off, on} × {no fault, lead crash} plus the
checkpoint cells again × ``on_checkpoint_failure`` {raise, ignore,
degraded} under a store outage — each pinning what the caller saw, the
last bit of the simulated clock, every shipping-related report counter,
the network totals and the obs registry.  Both designs run on one
``StateShipper`` (``ft/shipping.py``); any event, float, wire byte or
metric series a change to it moves shows up here as a literal diff.

Re-record (only when a change is *meant* to move simulated results)::

    PYTHONPATH=src:. python tests/ft/test_shipping_golden.py --record
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.core.report import runtime_report
from repro.ft import FtPolicy

from tests.ft.conftest import FtWorld, counter_ns
from tests.ft.shipping_golden_cells import CELLS
from tests.ft.test_checkpoint_fastpath import PaddedCounterImpl

CALLS = 14
CRASH_BEFORE = 6
OUTAGE = range(4, 9)
REPORT_SECTIONS = ("fault_tolerance", "ft_proxies", "replication", "network")
MODES = {
    "sync": {},
    "pipe1": {"checkpoint_mode": "pipelined", "checkpoint_pipeline_depth": 1},
    "pipe4": {"checkpoint_mode": "pipelined", "checkpoint_pipeline_depth": 4},
}


def cell_names() -> list[str]:
    names = [
        f"{design}/{mode}/{deltas}/{fault}"
        for design, mode, deltas, fault in itertools.product(
            ("checkpoint", "warm-passive"),
            MODES,
            ("full", "delta"),
            ("none", "crash"),
        )
    ]
    names += [
        f"checkpoint/{mode}/{deltas}/outage-{failure}"
        for mode, deltas, failure in itertools.product(
            MODES, ("full", "delta"), ("raise", "ignore", "degraded")
        )
    ]
    return names


def run_cell(name: str) -> dict:
    design, mode, deltas, fault = name.split("/")
    policy_kwargs = dict(MODES[mode], checkpoint_deltas=deltas == "delta")
    if fault.startswith("outage-"):
        fault, policy_kwargs["on_checkpoint_failure"] = fault.split("-")
    if design == "warm-passive":
        policy_kwargs.update(ft_mode="warm-passive", replication_factor=3)
    world = FtWorld()
    world.runtime.register_type("PaddedCounter", PaddedCounterImpl)
    world.settle(3.0)
    proxy = world.runtime.ft_proxy(
        counter_ns.CounterStub,
        world.runtime.orb(1).poa.activate(PaddedCounterImpl()),
        key="golden",
        type_name="PaddedCounter",
        group_name="counter.service",
        policy=FtPolicy(**policy_kwargs),
        with_store=design == "checkpoint",
    )
    store = world.runtime.store_servant

    def client():
        yield proxy.provision_now()
        values = []
        for index in range(CALLS):
            if fault == "crash" and index == CRASH_BEFORE:
                world.cluster.host(proxy.ior.host).crash()
            if fault == "outage" and index in (OUTAGE.start, OUTAGE.stop):
                store.set_available(index == OUTAGE.stop)
            try:
                # every third call leaves the state untouched
                values.append((yield proxy.increment(0 if index % 3 == 2 else 1)))
            except Exception as exc:  # noqa: BLE001 - the outcome IS the pin
                values.append(type(exc).__name__)
        yield proxy.drain_checkpoints()
        return values

    values = world.run(client())
    report = runtime_report(world.runtime)
    obs = world.sim.obs
    series = json.dumps(obs.metrics.snapshot(), sort_keys=True, default=repr)
    return {
        "values": values,
        "now": float.hex(world.sim.now),
        **{section: report[section] for section in REPORT_SECTIONS},
        "obs": {
            "series": len(obs.metrics),
            "series_sha": hashlib.sha256(series.encode()).hexdigest()[:16],
            "spans_finished": len(obs.tracer.spans),
            "spans": dict(sorted(Counter(s.name for s in obs.tracer.spans).items())),
        },
    }


def test_cells_are_the_full_matrix():
    assert len(CELLS) == 42
    assert sorted(CELLS) == sorted(cell_names())


@pytest.mark.parametrize("name", cell_names())
def test_shipping_golden(name):
    got = run_cell(name)
    want = CELLS[name]
    for field, pinned in want.items():
        if field in REPORT_SECTIONS:
            # A section may grow a key; a pinned key may not move or vanish.
            assert {k: got[field].get(k) for k in pinned} == pinned, field
        else:
            assert got[field] == pinned, field


if __name__ == "__main__":  # pragma: no cover - recorder
    import sys

    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    lines = [
        '"""Recorded by ``tests/ft/test_shipping_golden.py --record``;'
        ' do not edit by hand."""',
        "",
        "CELLS = {",
    ]
    for name in cell_names():
        lines.append(f"    {name!r}: {{")
        lines += [f"        {k!r}: {v!r}," for k, v in run_cell(name).items()]
        lines.append("    },")
    lines.append("}")
    target = Path(__file__).with_name("shipping_golden_cells.py")
    target.write_text("\n".join(lines) + "\n")
    print(f"recorded {len(cell_names())} cells into {target}")
