"""Deterministic discrete-event simulation kernel.

This package is the substrate on which the whole reproduction runs: a
generator-based process model (in the style of SimPy), futures, timeouts,
processor-sharing CPU resources and FIFO channels, all driven by a single
event heap with deterministic tie-breaking.

Everything above this layer — the simulated network, the ORB, the Winner
resource manager, the optimization workloads — expresses waiting and
computing by yielding :class:`SimFuture` objects from generator processes,
except the ORB's invocations and dispatches, which are :class:`Activity`
objects: futures stepped by bound methods under the same wake rule.
"""

from repro.sim.events import SimFuture, all_of, any_of
from repro.sim.kernel import ScheduledEvent, Simulator
from repro.sim.process import Activity, Process
from repro.sim.resources import ProcessorSharingCPU
from repro.sim.channels import Channel
from repro.sim.sync import Lock
from repro.sim.randomness import stable_hash, rng_stream

__all__ = [
    "Activity",
    "Channel",
    "Lock",
    "Process",
    "ProcessorSharingCPU",
    "ScheduledEvent",
    "SimFuture",
    "Simulator",
    "all_of",
    "any_of",
    "rng_stream",
    "stable_hash",
]
