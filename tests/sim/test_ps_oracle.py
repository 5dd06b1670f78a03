"""The processor-sharing CPU against the scan CPU it was derived from.

``tests/sim/ps_oracle.py`` keeps the scan form: every task's remaining
work, updated on every change.  A seeded schedule of execute / abandon
(what a killed waiter does to its CPU future) / ``set_speed`` /
``abort_all`` drives one of each through the same instants; both must
complete and fail the same tasks, each completion within 1e-12 relative
of the other's.

Instants, work factors and speeds come from binary grids.  Both CPUs
finish a task once less than an epsilon of work (1e-9 units) is left, so
a task left with almost exactly that much may go with the head on one
side and a rounding later on the other; on the grids every remaining-work
difference is zero or far above the epsilon.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import ProcessorSharingCPU, Simulator
from tests.sim.ps_oracle import ProcessorSharingCPU as ScanCPU

#: the work scales of a schedule: zero, below the CPU's epsilon, an ORB
#: charge, a short and a long compute step
_SCALES = (0.0, 1e-10, 150e-6, 0.002, 0.01, 0.08)

_operation = st.one_of(
    st.tuples(
        st.just("execute"),
        st.sampled_from(_SCALES),
        st.integers(min_value=4, max_value=12).map(lambda k: k / 8),
    ),
    st.tuples(st.just("abandon"), st.integers(min_value=0, max_value=63)),
    st.tuples(
        st.just("set_speed"),
        st.integers(min_value=2, max_value=18).map(lambda k: k / 8),
    ),
    st.tuples(st.just("abort_all")),
)

#: 30 % of operations on the instant of the one before, the rest up to
#: 0.034 s after it on a 2**-13 s grid
_gap = st.integers(min_value=0, max_value=400).map(
    lambda k: 0.0 if k < 120 else (k - 119) * 2.0**-13
)

_schedule = st.lists(st.tuples(_gap, _operation), min_size=1, max_size=64)


def run_schedule(cpu_class, cores, schedule):
    """Drive one CPU through ``schedule``: ``(gap, operation)`` pairs, an
    abandon naming the operation index of the task it abandons.

    Returns ``({task: completion time}, {task: failure time})``.
    """
    sim = Simulator()
    cpu = cpu_class(sim, speed=1.0, cores=cores)
    futures = {}
    done = {}
    failed = {}

    def submit(task, work):
        future = futures[task] = cpu.execute(work)

        def record(resolved):
            (failed if resolved.failed else done)[task] = sim.now

        future.add_done_callback(record)

    def operate(index, operation):
        what = operation[0]
        if what == "execute":
            submit(index, cores * operation[1] * operation[2])
        elif what == "abandon":
            future = futures.get(operation[1])
            if future is not None:
                future.mark_abandoned()
        elif what == "set_speed":
            cpu.set_speed(operation[1])
        else:
            cpu.abort_all()

    at = 0.0
    for index, (gap, operation) in enumerate(schedule):
        at += gap
        sim.schedule_at(
            at, lambda index=index, operation=operation: operate(index, operation)
        )
    sim.run()
    return done, failed


def _close(a, b):
    return a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((1, 2, 4)), _schedule)
def test_cpu_completes_and_fails_what_the_scan_cpu_does(cores, schedule):
    done, failed = run_schedule(ProcessorSharingCPU, cores, schedule)
    oracle_done, oracle_failed = run_schedule(ScanCPU, cores, schedule)
    assert sorted(done) == sorted(oracle_done)
    assert failed == oracle_failed
    for task, at in done.items():
        assert _close(at, oracle_done[task]), (task, at, oracle_done[task])


def test_oracle_schedule_exercises_every_operation():
    """The hand-written schedule below reaches every branch: shared and
    free cores, an abandon, a speed change and a crash."""
    schedule = [
        (0.0, ("execute", 0.08, 1.0)),
        (0.0, ("execute", 0.002, 0.75)),
        (0.001, ("execute", 150e-6, 1.25)),
        (0.0, ("abandon", 0)),
        (0.01, ("set_speed", 0.5)),
        (0.0, ("execute", 0.01, 1.0)),
        (0.005, ("execute", 1e-10, 1.0)),
        (0.001, ("abort_all",)),
        (0.01, ("execute", 0.0, 1.0)),
        (0.0, ("execute", 0.002, 1.0)),
    ]
    for cores in (1, 2, 4):
        done, failed = run_schedule(ProcessorSharingCPU, cores, schedule)
        oracle_done, oracle_failed = run_schedule(ScanCPU, cores, schedule)
        assert sorted(done) == sorted(oracle_done)
        assert failed == oracle_failed and failed
        assert all(math.isfinite(at) for at in done.values())
        for task, at in done.items():
            assert _close(at, oracle_done[task])
