"""Tests for the processor-sharing CPU."""

import math
import random

import pytest

from repro.cluster.host import Host
from repro.errors import ComputeAborted, SimulationError
from repro.sim import ProcessorSharingCPU, Simulator
from tests.sim.ps_oracle import ProcessorSharingCPU as ScanCPU


def make_cpu(speed=1.0, cores=1):
    sim = Simulator()
    return sim, ProcessorSharingCPU(sim, speed=speed, cores=cores)


def test_single_task_duration_is_work_over_speed():
    sim, cpu = make_cpu(speed=2.0)
    fut = cpu.execute(10.0)
    sim.run()
    assert fut.succeeded
    assert sim.now == pytest.approx(5.0)


def test_two_equal_tasks_share_the_cpu():
    sim, cpu = make_cpu(speed=1.0)
    a = cpu.execute(10.0)
    b = cpu.execute(10.0)
    sim.run()
    # Each runs at rate 1/2 -> both finish at t=20.
    assert a.succeeded and b.succeeded
    assert sim.now == pytest.approx(20.0)


def test_short_task_finishes_first_then_long_speeds_up():
    sim, cpu = make_cpu(speed=1.0)
    long = cpu.execute(10.0)
    short = cpu.execute(2.0)
    done_times = {}
    long.add_done_callback(lambda f: done_times.__setitem__("long", sim.now))
    short.add_done_callback(lambda f: done_times.__setitem__("short", sim.now))
    sim.run()
    # Shared until short completes: short needs 2 units at rate 1/2 -> t=4.
    # Long then has 10-2=8 left at full rate -> t=12.
    assert done_times["short"] == pytest.approx(4.0)
    assert done_times["long"] == pytest.approx(12.0)


def test_late_arrival_slows_running_task():
    sim, cpu = make_cpu(speed=1.0)
    first = cpu.execute(10.0)
    done = {}
    first.add_done_callback(lambda f: done.__setitem__("first", sim.now))
    sim.schedule(5.0, lambda: cpu.execute(10.0))
    sim.run()
    # First: 5 units alone (t=0..5), remaining 5 at half rate -> +10 -> t=15.
    assert done["first"] == pytest.approx(15.0)
    # Second: arrives t=5, gains 5 at half rate until t=15, then 5 alone -> t=20.
    assert sim.now == pytest.approx(20.0)


def test_multicore_runs_tasks_in_parallel():
    sim, cpu = make_cpu(speed=1.0, cores=2)
    a = cpu.execute(10.0)
    b = cpu.execute(10.0)
    sim.run()
    assert a.succeeded and b.succeeded
    assert sim.now == pytest.approx(10.0)


def test_multicore_oversubscription_shares_capacity():
    sim, cpu = make_cpu(speed=1.0, cores=2)
    futs = [cpu.execute(10.0) for _ in range(4)]
    sim.run()
    # 4 tasks on 2 cores: each at rate 1/2 -> t=20.
    assert all(f.succeeded for f in futs)
    assert sim.now == pytest.approx(20.0)


def test_zero_work_completes_immediately():
    sim, cpu = make_cpu()
    fut = cpu.execute(0.0)
    sim.run()
    assert fut.succeeded
    assert sim.now == 0.0


def test_negative_work_rejected():
    _, cpu = make_cpu()
    for work in (-1.0, float("nan")):
        with pytest.raises(SimulationError):
            cpu.execute(work)


def test_non_finite_work_and_speed_rejected():
    """Infinite work would finish at ``now == inf``; an infinite speed in
    no time at all."""
    sim, cpu = make_cpu()
    with pytest.raises(SimulationError):
        cpu.execute(float("inf"))
    for speed in (float("inf"), float("nan"), -1.0):
        with pytest.raises(SimulationError):
            cpu.set_speed(speed)
        with pytest.raises(SimulationError):
            ProcessorSharingCPU(sim, speed=speed)
        with pytest.raises(SimulationError):
            Host(sim, 0, "h0", speed=speed)
    assert cpu.speed == 1.0 and cpu.run_queue_length == 0
    sim.run()
    assert sim.now == 0.0


def test_invalid_construction():
    sim = Simulator()
    with pytest.raises(SimulationError):
        ProcessorSharingCPU(sim, speed=0.0)
    with pytest.raises(SimulationError):
        ProcessorSharingCPU(sim, cores=0)


def test_abort_all_fails_inflight_tasks():
    sim, cpu = make_cpu()
    fut = cpu.execute(100.0)
    sim.schedule(5.0, cpu.abort_all)
    sim.run()
    assert fut.failed
    assert isinstance(fut.exception, ComputeAborted)
    assert cpu.run_queue_length == 0


def test_abort_all_fails_in_submission_order():
    sim, cpu = make_cpu(cores=2)
    order = []
    for task, work in enumerate((9.0, 1.0, 5.0, 3.0, 7.0)):
        cpu.execute(work).add_done_callback(
            lambda future, task=task: order.append((task, future.failed))
        )
    sim.schedule(0.5, cpu.abort_all)
    sim.run()
    assert order == [(task, True) for task in range(5)]
    assert cpu.run_queue_length == 0


def test_busy_integral_tracks_utilization():
    sim, cpu = make_cpu(speed=1.0)
    cpu.execute(10.0)
    sim.run(until=10.0)
    assert cpu.utilization_integral() == pytest.approx(10.0)
    sim.run(until=20.0)
    # Idle from t=10 on: integral unchanged.
    assert cpu.utilization_integral() == pytest.approx(10.0)


def test_busy_integral_fraction_of_capacity():
    sim, cpu = make_cpu(speed=1.0, cores=2)
    cpu.execute(10.0)  # one task on two cores = 50% capacity
    sim.run(until=10.0)
    assert cpu.utilization_integral() == pytest.approx(5.0)


def test_work_completed_accumulates():
    sim, cpu = make_cpu(speed=2.0)
    cpu.execute(6.0)
    cpu.execute(4.0)
    sim.run()
    assert cpu.work_completed == pytest.approx(10.0)


def test_run_queue_length_live():
    sim, cpu = make_cpu()
    cpu.execute(4.0)
    cpu.execute(4.0)
    assert cpu.run_queue_length == 2
    sim.run()
    assert cpu.run_queue_length == 0


def test_process_can_yield_cpu_future():
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim, speed=1.0)

    def worker():
        yield cpu.execute(3.0)
        return sim.now

    proc = sim.spawn(worker())
    sim.run()
    assert proc.value == pytest.approx(3.0)


def test_killed_process_releases_cpu_share():
    """Killing a computing process frees its CPU share immediately."""
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim, speed=1.0)

    def hog():
        yield cpu.execute(1000.0)

    def worker():
        yield cpu.execute(10.0)
        return sim.now

    hog_proc = sim.spawn(hog())
    worker_proc = sim.spawn(worker())
    sim.schedule(2.0, hog_proc.kill)
    sim.run(until=100.0)
    # Shared until t=2 (worker gains 1), then alone: 9 more -> t=11.
    assert worker_proc.value == pytest.approx(11.0)
    assert cpu.run_queue_length == 0


def test_killed_waiter_leaves_the_share_and_the_survivor_finishes_earlier():
    """Three tasks on two cores share them at 2/3 each; the head's waiter
    is killed at t=1, and the survivors run at full speed from there."""
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim, speed=1.0, cores=2)
    finished = {}

    def compute(name, work):
        yield cpu.execute(work)
        finished[name] = sim.now

    head = sim.spawn(compute("head", 2.0))
    sim.spawn(compute("a", 4.0))
    sim.spawn(compute("b", 6.0))
    sim.schedule(1.0, head.kill)
    sim.run()
    assert cpu.run_queue_length == 0 and "head" not in finished
    # 2/3 done by t=1, then alone on a core: a at 1 + 10/3, b at 1 + 16/3
    # (with the head staying, a would have finished at 5 and b at 7)
    assert finished["a"] == pytest.approx(1.0 + 10.0 / 3.0, rel=1e-15)
    assert finished["b"] == pytest.approx(1.0 + 16.0 / 3.0, rel=1e-15)


def test_charge_on_a_free_core_with_a_later_tag_schedules_nothing():
    """A task that neither changes the share nor finishes first leaves the
    armed completion as it is; one that does either re-arms it."""
    sim, cpu = make_cpu(cores=2)
    first = cpu.execute(1.0)
    seq = sim._seq
    second = cpu.execute(3.0)  # a free core, a later tag
    assert sim._seq == seq and sim.pending_event_count == 1
    third = cpu.execute(0.5)  # the cores are full: every share falls
    assert sim._seq == seq + 1 and sim.pending_event_count == 1
    sim.run(until=0.25)
    cpu.execute(2.0)  # four on two cores: re-armed again
    assert sim._seq == seq + 2
    sim.run()
    assert first.succeeded and second.succeeded and third.succeeded
    assert cpu.run_queue_length == 0 and sim.pending_event_count == 0
    sim2, cpu2 = make_cpu(cores=4)
    cpu2.execute(1.0)
    seq = sim2._seq
    cpu2.execute(0.5)  # a free core, but the new task finishes first
    assert sim2._seq == seq + 1 and sim2.pending_event_count == 1


def test_a_long_busy_period_times_a_short_task_as_the_scan_cpu_does():
    """A 1-core CPU kept busy for 1e5 simulated seconds, then a 50e-6
    task: the attained-service clock stands at about ``speed * now``, so
    a tag difference is as fine as the clock itself and the task finishes
    when the scan CPU's does, and never more than one tick of the clock
    away wherever it arrives."""

    def finish(cpu_class, speed, at):
        sim = Simulator()
        cpu = cpu_class(sim, speed=speed)
        cpu.execute(2e5 * speed)
        done = {}

        def charge():
            cpu.execute(50e-6).add_done_callback(
                lambda _: done.setdefault("at", sim.now)
            )

        sim.schedule_at(at, charge)
        sim.run(until=at + 1.0)
        return done["at"]

    for speed in (0.75, 1.0, 2.5):
        assert finish(ProcessorSharingCPU, speed, 1e5) == finish(ScanCPU, speed, 1e5)
        for at in (12345.678, 99999.123456, 1e5 + 0.3):
            ours, scan = finish(ProcessorSharingCPU, speed, at), finish(ScanCPU, speed, at)
            assert abs(ours - scan) <= math.ulp(scan)


def test_a_batch_resolving_together_cannot_withdraw_its_own_members():
    """Tasks that finish (or fail) in one batch have all left the CPU
    before the first callback runs: abandoning a sibling from there
    withdraws nothing, and the sibling still resolves."""
    for crash in (False, True):
        sim, cpu = make_cpu()
        first, second = cpu.execute(2.0), cpu.execute(2.0)
        first.add_done_callback(lambda _: second.mark_abandoned())
        if crash:
            sim.schedule(1.0, cpu.abort_all)
        sim.run()
        assert cpu.run_queue_length == 0
        assert (first.failed, second.failed) == (crash, crash)
        assert first.is_done and second.is_done
        after = cpu.execute(1.0)
        sim.run()
        assert after.value == sim.now and cpu.run_queue_length == 0


def test_abandoned_before_kill_callback_runs_immediately():
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim, speed=1.0)
    fut = cpu.execute(100.0)
    fut.mark_abandoned()
    assert cpu.run_queue_length == 0
    sim.run(until=1.0)
    assert fut.is_pending  # never completes; nobody was waiting


def test_many_staggered_tasks_conserve_total_work():
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim, speed=1.0)
    total = 0.0
    for i in range(10):
        work = 1.0 + i * 0.5
        total += work
        sim.schedule(i * 0.3, lambda w=work: cpu.execute(w))
    sim.run()
    assert cpu.work_completed == pytest.approx(total)
    # Single unit-speed core: busy the whole time work was available; the
    # makespan is at least total work.
    assert sim.now >= total - 1e-6


# -- float.hex() golden ---------------------------------------------------------
#
# Recorded at the parent of the change that made _advance/_reschedule/
# _on_completion one pass each: the rewrite had to keep the operation order
# ((speed * (cores / n)) * elapsed, work_completed += per task in dict
# order), and approx() would not notice an ulp.  Re-pinned once when the
# CPU moved to one attained-service clock and a heap of finish tags: 14
# completions moved by at most 2.0e-16 relative, 19 sampled busy integrals
# (4 cores) by at most 6.1e-16, and work_completed by 1.4e-15 (now n * step
# per change); the order of events, both final busy integrals and both end
# times stayed.


def ps_schedule_trace(
    cores,
    operations=300,
    seed=20000611,
    read_busy=ProcessorSharingCPU.utilization_integral,
):
    """Drive one CPU through a seeded schedule of execute / abandon (what a
    killed waiter does to its CPU future) / set_speed / abort_all /
    utilization samples (taken by ``read_busy``), 30 % of them on the
    instant of the one before.

    Returns ``(events, busy_integral, work_completed, end)`` with every
    float as ``float.hex()``; events are ``(operation index, what, hex)``.
    """
    rng = random.Random(seed + cores)
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim, speed=1.0, cores=cores)
    events = []
    live = {}

    def submit(task, work):
        future = live[task] = cpu.execute(work)

        def done(resolved):
            live.pop(task, None)
            what = "failed" if resolved.failed else "done"
            events.append((task, what, sim.now.hex()))

        future.add_done_callback(done)

    def operate(index):
        roll = rng.random()
        if roll < 0.62:
            scale = (0.0, 1e-10, 150e-6, 0.002, 0.01, 0.08)[int(rng.random() * 6)]
            submit(index, cores * scale * (0.5 + rng.random()))
        elif roll < 0.77:
            if live:
                task = sorted(live)[int(rng.random() * len(live))]
                live.pop(task).mark_abandoned()
                events.append((task, "abandoned", sim.now.hex()))
        elif roll < 0.87:
            cpu.set_speed(0.25 + 2.0 * rng.random())
        elif roll < 0.97:
            events.append((index, "sampled", read_busy(cpu).hex()))
        else:
            cpu.abort_all()

    at = 0.0
    for index in range(operations):
        if rng.random() < 0.7:
            at += 0.03 * rng.random()
        sim.schedule_at(at, lambda index=index: operate(index))
    sim.run()
    return events, cpu.busy_integral.hex(), cpu.work_completed.hex(), sim.now.hex()


PS_GOLDEN = {
    1: {
        "busy_integral": "0x1.6b2e02013ba47p+0",
        "work_completed": "0x1.ecf1ca27f8a6cp+0",
        "end": "0x1.94b9cba39a480p+1",
        "events": (
            (2, "done", "0x1.aef4dc158e557p-6"), (3, "done", "0x1.9f20a34a55889p-5"),
            (5, "done", "0x1.df1224560b86fp-5"), (4, "done", "0x1.f2c6cbf465b15p-5"),
            (8, "done", "0x1.0f5eb005113ccp-3"), (9, "done", "0x1.35c1632920c16p-3"),
            (10, "done", "0x1.576aa2d12260cp-3"), (12, "done", "0x1.9d4f69e137724p-3"),
            (15, "done", "0x1.ca8801fcd720dp-3"), (13, "done", "0x1.ccbf23b5aabc7p-3"),
            (17, "done", "0x1.f726152d16222p-3"),
            (14, "abandoned", "0x1.1b122e9bdeed2p-2"),
            (21, "done", "0x1.1c1cc4b83a542p-2"), (16, "done", "0x1.2231aa6d86dacp-2"),
            (23, "abandoned", "0x1.41b5d378e4154p-2"),
            (6, "done", "0x1.4868c6c793c1ep-2"), (26, "done", "0x1.4cdec94824ad6p-2"),
            (18, "done", "0x1.5e9820814cd32p-2"),
            (7, "abandoned", "0x1.7c2a212f97e8fp-2"),
            (25, "done", "0x1.a1db8f521dc80p-2"),
            (20, "abandoned", "0x1.aa518ad14f569p-2"),
            (27, "abandoned", "0x1.aa518ad14f569p-2"),
            (30, "done", "0x1.ad8b0fc1da0b9p-2"),
            (11, "failed", "0x1.baf0155976d8ep-2"),
            (19, "failed", "0x1.baf0155976d8ep-2"),
            (29, "failed", "0x1.baf0155976d8ep-2"),
            (31, "failed", "0x1.baf0155976d8ep-2"),
            (36, "done", "0x1.dbf168a5acf2ep-2"),
            (38, "sampled", "0x1.74d9fa334a4bcp-2"),
            (39, "abandoned", "0x1.edd1a82cca57fp-2"),
            (39, "done", "0x1.edd1a82cca57fp-2"), (41, "done", "0x1.f2d67c0beaacap-2"),
            (42, "sampled", "0x1.74f79960fc26cp-2"),
            (43, "abandoned", "0x1.06ec04e70d145p-1"),
            (46, "done", "0x1.06ec04e70d145p-1"),
            (47, "abandoned", "0x1.0e44941e19106p-1"),
            (49, "done", "0x1.19e119b510274p-1"), (50, "done", "0x1.1a1f6a3a767c8p-1"),
            (51, "done", "0x1.1c8ee05f81e06p-1"), (52, "done", "0x1.2116a8bbab04dp-1"),
            (53, "done", "0x1.2116a8bbab04dp-1"), (54, "done", "0x1.2116a8bbab04dp-1"),
            (55, "done", "0x1.220fee5780285p-1"), (57, "done", "0x1.24ee397d37762p-1"),
            (59, "sampled", "0x1.946c9e9fa2462p-2"),
            (58, "done", "0x1.258f1e17d7321p-1"), (64, "done", "0x1.576084c149d59p-1"),
            (62, "done", "0x1.5a87481ab1438p-1"), (65, "done", "0x1.5ba4e711becd6p-1"),
            (66, "done", "0x1.6adb56052d501p-1"), (67, "done", "0x1.6d6e276951393p-1"),
            (69, "sampled", "0x1.ca9768228f872p-2"),
            (70, "done", "0x1.7f458dae836b1p-1"), (72, "done", "0x1.8c4587a360e3cp-1"),
            (73, "done", "0x1.8cb77963a0f7bp-1"),
            (74, "sampled", "0x1.f6e7ec43da924p-2"),
            (75, "done", "0x1.8ff0adbde38dep-1"), (76, "done", "0x1.8ff0adbde38dep-1"),
            (68, "done", "0x1.9177ba6a0a936p-1"), (78, "done", "0x1.9747a12d38216p-1"),
            (79, "done", "0x1.9f98d8f434d90p-1"), (80, "done", "0x1.a753e39c1ff7ap-1"),
            (83, "abandoned", "0x1.afc6f9c0dde56p-1"),
            (86, "sampled", "0x1.1b4a4224e7a0ap-1"),
            (83, "done", "0x1.afc6f9c0dde56p-1"), (87, "done", "0x1.b100283cd73b7p-1"),
            (81, "done", "0x1.b29e8607bcf64p-1"), (82, "done", "0x1.b77f6239e7929p-1"),
            (90, "done", "0x1.bc3146e30fb91p-1"),
            (71, "failed", "0x1.c4c7482817337p-1"),
            (85, "failed", "0x1.c4c7482817337p-1"),
            (88, "failed", "0x1.c4c7482817337p-1"),
            (89, "failed", "0x1.c4c7482817337p-1"),
            (91, "failed", "0x1.c4c7482817337p-1"),
            (92, "failed", "0x1.c4c7482817337p-1"),
            (94, "done", "0x1.cf785f268febep-1"),
            (96, "abandoned", "0x1.ee669173b35cfp-1"),
            (98, "done", "0x1.ef6a531d81a94p-1"), (101, "done", "0x1.f14f79d0edb3cp-1"),
            (99, "done", "0x1.fafa96644b8d1p-1"), (102, "done", "0x1.fc37371e3ec5ap-1"),
            (105, "sampled", "0x1.488f843ca318ap-1"),
            (103, "done", "0x1.fee98ff698134p-1"),
            (104, "done", "0x1.fee98ff698134p-1"),
            (106, "done", "0x1.032ddcfe63018p+0"),
            (107, "done", "0x1.0333844345f59p+0"),
            (108, "done", "0x1.079ee12583185p+0"),
            (109, "done", "0x1.079f53416c23ep+0"),
            (110, "done", "0x1.0c2d29a8438cfp+0"),
            (112, "done", "0x1.15bb5dc460b72p+0"),
            (113, "sampled", "0x1.48ae6be40e556p-1"),
            (114, "done", "0x1.1fa8eb4625287p+0"),
            (116, "done", "0x1.2e30bf3e428cbp+0"),
            (118, "done", "0x1.3221b4ae1e188p+0"),
            (119, "done", "0x1.386c434d9a70cp+0"),
            (120, "done", "0x1.3acea50586f42p+0"),
            (117, "abandoned", "0x1.3f610f88e0ff0p+0"),
            (125, "done", "0x1.4869060ddf853p+0"),
            (126, "done", "0x1.487e746bdd57ep+0"),
            (129, "done", "0x1.54cbc9816f078p+0"),
            (131, "done", "0x1.5574e8e0c02bdp+0"),
            (133, "done", "0x1.600a0401a6601p+0"),
            (130, "done", "0x1.62c2b507bba04p+0"),
            (134, "done", "0x1.654fa754693edp+0"),
            (132, "done", "0x1.6838ff3e7f78ep+0"),
            (137, "sampled", "0x1.a1f4cd51698fep-1"),
            (135, "done", "0x1.68622d983c939p+0"),
            (136, "done", "0x1.6865fb1a05fcfp+0"),
            (138, "done", "0x1.6b1c8de6ba2a5p+0"),
            (139, "abandoned", "0x1.7682d19c66d70p+0"),
            (142, "done", "0x1.76927e9f7ae3fp+0"),
            (143, "done", "0x1.779e299b2a6fbp+0"),
            (144, "sampled", "0x1.b6c8cc08bff02p-1"),
            (145, "done", "0x1.8200a43e924f8p+0"),
            (147, "done", "0x1.84507026e7e5bp+0"),
            (148, "done", "0x1.84507026e7e5bp+0"),
            (151, "abandoned", "0x1.8badc071a6898p+0"),
            (153, "done", "0x1.8e74ccebefcd0p+0"),
            (154, "done", "0x1.9358543bf77a4p+0"),
            (156, "done", "0x1.9f134ba0670e8p+0"),
            (155, "abandoned", "0x1.a3bcf16b2d80cp+0"),
            (158, "done", "0x1.aa5c5acbc07e9p+0"),
            (159, "sampled", "0x1.cc748254e14ccp-1"),
            (162, "sampled", "0x1.cc748254e14ccp-1"),
            (161, "done", "0x1.aed6d012adfb9p+0"),
            (163, "done", "0x1.b29e540ab3331p+0"),
            (164, "done", "0x1.b3c94d71e63f3p+0"),
            (166, "done", "0x1.b7ee3b7e241b9p+0"),
            (167, "done", "0x1.bcfc0a02dacc8p+0"),
            (169, "sampled", "0x1.d1ac8cf40d91ap-1"),
            (171, "done", "0x1.c6ccddf6dc9a9p+0"),
            (173, "done", "0x1.d081938d58fa0p+0"),
            (172, "done", "0x1.d2aa8a03fc77dp+0"),
            (176, "sampled", "0x1.de1579510c602p-1"),
            (177, "sampled", "0x1.de1579510c602p-1"),
            (175, "done", "0x1.d9d364a325704p+0"),
            (178, "done", "0x1.dfa60a50c57dfp+0"),
            (180, "sampled", "0x1.e6646a6a046bap-1"),
            (179, "abandoned", "0x1.e217b516d4eb1p+0"),
            (184, "done", "0x1.e2e41c187c0bep+0"),
            (183, "done", "0x1.e5980b711db60p+0"),
            (181, "abandoned", "0x1.e80c97773ef5ep+0"),
            (186, "sampled", "0x1.f24e2f2ad8814p-1"),
            (188, "sampled", "0x1.f24e2f2ad8814p-1"),
            (190, "sampled", "0x1.f24e2f2ad8814p-1"),
            (191, "done", "0x1.f1aad936fb503p+0"),
            (192, "done", "0x1.f79c4a08adcc1p+0"),
            (193, "done", "0x1.f9018888e9256p+0"),
            (195, "done", "0x1.00bbe6ff2e456p+1"),
            (196, "done", "0x1.01ea0c375ecd3p+1"),
            (194, "abandoned", "0x1.03785da287cb4p+1"),
            (199, "done", "0x1.060bb95c6560ep+1"),
            (200, "done", "0x1.0782bc36191b7p+1"),
            (201, "abandoned", "0x1.0a1630c59f965p+1"),
            (203, "sampled", "0x1.0da92260e498fp+0"),
            (198, "done", "0x1.0a2a4c50b7a80p+1"),
            (206, "done", "0x1.0dd3c53d4d25dp+1"),
            (205, "done", "0x1.0dd87387ab693p+1"),
            (207, "done", "0x1.0f604a414e790p+1"),
            (204, "abandoned", "0x1.11020d3c7cb5cp+1"),
            (209, "sampled", "0x1.1ae80f5974b59p+0"),
            (212, "done", "0x1.1649107d93610p+1"),
            (213, "sampled", "0x1.25b4ff41985d5p+0"),
            (210, "done", "0x1.18333b30c9b42p+1"),
            (214, "done", "0x1.1946d7bf7829ep+1"),
            (215, "done", "0x1.1bde42792767ep+1"),
            (218, "done", "0x1.1e094ce54ead4p+1"),
            (217, "done", "0x1.1e11ad3614d28p+1"),
            (216, "done", "0x1.1e122f22b937ep+1"),
            (219, "done", "0x1.202e03dd31a8ep+1"),
            (220, "done", "0x1.2032a4907cae4p+1"),
            (221, "done", "0x1.22f09664f9118p+1"),
            (223, "done", "0x1.27c8fd17a403cp+1"),
            (224, "done", "0x1.2b07e1b9a2de8p+1"),
            (226, "done", "0x1.2d75f718aa437p+1"),
            (225, "abandoned", "0x1.30247ac6aa44dp+1"),
            (228, "sampled", "0x1.2e60c24b25a31p+0"),
            (229, "done", "0x1.323653f3646cep+1"),
            (233, "done", "0x1.3bd5c4300dcdcp+1"),
            (235, "done", "0x1.3f46cc535fe1bp+1"),
            (236, "done", "0x1.40116d528f48ap+1"),
            (237, "abandoned", "0x1.4294886d98ca4p+1"),
            (237, "done", "0x1.4294886d98ca4p+1"),
            (240, "done", "0x1.4648d70618ac0p+1"),
            (242, "sampled", "0x1.304158055b1e5p+0"),
            (241, "done", "0x1.4742bc78f07b8p+1"),
            (244, "abandoned", "0x1.4d83db962b6f4p+1"),
            (249, "sampled", "0x1.304685f6421e1p+0"),
            (248, "done", "0x1.51bee09b28bdcp+1"),
            (251, "done", "0x1.57fdb380143a3p+1"),
            (253, "done", "0x1.59306cd364181p+1"),
            (255, "done", "0x1.5b0fe51ce989ep+1"),
            (252, "failed", "0x1.5b9ef80803db1p+1"),
            (258, "done", "0x1.5bd5f0178cf90p+1"),
            (260, "done", "0x1.5e599050484ebp+1"),
            (259, "done", "0x1.5e68c274445d6p+1"),
            (262, "done", "0x1.61d7dcb583352p+1"),
            (264, "done", "0x1.63b5daa249fdbp+1"),
            (263, "abandoned", "0x1.6583dbc811caep+1"),
            (265, "done", "0x1.658b5a54d3118p+1"),
            (261, "done", "0x1.67c286a0513b3p+1"),
            (267, "done", "0x1.6883e6b225b33p+1"),
            (268, "done", "0x1.69f9d711d06e8p+1"),
            (269, "done", "0x1.6b6e5f19d8fc8p+1"),
            (271, "sampled", "0x1.4fc44e52aa811p+0"),
            (273, "done", "0x1.6cbb503952939p+1"),
            (274, "done", "0x1.6cbdd70a9e658p+1"),
            (275, "abandoned", "0x1.6f5223b94bf9bp+1"),
            (277, "sampled", "0x1.52fd34c5839a7p+0"),
            (278, "done", "0x1.71a279b2b96ccp+1"),
            (279, "done", "0x1.759d959f2518dp+1"),
            (283, "sampled", "0x1.593e3106e27cfp+0"),
            (282, "done", "0x1.7cee82109def1p+1"),
            (285, "done", "0x1.7fc56f0795595p+1"),
            (284, "abandoned", "0x1.8040035e23ae3p+1"),
            (287, "done", "0x1.824bd28cf8617p+1"),
            (288, "failed", "0x1.844394eeec221p+1"),
            (289, "failed", "0x1.844394eeec221p+1"),
            (293, "done", "0x1.8902aebb0fe98p+1"),
            (295, "done", "0x1.8dfce0fdaf4f9p+1"),
            (296, "abandoned", "0x1.8f76bd45ffd5dp+1"),
            (299, "done", "0x1.94b9cba39a480p+1"),
        ),
    },
    4: {
        "busy_integral": "0x1.5bf4706d75b39p+0",
        "work_completed": "0x1.a4686f34f7afap+2",
        "end": "0x1.919f92d05e18fp+1",
        "events": (
            (0, "done", "0x1.3a7140c0395c5p-7"), (2, "done", "0x1.82183857a0536p-6"),
            (3, "done", "0x1.8d852921c2557p-6"), (5, "done", "0x1.43508f1deb392p-5"),
            (7, "sampled", "0x1.0cc5b2c3efd80p-6"), (9, "done", "0x1.5737e54ad96e1p-4"),
            (11, "done", "0x1.086820ea5fa8cp-3"), (12, "done", "0x1.0cdba4365f5ddp-3"),
            (16, "done", "0x1.6c77b69ce978ep-3"), (17, "done", "0x1.70754860330ddp-3"),
            (8, "abandoned", "0x1.8912ac54f30f1p-3"),
            (15, "done", "0x1.977eb23add868p-3"),
            (19, "sampled", "0x1.18d4a827c1206p-3"),
            (20, "done", "0x1.a67e0f454b927p-3"), (21, "done", "0x1.cb014b05c3679p-3"),
            (1, "abandoned", "0x1.d128037385a61p-3"),
            (23, "done", "0x1.d128037385a61p-3"), (26, "done", "0x1.f45f32338aff3p-3"),
            (25, "done", "0x1.f5b4675da0b34p-3"),
            (27, "sampled", "0x1.662eebd22a791p-3"),
            (28, "sampled", "0x1.662eebd22a791p-3"),
            (29, "sampled", "0x1.6a220bea812f6p-3"),
            (24, "done", "0x1.0d3918686686bp-2"), (6, "failed", "0x1.0de3e34066c00p-2"),
            (14, "failed", "0x1.0de3e34066c00p-2"),
            (31, "done", "0x1.0e2e1828461d2p-2"), (32, "done", "0x1.126712814c10dp-2"),
            (33, "sampled", "0x1.76d9595179b8ep-3"),
            (36, "sampled", "0x1.76d9595179b8ep-3"),
            (37, "sampled", "0x1.8458b8758d994p-3"),
            (35, "abandoned", "0x1.53cb931e0a695p-2"),
            (39, "done", "0x1.5d78da751097dp-2"),
            (43, "sampled", "0x1.8f7c56d9fb446p-3"),
            (41, "done", "0x1.8ecd4290f6ca4p-2"), (42, "done", "0x1.a225c59f41216p-2"),
            (44, "done", "0x1.bbb8355da88b3p-2"), (47, "done", "0x1.bbd68960c8642p-2"),
            (46, "done", "0x1.bc92d9b9dfa92p-2"), (45, "done", "0x1.d0206f9f8ac34p-2"),
            (49, "done", "0x1.d52b633ddeee7p-2"),
            (50, "sampled", "0x1.103df5b1c788ap-2"),
            (52, "done", "0x1.d628a8439140bp-2"), (48, "done", "0x1.e86034fdedf42p-2"),
            (40, "failed", "0x1.e9f04d3278708p-2"),
            (55, "sampled", "0x1.19e77809d35d8p-2"),
            (57, "failed", "0x1.0ef46bf58c821p-1"),
            (56, "abandoned", "0x1.0ef46bf58c821p-1"),
            (56, "done", "0x1.0ef46bf58c821p-1"), (59, "done", "0x1.0ef46bf58c821p-1"),
            (60, "done", "0x1.1321b9dd42c5ap-1"),
            (64, "abandoned", "0x1.24842418976dbp-1"),
            (67, "done", "0x1.3a2d4d993e960p-1"),
            (66, "abandoned", "0x1.482558befe1c3p-1"),
            (62, "abandoned", "0x1.509f981d73968p-1"),
            (70, "abandoned", "0x1.6463dbfdf1bfep-1"),
            (72, "sampled", "0x1.53e0f4ce120ebp-2"),
            (73, "done", "0x1.7eb1b1cf43863p-1"), (74, "done", "0x1.81ee7d11d1b97p-1"),
            (75, "done", "0x1.86081723d2bcep-1"),
            (76, "abandoned", "0x1.886886b89b9e4p-1"),
            (79, "sampled", "0x1.556f4a8768e4fp-2"),
            (80, "done", "0x1.94c8d2cc188e6p-1"), (83, "done", "0x1.a8aa81d96f6c7p-1"),
            (85, "sampled", "0x1.610f71d11738cp-2"),
            (82, "failed", "0x1.b7bdc223dd8aep-1"),
            (84, "failed", "0x1.b7bdc223dd8aep-1"),
            (86, "failed", "0x1.b7bdc223dd8aep-1"),
            (89, "sampled", "0x1.6823a4cda723dp-2"),
            (91, "sampled", "0x1.6823a4cda723dp-2"),
            (94, "done", "0x1.cc38576b89924p-1"), (92, "done", "0x1.cf62fc17f44e3p-1"),
            (93, "done", "0x1.d02d0b4065425p-1"),
            (96, "sampled", "0x1.74bcf3fc2c3c5p-2"),
            (90, "done", "0x1.e3ff1c3cc426fp-1"), (98, "done", "0x1.e5099dc9ce088p-1"),
            (97, "done", "0x1.ea3abb3f2f308p-1"),
            (100, "sampled", "0x1.89eec3de2848dp-2"),
            (101, "done", "0x1.fdd0ab5a291a3p-1"),
            (102, "sampled", "0x1.9019546940a80p-2"),
            (106, "done", "0x1.0c5f587d4f452p+0"),
            (107, "sampled", "0x1.ba58ffb5485afp-2"),
            (108, "done", "0x1.18c80bd79a10dp+0"),
            (110, "done", "0x1.1dec552498879p+0"),
            (111, "sampled", "0x1.f556902f41e8ep-2"),
            (113, "done", "0x1.2c45a18fb9ddfp+0"),
            (99, "abandoned", "0x1.2cb73cc17e3b1p+0"),
            (112, "done", "0x1.3095f03981f55p+0"),
            (116, "done", "0x1.341988788720bp+0"),
            (115, "done", "0x1.35426471c6d6bp+0"),
            (105, "done", "0x1.37b6c90b941d5p+0"),
            (118, "done", "0x1.3a65fe427d550p+0"),
            (122, "done", "0x1.42298f305d584p+0"),
            (123, "done", "0x1.42298f305d584p+0"),
            (121, "done", "0x1.47bbb8fc3933ep+0"),
            (103, "done", "0x1.47c978e2e10e8p+0"),
            (125, "done", "0x1.50104ca3045e7p+0"),
            (119, "abandoned", "0x1.55e0e5ecdb596p+0"),
            (131, "done", "0x1.5df7f0c4e4144p+0"),
            (132, "done", "0x1.6010e411f1257p+0"),
            (117, "failed", "0x1.649f5983dbae0p+0"),
            (124, "failed", "0x1.649f5983dbae0p+0"),
            (126, "failed", "0x1.649f5983dbae0p+0"),
            (129, "failed", "0x1.649f5983dbae0p+0"),
            (130, "failed", "0x1.649f5983dbae0p+0"),
            (133, "done", "0x1.649f5983dbae0p+0"),
            (137, "sampled", "0x1.63f328f0641f2p-1"),
            (135, "done", "0x1.6ebb748557725p+0"),
            (138, "done", "0x1.74f67fd47bfe4p+0"),
            (143, "done", "0x1.84c4ce20be535p+0"),
            (144, "done", "0x1.84e48b64e9aabp+0"),
            (145, "done", "0x1.912a2b4b754bbp+0"),
            (146, "done", "0x1.95298d3cadef2p+0"),
            (141, "abandoned", "0x1.954d072b1cab4p+0"),
            (136, "abandoned", "0x1.954d072b1cab4p+0"),
            (139, "failed", "0x1.95526e5370bddp+0"),
            (148, "failed", "0x1.95526e5370bddp+0"),
            (150, "failed", "0x1.95526e5370bddp+0"),
            (153, "done", "0x1.9d528ab1a291bp+0"),
            (155, "done", "0x1.a0a829450d454p+0"),
            (154, "done", "0x1.a1965a12ce555p+0"),
            (157, "done", "0x1.a830e0feff09ep+0"),
            (158, "done", "0x1.a84ca699d7060p+0"),
            (161, "done", "0x1.b355278fc2171p+0"),
            (163, "done", "0x1.b680ffaa53ef7p+0"),
            (160, "abandoned", "0x1.bd266c426c9d5p+0"),
            (167, "sampled", "0x1.a1e17062d0d8fp-1"),
            (168, "done", "0x1.c3864709cf139p+0"),
            (170, "done", "0x1.c9be10d944551p+0"),
            (171, "sampled", "0x1.a5b936a7f5efep-1"),
            (172, "sampled", "0x1.a5b936a7f5efep-1"),
            (175, "done", "0x1.d9be597468113p+0"),
            (179, "done", "0x1.e3ac0cd204f69p+0"),
            (169, "abandoned", "0x1.e4a6573a45c99p+0"),
            (177, "done", "0x1.e50a638a3a99ep+0"),
            (178, "done", "0x1.ebd56ade47ae4p+0"),
            (184, "done", "0x1.edd70727736f8p+0"),
            (182, "done", "0x1.f33aaa1e77d90p+0"),
            (185, "done", "0x1.f42fc855f3c73p+0"),
            (181, "done", "0x1.f6c2b6cc305dep+0"),
            (186, "done", "0x1.f76b7821307f9p+0"),
            (176, "abandoned", "0x1.fb015753088a7p+0"),
            (190, "failed", "0x1.fb015753088a7p+0"),
            (191, "failed", "0x1.fb015753088a7p+0"),
            (188, "done", "0x1.fb015753088a7p+0"),
            (189, "done", "0x1.fb015753088a7p+0"),
            (193, "done", "0x1.006020c2d53f4p+1"),
            (195, "done", "0x1.048ed9aa10ff4p+1"),
            (197, "done", "0x1.0618e65d9a99dp+1"),
            (194, "done", "0x1.072c40b2dae2fp+1"),
            (196, "done", "0x1.0761df589e759p+1"),
            (198, "abandoned", "0x1.09c43e3590ecbp+1"),
            (202, "sampled", "0x1.e20bb28cd3939p-1"),
            (201, "abandoned", "0x1.0a25d392cec8cp+1"),
            (201, "done", "0x1.0a25d392cec8cp+1"),
            (205, "abandoned", "0x1.105bf1f85bab8p+1"),
            (204, "abandoned", "0x1.14312a034f903p+1"),
            (207, "failed", "0x1.1648c3bb5a0aep+1"),
            (211, "sampled", "0x1.ed8a3caad8932p-1"),
            (212, "sampled", "0x1.ed8a3caad8932p-1"),
            (214, "sampled", "0x1.ed8a3caad8932p-1"),
            (215, "abandoned", "0x1.17887692dbe66p+1"),
            (221, "sampled", "0x1.efe11c10a58c2p-1"),
            (222, "done", "0x1.226b394ec42d9p+1"),
            (223, "done", "0x1.24fd2e8c31b10p+1"),
            (224, "abandoned", "0x1.275a26805c0cfp+1"),
            (228, "done", "0x1.2abd55f28755dp+1"),
            (231, "done", "0x1.2b8adcf3bc63bp+1"),
            (232, "done", "0x1.2b9fdc9f6bc0fp+1"),
            (229, "done", "0x1.2ba5afd55b30ep+1"),
            (227, "done", "0x1.2bf2f2da6a190p+1"),
            (234, "sampled", "0x1.0d6dda5983dfep+0"),
            (233, "done", "0x1.2e09796048315p+1"),
            (235, "done", "0x1.2e09796048315p+1"),
            (237, "done", "0x1.317513d26df0ap+1"),
            (238, "sampled", "0x1.1627add55bc1ep+0"),
            (219, "done", "0x1.382da9cc0ec2fp+1"),
            (239, "done", "0x1.383ee853c12fap+1"),
            (240, "done", "0x1.3aeb268145285p+1"),
            (242, "done", "0x1.3c3920f9b8ddcp+1"),
            (220, "done", "0x1.3d5b3a0660514p+1"),
            (243, "sampled", "0x1.24540d8fc238ep+0"),
            (225, "failed", "0x1.4331d44652649p+1"),
            (249, "done", "0x1.4769f5fa6e18ap+1"),
            (250, "done", "0x1.4769f5fa6e18ap+1"),
            (251, "done", "0x1.4a4b5f7b7cfe6p+1"),
            (252, "done", "0x1.4ab7ed85cd851p+1"),
            (255, "sampled", "0x1.27752001dc5c0p+0"),
            (253, "abandoned", "0x1.5040ea1082458p+1"),
            (257, "done", "0x1.504874eee83cep+1"),
            (258, "done", "0x1.528736b9152d7p+1"),
            (259, "done", "0x1.54bba95ee984ap+1"),
            (261, "abandoned", "0x1.54eb1ada5f9ddp+1"),
            (262, "done", "0x1.54f1de5d46db8p+1"),
            (263, "abandoned", "0x1.568631e333d6bp+1"),
            (266, "done", "0x1.59fb9a7cf8078p+1"),
            (271, "sampled", "0x1.29f82c3a61bf5p+0"),
            (268, "done", "0x1.5a00482b73c71p+1"),
            (267, "done", "0x1.5a0b5e37c365dp+1"),
            (269, "done", "0x1.5c4cdd88a2c17p+1"),
            (270, "abandoned", "0x1.5da322763707cp+1"),
            (275, "done", "0x1.60a714606f474p+1"),
            (276, "done", "0x1.617658a7be7d3p+1"),
            (279, "done", "0x1.692bcc1fff030p+1"),
            (280, "done", "0x1.6c834e9e79577p+1"),
            (272, "abandoned", "0x1.6c9830f061c82p+1"),
            (284, "done", "0x1.737175ca77e5cp+1"),
            (283, "done", "0x1.74092e03ad3bfp+1"),
            (282, "done", "0x1.74677bc39f684p+1"),
            (274, "abandoned", "0x1.76c18a7992ebcp+1"),
            (286, "done", "0x1.76c18a7992ebcp+1"),
            (287, "done", "0x1.799111acaacb3p+1"),
            (288, "done", "0x1.799111acaacb3p+1"),
            (277, "abandoned", "0x1.7b57032796fa3p+1"),
            (291, "done", "0x1.7c8376c0fb2c7p+1"),
            (293, "done", "0x1.80234ff7131b4p+1"),
            (292, "failed", "0x1.829eb279bc7f9p+1"),
            (296, "sampled", "0x1.5761140c5fd8bp+0"),
            (295, "done", "0x1.8937b41f16badp+1"),
            (297, "abandoned", "0x1.897bc83cc28e4p+1"),
            (299, "done", "0x1.919f92d05e18fp+1"),
        ),
    },
}


@pytest.mark.parametrize("cores", sorted(PS_GOLDEN))
def test_ps_schedule_matches_float_hex_golden(cores):
    events, busy_integral, work_completed, end = ps_schedule_trace(cores)
    golden = PS_GOLDEN[cores]
    assert tuple(events) == golden["events"]
    assert busy_integral == golden["busy_integral"]
    assert work_completed == golden["work_completed"]
    assert end == golden["end"]


@pytest.mark.parametrize("cores", sorted(PS_GOLDEN))
def test_load_sample_reads_what_the_golden_samples_read(cores):
    """``load_sample()`` leaves an idle CPU untouched where
    ``utilization_integral()`` stamps it; sampled through either, the
    schedule — and every sampled integral — is the golden to the last bit."""
    queue_lengths = []

    def read_busy(cpu):
        busy, run_queue = cpu.load_sample()
        queue_lengths.append(run_queue == cpu.run_queue_length)
        return busy

    events, busy_integral, work_completed, end = ps_schedule_trace(
        cores, read_busy=read_busy
    )
    golden = PS_GOLDEN[cores]
    assert tuple(events) == golden["events"]
    assert (busy_integral, work_completed, end) == (
        golden["busy_integral"], golden["work_completed"], golden["end"]
    )
    assert queue_lengths and all(queue_lengths)


def test_load_sample_on_an_idle_cpu_moves_nothing():
    sim = Simulator()
    cpu = ProcessorSharingCPU(sim, speed=2.0, cores=2)
    assert cpu.load_sample() == (0.0, 0)
    done = cpu.execute(3.0)
    sim.run()
    assert done.value == 1.5 and cpu.load_sample() == (0.75, 0)
    # idle for 10 s, sampled on the way: the next task is charged from its
    # own arrival, not from the sample and not from the last completion
    sim.schedule(5.0, cpu.load_sample)
    sim.schedule(10.0, lambda: cpu.execute(1.0))
    sim.run()
    assert sim.now == 12.0
    assert cpu.load_sample() == (1.0, 0)
    assert cpu.utilization_integral() == 1.0
