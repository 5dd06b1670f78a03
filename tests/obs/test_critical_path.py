"""Critical-path analyzer: partition invariant, attribution, golden tie-in."""

import pytest

from repro.obs import critical_path as cp
from repro.obs.trace import Span, SpanLog, Tracer
from repro.sim import Simulator

#: pinned bench_recovery golden: recovery time with one injected failure
#: (BENCH_recovery.json, bench_recovery_time_seconds{failures="1"}).
RECOVERY_GOLDEN = 0.016166990000000325


def _span(name, span_id, parent, start, end, attrs=None, host="", trace_id="t1"):
    span = Span(None, name, trace_id, span_id, parent, start, host=host, attrs=attrs)
    span.end = end
    return span


def _nested_trace():
    return [
        _span("ft:recover", "1", None, 0.0, 10.0),
        _span("call:load", "2", "1", 2.0, 8.0, host="ws00"),
        _span("serve:load", "3", "2", 3.0, 7.0, host="ws01"),
    ]


# -- the partition invariant ----------------------------------------------------


def test_segments_partition_the_root_window_exactly():
    path = cp.analyze(_nested_trace())
    assert path.total == 10.0
    # contiguous, gap-free, in order
    assert path.segments[0].start == 0.0
    assert path.segments[-1].end == 10.0
    for left, right in zip(path.segments, path.segments[1:]):
        assert left.end == right.start
    assert sum(s.duration for s in path.segments) == pytest.approx(10.0)


def test_breakdown_sums_to_total():
    path = cp.analyze(_nested_trace())
    breakdown = path.breakdown()
    assert sum(breakdown.values()) == pytest.approx(path.total, abs=1e-12)
    # root self time around the call, client gap around the serve, serve body
    assert breakdown["recovery_coordination"] == pytest.approx(4.0)
    assert breakdown["transport"] == pytest.approx(2.0)
    assert breakdown["checkpoint_store"] == pytest.approx(4.0)


def test_deepest_span_owns_its_window():
    path = cp.analyze(_nested_trace())
    by_span = {}
    for segment in path.segments:
        by_span.setdefault(segment.span_name, 0.0)
        by_span[segment.span_name] += segment.duration
    assert by_span == {
        "ft:recover": pytest.approx(4.0),
        "call:load": pytest.approx(2.0),
        "serve:load": pytest.approx(4.0),
    }


def test_sibling_children_claim_backwards():
    spans = [
        _span("call:add", "1", None, 0.0, 10.0),
        _span("serve:add", "2", "1", 1.0, 4.0),
        _span("serve:add", "3", "1", 3.0, 9.0),  # overlaps its sibling
    ]
    path = cp.analyze(spans)
    assert sum(s.duration for s in path.segments) == pytest.approx(10.0)
    # the later span wins the overlap: [3,9] to span 3, [1,3] to span 2
    claimed = {s.span_id: 0.0 for s in path.segments}
    for segment in path.segments:
        claimed[segment.span_id] += segment.duration
    assert claimed["3"] == pytest.approx(6.0)
    assert claimed["2"] == pytest.approx(2.0)
    assert claimed["1"] == pytest.approx(2.0)


# -- component attribution -------------------------------------------------------


@pytest.mark.parametrize(
    "name, component",
    [
        ("call:add", "transport"),
        ("serve:add", "servant"),
        ("serve:store", "checkpoint_store"),
        ("serve:store_delta", "checkpoint_store"),
        ("serve:resolve", "naming"),
        ("serve:bind_service", "naming"),
        ("serve:create_object", "factory"),
        ("serve:report_load", "load_monitoring"),
        ("ft:recover", "recovery_coordination"),
        ("ft:checkpoint", "checkpointing"),
        ("ft:migrate", "migration"),
        ("ft:add", "ft_proxy"),
    ],
)
def test_component_of(name, component):
    view = cp.SpanView.of(_span(name, "1", None, 0.0, 1.0))
    assert cp.component_of(view) == component


def test_marshal_work_split_out_of_span_self_time():
    spans = [
        _span("call:add", "1", None, 0.0, 1.0,
              attrs={"unmarshal_work": 0.1}),
        _span("serve:add", "2", "1", 0.2, 0.8,
              attrs={"reply_marshal_work": 0.05}),
    ]
    breakdown = cp.analyze(spans).breakdown()
    assert breakdown["marshal"] == pytest.approx(0.15)
    assert breakdown["transport"] == pytest.approx(0.4 - 0.1)
    assert breakdown["servant"] == pytest.approx(0.6 - 0.05)
    assert sum(breakdown.values()) == pytest.approx(1.0, abs=1e-12)


def test_marshal_share_clamped_to_observed_self_time():
    spans = [
        _span("call:add", "1", None, 0.0, 1.0),
        # tag larger than the span's 0.1s of self time: clamp, don't leak
        _span("serve:add", "2", "1", 0.45, 0.55,
              attrs={"reply_marshal_work": 5.0}),
    ]
    breakdown = cp.analyze(spans).breakdown()
    assert breakdown["marshal"] == pytest.approx(0.1)
    assert sum(breakdown.values()) == pytest.approx(1.0, abs=1e-12)


# -- input validation ------------------------------------------------------------


def test_empty_trace_refused():
    with pytest.raises(cp.CriticalPathError):
        cp.analyze([])


def test_mixed_traces_refused():
    a = _span("call:add", "1", None, 0.0, 1.0)
    b = _span("call:add", "2", None, 0.0, 1.0, trace_id="t2")
    with pytest.raises(cp.CriticalPathError, match="different traces"):
        cp.analyze([a, b])


def test_root_selection_by_name():
    spans = _nested_trace()
    path = cp.analyze(spans, root="call:load")
    assert path.root.name == "call:load"
    assert path.total == pytest.approx(6.0)
    with pytest.raises(cp.CriticalPathError, match="no span named"):
        cp.analyze(spans, root="ft:nope")


def test_evicted_ring_refused():
    sim = Simulator(seed=1)
    tracer = Tracer(sim, capacity=2)
    with tracer.span("ft:recover"):
        with tracer.span("call:load"):
            with tracer.span("serve:load"):
                pass
    assert tracer.dropped == 1
    with pytest.raises(cp.EvictedSpansError, match="evicted"):
        cp.from_tracer(tracer)
    with pytest.raises(cp.EvictedSpansError):
        cp.recovery_path(tracer)
    with pytest.raises(cp.EvictedSpansError):
        cp.request_path(tracer, operation="load")


def test_from_tracer_reads_the_log_at_most_twice(monkeypatch):
    """Finding the last trace that holds a ``root`` span is one pass over
    the log, not one per trace: 2 000 one-span traces, two of them
    rooted at ``ft:recover``."""
    sim = Simulator(seed=1)
    tracer = Tracer(sim)
    for index in range(2_000):
        sim.now = float(index)
        span = tracer.start_span(
            "ft:recover" if index in (5, 1_998) else "call:load", parent=None
        )
        sim.now += 0.5
        span.finish()
    passes = []
    read = SpanLog.__iter__

    def counted(log):
        passes.append(log)
        return read(log)

    monkeypatch.setattr(SpanLog, "__iter__", counted)
    path = cp.from_tracer(tracer, root="ft:recover")
    assert (path.root.name, path.root.start) == ("ft:recover", 1_998.0)
    assert len(passes) <= 2
    passes.clear()
    path = cp.from_tracer(tracer)
    assert (path.root.name, path.root.start) == ("call:load", 1_999.0)
    assert len(passes) <= 2
    passes.clear()
    with pytest.raises(cp.CriticalPathError, match="no trace contains"):
        cp.from_tracer(tracer, root="ft:nope")
    assert len(passes) == 1


def test_format_renders_timeline_and_breakdown():
    text = cp.analyze(_nested_trace()).format()
    assert "critical path of ft:recover" in text
    assert "checkpoint_store" in text
    assert "@ws01" in text
    assert "total" in text


# -- the golden tie-in -----------------------------------------------------------


def _recovery_runtime():
    from repro.bench.ftbench import recovery_cell

    # calls is shrunk for speed: the recovery episode's duration does not
    # depend on the stream length, only on the crash/recover machinery.
    runtime, _, final = recovery_cell(
        failures=1, calls=12, call_work=0.05, seed=17
    )
    assert final == 12.0  # state survived the crash
    return runtime


def test_recovery_breakdown_sums_to_pinned_golden():
    runtime = _recovery_runtime()
    path = cp.recovery_path(runtime.obs.tracer)
    assert path.root.name == "ft:recover"
    assert path.total == pytest.approx(RECOVERY_GOLDEN, abs=1e-12)
    breakdown = path.breakdown()
    assert sum(breakdown.values()) == pytest.approx(path.total, abs=1e-9)
    # the coordinator measured the same episode
    assert runtime.coordinator(0).recovery_time_total == pytest.approx(
        path.total, abs=1e-12
    )
    # a real recovery touches the checkpoint store and the wire
    assert breakdown["checkpoint_store"] > 0
    assert breakdown["transport"] > 0
