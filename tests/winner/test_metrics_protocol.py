"""Tests for load metrics, EWMA and the report protocol."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CdrError, ConfigurationError
from repro.winner import Ewma, LoadReport, LoadReportDelta, decode_report


# -- EWMA -----------------------------------------------------------------------


def test_ewma_first_update_sets_value():
    ewma = Ewma(alpha=0.5)
    assert not ewma.initialized
    assert ewma.value == 0.0
    ewma.update(10.0)
    assert ewma.value == 10.0


def test_ewma_converges_toward_constant_input():
    ewma = Ewma(alpha=0.5)
    for _ in range(20):
        ewma.update(4.0)
    assert ewma.value == pytest.approx(4.0)


def test_ewma_smooths_step_change():
    ewma = Ewma(alpha=0.5, initial=0.0)
    ewma.update(1.0)
    assert ewma.value == pytest.approx(0.5)
    ewma.update(1.0)
    assert ewma.value == pytest.approx(0.75)


def test_ewma_alpha_one_tracks_input_exactly():
    ewma = Ewma(alpha=1.0)
    ewma.update(3.0)
    ewma.update(7.0)
    assert ewma.value == 7.0


def test_ewma_invalid_alpha():
    with pytest.raises(ConfigurationError):
        Ewma(alpha=0.0)
    with pytest.raises(ConfigurationError):
        Ewma(alpha=1.5)


def test_ewma_reset():
    ewma = Ewma()
    ewma.update(5.0)
    ewma.reset()
    assert not ewma.initialized


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=1.0),
    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30),
)
def test_ewma_stays_within_observed_range(alpha, observations):
    ewma = Ewma(alpha=alpha)
    for obs in observations:
        ewma.update(obs)
    assert min(observations) - 1e-9 <= ewma.value <= max(observations) + 1e-9


# -- report protocol ----------------------------------------------------------------


def test_load_report_roundtrip():
    report = LoadReport(
        host="ws03",
        time=12.5,
        cpu_utilization=0.75,
        run_queue=3,
        speed=2.0,
        cores=2,
        seq=42,
    )
    assert LoadReport.decode(report.encode()) == report


def test_load_report_rejects_garbage():
    with pytest.raises(CdrError):
        LoadReport.decode(b"XXXXgarbage")


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=1000),
    st.floats(min_value=0.01, max_value=100.0),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=2**60),
)
def test_load_report_roundtrip_property(util, queue, speed, cores, seq):
    report = LoadReport("h", 1.0, util, queue, speed, cores, seq)
    assert LoadReport.decode(report.encode()) == report


#: one of each wire form, with doubles whose exponent sits next to all-ones
#: (1.0 = 0x3ff0..., 1.25 = 0x3ff4..., 1.5 = 0x3ff8...), so one flipped byte
#: can make an infinity or a NaN, and cores = 1, so one byte can make it 0.
WIRE_FORMS = [
    LoadReport("ws03", 1.25, 1.0, 3, 1.5, 1, 42),
    LoadReportDelta("ws03", 1.25, 42, cpu_utilization=1.0, run_queue=3),
]


def decodes_in_domain_or_raises_cdr_error(data: bytes) -> None:
    """What the collector may act on: a report no node manager could
    have sent must not decode."""
    try:
        report = decode_report(data)
    except CdrError:
        return
    assert math.isfinite(report.time)
    if isinstance(report, LoadReport):
        assert math.isfinite(report.cpu_utilization)
        assert math.isfinite(report.speed) and report.speed > 0
        assert report.cores >= 1
    elif report.cpu_utilization is not None:
        assert math.isfinite(report.cpu_utilization)


@pytest.mark.parametrize("report", WIRE_FORMS, ids=lambda r: type(r).__name__)
def test_every_single_byte_mutation_decodes_in_domain_or_raises(report):
    raw = report.encode()
    assert decode_report(raw) == report
    for at in range(len(raw)):
        for value in range(256):
            if value != raw[at]:
                decodes_in_domain_or_raises_cdr_error(
                    raw[:at] + bytes([value]) + raw[at + 1 :]
                )


@pytest.mark.parametrize("report", WIRE_FORMS, ids=lambda r: type(r).__name__)
def test_every_truncation_decodes_in_domain_or_raises(report):
    raw = report.encode()
    for length in range(len(raw)):
        decodes_in_domain_or_raises_cdr_error(raw[:length])


@pytest.mark.parametrize(
    "field, value",
    [
        ("time", math.nan),
        ("cpu_utilization", math.inf),
        ("speed", math.inf),
        ("speed", math.nan),
        ("speed", 0.0),
        ("speed", -1.0),
        ("cores", 0),
    ],
)
def test_out_of_domain_full_report_raises(field, value):
    fields = dict(
        host="ws00", time=1.0, cpu_utilization=0.5, run_queue=1,
        speed=1.0, cores=1, seq=1,
    )
    fields[field] = value
    with pytest.raises(CdrError):
        decode_report(LoadReport(**fields).encode())


@pytest.mark.parametrize("time, cpu", [(math.inf, 0.5), (1.0, math.nan)])
def test_non_finite_delta_raises(time, cpu):
    with pytest.raises(CdrError):
        decode_report(LoadReportDelta("ws00", time, 1, cpu_utilization=cpu).encode())
