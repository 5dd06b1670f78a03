"""Typestate lifecycle: begin calls must reach their resolving sinks."""

from __future__ import annotations

from repro.analysis import analyze_source

from tests.analysis.conftest import line_of, load_fixture


def _lif_codes(text):
    return {
        (f.code, f.line)
        for f in analyze_source(text).findings
        if f.code.startswith("LIF")
    }


def test_unrecorded_breaker_probe_is_lif001():
    text = load_fixture("lif_violations.py")
    assert ("LIF001", line_of(text, "MARK:LIF001")) in _lif_codes(text)


def test_recorded_probe_is_clean():
    text = load_fixture("lif_violations.py")
    ok_line = line_of(text, "MARK:ok-allow")
    assert not [
        (code, line) for code, line in _lif_codes(text) if line == ok_line
    ]


def test_undrainable_pipeline_is_lif002():
    text = load_fixture("lif_violations.py")
    assert ("LIF002", line_of(text, "MARK:LIF002")) in _lif_codes(text)


def test_exercised_drain_is_clean():
    text = load_fixture("lif_violations.py")
    ok_line = line_of(text, "MARK:ok-pipeline")
    assert not [
        (code, line) for code, line in _lif_codes(text) if line == ok_line
    ]


def test_drain_through_an_owner_attribute_is_clean():
    """The shipper is held in an attribute by the designs that use it; a
    ``<...shipper>.drain()`` call is what exercises its exit path."""
    text = load_fixture("lif_violations.py")
    ok_line = line_of(text, "MARK:ok-held-pipeline")
    assert not [
        (code, line) for code, line in _lif_codes(text) if line == ok_line
    ]


def test_unresolved_cache_begin_is_lif003():
    text = load_fixture("lif_violations.py")
    assert ("LIF003", line_of(text, "MARK:LIF003")) in _lif_codes(text)


def test_committed_begin_is_clean():
    text = load_fixture("lif_violations.py")
    ok_line = line_of(text, "MARK:ok-begin")
    assert not [
        (code, line) for code, line in _lif_codes(text) if line == ok_line
    ]


def test_unrelated_begin_is_not_claimed():
    """``begin()`` on a receiver with no cache/connection marker belongs to
    some other protocol — confident-only matching must skip it."""
    text = (
        "class Renderer:\n"
        "    def __init__(self, canvas):\n"
        "        self._canvas = canvas\n"
        "\n"
        "    def draw(self):\n"
        "        self._canvas.begin()\n"
    )
    assert not _lif_codes(text)


def test_protocol_facade_is_exempt():
    """A class that defines the sinks IS the protocol object — forwarding
    ``allow`` through it is not a leaked probe."""
    text = (
        "class BreakerFacade:\n"
        "    def __init__(self, breaker):\n"
        "        self._breaker = breaker\n"
        "\n"
        "    def allow(self):\n"
        "        return self._breaker.allow()\n"
        "\n"
        "    def record_success(self):\n"
        "        self._breaker.record_success()\n"
        "\n"
        "    def record_failure(self):\n"
        "        self._breaker.record_failure()\n"
    )
    assert not _lif_codes(text)
