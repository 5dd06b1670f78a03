"""Deletion detection: removing a protection construct must surface the
corresponding finding.

These are the acceptance tests for the analysis as a *regression* gate —
each starts from a clean snippet, deletes exactly the construct the
checker reasons about (a lock acquisition, a flag read), and asserts the
finding appears.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import analyze_source, run_checkers
from repro.analysis.checkers import ConfigFlagChecker
from repro.analysis.source import Project, SourceFile

RACE_CLEAN = (
    "class Lock:\n"
    "    def __enter__(self):\n"
    "        return self\n"
    "    def __exit__(self, *exc):\n"
    "        return False\n"
    "\n"
    "\n"
    "class Registry:\n"
    "    def __init__(self):\n"
    "        self._lock = Lock()\n"
    "        self.entries = 0\n"
    "\n"
    "    def add(self):\n"
    "        with self._lock:\n"
    "            self.entries += 1\n"
    "\n"
    "    def clear(self):\n"
    "        with self._lock:  # MARK:clear-guard\n"
    "            self.entries = 0\n"
)

CFG_CONFIG = (
    "class RuntimeConfig:\n"
    "    # fast path: delta shipping, off by default.\n"
    "    delta_shipping: bool = False\n"
)

CFG_CONSUMER = (
    "def ship(config, payload):\n"
    "    if config.delta_shipping:\n"
    "        return payload\n"
    "    return None\n"
)


def _codes(text):
    return {f.code for f in analyze_source(text).findings}


def test_deleting_a_lock_acquisition_surfaces_race004():
    assert not {c for c in _codes(RACE_CLEAN) if c.startswith("RACE")}
    broken = RACE_CLEAN.replace(
        "with self._lock:  # MARK:clear-guard",
        "if True:  # MARK:clear-guard",
    )
    assert broken != RACE_CLEAN
    assert "RACE004" in _codes(broken)


def test_deleting_the_flag_read_surfaces_cfg002():
    def cfg_codes(consumer_text):
        root = Path(".").resolve()
        sources = [
            SourceFile.from_text(text, root / name, root)
            for name, text in (
                ("config.py", CFG_CONFIG),
                ("shipping.py", consumer_text),
            )
        ]
        project = Project(root=root, files=sources)
        result = run_checkers(project, [ConfigFlagChecker(scope=())])
        return {f.code for f in result.findings}

    assert "CFG002" not in cfg_codes(CFG_CONSUMER)
    broken = CFG_CONSUMER.replace(
        "if config.delta_shipping:", "if payload is not None:"
    )
    assert broken != CFG_CONSUMER
    assert "CFG002" in cfg_codes(broken)
