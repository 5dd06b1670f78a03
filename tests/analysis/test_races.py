"""Race inference: locksets, stale-read windows, release paths."""

from __future__ import annotations

from repro.analysis import analyze_source

from tests.analysis.conftest import line_of, load_fixture


def _race_codes(text):
    return {
        (f.code, f.line)
        for f in analyze_source(text).findings
        if f.code.startswith("RACE")
    }


def test_inconsistent_locksets_is_race001():
    text = load_fixture("race_violations.py")
    assert ("RACE001", line_of(text, "MARK:RACE001")) in _race_codes(text)


def test_race001_message_names_both_locksets():
    text = load_fixture("race_violations.py")
    race001 = [
        f for f in analyze_source(text).findings if f.code == "RACE001"
    ]
    assert race001
    assert "_lock" in race001[0].message
    assert "_alt_lock" in race001[0].message


def test_stale_read_window_is_race002():
    text = load_fixture("race_violations.py")
    assert ("RACE002", line_of(text, "MARK:RACE002")) in _race_codes(text)


def test_bare_acquire_on_yielding_path_is_race003():
    text = load_fixture("race_violations.py")
    assert ("RACE003", line_of(text, "MARK:RACE003")) in _race_codes(text)


def test_try_finally_release_is_not_race003():
    text = load_fixture("race_violations.py")
    ok_line = line_of(text, "MARK:ok-acquire")
    assert not [
        (code, line)
        for code, line in _race_codes(text)
        if line == ok_line
    ]


def test_unprotected_write_is_race004():
    text = load_fixture("race_violations.py")
    assert ("RACE004", line_of(text, "MARK:RACE004")) in _race_codes(text)


def test_a_call_spawned_under_a_lock_runs_without_it():
    """spawn(self._drain()) only hands the generator to the scheduler; it
    runs after the spawner's with-block released the lock, so its write
    is RACE004, not protected by the caller's lockset."""
    text = load_fixture("race_violations.py")
    spawned = line_of(text, "MARK:spawned-RACE004")
    assert ("RACE004", spawned) in _race_codes(text)


def test_caller_context_locks_protect_helpers():
    """A helper only ever called with the lock held inherits that lockset,
    so its writes are not RACE004."""
    text = (
        "class Lock:\n"
        "    def __enter__(self):\n"
        "        return self\n"
        "    def __exit__(self, *exc):\n"
        "        return False\n"
        "\n"
        "\n"
        "class Store:\n"
        "    def __init__(self):\n"
        "        self._lock = Lock()\n"
        "        self.total = 0\n"
        "\n"
        "    def add(self, amount):\n"
        "        with self._lock:\n"
        "            self._apply(amount)\n"
        "\n"
        "    def drain(self):\n"
        "        with self._lock:\n"
        "            self._apply(-self.total)\n"
        "\n"
        "    def _apply(self, amount):\n"
        "        self.total += amount\n"
    )
    assert not _race_codes(text)


def test_constructor_writes_are_exempt():
    """__init__ publishes before the object is shared — its unlocked
    writes must not count against fields locked elsewhere."""
    text = load_fixture("race_violations.py")
    init_region = [
        line
        for line in range(
            line_of(text, "def __init__"),
            line_of(text, "MARK:RACE001") - 2,
        )
    ]
    assert not [
        (code, line)
        for code, line in _race_codes(text)
        if line in init_region
    ]


def test_atomic_annotation_exempts_the_window():
    """A declared-atomic generator body is the ATM family's problem, not a
    RACE002 — the annotation asserts the scope is yield-free and ATM002
    will fire if it is not."""
    text = (
        "class Counter:\n"
        "    def __init__(self):\n"
        "        self.value = 0\n"
        "\n"
        "    # analysis: atomic\n"
        "    def step(self):\n"
        "        observed = self.value\n"
        "        yield None\n"
        "        self.value = observed + 1\n"
    )
    assert not [
        f for f in analyze_source(text).findings if f.code == "RACE002"
    ]
