"""Deliberate RACE violations.  Never imported — parsed by the tests.

One class, one lock pair, one violation per method; the ``MARK:`` comments
anchor the exact-line assertions in ``test_races.py``.
"""


class Lock:
    """Stand-in so the lock-name discovery sees ``*Lock(...)`` assignments."""

    def acquire(self):
        return self

    def release(self):
        return None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class Table:
    def __init__(self):
        self._lock = Lock()
        self._alt_lock = Lock()
        self.counter = 0
        self.epoch = 0
        self.pending = 0
        self.backlog = 0

    # RACE001: counter is guarded by _lock here...
    def bump(self):
        with self._lock:
            self.counter += 1  # MARK:RACE001

    # ...but by _alt_lock here, so neither excludes the other path.
    def bump_alt(self):
        with self._alt_lock:
            self.counter += 1

    # RACE002: read, unprotected yield, then write — a lost-update window.
    def refresh(self):
        snapshot = self.epoch
        yield None
        self.epoch = snapshot + 1  # MARK:RACE002

    # RACE003: bare acquire on a yielding path; an exception thrown into
    # the generator strands the lock.
    def risky(self):
        self._lock.acquire()  # MARK:RACE003
        yield None
        self._lock.release()

    # The classic sim-lock idiom: acquire immediately followed by a
    # try/finally release — structurally safe, must NOT be flagged.
    def careful(self):
        self._lock.acquire()  # MARK:ok-acquire
        try:
            yield None
        finally:
            self._lock.release()

    # pending is written under _lock here...
    def enqueue(self):
        with self._lock:
            self.pending += 1

    # RACE004: ...and without any lock here, bypassing the exclusion.
    def reset(self):
        self.pending = 0  # MARK:RACE004

    # backlog is written under _lock here, and the drain is handed to the
    # scheduler while the lock is held...
    def schedule_drain(self):
        with self._lock:
            self.backlog += 1
            self.sim.spawn(self._drain())

    # RACE004: ...but the scheduler runs _drain after the with-block has
    # released the lock, so the spawner's lockset does not protect it.
    def _drain(self):
        yield None
        self.backlog = 0  # MARK:spawned-RACE004
