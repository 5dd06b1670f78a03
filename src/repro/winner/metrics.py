"""Load metrics and the location policy: samples, smoothing, one score,
one summary ranker.

The node manager measures what a 1990s Unix node manager measured from the
kernel: CPU utilization over the sampling window (from the CPU's busy-time
integral, the ``/proc/stat`` analogue) and the run-queue length (the load
average's instantaneous input).

At paper scale (10 hosts) each host gets its own :class:`Ewma` pair inside a
``HostRecord``; at harness scale (thousands of hosts per site) that per-host
object graph is replaced by :class:`VectorLoadBoard` — the same smoothing and
the same expected-rate score, but as O(hosts) float64 array math.

Every Winner manager decides placement with the two functions here:
:func:`expected_rate` scores a host, :func:`best_of` ranks the
:class:`SiteSummary` rollups of sites or subtrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, TypeVar

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class LoadSample:
    """One measurement of a host's load state."""

    host: str
    time: float
    #: fraction of total CPU capacity used over the sampling window, 0..1.
    cpu_utilization: float
    #: number of runnable tasks at sampling time.
    run_queue: int
    #: static relative speed rating (Winner's benchmark value).
    speed: float
    cores: int


def expected_rate(speed: float, cores: float, queue: float) -> float:
    """The score: the CPU rate a newly placed task would get on the host.

    With ``queue`` smoothed runnable tasks plus not yet visible placements
    on a ``speed × cores`` machine, one more task runs at
    ``speed * min(1, cores / max(1, queue + 1))`` under processor sharing —
    the quantity that determines the runtimes in Fig. 3.  The float operations
    and their order are part of every pinned placement;
    :meth:`VectorLoadBoard._rescore` is the same expression over arrays.
    """
    return speed * min(1.0, cores / max(1.0, queue + 1.0))


@dataclass
class SiteSummary:
    """Rollup of one site (or subtree) for the manager above it."""

    site: str
    alive_hosts: int
    best_host: Optional[str]
    best_score: float
    total_idle_capacity: float
    updated_at: float


K = TypeVar("K")


def best_of(
    scores: Mapping[K, Optional[float]],
    prefer: Optional[K] = None,
    penalty: float = 1.0,
) -> Optional[K]:
    """The key of the first maximum score; ``None`` marks a dead entry,
    which is never chosen (``None`` back when every entry is dead).

    ``prefer`` is kept while it is live and the maximum does not exceed its
    score times ``penalty`` — a remote site must beat the caller's by the
    WAN penalty factor to win.
    """
    best: Optional[K] = None
    best_score = float("-inf")
    for key, score in scores.items():
        if score is not None and score > best_score:
            best, best_score = key, score
    kept = None if prefer is None else scores.get(prefer)
    if kept is not None and not best_score > kept * penalty:
        return prefer
    return best


class Ewma:
    """Exponentially-weighted moving average, the classic load-average
    smoother.

    :param alpha: weight of the newest observation (0 < alpha <= 1).
    """

    def __init__(self, alpha: float = 0.5, initial: float | None = None) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"EWMA alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._value = initial

    @property
    def value(self) -> float:
        """Current estimate (0.0 before any update)."""
        return 0.0 if self._value is None else self._value

    @property
    def initialized(self) -> bool:
        return self._value is not None

    def update(self, observation: float) -> float:
        if self._value is None:
            self._value = float(observation)
        else:
            self._value += self.alpha * (float(observation) - self._value)
        return self._value

    def reset(self) -> None:
        self._value = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Ewma alpha={self.alpha} value={self.value:.4f}>"


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` itself, made read-only: the board replaces its arrays,
    it never writes into one it has handed out."""
    array.flags.writeable = False
    return array


class VectorLoadBoard:
    """Per-host load state for one site, held in numpy arrays.

    Hosts are fixed at construction and addressed by index; registration
    order is the deterministic tie-break order (register hosts sorted by
    name to reproduce the scalar managers' name tie-break).  The EWMA
    update is ``v += alpha * (x - v)`` elementwise in float64 — the exact
    IEEE operations :class:`Ewma` performs, so a board-driven manager and
    an :class:`Ewma`-driven one smooth identically — and the score is
    :func:`expected_rate` with ``queue = run_queue_ewma +
    pending_placements``.

    The board keeps its score vector: :meth:`observe` recomputes all of
    it, :meth:`note_placement` the one entry the placement changed (the
    same float operations in the same order, on that host alone), and
    :meth:`best_index` reads the maximum — so placing a request costs
    O(1) interpreted steps, not a re-rank of the site.  Nothing else may
    change what a score depends on: the arrays the board hands out are
    read-only, ``pending`` is a copy.
    """

    def __init__(
        self,
        names: Sequence[str],
        speeds: Sequence[float],
        cores: Sequence[int],
        alpha: float = 0.5,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"EWMA alpha must be in (0, 1], got {alpha}")
        if not (len(names) == len(speeds) == len(cores)):
            raise ConfigurationError(
                "VectorLoadBoard needs names/speeds/cores of equal length"
            )
        if not names:
            raise ConfigurationError("VectorLoadBoard needs at least one host")
        self.names: list[str] = list(names)
        self.index: dict[str, int] = {n: i for i, n in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ConfigurationError("duplicate host names on one board")
        self.alpha = alpha
        n = len(self.names)
        self.speed = _frozen(np.array(speeds, dtype=np.float64))
        self.cores = _frozen(np.array(cores, dtype=np.float64))
        self._util = _frozen(np.zeros(n, dtype=np.float64))
        self._rq = _frozen(np.zeros(n, dtype=np.float64))
        self._observed = False
        self._up = _frozen(np.ones(n, dtype=bool))
        self.updated_at = 0.0
        # What rescoring one host needs, as Python floats: indexing the
        # arrays would make a NumPy scalar per operand per request.
        self._speed_of: list[float] = self.speed.tolist()
        self._cores_of: list[float] = self.cores.tolist()
        self._rescore()

    def __len__(self) -> int:
        return len(self.names)

    @property
    def utilization(self) -> np.ndarray:
        return self._util

    @property
    def run_queue(self) -> np.ndarray:
        return self._rq

    @property
    def up(self) -> np.ndarray:
        return self._up

    @property
    def pending(self) -> np.ndarray:
        """Placements charged since the last observation (a copy);
        cleared by :meth:`observe` because a fresh run-queue sample
        already reflects the work those placements put on the host."""
        return np.array(self._pending_of, dtype=np.float64)

    def observe(
        self,
        utilization: np.ndarray,
        run_queue: np.ndarray,
        up: Optional[np.ndarray] = None,
        now: float = 0.0,
    ) -> None:
        """Fold one full sampling sweep into the smoothed state."""
        u = np.array(utilization, dtype=np.float64)
        q = np.array(run_queue, dtype=np.float64)
        alive = self._up if up is None else np.array(up, dtype=bool)
        if not u.shape == q.shape == alive.shape == self._util.shape:
            raise ConfigurationError(
                f"a sweep must cover all {len(self.names)} hosts of the board"
            )
        if self._observed:
            alpha = self.alpha
            u = self._util + alpha * (u - self._util)
            q = self._rq + alpha * (q - self._rq)
        # else the first sweep seeds the averages, as Ewma.update does
        self._observed = True
        self._util = _frozen(u)
        self._rq = _frozen(q)
        self._up = _frozen(alive)
        self.updated_at = now
        self._rescore()

    def _rescore(self) -> None:
        """Clear the pending placements and score every host afresh."""
        self._pending_of: list[float] = [0.0] * len(self.names)
        self._rq_of: list[float] = self._rq.tolist()
        self._up_of: list[bool] = self._up.tolist()
        # expected_rate over arrays.  queue + 1 with nothing pending:
        # (rq + 0.0) + 1.0 and rq + 1.0 are the same double for every rq, so
        # the zero is not added.
        denominator = np.maximum(1.0, self._rq + 1.0)
        scores = self.speed * np.minimum(1.0, self.cores / denominator)
        self._scores = np.where(self._up, scores, -np.inf)

    def note_placement(self, index: int, weight: float = 1.0) -> None:
        """Charge a just-made placement so burst decisions spread out."""
        pending = self._pending_of
        pending[index] += weight
        if self._up_of[index]:
            self._scores[index] = expected_rate(
                self._speed_of[index],
                self._cores_of[index],
                self._rq_of[index] + pending[index],
            )

    def scores(self) -> np.ndarray:
        """Expected service rate per host; down hosts score ``-inf``."""
        return self._scores.copy()

    def best_index(self) -> Optional[int]:
        """Index of the best live host, the lowest among equals — what
        ``top_hosts(1)`` ranks first — or ``None`` when all are down."""
        index = int(self._scores.argmax())
        return index if self._up_of[index] else None

    def top_hosts(self, k: int = 1) -> list[int]:
        """Indices of the best ``k`` live hosts, ties broken by index."""
        scores = self._scores
        order = np.lexsort((np.arange(len(scores)), -scores))
        out: list[int] = []
        for idx in order:
            if not self._up[idx]:
                break  # -inf rows sort last; everything after is down too
            out.append(int(idx))
            if len(out) >= k:
                break
        return out

    def best_host(self) -> Optional[str]:
        best = self.best_index()
        return self.names[best] if best is not None else None

    def summary(self, site: str) -> SiteSummary:
        """Site rollup for a parent aggregator (hierarchical Winner)."""
        alive = self._up
        best = self.best_index()
        if best is None:
            return SiteSummary(site, 0, None, 0.0, 0.0, self.updated_at)
        idle = self.speed * self.cores * np.maximum(0.0, 1.0 - self._util)
        return SiteSummary(
            site=site,
            alive_hosts=int(np.count_nonzero(alive)),
            best_host=self.names[best],
            best_score=float(self._scores[best]),
            total_idle_capacity=float(np.where(alive, idle, 0.0).sum()),
            updated_at=self.updated_at,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<VectorLoadBoard hosts={len(self.names)} "
            f"alive={int(np.count_nonzero(self._up))}>"
        )
