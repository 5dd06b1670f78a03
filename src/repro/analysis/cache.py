"""Incremental analysis cache (``--cache <dir>``).

The strict CI gate re-runs the whole analysis on every push; almost
always on a tree where little changed.  This module makes the gate
incremental with two content-addressed tiers, coarsest first:

* **full-run** — one key over the sorted ``(relpath, sha256(text))`` set,
  the checker-code signature and the ``--select`` expression.  A hit skips parsing entirely: the stored findings (already
  classified against inline suppressions, which live in the hashed file
  contents) are replayed as they are;
* **per-file** — ``check_file`` output keyed by one file's content hash,
  per checker.  Survives edits to *other* files.

``check_project`` output is not cached: its only sound key is the whole
file set, which the full-run tier already covers.

Every key embeds :data:`CACHE_VERSION` and a signature hashed from the
source text of every loaded ``repro.analysis`` module, so editing any
checker invalidates everything it might have influenced — the cache can
go stale only if the analysis package mutates *at runtime*, which it
does not.  Entries are plain JSON, one file per key, safe to prune at
any time.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.findings import Finding, Severity

CACHE_VERSION = 1


def finding_from_dict(payload: dict) -> Finding:
    """Inverse of :meth:`Finding.to_dict` (fingerprint is recomputed)."""
    return Finding(
        code=str(payload["code"]),
        message=str(payload["message"]),
        path=str(payload["path"]),
        line=int(payload["line"]),
        column=int(payload.get("column", 0)),
        severity=(
            Severity.WARNING
            if payload.get("severity") == "warning"
            else Severity.ERROR
        ),
        checker=str(payload.get("checker", "")),
        context=str(payload.get("context", "")),
    )


def _text_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def analysis_code_signature() -> str:
    """Hash of the loaded ``repro.analysis`` source code itself.

    Part of every cache key: a cached result is only as good as the
    checker revision that produced it.
    """
    chunks: list[str] = []
    for name in sorted(sys.modules):
        if name != "repro.analysis" and not name.startswith("repro.analysis."):
            continue
        module = sys.modules[name]
        try:
            chunks.append(inspect.getsource(module))
        except (OSError, TypeError):  # namespace/builtin edge cases
            chunks.append(name)
    return _text_hash("\n".join(chunks))


@dataclass
class CacheStats:
    """Hit accounting, reported in the JSON output."""

    enabled: bool = False
    full_hit: bool = False
    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "enabled": self.enabled,
            "full_hit": self.full_hit,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class AnalysisCache:
    """Content-addressed store under one directory (see module docs)."""

    directory: Path
    stats: CacheStats = field(default_factory=CacheStats)
    _signature: str = ""
    #: ``{relpath: sha256}`` of the current run's file set, installed by
    #: :meth:`set_file_set` before any lookups.
    _file_hashes: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.stats.enabled = True
        self._signature = analysis_code_signature()

    # -- keys ---------------------------------------------------------------------

    def set_file_set(self, file_hashes: dict[str, str]) -> None:
        self._file_hashes = dict(file_hashes)

    def _file_set_digest(self) -> str:
        return _text_hash(
            "\n".join(
                f"{rel}\0{digest}"
                for rel, digest in sorted(self._file_hashes.items())
            )
        )

    def _key(self, *parts: str) -> str:
        raw = "|".join((f"v{CACHE_VERSION}", self._signature, *parts))
        return _text_hash(raw)

    def _entry_path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    # -- raw entry IO -------------------------------------------------------------

    def _load(self, key: str) -> Optional[dict]:
        path = self._entry_path(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def _store(self, key: str, payload: dict) -> None:
        tmp = self._entry_path(key).with_suffix(".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        tmp.replace(self._entry_path(key))

    # -- full-run tier ------------------------------------------------------------

    def _full_key(self, select: Optional[Sequence[str]]) -> str:
        select_part = ",".join(sorted(select)) if select else ""
        return self._key("full", self._file_set_digest(), select_part)

    def load_full(
        self, select: Optional[Sequence[str]]
    ) -> Optional[tuple[list[Finding], list[Finding]]]:
        """``(kept, inline_suppressed)`` for an identical previous run."""
        payload = self._load(self._full_key(select))
        if payload is None:
            return None
        self.stats.full_hit = True
        self.stats.hits += 1
        return (
            [finding_from_dict(f) for f in payload.get("findings", [])],
            [finding_from_dict(f) for f in payload.get("suppressed", [])],
        )

    def store_full(
        self,
        select: Optional[Sequence[str]],
        kept: Sequence[Finding],
        suppressed: Sequence[Finding],
    ) -> None:
        self._store(
            self._full_key(select),
            {
                "findings": [f.to_dict() for f in kept],
                "suppressed": [f.to_dict() for f in suppressed],
            },
        )

    # -- per-file tier (used by run_checkers) ------------------------------------

    def load_file_findings(
        self, checker_name: str, relpath: str
    ) -> Optional[list[Finding]]:
        digest = self._file_hashes.get(relpath)
        if digest is None:
            return None
        payload = self._load(self._key("file", checker_name, relpath, digest))
        if payload is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return [finding_from_dict(f) for f in payload.get("findings", [])]

    def store_file_findings(
        self, checker_name: str, relpath: str, findings: Sequence[Finding]
    ) -> None:
        digest = self._file_hashes.get(relpath)
        if digest is None:
            return
        self._store(
            self._key("file", checker_name, relpath, digest),
            {"findings": [f.to_dict() for f in findings]},
        )
