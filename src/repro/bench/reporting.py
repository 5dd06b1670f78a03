"""Plain-text tables and JSON artifacts for bench output."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str = "",
) -> str:
    """Render an aligned plain-text table (markdown-ish)."""
    rendered_rows = [[_cell(value) for value in row] for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for row in rendered_rows)) if rendered_rows else len(header)
        for i, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def write_json(path: str | Path, payload: Any) -> Path:
    """Write a machine-readable result artifact next to the bench."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, default=_jsonable) + "\n")
    return path


def _jsonable(value: Any) -> Any:
    if hasattr(value, "__dict__"):
        return value.__dict__
    if isinstance(value, tuple):
        return list(value)
    return str(value)

