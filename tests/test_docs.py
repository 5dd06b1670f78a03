"""Gate values the docs quote stay true.

A ``MAX_*`` gate constant lives in the test module that enforces it
(``MAX_DIRECTIVES`` in ``tests/analysis/test_live_tree.py``, ...).  The
docs quote some of them with their value; when a gate tightens, the
quote must follow.  Every quote of the form ``MAX_X`` followed by ``=``,
``(`` or ``≤`` and a number is checked against the module-level literal,
read with :mod:`ast` so no test module is imported.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS = ("docs/ARCHITECTURE.md", "README.md", "DESIGN.md")
#: ``MAX_X` = 29``, ``MAX_X = 29`` (inside one code span), ``MAX_X` (200``
#: and ``MAX_X` ≤ 29`` all quote the value 29 / 200.
QUOTE = re.compile(r"\b(MAX_[A-Z0-9_]+)`?\s*(?:=|\(|≤)\s*`?(\d+)")


def gate_constants() -> dict[str, tuple[int, str]]:
    """``{name: (value, test module)}`` of every module-level ``MAX_*``
    integer literal under ``tests/``."""
    constants: dict[str, tuple[int, str]] = {}
    for path in sorted((REPO_ROOT / "tests").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        if "MAX_" not in text:
            continue
        for node in ast.parse(text).body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id.startswith("MAX_")
                and isinstance(node.value, ast.Constant)
                and type(node.value.value) is int
            ):
                module = path.relative_to(REPO_ROOT).as_posix()
                constants[node.targets[0].id] = (node.value.value, module)
    return constants


def quoted_gates() -> list[tuple[str, int, str, int]]:
    """``(doc, line, name, quoted value)`` for every quote in the docs."""
    quotes = []
    for doc in DOCS:
        text = (REPO_ROOT / doc).read_text(encoding="utf-8")
        for number, line in enumerate(text.splitlines(), start=1):
            for match in QUOTE.finditer(line):
                quotes.append((doc, number, match.group(1), int(match.group(2))))
    return quotes


def test_quoted_gate_values_match_their_test_modules():
    constants = gate_constants()
    quotes = quoted_gates()
    wrong = [
        f"{doc}:{line}: {name} quoted as {value}, "
        + (
            f"{constants[name][1]} has {constants[name][0]}"
            if name in constants
            else "no test module defines it"
        )
        for doc, line, name, value in quotes
        if constants.get(name, (None,))[0] != value
    ]
    assert wrong == []
    assert {name for _, _, name, _ in quotes} >= {
        "MAX_DIRECTIVES",
        "MAX_UNREACHED_ALLOWED",
    }
