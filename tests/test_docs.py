"""Gate values the docs quote stay true.

A ``MAX_*`` gate constant lives in the test module that enforces it
(``MAX_DIRECTIVES`` in ``tests/analysis/test_live_tree.py``, ...).  The
docs quote some of them with their value; when a gate tightens, the
quote must follow.  Every quote of the form ``MAX_X`` followed by ``=``,
``(`` or ``≤`` and a number is checked against the module-level literal,
read with :mod:`ast` so no test module is imported.

A call or event budget lives in its test function as ``assert ... <= N``.
A doc quotes one as the backticked test name (``test_x`` or
``path::test_x``) followed, within the sentence and before another
backticked test name, by ``≤ N``; the quoted N must be that literal.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS = (
    "docs/ARCHITECTURE.md",
    "README.md",
    "DESIGN.md",
    "benchmarks/README.md",
    ".claude/skills/verify/SKILL.md",
)
#: ``MAX_X` = 29``, ``MAX_X = 29`` (inside one code span), ``MAX_X` (200``
#: and ``MAX_X` ≤ 29`` all quote the value 29 / 200.
QUOTE = re.compile(r"\b(MAX_[A-Z0-9_]+)`?\s*(?:=|\(|≤)\s*`?(\d+)")
#: a backticked test name, optionally with its module path
_TEST_NAME = r"`(?:([\w/.]+\.py)::)?(test_\w+)`"
#: ``test_x` gates ... (≤ 343``: the name, then at most 160 characters
#: with no blank line, no other backticked test name and no other ``≤``,
#: then the bound.
BUDGET_QUOTE = re.compile(
    _TEST_NAME + r"((?:(?!" + _TEST_NAME + r"|\n\s*\n)[^≤]){0,160}?)≤\s*(\d+(?:\.\d+)?)"
)


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


def budget_literals() -> dict[str, list[tuple[str, float]]]:
    """``{test function: [(test module, N), ...]}`` for every
    ``assert ... <= N`` with a number literal N in a ``test_*`` function
    under ``tests/``."""
    literals: dict[str, list[tuple[str, float]]] = {}
    for path in sorted((REPO_ROOT / "tests").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        if "<=" not in text:
            continue
        module = path.relative_to(REPO_ROOT).as_posix()
        for node in ast.walk(ast.parse(text)):
            if not (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("test_")
            ):
                continue
            for statement in ast.walk(node):
                if (
                    isinstance(statement, ast.Assert)
                    and isinstance(statement.test, ast.Compare)
                    and [type(op) for op in statement.test.ops] == [ast.LtE]
                    and isinstance(statement.test.comparators[0], ast.Constant)
                    and type(statement.test.comparators[0].value) in (int, float)
                ):
                    literals.setdefault(node.name, []).append(
                        (module, statement.test.comparators[0].value)
                    )
    return literals


def budget_quotes(doc: str, text: str) -> list[tuple[str, int, str, str, float]]:
    """``(doc, line, module or "", test name, quoted N)`` for every budget
    quote in ``text``."""
    return [
        (
            doc,
            text.count("\n", 0, match.start()) + 1,
            match.group(1) or "",
            match.group(2),
            float(match.group(6)),
        )
        for match in BUDGET_QUOTE.finditer(text)
    ]


def stale_budget_quotes(texts: dict[str, str]) -> list[str]:
    """Each quote in ``texts`` (doc -> text) whose N is not the one
    ``assert ... <= N`` of its test function (in its module, when the
    quote names one)."""
    literals = budget_literals()
    wrong = []
    for doc, text in texts.items():
        for _, line, module, name, value in budget_quotes(doc, text):
            bounds = [
                bound
                for path, bound in literals.get(name, [])
                if not module or path == module
            ]
            if bounds != [value]:
                wrong.append(
                    f"{doc}:{line}: {name} quoted as ≤ {value:g}, "
                    + (
                        f"its test asserts <= {', '.join(f'{b:g}' for b in bounds)}"
                        if bounds
                        else "no test function asserts a literal bound"
                    )
                )
    return wrong


def doc_texts() -> dict[str, str]:
    return {doc: (REPO_ROOT / doc).read_text(encoding="utf-8") for doc in DOCS}


def test_quoted_budgets_match_their_test_functions():
    texts = doc_texts()
    assert stale_budget_quotes(texts) == []
    quoted = {
        name
        for doc, text in texts.items()
        for _, _, _, name, _ in budget_quotes(doc, text)
    }
    assert quoted >= {
        "test_null_call_budget",
        "test_null_call_events",
        "test_placement_call_budget",
    }


def test_a_planted_stale_budget_is_caught():
    architecture = doc_texts()["docs/ARCHITECTURE.md"]
    match = next(
        match
        for match in BUDGET_QUOTE.finditer(architecture)
        if match.group(2) == "test_null_call_events"
    )
    stale = (
        architecture[: match.start(6)]
        + f"{float(match.group(6)) + 1:g}"
        + architecture[match.end(6) :]
    )
    wrong = stale_budget_quotes({"docs/ARCHITECTURE.md": stale})
    assert len(wrong) == 1 and "test_null_call_events" in wrong[0]
