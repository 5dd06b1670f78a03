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

A name the docs point at must exist: every backticked fully-qualified
``repro.…`` name (``module.symbol``, ``module:qualname``, with or without
``()``) is imported and looked up, and every backticked repository path
under ``src/``, ``tests/``, ``benchmarks/`` or ``examples/`` must exist,
down to the ``:line`` or the ``::test_x`` it names.

A command the docs tell the reader to run must exist: every
``python -m repro <command>`` (or ``python -m repro {a,b}``) in those docs
and in ``docs/TUTORIAL.md`` names a subcommand of
:func:`repro.__main__.build_parser`.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import re
from pathlib import Path

from repro.__main__ import build_parser

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


def doc_texts(docs: tuple[str, ...] = DOCS) -> dict[str, str]:
    return {doc: (REPO_ROOT / doc).read_text(encoding="utf-8") for doc in docs}


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


#: ``repro.orb.cdr.encode_any``, ``repro.core.report:runtime_report`` or
#: ``repro.obs`` (a module), optionally called: the whole code span is the name.
DOTTED_NAME = re.compile(r"`(repro(?:\.\w+)*)(?::([\w.]+))?(?:\(\))?`")
#: ``src/repro/orb/cdr.py``, ``tests/x.py::test_y``, ``src/repro/orb/core.py:42``
#: or a directory; a glob (``bench_*.py``) is not a path and is skipped.
REPO_PATH = re.compile(
    r"`((?:src|tests|benchmarks|examples)/[\w/.-]*)(?:::([\w:]+)|:(\d+))?`"
)


def _resolves(module_path: str, attributes: list[str]) -> bool:
    parts = module_path.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[split:] + attributes:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def _path_resolves(path: str, names: str | None, line: str | None) -> bool:
    target = REPO_ROOT / path
    if not target.exists():
        return False
    if line is not None:
        return target.is_file() and int(line) <= len(
            target.read_text(encoding="utf-8").splitlines()
        )
    if names is not None:
        source = target.read_text(encoding="utf-8")
        return all(
            re.search(rf"^\s*(?:def|class) {re.escape(name)}\b", source, re.M)
            for name in names.split("::")
        )
    return True


def dangling_references(texts: dict[str, str]) -> list[str]:
    """``doc:line: reference`` for each backticked name or path in
    ``texts`` (doc -> text) that does not resolve in this tree."""
    wrong = []
    for doc, text in texts.items():
        for match in DOTTED_NAME.finditer(text):
            qualname = match.group(2)
            if not _resolves(match.group(1), qualname.split(".") if qualname else []):
                line = text.count("\n", 0, match.start()) + 1
                wrong.append(f"{doc}:{line}: {match.group(0)}")
        for match in REPO_PATH.finditer(text):
            if not _path_resolves(*match.groups()):
                line = text.count("\n", 0, match.start()) + 1
                wrong.append(f"{doc}:{line}: {match.group(0)}")
    return wrong


def test_backticked_names_and_paths_resolve():
    texts = doc_texts()
    assert dangling_references(texts) == []
    checked = sum(
        len(pattern.findall(text))
        for text in texts.values()
        for pattern in (DOTTED_NAME, REPO_PATH)
    )
    assert checked >= 150


def test_a_planted_dangling_name_is_caught():
    architecture = doc_texts()["docs/ARCHITECTURE.md"]
    planted = (
        architecture
        + "\nThe remote face is `repro.winner.service.SystemManagerServant`"
        " (`src/repro/winner/service.py`), called as"
        " `repro.orb.dii:Request.invoke()`; see `src/repro/orb/dii.py:100000`"
        " and `tests/orb/test_dii.py::test_send_oneway_does_not_wait`.\n"
    )
    before = set(dangling_references({"docs/ARCHITECTURE.md": architecture}))
    wrong = dangling_references({"docs/ARCHITECTURE.md": planted})
    assert [entry.split(": ", 1)[1] for entry in wrong if entry not in before] == [
        "`repro.winner.service.SystemManagerServant`",
        "`repro.orb.dii:Request.invoke()`",
        "`src/repro/winner/service.py`",
        "`src/repro/orb/dii.py:100000`",
        "`tests/orb/test_dii.py::test_send_oneway_does_not_wait`",
    ]


#: the docs a command is checked in: the ones above and the tutorial.
COMMAND_DOCS = DOCS + ("docs/TUTORIAL.md",)
#: ``python -m repro fig3`` or ``python -m repro {demo,fig3}``; ``repro.obs``
#: and the other packages with their own ``__main__`` do not match.
REPRO_COMMAND = re.compile(r"python3?\s+-m\s+repro\s+(\{[\w,-]+\}|[a-z][\w-]*)")


def cli_commands() -> set[str]:
    parser = build_parser()
    return {
        command
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
        for command in action.choices
    }


def quoted_commands(texts: dict[str, str]) -> list[tuple[str, int, str]]:
    """``(doc, line, command)`` for each ``python -m repro <command>`` in
    ``texts`` (doc -> text)."""
    return [
        (doc, text.count("\n", 0, match.start()) + 1, command)
        for doc, text in texts.items()
        for match in REPRO_COMMAND.finditer(text)
        for command in match.group(1).strip("{}").split(",")
    ]


def stale_commands(texts: dict[str, str]) -> list[str]:
    """``doc:line: command`` for each quoted command the parser does not offer."""
    commands = cli_commands()
    return [
        f"{doc}:{line}: {command}"
        for doc, line, command in quoted_commands(texts)
        if command not in commands
    ]


def test_quoted_commands_exist():
    texts = doc_texts(COMMAND_DOCS)
    assert stale_commands(texts) == []
    quoted = {command for _, _, command in quoted_commands(texts)}
    assert {"fig3", "table1", "demo"} <= quoted


def test_a_planted_stale_command_is_caught():
    readme = doc_texts()["README.md"]
    planted = readme + "\n    python -m repro recovery\n    python -m repro {demo,wan}\n"
    before = set(stale_commands({"README.md": readme}))
    wrong = stale_commands({"README.md": planted})
    assert [entry.split(": ", 1)[1] for entry in wrong if entry not in before] == [
        "recovery",
        "wan",
    ]
