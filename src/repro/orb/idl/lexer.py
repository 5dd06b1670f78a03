"""IDL tokenizer.

Produces a flat token stream with source positions.  Handles ``//`` and
``/* */`` comments and skips preprocessor lines (``#include``, ``#pragma``)
the way a real IDL compiler's preprocessor stage would.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import IdlSyntaxError

KEYWORDS = frozenset(
    """
    module interface struct enum typedef exception oneway in out inout raises
    void boolean octet short long unsigned float double string sequence any
    Object
    """.split()
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<line_comment>//[^\n]*)
  | (?P<block_comment>/\*.*?\*/)
  | (?P<preproc>\#[^\n]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>::|[{}()<>,;:])
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident', 'keyword', 'punct', 'eof'
    value: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


def tokenize(source: str) -> list[Token]:
    """Tokenize IDL ``source``; raises :class:`IdlSyntaxError` on garbage."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            column = pos - line_start + 1
            raise IdlSyntaxError(
                f"unexpected character {source[pos]!r}", line, column
            )
        kind = match.lastgroup
        text = match.group()
        column = pos - line_start + 1
        if kind in ("ws", "line_comment", "block_comment", "preproc"):
            pass  # skipped; only track newlines below
        elif kind == "ident":
            token_kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(token_kind, text, line, column))
        else:
            tokens.append(Token(kind, text, line, column))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + text.rindex("\n") + 1
        pos = match.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens

