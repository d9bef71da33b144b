"""Reference form of the HMDES tokenizer.

This is the tokenizer ``repro.hmdes.lexer`` once used verbatim: one
``re.match`` per token, whitespace matched as a token of its own, the
kind looked up in a dict, and every token a frozen dataclass.  The
library version lexes one ``re.findall`` pass per line into
``__slots__`` tokens; ``tests/test_reference_lexer.py`` requires the
same ``(kind, value, line)`` streams, or the same ``HmdesSyntaxError``,
on random text and on every description the front end sees.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.errors import HmdesSyntaxError
from repro.hmdes.lexer import EOF, IDENT, INT, PUNCT

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<int>-?\d+)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<punct>\.\.|->|\{|\}|\[|\]|;|:|,)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    """One lexical token with its source line (1-based)."""

    kind: str
    value: str
    line: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, line {self.line})"


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``; raises :class:`HmdesSyntaxError` on bad input."""
    tokens: List[Token] = []
    line = 1
    position = 0
    length = len(source)
    while position < length:
        match = _TOKEN_RE.match(source, position)
        if match is None:
            raise HmdesSyntaxError(
                f"unexpected character {source[position]!r}", line
            )
        position = match.end()
        if match.lastgroup == "ws":
            line += match.group(0).count("\n")
            continue
        kind = {"int": INT, "ident": IDENT, "punct": PUNCT}[match.lastgroup]
        tokens.append(Token(kind, match.group(0), line))
    tokens.append(Token(EOF, "", line))
    return tokens
