r"""Tokenizer for preprocessed HMDES source.

The token language (``docs/hmdes_language.md``, "Tokens"): an integer
is ``-?\d+``, an identifier ``[A-Za-z_]\w*``, a punctuator one of
``..  ->  {  }  [  ]  ;  :  ,``, tried in that order; whitespace is
``\s``; a token's line is 1 plus the number of ``\n`` before it.
"""

from __future__ import annotations

import re
import string
from typing import List

from repro.errors import HmdesSyntaxError

#: Token kinds.
IDENT = "IDENT"
INT = "INT"
PUNCT = "PUNCT"
EOF = "EOF"

#: Integer, identifier, punctuator, or any other non-space character.
#: No alternative starts with whitespace, so ``findall`` steps over it
#: one position at a time: linear in the line, with no whitespace
#: tokens built.
_TOKEN_RE = re.compile(r"-?\d+|[A-Za-z_]\w*|\.\.|->|[{}\[\];:,]|\S")

_IDENT_START = frozenset(string.ascii_letters + "_")
_PUNCTUATORS = frozenset(("..", "->", "{", "}", "[", "]", ";", ":", ","))


class Token:
    """One lexical token with its source line (1-based)."""

    __slots__ = ("kind", "value", "line")

    def __init__(self, kind: str, value: str, line: int) -> None:
        self.kind = kind
        self.value = value
        self.line = line

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, line {self.line})"


def tokenize(source: str) -> List[Token]:
    r"""Tokenize ``source``; raises :class:`HmdesSyntaxError` on bad input.

    Each match is classified by the alternative that produced it: only
    an identifier starts with an ASCII letter or ``_``; only a
    punctuator is in the punctuator set; of the rest, only an integer
    ends in a decimal digit (``str.isdecimal`` is exactly ``\d``), and
    anything else is the catch-all single character.
    """
    tokens: List[Token] = []
    append = tokens.append
    findall = _TOKEN_RE.findall
    line = 1
    for line, text in enumerate(source.split("\n"), 1):
        for value in findall(text):
            if value[0] in _IDENT_START:
                append(Token(IDENT, value, line))
            elif value in _PUNCTUATORS:
                append(Token(PUNCT, value, line))
            elif value[-1].isdecimal():
                append(Token(INT, value, line))
            else:
                raise HmdesSyntaxError(
                    f"unexpected character {value!r}", line
                )
    append(Token(EOF, "", line))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual parser conveniences.

    The list ends in one ``EOF`` token, and the cursor never moves past
    it.  Each method indexes the list directly.
    """

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._index = 0

    @property
    def current(self) -> Token:
        """The token at the cursor."""
        return self._tokens[self._index]

    def advance(self) -> Token:
        """Return the current token and move past it."""
        token = self._tokens[self._index]
        if token.kind != EOF:
            self._index += 1
        return token

    def expect(self, kind: str, value: str = "") -> Token:
        """Consume a token of the given kind (and value, if non-empty)."""
        token = self._tokens[self._index]
        if token.kind != kind or (value and token.value != value):
            wanted = value or kind
            raise HmdesSyntaxError(
                f"expected {wanted!r}, found {token.value!r}", token.line
            )
        if kind != EOF:
            self._index += 1
        return token

    def accept(self, kind: str, value: str = "") -> bool:
        """Consume the token if it matches; return whether it did."""
        token = self._tokens[self._index]
        if token.kind == kind and (not value or token.value == value):
            if kind != EOF:
                self._index += 1
            return True
        return False

    def at(self, kind: str, value: str = "") -> bool:
        """True when the current token matches without consuming it."""
        token = self._tokens[self._index]
        return token.kind == kind and (not value or token.value == value)
