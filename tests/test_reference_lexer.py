"""The tokenizer matches its reference, and runs in linear time.

``tests/reference_lexer.py`` holds the tokenizer the library once used.
The library version must produce the same ``(kind, value, line)``
stream, or fail with the same ``HmdesSyntaxError`` message and line, on
random text drawn from the characters where the token language has
edges, and on every description the front end tokenizes in practice.
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HmdesSyntaxError
from repro.hmdes.lexer import tokenize
from repro.hmdes.preprocess import preprocess
from repro.machines import get_machine
from repro.machines.registry import EXTRA_MACHINE_NAMES, MACHINE_NAMES
from repro.machines.synth import family_names, machine_name
from tests import reference_lexer as reference

#: ASCII identifier characters, a Latin letter that ``str.isalpha``
#: accepts but ``[A-Za-z_]`` does not, an Arabic-Indic digit that
#: ``\d`` accepts, a superscript two that ``str.isdigit`` accepts but
#: ``\d`` does not, every punctuator's characters, stray characters,
#: and ``\s`` characters that are not ``\n`` (including a no-break
#: space).
_ALPHABET = (
    "abzAZ_09"
    "\u00e9\u0663\u00b2"
    "{}[];:,.->"
    "$@#/*"
    "\n\r\t\v\f \u00a0"
)


def _outcome(lex, text):
    try:
        return [(token.kind, token.value, token.line) for token in lex(text)]
    except HmdesSyntaxError as exc:
        return ("error", str(exc), exc.line)


@given(st.text(alphabet=_ALPHABET, max_size=60))
@settings(max_examples=400, deadline=None)
def test_random_text_matches_reference(text):
    assert _outcome(tokenize, text) == _outcome(reference.tokenize, text)


@pytest.mark.parametrize(
    "text",
    ["", "\n", "-5", "->", "-", "...", "a-5", "x\u00e9", "\u00e9",
     "\u0663", "\u00b2", "7\u00b2", "a b", "a\r\nb", "a;\n\n  @"],
)
def test_edge_cases_match_reference(text):
    assert _outcome(tokenize, text) == _outcome(reference.tokenize, text)


_DESCRIPTIONS = (
    *MACHINE_NAMES,
    *EXTRA_MACHINE_NAMES,
    *(machine_name(family, seed, index)
      for family in family_names()
      for seed, index in ((1, 0), (7, 3), (2, 11))),
)


@pytest.mark.parametrize("name", _DESCRIPTIONS)
def test_descriptions_match_reference(name):
    text = preprocess(get_machine(name).hmdes_source)
    assert _outcome(tokenize, text) == _outcome(reference.tokenize, text)


@pytest.mark.parametrize(
    "text",
    ["mdes M;" + " " * 200_000, "mdes" + " " * 200_000 + "M;"],
    ids=["trailing", "between"],
)
def test_long_whitespace_runs_lex_in_linear_time(text):
    start = time.perf_counter()
    tokens = tokenize(text)
    assert time.perf_counter() - start < 1.0
    assert [token.value for token in tokens] == ["mdes", "M", ";", ""]
