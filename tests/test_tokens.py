"""The token store against a reference lexer, and its memory per token.

`reference_tokenize` is the lexer as one regular-expression match per token,
kept here as an oracle that shares no lexing code with `kdb.parser`: it
returns a list of (kind, text, offset) tuples.  `kdb.parser.tokenize`
splits the source at its tokens a chunk of lines at a time and keeps the
same tokens as three parallel sequences; every test here reads both on one
text and compares them field by field.
"""

import re
import sys
import tracemalloc
from pathlib import Path

import pytest

from gen import random_system
from kdb import syntax as s
from kdb.parser import _CHUNK, KEYWORDS, OPERATORS, ParseError, tokenize

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "perfbench"))

from workloads import check_procs  # noqa: E402  (read-only: the benchmark's own generator)

# Layout, then one token: the name of the group that matched is its kind.
_TOKEN_RE = re.compile(
    r"""\s*(?://[^\n]*\s*)*
    (?:
        (?P<INT>\d+)
      | (?P<STRING>"(?:\\.|[^"\\\n])*")
      | (?P<TID>[A-Z][A-Za-z0-9_]*)
      | (?P<NAME>[a-z_][A-Za-z0-9_]*)
      | (?P<OP>""" + "|".join(map(re.escape, OPERATORS)) + r""")
      | (?P<EOF>\Z)
      | (?P<BAD>.)
    )""",
    re.VERBOSE,
)
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


def _error(message: str, source: str, offset: int) -> ParseError:
    line = source.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - (source.rfind("\n", 0, offset) + 1) + 1)


def _unescape(body: str, source: str, offset: int) -> str:
    def escape(m):
        if m[1] not in _ESCAPES:
            raise _error(f"unknown escape \\{m[1]}", source, offset)
        return _ESCAPES[m[1]]

    return re.sub(r"\\(.)", escape, body)


def reference_tokenize(source: str) -> list:
    """(kind, text, offset) per token, ending in EOF."""
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        text = m[kind]
        start = m.start(kind)
        if kind == "STRING":
            text = _unescape(text[1:-1], source, start)
        elif text in KEYWORDS or text in OPERATORS:
            kind = text
        elif kind == "BAD":
            raise _error(f"unexpected character {text!r}", source, start)
        tokens.append((kind, text, start))
        if kind == "EOF":
            return tokens


def assert_same_tokens(source: str) -> None:
    tokens = tokenize(source)
    reference = reference_tokenize(source)
    assert len(tokens) == len(reference)
    kinds, texts, offsets = zip(*reference)
    assert list(tokens.kinds) == list(kinds)
    assert list(tokens.texts) == list(texts)
    assert tokens.offsets.tolist() == list(offsets)
    # Equal texts are one object.
    assert len({id(t) for t in tokens.texts}) == len(set(tokens.texts))


def assert_same_error(source: str) -> ParseError:
    with pytest.raises(ParseError) as expected:
        reference_tokenize(source)
    with pytest.raises(ParseError) as got:
        tokenize(source)
    want, have = expected.value, got.value
    assert (have.line, have.col, have.message) == (want.line, want.col, want.message)
    return have


@pytest.mark.parametrize("path", sorted((ROOT / "corpus").glob("*.kdb")), ids=lambda p: p.name)
def test_corpus(path):
    assert_same_tokens(path.read_text())


def test_random_system_renders():
    for seed in range(200):
        assert_same_tokens(s.render(random_system(seed)))


@pytest.mark.parametrize("seed", [1, 2])
def test_check_procs_programs(seed):
    for text in check_procs(seed).files.values():
        assert_same_tokens(text)


def test_empty_and_layout_only_sources():
    for source in ("", "   \n", "// only a comment", "nil // trailing\n"):
        assert_same_tokens(source)


@pytest.mark.parametrize("source", [
    "nil || %",
    "$l :: insert(T@$l, (1)).\n  nil #",
    '$l :: insert(T@$l, ("a\\qb")). nil',
    '$l :: insert(T@$l, ("abc)). nil',
    '\n\n  "unterminated\n"',
])
def test_lexer_errors(source):
    assert_same_error(source)


# Two characters short of a chunk: `tokenize` cuts a source that starts
# with it just after the first newline that follows, and a cut after
# `_CHUNK` characters would split the token that follows.
_FILL = "a " * (_CHUNK // 2 - 1)

CHUNK_CUTS = {
    "token": _FILL + "Tok\r\nnext",
    "string": _FILL + '"a//b"\r\n"c"',
    "comment": _FILL + "// a comment\r\nx",
    "slashes-in-a-string-after-the-cut": _FILL + '\r\n"x//y" z',
    "three-chunks": (_FILL + 'T "s" // c\r\n"x//y" // d\n') * 3 + "end",
    "layout-only": " \r\n" * _CHUNK,
    "trailing-comment": _FILL + "\nnil // end",
    "short-trailing-comment": "nil // end",
    "string-and-name-of-one-text": 'in "in" abc "abc" Abc "Abc"',
}


@pytest.mark.parametrize("source", CHUNK_CUTS.values(), ids=CHUNK_CUTS)
def test_sources_cut_into_chunks(source):
    assert_same_tokens(source)


# The first bad token in the source is reported, whichever chunk holds it
# and whichever bad token a chunk meets first in its set of distinct texts.
FIRST_LEXER_ERRORS = {
    "lone-quote": ('nil "', "1:5", "unexpected character '\"'"),
    "non-ascii-letter": ("x é", "1:3", "unexpected character 'é'"),
    "two-bad-characters": ("é % é", "1:1", "unexpected character 'é'"),
    "two-bad-characters-swapped": ("% é %", "1:1", "unexpected character '%'"),
    "escape-before-bad": ('"a\\q" %', "1:1", "unknown escape \\q"),
    "escape-after-bad": ('% "a\\q"', "1:1", "unexpected character '%'"),
    "escape-before-bad-two-chunks": (_FILL + '"a\\q"\n%', f"1:{_CHUNK - 1}", "unknown escape \\q"),
    "escape-after-bad-two-chunks": (_FILL + '%\n"a\\q"', f"1:{_CHUNK - 1}",
                                    "unexpected character '%'"),
    "bad-in-the-second-chunk": (_FILL + '\n"a" %\n"a\\q"', "2:5", "unexpected character '%'"),
}


@pytest.mark.parametrize("source, where, message", FIRST_LEXER_ERRORS.values(),
                         ids=FIRST_LEXER_ERRORS)
def test_first_lexer_error_is_reported(source, where, message):
    error = assert_same_error(source)
    assert (f"{error.line}:{error.col}", error.message) == (where, message)


def test_check_procs_token_count_and_bytes_per_token():
    # Bytes, not time: what the store keeps per token does not depend on load.
    # A list of (kind, text, offset) tuples kept about 116 bytes per token on
    # this program.
    source = check_procs(1).files["procs.kdb"]
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tokens = tokenize(source)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert len(tokens) == 56_196
    assert kept / len(tokens) < 40, f"{kept / len(tokens):.1f} bytes per token"
