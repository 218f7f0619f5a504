"""The token store against a reference lexer, and its memory per token.

`reference_tokenize` is the lexer as a list of (kind, text, offset) tuples.
`kdb.parser.tokenize` keeps the same tokens as three parallel sequences;
every test here reads both on one text and compares them field by field.
"""

import sys
import tracemalloc
from pathlib import Path

import pytest

from gen import random_system
from kdb import syntax as s
from kdb.parser import _OWN_KIND, _TOKEN_RE, ParseError, _lex_error, _unescape, tokenize

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "perfbench"))

from workloads import check_procs  # noqa: E402  (read-only: the benchmark's own generator)


def reference_tokenize(source: str) -> list:
    """(kind, text, offset) per token, ending in EOF."""
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        text = m[kind]
        start = m.start(kind)
        if kind == "STRING":
            text = _unescape(text[1:-1], source, start)
        else:
            kind = _OWN_KIND.get(text, kind)
            if kind == "BAD":
                raise _lex_error(f"unexpected character {text!r}", source, start)
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
    with pytest.raises(ParseError) as expected:
        reference_tokenize(source)
    with pytest.raises(ParseError) as got:
        tokenize(source)
    want, have = expected.value, got.value
    assert (have.line, have.col, have.message) == (want.line, want.col, want.message)


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
