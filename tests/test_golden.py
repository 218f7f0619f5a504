"""Seeded traces, explored state graphs and front-end output stay byte-identical
to the goldens.

The goldens under `tests/golden/` were written by `tests/golden/regen.py`;
see its docstring for what each file pins and how to regenerate them after
an intended change of engine behaviour.
"""

import pathlib
import sys

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden"
sys.path.insert(0, str(GOLDEN))

import regen  # noqa: E402

COMMITTED = sorted(
    str(p.relative_to(GOLDEN)) for p in GOLDEN.rglob("*")
    if p.is_file() and p.suffix in (".out", ".jsonl", ".dot", ".json")
)


@pytest.fixture(scope="module")
def computed():
    return regen.golden_files()


def test_every_golden_is_computed(computed):
    assert sorted(computed) == COMMITTED


@pytest.mark.parametrize("rel", COMMITTED)
def test_golden_is_byte_identical(computed, rel):
    expected = (GOLDEN / rel).read_text(encoding="utf-8")
    assert computed[rel] == expected, f"{rel} differs from the committed golden"
