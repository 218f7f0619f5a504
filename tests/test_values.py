"""Multiset algebra and value domain."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kdb.values import (
    Multiset,
    ValueTuple,
    VLoc,
    VSet,
    VTid,
    row_sort_key,
    sorted_rows,
)
from kdb import syntax as s
from kdb.syntax import render_row


def ms(d):
    return Multiset(d)


class TestMultisetBasics:
    def test_union_adds_multiplicities(self):
        assert ms({"a": 2}).union(ms({"a": 1, "b": 1})) == ms({"a": 3, "b": 1})

    def test_subtract_truncates_at_zero(self):
        assert ms({"a": 1}).subtract(ms({"a": 3})) == ms({})

    def test_len_counts_multiplicity(self):
        assert len(ms({"a": 2, "b": 1})) == 3

    def test_zero_counts_dropped(self):
        assert "a" not in ms({"a": 0})

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Multiset({"a": -1})

    def test_hash_consistent_with_eq(self):
        assert hash(ms({"a": 1, "b": 2})) == hash(ms({"b": 2, "a": 1}))


small_multisets = st.dictionaries(
    st.sampled_from("abcde"), st.integers(min_value=1, max_value=4), max_size=5
).map(Multiset)


class TestMultisetLaws:
    @given(small_multisets, small_multisets, st.sampled_from("abcde"))
    def test_union_pointwise(self, a, b, x):
        assert a.union(b).count(x) == a.count(x) + b.count(x)

    @given(small_multisets, small_multisets, st.sampled_from("abcde"))
    def test_subtract_pointwise(self, a, b, x):
        assert a.subtract(b).count(x) == max(a.count(x) - b.count(x), 0)
        # What is left keeps the minuend's order.
        assert list(a.subtract(b).support()) == [k for k in a.support() if a.count(k) > b.count(k)]

    @given(small_multisets, small_multisets)
    def test_union_commutes(self, a, b):
        assert a.union(b) == b.union(a)


counts = st.dictionaries(st.integers(0, 6), st.integers(1, 3), max_size=6)


def warm(m: Multiset, known: bool) -> Multiset:
    """m, with its hash and size computed first when `known`, so that the
    operations on it carry them instead of computing them afresh."""
    if known:
        hash(m), len(m)
    return m


def built_ways(target: dict, other: dict, known: bool) -> list:
    """Multisets equal to `target`, each built another way from `other`."""
    extra = {k: other[k] for k in other if k not in target}
    added = Multiset()
    for k, n in target.items():
        for _ in range(n):
            added = warm(added, known).add(k)
    half = dict(list(target.items())[::2])
    rest = {k: n for k, n in target.items() if k not in half}
    return [
        Multiset(target),
        Multiset([k for k, n in reversed(target.items()) for _ in range(n)]),
        Multiset.of_counts(dict(target)),
        added,
        warm(Multiset(half), known).union(Multiset(rest)),
        warm(Multiset({**target, **extra}), known).subtract(Multiset(extra)),
        warm(Multiset(other), known).changed(other, target),
        warm(Multiset(target), known).changed({**other, **target}, target),
    ]


class TestMultisetHash:
    @given(counts, counts, st.booleans())
    def test_equal_multisets_hash_and_count_alike(self, target, other, known):
        # The hash and size that an operation carries from its operands are
        # those that the result would compute afresh.
        reference = Multiset(target)
        for m in built_ways(target, other, known):
            assert m == reference
            assert (hash(m), len(m)) == (hash(reference), len(reference))
            assert hash(VSet(m)) == hash(VSet(Multiset(target)))
            table = s.TableComp(s.Interface("T", (s.INT,)), m)
            assert hash(table) == hash(s.TableComp(s.Interface("T", (s.INT,)), reference))


    def test_int_sets_that_sum_alike_hash_apart(self):
        # An int is its own hash: summed plain, the hashes of {1, 4} and
        # {2, 3} collide, and so do rows whose cells hold them.
        sets = [Multiset(c) for r in (1, 2, 3) for c in itertools.combinations(range(40), r)]
        assert len({hash(m) for m in sets}) > 0.99 * len(sets)


class TestValues:
    def test_vset_rejects_mixed_kinds(self):
        with pytest.raises(ValueError):
            VSet(Multiset([1, "x"]))

    def test_vset_rejects_nested_sets(self):
        with pytest.raises(ValueError):
            VSet(Multiset([VSet(Multiset([1]))]))

    def test_vset_kind(self):
        assert VSet(Multiset(["a"])).kind() == "String"
        assert VSet(Multiset([VLoc("l1"), VLoc("l2")])).kind() == "Loc"
        assert VSet(Multiset()).kind() is None

    def test_row_needs_a_component(self):
        with pytest.raises(ValueError):
            ValueTuple(())

    def test_row_is_its_tuple_of_cells(self):
        # A row hashes and compares as the tuple of its cells, in C: its
        # class defines neither, and the text it keeps changes nothing.
        assert "__hash__" not in vars(ValueTuple) and "__eq__" not in vars(ValueTuple)
        cells = (1, "a", VTid("a"), VSet(Multiset([0])))
        row = ValueTuple(cells)
        assert render_row(row) == '(1, "a", a, {0})'
        assert row == cells and hash(row) == hash(cells) and row == ValueTuple(cells)
        assert row[1] == "a" and len(row) == 4
        # An Id or a Loc never equals a String of the same text.
        kinds = {ValueTuple(("a",)), ValueTuple((VTid("a"),)), ValueTuple((VLoc("a"),))}
        assert len(kinds) == 3

    @given(st.lists(st.lists(st.one_of(
        st.integers(-3, 3), st.text("ab\u00e9\U0001f600", max_size=2),
        st.sampled_from([VTid("a"), VTid("b"), VLoc("a"), VLoc("b")]),
        st.lists(st.integers(0, 2), max_size=2).map(lambda xs: VSet(Multiset(xs)))),
        min_size=1, max_size=3), max_size=8))
    def test_sorted_rows_is_the_key_order(self, rows):
        # Rows that compare in C, rows that need the keys, and both mixed.
        rows = Multiset([ValueTuple(cells) for cells in rows])
        assert sorted_rows(rows) == sorted(rows, key=row_sort_key)

    def test_sorted_rows_repeats_by_multiplicity(self):
        r1 = ValueTuple((1,))
        r2 = ValueTuple((2,))
        rows = Multiset({r2: 1, r1: 2})
        assert sorted_rows(rows) == [r1, r1, r2]
