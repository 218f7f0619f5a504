"""Multiset algebra and value domain."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kdb.values import (
    Multiset,
    ValueTuple,
    VInt,
    VLoc,
    VSet,
    VStr,
    sorted_rows,
)


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

    @given(small_multisets, small_multisets)
    def test_union_commutes(self, a, b):
        assert a.union(b) == b.union(a)


class TestValues:
    def test_vset_rejects_mixed_kinds(self):
        with pytest.raises(ValueError):
            VSet(Multiset([VInt(1), VStr("x")]))

    def test_vset_rejects_nested_sets(self):
        with pytest.raises(ValueError):
            VSet(Multiset([VSet(Multiset([VInt(1)]))]))

    def test_vset_kind(self):
        assert VSet(Multiset([VStr("a")])).kind() == "String"
        assert VSet(Multiset([VLoc("l1"), VLoc("l2")])).kind() == "Loc"
        assert VSet(Multiset()).kind() is None

    def test_row_needs_a_component(self):
        with pytest.raises(ValueError):
            ValueTuple(())

    def test_sorted_rows_repeats_by_multiplicity(self):
        r1 = ValueTuple((VInt(1),))
        r2 = ValueTuple((VInt(2),))
        rows = Multiset({r2: 1, r1: 2})
        assert sorted_rows(rows) == [r1, r1, r2]
