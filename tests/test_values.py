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
    """The multiset of the counts in d, a map of positive counts."""
    return Multiset.of_counts(dict(d))


def unread(m: Multiset) -> bool:
    """Whether m's map is still the delta that `changed` made it from."""
    return m._map.__class__ is tuple


class TestMultisetBasics:
    def test_union_adds_multiplicities(self):
        # A union is a change that removes nothing.
        assert ms({"a": 2}).changed(added={"a": 1, "b": 1}) == ms({"a": 3, "b": 1})

    def test_len_counts_multiplicity(self):
        assert len(ms({"a": 2, "b": 1})) == 3

    def test_zero_counts_dropped(self):
        # An element removed in full is no longer held.
        rest = ms({"a": 2, "b": 1}).changed({"a": 2})
        assert "a" not in rest and list(rest.support()) == ["b"]

    def test_negative_count_rejected(self):
        # Removing more of an element than is held raises when the map is
        # first read, not when the change is made.
        over = ms({"a": 1}).changed({"a": 3})
        with pytest.raises(ValueError):
            over.count("a")

    def test_removing_an_element_not_held_raises(self):
        over = ms({"a": 1}).changed(added={"b": 1}).changed({"c": 1})
        with pytest.raises(KeyError):
            list(over)

    def test_hash_consistent_with_eq(self):
        assert hash(ms({"a": 1, "b": 2})) == hash(ms({"b": 2, "a": 1}))


small_counts = st.dictionaries(
    st.sampled_from("abcde"), st.integers(min_value=1, max_value=4), max_size=5)
small_multisets = small_counts.map(ms)


@st.composite
def exact_changes(draw):
    """A map of counts a, a removal r that a holds, and any addition d."""
    a = draw(small_counts)
    r = {k: draw(st.integers(1, n)) for k, n in a.items() if draw(st.booleans())}
    return a, r, draw(small_counts)


class TestMultisetLaws:
    @given(exact_changes(), st.sampled_from("abcde"))
    def test_changed_pointwise(self, change, x):
        a, r, d = change
        out = ms(a).changed(r, d)
        assert out.count(x) == a.get(x, 0) - r.get(x, 0) + d.get(x, 0)
        # Kept elements keep their place; new ones, and those removed in
        # full and then added again, come last, in the addition's order.
        kept = [k for k in a if a[k] > r.get(k, 0)]
        assert list(out.support()) == kept + [k for k in d if k not in kept]

    @given(small_multisets, small_multisets)
    def test_union_commutes(self, a, b):
        assert a.changed(added=b.copy_counts()) == b.changed(added=a.copy_counts())


counts = st.dictionaries(st.integers(0, 6), st.integers(1, 3), max_size=6)


def warm(m: Multiset, known: bool) -> Multiset:
    """m, with its hash computed first when `known`, so that a change to it
    carries the hash instead of computing it afresh."""
    if known:
        hash(m)
    return m


def built_ways(target: dict, other: dict, known: bool) -> list:
    """Multisets equal to `target`, each built another way from `other`."""
    extra = {k: other[k] for k in other if k not in target}
    added = Multiset()
    for k, n in target.items():
        for _ in range(n):
            added = warm(added, known).changed(added={k: 1})
    half = dict(list(target.items())[::2])
    rest = {k: n for k, n in target.items() if k not in half}
    return [
        Multiset([k for k, n in reversed(target.items()) for _ in range(n)]),
        ms(target),
        added,
        warm(ms(half), known).changed(added=rest),
        warm(ms({**target, **extra}), known).changed(extra),
        warm(ms(other), known).changed(other, target),
        warm(ms(target), known).changed(target, target),
        warm(ms(other), known).changed(added=target).changed(other),
    ]


class TestMultisetHash:
    @given(counts, counts, st.booleans())
    def test_equal_multisets_hash_and_count_alike(self, target, other, known):
        # The hash that a change carries from the multiset it changes is the
        # one that the result would compute afresh.
        reference = ms(target)
        for m in built_ways(target, other, known):
            assert m == reference
            assert (hash(m), len(m)) == (hash(reference), len(reference))
            assert hash(VSet(m)) == hash(VSet(ms(target)))
            table = s.TableComp(s.Interface("T", (s.INT,)), m)
            assert hash(table) == hash(s.TableComp(s.Interface("T", (s.INT,)), reference))

    @given(exact_changes(), st.booleans())
    def test_a_change_reads_nothing_but_a_known_hash(self, change, known):
        # A change, a removal included, made to a multiset whose map is not
        # yet read leaves that map unread; a known hash is carried down the
        # chain, and it is the hash that the counts give afresh.
        a, r, d = change
        chain = warm(Multiset(), known).changed(added=a)
        out = chain.changed(r, d)
        assert unread(chain) and unread(out)
        assert (out._hash is not None) == known
        assert hash(out) == hash(ms(out.copy_counts()))

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
        rows = ms({r2: 1, r1: 2})
        assert sorted_rows(rows) == [r1, r1, r2]
