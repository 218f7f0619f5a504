"""Runtime value domain: scalar values, rows, and counted multisets.

Everything here is immutable and hashable so that tables and whole net
snapshots can be used as dictionary keys and compared structurally.  An
`Int` cell is a Python `int` and a `String` cell a `str`; an `Id`, a `Loc`
and a multiset value are node classes of `kdb.nodes`, so none of them
equals a string of the same text.  A row is a `ValueTuple`, a `tuple` with
no hash or equality of its own, so rows hash, compare and serve as
dictionary keys in C code.  A row keeps its text the first time it is
rendered (`syntax._row`), and rows sort in their cells' own order, which
needs no key unless cells of other kinds decide (`sorted_rows`).  A table's
rows are a `Multiset`, changed exactly (`Multiset.changed`): a change reads
only the old table's hash, which it carries, so a step that changes a few
rows of a big table costs those rows.
"""

from __future__ import annotations

from operator import mul
from types import MappingProxyType
from typing import Iterable, Iterator, KeysView, Mapping, TypeVar, Union

from kdb.nodes import Record, build

X = TypeVar("X")
_NONE: Mapping = MappingProxyType({})
_MASK = (1 << 64) - 1


def _sum_hash(counts: Mapping) -> int:
    """The sum of count × h² over a map of counts, in C, h the hash of the
    element's 1-tuple.  An int is its own hash, which the tuple's only
    nearly mixes: summed plain, {1, 4} and {2, 3} would collide."""
    hs = list(map(hash, zip(counts)))
    return sum(map(mul, map(mul, hs, hs), counts.values()))


class Multiset:
    """Immutable multiset: a map from elements to strictly positive counts.

    `changed` makes a multiset from another and a delta without reading the
    other: the map is made when it is first read, from the nearest multiset
    up the chain that has one and the deltas since.  So small changes to a
    big multiset cost their size until a reader needs the whole.  The hash
    is additive, the sum of count × a mix of each element's hash, mod 2^64
    (`_sum_hash`; Clarke et al., "Incremental Multiset Hash Functions",
    ASIACRYPT 2003): it is computed in C the first time it is asked for, and
    `changed` carries it from then on.  Equality stays structural, so a
    collision costs time, never a wrong answer.
    """

    # `_map` is the element-to-count dict or, until it is first read, the
    # (multiset, removed, added) that `changed` makes it from.
    __slots__ = ("_map", "_hash")

    def __init__(self, items: Iterable[X] | None = None):
        counts: dict = {}
        if items is not None:
            for k in items:
                counts[k] = counts.get(k, 0) + 1
        self._map = counts
        self._hash = None

    @property
    def _counts(self) -> dict:
        if self._map.__class__ is not dict:
            deltas = []
            ms = self
            while ms._map.__class__ is not dict:
                ms, removed, added = ms._map
                deltas.append((removed, added))
            counts = dict(ms._map)
            for removed, added in reversed(deltas):
                for k, n in removed.items():
                    left = counts[k] - n
                    if left > 0:
                        counts[k] = left
                    elif left == 0:
                        del counts[k]
                    else:
                        raise ValueError(f"removing {n} of {k!r}, held {counts[k]} times")
                for k, n in added.items():
                    counts[k] = counts.get(k, 0) + n
            self._map = counts
        return self._map

    def count(self, elem) -> int:
        return self._counts.get(elem, 0)

    def __contains__(self, elem) -> bool:
        return elem in self._counts

    def __len__(self) -> int:
        """Total number of elements, counting multiplicity."""
        return sum(self._counts.values())

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __iter__(self) -> Iterator:
        """Iterate elements with multiplicity (insertion order of the map)."""
        for k, n in self._counts.items():
            for _ in range(n):
                yield k

    def support(self) -> KeysView:
        """The distinct elements, in insertion order: a view, not a copy."""
        return self._counts.keys()

    def items(self):
        return self._counts.items()

    def copy_counts(self) -> dict:
        """A fresh copy of the element-to-count map; no key is rehashed."""
        return dict(self._counts)

    @classmethod
    def of_counts(cls, counts: dict) -> "Multiset":
        """Take over a map of positive counts without copying or rehashing it."""
        ms = cls.__new__(cls)
        ms._map = counts
        ms._hash = None
        return ms

    def changed(self, removed: Mapping = _NONE, added: Mapping = _NONE) -> "Multiset":
        """The multiset less `removed`, whose counts it must hold, plus `added`.
        It keeps both maps and reads nothing of this multiset but a known
        hash, which it carries.  A kept element keeps its place; a new one
        comes last.  Removing more than is held raises on the map's first
        read: `KeyError` for an element not held, `ValueError` for too few."""
        out = Multiset.of_counts((self, removed, added))
        h = self._hash
        if h is not None:
            # An insert removes nothing and a loop step adds nothing.
            if removed:
                h -= _sum_hash(removed)
            if added:
                h += _sum_hash(added)
            out._hash = h & _MASK
        return out

    def __reduce__(self):
        return Multiset.of_counts, (self._counts,)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = _sum_hash(self._counts) & _MASK
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {n}" for k, n in self._counts.items())
        return f"Multiset({{{inner}}})"


# ---------------------------------------------------------------------------
# Values

class VTid(Record):
    """A table identifier as a first-class value."""
    __slots__ = ("name",)


class VLoc(Record):
    """A locality name as a first-class value."""
    __slots__ = ("name",)


class VSet(Record):
    """A multiset of scalar values, all of one scalar kind."""
    __slots__ = ("elements",)

    def __post_init__(self):
        kinds = {scalar_kind(v) for v in self.elements.support()}
        if None in kinds:
            raise ValueError("multiset values must contain scalars only")
        if len(kinds) > 1:
            raise ValueError(f"mixed element kinds in multiset value: {sorted(kinds)}")

    def kind(self) -> str | None:
        """The common scalar kind of the elements, or None when empty."""
        for v in self.elements.support():
            return scalar_kind(v)
        return None


build(globals())

Value = Union[int, str, VTid, VLoc, VSet]


# The column kind of each scalar value class.  A `bool` is no cell: no
# expression yields one.
KIND = {int: "Int", str: "String", VTid: "Id", VLoc: "Loc"}


def scalar_kind(v) -> str | None:
    """Kind tag for scalar values; None for multisets and non-values."""
    return KIND.get(v.__class__)


class ValueTuple(tuple):
    """A row: a tuple of at least one cell.  It defines no hash and no
    equality of its own, so a row is hashed and compared by `tuple`'s.  Its
    `__dict__` is made only when `syntax` keeps the row's text in it."""

    def __new__(cls, cells):
        row = tuple.__new__(cls, cells)
        if not row:
            raise ValueError("rows must have at least one component")
        return row


def value_sort_key(v):
    """A total order on values, used only to make output deterministic:
    integers, then strings, identifiers, localities and multisets, each
    kind in its own order (strings by code point)."""
    cls = v.__class__
    if cls is int:
        return (0, v)
    if cls is str:
        return (1, v)
    if cls is VTid:
        return (2, v.name)
    if cls is VLoc:
        return (3, v.name)
    if cls is VSet:
        return (4, tuple(sorted(value_sort_key(e) for e in v.elements)))
    raise TypeError(f"not a value: {v!r}")


def row_sort_key(row: ValueTuple) -> tuple:
    return tuple([value_sort_key(v) for v in row])


def sorted_rows(rows) -> list:
    """Rows, each as often as `rows` yields it, in `row_sort_key` order.

    Rows compare in C, as tuples: two rows first differ in the same column
    under both orders, and two integers or two strings compare as their
    keys do.  Any other two cells raise `TypeError`, and only then are the
    keys computed."""
    try:
        return sorted(rows)
    except TypeError:
        return sorted(rows, key=row_sort_key)
