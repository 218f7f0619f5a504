"""Runtime value domain: scalar values, rows, and counted multisets.

Everything here is immutable and hashable so that tables and whole net
snapshots can be used as dictionary keys and compared structurally.  The
values and rows are node classes of `kdb.nodes`, declared by their slots;
a row computes its hash when it is built, and its text and sort key the
first time they are asked for.
"""

from __future__ import annotations

from typing import Iterable, Iterator, KeysView, Mapping, TypeVar, Union

from kdb.nodes import Record, build

X = TypeVar("X")


class Multiset:
    """Immutable multiset: a map from elements to strictly positive counts."""

    __slots__ = ("_counts", "_hash")

    def __init__(self, items: Union[Iterable[X], Mapping[X, int], None] = None):
        counts: dict = {}
        if isinstance(items, Mapping):
            for k, n in items.items():
                if n < 0:
                    raise ValueError(f"negative multiplicity {n!r} for {k!r}")
                if n > 0:
                    counts[k] = counts.get(k, 0) + n
        elif items is not None:
            for k in items:
                counts[k] = counts.get(k, 0) + 1
        self._counts = counts
        self._hash = None

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
        ms._counts = counts
        ms._hash = None
        return ms

    def add(self, elem) -> "Multiset":
        out = dict(self._counts)
        out[elem] = out.get(elem, 0) + 1
        return Multiset.of_counts(out)

    def union(self, other: "Multiset") -> "Multiset":
        out = dict(self._counts)
        for k, n in other._counts.items():
            out[k] = out.get(k, 0) + n
        return Multiset.of_counts(out)

    def subtract(self, other: "Multiset") -> "Multiset":
        out = {}
        for k, n in self._counts.items():
            m = n - other.count(k)
            if m > 0:
                out[k] = m
        return Multiset.of_counts(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._counts.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {n}" for k, n in self._counts.items())
        return f"Multiset({{{inner}}})"


# ---------------------------------------------------------------------------
# Values

class VInt(Record):
    __slots__ = ("value",)


class VStr(Record):
    __slots__ = ("value",)


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


Value = Union[VInt, VStr, VTid, VLoc, VSet]


# The column kind of each scalar value class.
KIND = {VInt: "Int", VStr: "String", VTid: "Id", VLoc: "Loc"}


def scalar_kind(v) -> str | None:
    """Kind tag for scalar values; None for multisets and non-values."""
    return KIND.get(type(v))


class ValueTuple(Record):
    # The row's text (`syntax.render_row`) and `row_sort_key`, each kept the
    # first time it is asked for, as a process or a table keeps its text.
    __slots__ = ("components", "_text", "_sort_key")

    def __post_init__(self):
        if len(self.components) < 1:
            raise ValueError("rows must have at least one component")
        # Computed once per row, as rows are hashed whenever a table is.
        object.__setattr__(self, "_hash", hash((self.components,)))

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, i: int):
        return self.components[i]


build(globals())


def value_sort_key(v):
    """A total order on values, used only to make output deterministic."""
    if isinstance(v, VInt):
        return (0, v.value)
    if isinstance(v, VStr):
        return (1, v.value)
    if isinstance(v, VTid):
        return (2, v.name)
    if isinstance(v, VLoc):
        return (3, v.name)
    if isinstance(v, VSet):
        return (4, tuple(sorted((value_sort_key(e) for e in v.elements), )))
    raise TypeError(f"not a value: {v!r}")


def row_sort_key(row: ValueTuple):
    key = row._sort_key
    if key is None:
        key = tuple(value_sort_key(v) for v in row.components)
        object.__setattr__(row, "_sort_key", key)
    return key


def sorted_rows(rows: Multiset) -> list:
    """Rows repeated by multiplicity, in deterministic order."""
    return sorted(rows, key=row_sort_key)
