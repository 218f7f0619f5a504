"""Immutable node classes, declared once and built without `dataclasses`.

A node class is a `Record` that declares its fields, in order, as its
`__slots__`; a slot whose name starts with `_` is a cache, not a field.
Its class keywords give the shape of each child field, in the order a
traversal visits them (`syntax.CHILDREN` is read off them).  `build` then
generates the `__init__` of every node class of a module in one `exec`: it
sets each field, starts each cache at None and calls `__post_init__` where
a class has one.  After that a node is never assigned to: `__setattr__`
raises, and only a cache is filled in, by `object.__setattr__`.

Equality, hashing and `repr` are the same three functions for every class.
They read the compared fields: every field but a node's `span` and a
system's `source`, which say where it stands in the source text.  The hash
is that of their tuple, the hash a frozen dataclass has, computed on first
use and kept in the `_hash` slot.  `replace` and `_fields` stand in for
`dataclasses.replace` and `dataclasses.fields`, and `__reduce__` lets
`copy` and `pickle` rebuild a node through its `__init__`.
"""

from __future__ import annotations

from operator import attrgetter

# The fields that say where a node stands in its source text, with their
# defaults: out of equality, hashing and repr.
POSITIONAL = {"span": None, "source": ""}


class Record:
    __slots__ = ("_hash",)
    _fields: tuple = ()  # every field, in order
    _compared: tuple = ()  # the fields but the positional ones
    _children: tuple = ()  # (field, shape) of each child field, in visit order
    _one: bool = False  # one compared field, which `_key` gives bare, not in a tuple
    _defaults: dict = {}  # field -> default, besides the positional ones

    def __init_subclass__(cls, **children):
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__dict__.get("__slots__", ())
                            if not name.startswith("_"))
        cls._compared = tuple(name for name in cls._fields if name not in POSITIONAL)
        # The compared values, in one C call; `()` takes a Python one.
        cls._key = staticmethod(attrgetter(*cls._compared) if cls._compared else lambda node: ())
        cls._one = len(cls._compared) == 1
        cls._children = tuple(children.items())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {self.__class__.__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {self.__class__.__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        h = self._hash
        if h is None:
            key = self._key(self)
            h = hash((key,) if self._one else key)
            _set_hash(self, h)
        return h

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._compared])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, name) for name in self._fields])

    def replace(self, **changes):
        """A copy with the given fields changed, as `dataclasses.replace` makes."""
        node = self.__class__(*[changes.pop(name, getattr(self, name)) for name in self._fields])
        if changes:
            raise TypeError(f"{self.__class__.__name__} has no field {next(iter(changes))!r}")
        return node


_set_hash = Record._hash.__set__


def build(namespace: dict) -> list:
    """Generate, in one `exec`, the `__init__` of every node class defined in
    the module whose globals are `namespace`; return those classes."""
    classes = [c for c in namespace.values()
               if isinstance(c, type) and issubclass(c, Record) and c._fields
               and c.__module__ == namespace["__name__"]]
    source, setters = [], {"_set_hash": _set_hash}
    for cls in classes:
        name = cls.__name__
        defaults = {**POSITIONAL, **cls._defaults}
        params = [f"{f}={defaults[f]!r}" if f in defaults else f for f in cls._fields]
        source.append(f"def {name}({', '.join(['self', *params])}):")
        for slot in cls.__slots__:
            setters[f"{name}_{slot}"] = cls.__dict__[slot].__set__
            source.append(f" {name}_{slot}(self, {slot if slot in cls._fields else None})")
        source.append(" _set_hash(self, None)")
        if hasattr(cls, "__post_init__"):
            source.append(" self.__post_init__()")
    exec("\n".join(source), setters)
    for cls in classes:
        init = cls.__init__ = setters[cls.__name__]
        init.__qualname__ = f"{cls.__name__}.__init__"
    return classes
