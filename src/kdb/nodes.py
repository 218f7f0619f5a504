"""Immutable node classes, declared once and built without `dataclasses`.

A node class is a `Record` that declares its fields, in order, as its
`__slots__`; a slot whose name starts with `_` is a cache, not a field.
Its class keywords give the shape of each child field, in the order a
traversal visits them (`syntax.CHILDREN` is read off them).  `build` then
gives every node class of a module the `__init__`, `__eq__` and `__hash__`
a frozen dataclass would have.  `__init__` sets each field, starts each
cache at None and calls `__post_init__` where a class has one.  After that
a node is never assigned to: `__setattr__` raises, and only a cache is
filled in, by `object.__setattr__`.  `__eq__` and `__hash__` read, one by
one, the compared fields: every field but a node's `span` and a system's
`source`, which say where it stands in the source text.  The hash is that
of their tuple, computed on first use and kept in the `_hash` slot.
`replace` and `_fields` stand in for `dataclasses.replace` and
`dataclasses.fields`, and `__reduce__` lets `copy` and `pickle` rebuild a
node through its `__init__`.
"""

from __future__ import annotations

from types import FunctionType

# The fields that say where a node stands in its source text, with their
# defaults: out of equality, hashing and repr.
POSITIONAL = {"span": None, "source": ""}


class Record:
    __slots__ = ("_hash",)
    _fields: tuple = ()  # every field, in order
    _compared: tuple = ()  # the fields but the positional ones
    _children: tuple = ()  # (field, shape) of each child field, in visit order
    _defaults: dict = {}  # field -> default, besides the positional ones

    def __init_subclass__(cls, **children):
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__dict__.get("__slots__", ())
                            if not name.startswith("_"))
        cls._compared = tuple(name for name in cls._fields if name not in POSITIONAL)
        cls._children = tuple(children.items())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {self.__class__.__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {self.__class__.__name__}")

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
    """Give every node class defined in the module whose globals are
    `namespace` its `__init__`, `__eq__` and `__hash__`; return the classes.

    One `exec` generates each `__init__`, and an `__eq__` and a `__hash__`
    per number of compared fields over stand-ins `_0`, `_1`, ..., which each
    class copies with its field names put in: compiling those two per class
    would cost more at import than all the rest of `syntax`."""
    classes = [c for c in namespace.values()
               if isinstance(c, type) and issubclass(c, Record) and c._fields
               and c.__module__ == namespace["__name__"]]
    source, names = [], {"_set_hash": _set_hash}
    for cls in classes:
        name = cls.__name__
        defaults = {**POSITIONAL, **cls._defaults}
        params = [f"{f}={defaults[f]!r}" if f in defaults else f for f in cls._fields]
        source.append(f"def {name}({', '.join(['self', *params])}):")
        for slot in cls.__slots__:
            names[f"{name}_{slot}"] = cls.__dict__[slot].__set__
            source.append(f" {name}_{slot}(self, {slot if slot in cls._fields else None})")
        source.append(" _set_hash(self, None)")
        if hasattr(cls, "__post_init__"):
            source.append(" self.__post_init__()")
    for k in {len(cls._compared) for cls in classes}:
        fields = [f"_{i}" for i in range(k)]
        same = " and ".join(f"self.{f} == other.{f}" for f in fields) or "True"
        # A node equals itself without a look at its fields, as a tuple's
        # item does, so comparing two nodes never walks a subtree they share.
        source += [f"def __eq__{k}(self, other):", " if other is self: return True",
                   " if other.__class__ is not self.__class__: return NotImplemented",
                   f" return {same}",
                   f"def __hash__{k}(self):", " if self._hash is None:",
                   f"  _set_hash(self, hash(({''.join(f'self.{f}, ' for f in fields)})))",
                   " return self._hash"]
    exec("\n".join(source), names)
    for cls in classes:
        cls.__init__ = names[cls.__name__]
        rename = {f"_{i}": f for i, f in enumerate(cls._compared)}
        for method in ("__eq__", "__hash__"):
            code = names[f"{method}{len(cls._compared)}"].__code__
            code = code.replace(co_names=tuple(rename.get(n, n) for n in code.co_names))
            setattr(cls, method, FunctionType(code, names, method))
        for method in ("__init__", "__eq__", "__hash__"):
            getattr(cls, method).__qualname__ = f"{cls.__name__}.{method}"
    return classes
