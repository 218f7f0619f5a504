"""Immutable node classes, declared once and built without `dataclasses`.

A node class is a `Record` that declares its fields, in order, as its
`__slots__`; a slot whose name starts with `_` is a cache, not a field.
Its class keywords give the shape of each child field, in the order a
traversal visits them (`syntax.CHILDREN` is read off them).  `build` then
gives every node class of a module the `__init__`, `__eq__` and `__hash__`
a frozen dataclass would have.  `__init__` sets each field and the hash
cache `_hash` to None, and calls `__post_init__` where a class has one.  It
leaves every other cache (`_text`, `_kept`) unset, so the parser, which
builds a node per few tokens, pays for no cache it may never fill, and a
reader of one reads it with a default.  `_hash` is set all the same: the
engine hashes many a node it has just built, such as a successor's table,
and a first read of an unset slot raises inside.  After that a node is never assigned
to: `__setattr__` raises, and only a cache is filled in, by
`object.__setattr__`.  `__eq__` and `__hash__` read, one by one, the
compared fields: every field but a node's `span` and a system's `source`,
which say where it stands in the source text.  The hash is that of their
tuple, computed on first use and kept in the `_hash` slot.  `replace` and
`_fields` stand in for `dataclasses.replace` and `dataclasses.fields`, and
`__reduce__` lets `copy` and `pickle` rebuild a node through its
`__init__`, with no cache set but `_hash`, which is None.
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

    One `exec` compiles each method once per number of fields over stand-ins
    `_0`, `_1`, ..., and an `__init__` that also calls `__post_init__` for
    each field count that needs one.  Each class copies its methods with its
    own names put in: its fields, and for `__init__` its slot setters, which
    `namespace` holds as `<class>_<field>`.  Compiling one `__init__` per class
    costs more at import than all of that."""
    classes = [c for c in namespace.values()
               if isinstance(c, type) and issubclass(c, Record) and c._fields
               and c.__module__ == namespace["__name__"]]
    source, names = [], {"_set_hash": _set_hash}
    for k, post in {(len(cls._fields), hasattr(cls, "__post_init__")) for cls in classes}:
        params = ", ".join(["self", *(f"_{i}" for i in range(k))])
        source.append(f"def __init__{k}{post:d}({params}):")
        source += [f" _s{i}(self, _{i})" for i in range(k)] + [" _set_hash(self, None)"]
        if post:
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
        name, fields = cls.__name__, cls._fields
        defaults = {**POSITIONAL, **cls._defaults}
        rename = {f"_s{i}": f"{name}_{f}" for i, f in enumerate(fields)}
        for f in fields:
            names[f"{name}_{f}"] = cls.__dict__[f].__set__
        argdefs = tuple(defaults[f] for f in fields if f in defaults)
        if argdefs and not defaults.keys() >= set(fields[-len(argdefs):]):
            raise TypeError(f"{name}: a field without a default follows one with a default")
        code = names[f"__init__{len(fields)}{hasattr(cls, '__post_init__'):d}"].__code__
        code = code.replace(co_varnames=("self", *fields),
                            co_names=tuple(rename.get(n, n) for n in code.co_names))
        cls.__init__ = _copy(code, names, cls, "__init__", argdefs)
        rename = {f"_{i}": f for i, f in enumerate(cls._compared)}
        for method in ("__eq__", "__hash__"):
            code = names[f"{method}{len(cls._compared)}"].__code__
            code = code.replace(co_names=tuple(rename.get(n, n) for n in code.co_names))
            setattr(cls, method, _copy(code, names, cls, method))
    return classes


def _copy(code, names: dict, cls, method: str, defaults=None) -> FunctionType:
    """A function of `code` named as `cls`'s `method`."""
    qualname = f"{cls.__name__}.{method}"
    if hasattr(code, "co_qualname"):  # Python 3.11 on
        code = code.replace(co_name=method, co_qualname=qualname)
    else:
        code = code.replace(co_name=method)
    function = FunctionType(code, names, method, defaults)
    function.__qualname__ = qualname
    return function
