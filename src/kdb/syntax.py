"""Abstract syntax of the coordination language.

AST nodes are node classes of `kdb.nodes`: immutable and slotted, with
tuple-valued children, so every node is hashable and keeps its hash once it
is computed.  Each class is declared once, by its fields and the shapes of
its children.  A node's span is the source offset of its first token, an
`int`, excluded from equality and hashing: two parses of the same text
compare equal regardless of layout.  `Positions` turns an offset into a
line:col `Span` only for what is reported, against the source that a parsed
`System` keeps.  A constant is its value: an expression holds the `int`,
`str`, `VTid` or `VLoc` that a table row holds (`kdb.values`), with no span,
and `rename_value` renames a locality wherever it occurs.

The binding structure of processes is declared with the classes and
collected in the table CHILDREN: a binder scopes over the fields of its node
listed after it.  A template's `!x` and `!@u` scope over its action's
predicate and payload and over a loop's body; a select's `!t` and an aggr's
result template over the continuation of their prefix.  Names are as the
source wrote them, so a use reads the nearest binder of its name: an inner
binder hides an outer one in its scope.  Procedure parameters, which scope
over their body, the checker binds itself.  `ScopedMap` is the one
traversal of processes and tables that the table drives.  Like the type
checker it binds in a `Scope`, in place, and undoes what a node bound when
the node is done.  `free_vars`, `free_locs` and
`rename_localities` here and `kernel.apply_subst` are each a few hooks on
it.  It costs a Python frame per level of a process.  `net_parts` is the
one walk of a net's `||`, `|`, nodes and restrictions, whose `(new $l)`
scopes over its net: it alone decides restriction scope, keeping a
restricted name apart from the net's free names and from the free
localities of the system's procedures, on one explicit stack, at no frame
per level, and the engine and the checker read a net through it.
`render` is driven by a table too, `_FORMAT`, and lays any tree out from
one explicit stack.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Optional, Union

from kdb.nodes import Record, build
from kdb.values import Multiset, ValueTuple, VLoc, VSet, VTid, sorted_rows


class Span(Record):
    __slots__ = ("line", "col")

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


def line_starts(source: str) -> list:
    """The offset at which each line of `source` starts."""
    return [0, *(m.end() for m in re.finditer("\n", source))]


class Positions:
    """The line:col of offsets into one source text.  Its line table is
    built on the first call, so a text that reports nothing builds none.
    In a system built in code the source is "", and an offset reads as a
    column of line 1."""

    def __init__(self, source: str):
        self.source = source
        self.starts = None

    def position(self, offset: Optional[int]) -> Optional[Span]:
        if offset is None:
            return None
        if self.starts is None:
            self.starts = line_starts(self.source)
        line = bisect_right(self.starts, offset)
        return Span(line, offset - self.starts[line - 1] + 1)


# ---------------------------------------------------------------------------
# Binding structure
#
# Each node class below declares its fields, in order, as its `__slots__`,
# and, as class keywords, which of them hold its children and how they are
# scoped, by one rule: a binder scopes over the fields of its node listed
# after it (so a delete's, update's and aggr's locality comes before its
# template).  CHILDREN collects them.  A class with none has no children to
# visit: the constants, a VLoc an occurrence of its locality; the variables
# Var, TableByVar; and the tables TableLiteral and TableComp,
# whose rows may hold localities.  Neither ProcDef nor System has any: the
# checker and a call's substitution scope a procedure's parameters over its
# body themselves.  The net classes list their subnets, components and
# processes, so that a walk of the whole tree reaches them, but no binder:
# a restriction's scope and a node's locality are `net_parts`' to read.
#
# Shapes of a child field:
ONE = "one"  # one node
MANY = "many"  # a tuple of nodes
ACTION = "action"  # Prefix.action, whose exported binder is a binder of the Prefix
# Shapes of a binder field:
PATTERN = "pattern"  # a Template: `!x` binds data, `!@u` a locality variable
TABLE_VAR = "table-var"  # a table variable
# ... and of a binder that its action exports to the continuation of its
# Prefix, where ACTION binds it; within its own node it scopes over nothing:
EXPORTS_TABLE_VAR = "exports table-var"  # Select.bind
EXPORTS_PATTERN = "exports pattern"  # Aggr.bind_template


# ---------------------------------------------------------------------------
# Types (column sorts and schemas)

class Base(Record):
    __slots__ = ("kind",)  # "Int" | "String" | "Id" | "Loc"


class MSet(Record):
    __slots__ = ("kind",)


MType = Union[Base, MSet]
Schema = tuple  # tuple of MType, length >= 1


# ---------------------------------------------------------------------------
# Expressions

class Var(Record):
    __slots__ = ("name", "span")  # data or locality: its binder says which


class Arith(Record, left=ONE, right=ONE):
    __slots__ = ("op", "left", "right", "span")  # op: + - * / on integers, ++ on strings


class MultisetLit(Record, elements=MANY):
    __slots__ = ("elements", "span")  # elements: Exprs, each multiset-free


Expr = Union[int, str, VTid, VLoc, Var, Arith, MultisetLit]


# ---------------------------------------------------------------------------
# Predicates

class TruePred(Record):
    __slots__ = ("span",)


class Cmp(Record, left=ONE, right=ONE):
    __slots__ = ("op", "left", "right", "span")  # op: = != < <= > >= sub, or in (left in right)


class Not(Record, inner=ONE):
    __slots__ = ("inner", "span")


class And(Record, left=ONE, right=ONE):
    __slots__ = ("left", "right", "span")


Pred = Union[TruePred, Cmp, Not, And]

ORDERED_CMP_OPS = ("<", "<=", ">", ">=")
CMP_OPS = ("=", "!=") + ORDERED_CMP_OPS + ("sub",)  # every Cmp op but "in"


# ---------------------------------------------------------------------------
# Tuples and templates

class Tuple(Record, components=MANY):
    __slots__ = ("components", "span")  # components: Exprs, at least one


class BindData(Record):
    __slots__ = ("name", "span")


class BindLoc(Record):
    __slots__ = ("name", "span")


class Template(Record):
    __slots__ = ("fields", "span")  # fields: BindData | BindLoc, at least one

    def names(self) -> tuple:
        return tuple(f.name for f in self.fields)


# ---------------------------------------------------------------------------
# Tables

class Interface(Record):
    # tid None marks the anonymous interface of selection results
    __slots__ = ("tid", "schema")


class TableByName(Record, loc=ONE):
    __slots__ = ("tid", "loc", "span")  # loc: VLoc or Var


class TableByVar(Record):
    __slots__ = ("name", "span")


class TableLiteral(Record):
    __slots__ = ("interface", "rows", "span")  # rows: a Multiset of ValueTuple


TableRef = Union[TableByName, TableByVar, TableLiteral]


# ---------------------------------------------------------------------------
# Aggregators and loop orders: an operator and the column it reads; `col` is
# 0 for the operators that read none, COLUMNLESS.

COLUMNLESS = frozenset(("count", "unordered", "lex"))


class AggrFn(Record):
    __slots__ = ("op", "col")  # op: count sum avg min max
    _defaults = {"col": 0}


class OrderSpec(Record):
    __slots__ = ("op", "col")  # op: unordered lex asc desc
    _defaults = {"col": 0}


# ---------------------------------------------------------------------------
# Actions

class Insert(Record, payload=ONE, loc=ONE):
    __slots__ = ("tid", "payload", "loc", "span")


class Delete(Record, loc=ONE, template=PATTERN, pred=ONE):
    __slots__ = ("tid", "template", "pred", "loc", "span")


class Select(Record, tables=MANY, template=PATTERN, pred=ONE, payload=ONE,
             bind=EXPORTS_TABLE_VAR):
    # tables: TableRefs, at least one; bind: the table variable bound in
    # the continuation
    __slots__ = ("tables", "template", "pred", "payload", "bind", "span")


class Update(Record, loc=ONE, template=PATTERN, pred=ONE, payload=ONE):
    __slots__ = ("tid", "template", "pred", "payload", "loc", "span")


class Aggr(Record, loc=ONE, template=PATTERN, pred=ONE, bind_template=EXPORTS_PATTERN):
    __slots__ = ("tid", "template", "pred", "fn", "bind_template", "loc", "span")


class Create(Record, loc=ONE):
    __slots__ = ("tid", "loc", "schema", "span")


class Drop(Record, loc=ONE):
    __slots__ = ("tid", "loc", "span")


class Eval(Record, process=ONE, loc=ONE):
    __slots__ = ("process", "loc", "span")


Action = Union[Insert, Delete, Select, Update, Aggr, Create, Drop, Eval]


# ---------------------------------------------------------------------------
# Processes.  A process keeps the text of a top-level `render` in `_text`,
# and a prefix or a loop its step in `_kept` (`semantics._outcomes`).

class NilProc(Record):
    __slots__ = ("span", "_text")


class Prefix(Record, action=ACTION, cont=ONE):
    __slots__ = ("action", "cont", "span", "_text", "_kept")


class CallProc(Record, args=MANY):
    __slots__ = ("name", "args", "span", "_text")  # args: Exprs


class Foreach(Record, table=ONE, template=PATTERN, pred=ONE, body=ONE):
    __slots__ = ("table", "template", "pred", "order", "body", "span", "_text", "_kept")


class Seq(Record, first=ONE, second=ONE):
    __slots__ = ("first", "second", "span", "_text")


Process = Union[NilProc, Prefix, CallProc, Foreach, Seq]


# ---------------------------------------------------------------------------
# Components and nets

class ProcComp(Record, process=ONE):
    __slots__ = ("process", "span")


class TableComp(Record):
    __slots__ = ("interface", "rows", "span", "_text")  # rows: a Multiset of ValueTuple


class ParComp(Record, left=ONE, right=ONE):
    __slots__ = ("left", "right", "span")


Component = Union[ProcComp, TableComp, ParComp]


class NilNet(Record):
    __slots__ = ("span",)


class ErrNet(Record):
    __slots__ = ("span",)


class ParNet(Record, left=ONE, right=ONE):
    __slots__ = ("left", "right", "span")


class Restrict(Record, inner=ONE):
    __slots__ = ("loc", "inner", "span")


class Node(Record, component=ONE):
    __slots__ = ("loc", "component", "span")


Net = Union[NilNet, ErrNet, ParNet, Restrict, Node]


class ProcDef(Record):
    # params: (name, MType | Schema) pairs; Base("Loc") marks a locality parameter
    __slots__ = ("name", "params", "body", "span")


class System(Record):
    # procedures: name -> ProcDef, in declaration order; schema_decls: (tid,
    # Schema) pairs, in declaration order, repeats kept; source: the text
    # the offsets point into
    __slots__ = ("procedures", "schema_decls", "main_net", "source")


_NODES = build(globals())

INT = Base("Int")
STRING = Base("String")
ID = Base("Id")
LOC = Base("Loc")


# ---------------------------------------------------------------------------
# Rendering back to concrete syntax
#
# _FORMAT holds one format function per class.  A leaf's (a type, schema,
# value, row, multiset of rows or table) returns its text; a node's, its
# parts: strings, child nodes, and `_Tight` children in positions where the
# classes of a wrap table take its delimiters.  `render` lays parts out
# from one explicit stack, on which every `str` is finished text, so a
# String constant is quoted before it is pushed (`_operands`, `_commas`).

_PARENS = ("(", ")")
_TIGHT_PROC = {Seq: _PARENS}  # a prefix's continuation, a loop body, a sequence's first half
_TIGHT_PRED = {Cmp: _PARENS, And: _PARENS}  # under ! and &&
_TIGHT_COMP = {ParComp: ("{ ", " }")}  # under |
_TIGHT_NET = {ParNet: _PARENS}  # under || and a restriction


class _Tight(tuple):
    """A part: (child, wrap table).  A schema is a tuple too."""
    __slots__ = ()


def render(node) -> str:
    """Render an AST node, type, schema, value, row or multiset of rows back
    to concrete syntax.  A process or a table keeps its text in `_text`, as
    a row does, and is rendered once."""
    keeps = hasattr(node.__class__, "_text")
    if keeps and node._text is not None:
        return node._text
    out, stack = [], [_quote(node) if node.__class__ is str else node]
    try:
        while stack:
            part = stack.pop()
            if part.__class__ is _Tight:
                part, wrap = part
                if part.__class__ in wrap:
                    left, right = wrap[part.__class__]
                    out.append(left)
                    stack.append(right)
            if part.__class__ is not str:
                part = _FORMAT[part.__class__](part)
            if part.__class__ is str:
                out.append(part)
            else:
                stack += reversed(part)
    except KeyError as e:
        raise TypeError(f"cannot render {e.args[0].__name__}") from None
    text = "".join(out)
    if keeps:
        object.__setattr__(node, "_text", text)
    return text


def _leaf(x) -> str:
    return _FORMAT[x.__class__](x)


# Leaves are rendered by `_leaf`, not `render`, so that wrapping `render`
# (as `perfbench/tracer.py` does) sees only top-level renders.
render_mtype = render_schema = render_value = render_row = render_rows = _leaf


def _quote(s: str) -> str:
    out = s.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
    return '"' + out + '"'


def _operands(e) -> tuple:
    """The parts of a binary operator's operands around it."""
    left, right = e.left, e.right
    return (_quote(left) if left.__class__ is str else left, f" {e.op} ",
            _quote(right) if right.__class__ is str else right)


def _join(leaves) -> str:
    return ", ".join([_FORMAT[x.__class__](x) for x in leaves])


def _commas(nodes: tuple) -> list:
    parts = [", "] * (2 * len(nodes) - 1)
    parts[::2] = [_quote(x) if x.__class__ is str else x for x in nodes]
    return parts


def _row(row: ValueTuple) -> str:
    """A row's text, which the row keeps the first time it is asked for."""
    try:
        return row._text
    except AttributeError:
        row._text = text = "(" + _join(row) + ")"
        return text


def _table(t) -> str:
    tid = t.interface.tid if t.interface.tid is not None else "?"
    return f"table {tid} : {_leaf(t.interface.schema)} = {_leaf(t.rows)}"


def _operator(f) -> str:
    return f.op if f.op in COLUMNLESS else f"{f.op}[{f.col}]"


def _system(system: System) -> list:
    parts = [f"schema {tid} : {_leaf(sk)}\n" for tid, sk in system.schema_decls]
    for i, d in enumerate(system.procedures.values()):
        parts += ("let " if i == 0 else "and ", d, "\n")
    if system.procedures:
        parts.append("in\n")
    parts.append(system.main_net)
    return parts


_FORMAT = {
    Base: lambda t: t.kind,
    MSet: lambda t: "{" + t.kind + "}",
    tuple: lambda sk: "(" + _join(sk) + ")",  # a schema
    int: str,
    str: _quote,
    VTid: lambda v: v.name,
    VLoc: lambda v: "$" + v.name,
    VSet: lambda v: "{" + ", ".join(sorted([_FORMAT[e.__class__](e) for e in v.elements])) + "}",
    ValueTuple: _row,
    Multiset: lambda rows: "{" + _join(sorted_rows(rows)) + "}",
    Var: lambda e: e.name,
    Arith: lambda e: ("(", *_operands(e), ")"),
    MultisetLit: lambda e: ("{", *_commas(e.elements), "}"),
    TruePred: lambda p: "true",
    Cmp: _operands,
    Not: lambda p: ("!", _Tight((p.inner, _TIGHT_PRED))),
    And: lambda p: (_Tight((p.left, _TIGHT_PRED)), " && ", _Tight((p.right, _TIGHT_PRED))),
    Tuple: lambda t: ("(", *_commas(t.components), ")"),
    BindData: lambda f: "!" + f.name,
    BindLoc: lambda f: "!@" + f.name,
    Template: lambda t: ("(", *_commas(t.fields), ")"),
    TableByName: lambda tb: (tb.tid + "@", tb.loc),
    TableByVar: lambda tb: tb.name,
    TableLiteral: _table,
    AggrFn: _operator,
    OrderSpec: _operator,
    Insert: lambda a: (f"insert({a.tid}@", a.loc, ", ", a.payload, ")"),
    Delete: lambda a: (f"delete({a.tid}@", *_commas((a.loc, a.template, a.pred)), ")"),
    Select: lambda a: ("select(", *_commas((*a.tables, a.template, a.pred, a.payload)),
                       f", !{a.bind})"),
    Update: lambda a: (f"update({a.tid}@", *_commas((a.loc, a.template, a.pred, a.payload)), ")"),
    Aggr: lambda a: (f"aggr({a.tid}@", *_commas((a.loc, a.template, a.pred, a.fn, a.bind_template)),
                     ")"),
    Create: lambda a: (f"create({a.tid}@", a.loc, ", ", a.schema, ")"),
    Drop: lambda a: (f"drop({a.tid}@", a.loc, ")"),
    Eval: lambda a: ("eval(", a.process, ", ", a.loc, ")"),
    NilProc: lambda p: "nil",
    Prefix: lambda p: (p.action, ". ", _Tight((p.cont, _TIGHT_PROC))),
    CallProc: lambda p: (p.name + "(", *_commas(p.args), ")"),
    Foreach: lambda p: ("foreach(", *_commas((p.table, p.template, p.pred, p.order)), "): ",
                        _Tight((p.body, _TIGHT_PROC))),
    Seq: lambda p: (_Tight((p.first, _TIGHT_PROC)), "; ", p.second),
    ProcComp: lambda c: (c.process,),
    TableComp: _table,
    ParComp: lambda c: (_Tight((c.left, _TIGHT_COMP)), " | ", _Tight((c.right, _TIGHT_COMP))),
    NilNet: lambda n: "nil",
    ErrNet: lambda n: "ERR",
    Node: lambda n: (f"${n.loc} :: ", n.component),
    ParNet: lambda n: (_Tight((n.left, _TIGHT_NET)), " || ", _Tight((n.right, _TIGHT_NET))),
    Restrict: lambda n: (f"(new ${n.loc}) ", _Tight((n.inner, _TIGHT_NET))),
    ProcDef: lambda d: (d.name + "(" + ", ".join([f"{name}: {_leaf(ty)}" for name, ty in d.params])
                        + ") := ", d.body),
    System: _system,
}


# ---------------------------------------------------------------------------
# The traversal of the binding structure

CHILDREN = {cls: cls._children for cls in _NODES if cls._children}

_EXPORTED = {EXPORTS_TABLE_VAR: TABLE_VAR, EXPORTS_PATTERN: PATTERN}


# class -> ((index among the fields but span, field, shape), ...)
_PLANS = {cls: tuple((cls._compared.index(name), name, shape) for name, shape in children)
          for cls, children in CHILDREN.items()}
# action class -> (field, binder shape) of the binder it exports
_EXPORTS = {cls: (name, _EXPORTED[shape])
            for cls, steps in _PLANS.items()
            for _, name, shape in steps if shape in _EXPORTED}


_UNBOUND = object()  # the journal's mark of a name a binding did not shadow


class Scope(dict):
    """The names in scope, bound in place on an undo journal: `bind` journals
    the binding it shadows and `undo(mark)` restores every binding made since
    `mark()`, so a binder costs O(1) however many names are in scope.  A
    scope made with another's `journal` shares its undo.
    """

    __slots__ = ("journal",)

    def __init__(self, bindings=(), journal=None):
        dict.__init__(self, bindings)
        self.journal = [] if journal is None else journal

    def bind(self, name, value) -> None:
        self.journal.append((self, name, self.get(name, _UNBOUND)))
        self[name] = value

    def mark(self) -> int:
        return len(self.journal)

    def undo(self, mark: int) -> None:
        journal = self.journal
        while len(journal) > mark:
            scope, name, old = journal.pop()
            if old is _UNBOUND:
                del scope[name]
            else:
                scope[name] = old


class ScopedMap:
    """The one traversal of processes and tables, driven by CHILDREN.

    `map(node, env)` maps every child of the node in the order CHILDREN
    lists them and rebuilds the node from the results; it returns the node
    itself when no child changed.  `env` is a `Scope`: the node's binders
    bind into it in place, and `map` undoes them when the node is done.  A
    subclass says what happens at leaves and binders, which keep their
    names.  A fold is a map whose hooks collect something and return their
    node.  The recursion is here and costs one Python frame per level of
    the tree.  A net or a component raises TypeError: a restriction's scope
    is `net_parts`' to decide, so a net is mapped part by part.

    - `hooks`: class -> function(self, node, env) -> node.  A hook takes
      over its node whole, whether a leaf or a node it need not enter.
    - `bind(names, env)`: variable binders, a tuple of their names.  Binds
      in env what their scope needs.
    """

    hooks: dict = {}

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        cls._dispatch = {**ScopedMap._dispatch, **cls.hooks}

    def _net(self, node, env):
        raise TypeError(f"not a process or a table: {node.__class__.__name__}")

    # class -> hook or plan
    _dispatch: dict = {**_PLANS, **dict.fromkeys((ParNet, ParComp, Restrict, Node, ProcComp), _net)}

    def bind(self, names: tuple, env) -> None:
        pass

    def map(self, node, env):
        entry = self._dispatch.get(node.__class__)
        if entry is None:
            return node
        if entry.__class__ is not tuple:
            return entry(self, node, env)
        vals = None
        mark = None  # the journal's length at the node's first binder
        for i, name, shape in entry:
            old = getattr(node, name)
            if shape is ONE:
                new = self.map(old, env)
            elif shape is MANY:
                # A loop, not a generator, keeps the recursion at one frame.
                new = old
                for j, x in enumerate(old):
                    y = self.map(x, env)
                    if y is not x:
                        if new is old:
                            new = list(old)
                        new[j] = y
                if new is not old:
                    new = tuple(new)
            elif shape is ACTION:
                new = self.map(old, env)
                export = _EXPORTS.get(old.__class__)
                if export is not None:
                    if mark is None:
                        mark = len(env.journal)
                    self._bind(export[1], getattr(old, export[0]), env)
            elif shape in _EXPORTED:
                continue  # bound by the enclosing Prefix
            else:
                if mark is None:
                    mark = len(env.journal)
                self._bind(shape, old, env)
                continue
            if new is not old:
                if vals is None:
                    vals = [getattr(node, a) for a in node._compared]
                vals[i] = new
        if mark is not None and len(env.journal) > mark:
            env.undo(mark)
        if vals is None:
            return node
        return node.__class__(*vals, span=node.span)

    def _bind(self, shape, value, env) -> None:
        """Open a binder's scope in env."""
        if shape is PATTERN:
            self.bind(value.names(), env)
        else:  # TABLE_VAR
            self.bind((value,), env)


# -- renaming localities in values, shared by the traversals that rename

def rename_value(v, mapping: dict):
    """A value, in a row or as a constant, with its locality names mapped."""
    if v.__class__ is VLoc:
        name = mapping.get(v.name, v.name)
        return v if name == v.name else VLoc(name)
    if v.__class__ is VSet:
        elems = [rename_value(e, mapping) for e in v.elements]
        if all(a is b for a, b in zip(elems, v.elements)):
            return v
        return VSet(Multiset(elems))
    return v


def rename_rows(rows: Multiset, mapping: dict) -> Multiset:
    """Rows with their locality values mapped; `rows` itself if none is."""
    counts = None
    for row, n in rows.items():
        comps = tuple([rename_value(v, mapping) for v in row])
        if all(a is b for a, b in zip(comps, row)):
            continue
        if counts is None:
            counts = rows.copy_counts()
        # Move the row's n copies to its new name; the count stays >= n.
        if counts[row] == n:
            del counts[row]
        else:
            counts[row] -= n
        new = ValueTuple(comps)
        counts[new] = counts.get(new, 0) + n
    return rows if counts is None else Multiset.of_counts(counts)


def rename_table(node, mapping: dict):
    """A TableLiteral or TableComp with the locality values in its rows mapped."""
    rows = rename_rows(node.rows, mapping)
    if rows is node.rows:
        return node
    return node.__class__(node.interface, rows, span=node.span)


# -- the traversals of the binding structure itself

class _FreeVars(ScopedMap):
    """Variable occurrences outside the binders in scope (env)."""

    def __init__(self):
        self.out = set()

    def bind(self, names, env):
        for name in names:
            env.bind(name, True)

    def _occurrence(self, node, env):
        if node.name not in env:
            self.out.add(node.name)
        return node

    hooks = {Var: _occurrence, TableByVar: _occurrence}


def free_vars(node) -> frozenset:
    """Free data, locality and table variables of a process or a table."""
    fold = _FreeVars()
    fold.map(node, Scope())
    return frozenset(fold.out)


class _FreeLocs(ScopedMap):
    """Locality names in the constants and table rows below a node."""

    def __init__(self, node):
        self.free = set()
        self.map(node, Scope())

    def _value(self, v, env):
        if v.__class__ is VLoc:
            self.free.add(v.name)
        elif v.__class__ is VSet:
            for e in v.elements.support():
                self._value(e, env)
        return v

    def _rows(self, node, env):
        for row in node.rows.support():
            for v in row:
                self._value(v, env)
        return node

    hooks = {VLoc: _value, TableLiteral: _rows, TableComp: _rows}


def free_locs(node) -> frozenset:
    """Locality names occurring free in a process, a table or a net: a net's
    are its parts' (`net_parts`) but the restricted names."""
    if node.__class__ in (ParNet, Restrict, Node):
        restricted, parts = net_parts(node)
        return frozenset().union(*[free_locs(body) | {loc} for loc, body in parts]) - {None, *restricted}
    return frozenset(_FreeLocs(node).free)


class _RenameLocalities(ScopedMap):
    """Locality occurrences renamed by env."""

    def _constant(self, node, env):
        return rename_value(node, env)

    def _table(self, node, env):
        return rename_table(node, env)

    hooks = {VLoc: _constant, TableLiteral: _table, TableComp: _table}


_RENAME_LOCALITIES = _RenameLocalities()


def rename_localities(node, mapping: dict):
    """A process or a table with its locality occurrences renamed by
    `mapping`.  A net is renamed part by part, as `net_parts` does.  A
    `Scope` is used as it is, not copied: the renaming binds nothing."""
    if not mapping:
        return node
    return _RENAME_LOCALITIES.map(node, mapping if mapping.__class__ is Scope else Scope(mapping))


# -- the parts of a net

_CLOSE = object()  # where a restriction's scope closes, on net_parts' stack


def net_parts(net, procedures=None) -> tuple:
    """The restricted names of a net, outermost first, and its parts, left
    first: (locality, process), (locality, TableComp) or (None, ErrNet).

    The one walk of a net's `||`, `|`, restrictions and nodes, on one
    explicit stack, so a net of any shape costs no frame, and the one place
    that decides restriction scope.  A restricted name that clashes with a
    free name of the net, a free locality of a body in `procedures` (name ->
    `ProcDef`, whose calls may unfold in its scope) or an earlier restricted
    name becomes `name#k` in its scope, numbered in walk order (pre-order,
    left first): of same-name restrictions only the outermost can keep its
    name, so an inner one shadows it.  The walk records parts and scopes;
    two passes over the record, binding names in `Scope`s at O(1) a
    restriction, find the free names, then number and rename.  Only a net
    with a restriction walks its bodies and the procedures for free names,
    and only a part with a clash in scope renames, by the renaming `Scope`
    itself, so however many clashes are in scope a part costs no copy of
    them.
    """
    events = []  # a part's (locality, body); a restricted name as its scope opens, None as it closes
    stack = [(net, None)]  # a net or a component, and its node's locality
    while stack:
        n, loc = stack.pop()
        if isinstance(n, (ParNet, ParComp)):
            stack += [(n.right, loc), (n.left, loc)]
        elif isinstance(n, Restrict):
            events.append(n.loc)
            stack += [(_CLOSE, None), (n.inner, loc)]
        elif isinstance(n, Node):
            stack.append((n.component, n.loc))
        elif isinstance(n, (ProcComp, TableComp, ErrNet)):
            events.append((loc, n.process if isinstance(n, ProcComp) else n))
        elif n is _CLOSE:
            events.append(None)
        elif not isinstance(n, NilNet):
            raise TypeError(f"not a net or a component: {n!r}")
    if None not in events:
        return (), events
    around, used = Scope(), set()  # the restricted names in scope; the free names
    for d in (procedures or {}).values():
        used |= free_locs(d.body)
    for e in events:
        if e is None:
            around.undo(around.mark() - 1)
        elif e.__class__ is str:
            around.bind(e, e)
        else:
            used.update([name for name in free_locs(e[1]).union((e[0],)) if name not in around])
    renaming = Scope()  # the clashing names in scope to their new ones; the rest in `kept`
    kept, restricted, parts, clashes = Scope(journal=renaming.journal), [], [], 0
    for e in events:
        if e is None:
            renaming.undo(renaming.mark() - 1)
        elif e.__class__ is str:
            new = e
            while new in used:  # the free names, then every restricted name taken
                clashes += 1
                new = f"{e}#{clashes}"
            used.add(new)
            restricted.append(new)
            (kept if new == e else renaming).bind(e, new)
        elif renaming:
            parts.append((renaming.get(e[0], e[0]), rename_localities(e[1], renaming)))
        else:
            parts.append(e)
    return tuple(restricted), parts
