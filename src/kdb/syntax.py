"""Abstract syntax of the coordination language.

AST nodes are node classes of `kdb.nodes`: immutable and slotted, with
tuple-valued children, so every node is hashable and keeps its hash once it
is computed.  Each class is declared once, by its fields and the shapes of
its children.  A node's span is the source offset of its first token, an
`int`, excluded from equality and hashing: two parses of the same text
compare equal regardless of layout.  `Positions` turns an offset into a
line:col `Span` only for what is reported, against the source that a parsed
`System` keeps.  A constant is its value: an expression holds the `VInt`,
`VStr`, `VTid` or `VLoc` of `kdb.values` that a table row holds, with no
span, and `rename_value` renames a locality wherever it occurs.

The binding structure of processes and nets is declared with the classes
and collected in the table CHILDREN: a binder scopes over the fields of its
node listed after it.  A template's `!x` and `!@u` scope over its action's
predicate and payload and over a loop's body; a select's `!t` and an aggr's
result template over the continuation of their prefix; `(new $l)` over its
net.  A binder's scope follows it in the source text too, so the parser
resolves names by the same rule as it reads them; procedure parameters,
which scope over their body, the parser and the checker bind themselves.
`ScopedMap` is the one traversal of processes and nets that the table
drives.  Like the type checker and the parser it binds in a `Scope`, in
place, and undoes what a node bound when the node is done.  `free_vars`,
`free_locs` and `rename_localities` here, `kernel.apply_subst` and the
checker's collection of table shapes are each a few hooks on it.  It costs
a Python frame per level of the tree but none per node of a `||` or `|`
spine.  `render` is driven by a table too, `_FORMAT`, with one format
function per class and the parenthesisation of tight positions as data; it
recurses on every level, a spine's included.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Optional, Union

from kdb.nodes import Record, build
from kdb.values import (
    Multiset,
    ValueTuple,
    VInt,
    VLoc,
    VSet,
    VStr,
    VTid,
    sorted_rows,
)


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
# template).  CHILDREN collects them for processes and nets.  A class with
# none has no children to visit: the constants, a VLoc an occurrence of its
# locality; the variables DataVar, LocVar, TableByVar; and the tables
# TableLiteral and TableComp, whose rows may hold localities.  Neither
# ProcDef nor System has any: the parser and the checker scope a
# procedure's parameters over its body themselves.
#
# Shapes of a child field:
ONE = "one"  # one node
MANY = "many"  # a tuple of nodes
ACTION = "action"  # Prefix.action, whose exported binder is a binder of the Prefix
SITE = "site"  # Node.loc: a locality occurrence
# Shapes of a binder field:
PATTERN = "pattern"  # a Template: `!x` binds data, `!@u` a locality variable
RESTRICTED = "restricted"  # Restrict.loc: a locality name
TABLE_VAR = "table-var"  # a table variable
# ... and of a binder that its action exports to the continuation of its
# Prefix, where ACTION binds it; within its own node it scopes over nothing:
EXPORTS_TABLE_VAR = "exports table-var"  # Select.bind
EXPORTS_PATTERN = "exports pattern"  # Aggr.bind_template


class ExpressionNode(Record):
    """A node that holds expressions only: no process, table or binder
    occurs below it, so a fold that looks for none of those need not enter
    it (see `keep`)."""
    __slots__ = ()


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

class DataVar(ExpressionNode):
    __slots__ = ("name", "span")


class LocVar(ExpressionNode):
    __slots__ = ("name", "span")


class Concat(ExpressionNode, left=ONE, right=ONE):
    __slots__ = ("left", "right", "span")


class Arith(ExpressionNode, left=ONE, right=ONE):
    __slots__ = ("op", "left", "right", "span")  # op: + - * /


class MultisetLit(ExpressionNode, elements=MANY):
    __slots__ = ("elements", "span")  # elements: Exprs, each multiset-free


Expr = Union[VInt, VStr, VTid, VLoc, DataVar, LocVar, Concat, Arith, MultisetLit]


# ---------------------------------------------------------------------------
# Predicates

class TruePred(ExpressionNode):
    __slots__ = ("span",)


class Cmp(ExpressionNode, left=ONE, right=ONE):
    __slots__ = ("op", "left", "right", "span")  # op: = != < <= > >= sub


class Member(ExpressionNode, elem=ONE, container=ONE):
    __slots__ = ("elem", "container", "span")


class Not(ExpressionNode, inner=ONE):
    __slots__ = ("inner", "span")


class And(ExpressionNode, left=ONE, right=ONE):
    __slots__ = ("left", "right", "span")


Pred = Union[TruePred, Cmp, Member, Not, And]

ORDERED_CMP_OPS = ("<", "<=", ">", ">=")
CMP_OPS = ("=", "!=") + ORDERED_CMP_OPS + ("sub",)


# ---------------------------------------------------------------------------
# Tuples and templates

class Tuple(ExpressionNode, components=MANY):
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


class TableByName(ExpressionNode, loc=ONE):
    __slots__ = ("tid", "loc", "span")  # loc: VLoc or LocVar


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
# Processes.  A process, as a table component, is the body of an item of a
# canonical net, and keeps its text for `net.canonical_key` in `_text`.  A
# prefix or a loop keeps its step in `_kept` (`semantics._outcomes`).

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


class Restrict(Record, loc=RESTRICTED, inner=ONE):
    __slots__ = ("loc", "inner", "span")


class Node(Record, loc=SITE, component=ONE):
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
# _FORMAT holds one format function per class.  A format function renders
# its children through `_r`, passing the wrap table of the child's position:
# the classes that bind too loosely there, with the delimiters that wrap
# them.  `_r` and a format function are the two frames one tree level costs.

_PARENS = ("(", ")")
_NO_WRAP: dict = {}
_TIGHT_PROC = {Seq: _PARENS}  # a prefix's continuation, a loop body, a sequence's first half
_TIGHT_PRED = {Cmp: _PARENS, Member: _PARENS, And: _PARENS}  # under ! and &&
_TIGHT_COMP = {ParComp: ("{ ", " }")}  # under |
_TIGHT_NET = {ParNet: _PARENS}  # under || and a restriction


def _r(node, wrap=_NO_WRAP) -> str:
    """The node's text, wrapped when its class is in `wrap`."""
    cls = node.__class__
    if cls in wrap:
        left, right = wrap[cls]
        return left + _FORMAT[cls](node) + right
    return _FORMAT[cls](node)


def render(node) -> str:
    """Render an AST node, type, schema, value, row or multiset of rows back
    to concrete syntax."""
    try:
        return _r(node)
    except KeyError as e:
        raise TypeError(f"cannot render {e.args[0].__name__}") from None


# The renderers of the pieces below a node are `_r` itself, not `render`, so
# that wrapping `render` (as `perfbench/tracer.py` does) sees only top-level
# renders.
render_mtype = render_schema = render_value = render_row = render_rows = _r


def _quote(s: str) -> str:
    out = s.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
    return '"' + out + '"'


def _join(nodes) -> str:
    # No list position wraps, so the elements skip `_r`: rows are hot.
    return ", ".join([_FORMAT[x.__class__](x) for x in nodes])


def _row(row: ValueTuple) -> str:
    text = row._text
    if text is None:
        text = "(" + _join(row.components) + ")"
        object.__setattr__(row, "_text", text)
    return text


def _table(t) -> str:
    tid = t.interface.tid if t.interface.tid is not None else "?"
    return f"table {tid} : {_r(t.interface.schema)} = {_r(t.rows)}"


def _operator(f) -> str:
    return f.op if f.op in COLUMNLESS else f"{f.op}[{f.col}]"


def _system(system: System) -> str:
    lines = [f"schema {tid} : {_r(sk)}" for tid, sk in system.schema_decls]
    for i, d in enumerate(system.procedures.values()):
        lines.append(("let " if i == 0 else "and ") + _r(d))
    if system.procedures:
        lines.append("in")
    lines.append(_r(system.main_net))
    return "\n".join(lines)


_FORMAT = {
    Base: lambda t: t.kind,
    MSet: lambda t: "{" + t.kind + "}",
    tuple: lambda sk: "(" + _join(sk) + ")",  # a schema
    VInt: lambda v: str(v.value),
    VStr: lambda v: _quote(v.value),
    VTid: lambda v: v.name,
    VLoc: lambda v: "$" + v.name,
    VSet: lambda v: "{" + ", ".join(sorted([_FORMAT[e.__class__](e) for e in v.elements])) + "}",
    ValueTuple: _row,
    Multiset: lambda rows: "{" + _join(sorted_rows(rows)) + "}",
    DataVar: lambda e: e.name,
    LocVar: lambda e: e.name,
    Concat: lambda e: f"({_r(e.left)} ++ {_r(e.right)})",
    Arith: lambda e: f"({_r(e.left)} {e.op} {_r(e.right)})",
    MultisetLit: lambda e: "{" + _join(e.elements) + "}",
    TruePred: lambda p: "true",
    Cmp: lambda p: f"{_r(p.left)} {p.op} {_r(p.right)}",
    Member: lambda p: f"{_r(p.elem)} in {_r(p.container)}",
    Not: lambda p: "!" + _r(p.inner, _TIGHT_PRED),
    And: lambda p: f"{_r(p.left, _TIGHT_PRED)} && {_r(p.right, _TIGHT_PRED)}",
    Tuple: lambda t: "(" + _join(t.components) + ")",
    BindData: lambda f: "!" + f.name,
    BindLoc: lambda f: "!@" + f.name,
    Template: lambda t: "(" + _join(t.fields) + ")",
    TableByName: lambda tb: f"{tb.tid}@{_r(tb.loc)}",
    TableByVar: lambda tb: tb.name,
    TableLiteral: _table,
    AggrFn: _operator,
    OrderSpec: _operator,
    Insert: lambda a: f"insert({a.tid}@{_r(a.loc)}, {_r(a.payload)})",
    Delete: lambda a: f"delete({a.tid}@{_r(a.loc)}, {_r(a.template)}, {_r(a.pred)})",
    Select: lambda a: (f"select({_join(a.tables)}, {_r(a.template)}, {_r(a.pred)}, "
                       f"{_r(a.payload)}, !{a.bind})"),
    Update: lambda a: (f"update({a.tid}@{_r(a.loc)}, {_r(a.template)}, {_r(a.pred)}, "
                       f"{_r(a.payload)})"),
    Aggr: lambda a: (f"aggr({a.tid}@{_r(a.loc)}, {_r(a.template)}, {_r(a.pred)}, "
                     f"{_r(a.fn)}, {_r(a.bind_template)})"),
    Create: lambda a: f"create({a.tid}@{_r(a.loc)}, {_r(a.schema)})",
    Drop: lambda a: f"drop({a.tid}@{_r(a.loc)})",
    Eval: lambda a: f"eval({_r(a.process)}, {_r(a.loc)})",
    NilProc: lambda p: "nil",
    Prefix: lambda p: f"{_r(p.action)}. {_r(p.cont, _TIGHT_PROC)}",
    CallProc: lambda p: f"{p.name}({_join(p.args)})",
    Foreach: lambda p: (f"foreach({_r(p.table)}, {_r(p.template)}, {_r(p.pred)}, "
                        f"{_r(p.order)}): {_r(p.body, _TIGHT_PROC)}"),
    Seq: lambda p: f"{_r(p.first, _TIGHT_PROC)}; {_r(p.second)}",
    ProcComp: lambda c: _r(c.process),
    TableComp: _table,
    ParComp: lambda c: f"{_r(c.left, _TIGHT_COMP)} | {_r(c.right, _TIGHT_COMP)}",
    NilNet: lambda n: "nil",
    ErrNet: lambda n: "ERR",
    Node: lambda n: f"${n.loc} :: {_r(n.component)}",
    ParNet: lambda n: f"{_r(n.left, _TIGHT_NET)} || {_r(n.right, _TIGHT_NET)}",
    Restrict: lambda n: f"(new ${n.loc}) {_r(n.inner, _TIGHT_NET)}",
    ProcDef: lambda d: (d.name + "(" + ", ".join([f"{name}: {_r(ty)}" for name, ty in d.params])
                        + ") := " + _r(d.body)),
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


# The expression nodes with children, which a fold need not enter (`keep`).
EXPRESSION_NODES = tuple(cls for cls in CHILDREN if issubclass(cls, ExpressionNode))


def keep(visitor, node, env):
    """A hook that returns its node as it is, without visiting its children."""
    return node


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
    """The one traversal of processes and nets, driven by CHILDREN.

    `map(node, env)` maps every child of the node in the order CHILDREN
    lists them and rebuilds the node from the results; it returns the node
    itself when no child changed.  `env` is a `Scope`: the node's binders
    bind into it in place, and `map` undoes them when the node is done.  A
    subclass says what happens at leaves and binders, which keep their
    names.  A fold is a map whose hooks collect something and return their
    node.  The recursion is here and costs one Python frame per level of
    the tree, but none per node of a `||` or `|` spine nested on the left,
    as the parser and `to_net` build one: `_spine` follows it in a loop.

    - `hooks`: class -> function(self, node, env) -> node.  A hook takes
      over its node whole, whether a leaf or a node it need not enter.
    - `bind(names, env)`: variable binders, a tuple of their names.  Binds
      in env what their scope needs.
    - `restrict(name, env)`: a restricted locality, likewise.
    - `site(name, env)`: the locality name of a Node; returns its new name.
    """

    hooks: dict = {}

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        cls._dispatch = {**ScopedMap._dispatch, **cls.hooks}

    def _spine(self, node, env):
        """A ParNet or ParComp: its left branches in a loop, then its right ones."""
        cls = node.__class__
        spine = []
        while node.__class__ is cls:
            spine.append(node)
            node = node.left
        new = self.map(node, env)
        for par in reversed(spine):
            right = self.map(par.right, env)
            if new is not par.left or right is not par.right:
                par = cls(new, right, span=par.span)
            new = par
        return new

    _dispatch: dict = {**_PLANS, ParNet: _spine, ParComp: _spine}  # class -> hook or plan

    def bind(self, names: tuple, env) -> None:
        pass

    def restrict(self, name: str, env) -> None:
        pass

    def site(self, name: str, env) -> str:
        return name

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
            elif shape is SITE:
                new = self.site(old, env)
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
        if shape is RESTRICTED:
            self.restrict(value, env)
        elif shape is PATTERN:
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
        comps = tuple(rename_value(v, mapping) for v in row.components)
        if all(a is b for a, b in zip(comps, row.components)):
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

    hooks = {DataVar: _occurrence, LocVar: _occurrence, TableByVar: _occurrence}


def free_vars(node) -> frozenset:
    """Free data, locality and table variables of a process, a net, or a part
    of one."""
    fold = _FreeVars()
    fold.map(node, Scope())
    return frozenset(fold.out)


class _FreeLocs(ScopedMap):
    """Locality names that no restriction in scope (env) binds."""

    def __init__(self, node):
        self.free = set()
        self.map(node, Scope())

    def restrict(self, name, env):
        env.bind(name, True)

    def site(self, name, env):
        if name not in env:
            self.free.add(name)
        return name

    def _value(self, v, env):
        if v.__class__ is VLoc:
            self.site(v.name, env)
        elif v.__class__ is VSet:
            for e in v.elements.support():
                self._value(e, env)
        return v

    def _rows(self, node, env):
        for row in node.rows.support():
            for v in row.components:
                self._value(v, env)
        return node

    hooks = {VLoc: _value, TableLiteral: _rows, TableComp: _rows}


def free_locs(node) -> frozenset:
    """Locality names occurring free in a process, a net, or a part of one
    (a restriction binds its name)."""
    return frozenset(_FreeLocs(node).free)


class _RenameLocalities(ScopedMap):
    """Free locality occurrences renamed by env; restriction binders shadow."""

    def restrict(self, name, env):
        if name in env:
            env.bind(name, name)

    def site(self, name, env):
        return env.get(name, name)

    def _constant(self, node, env):
        return rename_value(node, env)

    def _table(self, node, env):
        return rename_table(node, env)

    hooks = {VLoc: _constant, TableLiteral: _table, TableComp: _table}


_RENAME_LOCALITIES = _RenameLocalities()


def rename_localities(node, mapping: dict):
    """A process, a net, or a part of one with its free locality occurrences
    renamed by `mapping`; restriction binders shadow."""
    if not mapping:
        return node
    return _RENAME_LOCALITIES.map(node, Scope(mapping))
