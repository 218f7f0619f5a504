"""Abstract syntax of the coordination language.

AST nodes are frozen dataclasses with tuple-valued children, so every node is
hashable and structural equality is cheap.  Source spans are carried on nodes
but excluded from equality and hashing: two parses of the same text compare
equal regardless of layout.

The binding structure is declared once, in the table CHILDREN: a template's
`!x` and `!@u` scope over its action's predicate and payload and over a
loop's body; a select's `!t` and an aggr's result template scope over the
continuation of their prefix; procedure parameters scope over the body; and
`(new $l)` scopes over its net.  `ScopedMap` is the one traversal that
table drives.  `free_vars`, `loc_names`, `free_locs` and
`rename_localities` here, `kernel.apply_subst`, the parser's renaming walk
and the checker's collection of table shapes are each a few hooks on it.
`render` is driven by a table too, `_FORMAT`, with one format function per
class and the parenthesisation of tight positions as data; it and the type
checker recurse on Python frames, as `ScopedMap` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Union

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


@dataclass(frozen=True)
class Span:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


def span_field():
    return field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Types (column sorts and schemas)

@dataclass(frozen=True)
class Base:
    kind: str  # "Int" | "String" | "Id" | "Loc"


@dataclass(frozen=True)
class MSet:
    kind: str


MType = Union[Base, MSet]
Schema = tuple  # tuple of MType, length >= 1

INT = Base("Int")
STRING = Base("String")
ID = Base("Id")
LOC = Base("Loc")


# ---------------------------------------------------------------------------
# Expressions

@dataclass(frozen=True)
class IntLit:
    value: int
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class StrLit:
    value: str
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class TidLit:
    name: str
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class LocLit:
    name: str
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class DataVar:
    name: str
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class LocVar:
    name: str
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class Concat:
    left: "Expr"
    right: "Expr"
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class Arith:
    op: str  # + - * /
    left: "Expr"
    right: "Expr"
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class MultisetLit:
    elements: tuple  # of Expr, each multiset-free
    span: Optional[Span] = span_field()


Expr = Union[IntLit, StrLit, TidLit, LocLit, DataVar, LocVar, Concat, Arith, MultisetLit]


# ---------------------------------------------------------------------------
# Predicates

@dataclass(frozen=True)
class TruePred:
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class Cmp:
    op: str  # = != < <= > >= sub
    left: Expr
    right: Expr
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class Member:
    elem: Expr
    container: Expr
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class Not:
    inner: "Pred"
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class And:
    left: "Pred"
    right: "Pred"
    span: Optional[Span] = span_field()


Pred = Union[TruePred, Cmp, Member, Not, And]

ORDERED_CMP_OPS = ("<", "<=", ">", ">=")
CMP_OPS = ("=", "!=") + ORDERED_CMP_OPS + ("sub",)


# ---------------------------------------------------------------------------
# Tuples and templates

@dataclass(frozen=True)
class Tuple:
    components: tuple  # of Expr, length >= 1
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class BindData:
    name: str
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class BindLoc:
    name: str
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class Template:
    fields: tuple  # of BindData | BindLoc, length >= 1
    span: Optional[Span] = span_field()

    def names(self) -> tuple:
        return tuple(f.name for f in self.fields)


# ---------------------------------------------------------------------------
# Tables

@dataclass(frozen=True)
class Interface:
    tid: Optional[str]  # None marks the anonymous interface of selection results
    schema: Schema


@dataclass(frozen=True)
class TableByName:
    tid: str
    loc: Expr  # LocLit or LocVar
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class TableByVar:
    name: str
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class TableLiteral:
    interface: Interface
    rows: Multiset  # of ValueTuple
    span: Optional[Span] = span_field()


TableRef = Union[TableByName, TableByVar, TableLiteral]


# ---------------------------------------------------------------------------
# Aggregators and loop orders: an operator and the column it reads; `col` is
# 0 for the operators that read none, COLUMNLESS.

COLUMNLESS = frozenset(("count", "unordered", "lex"))


@dataclass(frozen=True)
class AggrFn:
    op: str  # count sum avg min max
    col: int = 0


@dataclass(frozen=True)
class OrderSpec:
    op: str  # unordered lex asc desc
    col: int = 0


# ---------------------------------------------------------------------------
# Actions

@dataclass(frozen=True)
class Insert:
    tid: str
    payload: Tuple
    loc: Expr
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class Delete:
    tid: str
    template: Template
    pred: Pred
    loc: Expr
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class Select:
    tables: tuple  # of TableRef, length >= 1
    template: Template
    pred: Pred
    payload: Tuple
    bind: str  # table variable bound in the continuation
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class Update:
    tid: str
    template: Template
    pred: Pred
    payload: Tuple
    loc: Expr
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class Aggr:
    tid: str
    template: Template
    pred: Pred
    fn: AggrFn
    bind_template: Template
    loc: Expr
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class Create:
    tid: str
    loc: Expr
    schema: Schema
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class Drop:
    tid: str
    loc: Expr
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class Eval:
    process: "Process"
    loc: Expr
    span: Optional[Span] = span_field()


Action = Union[Insert, Delete, Select, Update, Aggr, Create, Drop, Eval]


# ---------------------------------------------------------------------------
# Processes

@dataclass(frozen=True)
class NilProc:
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class Prefix:
    action: Action
    cont: "Process"
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class CallProc:
    name: str
    args: tuple  # of Expr
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class Foreach:
    table: TableRef
    template: Template
    pred: Pred
    order: OrderSpec
    body: "Process"
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class Seq:
    first: "Process"
    second: "Process"
    span: Optional[Span] = span_field()


Process = Union[NilProc, Prefix, CallProc, Foreach, Seq]


# ---------------------------------------------------------------------------
# Components and nets

@dataclass(frozen=True)
class ProcComp:
    process: Process
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class TableComp:
    interface: Interface
    rows: Multiset  # of ValueTuple
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class ParComp:
    left: "Component"
    right: "Component"
    span: Optional[Span] = span_field()


Component = Union[ProcComp, TableComp, ParComp]


@dataclass(frozen=True)
class NilNet:
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class ErrNet:
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class ParNet:
    left: "Net"
    right: "Net"
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class Restrict:
    loc: str
    inner: "Net"
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class Node:
    loc: str
    component: Component
    span: Optional[Span] = span_field()


Net = Union[NilNet, ErrNet, ParNet, Restrict, Node]


@dataclass(frozen=True)
class ProcDef:
    name: str
    params: tuple  # of (name, MType | Schema); Base("Loc") marks a locality parameter
    body: Process
    span: Optional[Span] = span_field()


@dataclass
class System:
    procedures: dict  # name -> ProcDef, in declaration order
    schema_decls: tuple  # of (tid, Schema), in declaration order; repeats kept
    main_net: Net


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
    ValueTuple: lambda row: "(" + _join(row.components) + ")",
    Multiset: lambda rows: "{" + _join(sorted_rows(rows)) + "}",
    IntLit: lambda e: str(e.value),
    StrLit: lambda e: _quote(e.value),
    TidLit: lambda e: e.name,
    LocLit: lambda e: "$" + e.name,
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
# Binding structure
#
# CHILDREN declares, once for the whole language, which fields of each AST
# class hold its children (in dataclass order) and how they are scoped.  A
# class that is not listed has no children to visit: constants, the
# occurrences DataVar, LocVar, TableByVar and LocLit, and the tables
# TableLiteral and TableComp, whose rows may hold locality values.
#
# Shapes of a child field:
ONE = "one"  # one node, in the scope of the node's surroundings
MANY = "many"  # a tuple of nodes, likewise
SCOPED = "scoped"  # one node in the scope of the node's binder
ACTION = "action"  # Prefix.action: what the action exports scopes over SCOPED
SITE = "site"  # Node.loc: a locality occurrence
PROCS = "procs"  # System.procedures: ProcDef by name
# Shapes of a binder field, which comes before the fields it scopes over:
PATTERN = "pattern"  # a Template: `!x` binds data, `!@u` a locality variable
PARAMS = "params"  # ProcDef.params: data, locality and table variables
RESTRICTED = "restricted"  # Restrict.loc: a locality name
TABLE_VAR = "table-var"  # a table variable
# ... and of a binder that scopes over the continuation of its Prefix:
EXPORTS_TABLE_VAR = "exports table-var"  # Select.bind
EXPORTS_PATTERN = "exports pattern"  # Aggr.bind_template

CHILDREN = {
    Concat: (("left", ONE), ("right", ONE)),
    Arith: (("left", ONE), ("right", ONE)),
    MultisetLit: (("elements", MANY),),
    Cmp: (("left", ONE), ("right", ONE)),
    Member: (("elem", ONE), ("container", ONE)),
    Not: (("inner", ONE),),
    And: (("left", ONE), ("right", ONE)),
    Tuple: (("components", MANY),),
    TableByName: (("loc", ONE),),
    Insert: (("payload", ONE), ("loc", ONE)),
    Delete: (("template", PATTERN), ("pred", SCOPED), ("loc", ONE)),
    Select: (("tables", MANY), ("template", PATTERN), ("pred", SCOPED), ("payload", SCOPED),
             ("bind", EXPORTS_TABLE_VAR)),
    Update: (("template", PATTERN), ("pred", SCOPED), ("payload", SCOPED), ("loc", ONE)),
    Aggr: (("template", PATTERN), ("pred", SCOPED), ("bind_template", EXPORTS_PATTERN),
           ("loc", ONE)),
    Create: (("loc", ONE),),
    Drop: (("loc", ONE),),
    Eval: (("process", ONE), ("loc", ONE)),
    Prefix: (("action", ACTION), ("cont", SCOPED)),
    CallProc: (("args", MANY),),
    Foreach: (("table", ONE), ("template", PATTERN), ("pred", SCOPED), ("body", SCOPED)),
    Seq: (("first", ONE), ("second", ONE)),
    ProcComp: (("process", ONE),),
    ParComp: (("left", ONE), ("right", ONE)),
    ParNet: (("left", ONE), ("right", ONE)),
    Restrict: (("loc", RESTRICTED), ("inner", SCOPED)),
    Node: (("loc", SITE), ("component", ONE)),
    ProcDef: (("params", PARAMS), ("body", SCOPED)),
    System: (("procedures", PROCS), ("main_net", ONE)),
}

_EXPORTED = {EXPORTS_TABLE_VAR: TABLE_VAR, EXPORTS_PATTERN: PATTERN}


def _plan(cls) -> tuple:
    attrs = tuple(f.name for f in fields(cls) if f.name != "span")
    steps = tuple((attrs.index(name), name, shape) for name, shape in CHILDREN[cls])
    return attrs, steps


# class -> (field names but span, ((index, field, shape), ...))
_PLANS = {cls: _plan(cls) for cls in CHILDREN}
# action class -> (index, field, binder shape) of the binder it exports
_EXPORTS = {cls: (i, name, _EXPORTED[shape])
            for cls, (_, steps) in _PLANS.items()
            for i, name, shape in steps if shape in _EXPORTED}


# The classes with children that hold expressions only: no process, table
# or binder occurs below them.  A fold that looks for none of those need not
# enter them (see `keep`).
EXPRESSION_NODES = (Concat, Arith, MultisetLit, Cmp, Member, Not, And, Tuple, TableByName)


def keep(visitor, node, env):
    """A hook that returns its node as it is, without visiting its children."""
    return node


def _param_sort(ty) -> str:
    """The sort of variable a procedure parameter of type `ty` binds."""
    if isinstance(ty, tuple):
        return "table"
    return "loc" if ty == LOC else "data"


def _rebuild(node, vals: list):
    if node.__class__ is System:
        return System(*vals)
    return node.__class__(*vals, span=node.span)


class ScopedMap:
    """The one traversal of the AST, driven by CHILDREN.

    `map(node, env)` maps every child of the node in field order under the
    environment its scope gives it, and rebuilds the node from the results;
    it returns the node itself when no child changed.  A subclass says what
    happens at leaves and binders.  A fold is a map whose hooks collect
    something and return their node.  The recursion is here and costs one
    Python frame per level of the tree; a hook recurses only below a leaf of
    the process tree, as the parser's does into a call's arguments.

    - `hooks`: class -> function(self, node, env) -> node.  A hook takes
      over its node whole, whether a leaf or a node it need not enter.
    - `bind(names, env)`: variable binders, `names` = ((name, sort), ...)
      with sort "data", "loc" or "table".  Returns the binders' new names
      (None keeps them) and the environment of their scope.
    - `restrict(name, env)`: a restricted locality; returns its new name
      (None keeps it) and the environment of its scope.
    - `site(name, env)`: the locality name of a Node; returns its new name.
    """

    hooks: dict = {}
    _dispatch: dict = _PLANS  # class -> hook or plan

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        cls._dispatch = {**_PLANS, **cls.hooks}

    def bind(self, names: tuple, env):
        return None, env

    def restrict(self, name: str, env):
        return None, env

    def site(self, name: str, env) -> str:
        return name

    def map(self, node, env):
        entry = self._dispatch.get(node.__class__)
        if entry is None:
            return node
        if entry.__class__ is not tuple:
            return entry(self, node, env)
        attrs, steps = entry
        vals = None
        inner = env
        for i, name, shape in steps:
            old = getattr(node, name)
            if shape is ONE:
                new = self.map(old, env)
            elif shape is SCOPED:
                new = self.map(old, inner)
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
                    j, field_name, binder = export
                    bound = getattr(old, field_name)
                    renamed, inner = self._bind(binder, bound, env)
                    if renamed is not bound:
                        rebuilt = [getattr(new, f) for f in _PLANS[old.__class__][0]]
                        rebuilt[j] = renamed
                        new = _rebuild(new, rebuilt)
            elif shape is SITE:
                new = self.site(old, env)
            elif shape is PROCS:
                new = old
                for key, d in old.items():
                    d2 = self.map(d, env)
                    if d2 is not d:
                        if new is old:
                            new = dict(old)
                        new[key] = d2
            elif shape in _EXPORTED:
                continue  # bound by the enclosing Prefix
            else:
                new, inner = self._bind(shape, old, env)
            if new is not old:
                if vals is None:
                    vals = [getattr(node, a) for a in attrs]
                vals[i] = new
        return node if vals is None else _rebuild(node, vals)

    def _bind(self, shape, value, env):
        """Open a binder's scope: the binder, renamed or not, and its env."""
        if shape is RESTRICTED:
            new, env = self.restrict(value, env)
            return (value if new is None or new == value else new), env
        if shape is PATTERN:
            names = tuple((f.name, "loc" if f.__class__ is BindLoc else "data")
                          for f in value.fields)
        elif shape is PARAMS:
            names = tuple((name, _param_sort(ty)) for name, ty in value)
        else:  # TABLE_VAR
            names = ((value, "table"),)
        new, env = self.bind(names, env)
        if new is None or new == tuple(name for name, _ in names):
            return value, env
        if shape is PATTERN:
            return Template(tuple(f.__class__(name, span=f.span)
                                  for f, name in zip(value.fields, new)), span=value.span), env
        if shape is PARAMS:
            return tuple((name, ty) for name, (_, ty) in zip(new, value)), env
        return new[0], env


# -- renaming occurrences, shared by the traversals that rename

def rename_occurrence(node, mapping: dict):
    """A DataVar, LocVar, TableByVar or LocLit with its name mapped."""
    name = mapping.get(node.name)
    if name is None or name == node.name:
        return node
    return node.__class__(name, span=node.span)


def _rename_value(v, mapping: dict):
    if v.__class__ is VLoc:
        name = mapping.get(v.name)
        return v if name is None else VLoc(name)
    if v.__class__ is VSet:
        elems = [_rename_value(e, mapping) for e in v.elements]
        if all(a is b for a, b in zip(elems, v.elements)):
            return v
        return VSet(Multiset(elems))
    return v


def rename_rows(rows: Multiset, mapping: dict) -> Multiset:
    """Rows with their locality values mapped; `rows` itself if none is."""
    counts = None
    for row, n in rows.items():
        comps = tuple(_rename_value(v, mapping) for v in row.components)
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
        return None, env.union(name for name, _ in names)

    def _occurrence(self, node, env):
        if node.name not in env:
            self.out.add(node.name)
        return node

    hooks = {DataVar: _occurrence, LocVar: _occurrence, TableByVar: _occurrence}


def free_vars(node) -> frozenset:
    """Free data/locality/table variables of any AST node."""
    fold = _FreeVars()
    fold.map(node, frozenset())
    return frozenset(fold.out)


def _locs_in_value(v, out: set) -> None:
    if isinstance(v, VLoc):
        out.add(v.name)
    elif isinstance(v, VSet):
        for e in v.elements.support():
            _locs_in_value(e, out)


class _Localities(ScopedMap):
    """Locality names; with `free`, only those no restriction in scope binds."""

    def __init__(self, free: bool):
        self.free = free
        self.out = set()

    def restrict(self, name, env):
        if self.free:
            return None, env | {name}
        self.out.add(name)
        return None, env

    def site(self, name, env):
        if name not in env:
            self.out.add(name)
        return name

    def _literal(self, node, env):
        self.site(node.name, env)
        return node

    def _rows(self, node, env):
        found = set()
        for row in node.rows.support():
            for v in row.components:
                _locs_in_value(v, found)
        self.out |= found - env
        return node

    hooks = {LocLit: _literal, TableLiteral: _rows, TableComp: _rows}


def loc_names(node) -> frozenset:
    """All locality names occurring in the node, restricted ones included."""
    fold = _Localities(free=False)
    fold.map(node, frozenset())
    return frozenset(fold.out)


def free_locs(node) -> frozenset:
    """Locality names occurring free in a node (restriction binds)."""
    fold = _Localities(free=True)
    fold.map(node, frozenset())
    return frozenset(fold.out)


class _RenameLocalities(ScopedMap):
    """Free locality occurrences renamed by env; restriction binders shadow."""

    def restrict(self, name, env):
        if name in env:
            env = {k: v for k, v in env.items() if k != name}
        return None, env

    def site(self, name, env):
        return env.get(name, name)

    def _literal(self, node, env):
        return rename_occurrence(node, env)

    def _table(self, node, env):
        return rename_table(node, env)

    hooks = {LocLit: _literal, TableLiteral: _table, TableComp: _table}


_RENAME_LOCALITIES = _RenameLocalities()


def rename_localities(node, mapping: dict):
    """Rename free locality occurrences; restriction binders shadow."""
    if not mapping:
        return node
    return _RENAME_LOCALITIES.map(node, mapping)
