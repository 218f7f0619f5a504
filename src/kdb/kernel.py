"""Pure semantic kernel: evaluation, matching, substitution, joins.

All operations are total functions that report failures through the ERR
sentinel rather than exceptions; the transition engine turns ERR outcomes
into monitored error states.

Expressions, predicates and tuples are evaluated under an environment, the
substitution a template match produced: a variable evaluates to the value
the environment binds it to.  So the engine evaluates an action's
predicate and payload once per row without building substituted copies.
`apply_subst` builds a substituted copy only for what runs on afterwards:
the continuation of a select or aggr, a loop body and a procedure body.
It is a `syntax.ScopedMap`, so it respects the binders CHILDREN declares.

The kernel never looks a table up.  A join takes the row multisets of
tables the engine has already found, and the joined schema is the engine's
to build from their interfaces.
"""

from __future__ import annotations

import itertools
import operator
from typing import Optional, Union

from kdb import syntax as s
from kdb.values import (
    KIND,
    Multiset,
    Value,
    ValueTuple,
    VInt,
    VLoc,
    VSet,
    VStr,
    VTid,
    row_sort_key,
    scalar_kind,
    value_sort_key,
)


class _EvalErr:
    """Singleton marker for evaluation and matching failures."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ERR"

    def __bool__(self):
        return False


ERR = _EvalErr()


def is_err(x) -> bool:
    return x is ERR


# A substitution binds variable names to values, or table variables to
# literal tables produced by selection.
Subst = dict

_NO_ENV: Subst = {}  # never mutated


# ---------------------------------------------------------------------------
# Literals
#
# The value each literal class denotes, and the literal of each scalar value
# class.  A literal's sort is the kind of its value.

LITERAL_VALUE = {s.IntLit: lambda e: VInt(e.value), s.StrLit: lambda e: VStr(e.value),
                 s.TidLit: lambda e: VTid(e.name), s.LocLit: lambda e: VLoc(e.name)}
VALUE_LITERAL = {VInt: lambda v: s.IntLit(v.value), VStr: lambda v: s.StrLit(v.value),
                 VTid: lambda v: s.TidLit(v.name), VLoc: lambda v: s.LocLit(v.name)}


def literal_sort(e: s.Expr) -> Optional[s.Base]:
    """The sort of a literal; None for any other expression."""
    value = LITERAL_VALUE.get(e.__class__)
    return None if value is None else s.Base(scalar_kind(value(e)))


# ---------------------------------------------------------------------------
# Evaluation

def eval_expr(e: s.Expr, env: Subst = _NO_ENV) -> Union[Value, _EvalErr]:
    """The value of an expression whose variables env binds to values."""
    literal = LITERAL_VALUE.get(e.__class__)
    if literal is not None:
        return literal(e)
    if isinstance(e, (s.DataVar, s.LocVar)):
        # A variable env does not bind is an evaluation error.
        return env.get(e.name, ERR)
    if isinstance(e, s.Concat):
        a = eval_expr(e.left, env)
        b = eval_expr(e.right, env)
        if isinstance(a, VStr) and isinstance(b, VStr):
            return VStr(a.value + b.value)
        return ERR
    if isinstance(e, s.Arith):
        a = eval_expr(e.left, env)
        b = eval_expr(e.right, env)
        if not (isinstance(a, VInt) and isinstance(b, VInt)):
            return ERR
        if e.op == "+":
            return VInt(a.value + b.value)
        if e.op == "-":
            return VInt(a.value - b.value)
        if e.op == "*":
            return VInt(a.value * b.value)
        if e.op == "/":
            if b.value == 0:
                return VInt(0)
            q = abs(a.value) // abs(b.value)
            return VInt(q if (a.value >= 0) == (b.value >= 0) else -q)
        raise ValueError(f"unknown arithmetic operator {e.op!r}")
    if isinstance(e, s.MultisetLit):
        vals = [eval_expr(el, env) for el in e.elements]
        kinds = {scalar_kind(v) for v in vals}  # an error, like a multiset, has none
        if None in kinds or len(kinds) > 1:
            return ERR
        return VSet(Multiset(vals))
    raise TypeError(f"not an expression: {e!r}")


_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _cmp_scalars(op: str, a: Value, b: Value):
    cls = type(a)
    if cls is not type(b) or cls not in KIND:  # two scalars of one kind
        return ERR
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    compare = _ORDER.get(op)
    # Ordering exists for integers (numeric) and strings (lexicographic).
    if compare is None or cls not in (VInt, VStr):
        return ERR
    return compare(a.value, b.value)


def _proper_subset(a: VSet, b: VSet) -> Union[bool, _EvalErr]:
    ka, kb = a.kind(), b.kind()
    if ka is not None and kb is not None and ka != kb:
        return ERR
    for elem, n in a.elements.items():
        if b.elements.count(elem) < n:
            return False
    return a.elements != b.elements


def eval_pred(p: s.Pred, env: Subst = _NO_ENV) -> Union[bool, _EvalErr]:
    if isinstance(p, s.TruePred):
        return True
    if isinstance(p, s.Cmp):
        a = eval_expr(p.left, env)
        b = eval_expr(p.right, env)
        if is_err(a) or is_err(b):
            return ERR
        if p.op == "sub":
            if isinstance(a, VSet) and isinstance(b, VSet):
                return _proper_subset(a, b)
            return ERR
        return _cmp_scalars(p.op, a, b)
    if isinstance(p, s.Member):
        a = eval_expr(p.elem, env)
        b = eval_expr(p.container, env)
        if is_err(a) or is_err(b):
            return ERR
        ka = scalar_kind(a)
        if ka is None or not isinstance(b, VSet) or b.kind() not in (None, ka):
            return ERR
        return a in b.elements
    if isinstance(p, s.Not):
        r = eval_pred(p.inner, env)
        if is_err(r):
            return ERR
        return not r
    if isinstance(p, s.And):
        # Error-strict: an error on either side wins even if the other is false.
        a = eval_pred(p.left, env)
        b = eval_pred(p.right, env)
        if is_err(a) or is_err(b):
            return ERR
        return a and b
    raise TypeError(f"not a predicate: {p!r}")


def eval_tuple(t: s.Tuple, env: Subst = _NO_ENV) -> Union[ValueTuple, _EvalErr]:
    vals = []
    for e in t.components:
        v = eval_expr(e, env)
        if is_err(v):
            return ERR
        vals.append(v)
    return ValueTuple(tuple(vals))


# ---------------------------------------------------------------------------
# Pattern matching

def match(et: ValueTuple, template: s.Template) -> Union[Subst, _EvalErr]:
    """Match an evaluated row against a template, producing a substitution."""
    if len(et) != len(template.fields):
        return ERR
    out: Subst = {}
    for v, f in zip(et.components, template.fields):
        # Localities bind exactly the locality fields; everything else binds data.
        if isinstance(f, s.BindLoc) != isinstance(v, VLoc):
            return ERR
        out[f.name] = v
    return out


# ---------------------------------------------------------------------------
# Well-sortedness

def well_sorted_value(v, sort) -> bool:
    """Check a value against an MType, or a row against a schema."""
    if isinstance(sort, tuple):
        if not isinstance(v, ValueTuple) or len(v) != len(sort):
            return False
        return all(well_sorted_value(c, t) for c, t in zip(v.components, sort))
    if isinstance(sort, s.Base):
        return scalar_kind(v) == sort.kind
    if isinstance(sort, s.MSet):
        return isinstance(v, VSet) and v.kind() in (None, sort.kind)
    raise TypeError(f"not a sort: {sort!r}")


def well_sorted_template(template: s.Template, sk: s.Schema) -> bool:
    """Whether a template fits a schema: `!@u` binds exactly the `Loc` columns."""
    if len(template.fields) != len(sk):
        return False
    return all(isinstance(f, s.BindLoc) == (t == s.LOC) for f, t in zip(template.fields, sk))


# ---------------------------------------------------------------------------
# Substitution

def value_to_expr(v: Value) -> s.Expr:
    literal = VALUE_LITERAL.get(v.__class__)
    if literal is not None:
        return literal(v)
    if isinstance(v, VSet):
        elems = sorted(v.elements, key=value_sort_key)
        return s.MultisetLit(tuple(value_to_expr(e) for e in elems))
    raise TypeError(f"not a value: {v!r}")


class _Subst(s.ScopedMap):
    """Replaces the variables env binds; binders in scope shadow them."""

    def bind(self, names, env):
        bound = [name for name, _ in names if name in env]
        if bound:
            env = {n: v for n, v in env.items() if n not in bound}
        return None, env

    def _var(self, node, env):
        if node.name not in env:
            return node
        v = env[node.name]
        if isinstance(v, s.TableLiteral):
            raise TypeError(f"table bound to {node.name!r} used as an expression")
        return value_to_expr(v)

    def _table_var(self, node, env):
        if node.name not in env:
            return node
        v = env[node.name]
        if not isinstance(v, s.TableLiteral):
            raise TypeError(f"non-table bound to table variable {node.name!r}")
        return v

    hooks = {s.DataVar: _var, s.LocVar: _var, s.TableByVar: _table_var}


_SUBST = _Subst()


def apply_subst(sigma: Subst, target):
    """Apply a substitution, respecting binders that shadow its domain."""
    if not sigma:
        return target
    return _SUBST.map(target, sigma)


# ---------------------------------------------------------------------------
# Schema projection

def _const_sort(e: s.Expr) -> Optional[s.MType]:
    if isinstance(e, s.MultisetLit):
        sorts = {literal_sort(el) for el in e.elements}
        if len(sorts) != 1 or None in sorts:
            return None
        return s.MSet(sorts.pop().kind)
    return literal_sort(e)


def project_schema(sk: s.Schema, template: s.Template, t: s.Tuple) -> Optional[s.Schema]:
    """Restrict a schema to the columns a payload tuple draws from.

    Each payload component is either a constant (contributing its own sort)
    or a variable bound by the template (contributing the bound column's
    sort).  Returns None when the projection is undefined.
    """
    if len(template.fields) != len(sk):
        return None
    if len(t.components) > len(template.fields):
        return None
    by_name = {f.name: i for i, f in enumerate(template.fields)}
    out = []
    for e in t.components:
        if isinstance(e, (s.DataVar, s.LocVar)):
            i = by_name.get(e.name)
            if i is None:
                return None
            out.append(sk[i])
        else:
            ts = _const_sort(e)
            if ts is None:
                return None
            out.append(ts)
    return tuple(out)


# ---------------------------------------------------------------------------
# Joins

def join_rows(tables) -> Multiset:
    """Flattened Cartesian product of row multisets, multiplicities multiplying."""
    counts: dict = {}
    for combo in itertools.product(*(t.items() for t in tables)):
        parts = []
        mult = 1
        for row, n in combo:
            parts.extend(row.components)
            mult *= n
        key = ValueTuple(tuple(parts))
        counts[key] = counts.get(key, 0) + mult
    return Multiset(counts)


# ---------------------------------------------------------------------------
# Loop orders and aggregation

def minimal(rows: Multiset, order: s.OrderSpec) -> frozenset:
    """Rows with no strictly preceding row; the support set when unordered.

    Every loop order is a total preorder on rows, so these are the rows of
    least key, or of greatest key under `desc`.
    """
    support = rows.support()
    if order.op == "unordered":
        return support
    if order.op == "lex":
        keys = {row: row_sort_key(row) for row in support}
    else:
        keys = {row: value_sort_key(row[order.col - 1]) for row in support}
    best = (max if order.op == "desc" else min)(keys.values(), default=None)
    return frozenset(row for row, key in keys.items() if key == best)


def aggr_row_ok(fn: s.AggrFn, row: ValueTuple) -> bool:
    """Whether a row fits the aggregator's input column requirements."""
    if fn.op == "count":
        return True
    i = fn.col - 1
    return 0 <= i < len(row) and isinstance(row[i], VInt)


def apply_aggr(fn: s.AggrFn, rows: Multiset) -> ValueTuple:
    """Aggregate a multiset of rows into a unary result tuple.

    Multiplicities count: a row occurring twice contributes twice to sums
    and counts.  Every aggregator returns 0 on the empty multiset, and the
    average is the floor of the integer division.
    """
    if fn.op == "count":
        return ValueTuple((VInt(len(rows)),))
    i = fn.col - 1
    if fn.op == "sum":
        total = sum(row[i].value * n for row, n in rows.items())
        return ValueTuple((VInt(total),))
    if fn.op == "avg":
        size = len(rows)
        if size == 0:
            return ValueTuple((VInt(0),))
        total = sum(row[i].value * n for row, n in rows.items())
        return ValueTuple((VInt(total // size),))
    vals = [row[i].value for row in rows.support()]
    if not vals:
        return ValueTuple((VInt(0),))
    return ValueTuple((VInt(min(vals) if fn.op == "min" else max(vals)),))
