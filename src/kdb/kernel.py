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
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

from kdb import syntax as s
from kdb.values import (
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
# Evaluation

def eval_expr(e: s.Expr, env: Subst = _NO_ENV) -> Union[Value, _EvalErr]:
    """The value of an expression whose variables env binds to values."""
    if isinstance(e, s.IntLit):
        return VInt(e.value)
    if isinstance(e, s.StrLit):
        return VStr(e.value)
    if isinstance(e, s.TidLit):
        return VTid(e.name)
    if isinstance(e, s.LocLit):
        return VLoc(e.name)
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
        vals = []
        for el in e.elements:
            v = eval_expr(el, env)
            if is_err(v):
                return ERR
            k = scalar_kind(v)
            if k is None:
                return ERR
            vals.append(v)
        if vals and len({scalar_kind(v) for v in vals}) != 1:
            return ERR
        return VSet(Multiset(vals))
    raise TypeError(f"not an expression: {e!r}")


def _cmp_scalars(op: str, a: Value, b: Value):
    ka, kb = scalar_kind(a), scalar_kind(b)
    if ka is None or kb is None or ka != kb:
        return ERR
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    if op in s.ORDERED_CMP_OPS:
        # Ordering exists for integers (numeric) and strings (lexicographic).
        if ka == "Int":
            x, y = a.value, b.value
        elif ka == "String":
            x, y = a.value, b.value
        else:
            return ERR
        if op == "<":
            return x < y
        if op == "<=":
            return x <= y
        if op == ">":
            return x > y
        return x >= y
    return ERR


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
        if scalar_kind(a) is None or not isinstance(b, VSet):
            return ERR
        bk = b.kind()
        if bk is not None and bk != scalar_kind(a):
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
        if isinstance(f, s.BindData):
            # Localities only bind locality fields; everything else binds data.
            if isinstance(v, VLoc):
                return ERR
            out[f.name] = v
        else:
            if not isinstance(v, VLoc):
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
        want = {"Int": VInt, "String": VStr, "Id": VTid, "Loc": VLoc}[sort.kind]
        return isinstance(v, want)
    if isinstance(sort, s.MSet):
        if not isinstance(v, VSet):
            return False
        k = v.kind()
        return k is None or k == sort.kind
    raise TypeError(f"not a sort: {sort!r}")


def well_sorted_field(f, sort) -> bool:
    if isinstance(f, s.BindData):
        return not (isinstance(sort, s.Base) and sort.kind == "Loc")
    if isinstance(f, s.BindLoc):
        return isinstance(sort, s.Base) and sort.kind == "Loc"
    raise TypeError(f"not a template field: {f!r}")


def well_sorted_template(template: s.Template, sk: s.Schema) -> bool:
    if len(template.fields) != len(sk):
        return False
    return all(well_sorted_field(f, t) for f, t in zip(template.fields, sk))


# ---------------------------------------------------------------------------
# Substitution

def value_to_expr(v: Value) -> s.Expr:
    if isinstance(v, VInt):
        return s.IntLit(v.value)
    if isinstance(v, VStr):
        return s.StrLit(v.value)
    if isinstance(v, VTid):
        return s.TidLit(v.name)
    if isinstance(v, VLoc):
        return s.LocLit(v.name)
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
    if isinstance(e, s.IntLit):
        return s.INT
    if isinstance(e, s.StrLit):
        return s.STRING
    if isinstance(e, s.TidLit):
        return s.ID
    if isinstance(e, s.LocLit):
        return s.LOC
    if isinstance(e, s.MultisetLit):
        kinds = set()
        for el in e.elements:
            t = _const_sort(el)
            if not isinstance(t, s.Base):
                return None
            kinds.add(t.kind)
        if len(kinds) != 1:
            return None
        return s.MSet(kinds.pop())
    return None


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

def _resolve_ref(ref: s.TableRef, located):
    """Resolve one table reference against located tables; None if impossible."""
    if isinstance(ref, s.TableLiteral):
        return ref.interface, ref.rows
    if isinstance(ref, s.TableByName):
        if not isinstance(ref.loc, s.LocLit):
            return None
        for loc, interface, rows in located:
            if loc == ref.loc.name and interface.tid == ref.tid:
                return interface, rows
        return None
    return None


def join_schemas(refs, located) -> Optional[s.Schema]:
    """Flattened product of the schemas of the referenced tables."""
    out = []
    for ref in refs:
        r = _resolve_ref(ref, located)
        if r is None:
            return None
        out.extend(r[0].schema)
    return tuple(out)


def join_rows(refs, located) -> Optional[Multiset]:
    """Flattened Cartesian product of row multisets, multiplicities multiplying."""
    tables = []
    for ref in refs:
        r = _resolve_ref(ref, located)
        if r is None:
            return None
        tables.append(r[1])
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

def _precedes(order: s.OrderSpec, a: ValueTuple, b: ValueTuple) -> bool:
    """The reflexive partial order used to pick loop candidates."""
    if a == b:
        return True
    if isinstance(order, s.Unordered):
        return False
    if isinstance(order, s.Asc):
        i = order.col - 1
        return value_sort_key(a[i]) < value_sort_key(b[i])
    if isinstance(order, s.Desc):
        i = order.col - 1
        return value_sort_key(a[i]) > value_sort_key(b[i])
    if isinstance(order, s.Lex):
        return row_sort_key(a) < row_sort_key(b)
    raise TypeError(f"not an order: {order!r}")


def minimal(rows: Multiset, order: s.OrderSpec) -> frozenset:
    """Rows with no strictly preceding row; the support set when unordered."""
    support = rows.support()
    return frozenset(
        t for t in support
        if all(u == t or not _precedes(order, u, t) for u in support)
    )


def aggr_row_ok(fn: s.AggrFn, row: ValueTuple) -> bool:
    """Whether a row fits the aggregator's input column requirements."""
    if isinstance(fn, s.AggCount):
        return True
    i = fn.col - 1
    return 0 <= i < len(row) and isinstance(row[i], VInt)


def apply_aggr(fn: s.AggrFn, rows: Multiset) -> ValueTuple:
    """Aggregate a multiset of rows into a unary result tuple.

    Multiplicities count: a row occurring twice contributes twice to sums
    and counts.  Every aggregator returns 0 on the empty multiset, and the
    average is the floor of the integer division.
    """
    if isinstance(fn, s.AggCount):
        return ValueTuple((VInt(len(rows)),))
    i = fn.col - 1
    if isinstance(fn, s.AggSum):
        total = sum(row[i].value * n for row, n in rows.items())
        return ValueTuple((VInt(total),))
    if isinstance(fn, s.AggAvg):
        size = len(rows)
        if size == 0:
            return ValueTuple((VInt(0),))
        total = sum(row[i].value * n for row, n in rows.items())
        return ValueTuple((VInt(total // size),))
    vals = [row[i].value for row in rows.support()]
    if not vals:
        return ValueTuple((VInt(0),))
    return ValueTuple((VInt(min(vals) if isinstance(fn, s.AggMin) else max(vals)),))
