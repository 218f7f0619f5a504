"""Pure semantic kernel: evaluation, matching, substitution, joins.

All operations are total functions that report failures through the ERR
sentinel rather than exceptions; the transition engine turns ERR outcomes
into monitored error states.

Expressions, predicates and tuples compile once into closures over a row's
cells (`compile_expr`, `compile_pred`, `compile_tuple`): `slots` maps each
variable to its cell, and each operator, which its node keeps as data,
picks its function and its kind test when it is compiled: an `Arith`'s
from the table `_BINARY`, a `Cmp`'s by its op.  The engine compiles an
action's predicate and payload once per pass over a table, with the
template's columns as slots, and runs them on each row's components: no
environment, no substituted copy.  `eval_expr`, `eval_pred` and
`eval_tuple` run a compiled term on an environment, the substitution a
match produced, whose names are its slots and its cells.  `apply_subst`
builds a substituted copy only for what runs on afterwards: the
continuation of a select or aggr, a loop body and a procedure body.  It is
a `syntax.ScopedMap`, so it respects the binders CHILDREN declares.  A
scalar constant is its value, so evaluating one returns it and
substitution puts a row's scalar value itself in place of a variable; only
a multiset value becomes a `MultisetLit`, of its elements in value order.

The kernel never looks a table up.  A join takes the row multisets of
tables the engine has already found, and the joined schema is the engine's
to build from their interfaces.
"""

from __future__ import annotations

import itertools
import operator
from typing import AbstractSet, Optional, Union

from kdb import syntax as s
from kdb.values import (
    KIND,
    Multiset,
    Value,
    ValueTuple,
    VLoc,
    VSet,
    row_sort_key,
    scalar_kind,
    value_sort_key,
)


class _EvalErr:
    """The marker of evaluation and matching failures; ERR is its one instance."""

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

def _constant(v):
    return lambda cells: v


def _div(a: int, b: int) -> int:
    """Division truncating toward zero; by zero it yields zero."""
    q = abs(a) // abs(b) if b else 0
    return q if (a >= 0) == (b >= 0) else -q


# op -> (the class of both operands and of the value, its function)
_BINARY = {"+": (int, operator.add), "-": (int, operator.sub), "*": (int, operator.mul),
           "/": (int, _div), "++": (str, operator.add)}


def compile_expr(e: s.Expr, slots: dict):
    """A closure giving the expression's value, or ERR, from a row's cells."""
    if e.__class__ in KIND:
        return _constant(e)  # a scalar constant is its value
    if isinstance(e, (s.DataVar, s.LocVar)):
        slot = slots.get(e.name)
        # A variable the slots do not bind is an evaluation error.
        return _constant(ERR) if slot is None else operator.itemgetter(slot)
    if isinstance(e, s.Arith):
        cls, op = _BINARY[e.op]
        left, right = compile_expr(e.left, slots), compile_expr(e.right, slots)

        def binary(cells):
            a, b = left(cells), right(cells)
            if a.__class__ is cls and b.__class__ is cls:
                return op(a, b)
            return ERR
        return binary
    if isinstance(e, s.MultisetLit):
        parts = [compile_expr(el, slots) for el in e.elements]

        def multiset(cells):
            vals = [part(cells) for part in parts]
            kinds = {KIND.get(v.__class__) for v in vals}  # an error, like a multiset, has none
            if None in kinds or len(kinds) > 1:
                return ERR
            return VSet(Multiset(vals))
        return multiset
    raise TypeError(f"not an expression: {e!r}")


def _proper_subset(a: VSet, b: VSet) -> Union[bool, _EvalErr]:
    ka, kb = a.kind(), b.kind()
    if ka is not None and kb is not None and ka != kb:
        return ERR
    for elem, n in a.elements.items():
        if b.elements.count(elem) < n:
            return False
    return a.elements != b.elements


# A comparison other than `sub` compares two scalars of one kind, and an
# ordering exists for integers (numeric) and strings (lexicographic) only.
_ORDERED = (int, str)
_SCALAR_CMP = {
    "=": (operator.eq, KIND), "!=": (operator.ne, KIND),
    "<": (operator.lt, _ORDERED), "<=": (operator.le, _ORDERED),
    ">": (operator.gt, _ORDERED), ">=": (operator.ge, _ORDERED),
}


def compile_pred(p: s.Pred, slots: dict):
    """A closure giving the predicate's truth, or ERR, from a row's cells."""
    if isinstance(p, s.TruePred):
        return _constant(True)
    if isinstance(p, s.Cmp):
        left, right = compile_expr(p.left, slots), compile_expr(p.right, slots)
        if p.op == "in":
            def member(cells):
                a, b = left(cells), right(cells)
                kind = KIND.get(a.__class__)
                if kind is None or b.__class__ is not VSet or b.kind() not in (None, kind):
                    return ERR
                return a in b.elements
            return member
        if p.op == "sub":
            def subset(cells):
                a, b = left(cells), right(cells)
                if a.__class__ is VSet and b.__class__ is VSet:
                    return _proper_subset(a, b)
                return ERR
            return subset
        compare, kinds = _SCALAR_CMP.get(p.op, (None, ()))  # no kind fits an unknown op

        def scalars(cells):
            a, b = left(cells), right(cells)
            if a.__class__ is not b.__class__ or a.__class__ not in kinds:
                return ERR  # an error has no kind
            return compare(a, b)
        return scalars
    if isinstance(p, s.Not):
        inner = compile_pred(p.inner, slots)

        def negation(cells):
            r = inner(cells)
            return r if r is ERR else not r
        return negation
    if isinstance(p, s.And):
        left, right = compile_pred(p.left, slots), compile_pred(p.right, slots)

        def conjunction(cells):
            # Error-strict: an error on either side wins even if the other is false.
            a, b = left(cells), right(cells)
            if a is ERR or b is ERR:
                return ERR
            return a and b
        return conjunction
    raise TypeError(f"not a predicate: {p!r}")


def compile_tuple(t: s.Tuple, slots: dict):
    """A closure giving the cells of the tuple's row, or ERR, from a row's
    cells, so that a caller builds the row only when it keeps it; None when
    that is the row itself: the i-th component is the variable of slot i,
    for every slot."""
    comps = t.components
    if len(comps) == len(slots) and all(
            isinstance(e, (s.DataVar, s.LocVar)) and slots.get(e.name) == i
            for i, e in enumerate(comps)):
        return None
    if all(e.__class__ in KIND for e in comps):
        return _constant(comps)  # a tuple of constants is its row's cells
    parts = [compile_expr(e, slots) for e in comps]

    def cells_of(cells):
        vals = tuple([part(cells) for part in parts])
        return ERR if ERR in vals else vals
    return cells_of


def eval_expr(e: s.Expr, env: Subst = _NO_ENV) -> Union[Value, _EvalErr]:
    """The value of an expression whose variables env binds to values."""
    if e.__class__ in KIND:
        return e  # a scalar constant is its value
    return compile_expr(e, dict(zip(env, env)))(env)


def eval_pred(p: s.Pred, env: Subst = _NO_ENV) -> Union[bool, _EvalErr]:
    return compile_pred(p, dict(zip(env, env)))(env)


def eval_tuple(t: s.Tuple, env: Subst = _NO_ENV) -> Union[ValueTuple, _EvalErr]:
    cells = compile_tuple(t, dict(zip(env, env)))(env)
    return cells if cells is ERR else ValueTuple(cells)


# ---------------------------------------------------------------------------
# Pattern matching

def match(et: ValueTuple, template: s.Template) -> Union[Subst, _EvalErr]:
    """Match an evaluated row against a template, producing a substitution."""
    if len(et) != len(template.fields):
        return ERR
    out: Subst = {}
    for v, f in zip(et, template.fields):
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
        return all(well_sorted_value(c, t) for c, t in zip(v, sort))
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
    if v.__class__ in KIND:
        return v
    if isinstance(v, VSet):
        elems = sorted(v.elements, key=value_sort_key)
        return s.MultisetLit(tuple(value_to_expr(e) for e in elems))
    raise TypeError(f"not a value: {v!r}")


class _Subst(s.ScopedMap):
    """Replaces the variables env binds; a binder in scope shadows one by
    binding it to None.  A variable bound to the wrong sort, which only an
    unchecked system has, stays in place: its action is then stuck or a
    monitored error."""

    def bind(self, names, env):
        for name in names:
            if env.get(name) is not None:
                env.bind(name, None)

    def _var(self, node, env):
        v = env.get(node.name)
        if v is None or isinstance(v, s.TableLiteral):
            return node
        return value_to_expr(v)

    def _table_var(self, node, env):
        v = env.get(node.name)
        return v if isinstance(v, s.TableLiteral) else node

    hooks = {s.DataVar: _var, s.LocVar: _var, s.TableByVar: _table_var}


_SUBST = _Subst()


def apply_subst(sigma: Subst, target):
    """Apply a substitution, respecting binders that shadow its domain."""
    if not sigma:
        return target
    return _SUBST.map(target, s.Scope(sigma))


# ---------------------------------------------------------------------------
# Schema projection

# One shared sort per scalar constant class: nodes are never assigned to.
_LITERAL_SORT = {cls: s.Base(kind) for cls, kind in KIND.items()}


def literal_sort(e: s.Expr) -> Optional[s.Base]:
    """The sort of a scalar constant; None for any other expression."""
    return _LITERAL_SORT.get(e.__class__)


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
    """Flattened Cartesian product of row multisets, multiplicities
    multiplying; one table joins to its own row multiset."""
    if len(tables) == 1:
        return tables[0]
    counts: dict = {}
    for combo in itertools.product(*(t.items() for t in tables)):
        parts = []
        mult = 1
        for row, n in combo:
            parts.extend(row)
            mult *= n
        key = ValueTuple(tuple(parts))
        counts[key] = counts.get(key, 0) + mult
    return Multiset.of_counts(counts)


# ---------------------------------------------------------------------------
# Loop orders and aggregation

def minimal(rows: Multiset, order: s.OrderSpec) -> AbstractSet:
    """Rows with no strictly preceding row; the support set when unordered.

    Every loop order is a total preorder on rows, so these are the rows of
    least key, or of greatest key under `desc`.  Rows and cells are compared
    in C, as `values.sorted_rows` compares them, and only when that raises
    are their keys computed.
    """
    support = rows.support()
    if order.op == "unordered":
        return support
    if order.op == "lex":
        value, key = (lambda row: row), row_sort_key
    else:
        value = cell = operator.itemgetter(order.col - 1)
        key = lambda row: value_sort_key(cell(row))  # noqa: E731
    pick = max if order.op == "desc" else min
    try:
        best = pick(map(value, support), default=None)
    except TypeError:
        value = key
        best = pick(map(value, support), default=None)
    return frozenset(row for row in support if value(row) == best)


def aggr_row_ok(fn: s.AggrFn, row: ValueTuple) -> bool:
    """Whether a row fits the aggregator's input column requirements."""
    if fn.op == "count":
        return True
    i = fn.col - 1
    return 0 <= i < len(row) and row[i].__class__ is int


def apply_aggr(fn: s.AggrFn, rows: Multiset) -> ValueTuple:
    """Aggregate a multiset of rows into a unary result tuple.

    Multiplicities count: a row occurring twice contributes twice to sums
    and counts.  Every aggregator returns 0 on the empty multiset, and the
    average is the floor of the integer division.
    """
    if fn.op == "count":
        return ValueTuple((len(rows),))
    i = fn.col - 1
    if fn.op == "sum":
        return ValueTuple((sum(row[i] * n for row, n in rows.items()),))
    if fn.op == "avg":
        size = len(rows)
        if size == 0:
            return ValueTuple((0,))
        return ValueTuple((sum(row[i] * n for row, n in rows.items()) // size,))
    vals = [row[i] for row in rows.support()]
    if not vals:
        return ValueTuple((0,))
    return ValueTuple((min(vals) if fn.op == "min" else max(vals),))
