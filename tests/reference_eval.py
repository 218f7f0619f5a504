"""The interpretive evaluator: the reference for `kdb.kernel`'s compiled one.

Each function walks its term on every call, under an environment that maps
variable names to values, and `match` builds that environment from a row.
`row_pass` is the engine's pass over a table written with them: each row is
matched, then its predicate and payload are evaluated under the match.
`kernel.compile_*` and `semantics._row_pass` must agree with them, errors
included, and `tests/naive_engine.py` evaluates with them, so that agreement
with the naive enumerator compares two independent evaluators.
"""

import operator

from kdb import syntax as s
from kdb.kernel import ERR, is_err
from kdb.values import KIND, Multiset, ValueTuple, VLoc, VSet, scalar_kind

_NO_ENV = {}  # never mutated


def eval_expr(e, env=_NO_ENV):
    """The value of an expression whose variables env binds to values."""
    if e.__class__ in KIND:
        return e  # a scalar constant is its value
    if isinstance(e, s.Var):
        # A variable env does not bind is an evaluation error.
        return env.get(e.name, ERR)
    if isinstance(e, s.Arith) and e.op == "++":
        a = eval_expr(e.left, env)
        b = eval_expr(e.right, env)
        if isinstance(a, str) and isinstance(b, str):
            return a + b
        return ERR
    if isinstance(e, s.Arith):
        a = eval_expr(e.left, env)
        b = eval_expr(e.right, env)
        if not (isinstance(a, int) and isinstance(b, int)):
            return ERR
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0:
                return 0
            q = abs(a) // abs(b)
            return q if (a >= 0) == (b >= 0) else -q
        raise ValueError(f"unknown arithmetic operator {e.op!r}")
    if isinstance(e, s.MultisetLit):
        vals = [eval_expr(el, env) for el in e.elements]
        kinds = {scalar_kind(v) for v in vals}  # an error, like a multiset, has none
        if None in kinds or len(kinds) > 1:
            return ERR
        return VSet(Multiset(vals))
    raise TypeError(f"not an expression: {e!r}")


_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _cmp_scalars(op, a, b):
    cls = type(a)
    if cls is not type(b) or cls not in KIND:  # two scalars of one kind
        return ERR
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    compare = _ORDER.get(op)
    # Ordering exists for integers (numeric) and strings (lexicographic).
    if compare is None or cls not in (int, str):
        return ERR
    return compare(a, b)


def _proper_subset(a, b):
    ka, kb = a.kind(), b.kind()
    if ka is not None and kb is not None and ka != kb:
        return ERR
    for elem, n in a.elements.items():
        if b.elements.count(elem) < n:
            return False
    return a.elements != b.elements


def eval_pred(p, env=_NO_ENV):
    if isinstance(p, s.TruePred):
        return True
    if isinstance(p, s.Cmp) and p.op == "in":
        a = eval_expr(p.left, env)
        b = eval_expr(p.right, env)
        if is_err(a) or is_err(b):
            return ERR
        ka = scalar_kind(a)
        if ka is None or not isinstance(b, VSet) or b.kind() not in (None, ka):
            return ERR
        return a in b.elements
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


def eval_tuple(t, env=_NO_ENV):
    vals = []
    for e in t.components:
        v = eval_expr(e, env)
        if is_err(v):
            return ERR
        vals.append(v)
    return ValueTuple(tuple(vals))


def match(et, template):
    """Match an evaluated row against a template, producing a substitution."""
    if len(et) != len(template.fields):
        return ERR
    out = {}
    for v, f in zip(et, template.fields):
        # Localities bind exactly the locality fields; everything else binds data.
        if isinstance(f, s.BindLoc) != isinstance(v, VLoc):
            return ERR
        out[f.name] = v
    return out


def row_pass(rows, template, pred, payload=None):
    """(failure, hits, misses) of a pass over rows, as `semantics._row_pass`
    defines them: failure is None, or "match" | "eval" for the first row
    that fails; hits maps each row, or its payload value, to its count where
    the predicate holds; misses maps each row where it does not."""
    failure = None
    hits, misses = {}, {}
    for row, n in rows.items():
        sigma = match(row, template)
        if is_err(sigma):
            failure = failure or "match"
            continue
        holds = eval_pred(pred, sigma)
        hit = row if payload is None else eval_tuple(payload, sigma)
        if is_err(holds) or is_err(hit):
            failure = failure or "eval"
        elif holds:
            hits[hit] = hits.get(hit, 0) + n
        else:
            misses[row] = n
    return failure, hits, misses
