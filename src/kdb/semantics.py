"""Small-step transition engine over canonical nets.

Each enabled transition is computed whole: enumerate_transitions returns the
successor nets themselves, so applying a transition is just picking one.

An outcome has one shape, `_Outcome(new_proc, remove, add)`: the acting
process item becomes new_proc at its locality and the remove items give way
to the add items.  A table write removes the old table and adds the new one.
Every action finds its `tid@loc` tables in one place, `net.find_tables`:
insert, delete, update, aggr and drop say only what they do to one table
found there, a select joins the row multisets of the first table found for
each source, and a create is skipped when one is found.

The rows of a table action pass once through `_row_pass`: each row is
matched against the template, and the predicate (with the payload of an
update or select) is evaluated under the match.  The pass reports the first
row that fails, and counts the hits and the misses.  Errors are monitored
there and where an action meets a schema: a bad inserted row, a template that
does not fit, a failing row, a new row or aggregate that breaks its schema,
an unresolvable select source or payload, and a loop order naming a missing
column.  A loop iterates on the rows that hit; a failing row is an error
only at loop exit.  A monitored error is `kernel.ERR` in place of an outcome; its successor is the
collapsed error net, which has no transitions.

A step's cost does not grow with tables it does not touch: a successor is
the parent's item counts with the transition's items swapped
(`net.make_canonical`), so untouched items are not rehashed; the rendering
`canonical_key` is computed only for transitions that share a label; and
tables are ordered by (locality, identifier), rendered only to break a tie.
Substitution builds new terms only for continuations: the process after a
select or aggr, a loop body and a procedure body.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

from kdb import kernel as k
from kdb import net as netmod
from kdb import syntax as s
from kdb.net import ERR_NET, CanonicalNet, canonical_key, lid, make_canonical, no_rep
from kdb.values import Multiset, row_sort_key


class IntegrityError(AssertionError):
    pass


@dataclass(frozen=True)
class TransitionLabel:
    rule: str
    actor: str
    detail: str


@dataclass
class Trace:
    initial: CanonicalNet
    steps: list  # of (TransitionLabel, CanonicalNet)
    terminal: str  # "quiescent" | "err" | "step-limit"

    def final(self) -> CanonicalNet:
        return self.steps[-1][1] if self.steps else self.initial

    def disabled(self) -> list:
        """Stuck processes left at quiescence, rendered for diagnostics."""
        if self.terminal != "quiescent":
            return []
        stuck = sorted(
            (loc, s.render(body))
            for (loc, body), n in self.final().items.items() for _ in range(n)
            if not isinstance(body, (s.TableComp, s.NilProc)))
        return [f"{loc} :: {text}" for loc, text in stuck]


@dataclass(frozen=True)
class _Outcome:
    """Effect of one transition: the acting process item becomes new_proc at
    its locality, and the remove items give way to the add items.  A
    monitored error is `kernel.ERR` in place of an outcome."""
    new_proc: object
    remove: tuple = ()  # of item
    add: tuple = ()  # of item


def known_localities(cn: CanonicalNet) -> frozenset:
    """Sites that exist for execution: restricted names plus every locality
    occurring anywhere in the current net."""
    names = set(cn.restricted)
    for (loc, body), _ in cn.items.items():
        names.add(loc)
        names |= s.loc_names(body)
    return frozenset(names)


def _is_known_locality(cn: CanonicalNet, loc: str) -> bool:
    """`loc in known_localities(cn)`, answered from the restricted names and
    the item localities before walking every item's body."""
    if loc in cn.restricted or any(iloc == loc for (iloc, _), _n in cn.items.items()):
        return True
    return loc in known_localities(cn)


def _loc_of(e: s.Expr):
    return e.name if isinstance(e, s.LocLit) else None


class _RowPass(NamedTuple):
    failure: Optional[str]  # None, or "match" | "eval" for the first row that fails
    hits: dict  # row, or its payload value, -> count, where the predicate holds
    misses: dict  # row -> count, where it does not
    envs: dict  # row -> its match, where the predicate holds


def _row_pass(rows: Multiset, template: s.Template, pred: s.Pred, payload=None) -> _RowPass:
    """The monitored pass of an action over rows.

    Each row is matched once, and the predicate, with the payload when one is
    given, is evaluated under the match.  Every row is visited even after a
    failure, so a loop still finds the rows it can iterate on.
    """
    failure = None
    hits, misses, envs = {}, {}, {}
    for row, n in rows.items():
        sigma = k.match(row, template)
        if k.is_err(sigma):
            failure = failure or "match"
            continue
        holds = k.eval_pred(pred, sigma)
        hit = row if payload is None else k.eval_tuple(payload, sigma)
        if k.is_err(holds) or k.is_err(hit):
            failure = failure or "eval"
        elif holds:
            hits[hit] = hits.get(hit, 0) + n
            envs[row] = sigma
        else:
            misses[row] = n
    return _RowPass(failure, hits, misses, envs)


def _write(loc: str, tab: s.TableComp, rows: Multiset, cont: s.Process) -> _Outcome:
    return _Outcome(cont, remove=((loc, tab),), add=((loc, s.TableComp(tab.interface, rows)),))


def _insert(a: s.Insert, loc: str, tab: s.TableComp, cont: s.Process) -> tuple:
    row = k.eval_tuple(a.payload)
    if k.is_err(row) or not k.well_sorted_value(row, tab.interface.schema):
        return "INS", f"insert into {a.tid}@{loc}: bad row format", k.ERR
    return ("INS", f"insert {s.render_row(row)} into {a.tid}@{loc}",
            _write(loc, tab, tab.rows.add(row), cont))


def _delete(a: s.Delete, loc: str, tab: s.TableComp, cont: s.Process) -> tuple:
    if k.well_sorted_template(a.template, tab.interface.schema):
        found = _row_pass(tab.rows, a.template, a.pred)
        if not found.failure:
            return ("DEL", f"delete {sum(found.hits.values())} row(s) from {a.tid}@{loc}",
                    _write(loc, tab, Multiset.of_counts(found.misses), cont))
    return "DEL", f"delete from {a.tid}@{loc}: format or evaluation error", k.ERR


def _update(a: s.Update, loc: str, tab: s.TableComp, cont: s.Process) -> tuple:
    schema = tab.interface.schema
    if not k.well_sorted_template(a.template, schema):
        return "UPD", f"update {a.tid}@{loc}: template mismatch", k.ERR
    found = _row_pass(tab.rows, a.template, a.pred, a.payload)
    if found.failure or not all(k.well_sorted_value(row, schema) for row in found.hits):
        return "UPD", f"update {a.tid}@{loc}: format or evaluation error", k.ERR
    rows = Multiset.of_counts(found.misses).union(Multiset.of_counts(found.hits))
    return ("UPD", f"update {sum(found.hits.values())} row(s) of {a.tid}@{loc}",
            _write(loc, tab, rows, cont))


def _aggr(a: s.Aggr, loc: str, tab: s.TableComp, cont: s.Process) -> tuple:
    if k.well_sorted_template(a.template, tab.interface.schema):
        found = _row_pass(tab.rows, a.template, a.pred)
        if not found.failure and all(k.aggr_row_ok(a.fn, row)
                                     for row in [*found.hits, *found.misses]):
            result = k.apply_aggr(a.fn, Multiset.of_counts(found.hits))
            sigma = k.match(result, a.bind_template)
            if not k.is_err(sigma):
                return ("AGR", f"aggregate over {a.tid}@{loc} -> {s.render_row(result)}",
                        _Outcome(k.apply_subst(sigma, cont)))
    return "AGR", f"aggregate over {a.tid}@{loc}: signature or evaluation error", k.ERR


def _drop(a: s.Drop, loc: str, tab: s.TableComp, cont: s.Process) -> tuple:
    return "DRP", f"drop {a.tid}@{loc}", _Outcome(cont, remove=((loc, tab),))


# What an action naming `tid@loc` does to one table found there.
_ON_TABLE = {s.Insert: _insert, s.Delete: _delete, s.Update: _update, s.Aggr: _aggr,
             s.Drop: _drop}


def _action_outcomes(cn: CanonicalNet, action: s.Action, cont: s.Process) -> list:
    """All (rule, detail, outcome) triples for one action at its redex."""
    if isinstance(action, s.Select):
        return _select_outcomes(cn, action, cont)
    loc = _loc_of(action.loc)
    if loc is None:
        return []
    on_table = _ON_TABLE.get(type(action))
    if on_table is not None:
        return [on_table(action, loc, tab, cont)
                for tab in netmod.find_tables(cn, loc, action.tid)]
    if not _is_known_locality(cn, loc):
        return []
    if isinstance(action, s.Create):
        if netmod.find_tables(cn, loc, action.tid):
            return [("CRT", f"create {action.tid}@{loc}: skipped, identifier taken",
                     _Outcome(cont))]
        table = s.TableComp(s.Interface(action.tid, action.schema), Multiset())
        return [("CRT", f"create {action.tid}@{loc}", _Outcome(cont, add=((loc, table),)))]
    if isinstance(action, s.Eval):
        if s.free_vars(action.process):
            return []
        return [("EVL", f"spawn process at {loc}",
                 _Outcome(cont, add=((loc, action.process),)))]
    raise TypeError(f"not an action: {action!r}")


_SELECT_FAILURE = {"match": "select: row fails to match the template",
                   "eval": "select: evaluation error"}


def _select_outcomes(cn: CanonicalNet, action: s.Select, cont: s.Process) -> list:
    sources = []
    for tb in action.tables:
        if isinstance(tb, s.TableLiteral):
            sources.append(tb)
        elif isinstance(tb, s.TableByName) and isinstance(tb.loc, s.LocLit):
            found = netmod.find_tables(cn, tb.loc.name, tb.tid)
            if not found:
                return []  # premise fails; may become enabled later
            sources.append(found[0])
        else:
            # An unresolvable source can never become resolvable: monitor it.
            return [("SEL", "select: unresolvable table source", k.ERR)]
    jsk = tuple(sort for tab in sources for sort in tab.interface.schema)
    jrows = k.join_rows([tab.rows for tab in sources])
    if not k.well_sorted_template(action.template, jsk):
        return [("SEL", "select: template does not fit the joined schema", k.ERR)]
    found = _row_pass(jrows, action.template, action.pred, action.payload)
    if found.failure:
        return [("SEL", _SELECT_FAILURE[found.failure], k.ERR)]
    proj = k.project_schema(jsk, action.template, action.payload)
    if proj is None:
        return [("SEL", "select: malformed payload for schema projection", k.ERR)]
    table = s.TableLiteral(s.Interface(None, proj), Multiset.of_counts(found.hits))
    return [(
        "SEL", f"select {sum(found.hits.values())} row(s) into !{action.bind}",
        _Outcome(k.apply_subst({action.bind: table}, cont)),
    )]


def _foreach_outcomes(p: s.Foreach) -> list:
    if not isinstance(p.table, s.TableLiteral):
        return []  # loops run over materialized tables only
    rows = p.table.rows
    found = _row_pass(rows, p.template, p.pred)
    if not found.hits:
        if found.failure:
            return [("FOR_FF", "loop exit: format or evaluation error", k.ERR)]
        return [("FOR_FF", "loop exhausted", _Outcome(s.NilProc()))]
    if (p.order.op not in s.COLUMNLESS
            and not 1 <= p.order.col <= min(len(row) for row in found.hits)):
        return [("FOR_TT", "loop order names a missing column", k.ERR)]
    out = []
    for t0 in sorted(k.minimal(Multiset.of_counts(found.hits), p.order), key=row_sort_key):
        rest = s.TableLiteral(p.table.interface, rows.subtract(Multiset([t0])))
        succ = s.Seq(
            k.apply_subst(found.envs[t0], p.body),
            s.Foreach(rest, p.template, p.pred, p.order, p.body),
        )
        out.append(("FOR_TT", f"iterate on {s.render_row(t0)}", _Outcome(succ)))
    return out


def _proc_outcomes(cn: CanonicalNet, proc: s.Process, sys: s.System) -> list:
    if isinstance(proc, s.NilProc):
        return []
    if isinstance(proc, s.Prefix):
        return _action_outcomes(cn, proc.action, proc.cont)
    if isinstance(proc, s.CallProc):
        d = sys.procedures.get(proc.name)
        if d is None:
            return []
        vals = []
        for e in proc.args:
            v = k.eval_expr(e)
            if k.is_err(v):
                return []
            vals.append(v)
        sigma = {name: v for (name, _), v in zip(d.params, vals)}
        return [("CALL", f"call {proc.name}", _Outcome(k.apply_subst(sigma, d.body)))]
    if isinstance(proc, s.Foreach):
        return _foreach_outcomes(proc)
    if isinstance(proc, s.Seq):
        lifted = []
        for rule, detail, oc in _proc_outcomes(cn, proc.first, sys):
            if k.is_err(oc):
                lifted.append((rule, detail, oc))
            elif isinstance(oc.new_proc, s.NilProc):
                lifted.append(("SEQ_FF", f"[{rule}] {detail}", replace(oc, new_proc=proc.second)))
            else:
                lifted.append(("SEQ_TT", f"[{rule}] {detail}",
                               replace(oc, new_proc=s.Seq(oc.new_proc, proc.second))))
        return lifted
    raise TypeError(f"not a process: {proc!r}")


def _apply(cn: CanonicalNet, actor_item, oc) -> CanonicalNet:
    if k.is_err(oc):
        return ERR_NET
    return make_canonical(cn, [actor_item, *oc.remove], [(actor_item[0], oc.new_proc), *oc.add])


def enumerate_transitions(cn: CanonicalNet, sys: s.System) -> list:
    """Every enabled transition as (label, successor), deterministically ordered.

    Transitions are ordered by label (rule, actor, detail).  Transitions that
    share a label are ordered by the `str` of their successors'
    `canonical_key`, and those with equal keys are merged into the first one
    found; a label held by one transition needs no key.  Every successor, not
    only the one a scheduler picks, must keep table identifiers unique.
    """
    if cn.err:
        return []
    before_ok = no_rep(lid(cn))
    by_label = {}
    for pair, _ in cn.items.items():
        loc, body = pair
        if isinstance(body, s.TableComp):
            continue
        for rule, detail, oc in _proc_outcomes(cn, body, sys):
            succ = _apply(cn, pair, oc)
            if before_ok and not succ.err and not no_rep(lid(succ)):
                raise IntegrityError(
                    f"transition {rule} at {loc} duplicated a table identifier")
            by_label.setdefault(TransitionLabel(rule, loc, detail), []).append(succ)
    out = []
    for label in sorted(by_label, key=lambda lb: (lb.rule, lb.actor, lb.detail)):
        succs = by_label[label]
        if len(succs) > 1:
            keyed = {}
            for succ in succs:
                keyed.setdefault(canonical_key(succ), succ)
            succs = [keyed[key] for key in sorted(keyed, key=str)]
        out.extend((label, succ) for succ in succs)
    return out


def step_interactive(cn: CanonicalNet, sys: s.System, chosen_index: int):
    """Apply exactly the chosen enabled transition."""
    transitions = enumerate_transitions(cn, sys)
    if not 0 <= chosen_index < len(transitions):
        raise IndexError(
            f"transition index {chosen_index} out of range ({len(transitions)} enabled)")
    return transitions[chosen_index]


def run(sys: s.System, seed: int = 0, max_steps: int = 10000) -> Trace:
    """Drive a whole run under a seeded uniform scheduler."""
    initial = netmod.canonicalize(sys.main_net)
    cn = initial
    rng = random.Random(seed)
    steps = []
    while True:
        transitions = enumerate_transitions(cn, sys)
        if not transitions or len(steps) >= max_steps:
            terminal = "step-limit" if transitions else "quiescent"
            return Trace(initial=initial, steps=steps, terminal=terminal)
        label, cn = transitions[rng.randrange(len(transitions))]
        steps.append((label, cn))
        if cn.err:
            return Trace(initial=initial, steps=steps, terminal="err")


@dataclass
class ExploreResult:
    states: int
    err_reachable: bool
    quiescent: list  # of CanonicalNet
    edges: list  # of (state_index, label, state_index)
    state_list: list  # of CanonicalNet, BFS order
    truncated: bool


def explore(sys: s.System, bound: int = 10000) -> ExploreResult:
    """Bounded breadth-first exploration of the reachable state space."""
    start = netmod.canonicalize(sys.main_net)
    index = {canonical_key(start): 0}
    states = [start]
    edges = []
    quiescent = []
    err_reachable = start.err
    frontier = [0]
    truncated = False
    while frontier:
        next_frontier = []
        for i in frontier:
            cn = states[i]
            transitions = enumerate_transitions(cn, sys)
            if not transitions and not cn.err:
                quiescent.append(cn)
                continue
            for label, succ in transitions:
                key = canonical_key(succ)
                j = index.get(key)
                if j is None:
                    if len(states) >= bound:
                        truncated = True
                        continue
                    j = len(states)
                    index[key] = j
                    states.append(succ)
                    next_frontier.append(j)
                    if succ.err:
                        err_reachable = True
                edges.append((i, label, j))
        frontier = next_frontier
    return ExploreResult(
        states=len(states),
        err_reachable=err_reachable,
        quiescent=quiescent,
        edges=edges,
        state_list=states,
        truncated=truncated,
    )
