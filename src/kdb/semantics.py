"""Small-step transition engine over canonical nets.

`enumerate_transitions` returns each enabled transition as its label and its
outcome; a `Transition` builds its successor net (`net.make_canonical`) only
when asked for it.  `run` builds the one it picks, `explore` all of them.

An outcome has one shape, `_Outcome(new_proc, remove, add)`: the acting
process item becomes new_proc at its locality and the remove items give way
to the add items.  A table write removes the old table and adds the new one.
An enumeration builds one map of the net's tables by (locality,
identifier), `net.tables_by_id`, and every action finds its `tid@loc`
tables there: insert, delete, update, aggr and drop say only what they do
to one table found there, a select joins the row multisets of the first
table found for each source, and a create is skipped when one is found.

The rows of a table action pass once through `_row_pass`, which judges
only the rows the acting process has not met (the verdicts it keeps).
Judging compiles the predicate, and the payload of an update or select,
once over the template's columns (`kernel.compile_pred`); a row whose width
and locality columns fit the template runs them on its cells, with no match
built, and only a hit builds its payload row.  The pass reports the first
row that fails, and counts the hits and the misses.
Errors are monitored there and where an action meets a schema: a bad
inserted row, a template that does not fit, a failing row, a new row or
aggregate that breaks its schema, an unresolvable select source or payload,
and a loop order naming a missing column.  A loop iterates on the rows that
hit; a failing row is an error only at loop exit.  A monitored error is
`kernel.ERR` in place of an outcome; its successor is the collapsed error
net, which has no transitions.

A step's cost does not grow with tables it does not touch, and of a table
it touches only the rows not met before are judged or rendered.  The
outcomes of a table action are a function of its prefix and the tables it
found, and those of a loop of the loop alone, so a process waiting at one
keeps them on its node (`_outcomes`) and hands them back while it finds
the same objects: a successor keeps every untouched item as the same object,
and the states `explore` reaches share them.  A successor is the parent's
item counts with the transition's items swapped (`net.make_canonical`), so
untouched items are not rehashed; the rendering `canonical_key` is computed
only for transitions that share a label, from the texts bodies and rows
keep; and tables are ordered by (locality, identifier), rendered only to
break a tie.
The `lid` integrity check reads each outcome's tables against the same
map.  It is off in a net whose `lid` already repeats, which the checker
rejects (`duplicate-table`), so only an unchecked run holds one.
`explore` deduplicates the states it reaches by one `net.StateKeys` per
call, which renders nothing and works on a body only the first time it
meets it.  Substitution builds new terms only for continuations: the process
after a select or aggr, a loop body and a procedure body.
"""

from __future__ import annotations

import random
from operator import is_
from typing import NamedTuple, Optional

from kdb import kernel as k
from kdb import net as netmod
from kdb import syntax as s
from kdb.net import ERR_NET, CanonicalNet, canonical_key, make_canonical
from kdb.values import Multiset, ValueTuple, VLoc, row_sort_key


class IntegrityError(AssertionError):
    pass


class TransitionLabel(NamedTuple):
    rule: str
    actor: str
    detail: str


class Trace(NamedTuple):
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


class _Outcome(NamedTuple):
    """Effect of one transition: the acting process item becomes new_proc at
    its locality, and the remove items give way to the add items.  A
    monitored error is `kernel.ERR` in place of an outcome."""
    new_proc: object
    remove: tuple = ()  # of item
    add: tuple = ()  # of item


class _RowPass(NamedTuple):
    failure: Optional[str]  # None, or "match" | "eval" for the first row that fails
    hits: dict  # row, or its payload value, -> count, where the predicate holds
    misses: dict  # row -> count, where it does not


def _row_pass(rows: Multiset, template: s.Template, pred: s.Pred, payload=None,
              seen=None) -> _RowPass:
    """The monitored pass of an action over rows, in the rows' order.

    A variable is read from the last template column of its name, where
    `kernel.match` binds it.  Every row is visited even after a failure, so
    a loop still finds the rows it can iterate on.  `seen` maps each row the
    action has met to its verdict (`_judge`), a function of the action and
    the row's value alone; only rows it lacks are judged, and added to it.
    """
    if seen is None:
        seen = {}
    judge = None
    failure = None
    hits, misses = {}, {}
    for row, n in rows.items():
        verdict = seen.get(row)
        if verdict is None:
            if judge is None:
                judge = _judge(template, pred, payload)
            verdict = seen[row] = judge(row)
        if verdict is False:
            misses[row] = n
        elif verdict.__class__ is str:
            failure = failure or verdict
        else:
            hits[verdict] = hits.get(verdict, 0) + n
    return _RowPass(failure, hits, misses)


def _judge(template: s.Template, pred: s.Pred, payload):
    """The verdict of an action on one row: "match" or "eval" when the row
    fails, False when the predicate does not hold, else the row or its
    payload value."""
    slots = {f.name: i for i, f in enumerate(template.fields)}
    locs = tuple(isinstance(f, s.BindLoc) for f in template.fields)
    vlocs = (VLoc,) * len(locs)
    test = k.compile_pred(pred, slots)
    make = None if payload is None else k.compile_tuple(payload, slots)

    def judge(row: ValueTuple):
        cells = row.components
        if len(cells) != len(locs) or tuple(map(isinstance, cells, vlocs)) != locs:
            return "match"
        holds = test(cells)
        image = None if make is None else make(cells)
        if holds is k.ERR or image is k.ERR:
            return "eval"
        if not holds:
            return False
        return row if image is None else ValueTuple(image)

    return judge


def _write(loc: str, tab: s.TableComp, rows: Multiset, cont: s.Process) -> _Outcome:
    return _Outcome(cont, remove=((loc, tab),), add=((loc, s.TableComp(tab.interface, rows)),))


def _insert(a: s.Insert, loc: str, tab: s.TableComp, cont: s.Process, seen) -> tuple:
    row = k.eval_tuple(a.payload)
    if k.is_err(row) or not k.well_sorted_value(row, tab.interface.schema):
        return "INS", f"insert into {a.tid}@{loc}: bad row format", k.ERR
    return ("INS", f"insert {s.render_row(row)} into {a.tid}@{loc}",
            _write(loc, tab, tab.rows.add(row), cont))


def _delete(a: s.Delete, loc: str, tab: s.TableComp, cont: s.Process, seen) -> tuple:
    if k.well_sorted_template(a.template, tab.interface.schema):
        found = _row_pass(tab.rows, a.template, a.pred, None, seen)
        if not found.failure:
            return ("DEL", f"delete {sum(found.hits.values())} row(s) from {a.tid}@{loc}",
                    _write(loc, tab, Multiset.of_counts(found.misses), cont))
    return "DEL", f"delete from {a.tid}@{loc}: format or evaluation error", k.ERR


def _update(a: s.Update, loc: str, tab: s.TableComp, cont: s.Process, seen) -> tuple:
    schema = tab.interface.schema
    if not k.well_sorted_template(a.template, schema):
        return "UPD", f"update {a.tid}@{loc}: template mismatch", k.ERR
    found = _row_pass(tab.rows, a.template, a.pred, a.payload, seen)
    if found.failure or not all(k.well_sorted_value(row, schema) for row in found.hits):
        return "UPD", f"update {a.tid}@{loc}: format or evaluation error", k.ERR
    rows = Multiset.of_counts(found.misses).union(Multiset.of_counts(found.hits))
    return ("UPD", f"update {sum(found.hits.values())} row(s) of {a.tid}@{loc}",
            _write(loc, tab, rows, cont))


def _aggr(a: s.Aggr, loc: str, tab: s.TableComp, cont: s.Process, seen) -> tuple:
    if k.well_sorted_template(a.template, tab.interface.schema):
        found = _row_pass(tab.rows, a.template, a.pred, None, seen)
        if not found.failure and all(k.aggr_row_ok(a.fn, row)
                                     for row in [*found.hits, *found.misses]):
            result = k.apply_aggr(a.fn, Multiset.of_counts(found.hits))
            sigma = k.match(result, a.bind_template)
            if not k.is_err(sigma):
                return ("AGR", f"aggregate over {a.tid}@{loc} -> {s.render_row(result)}",
                        _Outcome(k.apply_subst(sigma, cont)))
    return "AGR", f"aggregate over {a.tid}@{loc}: signature or evaluation error", k.ERR


def _drop(a: s.Drop, loc: str, tab: s.TableComp, cont: s.Process, seen) -> tuple:
    return "DRP", f"drop {a.tid}@{loc}", _Outcome(cont, remove=((loc, tab),))


# What an action naming `tid@loc` does to one table found there, given the
# verdicts its process keeps (`_outcomes`); insert and drop pass over no row
# and leave them empty.
_ON_TABLE = {s.Insert: _insert, s.Delete: _delete, s.Update: _update, s.Aggr: _aggr,
             s.Drop: _drop}


def _outcomes(proc, tables, compute) -> list:
    """The outcomes of proc, waiting at a table action or a loop, over the
    tables it found: those proc keeps in `_kept` while it finds the same
    tables, the same objects in the same number, else compute(verdicts), with
    the verdicts it keeps on every row its passes have met (`_row_pass`)."""
    kept = proc._kept
    if kept is None:
        verdicts = {}
    else:
        found, outcomes, verdicts = kept
        if len(found) == len(tables) and all(map(is_, found, tables)):
            return outcomes
    outcomes = compute(verdicts)
    object.__setattr__(proc, "_kept", (tables, outcomes, verdicts))
    return outcomes


def _action_outcomes(tables: dict, prefix: s.Prefix) -> list:
    """All (rule, detail, outcome) triples for the action of one prefix, in
    a net whose tables by (locality, identifier) are `tables`.

    A create or eval needs no check that its locality exists: it names a
    locality of its own process's body, and so of the net.
    """
    action, cont = prefix.action, prefix.cont
    if isinstance(action, s.Select):
        return _select_outcomes(tables, prefix)
    if not isinstance(action.loc, VLoc):
        return []
    loc = action.loc.name
    on_table = _ON_TABLE.get(type(action))
    if on_table is not None:
        found = tables.get((loc, action.tid), ())
        return _outcomes(prefix, found, lambda seen: [on_table(action, loc, tab, cont, seen)
                                                      for tab in found])
    if isinstance(action, s.Create):
        if (loc, action.tid) in tables:
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


def _select_outcomes(tables: dict, prefix: s.Prefix) -> list:
    action = prefix.action
    sources = []
    for tb in action.tables:
        if isinstance(tb, s.TableLiteral):
            sources.append(tb)
        elif isinstance(tb, s.TableByName) and isinstance(tb.loc, VLoc):
            found = tables.get((tb.loc.name, tb.tid))
            if not found:
                return []  # premise fails; may become enabled later
            sources.append(found[0])
        else:
            # An unresolvable source can never become resolvable: monitor it.
            return [("SEL", "select: unresolvable table source", k.ERR)]
    return _outcomes(prefix, sources, lambda seen: _select(action, sources, prefix.cont, seen))


def _select(action: s.Select, sources: list, cont: s.Process, seen: dict) -> list:
    jsk = tuple(sort for tab in sources for sort in tab.interface.schema)
    jrows = k.join_rows([tab.rows for tab in sources])
    if not k.well_sorted_template(action.template, jsk):
        return [("SEL", "select: template does not fit the joined schema", k.ERR)]
    found = _row_pass(jrows, action.template, action.pred, action.payload, seen)
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
            k.apply_subst(k.match(t0, p.template), p.body),
            s.Foreach(rest, p.template, p.pred, p.order, p.body),
        )
        out.append(("FOR_TT", f"iterate on {s.render_row(t0)}", _Outcome(succ)))
    return out


def _proc_outcomes(tables: dict, proc: s.Process, sys: s.System) -> list:
    if isinstance(proc, s.NilProc):
        return []
    if isinstance(proc, s.Prefix):
        return _action_outcomes(tables, proc)
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
        return _outcomes(proc, (), lambda _: _foreach_outcomes(proc))
    if isinstance(proc, s.Seq):
        lifted = []
        for rule, detail, oc in _proc_outcomes(tables, proc.first, sys):
            if k.is_err(oc):
                lifted.append((rule, detail, oc))
            elif isinstance(oc.new_proc, s.NilProc):
                lifted.append(("SEQ_FF", f"[{rule}] {detail}", oc._replace(new_proc=proc.second)))
            else:
                lifted.append(("SEQ_TT", f"[{rule}] {detail}",
                               oc._replace(new_proc=s.Seq(oc.new_proc, proc.second))))
        return lifted
    raise TypeError(f"not a process: {proc!r}")


def _apply(cn: CanonicalNet, actor_item, oc) -> CanonicalNet:
    if k.is_err(oc):
        return ERR_NET
    return make_canonical(cn, [actor_item, *oc.remove], [(actor_item[0], oc.new_proc), *oc.add])


def _repeats_table(tables: dict, oc) -> bool:
    """Whether applying oc to a net whose tables by (locality, identifier)
    are `tables`, none of them repeated, makes one repeat: a key ends with
    more than one table once the outcome's removals and additions are
    counted."""
    if k.is_err(oc):
        return False
    change: dict = {}
    for sign, items in ((-1, oc.remove), (1, oc.add)):
        for loc, body in items:
            if isinstance(body, s.TableComp):
                key = loc, body.interface.tid
                change[key] = change.get(key, 0) + sign
    return any(len(tables.get(key, ())) + n > 1 for key, n in change.items())


class Transition:
    """One enabled transition: its label and the outcome its actor item has
    in the net it was enumerated in.  The successor is built when it is first
    asked for, and a transition unpacks as the pair (label, successor)."""

    __slots__ = ("label", "outcome", "_parent", "_actor", "_succ")

    def __init__(self, label: TransitionLabel, parent: CanonicalNet, actor_item, outcome):
        self.label = label
        self.outcome = outcome
        self._parent = parent
        self._actor = actor_item
        self._succ = None

    @property
    def succ(self) -> CanonicalNet:
        if self._succ is None:
            self._succ = _apply(self._parent, self._actor, self.outcome)
        return self._succ

    def __iter__(self):
        return iter((self.label, self.succ))


def enumerate_transitions(cn: CanonicalNet, sys: s.System) -> list:
    """Every enabled transition as a `Transition`, deterministically ordered.

    Transitions are ordered by label (rule, actor, detail).  Transitions that
    share a label are ordered by the `str` of their successors'
    `canonical_key`, and those with equal keys are merged into the first one
    found, so only their successors are built here; a label held by one
    transition needs no key and no successor.  Every transition, not only
    the one a scheduler picks, must keep table identifiers unique; each
    outcome is checked against the net's tables by (locality, identifier),
    the one map (`net.tables_by_id`) every rule reads in this enumeration.
    A waiting process computes its outcomes only when the tables it finds
    are not those it kept them for (`_outcomes`).
    """
    if cn.err:
        return []
    tables = netmod.tables_by_id(cn)
    check = all(len(found) == 1 for found in tables.values())
    by_label = {}
    for pair, _ in cn.items.items():
        loc, body = pair
        if isinstance(body, s.TableComp):
            continue
        for rule, detail, oc in _proc_outcomes(tables, body, sys):
            if check and _repeats_table(tables, oc):
                raise IntegrityError(
                    f"transition {rule} at {loc} duplicated a table identifier")
            label = TransitionLabel(rule, loc, detail)
            by_label.setdefault(label, []).append(Transition(label, cn, pair, oc))
    out = []
    for label in sorted(by_label):  # by rule, actor and detail
        tied = by_label[label]
        if len(tied) > 1:
            keyed = {}
            for t in tied:
                keyed.setdefault(canonical_key(t.succ), t)
            tied = [keyed[key] for key in sorted(keyed, key=str)]
        out.extend(tied)
    return out


def step_interactive(cn: CanonicalNet, sys: s.System, chosen_index: int):
    """Apply exactly the chosen enabled transition: its (label, successor)."""
    transitions = enumerate_transitions(cn, sys)
    if not 0 <= chosen_index < len(transitions):
        raise IndexError(
            f"transition index {chosen_index} out of range ({len(transitions)} enabled)")
    return tuple(transitions[chosen_index])


def run(sys: s.System, seed: int = 0, max_steps: int = 10000) -> Trace:
    """Drive a whole run under a seeded uniform scheduler, building only the
    successor each step picks (and those of a tied label, which
    `enumerate_transitions` orders by key).  A run ends in "err" as soon as
    its net is the error net, the initial one included."""
    initial = netmod.canonicalize(sys.main_net)
    cn = initial
    rng = random.Random(seed)
    steps = []
    while not cn.err:
        transitions = enumerate_transitions(cn, sys)
        if not transitions or len(steps) >= max_steps:
            terminal = "step-limit" if transitions else "quiescent"
            return Trace(initial=initial, steps=steps, terminal=terminal)
        label, cn = transitions[rng.randrange(len(transitions))]
        steps.append((label, cn))
    return Trace(initial=initial, steps=steps, terminal="err")


class ExploreResult(NamedTuple):
    states: int
    err_reachable: bool
    quiescent: list  # of CanonicalNet
    edges: list  # of (state_index, label, state_index)
    state_list: list  # of CanonicalNet, BFS order
    truncated: bool


def explore(sys: s.System, bound: int = 10000) -> ExploreResult:
    """Bounded breadth-first exploration of the reachable state space.  The
    states share their untouched items, so a process waiting in many of
    them recomputes its outcomes only where it finds other tables than in
    the state it was last enumerated in (`_outcomes`)."""
    start = netmod.canonicalize(sys.main_net)
    keys = netmod.StateKeys(start.restricted)
    index = {keys.key(start): 0}
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
                key = keys.key(succ)
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
