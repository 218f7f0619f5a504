"""Small-step transition engine over canonical nets.

Each enabled transition is computed whole: enumerate_transitions returns the
successor nets themselves, so applying a transition is just picking one.
Monitored failures (format mismatches, evaluation errors) yield a successor
that is the collapsed error net; the engine gives that state no transitions.

A step's cost does not grow with tables it does not touch: a successor is
the parent's item counts with the transition's items swapped
(`net.make_canonical`), so untouched items are not rehashed; the rendering
`canonical_key` is computed only for transitions that share a label; and
tables are ordered by (locality, identifier), rendered only to break a tie.

Predicates and payloads are evaluated once per row under the row's match
(`kernel.eval_pred(pred, sigma)`); substitution builds new terms only for
continuations: the process after a select or aggr, a loop body and a
procedure body.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from kdb import kernel as k
from kdb import net as netmod
from kdb import syntax as s
from kdb.net import ERR_NET, CanonicalNet, canonical_key, lid, make_canonical, no_rep
from kdb.values import Multiset, row_sort_key

# Checks that every enumerated successor, not only the one a scheduler picks,
# preserves table-identifier integrity.  It costs one `lid` pass over the
# items (not the rows) per successor, so it stays on.
CHECK_INTEGRITY = True


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
    """Effect of one transition relative to the acting process item."""
    new_proc: object = None
    err: bool = False
    replace: tuple = ()  # of (old_item, new_item)
    remove: tuple = ()  # of item
    add: tuple = ()  # of item


_ERR_OUTCOME = _Outcome(err=True)


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


def _tables_at(cn: CanonicalNet, loc: str, tid: str) -> list:
    return netmod.find_tables(cn, loc, tid)


def _located_tables(cn: CanonicalNet) -> list:
    return [(loc, body.interface, body.rows) for loc, body, _ in netmod.table_entries(cn)]


def _loc_of(e: s.Expr):
    return e.name if isinstance(e, s.LocLit) else None


def _row_err_scan(rows: Multiset, template: s.Template, pred: s.Pred):
    """True when matching or the predicate fails on any row."""
    for row in rows.support():
        sigma = k.match(row, template)
        if k.is_err(sigma):
            return True
        if k.is_err(k.eval_pred(pred, sigma)):
            return True
    return False


def _satisfying(rows: Multiset, template: s.Template, pred: s.Pred) -> Multiset:
    out = {}
    for row, n in rows.items():
        sigma = k.match(row, template)
        if k.is_err(sigma):
            continue
        if k.eval_pred(pred, sigma) is True:
            out[row] = n
    return Multiset(out)


def _action_outcomes(cn: CanonicalNet, actor: str, action: s.Action, cont: s.Process,
                     sys: s.System) -> list:
    """All (rule, detail, outcome) triples for one action at its redex."""
    out = []
    if isinstance(action, s.Insert):
        l2 = _loc_of(action.loc)
        if l2 is None:
            return out
        for tab in _tables_at(cn, l2, action.tid):
            et = k.eval_tuple(action.payload)
            if k.is_err(et) or not k.well_sorted_value(et, tab.interface.schema):
                out.append(("INS", f"insert into {action.tid}@{l2}: bad row format",
                            _ERR_OUTCOME))
                continue
            new_tab = s.TableComp(tab.interface, tab.rows.add(et))
            out.append((
                "INS", f"insert {s.render_row(et)} into {action.tid}@{l2}",
                _Outcome(new_proc=cont, replace=(((l2, tab), (l2, new_tab)),)),
            ))
        return out
    if isinstance(action, s.Delete):
        l2 = _loc_of(action.loc)
        if l2 is None:
            return out
        for tab in _tables_at(cn, l2, action.tid):
            if (not k.well_sorted_template(action.template, tab.interface.schema)
                    or _row_err_scan(tab.rows, action.template, action.pred)):
                out.append(("DEL", f"delete from {action.tid}@{l2}: format or evaluation error",
                            _ERR_OUTCOME))
                continue
            keep = {}
            removed = 0
            for row, n in tab.rows.items():
                sigma = k.match(row, action.template)
                if k.eval_pred(action.pred, sigma) is True:
                    removed += n
                else:
                    keep[row] = n
            new_tab = s.TableComp(tab.interface, Multiset(keep))
            out.append((
                "DEL", f"delete {removed} row(s) from {action.tid}@{l2}",
                _Outcome(new_proc=cont, replace=(((l2, tab), (l2, new_tab)),)),
            ))
        return out
    if isinstance(action, s.Select):
        return _select_outcomes(cn, action, cont)
    if isinstance(action, s.Update):
        l2 = _loc_of(action.loc)
        if l2 is None:
            return out
        for tab in _tables_at(cn, l2, action.tid):
            sk = tab.interface.schema
            if not k.well_sorted_template(action.template, sk):
                out.append(("UPD", f"update {action.tid}@{l2}: template mismatch",
                            _ERR_OUTCOME))
                continue
            err = False
            kept = {}
            replaced = {}
            changed = 0
            for row, n in tab.rows.items():
                sigma = k.match(row, action.template)
                if k.is_err(sigma):
                    err = True
                    break
                holds = k.eval_pred(action.pred, sigma)
                new_row = k.eval_tuple(action.payload, sigma)
                if k.is_err(holds) or k.is_err(new_row):
                    err = True
                    break
                if holds is True:
                    if not k.well_sorted_value(new_row, sk):
                        err = True
                        break
                    replaced[new_row] = replaced.get(new_row, 0) + n
                    changed += n
                else:
                    kept[row] = n
            if err:
                out.append(("UPD", f"update {action.tid}@{l2}: format or evaluation error",
                            _ERR_OUTCOME))
                continue
            new_tab = s.TableComp(tab.interface, Multiset(kept).union(Multiset(replaced)))
            out.append((
                "UPD", f"update {changed} row(s) of {action.tid}@{l2}",
                _Outcome(new_proc=cont, replace=(((l2, tab), (l2, new_tab)),)),
            ))
        return out
    if isinstance(action, s.Aggr):
        l2 = _loc_of(action.loc)
        if l2 is None:
            return out
        for tab in _tables_at(cn, l2, action.tid):
            sk = tab.interface.schema
            bad = not k.well_sorted_template(action.template, sk)
            if not bad:
                for row in tab.rows.support():
                    sigma = k.match(row, action.template)
                    if (k.is_err(sigma)
                            or k.is_err(k.eval_pred(action.pred, sigma))
                            or not k.aggr_row_ok(action.fn, row)):
                        bad = True
                        break
            if not bad:
                sat = _satisfying(tab.rows, action.template, action.pred)
                result = k.apply_aggr(action.fn, sat)
                sigma2 = k.match(result, action.bind_template)
                bad = k.is_err(sigma2)
            if bad:
                out.append(("AGR", f"aggregate over {action.tid}@{l2}: signature or evaluation error",
                            _ERR_OUTCOME))
                continue
            out.append((
                "AGR",
                f"aggregate over {action.tid}@{l2} -> {s.render_row(result)}",
                _Outcome(new_proc=k.apply_subst(sigma2, cont)),
            ))
        return out
    if isinstance(action, s.Create):
        l2 = _loc_of(action.loc)
        if l2 is None or not _is_known_locality(cn, l2):
            return out
        interface = s.Interface(action.tid, action.schema)
        if (l2, action.tid) in lid(cn):
            out.append(("CRT", f"create {action.tid}@{l2}: skipped, identifier taken",
                        _Outcome(new_proc=cont)))
        else:
            out.append(("CRT", f"create {action.tid}@{l2}",
                        _Outcome(new_proc=cont, add=((l2, s.TableComp(interface, Multiset())),))))
        return out
    if isinstance(action, s.Drop):
        l2 = _loc_of(action.loc)
        if l2 is None:
            return out
        for tab in _tables_at(cn, l2, action.tid):
            out.append(("DRP", f"drop {action.tid}@{l2}",
                        _Outcome(new_proc=cont, remove=((l2, tab),))))
        return out
    if isinstance(action, s.Eval):
        l2 = _loc_of(action.loc)
        if l2 is None or not _is_known_locality(cn, l2):
            return out
        if s.free_vars(action.process):
            return out
        out.append(("EVL", f"spawn process at {l2}",
                    _Outcome(new_proc=cont, add=((l2, action.process),))))
        return out
    raise TypeError(f"not an action: {action!r}")


def _select_outcomes(cn: CanonicalNet, action: s.Select, cont: s.Process) -> list:
    located = _located_tables(cn)
    for tb in action.tables:
        if isinstance(tb, s.TableLiteral):
            continue
        if isinstance(tb, s.TableByVar) or not isinstance(getattr(tb, "loc", None), s.LocLit):
            # An unresolvable source can never become resolvable: monitor it.
            return [("SEL", "select: unresolvable table source", _ERR_OUTCOME)]
        if not any(loc == tb.loc.name and i.tid == tb.tid for loc, i, _ in located):
            return []  # premise fails; may become enabled later
    jsk = k.join_schemas(action.tables, located)
    jrows = k.join_rows(action.tables, located)
    assert jsk is not None and jrows is not None
    if not k.well_sorted_template(action.template, jsk):
        return [("SEL", "select: template does not fit the joined schema", _ERR_OUTCOME)]
    result = {}
    matched = 0
    for row, n in jrows.items():
        sigma = k.match(row, action.template)
        if k.is_err(sigma):
            return [("SEL", "select: row fails to match the template", _ERR_OUTCOME)]
        holds = k.eval_pred(action.pred, sigma)
        payload = k.eval_tuple(action.payload, sigma)
        if k.is_err(holds) or k.is_err(payload):
            return [("SEL", "select: evaluation error", _ERR_OUTCOME)]
        if holds is True:
            result[payload] = result.get(payload, 0) + n
            matched += n
    proj = k.project_schema(jsk, action.template, action.payload)
    if proj is None:
        return [("SEL", "select: malformed payload for schema projection", _ERR_OUTCOME)]
    table = s.TableLiteral(s.Interface(None, proj), Multiset(result))
    sigma2 = {action.bind: table}
    return [(
        "SEL", f"select {matched} row(s) into !{action.bind}",
        _Outcome(new_proc=k.apply_subst(sigma2, cont)),
    )]


def _foreach_outcomes(cn: CanonicalNet, p: s.Foreach) -> list:
    if not isinstance(p.table, s.TableLiteral):
        return []  # loops run over materialized tables only
    rows = p.table.rows
    sat = _satisfying(rows, p.template, p.pred)
    if sat:
        if isinstance(p.order, (s.Asc, s.Desc)):
            arity = min(len(r) for r in sat.support())
            if p.order.col > arity:
                return [("FOR_TT", "loop order names a missing column", _ERR_OUTCOME)]
        out = []
        for t0 in sorted(k.minimal(sat, p.order), key=row_sort_key):
            sigma = k.match(t0, p.template)
            rest = s.TableLiteral(p.table.interface, rows.subtract(Multiset([t0])))
            succ = s.Seq(
                k.apply_subst(sigma, p.body),
                s.Foreach(rest, p.template, p.pred, p.order, p.body),
            )
            out.append(("FOR_TT", f"iterate on {s.render_row(t0)}", _Outcome(new_proc=succ)))
        return out
    if _row_err_scan(rows, p.template, p.pred):
        return [("FOR_FF", "loop exit: format or evaluation error", _ERR_OUTCOME)]
    return [("FOR_FF", "loop exhausted", _Outcome(new_proc=s.NilProc()))]


def _proc_outcomes(cn: CanonicalNet, actor: str, proc: s.Process, sys: s.System) -> list:
    if isinstance(proc, s.NilProc):
        return []
    if isinstance(proc, s.Prefix):
        return _action_outcomes(cn, actor, proc.action, proc.cont, sys)
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
        body = k.apply_subst(sigma, d.body)
        return [("CALL", f"call {proc.name}", _Outcome(new_proc=body))]
    if isinstance(proc, s.Foreach):
        return _foreach_outcomes(cn, proc)
    if isinstance(proc, s.Seq):
        lifted = []
        for rule, detail, oc in _proc_outcomes(cn, actor, proc.first, sys):
            if oc.err:
                lifted.append((rule, detail, oc))
                continue
            if isinstance(oc.new_proc, s.NilProc):
                lifted.append(("SEQ_FF", f"[{rule}] {detail}",
                               _Outcome(new_proc=proc.second, replace=oc.replace,
                                        remove=oc.remove, add=oc.add)))
            else:
                lifted.append(("SEQ_TT", f"[{rule}] {detail}",
                               _Outcome(new_proc=s.Seq(oc.new_proc, proc.second),
                                        replace=oc.replace, remove=oc.remove, add=oc.add)))
        return lifted
    raise TypeError(f"not a process: {proc!r}")


def _apply(cn: CanonicalNet, actor_item, oc: _Outcome) -> CanonicalNet:
    if oc.err:
        return ERR_NET
    removed = [actor_item, *(old for old, _ in oc.replace), *oc.remove]
    added = [(actor_item[0], oc.new_proc), *(new for _, new in oc.replace), *oc.add]
    return make_canonical(cn, removed, added)


def enumerate_transitions(cn: CanonicalNet, sys: s.System) -> list:
    """Every enabled transition as (label, successor), deterministically ordered.

    Transitions are ordered by label (rule, actor, detail).  Transitions that
    share a label are ordered by the `str` of their successors'
    `canonical_key`, and those with equal keys are merged into the first one
    found; a label held by one transition needs no key.
    """
    if cn.err:
        return []
    before_ok = no_rep(lid(cn))
    by_label = {}
    for pair, _ in cn.items.items():
        loc, body = pair
        if isinstance(body, s.TableComp):
            continue
        for rule, detail, oc in _proc_outcomes(cn, loc, body, sys):
            succ = _apply(cn, pair, oc)
            if CHECK_INTEGRITY and before_ok and not succ.err and not no_rep(lid(succ)):
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
    for _ in range(max_steps):
        transitions = enumerate_transitions(cn, sys)
        if not transitions:
            return Trace(initial=initial, steps=steps, terminal="quiescent")
        label, succ = transitions[rng.randrange(len(transitions))]
        steps.append((label, succ))
        cn = succ
        if cn.err:
            return Trace(initial=initial, steps=steps, terminal="err")
    terminal = "quiescent" if not enumerate_transitions(cn, sys) else "step-limit"
    return Trace(initial=initial, steps=steps, terminal=terminal)


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
