"""The engine's step as it was computed before delta successors and
label-first ordering, kept as the oracle for the faster step path.

- `rebuild_apply` builds a successor by subtracting and re-adding whole item
  multisets and re-absorbing inert units over every locality.
- `keyed_transitions` computes `canonical_key` for every transition and sorts
  by (rule, actor, detail, str(key)), merging equal (label, key) pairs.
- `keyed_explore` rebuilds every successor and keys it whole with
  `net.StateKeys`, where `semantics.explore` keys a successor from its
  parent's key parts and the transition's delta and builds only new states.
"""

from collections import Counter

from fixtures import fresh
from kdb import kernel as k
from kdb import semantics
from kdb import syntax as s
from kdb.net import ERR_NET, CanonicalNet, StateKeys, canonical_key, canonicalize, tables_by_id
from kdb.values import Multiset


def absorb_nil_units(items: list) -> list:
    """Drop inert processes at localities that host anything else."""
    locs_with_content = {loc for loc, body in items if not isinstance(body, s.NilProc)}
    out = []
    nil_only = {}
    for loc, body in items:
        if isinstance(body, s.NilProc):
            if loc not in locs_with_content:
                nil_only[loc] = (loc, body)
        else:
            out.append((loc, body))
    out.extend(nil_only.values())
    return out


def rebuild_apply(cn: CanonicalNet, actor_item, oc) -> CanonicalNet:
    if k.is_err(oc):
        return ERR_NET
    removed = [actor_item, *oc.remove]
    added = [(actor_item[0], oc.new_proc), *oc.add]
    items = cn.items.changed(Counter(removed), Counter(added))
    return CanonicalNet(tuple(cn.restricted), Multiset(absorb_nil_units(list(items))), cn.err)


def outcomes(cn: CanonicalNet, sys: s.System):
    """Every (actor item, rule, detail, outcome) enabled in cn, each actor's
    computed afresh on a copy of its body that keeps no outcome."""
    tables = tables_by_id(cn)
    for pair, _ in cn.items.items():
        loc, body = pair
        if isinstance(body, s.TableComp):
            continue
        for rule, detail, oc in semantics._proc_outcomes(tables, fresh(body), sys):
            yield pair, rule, detail, oc


def keyed_transitions(cn: CanonicalNet, sys: s.System) -> list:
    if cn.err:
        return []
    found = {}
    for pair, rule, detail, oc in outcomes(cn, sys):
        succ = rebuild_apply(cn, pair, oc)
        label = semantics.TransitionLabel(rule, pair[0], detail)
        found.setdefault((label, canonical_key(succ)), (label, succ))
    return [found[key] for key in sorted(
        found, key=lambda kv: (kv[0].rule, kv[0].actor, kv[0].detail, str(kv[1])))]


def keyed_explore(sys: s.System, bound: int, on_edge=None) -> semantics.ExploreResult:
    """`on_edge(parent, transition, rebuilt successor)` is called on every edge."""
    start = canonicalize(sys.main_net, sys.procedures)
    keys = StateKeys(start.restricted)
    index = {keys.key(keys.parts(start)): 0}
    states, edges, quiescent = [start], [], []
    frontier, truncated = [0], False
    while frontier:
        next_frontier = []
        for i in frontier:
            transitions = semantics.enumerate_transitions(states[i], sys)
            if not transitions and not states[i].err:
                quiescent.append(states[i])
            for t in transitions:
                succ = rebuild_apply(states[i], t._actor, t.outcome)
                if on_edge is not None:
                    on_edge(states[i], t, succ)
                key = keys.key(keys.parts(succ))
                j = index.get(key)
                if j is None:
                    if len(states) >= bound:
                        truncated = True
                        continue
                    j = index[key] = len(states)
                    states.append(succ)
                    next_frontier.append(j)
                edges.append((i, t.label, j))
        frontier = next_frontier
    return semantics.ExploreResult(len(states), any(cn.err for cn in states), quiescent, edges,
                                   states, truncated)
