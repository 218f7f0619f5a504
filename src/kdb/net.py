"""Canonical runtime representation of nets.

A canonical net is the net's parallel normal form: all restrictions are
extruded to a single outer prefix (renaming restricted localities apart when
extrusion would capture), every node is split into one item per co-located
process or table, and inert-process units are absorbed.  Rule matching in
the engine then becomes multiset lookup instead of congruence search.
`canonicalize` is one loop over an explicit stack, not a recursion.

`find_tables` is the one place that says where table `tid@loc` is: every
engine rule that names a table, select and create included, asks it.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass

from kdb import syntax as s
from kdb.values import Multiset, VInt, VLoc, VSet, VStr, VTid, sorted_rows


@dataclass(frozen=True)
class CanonicalNet:
    restricted: tuple  # locality names, outermost first
    items: Multiset  # of (loc, Process | TableComp)
    err: bool = False


def _is_table(body) -> bool:
    return isinstance(body, s.TableComp)


_NIL = s.NilProc()


def _item_sort_key(pair):
    loc, body = pair
    return (loc, 0 if _is_table(body) else 1, s.render(body))


def sorted_items(cn: CanonicalNet) -> list:
    """Items repeated by multiplicity, in deterministic order."""
    out = []
    for pair, n in sorted(cn.items.items(), key=lambda kv: _item_sort_key(kv[0])):
        out.extend([pair] * n)
    return out


def _absorb_nil(counts: dict, locs) -> None:
    """At each of locs, localities that hold an inert unit, keep one unit if
    the locality hosts nothing else and none if it does.  One scan of the
    items serves every locality."""
    if not locs:
        return
    busy = {loc for loc, body in counts if not isinstance(body, s.NilProc)}
    for loc in locs:
        if loc in busy:
            counts.pop((loc, _NIL), None)
        else:
            counts[loc, _NIL] = 1


def canonicalize(net: s.Net) -> CanonicalNet:
    """Normal form under structural congruence.

    Subterms pop off an explicit stack, left ones first: no Python frame per
    level (`free_locs`, a ScopedMap pass, still costs one).  A net is paired
    with the renaming of the restricted names in scope, a renamed component
    with its node's locality.  Inert units are kept, last, only where their
    locality holds nothing else.
    """
    used = set(s.free_locs(net))
    counter = itertools.count(1)
    restricted: list = []
    counts: dict = {}
    nil_locs: dict = {}  # an ordered set
    err = False
    stack = [(net, {})]
    while stack:
        n, ctx = stack.pop()
        if isinstance(n, (s.ParNet, s.ParComp)):
            stack += [(n.right, ctx), (n.left, ctx)]
        elif isinstance(n, s.Restrict):
            name = n.loc
            while name in used:
                name = f"{n.loc}#{next(counter)}"
            used.add(name)
            restricted.append(name)
            stack.append((n.inner, {**ctx, n.loc: name}))
        elif isinstance(n, s.Node):
            stack.append((s.rename_localities(n.component, ctx), ctx.get(n.loc, n.loc)))
        elif isinstance(n, (s.ProcComp, s.TableComp)):
            body = n.process if isinstance(n, s.ProcComp) else n
            if isinstance(body, s.NilProc):
                nil_locs[ctx] = None
            else:
                counts[ctx, body] = counts.get((ctx, body), 0) + 1
        elif isinstance(n, s.ErrNet):
            err = True
        elif not isinstance(n, s.NilNet):
            raise TypeError(f"not a net or a component: {n!r}")
    _absorb_nil(counts, nil_locs)
    return CanonicalNet(tuple(restricted), Multiset.of_counts(counts), err)


def make_canonical(parent: CanonicalNet, removed, added) -> CanonicalNet:
    """The canonical net `parent` becomes when `removed` items give way to `added`.

    It starts from a copy of the parent's item counts, takes one copy of each
    removed item away (never below zero) and adds one of each added item, so
    only the touched items are hashed.  Inert units are re-absorbed only at
    the touched localities; every other locality is already absorbed in a
    canonical parent.
    """
    counts = parent.items.copy_counts()
    for item in removed:
        n = counts.get(item, 0)
        if n > 1:
            counts[item] = n - 1
        else:
            counts.pop(item, None)
    for item in added:
        counts[item] = counts.get(item, 0) + 1
    touched = {loc for loc, _ in removed} | {loc for loc, _ in added}
    _absorb_nil(counts, [loc for loc in touched if (loc, _NIL) in counts])
    return CanonicalNet(parent.restricted, Multiset.of_counts(counts), parent.err)


ERR_NET = CanonicalNet((), Multiset(), True)


def to_net(cn: CanonicalNet) -> s.Net:
    """Expand back to a plain net term (restrictions outermost)."""
    if cn.err and not cn.items:
        return s.ErrNet()
    parts = []
    for loc, body in sorted_items(cn):
        comp = body if isinstance(body, s.TableComp) else s.ProcComp(body)
        parts.append(s.Node(loc, comp))
    if cn.err:
        parts.append(s.ErrNet())
    if not parts:
        net: s.Net = s.NilNet()
    else:
        net = parts[0]
        for p in parts[1:]:
            net = s.ParNet(net, p)
    for loc in reversed(cn.restricted):
        net = s.Restrict(loc, net)
    return net


# ---------------------------------------------------------------------------
# Table bookkeeping

def lid(cn: CanonicalNet) -> Multiset:
    """The multiset of (locality, table identifier) pairs of all tables."""
    return Multiset((loc, body.interface.tid) for (loc, body), n in cn.items.items()
                    if _is_table(body) for _ in range(n))


def no_rep(pairs: Multiset) -> bool:
    """True when no (locality, table identifier) pair repeats."""
    return all(n == 1 for _, n in pairs.items())


def table_entries(cn: CanonicalNet) -> list:
    """(loc, table, count) for every distinct table item, in deterministic order.

    The order is `_item_sort_key`'s without rendering every table: a table
    renders as `table <tid> : ...`, so at one locality render order is tid
    order.  Only tables that tie on (loc, tid), which only an unchecked net
    can hold, are rendered to break the tie.
    """
    entries = [(loc, body, n) for (loc, body), n in cn.items.items() if _is_table(body)]
    ties = Counter((loc, body.interface.tid) for loc, body, _ in entries)

    def key(entry):
        loc, body, _ = entry
        tid = body.interface.tid
        return (loc, tid, s.render(body) if ties[loc, tid] > 1 else "")

    return sorted(entries, key=key)


def find_tables(cn: CanonicalNet, loc: str, tid: str) -> list:
    """All tables named tid at loc, in deterministic order.

    They all tie on (loc, tid), so several different ones, which only an
    unchecked net can hold, are ordered by render.
    """
    found = [(body, n) for (iloc, body), n in cn.items.items()
             if iloc == loc and _is_table(body) and body.interface.tid == tid]
    if len(found) > 1:
        found.sort(key=lambda entry: s.render(entry[0]))
    return [body for body, n in found for _ in range(n)]


def ok(cn: CanonicalNet) -> bool:
    return not cn.err


# ---------------------------------------------------------------------------
# Comparison keys and dumps

def canonical_key(cn: CanonicalNet):
    """A key identifying the net up to congruence and renaming of restrictions.

    Restricted names are anonymized positionally; with several restrictions
    the minimum over their permutations is taken (restriction prefixes are
    tiny in practice).  The key renders every item, each body that a
    permutation leaves unchanged only once per call, so it is computed only
    where it decides something: `explore` deduplicates every reached state by
    it, and `semantics.enumerate_transitions` orders and merges the
    successors of transitions that share a label by it.
    """
    texts = {}  # id(body) -> render(body), for bodies a renaming leaves as they are
    best = None
    for perm in itertools.permutations(cn.restricted):  # no names: one empty perm
        mapping = {name: f"ρ{i}" for i, name in enumerate(perm)}
        rows = []
        for (loc, body), cnt in cn.items.items():
            body2 = s.rename_localities(body, mapping)
            if body2 is body:
                text = texts.get(id(body))
                if text is None:
                    text = texts[id(body)] = s.render(body)
            else:
                text = s.render(body2)
            rows.append((mapping.get(loc, loc), text, cnt))
        cand = tuple(sorted(rows))
        if best is None or cand < best:
            best = cand
    return (cn.err, len(cn.restricted), best)


def dump_tables(cn: CanonicalNet) -> list:
    """JSON-ready dump of every table, deterministic order."""
    out = []
    for loc, body, n in table_entries(cn):
        rows = [
            [_json_value(v) for v in row.components]
            for row in sorted_rows(body.rows)
        ]
        out.extend({
            "loc": loc,
            "tid": body.interface.tid,
            "schema": s.render_schema(body.interface.schema),
            "rows": rows,
        } for _ in range(n))
    return out


def _json_value(v):
    if isinstance(v, VInt):
        return v.value
    if isinstance(v, VStr):
        return v.value
    if isinstance(v, (VTid, VLoc)):
        return v.name
    if isinstance(v, VSet):
        return [_json_value(e) for e in sorted(v.elements, key=s.render_value)]
    raise TypeError(f"not a value: {v!r}")


def dump_json(cn: CanonicalNet) -> str:
    return json.dumps(dump_tables(cn), indent=2, sort_keys=False)
