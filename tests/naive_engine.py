"""A deliberately naive reference enumerator for small nets.

This is the second route for checking the transition engine: it works on raw
net terms, flattens them with its own traversal, applies each transition rule
by direct case analysis over plain item lists, and normalizes successors with
its own unit-absorption code.  It evaluates and matches with the
interpretive reference evaluator (`reference_eval`), not the engine's
compiled one.  It shares the AST and the rest of the kernel (substitution,
joins, loop orders, aggregation) with the engine under test; redex
discovery, rule side conditions, successor construction, and congruence
normalization are reimplemented here.
"""

import itertools

import reference_eval as ref
from kdb import kernel as k
from kdb import syntax as s
from kdb.values import Multiset, VLoc

ERR_MARK = object()
ERR_STATE = ((), (), True)


def flatten_net(net):
    """(restricted names, [(loc, body)...], err) by direct recursion."""
    restricted = []
    items = []
    err = [False]

    def comp(loc, c):
        if isinstance(c, s.ParComp):
            comp(loc, c.left)
            comp(loc, c.right)
        elif isinstance(c, s.ProcComp):
            items.append((loc, c.process))
        else:
            items.append((loc, c))

    def walk(n):
        if isinstance(n, s.NilNet):
            return
        if isinstance(n, s.ErrNet):
            err[0] = True
            return
        if isinstance(n, s.ParNet):
            walk(n.left)
            walk(n.right)
            return
        if isinstance(n, s.Restrict):
            assert n.loc not in restricted, "oracle nets must use distinct names"
            restricted.append(n.loc)
            walk(n.inner)
            return
        comp(n.loc, n.component)

    walk(net)
    return tuple(restricted), items, err[0]


def absorb(items):
    """Drop inert processes at sites that host anything else; keep one loner."""
    busy = {loc for loc, body in items if not isinstance(body, s.NilProc)}
    out = [(loc, body) for loc, body in items if not isinstance(body, s.NilProc)]
    for loc in sorted({loc for loc, body in items
                       if isinstance(body, s.NilProc) and loc not in busy}):
        out.append((loc, s.NilProc()))
    return out


class NaiveState:
    def __init__(self, restricted, items, err=False):
        self.restricted = tuple(restricted)
        self.items = absorb(items)
        self.err = err

    def key(self):
        if self.err:
            return ERR_STATE

        def frozen(restricted, items):
            counted = {}
            for loc, body in items:
                kk = (loc, s.render(body))
                counted[kk] = counted.get(kk, 0) + 1
            return (tuple(restricted), tuple(sorted(counted.items())), False)

        if not self.restricted:
            return frozen((), self.items)
        # Restrictions commute, so the names are numbered in any order and
        # the numbers listed in one.
        numbers = tuple(f"ρ{i}" for i in range(len(self.restricted)))
        best = None
        for perm in itertools.permutations(self.restricted):
            ren = dict(zip(perm, numbers))
            items = [(ren.get(loc, loc), s.rename_localities(body, ren))
                     for loc, body in self.items]
            cand = frozen(numbers, items)
            if best is None or cand < best:
                best = cand
        return best


def from_net(net) -> NaiveState:
    restricted, items, err = flatten_net(net)
    return NaiveState(restricted, items, err)


def _known_locs(state: NaiveState):
    names = set(state.restricted)
    for loc, body in state.items:
        names.add(loc)
        names |= s.free_locs(body)
    return names


def _tables(state, loc, tid):
    return [i for i, (l, b) in enumerate(state.items)
            if l == loc and isinstance(b, s.TableComp) and b.interface.tid == tid]


def _loc_literal(e):
    return e.name if isinstance(e, VLoc) else None


def _rows_scan_err(rows, template, pred):
    for row in rows.support():
        sub = ref.match(row, template)
        if k.is_err(sub) or k.is_err(ref.eval_pred(k.apply_subst(sub, pred))):
            return True
    return False


def _keep_and_hit(rows, template, pred):
    keep, hit = {}, {}
    for row, n in rows.items():
        sub = ref.match(row, template)
        if not k.is_err(sub) and ref.eval_pred(k.apply_subst(sub, pred)) is True:
            hit[row] = n
        else:
            keep[row] = n
    return Multiset.of_counts(keep), Multiset.of_counts(hit)


def _steps(state, proc, sysdefs):
    """Successor descriptions for one acting process.

    Each entry is ERR_MARK or (new_actor_body, {table_index: new_body_or_None},
    [extra items]).
    """
    out = []
    if isinstance(proc, s.NilProc):
        return out
    if isinstance(proc, s.Prefix):
        a, cont = proc.action, proc.cont
        if isinstance(a, s.Insert):
            l2 = _loc_literal(a.loc)
            if l2 is None:
                return out
            for ti in _tables(state, l2, a.tid):
                table = state.items[ti][1]
                row = ref.eval_tuple(a.payload)
                if k.is_err(row) or not k.well_sorted_value(row, table.interface.schema):
                    out.append(ERR_MARK)
                else:
                    out.append((cont, {ti: s.TableComp(table.interface, table.rows.changed(added={row: 1}))}, []))
            return out
        if isinstance(a, s.Delete):
            l2 = _loc_literal(a.loc)
            if l2 is None:
                return out
            for ti in _tables(state, l2, a.tid):
                table = state.items[ti][1]
                if (not k.well_sorted_template(a.template, table.interface.schema)
                        or _rows_scan_err(table.rows, a.template, a.pred)):
                    out.append(ERR_MARK)
                else:
                    keep, _ = _keep_and_hit(table.rows, a.template, a.pred)
                    out.append((cont, {ti: s.TableComp(table.interface, keep)}, []))
            return out
        if isinstance(a, s.Update):
            l2 = _loc_literal(a.loc)
            if l2 is None:
                return out
            for ti in _tables(state, l2, a.tid):
                table = state.items[ti][1]
                sk = table.interface.schema
                if not k.well_sorted_template(a.template, sk):
                    out.append(ERR_MARK)
                    continue
                failed = False
                kept, fresh = {}, {}
                for row, n in table.rows.items():
                    sub = ref.match(row, a.template)
                    if k.is_err(sub):
                        failed = True
                        break
                    holds = ref.eval_pred(k.apply_subst(sub, a.pred))
                    image = ref.eval_tuple(k.apply_subst(sub, a.payload))
                    if k.is_err(holds) or k.is_err(image):
                        failed = True
                        break
                    if holds is True:
                        if not k.well_sorted_value(image, sk):
                            failed = True
                            break
                        fresh[image] = fresh.get(image, 0) + n
                    else:
                        kept[row] = n
                if failed:
                    out.append(ERR_MARK)
                else:
                    merged = Multiset.of_counts(kept).changed(added=fresh)
                    out.append((cont, {ti: s.TableComp(table.interface, merged)}, []))
            return out
        if isinstance(a, s.Aggr):
            l2 = _loc_literal(a.loc)
            if l2 is None:
                return out
            for ti in _tables(state, l2, a.tid):
                table = state.items[ti][1]
                sk = table.interface.schema
                bad = not k.well_sorted_template(a.template, sk)
                sub2 = None
                if not bad:
                    for row in table.rows.support():
                        sub = ref.match(row, a.template)
                        if (k.is_err(sub)
                                or k.is_err(ref.eval_pred(k.apply_subst(sub, a.pred)))
                                or not k.aggr_row_ok(a.fn, row)):
                            bad = True
                            break
                if not bad:
                    _, hit = _keep_and_hit(table.rows, a.template, a.pred)
                    sub2 = ref.match(k.apply_aggr(a.fn, hit), a.bind_template)
                    bad = k.is_err(sub2)
                if bad:
                    out.append(ERR_MARK)
                else:
                    out.append((k.apply_subst(sub2, cont), {}, []))
            return out
        if isinstance(a, s.Select):
            located = [(l, b.interface, b.rows) for l, b in state.items
                       if isinstance(b, s.TableComp)]
            sources = []
            for tb in a.tables:
                if isinstance(tb, s.TableLiteral):
                    sources.append((tb.interface, tb.rows))
                    continue
                if isinstance(tb, s.TableByVar) or not isinstance(tb.loc, VLoc):
                    return [ERR_MARK]
                hit = next(((i, r) for l, i, r in located
                            if l == tb.loc.name and i.tid == tb.tid), None)
                if hit is None:
                    return out
                sources.append(hit)
            jsk = tuple(sort for i, _ in sources for sort in i.schema)
            jrows = k.join_rows([r for _, r in sources])
            if not k.well_sorted_template(a.template, jsk):
                return [ERR_MARK]
            picked = {}
            for row, n in jrows.items():
                sub = ref.match(row, a.template)
                if k.is_err(sub):
                    return [ERR_MARK]
                holds = ref.eval_pred(k.apply_subst(sub, a.pred))
                image = ref.eval_tuple(k.apply_subst(sub, a.payload))
                if k.is_err(holds) or k.is_err(image):
                    return [ERR_MARK]
                if holds is True:
                    picked[image] = picked.get(image, 0) + n
            proj = k.project_schema(jsk, a.template, a.payload)
            if proj is None:
                return [ERR_MARK]
            bound = s.TableLiteral(s.Interface(None, proj), Multiset.of_counts(picked))
            return [(k.apply_subst({a.bind: bound}, cont), {}, [])]
        if isinstance(a, s.Create):
            l2 = _loc_literal(a.loc)
            if l2 is None or l2 not in _known_locs(state):
                return out
            taken = any(
                l == l2 and isinstance(b, s.TableComp) and b.interface.tid == a.tid
                for l, b in state.items)
            if taken:
                return [(cont, {}, [])]
            fresh = s.TableComp(s.Interface(a.tid, a.schema), Multiset())
            return [(cont, {}, [(l2, fresh)])]
        if isinstance(a, s.Drop):
            l2 = _loc_literal(a.loc)
            if l2 is None:
                return out
            for ti in _tables(state, l2, a.tid):
                out.append((cont, {ti: None}, []))
            return out
        if isinstance(a, s.Eval):
            l2 = _loc_literal(a.loc)
            if l2 is None or l2 not in _known_locs(state) or s.free_vars(a.process):
                return out
            return [(cont, {}, [(l2, a.process)])]
        raise AssertionError(a)
    if isinstance(proc, s.CallProc):
        d = sysdefs.get(proc.name)
        if d is None:
            return out
        vals = [ref.eval_expr(e) for e in proc.args]
        if any(k.is_err(v) for v in vals):
            return out
        body = k.apply_subst({n: v for (n, _), v in zip(d.params, vals)}, d.body)
        return [(body, {}, [])]
    if isinstance(proc, s.Foreach):
        if not isinstance(proc.table, s.TableLiteral):
            return out
        rows = proc.table.rows
        _, hit = _keep_and_hit(rows, proc.template, proc.pred)
        if hit:
            if proc.order.op in ("asc", "desc"):
                if any(not 1 <= proc.order.col <= len(r) for r in hit.support()):
                    return [ERR_MARK]
            for row in sorted(k.minimal(hit, proc.order), key=s.render_row):
                sub = ref.match(row, proc.template)
                rest = s.TableLiteral(proc.table.interface, rows.changed({row: 1}))
                follow = s.Seq(k.apply_subst(sub, proc.body),
                               s.Foreach(rest, proc.template, proc.pred,
                                         proc.order, proc.body))
                out.append((follow, {}, []))
            return out
        if _rows_scan_err(rows, proc.template, proc.pred):
            return [ERR_MARK]
        return [(s.NilProc(), {}, [])]
    if isinstance(proc, s.Seq):
        for step in _steps(state, proc.first, sysdefs):
            if step is ERR_MARK:
                out.append(ERR_MARK)
                continue
            advanced, changes, extra = step
            if isinstance(advanced, s.NilProc):
                out.append((proc.second, changes, extra))
            else:
                out.append((s.Seq(advanced, proc.second), changes, extra))
        return out
    raise AssertionError(proc)


def transitions(state: NaiveState, sysdefs) -> list:
    if state.err:
        return []
    out = []
    for idx, (loc, body) in enumerate(state.items):
        if isinstance(body, s.TableComp):
            continue
        for step in _steps(state, body, sysdefs):
            if step is ERR_MARK:
                out.append(NaiveState((), [], True))
                continue
            advanced, changes, extra = step
            items = []
            for i, (l, b) in enumerate(state.items):
                if i == idx:
                    items.append((l, advanced))
                elif i in changes:
                    if changes[i] is not None:
                        items.append((l, changes[i]))
                else:
                    items.append((l, b))
            items.extend(extra)
            out.append(NaiveState(state.restricted, items))
    return out


def reachable(net, sysdefs, max_states=5000):
    start = from_net(net)
    seen = {start.key()}
    frontier = [start]
    while frontier:
        nxt = []
        for st in frontier:
            for succ in transitions(st, sysdefs):
                key = succ.key()
                if key not in seen:
                    seen.add(key)
                    nxt.append(succ)
                    if len(seen) > max_states:
                        raise RuntimeError("state space too large for the oracle")
        frontier = nxt
    return seen
