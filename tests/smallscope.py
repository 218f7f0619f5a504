"""Tiny random nets and the dual-engine reachability comparison.

The nets deliberately mix well-typed and ill-typed actions so both engines
exercise their error monitors; agreement is checked on the full reachable
state set, keyed through the naive engine's own normal form.
"""

import random

import naive_engine
from kdb import semantics, syntax as s
from kdb.net import canonicalize
from kdb.values import Multiset, ValueTuple, VLoc

LOCS = ["l0", "l1"]
TIDS = ["A", "B"]


class SmallGen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.vc = 0
        self.tables = {}  # tid -> schema

    def fresh(self):
        self.vc += 1
        return f"x{self.vc}"

    def schema(self):
        return tuple(self.rng.choice([s.INT, s.STRING])
                     for _ in range(self.rng.randrange(1, 3)))

    def value(self, t):
        if t == s.INT:
            return self.rng.randrange(0, 3)
        return self.rng.choice("ab")

    def expr(self, t=None):
        rng = self.rng
        if t is None:
            t = rng.choice([s.INT, s.STRING])
        # sometimes the wrong type on purpose
        if rng.random() < 0.15:
            t = s.STRING if t == s.INT else s.INT
        if t == s.INT:
            if rng.random() < 0.3:
                return s.Arith(rng.choice(["+", "-"]), rng.randrange(3),
                               rng.randrange(3))
            return rng.randrange(3)
        return rng.choice("ab")

    def template_for(self, sk):
        n = len(sk) if self.rng.random() < 0.8 else self.rng.randrange(1, 4)
        return s.Template(tuple(s.BindData(self.fresh()) for _ in range(n)))

    def pred_over(self, template, sk):
        rng = self.rng
        if rng.random() < 0.4:
            return s.TruePred()
        names = template.names()
        i = rng.randrange(len(names))
        want = sk[i] if i < len(sk) else rng.choice([s.INT, s.STRING])
        return s.Cmp(rng.choice(["=", "!=", "<"]), s.Var(names[i]), self.expr(want))

    def action(self, depth):
        rng = self.rng
        tid = rng.choice(TIDS)
        loc = VLoc(rng.choice(LOCS))
        sk = self.tables.get(tid, self.schema())
        kind = rng.choice(["insert", "insert", "delete", "update", "aggr",
                           "select", "create", "drop", "eval"])
        if kind == "insert":
            payload = s.Tuple(tuple(self.expr(t) for t in sk))
            return s.Insert(tid, payload, loc)
        if kind == "delete":
            tpl = self.template_for(sk)
            return s.Delete(tid, tpl, self.pred_over(tpl, sk), loc)
        if kind == "update":
            tpl = self.template_for(sk)
            names = tpl.names()
            payload = s.Tuple(tuple(
                s.Var(rng.choice(names)) if rng.random() < 0.5 else self.expr(t)
                for t in sk))
            return s.Update(tid, tpl, self.pred_over(tpl, sk), payload, loc)
        if kind == "aggr":
            tpl = self.template_for(sk)
            col = rng.randrange(1, len(sk) + 1)
            fn = rng.choice([s.AggrFn("sum", col), s.AggrFn("count"), s.AggrFn("max", col)])
            return s.Aggr(tid, tpl, self.pred_over(tpl, sk), fn,
                          s.Template((s.BindData(self.fresh()),)), loc)
        if kind == "select":
            tpl = self.template_for(sk)
            names = tpl.names()
            payload = s.Tuple((s.Var(rng.choice(names)),))
            bind = self.fresh()
            cont = s.Foreach(s.TableByVar(bind),
                             s.Template((s.BindData(self.fresh()),)),
                             s.TruePred(), s.OrderSpec("unordered"), s.NilProc())
            action = s.Select((s.TableByName(tid, loc),), tpl,
                              self.pred_over(tpl, sk), payload, bind)
            return action, cont
        if kind == "create":
            return s.Create(tid, loc, sk)
        if kind == "drop":
            return s.Drop(tid, loc)
        inner = s.Prefix(s.Insert(tid, s.Tuple(tuple(self.expr(t) for t in sk)), loc),
                         s.NilProc())
        return s.Eval(inner, loc)

    def process(self, depth) -> s.Process:
        rng = self.rng
        if depth <= 0:
            return s.NilProc()
        if rng.random() < 0.15:
            return s.Seq(self.process(depth - 1), self.process(depth - 1))
        if rng.random() < 0.15:
            tid = rng.choice(TIDS)
            sk = self.tables.get(tid, self.schema())
            rows = Multiset([
                ValueTuple(tuple(self.value(t) for t in sk))
                for _ in range(rng.randrange(0, 3))
            ])
            tpl = self.template_for(sk)
            order = rng.choice([s.OrderSpec("unordered"), s.OrderSpec("asc", 1),
                                s.OrderSpec("lex")])
            body = self.process(depth - 1)
            return s.Foreach(s.TableLiteral(s.Interface(tid, sk), rows), tpl,
                             self.pred_over(tpl, sk), order, body)
        made = self.action(depth)
        if isinstance(made, tuple):
            action, cont = made
            return s.Prefix(action, cont)
        return s.Prefix(made, self.process(depth - 1))

    def net(self) -> s.Net:
        rng = self.rng
        parts = []
        used = set()
        for tid in rng.sample(TIDS, rng.randrange(0, 3)):
            sk = self.schema()
            self.tables[tid] = sk
            loc = rng.choice(LOCS)
            if (loc, tid) in used:
                continue
            used.add((loc, tid))
            rows = Multiset([
                ValueTuple(tuple(self.value(t) for t in sk))
                for _ in range(rng.randrange(0, 4))
            ])
            parts.append(s.Node(loc, s.TableComp(s.Interface(tid, sk), rows)))
        for _ in range(rng.randrange(1, 3)):
            parts.append(s.Node(rng.choice(LOCS), s.ProcComp(self.process(rng.randrange(1, 3)))))
        net = parts[0]
        for p in parts[1:]:
            net = s.ParNet(net, p)
        if rng.random() < 0.2:
            net = s.Restrict("priv", s.ParNet(net, s.Node("priv", s.ProcComp(s.NilProc()))))
        return net


def small_system(seed: int) -> s.System:
    rng = random.Random(seed)
    net = SmallGen(rng).net()
    return s.System(procedures={}, schema_decls=(), main_net=net)


def engine_reachable_keys(sys1: s.System, bound=5000) -> set:
    result = semantics.explore(sys1, bound=bound)
    assert not result.truncated
    keys = set()
    for cn in result.state_list:
        items = []
        for pair, n in cn.items.items():
            items.extend([pair] * n)
        keys.add(naive_engine.NaiveState(cn.restricted, items, cn.err).key())
    return keys


def naive_reachable_keys(sys1: s.System, bound=5000) -> set:
    return naive_engine.reachable(sys1.main_net, sys1.procedures, max_states=bound)


def compare_reachable(seed: int):
    """Returns (engine keys, naive keys) for one generated net."""
    sys1 = small_system(seed)
    return engine_reachable_keys(sys1), naive_reachable_keys(sys1), sys1
