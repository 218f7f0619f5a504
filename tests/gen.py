"""Random AST generation for the parser round-trip property.

Generated systems are scope-correct (every variable occurrence refers to an
enclosing binder of the right kind) and use globally distinct binder names,
so the parser's renaming pass is the identity on them and parse(render(x))
must reproduce x exactly.
"""

import random

from kdb import syntax as s
from kdb.values import Multiset, ValueTuple, VInt, VLoc, VSet, VStr, VTid

KINDS = ["Int", "String", "Id", "Loc"]


class AstGen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.var_counter = 0
        self.tid_counter = 0
        self.known_locs = [f"l{i}" for i in range(rng.randrange(1, 4))]
        self.restrict_counter = 0
        self.procs = {}

    def fresh_var(self) -> str:
        self.var_counter += 1
        return f"v{self.var_counter}"

    def fresh_tid(self) -> str:
        self.tid_counter += 1
        return f"T{self.tid_counter}"

    def fresh_restricted(self) -> str:
        self.restrict_counter += 1
        return f"r{self.restrict_counter}"

    # -- leaves

    def loc_name(self) -> str:
        return self.rng.choice(self.known_locs)

    def scalar_value(self, kind=None):
        rng = self.rng
        kind = kind or rng.choice(KINDS)
        if kind == "Int":
            return VInt(rng.randrange(-50, 50))
        if kind == "String":
            return VStr("".join(rng.choice("abc xyz") for _ in range(rng.randrange(0, 5))))
        if kind == "Id":
            return VTid(rng.choice(["KLD", "SH", "LAM"]))
        return VLoc(self.loc_name())

    def value(self, mtype=None):
        rng = self.rng
        if mtype is None:
            mtype = self.mtype()
        if isinstance(mtype, s.MSet):
            elems = [self.scalar_value(mtype.kind) for _ in range(rng.randrange(1, 4))]
            return VSet(Multiset(elems))
        return self.scalar_value(mtype.kind)

    def mtype(self) -> s.MType:
        rng = self.rng
        kind = rng.choice(KINDS)
        if rng.random() < 0.25:
            return s.MSet(kind)
        return s.Base(kind)

    def schema(self, max_arity=4) -> tuple:
        return tuple(self.mtype() for _ in range(self.rng.randrange(1, max_arity + 1)))

    # -- expressions

    def expr(self, env, depth=2) -> s.Expr:
        rng = self.rng
        data_vars = [n for n, kd in env.items() if kd == "data"]
        loc_vars = [n for n, kd in env.items() if kd == "loc"]
        leaves = ["int", "str", "tid", "loc"]
        if data_vars:
            leaves.extend(["dvar"] * 2)
        if loc_vars:
            leaves.append("lvar")
        if depth == 0 or rng.random() < 0.55:
            c = rng.choice(leaves)
            if c == "int":
                return VInt(rng.randrange(-99, 100))
            if c == "str":
                return VStr("".join(rng.choice('ab"\\n ') for _ in range(rng.randrange(0, 4))))
            if c == "tid":
                return VTid(self.fresh_tid())
            if c == "loc":
                return VLoc(self.loc_name())
            if c == "dvar":
                return s.DataVar(rng.choice(data_vars))
            return s.LocVar(rng.choice(loc_vars))
        c = rng.random()
        if c < 0.35:
            return s.Concat(self.expr(env, depth - 1), self.expr(env, depth - 1))
        if c < 0.75:
            op = rng.choice(["+", "-", "*", "/"])
            return s.Arith(op, self.expr(env, depth - 1), self.expr(env, depth - 1))
        elems = tuple(self.multiset_free_expr(env) for _ in range(rng.randrange(1, 4)))
        return s.MultisetLit(elems)

    def multiset_free_expr(self, env) -> s.Expr:
        e = self.expr(env, 1)
        while isinstance(e, s.MultisetLit):
            e = self.expr(env, 0)
        return e

    def pred(self, env, depth=2) -> s.Pred:
        rng = self.rng
        if depth == 0 or rng.random() < 0.4:
            c = rng.random()
            if c < 0.25:
                return s.TruePred()
            if c < 0.75:
                op = rng.choice(list(s.CMP_OPS[:-1]))
                return s.Cmp(op, self.expr(env, 1), self.expr(env, 1))
            if c < 0.85:
                return s.Cmp("sub", self.expr(env, 1), self.expr(env, 1))
            return s.Member(self.expr(env, 1), self.expr(env, 1))
        if rng.random() < 0.4:
            return s.Not(self.pred(env, depth - 1))
        return s.And(self.pred(env, depth - 1), self.pred(env, depth - 1))

    # -- templates, tuples, tables

    def template(self, max_arity=4):
        rng = self.rng
        fields = []
        binds = {}
        for _ in range(rng.randrange(1, max_arity + 1)):
            name = self.fresh_var()
            if rng.random() < 0.25:
                fields.append(s.BindLoc(name))
                binds[name] = "loc"
            else:
                fields.append(s.BindData(name))
                binds[name] = "data"
        return s.Template(tuple(fields)), binds

    def tuple_(self, env, max_arity=4) -> s.Tuple:
        n = self.rng.randrange(1, max_arity + 1)
        return s.Tuple(tuple(self.expr(env, 1) for _ in range(n)))

    def rows_for(self, sk, max_rows=3) -> Multiset:
        rows = [
            ValueTuple(tuple(self.value(t) for t in sk))
            for _ in range(self.rng.randrange(0, max_rows + 1))
        ]
        return Multiset(rows)

    def table_literal(self) -> s.TableLiteral:
        sk = self.schema()
        return s.TableLiteral(s.Interface(self.fresh_tid(), sk), self.rows_for(sk))

    def tableref(self, env) -> s.TableRef:
        rng = self.rng
        table_vars = [n for n, kd in env.items() if kd == "table"]
        c = rng.random()
        if table_vars and c < 0.35:
            return s.TableByVar(rng.choice(table_vars))
        if c < 0.75:
            loc_vars = [n for n, kd in env.items() if kd == "loc"]
            if loc_vars and rng.random() < 0.3:
                loc = s.LocVar(rng.choice(loc_vars))
            else:
                loc = VLoc(self.loc_name())
            return s.TableByName(self.fresh_tid(), loc)
        return self.table_literal()

    # -- actions and processes

    def loc_expr(self, env) -> s.Expr:
        loc_vars = [n for n, kd in env.items() if kd == "loc"]
        if loc_vars and self.rng.random() < 0.3:
            return s.LocVar(self.rng.choice(loc_vars))
        return VLoc(self.loc_name())

    def action(self, env, depth):
        """Returns (action, env extension for the continuation)."""
        rng = self.rng
        kind = rng.choice(["insert", "delete", "select", "update", "aggr",
                           "create", "drop", "eval"])
        if kind == "insert":
            return s.Insert(self.fresh_tid(), self.tuple_(env), self.loc_expr(env)), {}
        if kind == "delete":
            tpl, binds = self.template()
            return s.Delete(self.fresh_tid(), tpl, self.pred({**env, **binds}), self.loc_expr(env)), {}
        if kind == "select":
            tables = tuple(self.tableref(env) for _ in range(rng.randrange(1, 3)))
            tpl, binds = self.template()
            inner = {**env, **binds}
            bind = self.fresh_var()
            return s.Select(tables, tpl, self.pred(inner), self.tuple_(inner), bind), {bind: "table"}
        if kind == "update":
            tpl, binds = self.template()
            inner = {**env, **binds}
            return s.Update(self.fresh_tid(), tpl, self.pred(inner), self.tuple_(inner),
                            self.loc_expr(env)), {}
        if kind == "aggr":
            tpl, binds = self.template()
            inner = {**env, **binds}
            fn = rng.choice([s.AggrFn("sum", rng.randrange(1, 5)),
                             s.AggrFn("avg", rng.randrange(1, 5)), s.AggrFn("count"),
                             s.AggrFn("min", rng.randrange(1, 5)),
                             s.AggrFn("max", rng.randrange(1, 5))])
            out_tpl, out_binds = self.template(max_arity=1)
            return s.Aggr(self.fresh_tid(), tpl, self.pred(inner), fn, out_tpl,
                          self.loc_expr(env)), out_binds
        if kind == "create":
            return s.Create(self.fresh_tid(), self.loc_expr(env), self.schema()), {}
        if kind == "drop":
            return s.Drop(self.fresh_tid(), self.loc_expr(env)), {}
        return s.Eval(self.process(env, depth - 1), self.loc_expr(env)), {}

    def order(self) -> s.OrderSpec:
        rng = self.rng
        return rng.choice([s.OrderSpec("unordered"), s.OrderSpec("asc", rng.randrange(1, 4)),
                           s.OrderSpec("desc", rng.randrange(1, 4)), s.OrderSpec("lex")])

    def process(self, env, depth) -> s.Process:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.3:
            if self.procs and rng.random() < 0.3:
                name = rng.choice(list(self.procs))
                arity = self.procs[name]
                return s.CallProc(name, tuple(self.expr(env, 1) for _ in range(arity)))
            return s.NilProc()
        c = rng.random()
        if c < 0.55:
            action, ext = self.action(env, depth)
            return s.Prefix(action, self.process({**env, **ext}, depth - 1))
        if c < 0.8:
            tpl, binds = self.template()
            return s.Foreach(self.tableref(env), tpl, self.pred({**env, **binds}),
                             self.order(), self.process({**env, **binds}, depth - 1))
        return s.Seq(self.process(env, depth - 1), self.process(env, depth - 1))

    # -- components, nets, systems

    def component(self, depth) -> s.Component:
        rng = self.rng
        c = rng.random()
        if c < 0.35:
            t = self.table_literal()
            return s.TableComp(t.interface, t.rows)
        if c < 0.8:
            return s.ProcComp(self.process({}, depth))
        return s.ParComp(self.component(depth - 1), self.component(depth - 1))

    def net(self, depth=2) -> s.Net:
        rng = self.rng
        c = rng.random()
        if depth <= 0 or c < 0.15:
            return s.NilNet()
        if c < 0.6:
            return s.Node(self.loc_name(), self.component(2))
        if c < 0.85:
            return s.ParNet(self.net(depth - 1), self.net(depth - 1))
        name = self.fresh_restricted()
        inner = self.net(depth - 1)
        # reference the restricted name somewhere below, sometimes
        if rng.random() < 0.5:
            inner = s.ParNet(inner, s.Node(name, s.ProcComp(s.NilProc())))
        return s.Restrict(name, inner)

    def system(self) -> s.System:
        rng = self.rng
        decls = []
        for _ in range(rng.randrange(0, 3)):
            decls.append((self.fresh_tid(), self.schema()))
        procedures = {}
        for _ in range(rng.randrange(0, 3)):
            name = f"p{len(procedures)}"
            params = []
            env = {}
            for _ in range(rng.randrange(0, 3)):
                pname = self.fresh_var()
                ty = self.mtype()
                params.append((pname, ty))
                env[pname] = "loc" if ty == s.LOC else "data"
            self.procs[name] = len(params)
            body = self.process(env, rng.randrange(1, 3))
            procedures[name] = s.ProcDef(name, tuple(params), body)
        return s.System(procedures=procedures, schema_decls=tuple(decls), main_net=self.net())


def random_system(seed: int) -> s.System:
    return AstGen(random.Random(seed)).system()
