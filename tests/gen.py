"""Random programs for the parser's tests.

`random_system` generates ASTs for the parse/render round trip.  They are
scope-correct (every variable occurrence refers to an enclosing binder of
the right kind) and use globally distinct binder names, so the parser's
renaming is the identity on them and parse(render(x)) must reproduce x
exactly.  `clash_source` generates source text whose names clash on
purpose, for differentials of that renaming.
"""

import random

from kdb import syntax as s
from kdb.values import Multiset, ValueTuple, VLoc, VSet, VTid

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
            return rng.randrange(-50, 50)
        if kind == "String":
            return "".join(rng.choice("abc xyz") for _ in range(rng.randrange(0, 5)))
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
                return rng.randrange(-99, 100)
            if c == "str":
                return "".join(rng.choice('ab"\\n ') for _ in range(rng.randrange(0, 4)))
            if c == "tid":
                return VTid(self.fresh_tid())
            if c == "loc":
                return VLoc(self.loc_name())
            if c == "dvar":
                return s.DataVar(rng.choice(data_vars))
            return s.LocVar(rng.choice(loc_vars))
        c = rng.random()
        if c < 0.35:
            return s.Arith("++", self.expr(env, depth - 1), self.expr(env, depth - 1))
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
            return s.Cmp("in", self.expr(env, 1), self.expr(env, 1))
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


# ---------------------------------------------------------------------------
# Clash-heavy source text
#
# Unlike `random_system`, these programs are text, and every name is drawn
# from a pool of two or three: restrictions, templates, select and aggr
# exports, parameters and loops reuse the names that also occur free, before
# and after their binders, in every sort.  So binders clash with each other
# and with free names, and the parser must rename them apart.  Some calls
# name no procedure or pass the wrong number of arguments, and a few
# templates bind a name twice, so some sources raise ParseError.

class ClashGen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.vars = ["x", "y", "z"][:rng.choice((2, 3))]
        self.locs = ["a", "b", "c"][:rng.choice((2, 3))]
        self.procs = {}  # name -> arity

    def var(self) -> str:
        return self.rng.choice(self.vars)

    def loc(self) -> str:
        return "$" + self.rng.choice(self.locs)

    def expr(self, depth=1) -> str:
        rng = self.rng
        c = rng.random()
        if depth <= 0 or c < 0.6:
            return rng.choice((self.var, self.var, self.loc, lambda: str(rng.randrange(-3, 4))))()
        if c < 0.8:
            return f"({self.expr(depth - 1)} + {self.expr(depth - 1)})"
        return "{" + ", ".join(self.expr(0) for _ in range(rng.randrange(1, 3))) + "}"

    def pred(self, depth=1) -> str:
        rng = self.rng
        c = rng.random()
        if depth <= 0 or c < 0.5:
            return rng.choice(("true", f"{self.expr()} = {self.expr()}",
                               f"{self.expr()} in {self.expr()}", f"({self.expr()}) < 2"))
        if c < 0.7:
            return f"!({self.pred(depth - 1)})"
        return f"({self.pred(depth - 1)}) && {self.pred(depth - 1)}"

    def tuple_(self) -> str:
        return "(" + ", ".join(self.expr() for _ in range(self.rng.randrange(1, 3))) + ")"

    def template(self, most=2) -> str:
        rng = self.rng
        names = rng.sample(self.vars, rng.randrange(1, most + 1))
        if rng.random() < 0.005:
            names.append(names[0])  # not linear: a ParseError
        return "(" + ", ".join(rng.choice(("!", "!", "!@")) + n for n in names) + ")"

    def loc_expr(self) -> str:
        return self.var() if self.rng.random() < 0.4 else self.loc()

    def rows(self) -> str:
        rng = self.rng
        rows = []
        for _ in range(rng.randrange(0, 4)):
            locs = ", ".join(self.loc() for _ in range(rng.randrange(1, 3)))
            rows.append(f"({self.loc()}, {rng.randrange(3)}, {{{locs}}})")
        return "table T : (Loc, Int, {Loc}) = {" + ", ".join(rows) + "}"

    def tableref(self) -> str:
        c = self.rng.random()
        if c < 0.3:
            return self.var()
        if c < 0.7:
            return f"T@{self.loc_expr()}"
        return self.rows()

    def action(self, depth) -> str:
        rng = self.rng
        kind = rng.choice(("insert", "delete", "select", "update", "aggr",
                           "create", "drop", "eval"))
        at = f"T@{self.loc_expr()}"
        if kind == "insert":
            return f"insert({at}, {self.tuple_()})"
        if kind == "delete":
            return f"delete({at}, {self.template()}, {self.pred()})"
        if kind == "select":
            tables = ", ".join(self.tableref() for _ in range(rng.randrange(1, 3)))
            return (f"select({tables}, {self.template()}, {self.pred()}, {self.tuple_()}, "
                    f"!{self.var()})")
        if kind == "update":
            return f"update({at}, {self.template()}, {self.pred()}, {self.tuple_()})"
        if kind == "aggr":
            return f"aggr({at}, {self.template()}, {self.pred()}, count, {self.template(1)})"
        if kind == "create":
            return f"create({at}, (Int))"
        if kind == "drop":
            return f"drop({at})"
        return f"eval({self.process(depth - 1)}, {self.loc_expr()})"

    def call(self) -> str:
        rng = self.rng
        if not self.procs or rng.random() < 0.04:
            return "q()"  # no such procedure: a ParseError
        name = rng.choice(list(self.procs))
        arity = self.procs[name]
        if rng.random() < 0.04:
            arity += 1  # a wrong number of arguments: a ParseError
        return f"{name}(" + ", ".join(self.expr() for _ in range(arity)) + ")"

    def process(self, depth) -> str:
        rng = self.rng
        c = rng.random()
        if depth <= 0 or c < 0.2:
            return self.call() if self.procs and rng.random() < 0.3 else "nil"
        if c < 0.65:
            return f"{self.action(depth)}. {self.process(depth - 1)}"
        if c < 0.85:
            return (f"foreach({self.tableref()}, {self.template()}, {self.pred()}, unordered): "
                    f"{self.process(depth - 1)}")
        return f"({self.process(depth - 1)}; {self.process(depth - 1)})"

    def component(self, depth) -> str:
        c = self.rng.random()
        if c < 0.3:
            return self.rows()
        if depth <= 0 or c < 0.8:
            return self.process(3)
        return f"{{ {self.component(depth - 1)} | {self.component(depth - 1)} }}"

    def net(self, depth) -> str:
        rng = self.rng
        c = rng.random()
        if depth <= 0 or c < 0.4:
            return f"{self.loc()} :: {self.component(1)}" if rng.random() < 0.9 else "nil"
        if c < 0.75:
            return f"(new {self.loc()}) {self.net(depth - 1)}"
        return f"({self.net(depth - 1)} || {self.net(depth - 1)})"

    def source(self) -> str:
        rng = self.rng
        defs = []
        for i in range(rng.randrange(0, 3)):
            arity = rng.randrange(0, 3)
            self.procs[f"p{i}"] = arity
            params = rng.sample(self.vars, arity)
            if arity and rng.random() < 0.03:
                params[-1] = params[0]  # a duplicate parameter: a ParseError
            types = [rng.choice(("Int", "Loc", "(Int, Loc)")) for _ in params]
            defs.append((f"p{i}", params, types))
        lines = ["schema T : (Loc, Int, {Loc})"]
        for i, (name, params, types) in enumerate(defs):
            sig = ", ".join(f"{p}: {t}" for p, t in zip(params, types))
            lines.append(("let " if i == 0 else "and ") + f"{name}({sig}) := {self.process(3)}")
        if defs:
            lines.append("in")
        lines.append(" || ".join(self.net(2) for _ in range(rng.randrange(1, 4))))
        return "\n".join(lines) + "\n"


def clash_source(seed: int) -> str:
    return ClashGen(random.Random(seed)).source()
