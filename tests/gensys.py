"""Well-typed system generation and targeted corruption.

`typed_system` builds closed systems that the checker accepts by
construction: every action is assembled against the schemas of the tables it
touches, and every variable occurrence comes from an enclosing binder of the
right type.  `corrupt` then breaks one action in a way the checker must
catch and a run is likely to trip over; `corrupt_select_or_loop` breaks a
select or a loop anywhere in a process, which `corrupt` never does.
"""

import random

from kdb import syntax as s
from kdb.values import Multiset, ValueTuple, VLoc, VSet, VTid

STRING_POOL = ["red", "black", "white", "HB", "SB", "x", "y"]
ID_POOL = ["KLD", "SH", "LAM", "IMK"]


class TypedGen:
    def __init__(self, rng: random.Random, max_tables=3, max_rows=3, max_procs=2,
                 max_steps=4):
        self.rng = rng
        self.max_tables = max_tables
        self.max_rows = max_rows
        self.max_procs = max_procs
        self.max_steps = max_steps
        self.locs = [f"l{i}" for i in range(rng.randrange(1, 4))]
        self.var_counter = 0
        self.tid_counter = 0
        self.tables = {}  # tid -> (loc, schema)
        self.defined = {}  # procedure name -> ProcDef

    def fresh_var(self) -> str:
        self.var_counter += 1
        return f"v{self.var_counter}"

    def fresh_tid(self) -> str:
        self.tid_counter += 1
        return f"T{self.tid_counter}"

    def column_type(self) -> s.MType:
        r = self.rng.random()
        if r < 0.4:
            return s.INT
        if r < 0.7:
            return s.STRING
        if r < 0.8:
            return s.LOC
        if r < 0.9:
            return s.MSet("Id")
        return s.MSet("Int")

    def schema(self) -> tuple:
        return tuple(self.column_type() for _ in range(self.rng.randrange(1, 4)))

    def value_of(self, t: s.MType):
        rng = self.rng
        if t == s.INT:
            return rng.randrange(-9, 10)
        if t == s.STRING:
            return rng.choice(STRING_POOL)
        if t == s.LOC:
            return VLoc(rng.choice(self.locs))
        if t == s.ID:
            return VTid(rng.choice(ID_POOL))
        if isinstance(t, s.MSet):
            base = s.Base(t.kind)
            elems = [self.value_of(base) for _ in range(rng.randrange(1, 3))]
            return VSet(Multiset(elems))
        raise AssertionError(t)

    def literal_of(self, t: s.MType) -> s.Expr:
        rng = self.rng
        if t == s.INT:
            return rng.randrange(-9, 10)
        if t == s.STRING:
            return rng.choice(STRING_POOL)
        if t == s.LOC:
            return VLoc(rng.choice(self.locs))
        if t == s.ID:
            return VTid(rng.choice(ID_POOL))
        if isinstance(t, s.MSet):
            base = s.Base(t.kind)
            elems = tuple(self.literal_of(base) for _ in range(rng.randrange(1, 3)))
            return s.MultisetLit(elems)
        raise AssertionError(t)

    # -- typed expressions under an environment {name: MType}

    def expr_of(self, env: dict, t: s.MType, depth=1) -> s.Expr:
        rng = self.rng
        candidates = [n for n, ty in env.items() if ty == t]
        if candidates and rng.random() < 0.5:
            return s.Var(rng.choice(candidates))
        if depth > 0 and t == s.INT and rng.random() < 0.4:
            op = rng.choice(["+", "-", "*", "/"])
            return s.Arith(op, self.expr_of(env, s.INT, depth - 1),
                           self.expr_of(env, s.INT, depth - 1))
        if depth > 0 and t == s.STRING and rng.random() < 0.25:
            return s.Arith("++", self.expr_of(env, s.STRING, depth - 1),
                            self.expr_of(env, s.STRING, depth - 1))
        return self.literal_of(t)

    def payload_component(self, env: dict, t: s.MType) -> s.Expr:
        """Constant-or-variable component, as selection payloads require."""
        rng = self.rng
        candidates = [n for n, ty in env.items() if ty == t]
        if candidates and rng.random() < 0.7:
            return s.Var(rng.choice(candidates))
        return self.literal_of(t)

    def pred_over(self, env: dict, depth=1) -> s.Pred:
        rng = self.rng
        if rng.random() < 0.25:
            return s.TruePred()
        if depth > 0 and rng.random() < 0.3:
            if rng.random() < 0.5:
                return s.Not(self.pred_over(env, depth - 1))
            return s.And(self.pred_over(env, depth - 1), self.pred_over(env, depth - 1))
        scalars = [(n, ty) for n, ty in env.items() if isinstance(ty, s.Base)]
        msets = [(n, ty) for n, ty in env.items() if isinstance(ty, s.MSet)]
        if msets and rng.random() < 0.3:
            name, ty = rng.choice(msets)
            return s.Cmp("in", self.literal_of(s.Base(ty.kind)), s.Var(name))
        if scalars:
            name, ty = rng.choice(scalars)
            var = s.Var(name)
            if ty.kind in ("Int", "String"):
                op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
            else:
                op = rng.choice(["=", "!="])
            return s.Cmp(op, var, self.expr_of(env, ty, 0))
        return s.Cmp("=", 1, 1)

    def template_for(self, sk: tuple):
        fields = []
        binds = {}
        for t in sk:
            name = self.fresh_var()
            if t == s.LOC:
                fields.append(s.BindLoc(name))
            else:
                fields.append(s.BindData(name))
            binds[name] = t
        return s.Template(tuple(fields)), binds

    # -- typed actions

    def pick_table(self):
        tid = self.rng.choice(list(self.tables))
        loc, sk = self.tables[tid]
        return tid, loc, sk

    def typed_action(self, env: dict, depth: int):
        """Returns (action, env extension for the continuation)."""
        rng = self.rng
        kinds = ["insert", "insert", "delete", "update", "aggr", "select", "create", "drop"]
        if depth > 1:
            kinds.append("eval")
        kind = rng.choice(kinds)
        if kind == "create":
            tid = self.fresh_tid()
            sk = self.schema()
            loc = rng.choice(self.locs)
            self.tables[tid] = (loc, sk)
            return s.Create(tid, VLoc(loc), sk), {}
        tid, loc, sk = self.pick_table()
        if kind == "insert":
            payload = s.Tuple(tuple(self.expr_of(env, t) for t in sk))
            return s.Insert(tid, payload, VLoc(loc)), {}
        if kind == "delete":
            tpl, binds = self.template_for(sk)
            return s.Delete(tid, tpl, self.pred_over({**env, **binds}), VLoc(loc)), {}
        if kind == "update":
            tpl, binds = self.template_for(sk)
            inner = {**env, **binds}
            names = list(binds)
            payload = []
            for i, t in enumerate(sk):
                if rng.random() < 0.6:
                    var = s.Var(names[i])
                    if t == s.INT and rng.random() < 0.5:
                        payload.append(s.Arith(rng.choice(["+", "-"]), var, rng.randrange(1, 4)))
                    else:
                        payload.append(var)
                else:
                    payload.append(self.expr_of(inner, t))
            return s.Update(tid, tpl, self.pred_over(inner), s.Tuple(tuple(payload)),
                            VLoc(loc)), {}
        if kind == "aggr":
            tpl, binds = self.template_for(sk)
            int_cols = [i + 1 for i, t in enumerate(sk) if t == s.INT]
            if int_cols and rng.random() < 0.7:
                col = rng.choice(int_cols)
                fn = rng.choice([s.AggrFn(op, col) for op in ("sum", "avg", "min", "max")])
            else:
                fn = s.AggrFn("count")
            out = self.fresh_var()
            a = s.Aggr(tid, tpl, self.pred_over({**env, **binds}), fn,
                       s.Template((s.BindData(out),)), VLoc(loc))
            return a, {out: s.INT}
        if kind == "select":
            refs = [s.TableByName(tid, VLoc(loc))]
            joined = list(sk)
            if len(self.tables) > 1 and rng.random() < 0.4:
                tid2, loc2, sk2 = self.pick_table()
                refs.append(s.TableByName(tid2, VLoc(loc2)))
                joined.extend(sk2)
            tpl, binds = self.template_for(tuple(joined))
            inner = {**env, **binds}
            names = list(binds)
            ncols = rng.randrange(1, min(3, len(joined)) + 1)
            picked = rng.sample(range(len(joined)), ncols)
            payload = []
            out_schema = []
            for i in picked:
                t = joined[i]
                if rng.random() < 0.8:
                    payload.append(s.Var(names[i]))
                    out_schema.append(t)
                else:
                    comp = self.payload_component(env, t)
                    payload.append(comp)
                    out_schema.append(t)
            bind = self.fresh_var()
            a = s.Select(tuple(refs), tpl, self.pred_over(inner),
                         s.Tuple(tuple(payload)), bind)
            return a, {bind: ("table", tuple(out_schema))}
        if kind == "drop":
            return s.Drop(tid, VLoc(loc)), {}
        if kind == "eval":
            inner = self.typed_process({}, depth - 1)
            return s.Eval(inner, VLoc(rng.choice(self.locs))), {}
        raise AssertionError(kind)

    def typed_process(self, env: dict, depth: int) -> s.Process:
        rng = self.rng
        if depth <= 0 or not self.tables:
            return s.NilProc()
        if self.defined and rng.random() < 0.12:
            name = rng.choice(list(self.defined))
            d = self.defined[name]
            args = tuple(self.expr_of(env, ty, 0) for _, ty in d.params)
            return s.CallProc(name, args)
        if rng.random() < 0.15:
            return s.Seq(self.typed_process(env, depth - 1),
                         self.typed_process(env, depth - 1))
        action, ext = self.typed_action(env, depth)
        table_exts = {n: v for n, v in ext.items() if isinstance(v, tuple) and v[0] == "table"}
        plain_exts = {n: v for n, v in ext.items() if n not in table_exts}
        cont_env = {**env, **plain_exts}
        if table_exts and rng.random() < 0.8:
            (bind, (_, out_schema)) = next(iter(table_exts.items()))
            tpl, binds = self.template_for(out_schema)
            body = self.typed_process({**cont_env, **binds}, depth - 1)
            loop = s.Foreach(s.TableByVar(bind), tpl,
                             self.pred_over({**cont_env, **binds}), self.order(), body)
            return s.Prefix(action, loop)
        return s.Prefix(action, self.typed_process(cont_env, depth - 1))

    def order(self) -> s.OrderSpec:
        return s.OrderSpec(self.rng.choice(["unordered", "unordered", "lex"]))

    def system(self) -> s.System:
        rng = self.rng
        taken = set()
        for _ in range(rng.randrange(1, self.max_tables + 1)):
            tid = self.fresh_tid()
            loc = rng.choice(self.locs)
            self.tables[tid] = (loc, self.schema())
        parts = []
        for tid, (loc, sk) in self.tables.items():
            rows = Multiset([
                ValueTuple(tuple(self.value_of(t) for t in sk))
                for _ in range(rng.randrange(0, self.max_rows + 1))
            ])
            parts.append(s.Node(loc, s.TableComp(s.Interface(tid, sk), rows)))
            taken.add((loc, tid))
        if rng.random() < 0.4:
            params = []
            penv = {}
            for _ in range(rng.randrange(0, 3)):
                pname = self.fresh_var()
                ty = rng.choice([s.INT, s.STRING, s.LOC])
                params.append((pname, ty))
                penv[pname] = ty
            body = self.typed_process(penv, rng.randrange(1, 3))
            self.defined["helper"] = s.ProcDef("helper", tuple(params), body)
        for _ in range(rng.randrange(1, self.max_procs + 1)):
            loc = rng.choice(self.locs)
            proc = self.typed_process({}, rng.randrange(1, self.max_steps + 1))
            parts.append(s.Node(loc, s.ProcComp(proc)))
        net = parts[0]
        for p in parts[1:]:
            net = s.ParNet(net, p)
        if rng.random() < 0.15:
            # a private site running one more worker against the public tables
            proc = self.typed_process({}, rng.randrange(1, self.max_steps + 1))
            net = s.Restrict("priv", s.ParNet(net, s.Node("priv", s.ProcComp(proc))))
        decls = tuple((tid, sk) for tid, (loc, sk) in sorted(self.tables.items()))
        return s.System(procedures=dict(self.defined), schema_decls=decls, main_net=net)


def typed_system(seed: int, **kw) -> s.System:
    return TypedGen(random.Random(seed), **kw).system()


# ---------------------------------------------------------------------------
# Corruption: make one executed action ill-typed

def _first_prefix_path(proc: s.Process):
    """Path to the first action of a process, or None."""
    if isinstance(proc, s.Prefix):
        return proc
    if isinstance(proc, s.Seq):
        return _first_prefix_path(proc.first)
    if isinstance(proc, s.Foreach):
        return _first_prefix_path(proc.body)
    return None


def _corrupt_action(a: s.Action, rng: random.Random):
    if isinstance(a, s.Insert) and len(a.payload.components) > 1:
        comps = list(a.payload.components)
        comps.pop(rng.randrange(len(comps)))
        return s.Insert(a.tid, s.Tuple(tuple(comps)), a.loc)
    if isinstance(a, s.Insert):
        swapped = "oops" if not isinstance(a.payload.components[0], str) else 0
        return s.Insert(a.tid, s.Tuple((swapped,) + a.payload.components[1:]), a.loc)
    if isinstance(a, s.Update):
        comps = list(a.payload.components)
        i = rng.randrange(len(comps))
        comps[i] = s.Arith("++", "a", 1)
        return s.Update(a.tid, a.template, a.pred, s.Tuple(tuple(comps)), a.loc)
    if isinstance(a, (s.Delete, s.Aggr)) and len(a.template.fields) > 1:
        fields = a.template.fields[:-1]
        if isinstance(a, s.Delete):
            return s.Delete(a.tid, s.Template(fields), s.TruePred(), a.loc)
        return s.Aggr(a.tid, s.Template(fields), s.TruePred(), s.AggrFn("count"),
                      a.bind_template, a.loc)
    return None


def _replace_first_action(proc: s.Process, new_action) -> s.Process:
    if isinstance(proc, s.Prefix):
        return s.Prefix(new_action, proc.cont)
    if isinstance(proc, s.Seq):
        return s.Seq(_replace_first_action(proc.first, new_action), proc.second)
    if isinstance(proc, s.Foreach):
        return s.Foreach(proc.table, proc.template, proc.pred, proc.order,
                         _replace_first_action(proc.body, new_action))
    raise AssertionError(type(proc))


def corrupt(system: s.System, rng: random.Random):
    """An ill-typed variant of the system, or None if nothing to corrupt."""
    nodes = []

    def gather(n, path):
        if isinstance(n, s.ParNet):
            gather(n.left, path + ["L"])
            gather(n.right, path + ["R"])
        elif isinstance(n, s.Node) and isinstance(n.component, s.ProcComp):
            first = _first_prefix_path(n.component.process)
            if first is not None:
                nodes.append((tuple(path), n))

    gather(system.main_net, [])
    rng.shuffle(nodes)
    for path, target in nodes:
        first = _first_prefix_path(target.component.process)
        bad = _corrupt_action(first.action, rng)
        if bad is None:
            continue
        new_proc = _replace_first_action(target.component.process, bad)

        def rebuild(n, p):
            if not p:
                return s.Node(n.loc, s.ProcComp(new_proc))
            if p[0] == "L":
                return s.ParNet(rebuild(n.left, p[1:]), n.right)
            return s.ParNet(n.left, rebuild(n.right, p[1:]))

        return s.System(procedures=system.procedures,
                        schema_decls=system.schema_decls,
                        main_net=rebuild(system.main_net, list(path)), source=system.source)
    return None


# ---------------------------------------------------------------------------
# Corruption of a select or a loop, wherever it sits

def _subterms(node):
    """Every node below `node`, itself included, in field order.  A system's
    procedure bodies come before its net."""
    yield node
    if isinstance(node, s.System):
        for d in node.procedures.values():
            yield from _subterms(d.body)
        yield from _subterms(node.main_net)
        return
    for name, shape in s.CHILDREN.get(node.__class__, ()):
        child = getattr(node, name)
        if shape == s.MANY:
            for x in child:
                yield from _subterms(x)
        elif shape in (s.ONE, s.ACTION):
            yield from _subterms(child)


def _replace_node(node, target, new):
    """`node` with every occurrence of the object `target` replaced by `new`."""
    if node is target:
        return new
    if isinstance(node, s.System):
        procs = {k: d.replace(body=_replace_node(d.body, target, new))
                 for k, d in node.procedures.items()}
        return node.replace(procedures=procs,
                            main_net=_replace_node(node.main_net, target, new))
    changes = {}
    for name, shape in s.CHILDREN.get(node.__class__, ()):
        child = getattr(node, name)
        if shape == s.MANY:
            changes[name] = tuple(_replace_node(x, target, new) for x in child)
        elif shape in (s.ONE, s.ACTION):
            changes[name] = _replace_node(child, target, new)
    return node.replace(**changes) if changes else node


def corrupt_select_or_loop(system: s.System, rng: random.Random):
    """A copy with one select or loop broken, or None if the system has neither.

    A select gets a template one field longer than its joined schema, so it
    fails as soon as its tables exist (`SEL`).  A loop gets an order column
    past its template's arity, so it fails when it has a row to take
    (`FOR_TT`).  Either way the checker rejects the copy too.
    """
    sites = [n for n in _subterms(system) if isinstance(n, (s.Select, s.Foreach))]
    if not sites:
        return None
    target = rng.choice(sites)
    if isinstance(target, s.Select):
        fields = target.template.fields + (s.BindData("v0"),)  # generated names start at v1
        bad = target.replace(template=s.Template(fields))
    else:
        col = len(target.template.fields) + 1
        bad = target.replace(order=s.OrderSpec("asc", col))
    return _replace_node(system, target, bad)
