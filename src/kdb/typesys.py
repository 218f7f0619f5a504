"""Static type checker.

Judgments follow the language's declarative rules; the checker adds error
recovery (siblings keep getting checked after a failure, dependents are
suppressed) and runs in time linear in the program text.  Its environment
is a `syntax.Scope`, which maps a name to its type, as `ProcDef.params`
does: a data variable to its MType, a locality variable to `Loc` and a
table variable to its schema, a tuple.  A variable's type comes from its
binder alone: a parameter's from its declaration, a template field's from
the column or aggregate it binds (`!@u` binds only a Loc, `!x` anything
else) and a select's from its result schema.  A use, a `syntax.Var` or a
`TableByVar`, reads it from the environment.  A scope is a mark of the
Scope's journal, the binder's bindings, and an undo to the mark after its
body is checked, all in the frame that checks the binder; so checking a
straight-line process costs one Python frame per action.  A net binds no
variable; its parts are those `syntax.net_parts` gives the engine too, so a
net's width costs no frame.

The checker is its own walk, not a pass of the traversal that the binding
table `syntax.CHILDREN` drives, for three reasons.  A binder's types come
from a sibling's schema: a template is typed against the table its action
names, which CHILDREN does not see.  A failed action suppresses the checks
of what depends on it (its predicate, payload and continuation), which a
traversal that visits every child cannot skip.  And the order of
diagnostics is pinned, and it is not field order: a delete's locality is
checked before its predicate, and a create's locality before its table
identifier.

The schema map, which the checker needs whole before it types because the
first shape seen wins, reads the bodies' shapes with `_shapes`: a walk from
an explicit stack that follows only the nodes that can hold a shape, so it
never enters an expression and costs no frame per action.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from kdb import syntax as s
from kdb.kernel import literal_sort, well_sorted_value
from kdb.values import KIND


class Diagnostic(NamedTuple):
    kind: str
    message: str
    span: Optional[s.Span] = None
    expected: Optional[str] = None
    found: Optional[str] = None

    def __str__(self) -> str:
        where = f"{self.span}: " if self.span else ""
        halves = [f"{label} {value}" for label, value in
                  (("expected", self.expected), ("found", self.found)) if value is not None]
        extra = f" ({', '.join(halves)})" if halves else ""
        return f"{where}{self.message}{extra}"

    def to_json(self) -> dict:
        return {
            "span": str(self.span) if self.span else None,
            "kind": self.kind,
            "message": self.message,
            "expected": self.expected,
            "found": self.found,
        }


def _render_mtype(t) -> str:
    return "?" if t is None else s.render_mtype(t)


class Checker:
    """Nodes carry source offsets; `positions` resolves the offset of a
    diagnostic to its line:col when the diagnostic is recorded."""

    def __init__(self, nabla: dict, procedures: Optional[dict] = None,
                 positions: Optional[s.Positions] = None):
        self.nabla = nabla
        self.procedures = procedures or {}
        self.positions = positions or s.Positions("")
        self.diags: list = []

    # -- diagnostics

    def error(self, kind: str, message: str, span=None, expected=None, found=None):
        self.diags.append(Diagnostic(kind, message, self.positions.position(span),
                                     expected, found))
        return None

    # -- expressions

    def type_expr(self, env: s.Scope, e: s.Expr) -> Optional[s.MType]:
        sort = literal_sort(e)
        if sort is not None:
            return sort
        if isinstance(e, s.Var):
            ty = env.get(e.name)
            if ty is None:
                return self.error("unbound-variable", f"unbound variable {e.name!r}", e.span)
            if isinstance(ty, tuple):
                return self.error("kind-mismatch",
                                  f"table variable {_written(e.name)!r} used as data", e.span)
            return ty
        if isinstance(e, s.Arith):
            lt = self.type_expr(env, e.left)
            rt = self.type_expr(env, e.right)
            if lt is None or rt is None:
                return None
            want = s.STRING if e.op == "++" else s.INT
            if lt != want or rt != want:
                message = ("concatenation needs two strings" if e.op == "++"
                           else f"'{e.op}' needs two integers")
                return self.error("operand-type", message, e.span, expected=want.kind,
                                  found=f"{_render_mtype(lt)} {e.op} {_render_mtype(rt)}")
            return want
        if isinstance(e, s.MultisetLit):
            if not e.elements:
                return self.error("empty-multiset",
                                  "cannot infer the element type of an empty multiset",
                                  e.span)
            kinds = set()
            failed = False
            for el in e.elements:
                t = self.type_expr(env, el)
                if t is None:
                    failed = True
                elif isinstance(t, s.MSet):
                    self.error("nested-multiset", "multisets cannot nest", e.span)
                    failed = True
                else:
                    kinds.add(t.kind)
            if failed:
                return None
            if len(kinds) != 1:
                return self.error("heterogeneous-multiset",
                                  "multiset elements must share one type", e.span,
                                  found=", ".join(sorted(kinds)))
            return s.MSet(kinds.pop())
        raise TypeError(f"not an expression: {e!r}")

    # -- predicates

    def type_pred(self, env: s.Scope, p: s.Pred) -> bool:
        if isinstance(p, s.TruePred):
            return True
        if isinstance(p, s.Cmp):
            lt = self.type_expr(env, p.left)
            rt = self.type_expr(env, p.right)
            if lt is None or rt is None:
                return False
            if p.op == "in":
                message = "'in' needs a scalar and a multiset of its type"
                if not isinstance(lt, s.Base):  # the left side needs a scalar
                    scalar = rt.kind if isinstance(rt, s.MSet) else "Int, String, Id or Loc"
                    self.error("operand-type", message, p.span, expected=scalar,
                               found=_render_mtype(lt))
                    return False
                if rt != s.MSet(lt.kind):
                    self.error("operand-type", message, p.span,
                               expected=f"{{{lt.kind}}}", found=_render_mtype(rt))
                    return False
                return True
            if p.op == "sub":
                if not (isinstance(lt, s.MSet) and lt == rt):
                    self.error("operand-type", "'sub' compares two multisets of one type",
                               p.span, found=f"{_render_mtype(lt)} sub {_render_mtype(rt)}")
                    return False
                return True
            if not isinstance(lt, s.Base) or lt != rt:
                self.error("operand-type",
                           f"'{p.op}' compares two values of one scalar type",
                           p.span, found=f"{_render_mtype(lt)} {p.op} {_render_mtype(rt)}")
                return False
            if p.op in s.ORDERED_CMP_OPS and lt.kind not in ("Int", "String"):
                self.error("operand-type",
                           f"no ordering on {lt.kind} values", p.span,
                           expected="Int or String", found=lt.kind)
                return False
            return True
        if isinstance(p, s.Not):
            return self.type_pred(env, p.inner)
        if isinstance(p, s.And):
            a = self.type_pred(env, p.left)
            b = self.type_pred(env, p.right)
            return a and b
        raise TypeError(f"not a predicate: {p!r}")

    # -- tuples, templates, tables

    def type_tuple(self, env: s.Scope, t: s.Tuple) -> Optional[s.Schema]:
        out = []
        for e in t.components:
            ty = self.type_expr(env, e)
            if ty is None:
                return None
            out.append(ty)
        return tuple(out)

    def type_template(self, sk: Optional[s.Schema], template: s.Template):
        """Returns the bindings a template derives from a schema, or None."""
        if sk is None:
            return None
        if len(template.fields) != len(sk):
            return self.error(
                "template-arity",
                f"template has {len(template.fields)} field(s), schema has {len(sk)}",
                template.span, expected=s.render_schema(sk),
                found=s.render(template),
            )
        for f, ty in zip(template.fields, sk):
            if isinstance(f, s.BindData):
                if ty == s.LOC:
                    name = _written(f.name)
                    return self.error(
                        "binder-kind", f"!{name} cannot bind a locality column; use !@{name}",
                        f.span)
            elif ty != s.LOC:
                return self.error(
                    "binder-kind",
                    f"!@{_written(f.name)} can only bind a locality column",
                    f.span, expected="Loc", found=_render_mtype(ty))
        return [(f.name, ty) for f, ty in zip(template.fields, sk)]

    def _check_loc(self, env: s.Scope, loc: s.Expr) -> bool:
        t = self.type_expr(env, loc)
        if t is None:
            return False
        if t != s.LOC:
            # A constant, which only a built system puts here, has no span.
            self.error("operand-type", "a locality is required here",
                       getattr(loc, "span", None), expected="Loc", found=_render_mtype(t))
            return False
        return True

    def _schema_of(self, tid: str, span) -> Optional[s.Schema]:
        sk = self.nabla.get(tid)
        if sk is None:
            return self.error("unknown-table", f"no schema known for table {tid!r}", span)
        return sk

    def type_table(self, env: s.Scope, tb: s.TableRef) -> Optional[s.Schema]:
        if isinstance(tb, s.TableByName):
            if not self._check_loc(env, tb.loc):
                return None
            return self._schema_of(tb.tid, tb.span)
        if isinstance(tb, s.TableByVar):
            sk = env.get(tb.name)
            if sk is None:
                return self.error("unbound-variable",
                                  f"unbound table variable {tb.name!r}", tb.span)
            if not isinstance(sk, tuple):
                return self.error("kind-mismatch",
                                  f"{_written(tb.name)!r} is not a table variable", tb.span)
            return sk
        if isinstance(tb, s.TableLiteral):
            if self._check_rows(tb.interface, tb.rows, tb.span):
                if tb.interface.tid is not None:
                    sk = self.nabla.get(tb.interface.tid)
                    if sk is not None and sk != tb.interface.schema:
                        return self.error(
                            "schema-conflict",
                            f"table {tb.interface.tid!r} declared with a different schema",
                            tb.span, expected=s.render_schema(sk),
                            found=s.render_schema(tb.interface.schema))
                return tb.interface.schema
            return None
        raise TypeError(f"not a table reference: {tb!r}")

    def _check_rows(self, interface: s.Interface, rows, span) -> bool:
        sk = interface.schema
        for row in rows.support():
            if not well_sorted_value(row, sk):
                self.error("row-format",
                           f"row {s.render_row(row)} does not fit the table schema",
                           span, expected=s.render_schema(sk), found=s.render_row(row))
                return False
        return True

    # -- actions

    def type_action(self, env: s.Scope, a: s.Action):
        """Returns the bindings the action exports to its continuation, or None."""
        if isinstance(a, s.Insert):
            sk = self._schema_of(a.tid, a.span)
            tt = self.type_tuple(env, a.payload)
            okl = self._check_loc(env, a.loc)
            if sk is None or tt is None or not okl:
                return None
            if tt != sk:
                return self.error("payload-format",
                                  f"inserted row does not fit table {a.tid!r}",
                                  a.span, expected=s.render_schema(sk),
                                  found=s.render_schema(tt))
            return []
        if isinstance(a, s.Select):
            parts = []
            failed = False
            for tb in a.tables:
                t = self.type_table(env, tb)
                if t is None:
                    failed = True
                else:
                    parts.extend(t)
            if failed:
                return None
            binds = self.type_template(tuple(parts), a.template)
            if binds is None:
                return None
            for e in a.payload.components:
                # The result schema is projected from the payload before any
                # evaluation, so components must be constants or variables.
                if not _projectable(e):
                    return self.error(
                        "select-payload",
                        "selection payloads are built from constants and variables",
                        a.span, found=s.render(e))
            mark = self._bind(env, binds)
            ok = self.type_pred(env, a.pred)
            payload = self.type_tuple(env, a.payload)
            env.undo(mark)
            if not ok or payload is None:
                return None
            return [(a.bind, payload)]
        if isinstance(a, (s.Delete, s.Update, s.Aggr)):
            # A template over a named table scopes over the predicate and,
            # of an update, over the payload, which must fit the table.
            sk = self._schema_of(a.tid, a.span)
            binds = self.type_template(sk, a.template)
            okl = self._check_loc(env, a.loc)
            if binds is None or not okl:
                return None
            mark = self._bind(env, binds)
            ok = self.type_pred(env, a.pred)
            payload = self.type_tuple(env, a.payload) if isinstance(a, s.Update) else sk
            env.undo(mark)
            if not ok or payload is None:
                return None
            if payload != sk:
                return self.error("payload-format",
                                  f"updated row does not fit table {a.tid!r}",
                                  a.span, expected=s.render_schema(sk),
                                  found=s.render_schema(payload))
            if not isinstance(a, s.Aggr):
                return []
            if a.fn.op != "count":
                col = a.fn.col
                if not (1 <= col <= len(sk)) or sk[col - 1] != s.INT:
                    return self.error(
                        "aggregator-signature",
                        f"{a.fn.op}[{col}] needs an Int column {col} in table {a.tid!r}",
                        a.span, expected="Int",
                        found=_render_mtype(sk[col - 1]) if 1 <= col <= len(sk) else "no such column")
            return self.type_template((s.INT,), a.bind_template)
        if isinstance(a, s.Create):
            okl = self._check_loc(env, a.loc)
            sk = self._schema_of(a.tid, a.span)
            if not okl or sk is None:
                return None
            if sk != a.schema:
                return self.error("schema-conflict",
                                  f"create declares a different schema for {a.tid!r}",
                                  a.span, expected=s.render_schema(sk),
                                  found=s.render_schema(a.schema))
            return []
        if isinstance(a, s.Drop):
            return [] if self._check_loc(env, a.loc) else None
        if isinstance(a, s.Eval):
            okp = self.type_process(env, a.process)
            okl = self._check_loc(env, a.loc)
            return [] if okp and okl else None
        raise TypeError(f"not an action: {a!r}")

    def _bind(self, env: s.Scope, binds) -> int:
        """Opens the scope of `binds`; `env.undo` of the mark returned closes it."""
        mark = env.mark()
        for name, ty in binds:
            if env.get(name) is not None:
                # Renaming apart makes shadowing impossible in parsed systems.
                self.error("shadowing",
                           f"binder {_written(name)!r} shadows an existing binding")
            env.bind(name, ty)
        return mark

    # -- processes, components, nets

    def type_process(self, env: s.Scope, p: s.Process) -> bool:
        if isinstance(p, s.NilProc):
            return True
        if isinstance(p, s.Prefix):
            binds = self.type_action(env, p.action)
            if binds is None:
                return False
            mark = self._bind(env, binds)
            ok = self.type_process(env, p.cont)
            env.undo(mark)
            return ok
        if isinstance(p, s.CallProc):
            d = self.procedures.get(p.name)
            if d is None:
                self.error("unknown-procedure", f"call to undefined procedure {p.name!r}",
                           p.span)
                return False
            if len(d.params) != len(p.args):
                self.error("call-arity",
                           f"procedure {p.name!r} takes {len(d.params)} argument(s)",
                           p.span, expected=str(len(d.params)), found=str(len(p.args)))
                return False
            ok = True
            for (pname, ty), arg in zip(d.params, p.args):
                at = self.type_expr(env, arg)
                if at is None:
                    ok = False
                    continue
                if isinstance(ty, tuple):
                    self.error("call-argument",
                               f"parameter {_written(pname)!r} wants a table; "
                               "expressions cannot supply one", p.span)
                    ok = False
                elif at != ty:
                    self.error("call-argument",
                               f"argument for {_written(pname)!r} has the wrong type", p.span,
                               expected=_render_mtype(ty), found=_render_mtype(at))
                    ok = False
            return ok
        if isinstance(p, s.Foreach):
            sk = self.type_table(env, p.table)
            binds = self.type_template(sk, p.template)
            if binds is None:
                return False
            if p.order.op not in s.COLUMNLESS:
                if not (1 <= p.order.col <= len(sk)):
                    self.error("order-column", "loop order names a missing column", p.span)
                    return False
            mark = self._bind(env, binds)
            okp = self.type_pred(env, p.pred)
            ok = self.type_process(env, p.body) and okp
            env.undo(mark)
            return ok
        if isinstance(p, s.Seq):
            a = self.type_process(env, p.first)
            b = self.type_process(env, p.second)
            return a and b
        raise TypeError(f"not a process: {p!r}")

    def type_parts(self, env: s.Scope, parts: list) -> None:
        """Types a net's parts (`syntax.net_parts`) in order.  A table whose
        (locality, identifier) an earlier one holds is reported: restricted
        names are apart by construction, so exactly when `lid` repeats."""
        seen = set()
        for loc, n in parts:
            if isinstance(n, s.TableComp) and n.interface.tid is None:
                self.error("anonymous-table",
                           "a nameless table cannot stand as a component", n.span)
            elif isinstance(n, s.TableComp):
                sk = self._schema_of(n.interface.tid, n.span)
                if sk == n.interface.schema:
                    self._check_rows(n.interface, n.rows, n.span)
                elif sk is not None:
                    self.error("schema-conflict",
                               f"table {n.interface.tid!r} carries a different schema",
                               n.span, expected=s.render_schema(sk),
                               found=s.render_schema(n.interface.schema))
                if (loc, n.interface.tid) in seen:
                    self.error("duplicate-table",
                               f"table {n.interface.tid!r} already stands at ${_written(loc)}",
                               n.span)
                seen.add((loc, n.interface.tid))
            elif isinstance(n, s.ErrNet):
                self.error("error-net", "the error net is never well-typed", n.span)
            else:
                self.type_process(env, n)


def _written(name: str) -> str:
    """A name as the source wrote it: no source name holds the `#k` of renaming."""
    return name.partition("#")[0]


def _projectable(e: s.Expr) -> bool:
    if isinstance(e, s.MultisetLit):
        return all(x.__class__ in KIND for x in e.elements)
    return isinstance(e, s.Var) or e.__class__ in KIND


def _shapes(body, found: list) -> None:
    """Append every (tid, schema, offset) that a named table literal or a
    create in `body` asserts, in text order: a prefix's action before its
    continuation, a loop's table before its body, a select's sources in
    order and an eval's process."""
    stack = [body]
    while stack:
        n = stack.pop()
        cls = n.__class__
        if cls is s.Prefix:
            stack += (n.cont, n.action)
        elif cls is s.Seq:
            stack += (n.second, n.first)
        elif cls is s.Foreach:
            stack += (n.body, n.table)
        elif cls is s.Select:
            stack += reversed(n.tables)
        elif cls is s.Eval:
            stack.append(n.process)
        elif cls is s.Create:
            found.append((n.tid, n.schema, n.span))
        elif cls is s.TableLiteral and n.interface.tid is not None:
            found.append((n.interface.tid, n.interface.schema, n.span))


def _schema_map(system: s.System, parts: list, positions: s.Positions):
    """Union of the declared schemas, the net's tables, then the table
    literals and creates of procedure bodies and of the net's processes:
    the first shape seen wins, and another shape is a conflict."""
    sources = [(tid, sk, None) for tid, sk in system.schema_decls]
    sources += [(n.interface.tid, n.interface.schema, n.span) for _, n in parts
                if isinstance(n, s.TableComp) and n.interface.tid is not None]
    for body in [*(d.body for d in system.procedures.values()), *(n for _, n in parts)]:
        _shapes(body, sources)
    nabla: dict = {}
    diags: list = []
    for tid, sk, span in sources:
        old = nabla.get(tid)
        if old is None:
            nabla[tid] = sk
        elif old != sk:
            diags.append(Diagnostic(
                "schema-conflict",
                f"table {tid!r} is used with two different schemas",
                positions.position(span), expected=s.render_schema(old),
                found=s.render_schema(sk)))
    return nabla, diags


def check_system(system: s.System) -> list:
    """All diagnostics for a system; an empty list means well-typed."""
    positions = s.Positions(system.source)  # one line table per check
    parts = s.net_parts(system.main_net, system.procedures)[1]  # one walk of the net per check
    nabla, diags = _schema_map(system, parts, positions)
    checker = Checker(nabla, system.procedures, positions)
    checker.diags = diags
    for d in system.procedures.values():
        env = s.Scope(d.params)
        checker.type_process(env, d.body)
    checker.type_parts(s.Scope(), parts)
    leftover = set().union(*[s.free_vars(body) for _, body in parts])
    if leftover:
        names = ", ".join(sorted(leftover))
        checker.diags.append(Diagnostic(
            "open-system", f"the net has free variables: {names}"))
    return checker.diags

