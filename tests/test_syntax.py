"""Binding structure and rendering."""

import copy
import inspect

import pytest

from fixtures import SEVEN_BINDERS, srow
from kdb import syntax as s
from kdb import values
from kdb.nodes import Record
from kdb.values import Multiset, ValueTuple, VLoc, VSet, VTid


def seven_var_tuple():
    return s.Tuple(tuple(s.Var(n) for n in SEVEN_BINDERS.names()))


class TestFreeVars:
    def test_update_payload_vars_all_bound_by_its_template(self):
        payload = s.Tuple((
            s.Var("id"), s.Var("tp"), s.Var("yr"), s.Var("cr"),
            s.Var("sz"),
            s.Arith("-", s.Var("is0"), 2),
            s.Arith("+", s.Var("ss"), 2),
        ))
        pred = s.And(
            s.Cmp("=", s.Var("tp"), "HB"),
            s.And(s.Cmp("=", s.Var("cr"), "red"),
                  s.Cmp("=", s.Var("sz"), "37")),
        )
        action = s.Update("KLD", SEVEN_BINDERS, pred, payload, VLoc("l1"))
        assert s.free_vars(action) == frozenset()
        assert s.free_vars(payload) == frozenset(SEVEN_BINDERS.names())

    def test_prefix_with_no_templates_binds_nothing(self):
        cont = s.Prefix(s.Insert("T", s.Tuple((s.Var("x"),)), VLoc("l")), s.NilProc())
        p = s.Prefix(s.Insert("T", s.Tuple((1,)), VLoc("l")), cont)
        assert s.free_vars(p) == frozenset(["x"])

    def test_select_binds_its_table_variable_in_the_continuation(self):
        cont = s.Foreach(s.TableByVar("tbv"), s.Template((s.BindData("x"),)),
                         s.TruePred(), s.OrderSpec("unordered"), s.NilProc())
        action = s.Select((s.TableByName("T", VLoc("l")),),
                          s.Template((s.BindData("a"),)), s.TruePred(),
                          s.Tuple((s.Var("a"),)), "tbv")
        p = s.Prefix(action, cont)
        assert "tbv" not in s.free_vars(p)
        assert "tbv" in s.free_vars(cont)

    def test_sequencing_does_not_extend_scope(self):
        first = s.Prefix(
            s.Aggr("T", s.Template((s.BindData("a"),)), s.TruePred(),
                   s.AggrFn("count"), s.Template((s.BindData("r"),)), VLoc("l")),
            s.NilProc())
        second = s.Prefix(s.Insert("T", s.Tuple((s.Var("r"),)), VLoc("l")),
                          s.NilProc())
        assert "r" in s.free_vars(s.Seq(first, second))

    def test_prefix_scope_does_extend(self):
        action = s.Aggr("T", s.Template((s.BindData("a"),)), s.TruePred(),
                        s.AggrFn("count"), s.Template((s.BindData("r"),)), VLoc("l"))
        cont = s.Prefix(s.Insert("T", s.Tuple((s.Var("r"),)), VLoc("l")),
                        s.NilProc())
        assert s.free_vars(s.Prefix(action, cont)) == frozenset()


def _rebinding(kind: str):
    """A `kind` action at locality variable `u` whose template rebinds `u`."""
    u, tpl = s.Var("u"), s.Template((s.BindLoc("u"),))
    pred = s.Cmp("=", u, VLoc("m"))
    if kind == "delete":
        return s.Delete("T", tpl, pred, u)
    if kind == "update":
        return s.Update("T", tpl, pred, s.Tuple((u,)), u)
    return s.Aggr("T", tpl, pred, s.AggrFn("count"), s.Template((s.BindData("n"),)), u)


class TestRebindingTheTargetLocality:
    """The locality of a delete, update or aggr is outside its template's
    scope; the template's `u` scopes over the predicate (and payload) only."""

    @pytest.mark.parametrize("kind", ["delete", "update", "aggr"])
    def test_free_vars(self, kind):
        assert s.free_vars(_rebinding(kind)) == frozenset(["u"])
        cont = s.Prefix(s.Insert("T", s.Tuple((s.Var("u"),)), VLoc("m")), s.NilProc())
        assert s.free_vars(s.Prefix(_rebinding(kind), cont)) == frozenset(["u"])

    @pytest.mark.parametrize("kind", ["delete", "update", "aggr"])
    def test_apply_subst(self, kind):
        from kdb.kernel import apply_subst
        cont = s.Prefix(s.Insert("T", s.Tuple((s.Var("u"),)), VLoc("m")), s.NilProc())
        got = apply_subst({"u": VLoc("a")}, s.Prefix(_rebinding(kind), cont))
        assert got.action.loc == VLoc("a")
        assert got.action.pred == _rebinding(kind).pred
        if kind == "update":
            assert got.action.payload == s.Tuple((s.Var("u"),))
        assert got.cont.action.payload == s.Tuple((VLoc("a"),))

    @pytest.mark.parametrize("action, substituted", [
        ("delete(T@u, (!@u), u = $m)", "delete(T@$a, (!@u), u = $m)"),
        ("update(T@u, (!@u), u = $m, (u))", "update(T@$a, (!@u), u = $m, (u))"),
        ("aggr(T@u, (!@u), u = $m, count, (!n))", "aggr(T@$a, (!@u), u = $m, count, (!n))"),
    ])
    def test_rename_apart(self, action, substituted):
        # The parse keeps the template's `u` as written, and it equals the
        # action built in code.  Substituting the loop's `u` reaches the
        # target and the continuation, not the template's uses.
        from kdb.kernel import apply_subst
        from kdb.parser import parse_system
        kind = action.partition("(")[0]
        net = f"$m :: foreach(T@$m, (!@u), true, unordered): {action}. insert(T@u, (u)). nil"
        parsed = parse_system(f"schema T : (Loc)\nschema S : (Int)\n{net}").main_net
        assert s.render(parsed) == net
        body = parsed.component.process.body
        assert body.action == _rebinding(kind)
        assert s.render(apply_subst({"u": VLoc("a")}, body)) == (
            f"{substituted}. insert(T@$a, ($a)). nil")


class TestSiblingAfterABinder:
    """A sibling after a `foreach` is outside the loop's scope: it sees the
    binding the loop's template shadowed."""

    def seq(self):
        use = s.Prefix(s.Insert("T", s.Tuple((s.Var("x"),)), VLoc("l")), s.NilProc())
        loop = s.Foreach(s.TableByVar("tv"), s.Template((s.BindData("x"),)),
                         s.Cmp("=", s.Var("x"), 1), s.OrderSpec("unordered"), use)
        return s.Seq(loop, use)

    def test_free_vars(self):
        assert s.free_vars(self.seq()) == frozenset(["tv", "x"])
        assert s.free_vars(self.seq().first) == frozenset(["tv"])

    def test_apply_subst(self):
        from kdb.kernel import apply_subst
        got = apply_subst({"x": 5}, self.seq())
        assert got.first == self.seq().first
        assert got.second.action.payload == s.Tuple((5,))

    def test_rename_apart(self):
        # The loop's `!x` keeps the parameter's name and hides it in the
        # loop only: substituting the parameter reaches the sibling alone.
        from kdb.kernel import apply_subst
        from kdb.parser import parse_system
        src = ("schema T : (Int)\nlet f(x: Int) := "
               "(foreach(T@$l, (!x), true, unordered): insert(T@$l, (x)). nil); "
               "insert(T@$l, (x)). nil\nin $l :: f(1)")
        proc = parse_system(src).procedures["f"]
        assert s.render(proc) == ("f(x: Int) := foreach(T@$l, (!x), true, unordered): "
                                  "insert(T@$l, (x)). nil; insert(T@$l, (x)). nil")
        got = apply_subst({"x": 5}, proc.body)
        assert got.first == proc.body.first
        assert got.second.action.payload == s.Tuple((5,))


class TestFreeLocs:
    def test_restriction_removes_its_name(self):
        net = s.ParNet(
            s.Node("l1", s.ProcComp(s.NilProc())),
            s.Restrict("l2", s.Node("l2", s.ProcComp(s.NilProc()))),
        )
        assert s.free_locs(net) == frozenset(["l1"])

    def test_locality_literals_in_actions_are_free(self):
        p = s.Prefix(s.Insert("T", s.Tuple((1,)), VLoc("l9")), s.NilProc())
        net = s.Node("l1", s.ProcComp(p))
        assert s.free_locs(net) == frozenset(["l1", "l9"])

    def test_locality_values_in_rows_are_free(self):
        rows = Multiset([ValueTuple((VLoc("l7"),))])
        net = s.Node("l1", s.TableComp(s.Interface("T", (s.LOC,)), rows))
        assert s.free_locs(net) == frozenset(["l1", "l7"])


# Each binder's scope, stated on its own: class -> {binder field: the fields
# of the node it scopes over}.  What an action exports is a binder of its
# Prefix, which `action` stands for; in its own node it scopes over nothing.
BINDER_SCOPES = {
    s.Delete: {"template": {"pred"}},
    s.Select: {"template": {"pred", "payload"}, "bind": set()},
    s.Update: {"template": {"pred", "payload"}},
    s.Aggr: {"template": {"pred"}, "bind_template": set()},
    s.Foreach: {"template": {"pred", "body"}},
    s.Prefix: {"action": {"cont"}},
}
BINDER_SHAPES = (s.PATTERN, s.TABLE_VAR, s.ACTION,
                 s.EXPORTS_TABLE_VAR, s.EXPORTS_PATTERN)
EXPORTED_SHAPES = (s.EXPORTS_TABLE_VAR, s.EXPORTS_PATTERN)


class TestScopedMap:
    def test_each_binder_scopes_over_the_fields_listed_after_it(self):
        for cls, children in s.CHILDREN.items():
            scopes = {}
            for i, (name, shape) in enumerate(children):
                if shape in BINDER_SHAPES:
                    scopes[name] = {after for after, shape2 in children[i + 1:]
                                    if shape2 not in EXPORTED_SHAPES}
            assert scopes == BINDER_SCOPES.get(cls, {}), cls.__name__
            assert {name for name, _ in children} <= set(cls._fields)

    def test_unchanged_node_is_returned_itself(self):
        p = s.Prefix(s.Insert("T", s.Tuple((s.Var("x"),)), VLoc("l")), s.NilProc())
        assert s.rename_localities(p, {"m": "n"}) is p
        from kdb.kernel import apply_subst
        assert apply_subst({"y": 1}, p) is p

    def test_renaming_a_locality_to_itself_keeps_the_node(self):
        rows = Multiset([ValueTuple((VLoc("l"),)), ValueTuple((1,)),
                         ValueTuple((VSet(Multiset([VLoc("l")])),))])
        table = s.TableComp(s.Interface("T", (s.LOC,)), rows)
        p = s.Prefix(s.Insert("T", s.Tuple((VLoc("l"),)), VLoc("l")), s.NilProc())
        assert s.rename_localities(table, {"l": "l"}) is table
        assert s.rename_localities(p, {"l": "l"}) is p

    def test_a_net_or_a_component_is_mapped_part_by_part(self):
        p = s.Prefix(s.Insert("T", s.Tuple((s.Var("x"),)), VLoc("l")), s.NilProc())
        for node in (s.ProcComp(p), s.ParComp(s.ProcComp(p), s.ProcComp(p)),
                     s.Node("l", s.ProcComp(p)), s.Restrict("l", s.Node("l", s.ProcComp(p))),
                     s.ParNet(s.Node("l", s.ProcComp(p)), s.NilNet())):
            for walk in (s.free_vars, lambda n: s.rename_localities(n, {"l": "m"})):
                with pytest.raises(TypeError):
                    walk(node)

    def test_restriction_shadows_a_renamed_locality(self):
        # A restricted name that clashes is renamed in its scope only.
        inner = s.Node("l", s.ProcComp(s.Prefix(
            s.Insert("T", s.Tuple((VLoc("l"),)), VLoc("m")), s.NilProc())))
        restricted, parts = s.net_parts(s.ParNet(s.Restrict("l", inner), inner))
        assert restricted == ("l#1",)
        assert [(loc, s.render(body)) for loc, body in parts] == [
            ("l#1", "insert(T@$m, ($l#1)). nil"), ("l", "insert(T@$m, ($l)). nil")]

    def test_renamed_rows_keep_their_multiplicities(self):
        rows = Multiset.of_counts({ValueTuple((VLoc("a"),)): 2, ValueTuple((VLoc("b"),)): 1,
                                   ValueTuple((1,)): 1})
        table = s.TableComp(s.Interface("T", (s.LOC,)), rows)
        swapped = s.rename_localities(table, {"a": "b", "b": "a"})
        assert swapped.rows == Multiset.of_counts({ValueTuple((VLoc("b"),)): 2,
                                                   ValueTuple((VLoc("a"),)): 1,
                                                   ValueTuple((1,)): 1})
        merged = s.rename_localities(table, {"a": "b"})
        assert merged.rows == Multiset.of_counts({ValueTuple((VLoc("b"),)): 3,
                                                  ValueTuple((1,)): 1})
        assert s.rename_localities(table, {"c": "d"}) is table


class TestRender:
    def test_nil_net(self):
        assert s.render(s.NilNet()) == "nil"

    def test_rows_render_sorted(self):
        rows = Multiset([srow(2), srow(1)])
        assert s.render_rows(rows) == "{(1), (2)}"

    def test_delete_renders_with_target(self):
        a = s.Delete("KLD", s.Template((s.BindData("x"),)), s.TruePred(), VLoc("l1"))
        assert s.render(a) == "delete(KLD@$l1, (!x), true)"

    def test_string_escapes(self):
        assert s.render('a"b\\c\n') == '"a\\"b\\\\c\\n"'


# Pieces of the render table below.
X, Y, U = s.Var("x"), s.Var("y"), s.Var("u")
L = VLoc("l")
ONE = 1
NIL = s.NilProc()
X_EQ_1 = s.Cmp("=", X, ONE)
X_IN_Y = s.Cmp("in", X, Y)
TRUE = s.TruePred()
NOT_TRUE = s.Not(TRUE)
BOTH = s.And(TRUE, TRUE)
T_AT_L = s.TableByName("T", L)
BIND_X = s.Template((s.BindData("x"),))
INSERT = s.Insert("T", s.Tuple((ONE,)), L)
DROP = s.Drop("T", L)
NIL_SEQ = s.Seq(NIL, NIL)
NODE = s.Node("l", s.ProcComp(NIL))
PAR_NET = s.ParNet(NODE, s.ErrNet())
INT_TABLE = s.TableComp(s.Interface("T", (s.INT,)), Multiset([srow(1)]))
PAR_COMP = s.ParComp(s.ProcComp(NIL), INT_TABLE)
PARAMS = (("x", s.INT), ("u", s.LOC), ("i", s.ID), ("s", s.STRING), ("m", s.MSet("Id")),
          ("t", (s.INT, s.STRING)))

# Every AST class and every position where a child may need parentheses
# (or braces), with the exact text `render` gives it.  A renderer that adds
# or drops one pair still round-trips through the parser, so only exact
# texts pin the parenthesisation.
RENDER_CASES = [
    pytest.param(ONE, "1", id="VInt"),
    pytest.param('a"b\\c\n\t\r', '"a\\"b\\\\c\\n\\t\\r"', id="VStr-escapes"),
    pytest.param(VTid("KLD"), "KLD", id="VTid"),
    pytest.param(L, "$l", id="VLoc"),
    pytest.param(X, "x", id="Var"),
    pytest.param(s.Arith("++", X, "s"), '(x ++ "s")', id="Concat"),
    pytest.param(s.Arith("+", ONE, s.Arith("*", X, 2)), "(1 + (x * 2))", id="Arith"),
    pytest.param(s.MultisetLit((VTid("KLD"), VTid("SH"))), "{KLD, SH}", id="MultisetLit"),
    pytest.param(TRUE, "true", id="TruePred"),
    pytest.param(s.Cmp("<=", X, ONE), "x <= 1", id="Cmp"),
    pytest.param(s.Cmp("in", X, s.MultisetLit((ONE,))), "x in {1}", id="Member"),
    pytest.param(s.Not(X_EQ_1), "!(x = 1)", id="Cmp-under-Not"),
    pytest.param(s.Not(X_IN_Y), "!(x in y)", id="Member-under-Not"),
    pytest.param(s.Not(BOTH), "!(true && true)", id="And-under-Not"),
    pytest.param(NOT_TRUE, "!true", id="TruePred-under-Not"),
    pytest.param(s.Not(NOT_TRUE), "!!true", id="Not-under-Not"),
    pytest.param(s.And(X_EQ_1, X_IN_Y), "(x = 1) && (x in y)", id="Cmp-Member-under-And"),
    pytest.param(s.And(X_IN_Y, X_EQ_1), "(x in y) && (x = 1)", id="Member-Cmp-under-And"),
    pytest.param(s.And(BOTH, BOTH), "(true && true) && (true && true)", id="And-under-And"),
    pytest.param(s.And(TRUE, NOT_TRUE), "true && !true", id="TruePred-Not-under-And"),
    pytest.param(s.And(NOT_TRUE, TRUE), "!true && true", id="Not-TruePred-under-And"),
    pytest.param(s.Tuple((X, ONE)), "(x, 1)", id="Tuple"),
    pytest.param(s.Template((s.BindData("x"), s.BindLoc("u"))), "(!x, !@u)",
                 id="Template-BindData-BindLoc"),
    pytest.param(s.TableByName("T", U), "T@u", id="TableByName"),
    pytest.param(s.TableByVar("t"), "t", id="TableByVar"),
    pytest.param(s.TableLiteral(s.Interface(None, (s.INT,)), Multiset([srow(2), srow(1)])),
                 "table ? : (Int) = {(1), (2)}", id="TableLiteral-anonymous"),
    pytest.param(s.TableLiteral(
        s.Interface("T", (s.STRING, s.MSet("Id"), s.LOC)),
        Multiset([srow('q"\n', VSet(Multiset([VTid("SH"), VTid("KLD")])), VLoc("l"))])),
        'table T : (String, {Id}, Loc) = {("q\\"\\n", {KLD, SH}, $l)}',
        id="TableLiteral-Interface-VSet-VStr-VLoc"),
    pytest.param(s.AggrFn("sum", 2), "sum[2]", id="AggSum"),
    pytest.param(s.AggrFn("avg", 1), "avg[1]", id="AggAvg"),
    pytest.param(s.AggrFn("count"), "count", id="AggCount"),
    pytest.param(s.AggrFn("min", 3), "min[3]", id="AggMin"),
    pytest.param(s.AggrFn("max", 1), "max[1]", id="AggMax"),
    pytest.param(s.OrderSpec("unordered"), "unordered", id="Unordered"),
    pytest.param(s.OrderSpec("asc", 1), "asc[1]", id="Asc"),
    pytest.param(s.OrderSpec("desc", 2), "desc[2]", id="Desc"),
    pytest.param(s.OrderSpec("lex"), "lex", id="Lex"),
    pytest.param(INSERT, "insert(T@$l, (1))", id="Insert"),
    pytest.param(s.Delete("T", BIND_X, X_EQ_1, U), "delete(T@u, (!x), x = 1)", id="Delete"),
    pytest.param(s.Select((T_AT_L, s.TableByVar("t")), s.Template((s.BindData("x"), s.BindData("y"))),
                          BOTH, s.Tuple((X,)), "r"),
                 "select(T@$l, t, (!x, !y), true && true, (x), !r)", id="Select"),
    pytest.param(s.Update("T", BIND_X, X_EQ_1, s.Tuple((s.Arith("-", X, ONE),)), L),
                 "update(T@$l, (!x), x = 1, ((x - 1)))", id="Update"),
    pytest.param(s.Aggr("T", BIND_X, X_IN_Y, s.AggrFn("count"), s.Template((s.BindData("n"),)), L),
                 "aggr(T@$l, (!x), x in y, count, (!n))", id="Aggr"),
    pytest.param(s.Create("T", L, (s.INT, s.MSet("Id"), s.STRING, s.LOC)),
                 "create(T@$l, (Int, {Id}, String, Loc))", id="Create-Base-MSet"),
    pytest.param(DROP, "drop(T@$l)", id="Drop"),
    pytest.param(s.Eval(NIL_SEQ, L), "eval(nil; nil, $l)", id="Seq-under-Eval"),
    pytest.param(NIL, "nil", id="NilProc"),
    pytest.param(s.Prefix(INSERT, s.Prefix(DROP, NIL)), "insert(T@$l, (1)). drop(T@$l). nil",
                 id="Prefix"),
    pytest.param(s.Prefix(INSERT, NIL_SEQ), "insert(T@$l, (1)). (nil; nil)", id="Seq-under-Prefix"),
    pytest.param(s.CallProc("f", (ONE, L)), "f(1, $l)", id="CallProc"),
    pytest.param(s.CallProc("g", ()), "g()", id="CallProc-no-args"),
    pytest.param(s.Foreach(s.TableByVar("t"), BIND_X, s.Cmp(">", X, ONE), s.OrderSpec("unordered"),
                           NIL),
                 "foreach(t, (!x), x > 1, unordered): nil", id="Foreach"),
    pytest.param(s.Foreach(T_AT_L, BIND_X, TRUE, s.OrderSpec("asc", 1), NIL_SEQ),
                 "foreach(T@$l, (!x), true, asc[1]): (nil; nil)", id="Seq-under-Foreach"),
    pytest.param(s.Seq(NIL_SEQ, NIL), "(nil; nil); nil", id="Seq-under-Seq-first"),
    pytest.param(s.Seq(NIL, NIL_SEQ), "nil; nil; nil", id="Seq-under-Seq-second"),
    pytest.param(s.Prefix(INSERT, s.Foreach(T_AT_L, BIND_X, TRUE, s.OrderSpec("lex"),
                                            s.Prefix(DROP, s.CallProc("g", ())))),
                 "insert(T@$l, (1)). foreach(T@$l, (!x), true, lex): drop(T@$l). g()",
                 id="Foreach-CallProc-in-tight-positions"),
    pytest.param(s.Seq(s.Foreach(s.TableByVar("t"), BIND_X, TRUE, s.OrderSpec("desc", 2),
                                 s.CallProc("g", ())),
                       s.CallProc("g", ())),
                 "foreach(t, (!x), true, desc[2]): g(); g()", id="Foreach-under-Seq-first"),
    pytest.param(s.ProcComp(NIL_SEQ), "nil; nil", id="ProcComp"),
    pytest.param(INT_TABLE, "table T : (Int) = {(1)}", id="TableComp"),
    pytest.param(s.ParComp(PAR_COMP, s.ProcComp(NIL)), "{ nil | table T : (Int) = {(1)} } | nil",
                 id="ParComp-under-ParComp-left"),
    pytest.param(s.ParComp(s.ProcComp(NIL), PAR_COMP), "nil | { nil | table T : (Int) = {(1)} }",
                 id="ParComp-under-ParComp-right"),
    pytest.param(s.NilNet(), "nil", id="NilNet"),
    pytest.param(s.ErrNet(), "ERR", id="ErrNet"),
    pytest.param(s.Node("l", PAR_COMP), "$l :: nil | table T : (Int) = {(1)}", id="Node"),
    pytest.param(s.ParNet(PAR_NET, NODE), "($l :: nil || ERR) || $l :: nil",
                 id="ParNet-under-ParNet-left"),
    pytest.param(s.ParNet(NODE, PAR_NET), "$l :: nil || ($l :: nil || ERR)",
                 id="ParNet-under-ParNet-right"),
    pytest.param(s.Restrict("l", PAR_NET), "(new $l) ($l :: nil || ERR)", id="ParNet-under-Restrict"),
    pytest.param(s.Restrict("k", s.Restrict("l", NODE)), "(new $k) (new $l) $l :: nil",
                 id="Restrict-under-Restrict"),
    pytest.param(s.ParNet(s.NilNet(), s.Restrict("k", NODE)), "nil || (new $k) $l :: nil",
                 id="NilNet-Restrict-under-ParNet"),
    pytest.param(s.System({}, (("T", (s.INT,)), ("T", (s.STRING,))), PAR_NET),
                 "schema T : (Int)\nschema T : (String)\n$l :: nil || ERR", id="System-no-procedures"),
    pytest.param(s.System({"f": s.ProcDef("f", PARAMS, NIL_SEQ),
                           "g": s.ProcDef("g", (), s.CallProc("f", (ONE, L)))},
                          (), s.Node("l", s.ProcComp(s.CallProc("g", ())))),
                 "let f(x: Int, u: Loc, i: Id, s: String, m: {Id}, t: (Int, String)) := nil; nil\n"
                 "and g() := f(1, $l)\nin\n$l :: g()", id="System-ProcDef-params"),
]


@pytest.mark.parametrize("node, text", RENDER_CASES)
def test_render_text(node, text):
    assert s.render(node) == text


# ---------------------------------------------------------------------------
# The contract every node class keeps

NODE_CLASSES = [cls for module in (values, s) for cls in vars(module).values()
                if isinstance(cls, type) and issubclass(cls, Record)
                and cls.__module__ == module.__name__ and cls._fields]
POSITION_FIELDS = ("span", "source")  # where a node stands in its source text


def _field_value(cls, name: str, k: int):
    """The k-th of some distinct values of a field."""
    if name == "span":
        return k
    if cls is VSet:
        return Multiset([k])
    return f"{name} {k}"


def _sample(cls, position: int, changed: str = None):
    return cls(**{name: _field_value(cls, name, position if name in POSITION_FIELDS
                                     else 2 if name == changed else 1)
                  for name in cls._fields})


def test_node_classes_are_found():
    assert {s.Prefix, s.System, s.Span, VSet} <= set(NODE_CLASSES)


CACHED = object()  # what a node may have computed and kept


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
def test_node_contract(cls):
    node, moved = _sample(cls, 1), _sample(cls, 2)
    compared = tuple(getattr(node, name) for name in cls._fields if name not in POSITION_FIELDS)
    # A cache slot (`_text`, `_kept`; `_hash` is the hash's
    # own) is no field, and what a node has computed changes nothing below.
    caches = [name for c in cls.__mro__ for name in c.__dict__.get("__slots__", ())
              if name.startswith("_") and name != "_hash"]
    assert not set(caches) & set(cls._fields)
    for name in caches:
        object.__setattr__(node, name, CACHED)
    # Equality, hashing and repr ignore where a node stands; the hash is the
    # frozen dataclass's, which seeded outputs depend on, kept once computed.
    assert node == moved and not node != moved and repr(node) == repr(moved)
    assert hash(node) == hash(moved) == hash(compared) == node._hash
    assert node == node and node.__eq__(compared) is NotImplemented and node != compared
    assert list(inspect.signature(cls).parameters) == list(cls._fields)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(node, name, getattr(moved, name))
        with pytest.raises(AttributeError):
            delattr(node, name)
    for twin in (copy.deepcopy(node), node.replace()):
        assert [getattr(twin, name) for name in caches] == [None] * len(caches)
        assert twin == node and twin is not node
        assert [getattr(twin, name) for name in cls._fields] == \
            [getattr(node, name) for name in cls._fields]
    for name in cls._fields:
        new = getattr(_sample(cls, 2, changed=name), name)
        other = node.replace(**{name: new})
        assert getattr(other, name) == new
        fields = tuple(getattr(other, f) for f in cls._fields if f not in POSITION_FIELDS)
        assert (other == node) is (node == other) is (fields == compared) is (name in POSITION_FIELDS)
        assert (other != node) is (node != other) is (fields != compared)
    with pytest.raises(TypeError):
        node.replace(no_such_field=1)


@pytest.mark.parametrize("node, text", [
    pytest.param(s.Cmp("=", s.Var("x", span=3), 1, span=0),
                 "Cmp(op='=', left=Var(name='x'), right=1)", id="Cmp"),
    pytest.param(s.Prefix(s.Insert("T", s.Tuple(("a", VTid("T"))), VLoc("l")), s.NilProc(span=9)),
                 "Prefix(action=Insert(tid='T', payload=Tuple(components=('a', "
                 "VTid(name='T'))), loc=VLoc(name='l')), cont=NilProc())", id="Prefix"),
    pytest.param(s.TableComp(s.Interface("T", (s.INT, s.MSet("Id"))),
                             Multiset([ValueTuple((1, VSet(Multiset([VTid("A")]))))])),
                 "TableComp(interface=Interface(tid='T', schema=(Base(kind='Int'), MSet(kind='Id'))), "
                 "rows=Multiset({(1, VSet(elements=Multiset({VTid(name='A'): 1}))): 1}))",
                 id="TableComp"),
    pytest.param(s.System({}, (("T", (s.INT,)),), s.NilNet(), source="nil"),
                 "System(procedures={}, schema_decls=(('T', (Base(kind='Int'),)),), main_net=NilNet())",
                 id="System"),
    pytest.param(s.AggrFn("count"), "AggrFn(op='count', col=0)", id="AggrFn"),
])
def test_repr_is_the_dataclass_text(node, text):
    assert repr(node) == text
