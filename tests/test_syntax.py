"""Binding structure and rendering."""

from dataclasses import fields

import pytest

from fixtures import SEVEN_BINDERS, srow
from kdb import syntax as s
from kdb.values import Multiset, ValueTuple, VInt, VLoc, VSet, VTid


def seven_var_tuple():
    return s.Tuple(tuple(
        s.DataVar(n) if n not in ("is0",) else s.DataVar(n)
        for n in SEVEN_BINDERS.names()
    ))


class TestFreeVars:
    def test_update_payload_vars_all_bound_by_its_template(self):
        payload = s.Tuple((
            s.DataVar("id"), s.DataVar("tp"), s.DataVar("yr"), s.DataVar("cr"),
            s.DataVar("sz"),
            s.Arith("-", s.DataVar("is0"), s.IntLit(2)),
            s.Arith("+", s.DataVar("ss"), s.IntLit(2)),
        ))
        pred = s.And(
            s.Cmp("=", s.DataVar("tp"), s.StrLit("HB")),
            s.And(s.Cmp("=", s.DataVar("cr"), s.StrLit("red")),
                  s.Cmp("=", s.DataVar("sz"), s.StrLit("37"))),
        )
        action = s.Update("KLD", SEVEN_BINDERS, pred, payload, s.LocLit("l1"))
        assert s.free_vars(action) == frozenset()
        assert s.free_vars(payload) == frozenset(SEVEN_BINDERS.names())

    def test_prefix_with_no_templates_binds_nothing(self):
        cont = s.Prefix(s.Insert("T", s.Tuple((s.DataVar("x"),)), s.LocLit("l")), s.NilProc())
        p = s.Prefix(s.Insert("T", s.Tuple((s.IntLit(1),)), s.LocLit("l")), cont)
        assert s.free_vars(p) == frozenset(["x"])

    def test_select_binds_its_table_variable_in_the_continuation(self):
        cont = s.Foreach(s.TableByVar("tbv"), s.Template((s.BindData("x"),)),
                         s.TruePred(), s.OrderSpec("unordered"), s.NilProc())
        action = s.Select((s.TableByName("T", s.LocLit("l")),),
                          s.Template((s.BindData("a"),)), s.TruePred(),
                          s.Tuple((s.DataVar("a"),)), "tbv")
        p = s.Prefix(action, cont)
        assert "tbv" not in s.free_vars(p)
        assert "tbv" in s.free_vars(cont)

    def test_sequencing_does_not_extend_scope(self):
        first = s.Prefix(
            s.Aggr("T", s.Template((s.BindData("a"),)), s.TruePred(),
                   s.AggrFn("count"), s.Template((s.BindData("r"),)), s.LocLit("l")),
            s.NilProc())
        second = s.Prefix(s.Insert("T", s.Tuple((s.DataVar("r"),)), s.LocLit("l")),
                          s.NilProc())
        assert "r" in s.free_vars(s.Seq(first, second))

    def test_prefix_scope_does_extend(self):
        action = s.Aggr("T", s.Template((s.BindData("a"),)), s.TruePred(),
                        s.AggrFn("count"), s.Template((s.BindData("r"),)), s.LocLit("l"))
        cont = s.Prefix(s.Insert("T", s.Tuple((s.DataVar("r"),)), s.LocLit("l")),
                        s.NilProc())
        assert s.free_vars(s.Prefix(action, cont)) == frozenset()


class TestFreeLocs:
    def test_restriction_removes_its_name(self):
        net = s.ParNet(
            s.Node("l1", s.ProcComp(s.NilProc())),
            s.Restrict("l2", s.Node("l2", s.ProcComp(s.NilProc()))),
        )
        assert s.free_locs(net) == frozenset(["l1"])

    def test_locality_literals_in_actions_are_free(self):
        p = s.Prefix(s.Insert("T", s.Tuple((s.IntLit(1),)), s.LocLit("l9")), s.NilProc())
        net = s.Node("l1", s.ProcComp(p))
        assert s.free_locs(net) == frozenset(["l1", "l9"])

    def test_locality_values_in_rows_are_free(self):
        rows = Multiset([ValueTuple((VLoc("l7"),))])
        net = s.Node("l1", s.TableComp(s.Interface("T", (s.LOC,)), rows))
        assert s.free_locs(net) == frozenset(["l1", "l7"])


class TestScopedMap:
    def test_children_are_listed_in_dataclass_order(self):
        for cls, children in s.CHILDREN.items():
            order = [f.name for f in fields(cls)]
            listed = [order.index(name) for name, _ in children]
            assert listed == sorted(listed), cls.__name__

    def test_unchanged_node_is_returned_itself(self):
        p = s.Prefix(s.Insert("T", s.Tuple((s.DataVar("x"),)), s.LocLit("l")), s.NilProc())
        assert s.rename_localities(p, {"m": "n"}) is p
        from kdb.kernel import apply_subst
        assert apply_subst({"y": VInt(1)}, p) is p

    def test_restriction_shadows_a_renamed_locality(self):
        inner = s.Node("l", s.ProcComp(s.Prefix(
            s.Insert("T", s.Tuple((s.LocLit("l"),)), s.LocLit("m")), s.NilProc())))
        net = s.ParNet(s.Restrict("l", inner), inner)
        got = s.rename_localities(net, {"l": "a", "m": "b"})
        assert s.render(got) == ("(new $l) $l :: insert(T@$b, ($l)). nil"
                                 " || $a :: insert(T@$b, ($a)). nil")

    def test_renamed_rows_keep_their_multiplicities(self):
        rows = Multiset({ValueTuple((VLoc("a"),)): 2, ValueTuple((VLoc("b"),)): 1,
                         ValueTuple((VInt(1),)): 1})
        table = s.TableComp(s.Interface("T", (s.LOC,)), rows)
        swapped = s.rename_localities(table, {"a": "b", "b": "a"})
        assert swapped.rows == Multiset({ValueTuple((VLoc("b"),)): 2,
                                         ValueTuple((VLoc("a"),)): 1,
                                         ValueTuple((VInt(1),)): 1})
        merged = s.rename_localities(table, {"a": "b"})
        assert merged.rows == Multiset({ValueTuple((VLoc("b"),)): 3,
                                        ValueTuple((VInt(1),)): 1})
        assert s.rename_localities(table, {"c": "d"}) is table


class TestRender:
    def test_nil_net(self):
        assert s.render(s.NilNet()) == "nil"

    def test_rows_render_sorted(self):
        rows = Multiset([srow(2), srow(1)])
        assert s.render_rows(rows) == "{(1), (2)}"

    def test_delete_renders_with_target(self):
        a = s.Delete("KLD", s.Template((s.BindData("x"),)), s.TruePred(), s.LocLit("l1"))
        assert s.render(a) == "delete(KLD@$l1, (!x), true)"

    def test_string_escapes(self):
        assert s.render(s.StrLit('a"b\\c\n')) == '"a\\"b\\\\c\\n"'


# Pieces of the render table below.
X, Y, U = s.DataVar("x"), s.DataVar("y"), s.LocVar("u")
L = s.LocLit("l")
ONE = s.IntLit(1)
NIL = s.NilProc()
X_EQ_1 = s.Cmp("=", X, ONE)
X_IN_Y = s.Member(X, Y)
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
    pytest.param(ONE, "1", id="IntLit"),
    pytest.param(s.StrLit('a"b\\c\n\t\r'), '"a\\"b\\\\c\\n\\t\\r"', id="StrLit-escapes"),
    pytest.param(s.TidLit("KLD"), "KLD", id="TidLit"),
    pytest.param(L, "$l", id="LocLit"),
    pytest.param(X, "x", id="DataVar"),
    pytest.param(U, "u", id="LocVar"),
    pytest.param(s.Concat(X, s.StrLit("s")), '(x ++ "s")', id="Concat"),
    pytest.param(s.Arith("+", ONE, s.Arith("*", X, s.IntLit(2))), "(1 + (x * 2))", id="Arith"),
    pytest.param(s.MultisetLit((s.TidLit("KLD"), s.TidLit("SH"))), "{KLD, SH}", id="MultisetLit"),
    pytest.param(TRUE, "true", id="TruePred"),
    pytest.param(s.Cmp("<=", X, ONE), "x <= 1", id="Cmp"),
    pytest.param(s.Member(X, s.MultisetLit((ONE,))), "x in {1}", id="Member"),
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
