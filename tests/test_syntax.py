"""Binding structure and rendering."""

from dataclasses import fields

from fixtures import SEVEN_BINDERS
from kdb import syntax as s
from kdb.values import Multiset, ValueTuple, VInt, VLoc


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
                         s.TruePred(), s.Unordered(), s.NilProc())
        action = s.Select((s.TableByName("T", s.LocLit("l")),),
                          s.Template((s.BindData("a"),)), s.TruePred(),
                          s.Tuple((s.DataVar("a"),)), "tbv")
        p = s.Prefix(action, cont)
        assert "tbv" not in s.free_vars(p)
        assert "tbv" in s.free_vars(cont)

    def test_sequencing_does_not_extend_scope(self):
        first = s.Prefix(
            s.Aggr("T", s.Template((s.BindData("a"),)), s.TruePred(),
                   s.AggCount(), s.Template((s.BindData("r"),)), s.LocLit("l")),
            s.NilProc())
        second = s.Prefix(s.Insert("T", s.Tuple((s.DataVar("r"),)), s.LocLit("l")),
                          s.NilProc())
        assert "r" in s.free_vars(s.Seq(first, second))

    def test_prefix_scope_does_extend(self):
        action = s.Aggr("T", s.Template((s.BindData("a"),)), s.TruePred(),
                        s.AggCount(), s.Template((s.BindData("r"),)), s.LocLit("l"))
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
        from fixtures import srow
        rows = Multiset([srow(2), srow(1)])
        assert s.render_rows(rows) == "{(1), (2)}"

    def test_delete_renders_with_target(self):
        a = s.Delete("KLD", s.Template((s.BindData("x"),)), s.TruePred(), s.LocLit("l1"))
        assert s.render(a) == "delete(KLD@$l1, (!x), true)"

    def test_string_escapes(self):
        assert s.render(s.StrLit('a"b\\c\n')) == '"a\\"b\\\\c\\n"'
