"""Transition engine: per-rule goldens, scheduling, exploration."""

import pathlib
import random

import pytest

from fixtures import (
    KLD_ROWS,
    KLD_SCHEMA,
    KLD_TABLE,
    SEVEN_BINDERS,
    WHITE_ROW,
    fresh,
    keeps_old_table,
    srow,
)
import reference_eval as ref
from kdb import semantics
from kdb import syntax as s
from kdb.net import canonical_key, canonicalize, dump_tables, find_tables, lid
from kdb.parser import parse_system
from kdb.typesys import check_system
from kdb.semantics import (
    IntegrityError,
    Trace,
    _row_pass,
    enumerate_transitions,
    explore,
    run,
    step_interactive,
)
from kdb.values import Multiset, ValueTuple, VLoc, VSet

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


def empty_system(net: s.Net) -> s.System:
    return s.System(procedures={}, schema_decls=(), main_net=net)


def node(loc, comp):
    return s.Node(loc, comp)


def prefix_chain(*actions) -> s.Process:
    p: s.Process = s.NilProc()
    for a in reversed(actions):
        p = s.Prefix(a, p)
    return p


def lit(x) -> s.Expr:
    return x if isinstance(x, int) else x


def tup(*xs) -> s.Tuple:
    return s.Tuple(tuple(lit(x) for x in xs))


WHITE_TUPLE = tup("001", "HB", "2015", "white", "37", 6, 0)


def kld_net(process: s.Process, at="l1") -> s.Net:
    return s.ParNet(node(at, s.ProcComp(process)), node("l1", KLD_TABLE))


def single_step(sys: s.System):
    cn = canonicalize(sys.main_net)
    transitions = enumerate_transitions(cn, sys)
    assert len(transitions) == 1, [t.label for t in transitions]
    return transitions[0]


class TestInsertion:
    def test_insert_appends_the_evaluated_row(self):
        sys1 = empty_system(kld_net(prefix_chain(
            s.Insert("KLD", WHITE_TUPLE, VLoc("l1")))))
        label, succ = single_step(sys1)
        assert label.rule == "INS"
        (table,) = find_tables(succ, "l1", "KLD")
        assert table.rows == KLD_ROWS.changed(added={WHITE_ROW: 1})

    def test_misformatted_insert_collapses_to_the_error_net(self):
        sys1 = empty_system(kld_net(prefix_chain(
            s.Insert("KLD", tup("001", "HB", "2015"), VLoc("l1")))))
        label, succ = single_step(sys1)
        assert label.rule == "INS"
        assert succ.err
        assert not succ.items

    def test_insert_without_a_table_is_stuck(self):
        sys1 = empty_system(node("l1", s.ProcComp(prefix_chain(
            s.Insert("KLD", WHITE_TUPLE, VLoc("l1"))))))
        cn = canonicalize(sys1.main_net)
        assert enumerate_transitions(cn, sys1) == []


class TestDeletion:
    def test_delete_restores_the_original_table(self):
        pred = s.And(s.Cmp("=", s.Var("tp"), lit("HB")),
                     s.And(s.Cmp("=", s.Var("cr"), lit("white")),
                           s.Cmp("=", s.Var("sz"), lit("37"))))
        proc = prefix_chain(
            s.Insert("KLD", WHITE_TUPLE, VLoc("l1")),
            s.Delete("KLD", SEVEN_BINDERS, pred, VLoc("l1")),
        )
        sys1 = empty_system(kld_net(proc))
        trace = run(sys1, seed=0, max_steps=10)
        assert trace.terminal == "quiescent"
        assert [l.rule for l, _ in trace.steps] == ["INS", "DEL"]
        mid = trace.steps[0][1]
        (table_mid,) = find_tables(mid, "l1", "KLD")
        assert table_mid.rows == KLD_ROWS.changed(added={WHITE_ROW: 1})
        (table,) = find_tables(trace.final(), "l1", "KLD")
        assert table.rows == KLD_ROWS

    def test_non_matching_arity_template_is_an_error(self):
        proc = prefix_chain(
            s.Delete("KLD", s.Template((s.BindData("a"),)), s.TruePred(), VLoc("l1")))
        sys1 = empty_system(kld_net(proc))
        _, succ = single_step(sys1)
        assert succ.err


SELECT_PRED = s.And(
    s.Cmp("=", s.Var("id"), lit("001")),
    s.And(s.Cmp("=", s.Var("tp"), lit("HB")),
          s.Cmp("!=", s.Var("cr"), lit("red"))),
)
SELECT_PAYLOAD = s.Tuple((s.Var("cr"), s.Var("sz"), s.Var("ss")))


class TestSelection:
    def select_action(self, cont_uses="tbv"):
        return s.Select((s.TableByName("KLD", VLoc("l1")),), SEVEN_BINDERS,
                        SELECT_PRED, SELECT_PAYLOAD, cont_uses)

    def test_black_high_boots_selected(self):
        cont = s.Foreach(s.TableByVar("tbv"),
                         s.Template((s.BindData("a"), s.BindData("b"), s.BindData("c"))),
                         s.TruePred(), s.OrderSpec("unordered"), s.NilProc())
        proc = s.Prefix(self.select_action(), cont)
        sys1 = empty_system(kld_net(proc, at="l0"))
        label, succ = single_step(sys1)
        assert label.rule == "SEL"
        loop = next(body for loc, body in succ.items.support()
                    if loc == "l0" and isinstance(body, s.Foreach))
        bound = loop.table
        assert isinstance(bound, s.TableLiteral)
        assert bound.interface.tid is None
        assert bound.interface.schema == (s.STRING, s.STRING, s.INT)
        assert bound.rows == Multiset([srow("black", "38", 2), srow("black", "37", 2)])

    def test_source_tables_unchanged(self):
        proc = s.Prefix(self.select_action(), s.NilProc())
        sys1 = empty_system(kld_net(proc, at="l0"))
        _, succ = single_step(sys1)
        (table,) = find_tables(succ, "l1", "KLD")
        assert table.rows == KLD_ROWS

    def test_select_blocked_until_table_appears(self):
        proc = s.Prefix(self.select_action(), s.NilProc())
        sys1 = empty_system(node("l0", s.ProcComp(proc)))
        cn = canonicalize(sys1.main_net)
        assert enumerate_transitions(cn, sys1) == []

    def test_join_of_two_tables(self):
        small = s.TableComp(s.Interface("W", (s.INT,)), Multiset([srow(10), srow(20)]))
        template = s.Template(tuple(
            [s.BindData(n) for n in SEVEN_BINDERS.names()] + [s.BindData("k")]))
        action = s.Select(
            (s.TableByName("KLD", VLoc("l1")), s.TableByName("W", VLoc("l2"))),
            template, s.Cmp("=", s.Var("id"), lit("002")),
            s.Tuple((s.Var("cr"), s.Var("k"))), "tbv")
        cont = s.Foreach(s.TableByVar("tbv"),
                         s.Template((s.BindData("a"), s.BindData("b"))),
                         s.TruePred(), s.OrderSpec("unordered"), s.NilProc())
        net = s.ParNet(kld_net(s.Prefix(action, cont), at="l0"), node("l2", small))
        sys1 = empty_system(net)
        label, succ = single_step(sys1)
        loop = next(body for loc, body in succ.items.support()
                    if loc == "l0" and isinstance(body, s.Foreach))
        assert loop.table.rows == Multiset([
            srow("green", 10), srow("green", 20), srow("brown", 10), srow("brown", 20)])

    def test_join_of_a_literal_and_a_named_table(self):
        # The joined schema is the sources' schemas laid end to end, and a
        # joined row occurs as often as the product of its parts' counts.
        literal = s.TableLiteral(s.Interface(None, (s.INT,)),
                                 Multiset.of_counts({srow(1): 2, srow(2): 1}))
        named = s.TableComp(s.Interface("T", (s.STRING,)),
                            Multiset.of_counts({srow("a"): 1, srow("b"): 3}))
        action = s.Select((literal, s.TableByName("T", VLoc("l1"))),
                          XY, s.TruePred(), s.Tuple((s.Var("x"), s.Var("y"))), "tbv")
        cont = s.Foreach(s.TableByVar("tbv"), XY, s.TruePred(), s.OrderSpec("unordered"),
                         s.NilProc())
        net = s.ParNet(node("l0", s.ProcComp(s.Prefix(action, cont))), node("l1", named))
        label, succ = single_step(empty_system(net))
        assert label.rule == "SEL"
        loop = next(body for loc, body in succ.items.support()
                    if loc == "l0" and isinstance(body, s.Foreach))
        assert loop.table.interface.schema == (s.INT, s.STRING)
        assert loop.table.rows == Multiset.of_counts({
            srow(1, "a"): 2, srow(1, "b"): 6, srow(2, "a"): 1, srow(2, "b"): 3})

    def test_duplicate_source_reads_the_table_that_renders_first(self):
        # The checker rejects two tables T@l1 (duplicate-table), so only a
        # net run unchecked holds them; a select then reads the one that
        # renders first, which is the order find_tables gives.
        tables = [t_table(srow(2)), t_table(srow(1), srow(1))]
        cont = s.Foreach(s.TableByVar("u"), X, s.TruePred(), s.OrderSpec("unordered"), s.NilProc())
        proc = s.Prefix(select_t(X, s.TruePred(), X_PAYLOAD), cont)
        net = s.ParNet(s.ParNet(node("l0", s.ProcComp(proc)), node("l1", tables[0])),
                       node("l1", tables[1]))
        label, succ = single_step(empty_system(net))
        assert label.rule == "SEL"
        loop = next(body for loc, body in succ.items.support()
                    if loc == "l0" and isinstance(body, s.Foreach))
        assert loop.table.rows == min(tables, key=s.render).rows == Multiset([srow(1), srow(1)])


class TestUpdate:
    def test_red_size37_high_boots_updated(self):
        pred = s.And(s.Cmp("=", s.Var("tp"), lit("HB")),
                     s.And(s.Cmp("=", s.Var("cr"), lit("red")),
                           s.Cmp("=", s.Var("sz"), lit("37"))))
        payload = s.Tuple((
            s.Var("id"), s.Var("tp"), s.Var("yr"), s.Var("cr"),
            s.Var("sz"),
            s.Arith("-", s.Var("is0"), 2),
            s.Arith("+", s.Var("ss"), 2),
        ))
        proc = prefix_chain(s.Update("KLD", SEVEN_BINDERS, pred, payload, VLoc("l1")))
        sys1 = empty_system(kld_net(proc))
        label, succ = single_step(sys1)
        assert label.rule == "UPD"
        (table,) = find_tables(succ, "l1", "KLD")
        untouched = Multiset.of_counts({r: n for r, n in KLD_ROWS.items()
                              if r != srow("001", "HB", "2015", "red", "37", 8, 5)})
        want = untouched.changed(added={srow("001", "HB", "2015", "red", "37", 6, 7): 1})
        assert table.rows == want

    def test_update_breaking_the_schema_is_an_error(self):
        payload = s.Tuple(tuple(s.Var(n) for n in SEVEN_BINDERS.names()[:6])
                          + (s.Arith("++", s.Var("cr"), lit("x")),))
        proc = prefix_chain(s.Update("KLD", SEVEN_BINDERS, s.TruePred(), payload,
                                     VLoc("l1")))
        sys1 = empty_system(kld_net(proc))
        _, succ = single_step(sys1)
        assert succ.err


class TestAggregation:
    def test_total_sales_of_one_shoe_id(self):
        action = s.Aggr("KLD", SEVEN_BINDERS, s.Cmp("=", s.Var("id"), lit("001")),
                        s.AggrFn("sum", 7), s.Template((s.BindData("res"),)), VLoc("l1"))
        cont = prefix_chain(s.Insert("Out", s.Tuple((s.Var("res"),)), VLoc("l1")))
        out_table = s.TableComp(s.Interface("Out", (s.INT,)), Multiset())
        net = s.ParNet(kld_net(s.Prefix(action, cont)), node("l1", out_table))
        sys1 = empty_system(net)
        trace = run(sys1, seed=0, max_steps=10)
        assert [l.rule for l, _ in trace.steps] == ["AGR", "INS"]
        (out,) = find_tables(trace.final(), "l1", "Out")
        assert out.rows == Multiset([srow(12)])

    def test_aggregation_leaves_the_table_alone(self):
        action = s.Aggr("KLD", SEVEN_BINDERS, s.TruePred(), s.AggrFn("count"),
                        s.Template((s.BindData("n"),)), VLoc("l1"))
        sys1 = empty_system(kld_net(s.Prefix(action, s.NilProc())))
        _, succ = single_step(sys1)
        (table,) = find_tables(succ, "l1", "KLD")
        assert table.rows == KLD_ROWS

    def test_wrong_result_binder_is_an_error(self):
        action = s.Aggr("KLD", SEVEN_BINDERS, s.TruePred(), s.AggrFn("count"),
                        s.Template((s.BindLoc("u"),)), VLoc("l1"))
        sys1 = empty_system(kld_net(s.Prefix(action, s.NilProc())))
        _, succ = single_step(sys1)
        assert succ.err


class TestAvgGuidedPipeline:
    def test_aggregate_then_select_above_average(self):
        t0 = SEVEN_BINDERS
        primed = s.Template(tuple(s.BindData(n + "2") for n in SEVEN_BINDERS.names()))
        aggr = s.Aggr("KLD", t0, s.Cmp("=", s.Var("tp"), lit("HB")),
                      s.AggrFn("avg", 7), s.Template((s.BindData("res"),)), VLoc("l1"))
        select = s.Select(
            (s.TableByName("KLD", VLoc("l1")),), primed,
            s.Cmp(">=", s.Var("ss2"), s.Var("res")),
            s.Tuple((s.Var("cr2"), s.Var("sz2"), s.Var("ss2"))), "tbv")
        cont = s.Foreach(s.TableByVar("tbv"),
                         s.Template((s.BindData("a"), s.BindData("b"), s.BindData("c"))),
                         s.TruePred(), s.OrderSpec("unordered"), s.NilProc())
        proc = s.Prefix(aggr, s.Prefix(select, cont))
        sys1 = empty_system(kld_net(proc, at="l0"))
        cn = canonicalize(sys1.main_net)
        label1, cn = step_interactive(cn, sys1, 0)
        assert label1.rule == "AGR"
        # the average of HB sales floors to 2, guiding the selection
        assert "(2)" in label1.detail
        label2, cn = step_interactive(cn, sys1, 0)
        assert label2.rule == "SEL"
        loop = next(body for loc, body in cn.items.support()
                    if loc == "l0" and isinstance(body, s.Foreach))
        assert loop.table.rows == Multiset([
            srow("red", "38", 2), srow("red", "37", 5), srow("black", "38", 2),
            srow("black", "37", 2), srow("brown", "37", 3)])
        trace_rest = enumerate_transitions(cn, sys1)
        assert trace_rest, "the loop should still run"


class TestCreateAndDrop:
    def test_create_adds_an_empty_table(self):
        proc = prefix_chain(s.Create("Turnover", VLoc("l0"), (s.STRING, s.INT)))
        stores_like = s.TableComp(s.Interface("Stores", (s.STRING,)),
                                  Multiset([srow("x")]))
        net = s.ParNet(node("l0", s.ProcComp(proc)), node("l0", stores_like))
        sys1 = empty_system(net)
        label, succ = single_step(sys1)
        assert label.rule == "CRT"
        (made,) = find_tables(succ, "l0", "Turnover")
        assert made.interface.schema == (s.STRING, s.INT)
        assert len(made.rows) == 0

    def test_create_skips_when_identifier_taken(self):
        proc = prefix_chain(s.Create("Stores", VLoc("l0"), (s.STRING,)))
        existing = s.TableComp(s.Interface("Stores", (s.STRING,)), Multiset())
        net = s.ParNet(node("l0", s.ProcComp(proc)), node("l0", existing))
        sys1 = empty_system(net)
        label, succ = single_step(sys1)
        assert label.rule == "CRT"
        assert "skipped" in label.detail
        assert len(find_tables(succ, "l0", "Stores")) == 1

    def test_create_at_referenced_but_empty_locality(self):
        proc = prefix_chain(s.Create("T", VLoc("l2"), (s.INT,)))
        sys1 = empty_system(node("l1", s.ProcComp(proc)))
        label, succ = single_step(sys1)
        assert find_tables(succ, "l2", "T")

    def test_create_at_unknown_locality_is_stuck(self):
        # the target locality never occurs: the action stays disabled
        action = s.Create("T", s.Var("u"), (s.INT,))
        sys1 = empty_system(node("l1", s.ProcComp(prefix_chain(action))))
        cn = canonicalize(sys1.main_net)
        assert enumerate_transitions(cn, sys1) == []

    def test_drop_removes_the_table(self):
        proc = prefix_chain(s.Drop("KLD", VLoc("l1")))
        sys1 = empty_system(kld_net(proc))
        label, succ = single_step(sys1)
        assert label.rule == "DRP"
        assert find_tables(succ, "l1", "KLD") == []

    def test_drop_without_a_table_is_stuck(self):
        proc = prefix_chain(s.Drop("Nope", VLoc("l1")))
        sys1 = empty_system(kld_net(proc))
        cn = canonicalize(sys1.main_net)
        assert [t.label.rule for t in enumerate_transitions(cn, sys1)] == []


class TestEvalAction:
    def test_spawn_places_the_process_remotely(self):
        inner = prefix_chain(s.Insert("KLD", WHITE_TUPLE, VLoc("l1")))
        proc = prefix_chain(s.Eval(inner, VLoc("l1")))
        sys1 = empty_system(s.ParNet(node("l0", s.ProcComp(proc)), node("l1", KLD_TABLE)))
        label, succ = single_step(sys1)
        assert label.rule == "EVL"
        spawned = [body for loc, body in succ.items.support()
                   if loc == "l1" and isinstance(body, s.Prefix)]
        assert spawned == [inner]

    def test_open_process_cannot_be_spawned(self):
        inner = prefix_chain(s.Insert("KLD", s.Tuple((s.Var("x"),)), VLoc("l1")))
        proc = prefix_chain(s.Eval(inner, VLoc("l1")))
        sys1 = empty_system(s.ParNet(node("l0", s.ProcComp(proc)), node("l1", KLD_TABLE)))
        cn = canonicalize(sys1.main_net)
        assert enumerate_transitions(cn, sys1) == []


class TestForeach:
    def out_table(self):
        return s.TableComp(s.Interface("Out", (s.INT,)), Multiset())

    def loop(self, rows, order, body=None):
        table = s.TableLiteral(s.Interface("T", (s.INT,)), Multiset(rows))
        body = body or prefix_chain(
            s.Insert("Out", s.Tuple((s.Var("x"),)), VLoc("l1")))
        return s.Foreach(table, s.Template((s.BindData("x"),)), s.TruePred(),
                         order, body)

    def test_total_order_visits_rows_ascending(self):
        sys1 = empty_system(s.ParNet(
            node("l1", s.ProcComp(self.loop([srow(3), srow(1), srow(2)], s.OrderSpec("asc", 1)))),
            node("l1", self.out_table())))
        trace = run(sys1, seed=4, max_steps=50)
        details = [l.detail for l, _ in trace.steps if l.rule == "FOR_TT"]
        assert details == ["iterate on (1)", "iterate on (2)", "iterate on (3)"]
        assert trace.terminal == "quiescent"

    def test_exactly_one_maximal_trace_under_a_total_order(self):
        sys1 = empty_system(s.ParNet(
            node("l1", s.ProcComp(self.loop([srow(2), srow(1)], s.OrderSpec("lex")))),
            node("l1", self.out_table())))
        result = explore(sys1, bound=1000)
        # each step is forced: states form a single chain
        assert len(result.quiescent) == 1
        assert result.states == 6

    def test_unordered_loop_reaches_all_visit_orders(self):
        rows = [srow(1), srow(2), srow(3)]
        seen = set()
        for seed in range(60):
            sys1 = empty_system(s.ParNet(
                node("l1", s.ProcComp(self.loop(rows, s.OrderSpec("unordered")))),
                node("l1", self.out_table())))
            trace = run(sys1, seed=seed, max_steps=50)
            order = tuple(l.detail for l, _ in trace.steps if l.rule == "FOR_TT")
            seen.add(order)
        assert len(seen) == 6

    def test_loop_skips_non_matching_rows_under_an_order(self):
        table = s.TableLiteral(s.Interface("T", (s.INT,)),
                               Multiset([srow(1), srow(2), srow(3)]))
        loop = s.Foreach(table, s.Template((s.BindData("x"),)),
                         s.Cmp(">", s.Var("x"), 1), s.OrderSpec("asc", 1),
                         prefix_chain(s.Insert("Out", s.Tuple((s.Var("x"),)),
                                               VLoc("l1"))))
        sys1 = empty_system(s.ParNet(node("l1", s.ProcComp(loop)),
                                     node("l1", self.out_table())))
        trace = run(sys1, seed=0, max_steps=50)
        details = [l.detail for l, _ in trace.steps if l.rule == "FOR_TT"]
        assert details == ["iterate on (2)", "iterate on (3)"]

    def test_erroneous_row_surfaces_at_loop_exit(self):
        table = s.TableLiteral(s.Interface("T", (s.INT, s.INT)), Multiset([srow(1, 1)]))
        loop = s.Foreach(table, s.Template((s.BindData("x"),)), s.TruePred(),
                         s.OrderSpec("unordered"), s.NilProc())
        sys1 = empty_system(node("l1", s.ProcComp(loop)))
        _, succ = single_step(sys1)
        assert succ.err

    def test_loop_over_a_name_reference_is_stuck(self):
        loop = s.Foreach(s.TableByName("KLD", VLoc("l1")), SEVEN_BINDERS,
                         s.TruePred(), s.OrderSpec("unordered"), s.NilProc())
        sys1 = empty_system(kld_net(loop))
        cn = canonicalize(sys1.main_net)
        assert enumerate_transitions(cn, sys1) == []


class TestSequencing:
    def test_seq_advances_head_then_drops_to_tail(self):
        first = prefix_chain(s.Insert("KLD", WHITE_TUPLE, VLoc("l1")))
        second = prefix_chain(s.Drop("KLD", VLoc("l1")))
        sys1 = empty_system(kld_net(s.Seq(first, second)))
        trace = run(sys1, seed=0, max_steps=10)
        assert [l.rule for l, _ in trace.steps] == ["SEQ_FF", "DRP"]
        assert trace.terminal == "quiescent"

    def test_seq_keeps_tail_while_head_continues(self):
        first = prefix_chain(
            s.Insert("KLD", WHITE_TUPLE, VLoc("l1")),
            s.Insert("KLD", WHITE_TUPLE, VLoc("l1")),
        )
        sys1 = empty_system(kld_net(s.Seq(first, s.NilProc())))
        label, succ = single_step(sys1)
        assert label.rule == "SEQ_TT"

    def test_error_propagates_through_seq(self):
        first = prefix_chain(s.Insert("KLD", tup(1), VLoc("l1")))
        sys1 = empty_system(kld_net(s.Seq(first, s.NilProc())))
        _, succ = single_step(sys1)
        assert succ.err


class TestCall:
    def test_call_substitutes_evaluated_arguments(self):
        body = prefix_chain(s.Insert("KLD", s.Tuple((
            s.Var("a"), lit("HB"), lit("2015"), lit("white"), lit("37"),
            s.Var("n"), lit(0))), s.Var("u")))
        sysdef = s.ProcDef("go", (("a", s.STRING), ("n", s.INT), ("u", s.LOC)), body)
        proc = s.CallProc("go", (lit("001"), s.Arith("+", lit(2), lit(4)), VLoc("l1")))
        sys1 = s.System(procedures={"go": sysdef}, schema_decls=(),
                        main_net=kld_net(proc))
        trace = run(sys1, seed=0, max_steps=10)
        assert [l.rule for l, _ in trace.steps] == ["CALL", "INS"]
        (table,) = find_tables(trace.final(), "l1", "KLD")
        assert table.rows == KLD_ROWS.changed(added={srow("001", "HB", "2015", "white", "37", 6, 0): 1})

    def test_recursive_procedure_expands_lazily(self):
        body = s.Prefix(s.Insert("T", tup(1), VLoc("l1")),
                        s.CallProc("loop", ()))
        sysdef = s.ProcDef("loop", (), body)
        table = s.TableComp(s.Interface("T", (s.INT,)), Multiset())
        sys1 = s.System(procedures={"loop": sysdef}, schema_decls=(),
                        main_net=s.ParNet(node("l1", s.ProcComp(s.CallProc("loop", ()))),
                                          node("l1", table)))
        trace = run(sys1, seed=0, max_steps=7)
        assert trace.terminal == "step-limit"
        rules = [l.rule for l, _ in trace.steps]
        assert rules == ["CALL", "INS", "CALL", "INS", "CALL", "INS", "CALL"]

    def test_a_call_does_not_capture_a_restricted_name(self, monkeypatch):
        # `p` names the free `$a`, so the restriction beside its call is
        # renamed apart from it, built in code as when parsed: the insert
        # waits for a table at the free `$a` and the private T stays empty.
        insert = s.Prefix(s.Insert("T", tup(1), VLoc("a")), s.NilProc())
        table = s.TableComp(s.Interface("T", (s.INT,)), Multiset())
        built = s.System({"p": s.ProcDef("p", (), insert)}, (), s.Restrict("a", s.ParNet(
            node("a", table), node("l", s.ProcComp(s.CallProc("p", ()))))))
        parsed = parse_system("let p() := insert(T@$a, (1)). nil in "
                              "(new $a) ($a :: table T : (Int) = {} || $l :: p())")
        read = []
        net_parts = s.net_parts
        monkeypatch.setattr(s, "net_parts", lambda *a: read.append(net_parts(*a)) or read[-1])
        for sys1 in (built, parsed):
            trace = run(sys1, seed=0)
            assert [label.rule for label, _ in trace.steps] == ["CALL"]
            assert trace.terminal == "quiescent"
            assert trace.disabled() == ["l :: insert(T@$a, (1)). nil"]
            assert dump_tables(trace.final()) == [
                {"loc": "a#1", "tid": "T", "schema": "(Int)", "rows": []}]
            cn = canonicalize(sys1.main_net, sys1.procedures)
            assert cn.restricted == ("a#1",)
            read.clear()
            assert check_system(sys1) == []
            assert read == [(cn.restricted, [("a#1", table), ("l", s.CallProc("p", ()))])]
        assert parsed.procedures == built.procedures and parsed.main_net == built.main_net

    def test_call_to_an_undefined_procedure_is_stuck(self):
        # The parser rejects such a call, so only a built system has one.
        sys1 = s.System({}, (), s.Node("l", s.ProcComp(s.CallProc("g", ()))))
        trace = run(sys1)
        assert (trace.terminal, trace.steps) == ("quiescent", [])
        assert trace.disabled() == ["l :: g()"]


class TestScheduling:
    def test_same_seed_same_trace(self):
        text = (CORPUS / "dept_stores.kdb").read_text()
        sys1 = parse_system(text)
        t1 = run(sys1, seed=42, max_steps=100)
        t2 = run(sys1, seed=42, max_steps=100)
        assert [l for l, _ in t1.steps] == [l for l, _ in t2.steps]
        assert [canonical_key(c) for _, c in t1.steps] == [canonical_key(c) for _, c in t2.steps]

    def test_empty_net_is_quiescent_immediately(self):
        trace = run(empty_system(s.NilNet()), seed=0, max_steps=10)
        assert trace.terminal == "quiescent"
        assert trace.steps == []

    def test_step_interactive_bounds(self):
        sys1 = empty_system(s.NilNet())
        cn = canonicalize(sys1.main_net)
        with pytest.raises(IndexError):
            step_interactive(cn, sys1, 0)

    def test_quiescence_reports_disabled_actions(self):
        stuck = prefix_chain(s.Insert("Nowhere", tup(1), VLoc("l9")))
        sys1 = empty_system(node("l1", s.ProcComp(stuck)))
        trace = run(sys1, seed=0, max_steps=10)
        assert trace.terminal == "quiescent"
        (msg,) = trace.disabled()
        assert msg.startswith("l1 ::")
        assert "Nowhere" in msg


class TestInterleaving:
    def two_writer_system(self):
        table = s.TableComp(s.Interface("T", (s.INT,)), Multiset([srow(1)]))
        bump = lambda amount: prefix_chain(s.Update(  # noqa: E731
            "T", s.Template((s.BindData("x"),)), s.TruePred(),
            s.Tuple((s.Arith("*", s.Var("x"), amount),)), VLoc("l1")))
        net = s.ParNet(s.ParNet(node("l1", s.ProcComp(bump(2))),
                                node("l1", s.ProcComp(bump(3)))),
                       node("l1", table))
        return empty_system(net)

    def test_both_orders_reach_the_same_confluent_state(self):
        result = explore(self.two_writer_system(), bound=100)
        finals = {canonical_key(cn) for cn in result.quiescent}
        assert len(finals) == 1  # multiplication commutes: confluent
        assert not result.err_reachable

    def test_divergent_writers_reach_two_states(self):
        table = s.TableComp(s.Interface("T", (s.INT,)), Multiset([srow(1)]))
        setter = lambda v: prefix_chain(s.Update(  # noqa: E731
            "T", s.Template((s.BindData("x"),)), s.TruePred(),
            s.Tuple((v,)), VLoc("l1")))
        net = s.ParNet(s.ParNet(node("l1", s.ProcComp(setter(7))),
                                node("l1", s.ProcComp(setter(9)))),
                       node("l1", table))
        result = explore(empty_system(net), bound=100)
        rows = set()
        for cn in result.quiescent:
            (t,) = find_tables(cn, "l1", "T")
            rows.add(tuple(sorted(v for (v,) in t.rows)))
        assert rows == {(7,), (9,)}

    def test_selection_is_atomic_against_a_concurrent_update(self):
        table = s.TableComp(s.Interface("T", (s.INT,)), Multiset([srow(1), srow(2)]))
        out = s.TableComp(s.Interface("Out", (s.INT,)), Multiset())
        reader = s.Prefix(
            s.Select((s.TableByName("T", VLoc("l1")),),
                     s.Template((s.BindData("x"),)), s.TruePred(),
                     s.Tuple((s.Var("x"),)), "tbv"),
            s.Foreach(s.TableByVar("tbv"), s.Template((s.BindData("y"),)),
                      s.TruePred(), s.OrderSpec("unordered"),
                      prefix_chain(s.Insert("Out", s.Tuple((s.Var("y"),)),
                                            VLoc("l2")))))
        writer = prefix_chain(s.Update(
            "T", s.Template((s.BindData("z"),)), s.TruePred(),
            s.Tuple((s.Arith("+", s.Var("z"), 10),)), VLoc("l1")))
        net = s.ParNet(s.ParNet(node("l1", s.ProcComp(reader)),
                                node("l1", s.ProcComp(writer))),
                       s.ParNet(node("l1", table), node("l2", out)))
        result = explore(empty_system(net), bound=1000)
        snapshots = set()
        for cn in result.quiescent:
            (t,) = find_tables(cn, "l2", "Out")
            snapshots.add(tuple(sorted(v for (v,) in t.rows)))
        # the selection sees the table wholly before or wholly after the update
        assert snapshots == {(1, 2), (11, 12)}

    def test_alpha_equivalent_copies_are_one_item(self):
        # Binders keep their written names, so two copies of one process
        # are one item of count 2, and their interleavings one set of states.
        copy = "aggr(T@$l, (!x), true, sum[1], (!y)). insert(U@$l, (y)). nil"
        result = explore(parse_system(
            f"$l :: {{ table T : (Int) = {{(1), (2)}} | table U : (Int) = {{}} "
            f"| {copy} | {copy} }}"), bound=100)
        assert (result.states, len(result.edges)) == (6, 6)
        assert not result.err_reachable


class TestDuplicateTables:
    def test_one_transition_per_matching_table(self):
        # Nets violating identifier integrity still execute deterministically:
        # each matching table is its own redex.
        t1 = s.TableComp(s.Interface("T", (s.INT,)), Multiset([srow(1)]))
        t2 = s.TableComp(s.Interface("T", (s.INT,)), Multiset([srow(2)]))
        proc = prefix_chain(s.Insert("T", tup(9), VLoc("l1")))
        net = s.ParNet(s.ParNet(node("l1", s.ProcComp(proc)), node("l1", t1)),
                       node("l1", t2))
        sys1 = empty_system(net)
        cn = canonicalize(sys1.main_net)
        transitions = enumerate_transitions(cn, sys1)
        assert len(transitions) == 2
        assert all(label.rule == "INS" for label, _ in transitions)



def keeps_old_t(real_write):
    """A table write that is faulty only on tables named T."""
    def write(loc, tab, rows, cont):
        faulty = tab.interface.tid == "T"
        return (keeps_old_table if faulty else real_write)(loc, tab, rows, cont)
    return write


class TestIntegrity:
    WRITES = [
        s.Insert("T", tup(3), VLoc("l1")),
        s.Delete("T", s.Template((s.BindData("x"),)), s.TruePred(), VLoc("l1")),
        s.Update("T", s.Template((s.BindData("x"),)), s.TruePred(),
                 s.Tuple((s.Arith("+", s.Var("x"), 1),)), VLoc("l1")),
    ]

    @pytest.mark.parametrize("write", WRITES, ids=["insert", "delete", "update"])
    def test_a_write_that_keeps_the_old_table_is_caught(self, write, monkeypatch):
        net = s.ParNet(node("l1", s.ProcComp(prefix_chain(write))),
                       node("l1", s.TableComp(s.Interface("T", (s.INT,)),
                                              Multiset([srow(1), srow(2)]))))
        sys1 = empty_system(net)
        cn = canonicalize(net)
        assert len(enumerate_transitions(cn, sys1)) == 1
        # The sound outcomes stay with the nodes that computed them, so the
        # faulty write runs on copies that have computed none.
        monkeypatch.setattr(semantics, "_write", keeps_old_table)
        with pytest.raises(IntegrityError, match=f"{write.__class__.__name__[:3].upper()} at l1"):
            enumerate_transitions(fresh(cn), sys1)
        with pytest.raises(IntegrityError):
            run(fresh(sys1), seed=0)

    def test_run_checks_the_transitions_it_does_not_pick(self, monkeypatch):
        # An insert into T@l1 and one into U@l2; only writes to T are faulty.
        # Under the chosen seed the scheduler picks the insert into U, and
        # the run stops after that one step: the insert into T is never
        # picked or built, yet its outcome is checked.
        u = s.TableComp(s.Interface("U", (s.INT,)), Multiset())
        net = s.ParNet(with_t(s.Insert("T", tup(3), AT_L1), srow(1)),
                       s.ParNet(node("l2", s.ProcComp(prefix_chain(
                           s.Insert("U", tup(4), VLoc("l2"))))), node("l2", u)))
        sys1 = empty_system(net)
        seed = next(seed for seed in range(50)
                    if run(sys1, seed=seed, max_steps=1).steps[0][0].actor == "l2")
        built = []
        real = semantics.make_canonical
        monkeypatch.setattr(semantics, "make_canonical",
                            lambda *args: built.append(args) or real(*args))
        monkeypatch.setattr(semantics, "_write", keeps_old_t(semantics._write))
        with pytest.raises(IntegrityError, match="INS at l1"):
            run(fresh(sys1), seed=seed, max_steps=1)
        assert built == []

    def test_a_net_that_already_repeats_an_identifier_is_not_checked(self, monkeypatch):
        t1 = t_table(srow(1))
        t2 = t_table(srow(2))
        proc = prefix_chain(s.Insert("T", tup(9), AT_L1))
        net = s.ParNet(s.ParNet(node("l1", s.ProcComp(proc)), node("l1", t1)), node("l1", t2))
        monkeypatch.setattr(semantics, "_write", keeps_old_table)
        assert len(enumerate_transitions(canonicalize(net), empty_system(net))) == 2


X = s.Template((s.BindData("x"),))
XY = s.Template((s.BindData("x"), s.BindData("y")))
AT_L1 = VLoc("l1")
# Comparing an Int with a String is an evaluation error.
BAD_CMP = s.Cmp("=", s.Var("x"), lit("a"))
NO_ROW = s.Cmp(">", s.Var("x"), 5)


def t_table(*rows, schema=(s.INT,)) -> s.TableComp:
    return s.TableComp(s.Interface("T", schema), Multiset(rows))


def with_t(action, *rows, schema=(s.INT,)) -> s.Net:
    """One action at l1 beside an unchecked table T@l1 holding rows."""
    return s.ParNet(node("l1", s.ProcComp(prefix_chain(action))),
                    node("l1", t_table(*rows, schema=schema)))


def select_t(template, pred, payload, source=s.TableByName("T", AT_L1)) -> s.Select:
    return s.Select((source,), template, pred, payload, "u")


def loop_at_l1(pred, order, *rows, template=X) -> s.Net:
    table = s.TableLiteral(s.Interface("T", (s.INT,)), Multiset(rows))
    return node("l1", s.ProcComp(s.Foreach(table, template, pred, order, s.NilProc())))


X_PAYLOAD = s.Tuple((s.Var("x"),))

MONITORED = [
    pytest.param(with_t(s.Insert("T", tup("a"), AT_L1), srow(1)),
                 "INS", "insert into T@l1: bad row format", True, id="ins-bad-row"),
    pytest.param(with_t(s.Delete("T", XY, s.TruePred(), AT_L1), srow(1)),
                 "DEL", "delete from T@l1: format or evaluation error", True, id="del-format"),
    pytest.param(with_t(s.Delete("T", X, BAD_CMP, AT_L1), srow(1), srow(2)),
                 "DEL", "delete from T@l1: format or evaluation error", True, id="del-eval"),
    pytest.param(with_t(s.Update("T", XY, s.TruePred(), tup(1, 2), AT_L1), srow(1)),
                 "UPD", "update T@l1: template mismatch", True, id="upd-template"),
    pytest.param(with_t(s.Update("T", X, NO_ROW, s.Tuple((s.Arith("++", s.Var("x"), lit("a")),)),
                                 AT_L1), srow(1)),
                 "UPD", "update T@l1: format or evaluation error", True,
                 id="upd-payload-fails-on-rejected-row"),
    pytest.param(with_t(s.Update("T", X, s.TruePred(), tup("a"), AT_L1), srow(1)),
                 "UPD", "update T@l1: format or evaluation error", True,
                 id="upd-new-row-breaks-schema"),
    pytest.param(with_t(s.Aggr("T", X, s.TruePred(), s.AggrFn("sum", 1),
                               s.Template((s.BindData("r"),)), AT_L1), srow("a"), schema=(s.STRING,)),
                 "AGR", "aggregate over T@l1: signature or evaluation error", True,
                 id="agr-signature"),
    pytest.param(with_t(s.Aggr("T", X, BAD_CMP, s.AggrFn("count"), s.Template((s.BindData("r"),)),
                               AT_L1), srow(1)),
                 "AGR", "aggregate over T@l1: signature or evaluation error", True,
                 id="agr-eval"),
    pytest.param(with_t(select_t(X, s.TruePred(), X_PAYLOAD, source=s.TableByVar("t"))),
                 "SEL", "select: unresolvable table source", True, id="sel-unresolvable"),
    pytest.param(with_t(select_t(X, s.TruePred(), X_PAYLOAD,
                                 source=s.TableByName("T", s.Var("u"))), srow(1)),
                 "SEL", "select: unresolvable table source", True,
                 id="sel-variable-locality"),
    pytest.param(with_t(select_t(XY, s.TruePred(), X_PAYLOAD), srow(1)),
                 "SEL", "select: template does not fit the joined schema", True,
                 id="sel-template"),
    pytest.param(with_t(select_t(X, s.TruePred(), X_PAYLOAD), srow(1), srow(1, 2)),
                 "SEL", "select: row fails to match the template", True, id="sel-row-match"),
    pytest.param(with_t(select_t(X, BAD_CMP, X_PAYLOAD), srow(1)),
                 "SEL", "select: evaluation error", True, id="sel-eval"),
    pytest.param(with_t(select_t(X, BAD_CMP, X_PAYLOAD), srow(1), srow(1, 2)),
                 "SEL", "select: evaluation error", True, id="sel-first-failing-row-decides"),
    pytest.param(with_t(select_t(X, s.TruePred(),
                                 s.Tuple((s.Arith("+", s.Var("x"), 1),))),
                        srow(1)),
                 "SEL", "select: malformed payload for schema projection", True,
                 id="sel-payload"),
    pytest.param(loop_at_l1(s.TruePred(), s.OrderSpec("asc", 2), srow(1)),
                 "FOR_TT", "loop order names a missing column", True, id="for-order-column"),
    pytest.param(loop_at_l1(s.TruePred(), s.OrderSpec("asc"), srow(1, 9), srow(2, 3), template=XY),
                 "FOR_TT", "loop order names a missing column", True,
                 id="for-order-column-zero"),
    pytest.param(loop_at_l1(BAD_CMP, s.OrderSpec("unordered"), srow(1), srow(2)),
                 "FOR_FF", "loop exit: format or evaluation error", True, id="for-exit-error"),
    pytest.param(loop_at_l1(s.TruePred(), s.OrderSpec("unordered"), srow(1, 2), template=X),
                 "FOR_FF", "loop exit: format or evaluation error", True, id="for-exit-mismatch"),
    pytest.param(loop_at_l1(s.Cmp(">", s.Var("x"), 0), s.OrderSpec("unordered"),
                            srow("a"), srow(1)),
                 "FOR_TT", "iterate on (1)", False, id="for-iterates-past-a-failing-row"),
]


@pytest.mark.parametrize("net, rule, detail, err", MONITORED)
def test_monitored_error_outcome(net, rule, detail, err):
    label, succ = single_step(empty_system(net))
    assert (label.rule, label.actor, label.detail) == (rule, "l1", detail)
    assert succ.err == err


class TestRunTerminal:
    def inserts(self, *values) -> s.Net:
        proc = prefix_chain(*(s.Insert("T", tup(v), AT_L1) for v in values))
        return s.ParNet(node("l1", s.ProcComp(proc)), node("l1", t_table()))

    def test_no_steps_allowed_on_an_enabled_net_is_the_step_limit(self):
        trace = run(empty_system(self.inserts(1)), seed=0, max_steps=0)
        assert (trace.terminal, trace.steps) == ("step-limit", [])

    def test_no_steps_allowed_on_a_quiescent_net_is_quiescent(self):
        trace = run(empty_system(node("l1", t_table(srow(1)))), seed=0, max_steps=0)
        assert (trace.terminal, trace.steps) == ("quiescent", [])

    def test_error_on_the_last_allowed_step_is_err(self):
        trace = run(empty_system(self.inserts("a", 2)), seed=0, max_steps=1)
        assert trace.terminal == "err"
        assert [l.rule for l, _ in trace.steps] == ["INS"]

    def test_quiescence_exactly_at_the_limit_is_quiescent(self):
        trace = run(empty_system(self.inserts(1, 2)), seed=0, max_steps=2)
        assert trace.terminal == "quiescent"
        assert len(trace.steps) == 2

    def test_enabled_at_the_limit_is_the_step_limit(self):
        trace = run(empty_system(self.inserts(1, 2)), seed=0, max_steps=1)
        assert trace.terminal == "step-limit"
        assert len(trace.steps) == 1

    @pytest.mark.parametrize("text", ["ERR", "$l :: nil || ERR"])
    def test_a_net_that_starts_as_the_error_net_is_err(self, text):
        # The error net has no transitions, yet it is no quiescent state.
        trace = run(parse_system(text), seed=0)
        assert (trace.terminal, trace.steps, trace.disabled()) == ("err", [], [])
        result = explore(parse_system(text))
        assert result.err_reachable and result.quiescent == []


class TestCaseStudyRun:
    def test_summary_row_present_after_the_branch_iteration(self):
        text = (CORPUS / "dept_stores.kdb").read_text()
        sys1 = parse_system(text)
        trace = run(sys1, seed=0, max_steps=200)
        assert trace.terminal == "quiescent"
        snapshots = []
        for label, cn in trace.steps:
            for d in dump_tables(cn):
                if d["tid"] == "SSResult":
                    snapshots.append(d["rows"])
        assert [["Shop1", "HB", 12]] in snapshots
        # the result table is dropped at the end
        assert not any(d["tid"] == "SSResult" for d in dump_tables(trace.final()))

    def test_integrity_preserved_throughout(self):
        from nets import no_rep
        text = (CORPUS / "dept_stores.kdb").read_text()
        sys1 = parse_system(text)
        trace = run(sys1, seed=3, max_steps=200)
        for _, cn in trace.steps:
            assert no_rep(lid(cn))


def test_select_payload_longer_than_its_template_checks_and_runs():
    # A checked select whose payload outgrows its template must not reach ERR.
    text = ("schema T : (Int)\n"
            "schema R : (Int, Int, Int)\n"
            "$l :: { table T : (Int) = {(5)} | select(T@$l, (!x), true, (x, 1, 2), !t). "
            "foreach(t, (!a, !b, !c), true, unordered): insert(R@$l, (a, b, c)). nil } "
            "|| $l :: table R : (Int, Int, Int) = {}")
    sys1 = parse_system(text)
    assert check_system(sys1) == []
    trace = run(sys1, seed=0, max_steps=50)
    assert trace.terminal == "quiescent"
    (table,) = find_tables(trace.final(), "l", "R")
    assert table.rows == Multiset([srow(5, 1, 2)])


def test_create_and_eval_at_a_locality_with_no_node():
    # A create or eval names a locality of its own body, so the locality
    # exists for the engine, though no node sits there.
    text = ("$l :: create(T@$nowhere, (Int)). "
            "eval(insert(T@$nowhere, (1)). nil, $elsewhere). nil")
    sys1 = parse_system(text)
    assert check_system(sys1) == []
    trace = run(sys1, seed=0, max_steps=50)
    assert trace.terminal == "quiescent"
    assert [label.rule for label, _ in trace.steps] == ["CRT", "EVL", "INS"]
    (table,) = find_tables(trace.final(), "nowhere", "T")
    assert table.rows == Multiset([srow(1)])


class TestRowPassAgainstReference:
    """The compiled row pass gives the reference pass's failure, hits and
    taken rows, in the same order, on random templates, rows, predicates and
    payloads; the reference matches each row and evaluates under the match."""

    NAMES = ("a", "b", "c")
    INT, STR, SET, LOC = range(4)

    @staticmethod
    def var(field):
        return s.Var(field.name)

    def template(self, rng):
        # Three names over up to four fields, so names often repeat.
        return s.Template(tuple(
            (s.BindLoc if rng.random() < 0.3 else s.BindData)(rng.choice(self.NAMES))
            for _ in range(rng.randrange(1, 5))))

    def cell(self, rng, kind):
        if rng.random() < 0.05:  # the wrong sort: a locality in a data column, or back
            return 1 if kind == self.LOC else VLoc("l2")
        if rng.random() < 0.05 and kind != self.LOC:
            kind = rng.randrange(3)  # a column of mixed kinds, as an unchecked net has
        if kind == self.INT:
            return rng.randrange(-1, 3)
        if kind == self.STR:
            return rng.choice("xy")
        if kind == self.SET:
            return VSet(Multiset([rng.randrange(2) for _ in range(rng.randrange(3))]))
        return VLoc(rng.choice(("l1", "l2")))

    def row(self, rng, kinds):
        cells = [self.cell(rng, kind) for kind in kinds]
        if rng.random() < 0.05:  # the wrong width
            cells = cells[:-1] if len(cells) > 1 and rng.random() < 0.5 else cells * 2
        return ValueTuple(tuple(cells))

    def rows(self, rng, kinds):
        counts = {}
        for _ in range(rng.randrange(6)):
            row = self.row(rng, kinds)
            counts[row] = counts.get(row, 0) + rng.randrange(1, 4)
        return Multiset.of_counts(counts)

    def edit(self, rng, rows, kinds):
        """rows after a random insert, update or delete of one row; the rows
        it leaves alone stay the same objects."""
        c = rng.random()
        if rows and c < 0.6:
            old = rng.choice([row for row, _ in rows.items()])
            rows = rows.changed({old: 1})
            if c < 0.3:
                return rows
        return rows.changed(added={self.row(rng, kinds): 1})

    def expr(self, rng, depth):
        c = rng.random()
        if depth == 0 or c < 0.5:
            if c < 0.15:
                return rng.choice((rng.randrange(3), "x", VLoc("l1")))
            # A name the template does not bind is an evaluation error.
            name = "z" if rng.random() < 0.1 else rng.choice(self.NAMES)
            return s.Var(name)
        if c < 0.6:
            return s.MultisetLit((self.expr(rng, 0), self.expr(rng, 0)))
        if c < 0.9:
            return s.Arith(rng.choice("+-*/"), self.expr(rng, depth - 1), self.expr(rng, depth - 1))
        return s.Arith("++", self.expr(rng, depth - 1), "y")

    def column_test(self, rng, template, kinds):
        """A test that fits the column a name reads (its last), so that it
        mostly evaluates."""
        name = rng.choice(template.fields).name
        i = max(j for j, f in enumerate(template.fields) if f.name == name)
        x, kind = self.var(template.fields[i]), kinds[i]
        if kind == self.INT:
            if rng.random() < 0.3:
                x = s.Arith(rng.choice("+-*/"), x, rng.randrange(-1, 3))
            return s.Cmp(rng.choice(s.CMP_OPS[:-1]), x, rng.randrange(-1, 3))
        if kind == self.STR:
            if rng.random() < 0.3:
                x = s.Arith("++", x, "y")
            return s.Cmp(rng.choice(s.CMP_OPS[:-1]), x, rng.choice(("x", "xy")))
        if kind == self.SET:
            if rng.random() < 0.5:
                return s.Cmp("in", rng.randrange(2), x)
            return s.Cmp("sub", x, s.MultisetLit((0, 1, 1)))
        return s.Cmp(rng.choice(("=", "!=")), x, VLoc("l1"))

    def pred(self, rng, depth, template, kinds):
        c = rng.random()
        if c < 0.1:
            return s.TruePred()
        if depth == 0 or c < 0.6:
            if rng.random() < 0.75:
                return self.column_test(rng, template, kinds)
            if rng.random() < 0.3:
                return s.Cmp("in", self.expr(rng, 0), self.expr(rng, 1))
            return s.Cmp(rng.choice(s.CMP_OPS), self.expr(rng, 1), self.expr(rng, 1))
        if c < 0.75:
            return s.Not(self.pred(rng, depth - 1, template, kinds))
        return s.And(self.pred(rng, depth - 1, template, kinds),
                     self.pred(rng, depth - 1, template, kinds))

    def payload(self, rng, template):
        fields = list(template.fields)
        c = rng.random()
        if c < 0.1:
            return None
        if c < 0.4:
            return s.Tuple(tuple(map(self.var, fields)))  # the identity, if no name repeats
        if c < 0.55:
            rng.shuffle(fields)
            return s.Tuple(tuple(map(self.var, fields)))
        if c < 0.7:
            return s.Tuple(tuple(map(self.var, rng.sample(fields, rng.randrange(1, len(fields) + 1)))))
        if c < 0.85:
            # Fails on a row whose column is not an integer, whatever the predicate says.
            return s.Tuple((self.var(fields[0]), s.Arith("+", self.var(rng.choice(fields)), 1)))
        return s.Tuple(tuple(self.expr(rng, 1) for _ in range(rng.randrange(1, 3))))

    def test_random_passes_agree_with_the_reference(self):
        rng = random.Random(23)
        seen = set()
        for _ in range(3000):
            template = self.template(rng)
            kinds = [self.LOC if isinstance(f, s.BindLoc) else rng.choice((0, 0, 1, 2))
                     for f in template.fields]
            rows = self.rows(rng, kinds)
            pred = self.pred(rng, 2, template, kinds)
            payload = self.payload(rng, template)
            got = _row_pass(rows, template, pred, payload)
            failure, hits, taken, misses = ref.row_pass(rows, template, pred, payload)
            case = (template, rows, pred, payload)
            assert got.failure == failure, case
            assert list(got.hits.items()) == list(hits.items()), case
            assert list(got.taken.items()) == list(taken.items()), case
            repeats = len(set(template.names())) < len(template.fields)
            seen.add((failure, bool(hits), bool(misses), repeats))
        # Every failure, and every mix of hits and misses, on templates with
        # and without a repeated name.
        assert {(f, r) for f, _, _, r in seen} == {
            (f, r) for f in (None, "match", "eval") for r in (False, True)}
        assert {(h, m, r) for f, h, m, r in seen if f is None} == {
            (h, m, r) for h in (False, True) for m in (False, True) for r in (False, True)}

    def test_stores_kept_along_a_chain_of_tables_agree_with_the_reference(self):
        """Two actions over the same columns pass over a chain of tables, each
        the one before after a random insert, update or delete, and each keeps
        one verdict store for the whole chain, as a waiting process does."""
        rng = random.Random(31)
        seen = set()
        met = visited = 0
        for _ in range(400):
            template = self.template(rng)
            kinds = [self.LOC if isinstance(f, s.BindLoc) else rng.choice((0, 0, 1, 2))
                     for f in template.fields]
            other = s.Template(tuple(f.__class__(rng.choice(self.NAMES)) for f in template.fields))
            actions = [(tm, self.pred(rng, 2, tm, kinds), self.payload(rng, tm))
                       for tm in (template, other)]
            stores = [{} for _ in actions]
            rows = self.rows(rng, kinds)
            for _ in range(6):
                for action, store in zip(actions, stores):
                    met += sum(row in store for row, _ in rows.items())
                    visited += len(rows.items())
                    got = _row_pass(rows, *action, store)
                    failure, hits, taken, _ = ref.row_pass(rows, *action)
                    case = (action, rows)
                    assert got.failure == failure, case
                    assert list(got.hits.items()) == list(hits.items()), case
                    assert list(got.taken.items()) == list(taken.items()), case
                    # Two rows hit with one payload image.
                    hit_rows = [row for row, _ in rows.items()
                                if ref.row_pass(Multiset([row]), *action)[1]]
                    repeats = len(set(action[0].names())) < len(action[0].fields)
                    seen.add((failure, repeats, len(hits) < len(hit_rows)))
                rows = self.edit(rng, rows, kinds)
        # Most rows were met before, and every failure, repeated names and
        # colliding payload images occurred.
        assert met > visited // 2
        assert {f for f, _, _ in seen} == {None, "match", "eval"}
        assert {r for _, r, _ in seen} == {False, True}
        assert any(c for f, _, c in seen if f is None)
