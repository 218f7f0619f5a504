"""Transition engine: per-rule goldens, scheduling, exploration."""

import pathlib

import pytest

from fixtures import (
    KLD_ROWS,
    KLD_SCHEMA,
    KLD_TABLE,
    SEVEN_BINDERS,
    WHITE_ROW,
    srow,
)
from kdb import syntax as s
from kdb.net import canonical_key, canonicalize, dump_tables, find_tables, lid
from kdb.parser import parse_system
from kdb.semantics import (
    Trace,
    enumerate_transitions,
    explore,
    run,
    step_interactive,
)
from kdb.values import Multiset

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
    return s.IntLit(x) if isinstance(x, int) else s.StrLit(x)


def tup(*xs) -> s.Tuple:
    return s.Tuple(tuple(lit(x) for x in xs))


WHITE_TUPLE = tup("001", "HB", "2015", "white", "37", 6, 0)


def kld_net(process: s.Process, at="l1") -> s.Net:
    return s.ParNet(node(at, s.ProcComp(process)), node("l1", KLD_TABLE))


def single_step(sys: s.System):
    cn = canonicalize(sys.main_net)
    transitions = enumerate_transitions(cn, sys)
    assert len(transitions) == 1, [t[0] for t in transitions]
    return transitions[0]


class TestInsertion:
    def test_insert_appends_the_evaluated_row(self):
        sys1 = empty_system(kld_net(prefix_chain(
            s.Insert("KLD", WHITE_TUPLE, s.LocLit("l1")))))
        label, succ = single_step(sys1)
        assert label.rule == "INS"
        (table,) = find_tables(succ, "l1", "KLD")
        assert table.rows == KLD_ROWS.add(WHITE_ROW)

    def test_misformatted_insert_collapses_to_the_error_net(self):
        sys1 = empty_system(kld_net(prefix_chain(
            s.Insert("KLD", tup("001", "HB", "2015"), s.LocLit("l1")))))
        label, succ = single_step(sys1)
        assert label.rule == "INS"
        assert succ.err
        assert not succ.items

    def test_insert_without_a_table_is_stuck(self):
        sys1 = empty_system(node("l1", s.ProcComp(prefix_chain(
            s.Insert("KLD", WHITE_TUPLE, s.LocLit("l1"))))))
        cn = canonicalize(sys1.main_net)
        assert enumerate_transitions(cn, sys1) == []


class TestDeletion:
    def test_delete_restores_the_original_table(self):
        pred = s.And(s.Cmp("=", s.DataVar("tp"), lit("HB")),
                     s.And(s.Cmp("=", s.DataVar("cr"), lit("white")),
                           s.Cmp("=", s.DataVar("sz"), lit("37"))))
        proc = prefix_chain(
            s.Insert("KLD", WHITE_TUPLE, s.LocLit("l1")),
            s.Delete("KLD", SEVEN_BINDERS, pred, s.LocLit("l1")),
        )
        sys1 = empty_system(kld_net(proc))
        trace = run(sys1, seed=0, max_steps=10)
        assert trace.terminal == "quiescent"
        assert [l.rule for l, _ in trace.steps] == ["INS", "DEL"]
        mid = trace.steps[0][1]
        (table_mid,) = find_tables(mid, "l1", "KLD")
        assert table_mid.rows == KLD_ROWS.add(WHITE_ROW)
        (table,) = find_tables(trace.final(), "l1", "KLD")
        assert table.rows == KLD_ROWS

    def test_non_matching_arity_template_is_an_error(self):
        proc = prefix_chain(
            s.Delete("KLD", s.Template((s.BindData("a"),)), s.TruePred(), s.LocLit("l1")))
        sys1 = empty_system(kld_net(proc))
        _, succ = single_step(sys1)
        assert succ.err


SELECT_PRED = s.And(
    s.Cmp("=", s.DataVar("id"), lit("001")),
    s.And(s.Cmp("=", s.DataVar("tp"), lit("HB")),
          s.Cmp("!=", s.DataVar("cr"), lit("red"))),
)
SELECT_PAYLOAD = s.Tuple((s.DataVar("cr"), s.DataVar("sz"), s.DataVar("ss")))


class TestSelection:
    def select_action(self, cont_uses="tbv"):
        return s.Select((s.TableByName("KLD", s.LocLit("l1")),), SEVEN_BINDERS,
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
            (s.TableByName("KLD", s.LocLit("l1")), s.TableByName("W", s.LocLit("l2"))),
            template, s.Cmp("=", s.DataVar("id"), lit("002")),
            s.Tuple((s.DataVar("cr"), s.DataVar("k"))), "tbv")
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
                                 Multiset({srow(1): 2, srow(2): 1}))
        named = s.TableComp(s.Interface("T", (s.STRING,)),
                            Multiset({srow("a"): 1, srow("b"): 3}))
        action = s.Select((literal, s.TableByName("T", s.LocLit("l1"))),
                          XY, s.TruePred(), s.Tuple((s.DataVar("x"), s.DataVar("y"))), "tbv")
        cont = s.Foreach(s.TableByVar("tbv"), XY, s.TruePred(), s.OrderSpec("unordered"),
                         s.NilProc())
        net = s.ParNet(node("l0", s.ProcComp(s.Prefix(action, cont))), node("l1", named))
        label, succ = single_step(empty_system(net))
        assert label.rule == "SEL"
        loop = next(body for loc, body in succ.items.support()
                    if loc == "l0" and isinstance(body, s.Foreach))
        assert loop.table.interface.schema == (s.INT, s.STRING)
        assert loop.table.rows == Multiset({
            srow(1, "a"): 2, srow(1, "b"): 6, srow(2, "a"): 1, srow(2, "b"): 3})

    def test_duplicate_source_reads_the_table_that_renders_first(self):
        # Only an unchecked net can hold two tables T@l1; a select then reads
        # the one that renders first, which is the order find_tables gives.
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
        pred = s.And(s.Cmp("=", s.DataVar("tp"), lit("HB")),
                     s.And(s.Cmp("=", s.DataVar("cr"), lit("red")),
                           s.Cmp("=", s.DataVar("sz"), lit("37"))))
        payload = s.Tuple((
            s.DataVar("id"), s.DataVar("tp"), s.DataVar("yr"), s.DataVar("cr"),
            s.DataVar("sz"),
            s.Arith("-", s.DataVar("is0"), s.IntLit(2)),
            s.Arith("+", s.DataVar("ss"), s.IntLit(2)),
        ))
        proc = prefix_chain(s.Update("KLD", SEVEN_BINDERS, pred, payload, s.LocLit("l1")))
        sys1 = empty_system(kld_net(proc))
        label, succ = single_step(sys1)
        assert label.rule == "UPD"
        (table,) = find_tables(succ, "l1", "KLD")
        untouched = Multiset({r: n for r, n in KLD_ROWS.items()
                              if r != srow("001", "HB", "2015", "red", "37", 8, 5)})
        want = untouched.add(srow("001", "HB", "2015", "red", "37", 6, 7))
        assert table.rows == want

    def test_update_breaking_the_schema_is_an_error(self):
        payload = s.Tuple(tuple(s.DataVar(n) for n in SEVEN_BINDERS.names()[:6])
                          + (s.Concat(s.DataVar("cr"), lit("x")),))
        proc = prefix_chain(s.Update("KLD", SEVEN_BINDERS, s.TruePred(), payload,
                                     s.LocLit("l1")))
        sys1 = empty_system(kld_net(proc))
        _, succ = single_step(sys1)
        assert succ.err


class TestAggregation:
    def test_total_sales_of_one_shoe_id(self):
        action = s.Aggr("KLD", SEVEN_BINDERS, s.Cmp("=", s.DataVar("id"), lit("001")),
                        s.AggrFn("sum", 7), s.Template((s.BindData("res"),)), s.LocLit("l1"))
        cont = prefix_chain(s.Insert("Out", s.Tuple((s.DataVar("res"),)), s.LocLit("l1")))
        out_table = s.TableComp(s.Interface("Out", (s.INT,)), Multiset())
        net = s.ParNet(kld_net(s.Prefix(action, cont)), node("l1", out_table))
        sys1 = empty_system(net)
        trace = run(sys1, seed=0, max_steps=10)
        assert [l.rule for l, _ in trace.steps] == ["AGR", "INS"]
        (out,) = find_tables(trace.final(), "l1", "Out")
        assert out.rows == Multiset([srow(12)])

    def test_aggregation_leaves_the_table_alone(self):
        action = s.Aggr("KLD", SEVEN_BINDERS, s.TruePred(), s.AggrFn("count"),
                        s.Template((s.BindData("n"),)), s.LocLit("l1"))
        sys1 = empty_system(kld_net(s.Prefix(action, s.NilProc())))
        _, succ = single_step(sys1)
        (table,) = find_tables(succ, "l1", "KLD")
        assert table.rows == KLD_ROWS

    def test_wrong_result_binder_is_an_error(self):
        action = s.Aggr("KLD", SEVEN_BINDERS, s.TruePred(), s.AggrFn("count"),
                        s.Template((s.BindLoc("u"),)), s.LocLit("l1"))
        sys1 = empty_system(kld_net(s.Prefix(action, s.NilProc())))
        _, succ = single_step(sys1)
        assert succ.err


class TestAvgGuidedPipeline:
    def test_aggregate_then_select_above_average(self):
        t0 = SEVEN_BINDERS
        primed = s.Template(tuple(s.BindData(n + "2") for n in SEVEN_BINDERS.names()))
        aggr = s.Aggr("KLD", t0, s.Cmp("=", s.DataVar("tp"), lit("HB")),
                      s.AggrFn("avg", 7), s.Template((s.BindData("res"),)), s.LocLit("l1"))
        select = s.Select(
            (s.TableByName("KLD", s.LocLit("l1")),), primed,
            s.Cmp(">=", s.DataVar("ss2"), s.DataVar("res")),
            s.Tuple((s.DataVar("cr2"), s.DataVar("sz2"), s.DataVar("ss2"))), "tbv")
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
        proc = prefix_chain(s.Create("Turnover", s.LocLit("l0"), (s.STRING, s.INT)))
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
        proc = prefix_chain(s.Create("Stores", s.LocLit("l0"), (s.STRING,)))
        existing = s.TableComp(s.Interface("Stores", (s.STRING,)), Multiset())
        net = s.ParNet(node("l0", s.ProcComp(proc)), node("l0", existing))
        sys1 = empty_system(net)
        label, succ = single_step(sys1)
        assert label.rule == "CRT"
        assert "skipped" in label.detail
        assert len(find_tables(succ, "l0", "Stores")) == 1

    def test_create_at_referenced_but_empty_locality(self):
        proc = prefix_chain(s.Create("T", s.LocLit("l2"), (s.INT,)))
        sys1 = empty_system(node("l1", s.ProcComp(proc)))
        label, succ = single_step(sys1)
        assert find_tables(succ, "l2", "T")

    def test_create_at_unknown_locality_is_stuck(self):
        # the target locality never occurs: the action stays disabled
        action = s.Create("T", s.LocVar("u"), (s.INT,))
        sys1 = empty_system(node("l1", s.ProcComp(prefix_chain(action))))
        cn = canonicalize(sys1.main_net)
        assert enumerate_transitions(cn, sys1) == []

    def test_drop_removes_the_table(self):
        proc = prefix_chain(s.Drop("KLD", s.LocLit("l1")))
        sys1 = empty_system(kld_net(proc))
        label, succ = single_step(sys1)
        assert label.rule == "DRP"
        assert find_tables(succ, "l1", "KLD") == []

    def test_drop_without_a_table_is_stuck(self):
        proc = prefix_chain(s.Drop("Nope", s.LocLit("l1")))
        sys1 = empty_system(kld_net(proc))
        cn = canonicalize(sys1.main_net)
        assert [t[0].rule for t in enumerate_transitions(cn, sys1)] == []


class TestEvalAction:
    def test_spawn_places_the_process_remotely(self):
        inner = prefix_chain(s.Insert("KLD", WHITE_TUPLE, s.LocLit("l1")))
        proc = prefix_chain(s.Eval(inner, s.LocLit("l1")))
        sys1 = empty_system(s.ParNet(node("l0", s.ProcComp(proc)), node("l1", KLD_TABLE)))
        label, succ = single_step(sys1)
        assert label.rule == "EVL"
        spawned = [body for loc, body in succ.items.support()
                   if loc == "l1" and isinstance(body, s.Prefix)]
        assert spawned == [inner]

    def test_open_process_cannot_be_spawned(self):
        inner = prefix_chain(s.Insert("KLD", s.Tuple((s.DataVar("x"),)), s.LocLit("l1")))
        proc = prefix_chain(s.Eval(inner, s.LocLit("l1")))
        sys1 = empty_system(s.ParNet(node("l0", s.ProcComp(proc)), node("l1", KLD_TABLE)))
        cn = canonicalize(sys1.main_net)
        assert enumerate_transitions(cn, sys1) == []


class TestForeach:
    def out_table(self):
        return s.TableComp(s.Interface("Out", (s.INT,)), Multiset())

    def loop(self, rows, order, body=None):
        table = s.TableLiteral(s.Interface("T", (s.INT,)), Multiset(rows))
        body = body or prefix_chain(
            s.Insert("Out", s.Tuple((s.DataVar("x"),)), s.LocLit("l1")))
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
                         s.Cmp(">", s.DataVar("x"), s.IntLit(1)), s.OrderSpec("asc", 1),
                         prefix_chain(s.Insert("Out", s.Tuple((s.DataVar("x"),)),
                                               s.LocLit("l1"))))
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
        loop = s.Foreach(s.TableByName("KLD", s.LocLit("l1")), SEVEN_BINDERS,
                         s.TruePred(), s.OrderSpec("unordered"), s.NilProc())
        sys1 = empty_system(kld_net(loop))
        cn = canonicalize(sys1.main_net)
        assert enumerate_transitions(cn, sys1) == []


class TestSequencing:
    def test_seq_advances_head_then_drops_to_tail(self):
        first = prefix_chain(s.Insert("KLD", WHITE_TUPLE, s.LocLit("l1")))
        second = prefix_chain(s.Drop("KLD", s.LocLit("l1")))
        sys1 = empty_system(kld_net(s.Seq(first, second)))
        trace = run(sys1, seed=0, max_steps=10)
        assert [l.rule for l, _ in trace.steps] == ["SEQ_FF", "DRP"]
        assert trace.terminal == "quiescent"

    def test_seq_keeps_tail_while_head_continues(self):
        first = prefix_chain(
            s.Insert("KLD", WHITE_TUPLE, s.LocLit("l1")),
            s.Insert("KLD", WHITE_TUPLE, s.LocLit("l1")),
        )
        sys1 = empty_system(kld_net(s.Seq(first, s.NilProc())))
        label, succ = single_step(sys1)
        assert label.rule == "SEQ_TT"

    def test_error_propagates_through_seq(self):
        first = prefix_chain(s.Insert("KLD", tup(1), s.LocLit("l1")))
        sys1 = empty_system(kld_net(s.Seq(first, s.NilProc())))
        _, succ = single_step(sys1)
        assert succ.err


class TestCall:
    def test_call_substitutes_evaluated_arguments(self):
        body = prefix_chain(s.Insert("KLD", s.Tuple((
            s.DataVar("a"), lit("HB"), lit("2015"), lit("white"), lit("37"),
            s.DataVar("n"), lit(0))), s.LocVar("u")))
        sysdef = s.ProcDef("go", (("a", s.STRING), ("n", s.INT), ("u", s.LOC)), body)
        proc = s.CallProc("go", (lit("001"), s.Arith("+", lit(2), lit(4)), s.LocLit("l1")))
        sys1 = s.System(procedures={"go": sysdef}, schema_decls=(),
                        main_net=kld_net(proc))
        trace = run(sys1, seed=0, max_steps=10)
        assert [l.rule for l, _ in trace.steps] == ["CALL", "INS"]
        (table,) = find_tables(trace.final(), "l1", "KLD")
        assert table.rows == KLD_ROWS.add(srow("001", "HB", "2015", "white", "37", 6, 0))

    def test_recursive_procedure_expands_lazily(self):
        body = s.Prefix(s.Insert("T", tup(1), s.LocLit("l1")),
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
        stuck = prefix_chain(s.Insert("Nowhere", tup(1), s.LocLit("l9")))
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
            s.Tuple((s.Arith("*", s.DataVar("x"), s.IntLit(amount)),)), s.LocLit("l1")))
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
            s.Tuple((s.IntLit(v),)), s.LocLit("l1")))
        net = s.ParNet(s.ParNet(node("l1", s.ProcComp(setter(7))),
                                node("l1", s.ProcComp(setter(9)))),
                       node("l1", table))
        result = explore(empty_system(net), bound=100)
        rows = set()
        for cn in result.quiescent:
            (t,) = find_tables(cn, "l1", "T")
            rows.add(tuple(sorted(v.value for (v,) in
                                  (r.components for r in t.rows))))
        assert rows == {(7,), (9,)}

    def test_selection_is_atomic_against_a_concurrent_update(self):
        table = s.TableComp(s.Interface("T", (s.INT,)), Multiset([srow(1), srow(2)]))
        out = s.TableComp(s.Interface("Out", (s.INT,)), Multiset())
        reader = s.Prefix(
            s.Select((s.TableByName("T", s.LocLit("l1")),),
                     s.Template((s.BindData("x"),)), s.TruePred(),
                     s.Tuple((s.DataVar("x"),)), "tbv"),
            s.Foreach(s.TableByVar("tbv"), s.Template((s.BindData("y"),)),
                      s.TruePred(), s.OrderSpec("unordered"),
                      prefix_chain(s.Insert("Out", s.Tuple((s.DataVar("y"),)),
                                            s.LocLit("l2")))))
        writer = prefix_chain(s.Update(
            "T", s.Template((s.BindData("z"),)), s.TruePred(),
            s.Tuple((s.Arith("+", s.DataVar("z"), s.IntLit(10)),)), s.LocLit("l1")))
        net = s.ParNet(s.ParNet(node("l1", s.ProcComp(reader)),
                                node("l1", s.ProcComp(writer))),
                       s.ParNet(node("l1", table), node("l2", out)))
        result = explore(empty_system(net), bound=1000)
        snapshots = set()
        for cn in result.quiescent:
            (t,) = find_tables(cn, "l2", "Out")
            snapshots.add(tuple(sorted(v.value for (v,) in
                                       (r.components for r in t.rows))))
        # the selection sees the table wholly before or wholly after the update
        assert snapshots == {(1, 2), (11, 12)}


class TestDuplicateTables:
    def test_one_transition_per_matching_table(self):
        # Nets violating identifier integrity still execute deterministically:
        # each matching table is its own redex.
        t1 = s.TableComp(s.Interface("T", (s.INT,)), Multiset([srow(1)]))
        t2 = s.TableComp(s.Interface("T", (s.INT,)), Multiset([srow(2)]))
        proc = prefix_chain(s.Insert("T", tup(9), s.LocLit("l1")))
        net = s.ParNet(s.ParNet(node("l1", s.ProcComp(proc)), node("l1", t1)),
                       node("l1", t2))
        sys1 = empty_system(net)
        cn = canonicalize(sys1.main_net)
        transitions = enumerate_transitions(cn, sys1)
        assert len(transitions) == 2
        assert all(label.rule == "INS" for label, _ in transitions)


X = s.Template((s.BindData("x"),))
XY = s.Template((s.BindData("x"), s.BindData("y")))
AT_L1 = s.LocLit("l1")
# Comparing an Int with a String is an evaluation error.
BAD_CMP = s.Cmp("=", s.DataVar("x"), lit("a"))
NO_ROW = s.Cmp(">", s.DataVar("x"), s.IntLit(5))


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


X_PAYLOAD = s.Tuple((s.DataVar("x"),))

MONITORED = [
    pytest.param(with_t(s.Insert("T", tup("a"), AT_L1), srow(1)),
                 "INS", "insert into T@l1: bad row format", True, id="ins-bad-row"),
    pytest.param(with_t(s.Delete("T", XY, s.TruePred(), AT_L1), srow(1)),
                 "DEL", "delete from T@l1: format or evaluation error", True, id="del-format"),
    pytest.param(with_t(s.Delete("T", X, BAD_CMP, AT_L1), srow(1), srow(2)),
                 "DEL", "delete from T@l1: format or evaluation error", True, id="del-eval"),
    pytest.param(with_t(s.Update("T", XY, s.TruePred(), tup(1, 2), AT_L1), srow(1)),
                 "UPD", "update T@l1: template mismatch", True, id="upd-template"),
    pytest.param(with_t(s.Update("T", X, NO_ROW, s.Tuple((s.Concat(s.DataVar("x"), lit("a")),)),
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
                                 source=s.TableByName("T", s.LocVar("u"))), srow(1)),
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
                                 s.Tuple((s.Arith("+", s.DataVar("x"), s.IntLit(1)),))),
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
    pytest.param(loop_at_l1(s.Cmp(">", s.DataVar("x"), s.IntLit(0)), s.OrderSpec("unordered"),
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
        from kdb.net import no_rep
        text = (CORPUS / "dept_stores.kdb").read_text()
        sys1 = parse_system(text)
        trace = run(sys1, seed=3, max_steps=200)
        for _, cn in trace.steps:
            assert no_rep(lid(cn))
