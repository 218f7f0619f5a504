"""Parsing, diagnostics, renaming, and the parse/render round trip."""

import pathlib
import time

import pytest

import gen
from diffcheck import population
from kdb import syntax as s
from kdb.kernel import apply_subst
from kdb.net import canonicalize
from kdb.parser import ParseError, _Parser, parse_system
from kdb.typesys import check_system
from kdb.values import VLoc

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


def parse_net(src: str) -> s.Net:
    return parse_system(src).main_net


class TestBasics:
    def test_insert_with_seven_components(self):
        net = parse_net('$l1 :: insert(KLD@$l1, ("001", "HB", "2015", "white", "37", 6, 0)). nil')
        action = net.component.process.action
        assert isinstance(action, s.Insert)
        assert action.tid == "KLD"
        assert action.loc == VLoc("l1")
        assert len(action.payload.components) == 7
        assert action.payload.components[5] == 6

    def test_bare_nil_is_the_empty_net(self):
        assert parse_net("nil") == s.NilNet()

    def test_delete_renders_back_with_target(self):
        net = parse_net(
            '$l1 :: delete(KLD@$l1, (!id, !tp, !yr, !cr, !sz, !is, !ss),'
            ' tp = "HB" && cr = "white" && sz = "37"). nil')
        assert "delete(KLD@$l1" in s.render(net)

    def test_comments_and_whitespace(self):
        net = parse_net("// leading\n  nil // trailing\n")
        assert net == s.NilNet()

    def test_spans_recorded(self):
        src = '$l1 ::\n  insert(KLD@$l1, (1)). nil'
        action = parse_net(src).component.process.action
        assert s.Positions(src).position(action.span) == s.Span(2, 3)

    def test_negative_integer_literal(self):
        net = parse_net("$l :: insert(T@$l, (-5)). nil")
        assert net.component.process.action.payload.components[0] == -5

    @pytest.mark.parametrize("constant, sort", [("0", "Int"), ("-7", "Int"), ('"a\\"b"', "String"),
                                                ("KLD", "Id"), ("$m", "Loc")])
    def test_a_constant_reads_the_same_in_a_row_and_in_an_expression(self, constant, sort):
        net = parse_net(f"$l :: {{ table T : ({sort}) = {{ ({constant}) }}"
                        f" | insert(T@$l, ({constant})). nil }}")
        (row,) = net.component.left.rows
        assert row[0] == net.component.right.process.action.payload.components[0]

    def test_an_operator_is_data_of_its_family_class(self):
        net = parse_net('$l :: update(T@$l, (!x, !w), x in w, ("a" ++ "b", w)). nil')
        action = net.component.process.action
        assert action.pred == s.Cmp("in", s.Var("x"), s.Var("w"))
        assert action.payload.components[0] == s.Arith("++", "a", "b")

    def test_restriction(self):
        net = parse_net("(new $priv) $priv :: nil")
        assert isinstance(net, s.Restrict)
        assert net.loc == "priv"

    def test_error_net_parses(self):
        assert parse_net("ERR") == s.ErrNet()


class TestVariableClassification:
    def test_locality_binder_occurrences_become_locality_vars(self):
        net = parse_net(
            "$l :: select(T@$l, (!x, !@p), true, (x, p), !tv). nil")
        action = net.component.process.action
        # A use is a Var either way: the binder holds the kind.
        assert action.template.fields == (s.BindData("x"), s.BindLoc("p"))
        assert action.payload.components == (s.Var("x"), s.Var("p"))

    def test_aggr_target_uses_loop_bound_locality(self):
        net = parse_net(
            "$l :: select(T@$l, (!@u), true, (u), !tv). "
            "foreach(tv, (!@w), true, unordered): "
            "aggr(K@w, (!a), true, count, (!r)). nil")
        loop = net.component.process.cont
        aggr = loop.body.action
        assert aggr.loc == s.Var("w")

    def test_param_kinds(self):
        sys1 = parse_system(
            "let go(x: Int, u: Loc, tv: (Int, Loc)) := insert(T@u, (x)). nil in nil")
        d = sys1.procedures["go"]
        body_action = d.body.action
        assert body_action.loc == s.Var("u")
        assert body_action.payload.components == (s.Var("x"),)
        assert d.params[1][1] == s.LOC
        assert d.params[2][1] == (s.INT, s.LOC)


class TestDiagnostics:
    def test_nonlinear_template_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_net("$l :: delete(T@$l, (!x, !x), true). nil")
        assert "linear" in str(exc.value)

    def test_nested_multiset_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_net("$l :: insert(T@$l, ({1, {2}})). nil")
        assert "nest" in str(exc.value)

    def test_empty_multiset_rejected(self):
        with pytest.raises(ParseError):
            parse_net("$l :: insert(T@$l, ({})). nil")

    def test_undefined_procedure_call(self):
        with pytest.raises(ParseError) as exc:
            parse_net("$l :: missing(1)")
        assert "undefined procedure" in str(exc.value)

    def test_call_arity_mismatch(self):
        with pytest.raises(ParseError) as exc:
            parse_system("let f(x: Int) := nil in $l :: f(1, 2)")
        assert "argument" in str(exc.value)

    def test_error_position_reported(self):
        with pytest.raises(ParseError) as exc:
            parse_net("$l ::\n   insert(T@, (1)). nil")
        assert exc.value.line == 2

    def test_expected_tokens_reported(self):
        with pytest.raises(ParseError) as exc:
            parse_net("$l :: @")
        assert exc.value.expected

    def test_duplicate_procedure(self):
        with pytest.raises(ParseError):
            parse_system("let f() := nil and f() := nil in nil")

    def test_mixed_multiset_value_rejected(self):
        with pytest.raises(ParseError):
            parse_net('$l :: table T : ({Int}) = { ({1, "a"}) }')

    def test_hash_in_names_rejected(self):
        with pytest.raises(ParseError):
            parse_net("$l :: insert(T@$l, (x#1)). nil")


PROCESS_EXPECTED = ("(expected a procedure call or aggr or create or delete or drop"
                    " or eval or foreach or insert or nil or select or update)")

# Each source and the full text of its error: position, message, expected.
ERRORS = [
    ("$l :: insert(T@$l, (1)). nil ~", "1:30: unexpected character '~'"),
    ('$l :: insert(T@$l, ("abc)). nil', "1:21: unexpected character '\"'"),
    ('$l :: insert(T@$l, ("a\\qb")). nil', "1:21: unknown escape \\q"),
    ("$l ::\n  insert(T@$l, (1)).", "2:21: expected a process " + PROCESS_EXPECTED),
    ("$l ::\n  insert(T@$l, (1))",
     "2:20: unexpected end of input (expected '.' and a continuation)"),
    ("$l ::\n  insert(T@$l, (1))\n",
     "3:1: unexpected end of input (expected '.' and a continuation)"),
    ("$l :: @", "1:7: expected a process " + PROCESS_EXPECTED),
    ("$l :: insert(T@$l, (1)) nil",
     "1:25: unexpected 'nil' (expected '.' and a continuation)"),
    ("$l :: insert(T@, (1)). nil",
     "1:16: expected a locality (expected $ or a locality variable)"),
    ("$l :: delete(T@$l, (!x, !x), true). nil",
     "1:25: template binds 'x' twice; binders must be linear"),
    ("$l :: delete(T@$l, (x), true). nil",
     "1:21: expected a template field (expected !@u or !x)"),
    ("$l :: select(1, (!x), true, (x), !t). nil",
     "1:14: expected a table (expected TID@loc or a table variable or table)"),
    ("$l :: foreach(T@$l, (!x), true, asc[0]): nil", "1:37: column indices start at 1"),
    ("$l :: insert(T@$l, ({1, {2}})). nil", "1:25: multisets cannot nest"),
    ("$l :: table T : ({Int}) = { ({1, {2}}) }", "1:34: multisets cannot nest"),
    ('$l :: table T : ({Int}) = { ({1, "a"}) }',
     "1:30: mixed element kinds in multiset value: ['Int', 'String']"),
    ("let f(x: Int, x: Int) := nil in nil", "1:5: duplicate parameter name in 'f'"),
    ("let f() := nil\nand f() := nil\nin $l :: nil", "2:5: procedure 'f' defined twice"),
    ("$l :: missing(1)", "1:7: call to undefined procedure 'missing'"),
    ("let f(x: Int) := nil in $l :: f(1, 2)",
     "1:31: procedure 'f' takes 1 argument(s), got 2"),
    # Of several bad calls, the first in source order is reported.
    ("let f(x: Int) := nil in $l :: g(1) || $l :: f(1, 2)",
     "1:31: call to undefined procedure 'g'"),
    ("let f() := g() and h() := f(1); k() in $l :: f()",
     "1:12: call to undefined procedure 'g'"),
    ("let f() := nil and h() := f(1); k() in $l :: f()",
     "1:27: procedure 'f' takes 0 argument(s), got 1"),
]


@pytest.mark.parametrize("src, message", ERRORS)
def test_parse_error_text(src, message):
    with pytest.raises(ParseError) as exc:
        parse_system(src)
    assert str(exc.value) == message


class TestRenamingApart:
    """A variable binder keeps the name the source wrote, and a use reads the
    nearest binder whose scope holds it.  Only a restricted locality that
    clashes is renamed apart, by `net_parts`."""

    def test_reused_binder_names_are_kept(self):
        src = ("$l :: delete(T@$l, (!x), x = 1). delete(T@$l, (!x), x = 2). nil "
               "|| $l :: delete(T@$l, (!x), x = 3). nil")
        sys1 = parse_system(src)
        assert s.render(sys1) == src

        def delete(n, cont):
            pred = s.Cmp("=", s.Var("x"), n)
            return s.Prefix(s.Delete("T", s.Template((s.BindData("x"),)), pred, VLoc("l")), cont)

        def node(p):
            return s.Node("l", s.ProcComp(p))

        assert sys1.main_net == s.ParNet(node(delete(1, delete(2, s.NilProc()))),
                                         node(delete(3, s.NilProc())))

    def test_restricted_locality_renamed_on_collision(self):
        # The parse keeps the name; `net_parts` renames it apart.
        net = parse_net("$a :: nil || (new $a) $a :: nil")
        assert net.right.loc == net.right.inner.loc == "a"
        assert s.net_parts(net) == (("a#1",), [("a", s.NilProc()), ("a#1", s.NilProc())])

    def test_binders_renamed_consistently_with_occurrences(self):
        src = ("$l :: delete(T@$l, (!x), x = 1). nil "
               "|| $l :: delete(T@$l, (!x), x = 2). nil")
        sys1 = parse_system(src)
        for node in (sys1.main_net.left, sys1.main_net.right):
            action = node.component.process.action
            (binder,) = action.template.names()
            assert action.pred.left == s.Var(binder)

    def test_no_renaming_when_already_distinct(self):
        src = "$l :: delete(T@$l, (!x), x = 1). delete(T@$l, (!y), y = 2). nil"
        rendered = s.render(parse_system(src))
        assert "#" not in rendered

    def test_every_binder_kind_keeps_its_name(self):
        # A parameter, templates, a select's result and an aggr's, all x.
        # The loop reads the select's table, the call in it the loop's Int,
        # and the call after the delete the aggr's sum: it checks clean.
        src = ("schema T : (Int)\n"
               "let f(x: Int) := insert(T@$l, (x)). nil\n"
               "in\n($l :: select(T@$l, (!x), x = 1, (x), !x). "
               "foreach(x, (!x), true, unordered): f(x) "
               "|| $l :: aggr(T@$l, (!x), x > 0, sum[1], (!x)). delete(T@$l, (!x), x = 2). f(x)) "
               "|| $l :: table T : (Int) = {(1), (2)}")
        sys1 = parse_system(src)
        assert s.render(sys1) == src
        assert check_system(sys1) == []
        select, aggr = (node.component.process for node in
                        (sys1.main_net.left.left, sys1.main_net.left.right))
        loop = select.cont
        binders = [*(n for n, _ in sys1.procedures["f"].params),
                   *select.action.template.names(), select.action.bind,
                   *loop.template.names(), *aggr.action.template.names(),
                   *aggr.action.bind_template.names(), *aggr.cont.action.template.names()]
        assert binders == ["x"] * 7
        assert loop.table == s.TableByVar("x")
        assert loop.body == s.CallProc("f", (s.Var("x"),))
        # Substituting the aggr's sum reaches the call, not the delete's x.
        got = apply_subst({"x": 3}, aggr.cont)
        assert got.action == aggr.cont.action
        assert got.cont == s.CallProc("f", (3,))


class TestLateClashes:
    """A free name that first occurs after a binder of the same name.  A
    variable binder keeps its name; a restriction is read as written and
    renamed by `net_parts`."""

    def test_restriction_before_a_free_site_of_its_name(self):
        src = "(new $a) $a :: nil || $a :: nil"
        system = parse_system(src)
        assert s.render(system) == src
        assert canonicalize(system.main_net, system.procedures).restricted == ("a#1",)

    def test_template_before_a_later_free_use_of_its_name(self):
        # The binder keeps its name, and the later use stays free.
        src = "$l :: delete(T@$l, (!x), x = 1). nil || $l :: insert(T@$l, (x)). nil"
        system = parse_system(src)
        assert s.render(system) == src
        assert system.main_net.left.component.process.action.pred.left == s.Var("x")
        assert [d.message for d in check_system(system)][-1] == (
            "the net has free variables: x")

    def test_restriction_and_binder_count_apart(self):
        # The restriction is renamed apart from the free $a; the binder is not.
        src = ("(new $a) $a :: delete(T@$a, (!x), true). nil "
               "|| $a :: insert(T@$a, (x)). nil")
        system = parse_system(src)
        assert s.render(system) == src
        assert s.net_parts(system.main_net)[0] == ("a#1",)

    def test_renamed_rows_go_last(self):
        # Renaming moves a row to the end of its table, and a row pass meets
        # rows in that order.
        src = "(new $a) $a :: table T : (Loc, Int) = { ($a, 1), ($b, 2), ($a, 3) } || $a :: nil"
        (loc, table), _ = s.net_parts(parse_net(src))[1]
        assert loc == "a#1"
        assert [s.render(row) for row in table.rows] == ["($b, 2)", "($a#1, 1)", "($a#1, 3)"]

    def test_first_bad_call_in_source_order(self):
        src = "let f(x: Int) := nil in (new $a) $a :: f() || $a :: g(1)"
        with pytest.raises(ParseError) as exc:
            parse_system(src)
        assert str(exc.value) == "1:40: procedure 'f' takes 1 argument(s), got 0"


def _aggr_chain(n: int) -> str:
    """n chained aggrs, each binding two names of its own."""
    steps = "".join(f"aggr(T@$l, (!a{i}), true, count, (!r{i})). " for i in range(n))
    return f"schema T : (Int)\n$l :: {steps}nil\n"


def test_rename_apart_time_grows_linearly_with_binders_in_scope():
    # Linear work gives a ratio of about 4, work per binder that grows with
    # the names in scope (an environment copied per binder) about 16.
    def best_of_3(source):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            parse_system(source)
            best = min(best, time.perf_counter() - start)
        return best

    small, large = _aggr_chain(200), _aggr_chain(800)
    assert best_of_3(large) < 8 * best_of_3(small)


@pytest.mark.parametrize("comparison, innermost, error", [
    pytest.param("{} = 1", "x", None, id="{} = 1"),
    pytest.param("{} + 1 = 2", "x", None, id="{} + 1 = 2"),
    # The error points just past the innermost "x +": column 79 at 50
    # levels and 229 at 200.
    pytest.param("{} = 2", "x +", {50: "1:79: expected an expression",
                                   200: "1:229: expected an expression"}, id="({} +) = 2"),
])
def test_nested_parentheses_parse_in_linear_work(monkeypatch, comparison, innermost, error):
    # A parenthesized expression that starts a comparison is read as a
    # predicate first; reading it again at every level of nesting made the
    # calls quadratic: about 16 times as many at 200 levels as at 50.  An
    # expression that fails to parse is read once too.
    calls = 0
    expr_atom = _Parser.expr_atom

    def counted(self):
        nonlocal calls
        calls += 1
        return expr_atom(self)

    monkeypatch.setattr(_Parser, "expr_atom", counted)

    def calls_at(levels):
        nonlocal calls
        calls = 0
        nested = "(" * levels + innermost + ")" * levels
        source = f"$l :: delete(T@$l, (!x), {comparison.format(nested)}). nil"
        if error is None:
            parse_system(source)
        else:
            with pytest.raises(ParseError) as info:
                parse_system(source)
            assert str(info.value) == error[levels]
        return calls

    assert calls_at(200) <= 8 * calls_at(50)


class TestRowParsing:
    def test_table_rows_with_multisets_and_localities(self):
        net = parse_net(
            '$l :: table Stores : (String, {Id}, Loc) = '
            '{ ("CPH", {KLD, SH}, $l1), ("AAL", {LAM}, $l4) }')
        comp = net.component
        assert len(comp.rows) == 2
        (row1, row2) = sorted(comp.rows, key=lambda r: r[0])
        assert row2[0] == "CPH"

    def test_duplicate_rows_keep_multiplicity(self):
        net = parse_net("$l :: table T : (Int) = { (1), (1) }")
        from fixtures import srow
        assert net.component.rows.count(srow(1)) == 2

    def test_empty_table(self):
        net = parse_net("$l :: table T : (Int) = {}")
        assert len(net.component.rows) == 0


class TestRoundTrip:
    def test_generated_systems_round_trip(self):
        for seed in range(300):
            sys1 = gen.random_system(seed)
            text = s.render(sys1)
            sys2 = parse_system(text)
            assert sys2 == sys1, f"seed {seed}:\n{text}"

    def test_corpus_round_trips(self):
        for name in ("dept_stores.kdb", "bad_insert.kdb"):
            sys1 = parse_system((CORPUS / name).read_text())
            assert parse_system(s.render(sys1)) == sys1

    def test_parsed_texts_round_trip(self):
        # Reused binder names render as written, so every parse renders a
        # text that parses back to it: the clash texts that parse, and the
        # renders of the differential check's population, corpus included.
        texts = [(f"clash {seed}", gen.clash_source(seed)) for seed in range(1000)]
        texts += [(name, s.render(system)) for name, system in population()]
        parsed = 0
        for name, text in texts:
            try:
                sys1 = parse_system(text)
            except ParseError:
                assert name.startswith("clash"), name
                continue
            parsed += 1
            sys2 = parse_system(s.render(sys1))
            assert (sys2.procedures, sys2.schema_decls, sys2.main_net) == (
                sys1.procedures, sys1.schema_decls, sys1.main_net), name
        assert parsed == 887 + 815

    @pytest.mark.parametrize("src", [
        pytest.param("(new $a) $a :: nil || $a :: nil", id="a free site after"),
        pytest.param("(new $a) $a :: nil || (new $a) $a :: nil", id="two restrictions"),
        pytest.param("(new $a) $a :: table T : (Loc, Int) = {($a, 1), ($b, 2)} || $a :: nil",
                     id="in table rows"),
        pytest.param("let p() := insert(T@$a, (1)). nil in "
                     "(new $a) ($a :: table T : (Int) = {} || $l :: p())", id="in a procedure"),
    ])
    def test_clashing_restricted_names_round_trip(self, src):
        # Each name clashes, so it is renamed apart, but only by `net_parts`:
        # the render keeps it as written and parses back.
        sys1 = parse_system(src)
        assert parse_system(s.render(sys1)) == sys1
