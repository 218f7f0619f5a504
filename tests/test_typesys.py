"""Typing judgments and whole-system checking."""

import pathlib

import pytest

import gen
import gensys
from diffcheck import repeated_tables
from fixtures import KLD_SCHEMA, SEVEN_BINDERS, SSRESULT_SCHEMA, STORES_SCHEMA
from kdb import syntax as s
from kdb.net import canonicalize, dump_tables, find_tables, lid
from kdb.parser import ParseError, parse_system
from kdb.semantics import run
from kdb.typesys import Checker, Diagnostic, check_system
from kdb.values import Multiset, ValueTuple, VLoc, VTid
from nets import no_rep

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"

NABLA_DC = {
    "Stores": STORES_SCHEMA,
    "KLD": KLD_SCHEMA,
    "SSResult": SSRESULT_SCHEMA,
}


def fresh_checker(nabla=None, procs=None) -> Checker:
    return Checker(nabla or NABLA_DC, procs or {})


def env(*pairs) -> s.Scope:
    return s.Scope(pairs)


class TestExprTyping:
    def test_arithmetic_under_int_binding(self):
        c = fresh_checker()
        g = env(("is0", s.INT))
        assert c.type_expr(g, s.Arith("-", s.Var("is0"), 2)) == s.INT
        assert not c.diags

    def test_concat_of_strings(self):
        c = fresh_checker()
        got = c.type_expr(env(), s.Arith("++", "a", "b"))
        assert got == s.STRING

    def test_unbound_variable(self):
        c = fresh_checker()
        assert c.type_expr(env(), s.Var("x")) is None
        assert c.diags[0].kind == "unbound-variable"

    def test_locality_variable_used_as_data(self):
        # A variable holds what its binder binds: `u: Loc` in a payload is a
        # Loc, in a system built in code as in its parsed text.
        src = "let f(u: Loc) := insert(T@$l, (u)). nil in $l :: { table T : (Loc) = {} | f($l) }"
        insert = s.Prefix(s.Insert("T", s.Tuple((s.Var("u"),)), VLoc("l")), s.NilProc())
        table = s.TableComp(s.Interface("T", (s.LOC,)), Multiset())
        built = s.System({"f": s.ProcDef("f", (("u", s.LOC),), insert)}, (), s.Node(
            "l", s.ParComp(table, s.ProcComp(s.CallProc("f", (VLoc("l"),))))))
        assert built == parse_system(src)
        assert check_system(built) == []
        trace = run(built, seed=0, max_steps=10)
        assert trace.terminal == "quiescent"
        (t,) = find_tables(trace.final(), "l", "T")
        assert t.rows == Multiset([ValueTuple((VLoc("l"),))])

    def test_heterogeneous_multiset(self):
        c = fresh_checker()
        got = c.type_expr(env(), s.MultisetLit((1, "x")))
        assert got is None
        assert c.diags[0].kind == "heterogeneous-multiset"

    def test_empty_multiset_has_no_type(self):
        c = fresh_checker()
        assert c.type_expr(env(), s.MultisetLit(())) is None
        assert c.diags[0].kind == "empty-multiset"

    def test_nested_multiset_reported_where_each_side_nests(self):
        src = ("schema T : ({Int})\n"
               "$l :: table T : ({Int}) = {} ||\n"
               "$l :: delete(T@$l, (!x), {x} = {x}). nil")
        assert [(d.kind, str(d.span)) for d in check_system(parse_system(src))] == \
            [("nested-multiset", "3:26"), ("nested-multiset", "3:32")]


class TestPredTyping:
    def test_membership_over_id_multiset(self):
        c = fresh_checker()
        g = env(("w", s.MSet("Id")))
        assert c.type_pred(g, s.Cmp("in", VTid("KLD"), s.Var("w")))

    def test_cross_type_compare_rejected(self):
        c = fresh_checker()
        assert not c.type_pred(env(), s.Cmp("=", 1, "a"))

    def test_ordering_on_ids_rejected(self):
        c = fresh_checker()
        assert not c.type_pred(env(), s.Cmp("<", VTid("A"), VTid("B")))
        c2 = fresh_checker()
        assert c2.type_pred(env(), s.Cmp("=", VTid("A"), VTid("B")))

    def test_subset_needs_matching_multisets(self):
        c = fresh_checker()
        g = env(("a", s.MSet("Id")), ("b", s.MSet("Id")))
        assert c.type_pred(g, s.Cmp("sub", s.Var("a"), s.Var("b")))
        assert not c.type_pred(g, s.Cmp("sub", s.Var("a"), 1))


class TestTupleTyping:
    def test_select_payload_schema(self):
        c = fresh_checker()
        g = env(("cr", s.STRING), ("sz", s.STRING), ("ss", s.INT))
        t = s.Tuple((s.Var("cr"), s.Var("sz"), s.Var("ss")))
        assert c.type_tuple(g, t) == (s.STRING, s.STRING, s.INT)


class TestTemplateTyping:
    def test_seven_binders_against_kld(self):
        c = fresh_checker()
        binds = c.type_template(KLD_SCHEMA, SEVEN_BINDERS)
        assert [n for n, _ in binds] == list(SEVEN_BINDERS.names())
        assert binds[0][1] == s.STRING
        assert binds[5][1] == s.INT

    def test_data_binder_cannot_take_locality(self):
        c = fresh_checker()
        assert c.type_template((s.LOC,), s.Template((s.BindData("x"),))) is None
        assert c.diags[0].kind == "binder-kind"

    def test_arity_mismatch(self):
        c = fresh_checker()
        assert c.type_template(KLD_SCHEMA, s.Template((s.BindData("x"),))) is None
        assert c.diags[0].kind == "template-arity"


class TestTableTyping:
    def test_named_reference(self):
        c = fresh_checker()
        assert c.type_table(env(), s.TableByName("Stores", VLoc("l0"))) == STORES_SCHEMA

    def test_unknown_identifier(self):
        c = fresh_checker()
        assert c.type_table(env(), s.TableByName("Nope", VLoc("l0"))) is None
        assert c.diags[0].kind == "unknown-table"

    def test_table_variable(self):
        c = fresh_checker()
        g = env(("tbv", (s.STRING, s.LOC)))
        assert c.type_table(g, s.TableByVar("tbv")) == (s.STRING, s.LOC)

    def test_literal_with_short_row(self):
        from kdb.values import Multiset
        from fixtures import srow
        c = fresh_checker()
        lit = s.TableLiteral(s.Interface("KLD", KLD_SCHEMA),
                             Multiset([srow("001", "HB", "2015", "red", "38", 5)]))
        assert c.type_table(env(), lit) is None
        assert c.diags[0].kind == "row-format"


class TestActionTyping:
    def select_action(self):
        template = s.Template((s.BindData("x"), s.BindData("y"), s.BindData("z"),
                               s.BindData("w"), s.BindLoc("p")))
        pred = s.And(s.Cmp("in", VTid("KLD"), s.Var("w")),
                     s.Cmp("=", s.Var("x"), "CPH"))
        payload = s.Tuple((s.Var("z"), s.Var("p")))
        return s.Select((s.TableByName("Stores", VLoc("l0")),),
                        template, pred, payload, "tbv")

    def test_select_yields_table_binding(self):
        c = fresh_checker()
        got = c.type_action(env(), self.select_action())
        assert got == [("tbv", (s.STRING, s.LOC))]
        assert not c.diags

    def test_aggr_yields_int_binding(self):
        c = fresh_checker()
        g = env(("tbv", (s.STRING, s.LOC)), ("q", s.STRING), ("u", s.LOC))
        a = s.Aggr("KLD", SEVEN_BINDERS, s.Cmp("=", s.Var("tp"), "HB"),
                   s.AggrFn("sum", 7), s.Template((s.BindData("res"),)), s.Var("u"))
        assert c.type_action(g, a) == [("res", s.INT)]
        assert not c.diags

    def test_aggr_result_binder_fit(self):
        # Every aggregator yields one integer, so only a single `!x` binds it.
        def check(bind_template):
            c = fresh_checker()
            a = s.Aggr("KLD", SEVEN_BINDERS, s.TruePred(), s.AggrFn("sum", 7), bind_template,
                       VLoc("l1"))
            return c.type_action(env(), a), c.diags

        assert check(s.Template((s.BindData("r"),))) == ([("r", s.INT)], [])
        binds, diags = check(s.Template((s.BindLoc("u"),)))
        assert binds is None
        assert [(d.kind, d.expected, d.found) for d in diags] == [("binder-kind", "Loc", "Int")]
        binds, diags = check(s.Template((s.BindData("a"), s.BindData("b"))))
        assert binds is None
        assert [(d.kind, d.expected, d.found) for d in diags] == [
            ("template-arity", "(Int)", "(!a, !b)")]

    def test_truncated_insert_rejected(self):
        c = fresh_checker()
        a = s.Insert("KLD", s.Tuple(("001", "HB", "2015")),
                     VLoc("l1"))
        assert c.type_action(env(), a) is None
        assert c.diags[0].kind == "payload-format"

    def test_aggr_over_string_column_rejected(self):
        c = fresh_checker()
        a = s.Aggr("KLD", SEVEN_BINDERS, s.TruePred(), s.AggrFn("sum", 1),
                   s.Template((s.BindData("r"),)), VLoc("l1"))
        assert c.type_action(env(), a) is None
        assert c.diags[0].kind == "aggregator-signature"

    def test_update_payload_must_fit(self):
        c = fresh_checker()
        payload = s.Tuple(tuple(s.Var(n) for n in SEVEN_BINDERS.names()[:-1])
                          + ("oops",))
        a = s.Update("KLD", SEVEN_BINDERS, s.TruePred(), payload, VLoc("l1"))
        assert c.type_action(env(), a) is None
        assert c.diags[0].kind == "payload-format"

    def test_create_must_agree_with_declared_schema(self):
        c = fresh_checker()
        a = s.Create("KLD", VLoc("l1"), (s.INT,))
        assert c.type_action(env(), a) is None
        assert c.diags[0].kind == "schema-conflict"

    def test_select_payload_with_operators_rejected(self):
        c = fresh_checker()
        template = s.Template((s.BindData("x"),))
        a = s.Select((s.TableByName("SSResult", VLoc("l0")),),
                     s.Template((s.BindData("a"), s.BindData("b"), s.BindData("n"))),
                     s.TruePred(),
                     s.Tuple((s.Arith("+", s.Var("n"), 1),)), "tbv")
        assert template is not None
        assert c.type_action(env(), a) is None
        assert c.diags[0].kind == "select-payload"

    def test_eval_checks_spawned_process_under_same_env(self):
        c = fresh_checker()
        inner = s.Prefix(s.Insert("SSResult",
                                  s.Tuple((s.Var("q"), "HB", 1)),
                                  VLoc("l0")), s.NilProc())
        a = s.Eval(inner, VLoc("l1"))
        assert c.type_action(env(("q", s.STRING)), a) == []
        c2 = fresh_checker()
        assert c2.type_action(env(), a) is None


class TestSystemChecking:
    def test_case_study_is_well_typed(self):
        text = (CORPUS / "dept_stores.kdb").read_text()
        assert check_system(parse_system(text)) == []

    def test_truncated_insert_in_corpus_reports_one_error(self):
        text = (CORPUS / "bad_insert.kdb").read_text()
        diags = check_system(parse_system(text))
        assert len(diags) == 1
        assert diags[0].kind == "payload-format"
        assert diags[0].span is not None

    def test_conflicting_schema_declarations(self):
        src = ("schema KLD : (Int)\n"
               "schema KLD : (String)\n"
               "nil")
        diags = check_system(parse_system(src))
        assert any(d.kind == "schema-conflict" for d in diags)

    def test_err_net_is_never_typable(self):
        diags = check_system(parse_system("ERR"))
        assert any(d.kind == "error-net" for d in diags)

    def test_schema_map_built_from_literals_and_creates(self):
        src = ('$l :: table T : (Int) = { (1) } '
               '|| $l :: create(W@$l, (String)). insert(W@$l, ("x")). nil')
        assert check_system(parse_system(src)) == []

    def test_literal_conflicting_with_create(self):
        src = ('$l :: table T : (Int) = { (1) } '
               '|| $l :: create(T@$l, (String)). nil')
        diags = check_system(parse_system(src))
        assert any(d.kind == "schema-conflict" for d in diags)

    def test_first_shape_seen_wins_in_text_order(self):
        # The first shape the schema map meets wins, so the order it visits
        # an action and its continuation, a select's sources, a loop's table
        # and body, a sequence's halves and an eval's process is the order
        # of every conflict reported here: each reads (Int) then (String).
        src = ('$l :: create(T@$l, (Int)). create(T@$l, (String)). nil\n'
               '|| $l :: select(table U : (Int) = {(1)}, table U : (String) = {("a")}, '
               '(!a, !b), true, (a), !t). nil\n'
               '|| $l :: foreach(table V : (Int) = {(1)}, (!x), true, unordered): '
               'create(V@$l, (String)). nil\n'
               '|| $l :: (create(W@$l, (Int)). nil; create(W@$l, (String)). nil)\n'
               '|| $l :: eval(create(X@$l, (Int)). nil, $l). create(X@$l, (String)). nil\n')
        diags = check_system(parse_system(src))
        assert all(d.kind == "schema-conflict" for d in diags)
        clash = " (expected (Int), found (String))"
        assert [str(d) for d in diags] == [
            "1:28: table 'T' is used with two different schemas" + clash,
            "2:42: table 'U' is used with two different schemas" + clash,
            "3:67: table 'V' is used with two different schemas" + clash,
            "4:37: table 'W' is used with two different schemas" + clash,
            "5:46: table 'X' is used with two different schemas" + clash,
            "1:28: create declares a different schema for 'T'" + clash,
            "2:42: table 'U' declared with a different schema" + clash,
            "3:67: create declares a different schema for 'V'" + clash,
            "4:37: create declares a different schema for 'W'" + clash,
            "5:46: create declares a different schema for 'X'" + clash,
        ]

    def test_multiple_independent_errors_all_reported(self):
        src = ('schema T : (Int)\n'
               '$l :: insert(T@$l, ("a")). nil '
               '|| $l2 :: insert(T@$l2, ("b")). nil '
               '|| $l :: table T : (Int) = {}')
        diags = check_system(parse_system(src))
        assert len(diags) == 2

    def test_procedure_bodies_checked_once_under_params(self):
        src = ('schema T : (Int)\n'
               'let f(x: Int) := insert(T@$l, (x)). nil\n'
               'in $l :: table T : (Int) = {} || $l :: f(1)')
        assert check_system(parse_system(src)) == []

    def test_call_argument_type_mismatch(self):
        src = ('schema T : (Int)\n'
               'let f(x: Int) := insert(T@$l, (x)). nil\n'
               'in $l :: table T : (Int) = {} || $l :: f("str")')
        diags = check_system(parse_system(src))
        assert any(d.kind == "call-argument" for d in diags)

    def test_call_argument_that_fails_to_type_is_reported_once(self):
        src = ('schema T : (Int)\n'
               'let p(n: Int) := insert(T@$l, (n)). nil\n'
               'in $l :: table T : (Int) = {} || $l :: p(1 + "a")')
        assert [d.kind for d in check_system(parse_system(src))] == ["operand-type"]

    # The parser rejects bad calls in source text; a System built in code
    # reaches the checker with them, which reports them before it pairs
    # parameters with arguments.
    def test_call_to_unknown_procedure_in_built_system(self):
        call = s.CallProc("g", (1,), span=6)
        system = s.System({}, (), s.Node("l", s.ProcComp(call)))
        (diag,) = check_system(system)
        assert diag.kind == "unknown-procedure"
        assert str(diag) == "1:7: call to undefined procedure 'g'"

    def test_call_arity_in_built_system(self):
        f = s.ProcDef("f", (("x", s.INT),), s.NilProc())
        call = s.CallProc("f", (1, "extra"), span=6)
        system = s.System({"f": f}, (), s.Node("l", s.ProcComp(call)))
        (diag,) = check_system(system)
        assert diag.kind == "call-arity"
        assert str(diag) == "1:7: procedure 'f' takes 1 argument(s) (expected 1, found 2)"

    def test_constant_in_a_locality_position_of_a_built_system(self):
        # A constant carries no span, so the diagnostic has none.
        c = 1
        insert = s.Prefix(s.Insert("T", s.Tuple((c,)), c), s.NilProc())
        system = s.System({}, (("T", (s.INT,)),), s.Node("l", s.ProcComp(insert)))
        assert [str(d) for d in check_system(system)] == [
            "a locality is required here (expected Loc, found Int)"]

    def test_foreach_over_named_table_types_against_schema(self):
        src = ('schema T : (String, Int)\n'
               '$l :: table T : (String, Int) = { ("a", 1) } '
               '|| $l :: foreach(T@$l, (!x, !n), n > 0, asc[2]): nil')
        assert check_system(parse_system(src)) == []

    def test_seq_scopes_are_separate(self):
        # r is bound in the first arm only; using it in the second arm fails.
        src = ('schema T : (Int)\n'
               '$l :: table T : (Int) = { (1) } || $l :: '
               '(aggr(T@$l, (!a), true, count, (!r)). nil; '
               'insert(T@$l, (r)). nil)')
        diags = check_system(parse_system(src))
        assert any(d.kind == "unbound-variable" for d in diags)


# Each program reaches one checker branch that no other test reaches, and the
# diagnostics are pinned whole, in order.
DIAGNOSTIC_TEXTS = [
    ("schema T : (Int)\n$l :: table T : (Int) = {} || $l :: foreach(T@$l, (!x), true, asc[2]): nil",
     ["2:37: loop order names a missing column"]),
    ("schema T : (Int)\n$l :: table T : (String) = {}",
     ["2:7: table 'T' is used with two different schemas (expected (Int), found (String))",
      "2:7: table 'T' carries a different schema (expected (Int), found (String))"]),
    ("schema T : (Int)\n$l :: select(T@$l, (!x), true, (x), !r). insert(T@$l, (r)). nil",
     ["2:56: table variable 'r' used as data"]),
    ("schema T : (Int)\n"
     "$l :: aggr(T@$l, (!a), true, count, (!x)). foreach(x, (!y), true, unordered): nil",
     ["2:52: 'x' is not a table variable"]),
    ("$l :: foreach(t, (!y), true, unordered): nil",
     ["1:15: unbound table variable 't'", "the net has free variables: t"]),
    ("let f(t: (Int)) := foreach(t, (!y), true, unordered): nil\nin $l :: f(1)",
     ["2:10: parameter 't' wants a table; expressions cannot supply one"]),
    ('schema T : (Int)\n$l :: select(table T : (String) = {("a")}, (!x), true, (x), !r). nil',
     ["2:14: table 'T' is used with two different schemas (expected (Int), found (String))",
      "2:14: table 'T' declared with a different schema (expected (Int), found (String))"]),
    # A select or create that fails is reported once: its continuation, which
    # would report `t` or `u` again, is not checked.
    ("schema T : (Int)\n$l :: select(T@u, (!x), true, (x), !t). "
     "foreach(t, (!y), true, unordered): nil",
     ["2:16: unbound variable 'u'", "the net has free variables: u"]),
    ("schema T : (Int)\n$l :: select(T@$l, (!a, !b), a = b, (a), !t). "
     "foreach(t, (!y), true, unordered): nil",
     ["2:20: template has 2 field(s), schema has 1 (expected (Int), found (!a, !b))"]),
    ('schema T : (Int)\n$l :: select(T@$l, (!a), a = "s", (a), !t). '
     "foreach(t, (!y), true, unordered): nil",
     ["2:26: '=' compares two values of one scalar type (found Int = String)"]),
    ("schema T : (Int)\n$l :: create(T@u, (Int)). insert(T@u, (1)). nil",
     ["2:16: unbound variable 'u'", "the net has free variables: u"]),
]


# A locality holds one table per identifier.  Restricted names are renamed
# apart, as `canonicalize` renames them, so two restrictions of `$l` are two
# localities.
DUPLICATE_TABLES = [
    ("$l :: table T : (Int) = {} || $l :: table T : (Int) = {(1)}",
     ["1:37: table 'T' already stands at $l"]),
    ("$l :: { table T : (Int) = {} | table U : (Int) = {} | table T : (Int) = {(2)} }",
     ["1:55: table 'T' already stands at $l"]),
    ("$l :: table T : (Int) = {}\n|| $l :: table T : (Int) = {}\n|| $l :: table T : (Int) = {}",
     ["2:10: table 'T' already stands at $l", "3:10: table 'T' already stands at $l"]),
    ("(new $l) ($l :: table T : (Int) = {} || $l :: table T : (Int) = {})",
     ["1:47: table 'T' already stands at $l"]),
    ("(new $l) $l :: table T : (Int) = {} || (new $l) $l :: table T : (Int) = {}", []),
    ("(new $l) $l :: table T : (Int) = {} || $l :: table T : (Int) = {}", []),
    ("$l :: table T : (Int) = {} || $m :: table T : (Int) = {} || $l :: table U : (Int) = {}",
     []),
]


@pytest.mark.parametrize("src, texts", DUPLICATE_TABLES)
def test_duplicate_table(src, texts):
    diags = check_system(parse_system(src))
    assert [str(d) for d in diags] == texts
    assert all(d.kind == "duplicate-table" for d in diags)


@pytest.mark.parametrize("src, texts", DIAGNOSTIC_TEXTS)
def test_diagnostic_text(src, texts):
    assert [str(d) for d in check_system(parse_system(src))] == texts


# A diagnostic names a binder, parameter or restricted locality as the
# source wrote it: renaming apart adds a `#k` that the lexer rejects.  In
# each text here, the name it reports was renamed.
WRITTEN_NAMES = [
    pytest.param(
        "(new $a) ($a :: table T : (Int) = {} || $a :: table T : (Int) = {}) || $a :: nil",
        ["1:47: table 'T' already stands at $a"], id="duplicate-table"),
    pytest.param(
        "$l :: { table V : (Int) = {} | table U : (Loc) = {} | "
        "delete(V@$l, (!x), true). delete(U@$l, (!x), true). nil }",
        ["1:95: !x cannot bind a locality column; use !@x"], id="binder-kind"),
    pytest.param(
        'let p(x: Int) := nil and q(x: Int) := nil in $l :: { p(1) | q("a") }',
        ["1:61: argument for 'x' has the wrong type (expected Int, found String)"],
        id="call-argument"),
]


@pytest.mark.parametrize("src, texts", WRITTEN_NAMES)
def test_diagnostic_names_what_the_source_wrote(src, texts):
    assert [str(d) for d in check_system(parse_system(src))] == texts


def test_no_diagnostic_of_a_clashing_text_names_a_renamed_name():
    messages = []
    for seed in range(300):
        try:
            system = parse_system(gen.clash_source(seed))
        except ParseError:
            continue
        messages += [d.message for d in check_system(system)]
    assert len(messages) > 1000
    assert [m for m in messages if "#" in m] == []


# The operator diagnostics of parsed programs, whole: `++` and the
# arithmetic operators are typed in one branch, `in` with the comparisons.
OPERATOR_DIAGNOSTICS = [
    ("update(T@$l, (!x, !y, !z), true, (x, y ++ x, z))",
     ("3:49", "operand-type", "concatenation needs two strings", "String", "String ++ Int")),
    ("update(T@$l, (!x, !y, !z), true, (x + y, y, z))",
     ("3:46", "operand-type", "'+' needs two integers", "Int", "Int + String")),
    ("delete(T@$l, (!x, !y, !z), y in z)",
     ("3:37", "operand-type", "'in' needs a scalar and a multiset of its type", "{String}",
      "{Int}")),
    # A multiset on the left: it needs the scalar of the right multiset, as
    # multisets do not nest.
    ("delete(T@$l, (!x, !y, !z), z in z)",
     ("3:37", "operand-type", "'in' needs a scalar and a multiset of its type", "Int",
      "{Int}")),
    ("delete(T@$l, (!x, !y, !z), z in x)",
     ("3:37", "operand-type", "'in' needs a scalar and a multiset of its type",
      "Int, String, Id or Loc", "{Int}")),
]


@pytest.mark.parametrize("action, want", OPERATOR_DIAGNOSTICS,
                         ids=["++", "+", "in", "in-multiset-left", "in-no-multiset"])
def test_operator_diagnostic(action, want):
    src = ("schema T : (Int, String, {Int})\n"
           "$l :: table T : (Int, String, {Int}) = {}\n"
           f"|| $l :: {action}. nil")
    (d,) = check_system(parse_system(src))
    assert (str(d.span), d.kind, d.message, d.expected, d.found) == want


# Built nets keep the names they are built with: the checker reads them
# renamed apart, as the engine runs them, so it reports a repeated table
# exactly when `lid` repeats.
def _table_at(loc: str) -> s.Node:
    return s.Node(loc, s.TableComp(s.Interface("T", (s.INT,)), Multiset()))


BUILT_DUPLICATE_TABLES = [
    pytest.param(s.ParNet(s.Restrict("a", _table_at("a")), s.Restrict("a", _table_at("a"))),
                 [], id="two-restrictions-of-one-name"),
    pytest.param(s.ParNet(s.Restrict("a", _table_at("a")), _table_at("a")),
                 [], id="restricted-beside-free"),
    pytest.param(s.Restrict("a", s.ParNet(_table_at("a"), _table_at("a"))),
                 ["table 'T' already stands at $a"], id="one-restriction"),
]


@pytest.mark.parametrize("net, texts", BUILT_DUPLICATE_TABLES)
def test_duplicate_table_of_a_built_net_agrees_with_lid(net, texts):
    diags = check_system(s.System({}, (("T", (s.INT,)),), net))
    assert [str(d) for d in diags] == texts
    assert no_rep(lid(canonicalize(net))) == (not texts)


def test_duplicate_table_reported_exactly_when_lid_repeats():
    systems = [gensys.typed_system(seed) for seed in range(200)]
    systems += [gen.random_system(seed) for seed in range(300)]
    systems += [parse_system(repeated_tables(seed)) for seed in range(20)]
    repeats = 0
    for system in systems:
        reported = any(d.kind == "duplicate-table" for d in check_system(system))
        assert reported == (not no_rep(lid(canonicalize(system.main_net))))
        repeats += reported
    assert repeats == 20



# A diagnostic the parser cannot lead to, on a built system of one node at
# $l with a one-column table T declared, pinned whole.
_AT_L = VLoc("l")


def _count_into(name: str) -> s.Aggr:
    """`aggr(T@$l, (!a), true, count, (!name))`."""
    return s.Aggr("T", s.Template((s.BindData("a"),)), s.TruePred(), s.AggrFn("count"),
                  s.Template((s.BindData(name),)), _AT_L)


BUILT_DIAGNOSTIC_TEXTS = [
    # Only a selection's result is a nameless table, and it is never a component.
    pytest.param(
        s.TableComp(s.Interface(None, (s.INT,)), Multiset(), span=6),
        ["1:7: a nameless table cannot stand as a component"], id="anonymous-table"),
]


@pytest.mark.parametrize("component, texts", BUILT_DIAGNOSTIC_TEXTS)
def test_diagnostic_text_of_a_built_system(component, texts):
    system = s.System({}, (("T", (s.INT,)),), s.Node("l", component))
    assert [str(d) for d in check_system(system)] == texts


def test_a_shadowing_binder_checks_clean_and_runs_alike_built_and_parsed():
    # The delete's `!x` hides the aggr's `x` in its predicate only, so the
    # insert after it reads the count: an inner binder is lexical scope.
    src = ("$l :: { table T : (Int) = {(1), (2)} | aggr(T@$l, (!a), true, count, (!x)). "
           "delete(T@$l, (!x), x = 1). insert(T@$l, (x)). nil }")
    table = s.TableComp(s.Interface("T", (s.INT,)), Multiset([ValueTuple((1,)), ValueTuple((2,))]))
    delete = s.Delete("T", s.Template((s.BindData("x"),)), s.Cmp("=", s.Var("x"), 1), _AT_L)
    insert = s.Prefix(s.Insert("T", s.Tuple((s.Var("x"),)), _AT_L), s.NilProc())
    built = s.System({}, (), s.Node("l", s.ParComp(
        table, s.ProcComp(s.Prefix(_count_into("x"), s.Prefix(delete, insert))))))
    parsed = parse_system(src)
    assert built == parsed
    runs = []
    for system in (built, parsed):
        assert check_system(system) == []
        trace = run(system, seed=0)
        runs.append(([(lb.rule, lb.detail) for lb, _ in trace.steps], trace.terminal,
                     dump_tables(trace.final())))
    assert runs[0] == runs[1]
    assert runs[0][2] == [{"loc": "l", "tid": "T", "schema": "(Int)", "rows": [[2], [2]]}]


def test_data_variable_at_a_locality_of_a_built_system_as_of_its_text():
    # `!u` binds an Int, so `T@u` wants a Loc and finds it, built or parsed.
    src = ("$l :: { table T : (Int) = {(1)} | "
           "aggr(T@$l, (!a), true, count, (!u)). insert(T@u, (1)). nil }")
    table = s.TableComp(s.Interface("T", (s.INT,)), Multiset([ValueTuple((1,))]))
    insert = s.Prefix(s.Insert("T", s.Tuple((1,)), s.Var("u")), s.NilProc())
    built = s.System({}, (), s.Node("l", s.ParComp(
        table, s.ProcComp(s.Prefix(_count_into("u"), insert)))))
    parsed = parse_system(src)
    assert built == parsed
    want = [("operand-type", "a locality is required here", "Loc", "Int")]
    for system in (built, parsed):
        assert [(d.kind, d.message, d.expected, d.found)
                for d in check_system(system)] == want

@pytest.mark.parametrize("expected, found, text", [
    ("Int", "String", "1:2: m (expected Int, found String)"),
    (None, "Int = String", "1:2: m (found Int = String)"),
    ("Loc", None, "1:2: m (expected Loc)"),
    (None, None, "1:2: m"),
])
def test_diagnostic_prints_only_the_halves_it_has(expected, found, text):
    assert str(Diagnostic("operand-type", "m", s.Span(1, 2), expected, found)) == text


class TestEnvUndo:
    def test_bindings_do_not_leak(self):
        c = fresh_checker()
        g = env()
        a = s.Delete("KLD", SEVEN_BINDERS, s.Cmp("=", s.Var("tp"), "HB"),
                     VLoc("l1"))
        assert c.type_action(g, a) == []
        assert "tp" not in g
