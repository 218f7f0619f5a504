"""Typing judgments and whole-system checking."""

import pathlib

from fixtures import KLD_SCHEMA, SEVEN_BINDERS, SSRESULT_SCHEMA, STORES_SCHEMA
from kdb import syntax as s
from kdb.parser import parse_system
from kdb.typesys import Checker, TypeEnv, check_system

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"

NABLA_DC = {
    "Stores": STORES_SCHEMA,
    "KLD": KLD_SCHEMA,
    "SSResult": SSRESULT_SCHEMA,
}


def fresh_checker(nabla=None, procs=None) -> Checker:
    return Checker(nabla or NABLA_DC, procs or {})


def env(*pairs) -> TypeEnv:
    return TypeEnv(list(pairs))


class TestExprTyping:
    def test_arithmetic_under_int_binding(self):
        c = fresh_checker()
        g = env(("is0", s.INT))
        assert c.type_expr(g, s.Arith("-", s.DataVar("is0"), s.IntLit(2))) == s.INT
        assert not c.diags

    def test_concat_of_strings(self):
        c = fresh_checker()
        got = c.type_expr(env(), s.Concat(s.StrLit("a"), s.StrLit("b")))
        assert got == s.STRING

    def test_unbound_variable(self):
        c = fresh_checker()
        assert c.type_expr(env(), s.DataVar("x")) is None
        assert c.diags[0].kind == "unbound-variable"

    def test_locality_variable_used_as_data(self):
        c = fresh_checker()
        g = env(("u", s.LOC))
        assert c.type_expr(g, s.DataVar("u")) is None
        assert c.diags[0].kind == "kind-mismatch"

    def test_heterogeneous_multiset(self):
        c = fresh_checker()
        got = c.type_expr(env(), s.MultisetLit((s.IntLit(1), s.StrLit("x"))))
        assert got is None
        assert c.diags[0].kind == "heterogeneous-multiset"

    def test_empty_multiset_has_no_type(self):
        c = fresh_checker()
        assert c.type_expr(env(), s.MultisetLit(())) is None
        assert c.diags[0].kind == "empty-multiset"


class TestPredTyping:
    def test_membership_over_id_multiset(self):
        c = fresh_checker()
        g = env(("w", s.MSet("Id")))
        assert c.type_pred(g, s.Member(s.TidLit("KLD"), s.DataVar("w")))

    def test_cross_type_compare_rejected(self):
        c = fresh_checker()
        assert not c.type_pred(env(), s.Cmp("=", s.IntLit(1), s.StrLit("a")))

    def test_ordering_on_ids_rejected(self):
        c = fresh_checker()
        assert not c.type_pred(env(), s.Cmp("<", s.TidLit("A"), s.TidLit("B")))
        c2 = fresh_checker()
        assert c2.type_pred(env(), s.Cmp("=", s.TidLit("A"), s.TidLit("B")))

    def test_subset_needs_matching_multisets(self):
        c = fresh_checker()
        g = env(("a", s.MSet("Id")), ("b", s.MSet("Id")))
        assert c.type_pred(g, s.Cmp("sub", s.DataVar("a"), s.DataVar("b")))
        assert not c.type_pred(g, s.Cmp("sub", s.DataVar("a"), s.IntLit(1)))


class TestTupleTyping:
    def test_select_payload_schema(self):
        c = fresh_checker()
        g = env(("cr", s.STRING), ("sz", s.STRING), ("ss", s.INT))
        t = s.Tuple((s.DataVar("cr"), s.DataVar("sz"), s.DataVar("ss")))
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
        assert c.type_table(env(), s.TableByName("Stores", s.LocLit("l0"))) == STORES_SCHEMA

    def test_unknown_identifier(self):
        c = fresh_checker()
        assert c.type_table(env(), s.TableByName("Nope", s.LocLit("l0"))) is None
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
        pred = s.And(s.Member(s.TidLit("KLD"), s.DataVar("w")),
                     s.Cmp("=", s.DataVar("x"), s.StrLit("CPH")))
        payload = s.Tuple((s.DataVar("z"), s.LocVar("p")))
        return s.Select((s.TableByName("Stores", s.LocLit("l0")),),
                        template, pred, payload, "tbv")

    def test_select_yields_table_binding(self):
        c = fresh_checker()
        got = c.type_action(env(), self.select_action())
        assert got == [("tbv", (s.STRING, s.LOC))]
        assert not c.diags

    def test_aggr_yields_int_binding(self):
        c = fresh_checker()
        g = env(("tbv", (s.STRING, s.LOC)), ("q", s.STRING), ("u", s.LOC))
        a = s.Aggr("KLD", SEVEN_BINDERS, s.Cmp("=", s.DataVar("tp"), s.StrLit("HB")),
                   s.AggrFn("sum", 7), s.Template((s.BindData("res"),)), s.LocVar("u"))
        assert c.type_action(g, a) == [("res", s.INT)]
        assert not c.diags

    def test_aggr_result_binder_fit(self):
        # Every aggregator yields one integer, so only a single `!x` binds it.
        def check(bind_template):
            c = fresh_checker()
            a = s.Aggr("KLD", SEVEN_BINDERS, s.TruePred(), s.AggrFn("sum", 7), bind_template,
                       s.LocLit("l1"))
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
        a = s.Insert("KLD", s.Tuple((s.StrLit("001"), s.StrLit("HB"), s.StrLit("2015"))),
                     s.LocLit("l1"))
        assert c.type_action(env(), a) is None
        assert c.diags[0].kind == "payload-format"

    def test_aggr_over_string_column_rejected(self):
        c = fresh_checker()
        a = s.Aggr("KLD", SEVEN_BINDERS, s.TruePred(), s.AggrFn("sum", 1),
                   s.Template((s.BindData("r"),)), s.LocLit("l1"))
        assert c.type_action(env(), a) is None
        assert c.diags[0].kind == "aggregator-signature"

    def test_update_payload_must_fit(self):
        c = fresh_checker()
        payload = s.Tuple(tuple(s.DataVar(n) for n in SEVEN_BINDERS.names()[:-1])
                          + (s.StrLit("oops"),))
        a = s.Update("KLD", SEVEN_BINDERS, s.TruePred(), payload, s.LocLit("l1"))
        assert c.type_action(env(), a) is None
        assert c.diags[0].kind == "payload-format"

    def test_create_must_agree_with_declared_schema(self):
        c = fresh_checker()
        a = s.Create("KLD", s.LocLit("l1"), (s.INT,))
        assert c.type_action(env(), a) is None
        assert c.diags[0].kind == "schema-conflict"

    def test_select_payload_with_operators_rejected(self):
        c = fresh_checker()
        template = s.Template((s.BindData("x"),))
        a = s.Select((s.TableByName("SSResult", s.LocLit("l0")),),
                     s.Template((s.BindData("a"), s.BindData("b"), s.BindData("n"))),
                     s.TruePred(),
                     s.Tuple((s.Arith("+", s.DataVar("n"), s.IntLit(1)),)), "tbv")
        assert template is not None
        assert c.type_action(env(), a) is None
        assert c.diags[0].kind == "select-payload"

    def test_eval_checks_spawned_process_under_same_env(self):
        c = fresh_checker()
        inner = s.Prefix(s.Insert("SSResult",
                                  s.Tuple((s.DataVar("q"), s.StrLit("HB"), s.IntLit(1))),
                                  s.LocLit("l0")), s.NilProc())
        a = s.Eval(inner, s.LocLit("l1"))
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

    # The parser rejects bad calls in source text; a System built in code
    # reaches the checker with them, which reports them before it pairs
    # parameters with arguments.
    def test_call_to_unknown_procedure_in_built_system(self):
        call = s.CallProc("g", (s.IntLit(1),), span=s.Span(1, 7))
        system = s.System({}, (), s.Node("l", s.ProcComp(call)))
        (diag,) = check_system(system)
        assert diag.kind == "unknown-procedure"
        assert str(diag) == "1:7: call to undefined procedure 'g'"

    def test_call_arity_in_built_system(self):
        f = s.ProcDef("f", (("x", s.INT),), s.NilProc())
        call = s.CallProc("f", (s.IntLit(1), s.StrLit("extra")), span=s.Span(1, 7))
        system = s.System({"f": f}, (), s.Node("l", s.ProcComp(call)))
        (diag,) = check_system(system)
        assert diag.kind == "call-arity"
        assert str(diag) == "1:7: procedure 'f' takes 1 argument(s) (expected 1, found 2)"

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


class TestEnvUndo:
    def test_bindings_do_not_leak(self):
        c = fresh_checker()
        g = env()
        a = s.Delete("KLD", SEVEN_BINDERS, s.Cmp("=", s.DataVar("tp"), s.StrLit("HB")),
                     s.LocLit("l1"))
        assert c.type_action(g, a) == []
        assert g.lookup("tp") is None
