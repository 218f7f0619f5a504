"""Evaluation, matching, substitution, projection, joins, orders, aggregation."""

import itertools
import random

import pytest

import reference_eval as ref
from fixtures import KLD_ROWS, KLD_SCHEMA, KLD_TABLE, SEVEN_BINDERS, srow
from kdb import kernel as k
from kdb import parser
from kdb import syntax as s
from kdb.net import canonicalize, find_tables
from kdb.semantics import enumerate_transitions
from kdb.typesys import Checker
from kdb.values import (
    Multiset,
    ValueTuple,
    VLoc,
    VSet,
    VTid,
    row_sort_key,
    value_sort_key,
)


def intlit(n):
    return n


def agreed(got, want):
    """The compiled evaluator's result, once it equals the reference's."""
    assert (type(got), got) == (type(want), want)
    return got


def eval_expr(e, *env):
    return agreed(k.eval_expr(e, *env), ref.eval_expr(e, *env))


def eval_pred(p, *env):
    return agreed(k.eval_pred(p, *env), ref.eval_pred(p, *env))


def eval_tuple(t, *env):
    return agreed(k.eval_tuple(t, *env), ref.eval_tuple(t, *env))


class TestEvalExpr:
    def test_division_by_zero_yields_zero(self):
        assert eval_expr(s.Arith("/", intlit(6), intlit(0))) == 0

    def test_division_truncates_toward_zero(self):
        assert eval_expr(s.Arith("/", intlit(7), intlit(2))) == 3
        assert eval_expr(s.Arith("/", intlit(-7), intlit(2))) == -3

    def test_concat(self):
        e = s.Arith("++", "ab", "cd")
        assert eval_expr(e) == "abcd"

    def test_arith_on_string_errs(self):
        assert k.is_err(eval_expr(s.Arith("+", "a", intlit(1))))

    def test_concat_on_int_errs(self):
        assert k.is_err(eval_expr(s.Arith("++", intlit(1), intlit(2))))

    def test_mixed_multiset_errs(self):
        e = s.MultisetLit((intlit(1), "x"))
        assert k.is_err(eval_expr(e))

    def test_homogeneous_multiset(self):
        e = s.MultisetLit((intlit(1), intlit(1), intlit(2)))
        assert eval_expr(e) == VSet(Multiset([1, 1, 2]))

    def test_free_variable_errs(self):
        assert k.is_err(eval_expr(s.Var("x")))

    def test_huge_arithmetic_is_exact(self):
        e = s.Arith("*", intlit(2**70), intlit(3**40))
        assert eval_expr(e) == 2**70 * 3**40


class TestEvalPred:
    def test_conjunction_with_negation(self):
        p = s.And(s.Cmp("=", intlit(1), intlit(1)),
                  s.Not(s.Cmp("<", intlit(2), intlit(1))))
        assert eval_pred(p) is True

    def test_cross_type_compare_errs(self):
        assert k.is_err(eval_pred(s.Cmp("<", "a", intlit(1))))

    def test_and_is_error_strict_even_when_other_side_false(self):
        bad = s.Cmp("=", "a", intlit(1))
        p = s.And(s.Cmp("=", intlit(1), intlit(2)), bad)
        assert k.is_err(eval_pred(p))

    def test_ordering_on_localities_errs(self):
        assert k.is_err(eval_pred(s.Cmp("<", VLoc("a"), VLoc("b"))))
        assert eval_pred(s.Cmp("=", VLoc("a"), VLoc("a"))) is True

    def test_equality_on_table_ids(self):
        assert eval_pred(s.Cmp("!=", VTid("A"), VTid("B"))) is True
        assert k.is_err(eval_pred(s.Cmp("<=", VTid("A"), VTid("B"))))

    def test_string_ordering_is_lexicographic(self):
        assert eval_pred(s.Cmp("<", "abc", "abd")) is True

    def test_membership(self):
        container = s.MultisetLit((VTid("KLD"), VTid("SH")))
        assert eval_pred(s.Cmp("in", VTid("KLD"), container)) is True
        assert eval_pred(s.Cmp("in", VTid("LAM"), container)) is False

    def test_membership_wrong_kind_errs(self):
        container = s.MultisetLit((VTid("KLD"),))
        assert k.is_err(eval_pred(s.Cmp("in", intlit(1), container)))

    def test_membership_needs_a_multiset(self):
        assert k.is_err(eval_pred(s.Cmp("in", intlit(1), intlit(2))))

    def test_proper_subset(self):
        small = s.MultisetLit((intlit(1),))
        big = s.MultisetLit((intlit(1), intlit(2)))
        assert eval_pred(s.Cmp("sub", small, big)) is True
        assert eval_pred(s.Cmp("sub", big, big)) is False
        assert eval_pred(s.Cmp("sub", big, small)) is False

    def test_subset_counts_multiplicity(self):
        one = s.MultisetLit((intlit(1),))
        two = s.MultisetLit((intlit(1), intlit(1)))
        assert eval_pred(s.Cmp("sub", one, two)) is True
        assert eval_pred(s.Cmp("sub", two, one)) is False


# Well-typed operands of each comparison: `sub` takes two multisets, `in` a
# scalar and a multiset of its type, the rest two scalars of one type.
COMPARISON_OPERANDS = {"sub": (s.MultisetLit((intlit(1),)), s.MultisetLit((intlit(1), intlit(2)))),
                       "in": (intlit(1), s.MultisetLit((intlit(1),)))}


class TestOperatorFamilies:
    # An operator family is one node class whose operator is data, so every
    # operator the parser reads must be one the kernel and the checker know.
    def test_every_binary_operator_is_in_the_kernel_table(self):
        assert parser._BINOPS <= k._BINARY.keys()

    @pytest.mark.parametrize("op", sorted(parser._COMPARISONS))
    def test_every_comparison_evaluates_and_types(self, op):
        pred = s.Cmp(op, *COMPARISON_OPERANDS.get(op, (intlit(1), intlit(2))))
        assert not k.is_err(eval_pred(pred))
        checker = Checker({})
        assert checker.type_pred(s.Scope(), pred) and checker.diags == []


class TestEvalUnderEnvironment:
    """Evaluating under a match's environment agrees with evaluating the
    term the same substitution yields, and with the reference evaluator,
    errors included."""

    def test_random_terms_agree_with_substitution(self):
        rng = random.Random(5)
        values = [7, "a", VLoc("l"),
                  VSet(Multiset([2, 2, 3])), VSet(Multiset())]
        names = ["x", "y", "z"]

        def expr(depth):
            c = rng.random()
            if depth == 0 or c < 0.5:
                if rng.random() < 0.3:
                    return rng.randrange(4)
                return s.Var(rng.choice(names))
            if c < 0.6:
                return s.MultisetLit((expr(0), expr(0)))
            if c < 0.95:
                return s.Arith(rng.choice("+-*/"), expr(depth - 1), expr(depth - 1))
            return s.Arith("++", expr(depth - 1), "b")

        def pred(depth):
            c = rng.random()
            if depth == 0 or c < 0.5:
                if c < 0.1:
                    return s.Cmp("in", expr(1), expr(1))
                return s.Cmp(rng.choice(s.CMP_OPS), expr(1), expr(1))
            if c < 0.7:
                return s.Not(pred(depth - 1))
            return s.And(pred(depth - 1), pred(depth - 1))

        outcomes = set()
        for _ in range(1000):
            # x and y are integers; z is anything, or unbound.
            env = {"x": rng.randrange(4), "y": rng.randrange(4)}
            if rng.random() < 0.8:
                env["z"] = rng.choice(values)
            p = pred(2)
            got = eval_pred(p, env)
            assert got == eval_pred(k.apply_subst(env, p))
            outcomes.add(repr(got))
            t = s.Tuple((expr(2), expr(1)))
            assert eval_tuple(t, env) == eval_tuple(k.apply_subst(env, t))
        assert outcomes == {"True", "False", "ERR"}


class TestEvalTuple:
    def test_componentwise(self):
        t = s.Tuple((s.Arith("+", intlit(1), intlit(1)),
                     s.Arith("++", "a", "b")))
        assert eval_tuple(t) == ValueTuple((2, "ab"))

    def test_any_component_error_propagates(self):
        t = s.Tuple((intlit(1), s.Arith("+", "a", intlit(1))))
        assert k.is_err(eval_tuple(t))

    def test_constant_row_evaluates_to_itself(self):
        t = s.Tuple(tuple(
            x if isinstance(x, str) else intlit(x)
            for x in ("001", "HB", "2015", "white", "37", 6, 0)
        ))
        assert eval_tuple(t) == srow("001", "HB", "2015", "white", "37", 6, 0)


class TestMatch:
    def test_pairs_bind_in_order(self):
        et = ValueTuple((5, 7))
        tpl = s.Template((s.BindData("x"), s.BindData("y")))
        assert k.match(et, tpl) == {"x": 5, "y": 7}

    def test_arity_mismatch_errs(self):
        et = ValueTuple((5, 7))
        tpl = s.Template((s.BindData("x"), s.BindData("y"), s.BindData("z")))
        assert k.is_err(k.match(et, tpl))

    def test_locality_does_not_bind_data_field(self):
        assert k.is_err(k.match(ValueTuple((VLoc("l1"),)), s.Template((s.BindData("x"),))))

    def test_scalar_does_not_bind_locality_field(self):
        assert k.is_err(k.match(ValueTuple((1,)), s.Template((s.BindLoc("u"),))))

    def test_multiset_binds_data_field(self):
        v = VSet(Multiset([VLoc("l1")]))
        got = k.match(ValueTuple((v,)), s.Template((s.BindData("x"),)))
        assert got == {"x": v}

    def test_multiset_does_not_bind_locality_field(self):
        v = VSet(Multiset([VLoc("l1")]))
        assert k.is_err(k.match(ValueTuple((v,)), s.Template((s.BindLoc("u"),))))


class TestWellSorted:
    def test_kld_row_fits_kld_schema(self):
        assert k.well_sorted_value(srow("001", "HB", "2015", "white", "37", 6, 0), KLD_SCHEMA)

    def test_data_binder_never_fits_locality(self):
        assert not k.well_sorted_template(s.Template((s.BindData("x"),)), (s.LOC,))
        assert k.well_sorted_template(s.Template((s.BindLoc("u"),)), (s.LOC,))

    def test_arity_mismatch(self):
        assert not k.well_sorted_value(srow(1, 2), (s.INT,))
        assert not k.well_sorted_template(SEVEN_BINDERS, (s.INT,))

    def test_data_binder_fits_any_multiset(self):
        assert k.well_sorted_template(s.Template((s.BindData("x"),)), (s.MSet("Loc"),))

    def test_empty_multiset_fits_every_element_kind(self):
        empty = VSet(Multiset())
        assert k.well_sorted_value(empty, s.MSet("Int"))
        assert k.well_sorted_value(empty, s.MSet("Loc"))
        assert not k.well_sorted_value(empty, s.INT)


class TestSubstitution:
    def test_predicate_substitution(self):
        p = s.Cmp("=", s.Var("tp"), "HB")
        got = k.apply_subst({"tp": "SB"}, p)
        assert got == s.Cmp("=", "SB", "HB")

    def test_inner_binder_shadows(self):
        # x is rebound by the loop template, so inner occurrences stay put.
        body = s.Prefix(
            s.Insert("T", s.Tuple((s.Var("x"),)), VLoc("l1")), s.NilProc())
        loop = s.Foreach(
            s.TableByVar("tv"),
            s.Template((s.BindData("x"),)),
            s.TruePred(),
            s.OrderSpec("unordered"),
            body,
        )
        outer = s.Seq(
            s.Prefix(s.Insert("T", s.Tuple((s.Var("x"),)), VLoc("l1")), s.NilProc()),
            loop,
        )
        got = k.apply_subst({"x": 5}, outer)
        assert got.first.action.payload == s.Tuple((5,))
        assert got.second.body.action.payload == s.Tuple((s.Var("x"),))

    def test_table_variable_substitution(self):
        table = s.TableLiteral(s.Interface(None, (s.INT,)), Multiset([srow(1)]))
        loop = s.Foreach(s.TableByVar("tbv"), s.Template((s.BindData("x"),)),
                         s.TruePred(), s.OrderSpec("unordered"), s.NilProc())
        got = k.apply_subst({"tbv": table}, loop)
        assert got.table == table

    def test_continuation_stops_at_select_rebind(self):
        inner = s.Prefix(
            s.Select((s.TableByVar("tv"),), s.Template((s.BindData("y"),)),
                     s.TruePred(), s.Tuple((s.Var("y"),)), "w"),
            s.Foreach(s.TableByVar("w"), s.Template((s.BindData("z"),)),
                      s.TruePred(), s.OrderSpec("unordered"), s.NilProc()),
        )
        got = k.apply_subst({"w": s.TableLiteral(s.Interface(None, (s.INT,)), Multiset())}, inner)
        # w is rebound by the select, so the loop over w is untouched.
        assert got.cont.table == s.TableByVar("w")


def naive_subst_with_indices(proc, name, value):
    """Oracle: rename every binder to a unique index first, then substitute
    free occurrences of `name` textually.  Agreement with apply_subst shows
    the scope rules are respected without the renaming."""
    counter = itertools.count()

    def walk_expr(e, env):
        if isinstance(e, s.Var):
            return value if e.name not in env and e.name == name else e
        if isinstance(e, s.Arith):
            return s.Arith(e.op, walk_expr(e.left, env), walk_expr(e.right, env))
        if isinstance(e, s.MultisetLit):
            return s.MultisetLit(tuple(walk_expr(x, env) for x in e.elements))
        return e

    def walk_pred(p, env):
        if isinstance(p, s.Cmp):
            return s.Cmp(p.op, walk_expr(p.left, env), walk_expr(p.right, env))
        if isinstance(p, s.Not):
            return s.Not(walk_pred(p.inner, env))
        if isinstance(p, s.And):
            return s.And(walk_pred(p.left, env), walk_pred(p.right, env))
        return p

    def walk_proc(p, env):
        if isinstance(p, s.NilProc):
            return p
        if isinstance(p, s.Prefix):
            a = p.action
            if isinstance(a, s.Insert):
                a2 = s.Insert(a.tid, s.Tuple(tuple(walk_expr(e, env) for e in a.payload.components)), a.loc)
                return s.Prefix(a2, walk_proc(p.cont, env))
            if isinstance(a, s.Delete):
                env2 = env | {f.name: next(counter) for f in a.template.fields}
                a2 = s.Delete(a.tid, a.template, walk_pred(a.pred, env2), a.loc)
                return s.Prefix(a2, walk_proc(p.cont, env))
            raise AssertionError("oracle only covers insert/delete prefixes")
        if isinstance(p, s.Foreach):
            env2 = env | {f.name: next(counter) for f in p.template.fields}
            return s.Foreach(p.table, p.template, walk_pred(p.pred, env2), p.order,
                             walk_proc(p.body, env2))
        if isinstance(p, s.Seq):
            return s.Seq(walk_proc(p.first, env), walk_proc(p.second, env))
        raise AssertionError(type(p))

    return walk_proc(proc, {})


class TestSubstAgainstScopeOracle:
    def test_random_processes_agree_with_oracle(self):
        rng = random.Random(11)
        names = ["x", "y", "z"]

        def rand_expr(depth=2):
            if depth == 0 or rng.random() < 0.5:
                return rng.choice([rng.randrange(5), s.Var(rng.choice(names))])
            return s.Arith("+", rand_expr(depth - 1), rand_expr(depth - 1))

        def rand_pred():
            return s.Cmp("=", rand_expr(), rand_expr())

        def rand_template():
            picked = rng.sample(names, rng.randrange(1, 3))
            return s.Template(tuple(s.BindData(n) for n in picked))

        def rand_proc(depth):
            if depth == 0:
                return s.NilProc()
            c = rng.random()
            if c < 0.35:
                act = s.Insert("T", s.Tuple((rand_expr(),)), VLoc("l"))
                return s.Prefix(act, rand_proc(depth - 1))
            if c < 0.6:
                act = s.Delete("T", rand_template(), rand_pred(), VLoc("l"))
                return s.Prefix(act, rand_proc(depth - 1))
            if c < 0.85:
                return s.Foreach(s.TableByVar("tv"), rand_template(), rand_pred(),
                                 s.OrderSpec("unordered"), rand_proc(depth - 1))
            return s.Seq(rand_proc(depth - 1), rand_proc(depth - 1))

        for _ in range(300):
            proc = rand_proc(3)
            got = k.apply_subst({"x": 9}, proc)
            want = naive_subst_with_indices(proc, "x", 9)
            assert got == want


class TestMatchTotalityOnSortedInputs:
    def test_well_sorted_rows_always_match_well_typed_templates(self):
        # Operator-free rows fitting a schema must match any template that
        # the checker accepts against that schema.
        from kdb.typesys import Checker
        rng = random.Random(13)
        kinds = [s.INT, s.STRING, s.ID, s.LOC, s.MSet("Int"), s.MSet("Loc")]
        for trial in range(500):
            sk = tuple(rng.choice(kinds) for _ in range(rng.randrange(1, 5)))
            fields = tuple(
                s.BindLoc(f"v{i}") if t == s.LOC else s.BindData(f"v{i}")
                for i, t in enumerate(sk)
            )
            template = s.Template(fields)
            checker = Checker({})
            assert checker.type_template(sk, template) is not None
            vals = []
            for t in sk:
                if t == s.INT:
                    vals.append(rng.randrange(5))
                elif t == s.STRING:
                    vals.append(rng.choice("ab"))
                elif t == s.ID:
                    vals.append(VTid("K"))
                elif t == s.LOC:
                    vals.append(VLoc("l1"))
                elif t == s.MSet("Int"):
                    vals.append(VSet(Multiset([rng.randrange(3)])))
                else:
                    vals.append(VSet(Multiset([VLoc("l2")])))
            row = ValueTuple(tuple(vals))
            assert k.well_sorted_value(row, sk)
            assert not k.is_err(k.match(row, template)), (sk, row)


class TestProjection:
    def test_three_column_projection(self):
        t = s.Tuple((s.Var("cr"), s.Var("sz"), s.Var("ss")))
        got = k.project_schema(KLD_SCHEMA, SEVEN_BINDERS, t)
        assert got == (s.STRING, s.STRING, s.INT)

    def test_identity_projection(self):
        t = s.Tuple(tuple(s.Var(n) for n in SEVEN_BINDERS.names()))
        assert k.project_schema(KLD_SCHEMA, SEVEN_BINDERS, t) == KLD_SCHEMA

    def test_constant_component_contributes_its_own_sort(self):
        t = s.Tuple((42, s.Var("cr")))
        got = k.project_schema(KLD_SCHEMA, SEVEN_BINDERS, t)
        assert got == (s.INT, s.STRING)

    def test_payload_longer_than_its_template(self):
        # Every component still projects: a constant brings its own sort.
        template = s.Template((s.BindData("x"),))
        t = s.Tuple((s.Var("x"), 1, "a", s.Var("x")))
        got = k.project_schema((s.INT,), template, t)
        assert got == (s.INT, s.INT, s.STRING, s.INT)

    def test_unbound_variable_is_undefined(self):
        t = s.Tuple((s.Var("nope"),))
        assert k.project_schema(KLD_SCHEMA, SEVEN_BINDERS, t) is None

    def test_operator_component_is_undefined(self):
        t = s.Tuple((s.Arith("+", 1, 1),))
        assert k.project_schema(KLD_SCHEMA, SEVEN_BINDERS, t) is None

    def test_identity_projection_on_random_schemas(self):
        rng = random.Random(5)
        kinds = ["Int", "String", "Id", "Loc"]
        for _ in range(200):
            sk = []
            fields = []
            for i in range(rng.randrange(1, 6)):
                kind = rng.choice(kinds)
                if kind != "Loc" and rng.random() < 0.3:
                    sk.append(s.MSet(kind))
                    fields.append(s.BindData(f"v{i}"))
                elif kind == "Loc":
                    sk.append(s.LOC)
                    fields.append(s.BindLoc(f"v{i}"))
                else:
                    sk.append(s.Base(kind))
                    fields.append(s.BindData(f"v{i}"))
            template = s.Template(tuple(fields))
            payload = s.Tuple(tuple(
                s.Var(f.name)
                for f in fields
            ))
            assert k.project_schema(tuple(sk), template, payload) == tuple(sk)


class TestJoins:
    # Which tables a select joins, and the joined schema, are the select
    # rule's: see TestSelection and the sel-* monitored cases in
    # test_semantics.py.
    def test_single_table_joins_to_its_rows(self):
        assert k.join_rows([KLD_ROWS]) == KLD_ROWS
        assert k.join_rows([KLD_ROWS]) is KLD_ROWS

    def test_unresolved_reference_is_undefined(self):
        # KLD@l9 names no table when KLD is only at l1: there is nothing to
        # join, so the select has no transition.
        select = s.Select((s.TableByName("KLD", VLoc("l9")),), SEVEN_BINDERS,
                          s.TruePred(), s.Tuple((s.Var("id"),)), "tbv")
        net = s.ParNet(s.Node("l0", s.ProcComp(s.Prefix(select, s.NilProc()))),
                       s.Node("l1", KLD_TABLE))
        cn = canonicalize(net)
        assert find_tables(cn, "l9", "KLD") == []
        assert [t.rows for t in find_tables(cn, "l1", "KLD")] == [KLD_ROWS]
        system = s.System(procedures={}, schema_decls=(), main_net=net)
        assert enumerate_transitions(cn, system) == []

    def test_two_way_join_flattens(self):
        rows = k.join_rows([KLD_ROWS, KLD_ROWS])
        assert len(rows) == len(KLD_ROWS) ** 2
        assert all(len(r) == 14 for r in rows.support())

    def test_cardinality_matches_bruteforce_on_random_tables(self):
        rng = random.Random(7)
        for _ in range(100):
            tables = []
            for _ in range(rng.randrange(1, 4)):
                arity = rng.randrange(1, 3)
                rows = [
                    ValueTuple(tuple(rng.randrange(3) for _ in range(arity)))
                    for _ in range(rng.randrange(0, 5))
                ]
                tables.append(Multiset(rows))
            got = k.join_rows(tables)
            # Brute-force nested loops over expanded rows.
            expanded = [list(t) for t in tables]
            combos = list(itertools.product(*expanded))
            want = Multiset([
                ValueTuple(tuple(v for row in combo for v in row))
                for combo in combos
            ])
            assert got == want


def _pairwise_minimal(rows: Multiset, order: s.OrderSpec) -> frozenset:
    """The rows no other row strictly precedes, by comparing every pair."""

    def precedes(a: ValueTuple, b: ValueTuple) -> bool:
        if a == b:
            return True
        if order.op == "unordered":
            return False
        if order.op == "asc":
            return value_sort_key(a[order.col - 1]) < value_sort_key(b[order.col - 1])
        if order.op == "desc":
            return value_sort_key(a[order.col - 1]) > value_sort_key(b[order.col - 1])
        return row_sort_key(a) < row_sort_key(b)

    support = rows.support()
    return frozenset(t for t in support
                     if all(u == t or not precedes(u, t) for u in support))


class TestMinimal:
    def test_ascending_singleton(self):
        rows = Multiset([srow(1), srow(2), srow(2)])
        assert k.minimal(rows, s.OrderSpec("asc", 1)) == frozenset([srow(1)])

    def test_unordered_returns_support(self):
        rows = Multiset([srow(1), srow(2), srow(2)])
        assert k.minimal(rows, s.OrderSpec("unordered")) == rows.support()

    def test_ties_on_the_key_column_are_incomparable(self):
        rows = Multiset([srow(1, "a"), srow(1, "b"), srow(2, "c")])
        assert k.minimal(rows, s.OrderSpec("asc", 1)) == frozenset([srow(1, "a"), srow(1, "b")])

    def test_descending_picks_maximum(self):
        rows = Multiset([srow(1), srow(3), srow(2)])
        assert k.minimal(rows, s.OrderSpec("desc", 1)) == frozenset([srow(3)])

    def test_lex_agrees_with_total_sort_oracle(self):
        rng = random.Random(3)
        for _ in range(100):
            rows = Multiset([
                srow(rng.randrange(3), rng.choice("ab"))
                for _ in range(rng.randrange(1, 6))
            ])
            got = k.minimal(rows, s.OrderSpec("lex"))
            first = min(rows.support(), key=row_sort_key)
            want = frozenset(r for r in rows.support() if row_sort_key(r) == row_sort_key(first))
            assert got == want
            assert len(got) == 1

    def test_agrees_with_the_pairwise_definition(self):
        # Rows of up to three columns, each drawing from every value kind, so
        # that a column can mix kinds as an unchecked net's can.
        pools = [
            [n for n in range(-1, 2)],
            [c for c in "ab"],
            [VTid("K"), VTid("T")],
            [VLoc("l1"), VLoc("l2")],
            [VSet(Multiset()), VSet(Multiset([1, 1])), VSet(Multiset(["a"]))],
        ]
        rng = random.Random(11)
        for trial in range(300):
            arity = rng.randrange(1, 4)
            kinds = [rng.randrange(len(pools)) for _ in range(arity)]
            mixed = trial % 3 == 0

            def cell(i):
                return rng.choice(pools[rng.randrange(len(pools)) if mixed else kinds[i]])

            rows = Multiset([ValueTuple(tuple(cell(i) for i in range(arity)))
                             for _ in range(rng.randrange(1, 7))])
            orders = [s.OrderSpec("lex"), s.OrderSpec("unordered")]
            orders += [s.OrderSpec(op, col) for op in ("asc", "desc")
                       for col in range(1, arity + 1)]
            for order in orders:
                assert k.minimal(rows, order) == _pairwise_minimal(rows, order), (rows, order)


class TestAggregation:
    def _sales_matching(self, pred_col, pred_val):
        out = {}
        for row, n in KLD_ROWS.items():
            if row[pred_col] == pred_val:
                out[row] = n
        return Multiset(out)

    def test_sum_of_sales_for_one_shoe_id(self):
        rows = self._sales_matching(0, "001")
        assert k.apply_aggr(s.AggrFn("sum", 7), rows) == srow(12)

    def test_count_of_empty_is_zero(self):
        assert k.apply_aggr(s.AggrFn("count"), Multiset()) == srow(0)

    def test_avg_floors_the_integer_division(self):
        rows = self._sales_matching(0, "001")
        # five rows summing to 12; the quotient floors to 2
        assert k.apply_aggr(s.AggrFn("avg", 7), rows) == srow(2)

    def test_sum_counts_multiplicity(self):
        rows = Multiset({srow("x", 3): 2})
        assert k.apply_aggr(s.AggrFn("sum", 2), rows) == srow(6)

    def test_min_max_over_empty_are_zero(self):
        assert k.apply_aggr(s.AggrFn("min", 1), Multiset()) == srow(0)
        assert k.apply_aggr(s.AggrFn("max", 1), Multiset()) == srow(0)

    def test_min_max(self):
        rows = Multiset([srow(4), srow(9), srow(1)])
        assert k.apply_aggr(s.AggrFn("min", 1), rows) == srow(1)
        assert k.apply_aggr(s.AggrFn("max", 1), rows) == srow(9)

    def test_row_fit(self):
        assert k.aggr_row_ok(s.AggrFn("sum", 7), srow("a", "b", "c", "d", "e", 1, 2))
        assert not k.aggr_row_ok(s.AggrFn("sum", 7), srow("a", 1))
        assert not k.aggr_row_ok(s.AggrFn("sum", 1), srow("a", 1))
        assert k.aggr_row_ok(s.AggrFn("count"), srow("a"))
