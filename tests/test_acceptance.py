"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import gc
import os
import pathlib
import random
import re
import sys as _sys
import time

import gen
import gensys
import smallscope
from kdb import kernel as k
from kdb import syntax as s
from kdb import typesys
from kdb.net import canonicalize, dump_tables, lid
from kdb.parser import ParseError, parse_system
from kdb.semantics import explore, run
from kdb.typesys import Checker, check_system
from kdb.values import Multiset, ValueTuple, VLoc
from nets import check_net, no_rep, to_net

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


def build_schema_map(system: s.System):
    """The schema map `check_system` builds: (mapping, diagnostics)."""
    return typesys._schema_map(system, s.net_parts(system.main_net)[1], s.Positions(system.source))


def report(n: int, text: str):
    print(f"[criterion {n}] PASS: {text}", file=_sys.stderr)


class TestCriterion1CaseStudy:
    def test_case_study_reproduction(self):
        started = time.perf_counter()
        sys1 = parse_system((CORPUS / "dept_stores.kdb").read_text())
        assert check_system(sys1) == []
        trace = run(sys1, seed=0, max_steps=1000)
        assert trace.terminal == "quiescent"
        snapshots = []
        for _, cn in trace.steps:
            for d in dump_tables(cn):
                if d["tid"] == "SSResult":
                    snapshots.append(d["rows"])
        assert [["Shop1", "HB", 12]] in snapshots, snapshots
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        report(1, f'summary table holds exactly ("Shop1","HB",12); {elapsed*1000:.0f} ms')


class TestCriterion2WorkedExamples:
    def test_worked_example_goldens(self):
        import test_semantics as g
        from test_kernel import TestProjection

        g.TestInsertion().test_insert_appends_the_evaluated_row()
        TestProjection().test_three_column_projection()
        g.TestDeletion().test_delete_restores_the_original_table()
        g.TestSelection().test_black_high_boots_selected()
        g.TestUpdate().test_red_size37_high_boots_updated()
        g.TestAggregation().test_total_sales_of_one_shoe_id()
        g.TestAvgGuidedPipeline().test_aggregate_then_select_above_average()
        g.TestCreateAndDrop().test_create_adds_an_empty_table()
        g.TestInsertion().test_misformatted_insert_collapses_to_the_error_net()
        report(2, "insert/projection/delete/select/update/aggregate/avg-pipeline/"
                  "create/error goldens all reproduce")


POPULATION = 1000
STEP_HORIZON = 20
EXPLORED = 200  # systems of the population explored over every interleaving
EXPLORE_BOUND = 3000


def _stepped_population():
    """Well-typed systems with their traces; shared by criteria 3-5."""
    out = []
    for seed in range(POPULATION):
        if seed % 2:
            sys1 = gensys.typed_system(seed, max_procs=3, max_steps=6, max_rows=4)
        else:
            sys1 = gensys.typed_system(seed)
        trace = run(sys1, seed=seed, max_steps=STEP_HORIZON)
        out.append((seed, sys1, trace))
    return out


class TestCriteria3to5Metatheory:
    population = None

    @classmethod
    def setup_class(cls):
        cls.population = _stepped_population()

    def test_criterion_3_subject_reduction(self):
        started = time.perf_counter()
        failures = 0
        typed = 0
        stepped = 0
        for seed, sys1, trace in self.population:
            diags = check_system(sys1)
            if diags:
                failures += 1
                continue
            typed += 1
            nabla, _ = build_schema_map(sys1)
            for label, cn in trace.steps:
                if cn.err:
                    break
                stepped += 1
                if check_net(to_net(cn), nabla, sys1.procedures):
                    failures += 1
                    break
        elapsed = time.perf_counter() - started
        assert typed == POPULATION, f"{POPULATION - typed} generated systems failed to type"
        assert failures == 0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        report(3, f"{POPULATION} systems, {stepped} successor nets re-typed, "
                  f"0 failures in {elapsed:.1f}s")

    def test_criterion_4_soundness_and_monitor_liveness(self):
        err_runs = [seed for seed, _, trace in self.population if trace.terminal == "err"]
        assert err_runs == [], f"well-typed runs reached the error net: {err_runs[:5]}"

        reached = 0
        produced = 0
        seed = 0
        while produced < 100:
            sys1 = gensys.typed_system(seed)
            bad = gensys.corrupt(sys1, random.Random(seed))
            seed += 1
            if bad is None:
                continue
            assert check_system(bad), "corrupted system unexpectedly well-typed"
            produced += 1
            trace = run(bad, seed=seed, max_steps=40)
            if trace.terminal == "err":
                reached += 1
        assert reached >= 30, f"only {reached}/100 ill-typed runs reached the error net"
        report(4, f"0/{POPULATION} well-typed runs err; "
                  f"{reached}/100 ill-typed runs trip the monitor")

    def test_criterion_4_soundness_over_every_interleaving(self):
        # A run follows one schedule; exploration follows them all, up to
        # the bound, and no well-typed state reached may be the error net.
        started = time.perf_counter()
        states = truncated = 0
        err_seeds = []
        for seed, sys1, _ in self.population[:EXPLORED]:
            result = explore(sys1, bound=EXPLORE_BOUND)
            states += result.states
            truncated += result.truncated
            if result.err_reachable:
                err_seeds.append(seed)
        elapsed = time.perf_counter() - started
        assert err_seeds == [], f"well-typed systems reach the error net: {err_seeds[:5]}"
        report(4, f"0/{EXPLORED} well-typed systems reach ERR over {states} explored states "
                  f"(bound {EXPLORE_BOUND}, {truncated} truncated) in {elapsed:.1f}s")

    def test_criterion_5_table_identifier_integrity(self):
        violations = 0
        checked = 0
        for seed, sys1, trace in self.population:
            prev = canonicalize(sys1.main_net)
            for label, cn in trace.steps:
                if cn.err:
                    break
                if no_rep(lid(prev)):
                    checked += 1
                    if not no_rep(lid(cn)):
                        violations += 1
                prev = cn
        assert checked > 0
        assert violations == 0
        report(5, f"identifier integrity preserved across {checked} steps, 0 violations")


class TestCriterion6SmallScopeOracle:
    def test_engine_matches_naive_enumerator(self):
        instances = 500
        mismatches = []
        err_reaching = 0
        for seed in range(instances):
            engine_keys, naive_keys, sys1 = smallscope.compare_reachable(seed)
            if engine_keys != naive_keys:
                mismatches.append(seed)
            if ((), (), True) in engine_keys:
                err_reaching += 1
        assert mismatches == [], f"disagreements at seeds {mismatches[:5]}"
        report(6, f"{instances} nets, reachable sets identical "
                  f"({err_reaching} reach the error net)")


class TestCriterion7EvaluationAgreement:
    def test_checker_and_evaluator_agree_on_closed_terms(self):
        total = 10_000
        disagreements = 0
        produced = 0
        rng = random.Random(2024)
        while produced < total:
            g = gen.AstGen(random.Random(rng.randrange(1 << 30)))
            shape = produced % 3
            if shape == 0:
                term = g.expr({}, depth=3)
                checker = Checker({})
                ty = checker.type_expr(s.Scope(), term)
                val = k.eval_expr(term)
                ok_static = ty is not None
                ok_dynamic = not k.is_err(val)
                if ok_static != ok_dynamic:
                    disagreements += 1
                elif ok_static and not k.well_sorted_value(val, ty):
                    disagreements += 1
            elif shape == 1:
                term = g.pred({}, depth=3)
                checker = Checker({})
                ok_static = checker.type_pred(s.Scope(), term)
                ok_dynamic = not k.is_err(k.eval_pred(term))
                if bool(ok_static) != ok_dynamic:
                    disagreements += 1
            else:
                term = g.tuple_({})
                checker = Checker({})
                ty = checker.type_tuple(s.Scope(), term)
                val = k.eval_tuple(term)
                ok_static = ty is not None
                ok_dynamic = not k.is_err(val)
                if ok_static != ok_dynamic:
                    disagreements += 1
                elif ok_static and not k.well_sorted_value(val, ty):
                    disagreements += 1
            produced += 1
        assert disagreements == 0
        report(7, f"{total} closed terms, checker and evaluator agree everywhere")


def _balanced_par(parts):
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return s.ParNet(_balanced_par(parts[:mid]), _balanced_par(parts[mid:]))


def synthetic_system(target_chars: int) -> s.System:
    """Deterministic system whose rendered text has roughly the target size.

    Table rows carry 80% of the budget and process code the rest; processes
    are bounded chains under a balanced parallel composition so that sizes
    scale without deepening the AST.
    """
    sk = (s.STRING, s.INT, s.INT)
    row_cost = len('("w00000000", 10000, 20000), ')
    n_rows = max(1, int(target_chars * 0.8) // row_cost)
    rows = Multiset([
        ValueTuple((f"w{i:08d}", i, i * 7))
        for i in range(n_rows)
    ])
    action_cost = len('insert(Big@$l0, ("w00000000", 1, 2)). ')
    n_actions = max(1, int(target_chars * 0.2) // action_cost)
    chain = 40
    parts = [s.Node("l0", s.TableComp(s.Interface("Big", sk), rows))]
    made = 0
    while made < n_actions:
        proc: s.Process = s.NilProc()
        for _ in range(min(chain, n_actions - made)):
            payload = s.Tuple((f"w{made:08d}", made, made * 3))
            proc = s.Prefix(s.Insert("Big", payload, VLoc("l0")), proc)
            made += 1
        parts.append(s.Node("l0", s.ProcComp(proc)))
    net = _balanced_par(parts)
    return s.System(procedures={}, schema_decls=(("Big", sk),), main_net=net)


def linear_fit(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    a = sxy / sxx
    b = my - a * mx
    ss_res = sum((y - (a * x + b)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r2 = 1.0 - ss_res / ss_tot if ss_tot else 1.0
    return a, b, r2


class TestCriterion8CheckerLinearity:
    def test_check_time_linear_in_program_size(self):
        sizes = [10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000, 10_000_000]
        points = []
        for target in sizes:
            sys1 = synthetic_system(target)
            actual = len(s.render(sys1))
            gc.collect()
            gc.disable()
            try:
                reps = 3 if target <= 100_000 else (2 if target < 10_000_000 else 1)
                times = [_timed_check(sys1) for _ in range(reps)]
            finally:
                gc.enable()
            # The fit is on CPU time, which another process on the machine
            # does not inflate; the bound on the last, biggest program is on
            # wall time.
            wall = min(w for w, _ in times)
            points.append((actual, min(cpu for _, cpu in times), wall))
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        a, b, r2 = linear_fit(xs, ys)
        # Every size's times and the load averages, to tell load apart from
        # a regression.
        detail = ("; ".join(f"{n:,} chars: wall {w:.3f}s, CPU {c:.3f}s" for n, c, w in points)
                  + "; load averages (1, 5, 15 min) %.2f %.2f %.2f" % os.getloadavg())
        assert wall < 5.0, f"checking {xs[-1]:,} chars took {wall:.2f}s; {detail}"
        assert r2 >= 0.98, f"linear fit R^2 = {r2:.4f}; {detail}"
        report(8, f"R^2={r2:.4f}; {xs[-1]:,} chars checked in {wall*1000:.0f} ms")


def _timed_check(sys1) -> tuple:
    """(wall, CPU) seconds of one check."""
    t0, c0 = time.perf_counter(), time.process_time()
    diags = check_system(sys1)
    elapsed = time.perf_counter() - t0, time.process_time() - c0
    assert diags == []
    return elapsed


class TestCriterion9ParserRoundTrip:
    def test_parse_render_identity(self):
        failures = []
        for seed in range(1000):
            sys1 = gen.random_system(seed)
            text = s.render(sys1)
            sys2 = parse_system(text)
            if sys2 != sys1:
                failures.append(seed)
        assert failures == [], f"round trip broke at seeds {failures[:5]}"
        report(9, "1000 generated systems, parse(render(x)) == x for all")


class _Shadows(s.ScopedMap):
    """Counts the binders that hide a binding of their name."""

    def __init__(self):
        self.count = 0

    def bind(self, names, env):
        for name in names:
            self.count += name in env
            env.bind(name, True)


def test_shadowing_binders_keep_subject_reduction_and_soundness():
    """Renders of generated systems with their variables folded onto two
    names, `vN` to `v{N mod 2}`, so that binders hide one another.  Each
    that parses and types explores with no ERR reachable, and every state
    it reaches re-types."""
    started = time.perf_counter()
    typed = shadowing = states = 0
    for seed in range(200):
        text = re.sub(r"\bv(\d+)\b", lambda m: f"v{int(m[1]) % 2}",
                      s.render(gensys.typed_system(seed)))
        try:
            system = parse_system(text)
        except ParseError:
            continue
        if check_system(system):
            continue
        typed += 1
        hidden = _Shadows()
        for d in system.procedures.values():
            hidden.map(d.body, s.Scope((name, True) for name, _ in d.params))
        for _, body in s.net_parts(system.main_net)[1]:
            hidden.map(body, s.Scope())
        shadowing += hidden.count > 0
        result = explore(system, bound=3000)
        assert not result.err_reachable, f"seed {seed}: ERR reachable"
        nabla, _ = build_schema_map(system)
        for cn in result.state_list:
            states += 1
            assert check_net(to_net(cn), nabla, system.procedures) == [], f"seed {seed}"
    assert (typed, shadowing) == (109, 22)
    report(3, f"{typed} texts with reused binder names ({shadowing} shadowing), "
              f"{states} states re-typed, 0 ERR in {time.perf_counter() - started:.1f}s")
