"""The render-free step path agrees with the keyed, fully rebuilt one.

`step_oracle` keeps the step as it was computed before: a successor rebuilt
from whole item multisets, and a canonical key for every transition.  These
tests require the engine's delta successors, label-first order and table
order to give exactly the same results.
"""

import collections
import pathlib
import random

import diffcheck
import gensys
import pytest
import step_oracle
import test_acceptance
from diffcheck import repeated_tables
from fixtures import fresh, keeps_old_table, srow
from kdb import net as netmod
from kdb import semantics
from kdb import syntax as s
from kdb.net import ERR_NET, canonical_key, canonicalize, find_tables, lid
from kdb.parser import parse_system
from kdb.values import Multiset, ValueTuple, VLoc
from nets import item_sort_key, no_rep, sorted_items
from test_depth import wide

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


def _var_tuple(*names):
    return s.Tuple(tuple(s.Var(n) for n in names))


def _binders(*names):
    return s.Template(tuple(s.BindData(n) for n in names))


def _reader(r: int, lo: int) -> s.Process:
    """Select three rows of Big into !t and copy them into R<r>.

    Built directly, not parsed, so every reader binds the same name and the
    readers' selects share one label, as parsed readers can after renaming.
    """
    in_range = s.And(s.Cmp(">=", s.Var("b"), lo),
                     s.Cmp("<", s.Var("b"), lo + 3))
    copy = s.Prefix(s.Insert(f"R{r}", _var_tuple("x", "y", "z"), VLoc("l0")), s.NilProc())
    return s.Prefix(
        s.Select((s.TableByName("Big", VLoc("l0")),), _binders("a", "b", "c"), in_range,
                 _var_tuple("a", "b", "c"), "t"),
        s.Foreach(s.TableByVar("t"), _binders("x", "y", "z"), s.TruePred(),
                  s.OrderSpec("unordered"), copy))


def shared_site() -> s.System:
    """Three readers and a writer at one locality, over one table."""
    schema = (s.STRING, s.INT, s.INT)
    big = s.TableComp(s.Interface("Big", schema), Multiset(
        [srow(f"o{i}", 1000 + i, i % 7) for i in range(12)]))
    writer = s.Prefix(s.Insert("Big", s.Tuple(("w", 1, 2)),
                               VLoc("l0")), s.NilProc())
    comps = [big, *(s.TableComp(s.Interface(f"R{r}", schema), Multiset()) for r in range(3)),
             *(s.ProcComp(_reader(r, 1000 + 3 * r)) for r in range(3)), s.ProcComp(writer)]
    net = s.Node("l0", comps[0])
    for comp in comps[1:]:
        net = s.ParNet(net, s.Node("l0", comp))
    return s.System(procedures={}, schema_decls=(), main_net=net)


def generated(seed: int) -> s.System:
    if seed % 2:
        return gensys.typed_system(seed, max_procs=3, max_steps=6, max_rows=4)
    return gensys.typed_system(seed)


def broken_selects_and_loops():
    """Generated systems with a select or a loop corrupted."""
    for seed in range(120):
        bad = gensys.corrupt_select_or_loop(generated(seed), random.Random(seed))
        if bad is not None:
            yield bad


def population():
    """Generated systems, their corrupted copies and the shared-site program."""
    for seed in range(120):
        sys1 = generated(seed)
        yield sys1
        bad = gensys.corrupt(sys1, random.Random(seed))
        if bad is not None:
            yield bad
    yield from broken_selects_and_loops()
    yield shared_site()


def visited(sys1, bound=40):
    """States of a bounded exploration, in BFS order."""
    return semantics.explore(sys1, bound=bound).state_list


def pairs(transitions) -> list:
    """Transitions as (label, successor) pairs, as the oracle gives them."""
    return [tuple(t) for t in transitions]


def label_key(transition):
    label, _ = transition
    return (label.rule, label.actor, label.detail)


class TestLabelFirstOrder:
    def test_readers_that_share_a_label_are_ordered_by_key(self):
        sys1 = shared_site()
        cn = canonicalize(sys1.main_net)
        transitions = semantics.enumerate_transitions(cn, sys1)
        tied = [(label, succ) for label, succ in transitions if label.rule == "SEL"]
        assert len(tied) == 3
        assert {label.detail for label, _ in tied} == {"select 3 row(s) into !t"}
        keys = [str(canonical_key(succ)) for _, succ in tied]
        assert keys == sorted(keys) and len(set(keys)) == 3
        assert pairs(transitions) == step_oracle.keyed_transitions(cn, sys1)

    def test_successors_with_equal_keys_are_merged(self):
        # Two copies of one table: the insert has two redexes with the same
        # label and the same successor, which count as one transition.
        table = s.TableComp(s.Interface("T", (s.INT,)), Multiset([srow(1)]))
        proc = s.Prefix(s.Insert("T", s.Tuple((9,)), VLoc("l1")), s.NilProc())
        net = s.ParNet(s.Node("l1", s.ProcComp(proc)),
                       s.ParNet(s.Node("l1", table), s.Node("l1", table)))
        sys1 = s.System(procedures={}, schema_decls=(), main_net=net)
        cn = canonicalize(net)
        assert len(list(step_oracle.outcomes(cn, sys1))) == 2
        transitions = semantics.enumerate_transitions(cn, sys1)
        assert len(transitions) == 1
        assert pairs(transitions) == step_oracle.keyed_transitions(cn, sys1)

    def test_population_agrees_with_the_keyed_enumeration(self):
        compared = 0
        for sys1 in population():
            for cn in visited(sys1):
                got = semantics.enumerate_transitions(cn, sys1)
                assert pairs(got) == step_oracle.keyed_transitions(cn, sys1)
                assert [label_key(t) for t in got] == sorted(label_key(t) for t in got)
                compared += len(got)
        assert compared > 1000


    def test_population_reaches_select_and_loop_errors(self):
        rules = set()
        for sys1 in broken_selects_and_loops():
            for cn in visited(sys1):
                rules.update(label.rule for label, succ in
                             semantics.enumerate_transitions(cn, sys1) if succ.err)
        assert "SEL" in rules
        assert any(rule.startswith("FOR_") for rule in rules)


class TestDeltaSuccessors:
    def test_population_agrees_with_the_full_rebuild(self):
        compared = 0
        for sys1 in population():
            for cn in visited(sys1):
                busy: dict = {}
                netmod.tables_by_id(cn, busy)
                for pair, rule, _detail, oc in step_oracle.outcomes(cn, sys1):
                    transition = semantics.Transition(rule, cn, pair, oc, busy)
                    assert transition.succ == step_oracle.rebuild_apply(cn, pair, oc)
                    compared += 1
        assert compared > 1000

    def test_integrity_check_agrees_with_the_successors_lid(self, monkeypatch):
        # The check reads each outcome's tables against the parent's lid; it
        # must say what the built successor's lid says, for sound writes and
        # for writes that keep the old table.
        states = [(sys1, cn) for sys1 in population() for cn in visited(sys1, bound=20)
                  if no_rep(lid(cn))]
        for faulty in (False, True):
            if faulty:
                monkeypatch.setattr(semantics, "_write", keeps_old_table)
            repeats = compared = 0
            for sys1, cn in states:
                tables = netmod.tables_by_id(cn)
                for pair, _rule, _detail, oc in step_oracle.outcomes(cn, sys1):
                    succ = step_oracle.rebuild_apply(cn, pair, oc)
                    expected = not succ.err and not no_rep(lid(succ))
                    assert semantics._repeats_table(tables, oc) == expected
                    repeats += expected
                    compared += 1
            assert compared > 1000
            assert (repeats > 100) if faulty else repeats == 0

    def test_inert_units_are_absorbed_only_where_touched(self):
        # The finishing process leaves nil at l1, which also hosts a table;
        # l2 keeps its lone nil.
        table = s.TableComp(s.Interface("T", (s.INT,)), Multiset())
        proc = s.Prefix(s.Insert("T", s.Tuple((1,)), VLoc("l1")), s.NilProc())
        net = s.ParNet(s.ParNet(s.Node("l1", s.ProcComp(proc)), s.Node("l1", table)),
                       s.Node("l2", s.ProcComp(s.NilProc())))
        sys1 = s.System(procedures={}, schema_decls=(), main_net=net)
        cn = canonicalize(net)
        ((label, succ),) = semantics.enumerate_transitions(cn, sys1)
        assert sorted(loc for (loc, body), _ in succ.items.items()
                      if isinstance(body, s.NilProc)) == ["l2"]
        assert len(succ.items) == 2


# Moves around inert units, in a net laid out as test_net's
# `test_inert_units_survive_last_where_nothing_else_stands`: a process ends
# where another stands (b) and where none does (r, restricted), a spawn
# lands where only a unit stands (i), a drop leaves a locality to its unit
# (j), a unit stays alone under a restriction (z), and a bad insert reaches
# the error net.
INERT_UNITS = """schema U : (Int)
let p() := nil in
$i :: nil || $b :: nil || $b :: p()
|| (new $r) ($r :: nil || $r :: eval(nil, $r). nil)
|| (new $z) $z :: nil
|| $j :: { nil | nil | table U : (Int) = {} | drop(U@$j). eval(p(), $i). nil }
|| $b :: p()
|| $b :: { table U : (Int) = {} | insert(U@$b, ("x")). nil }
"""


def delta_keys_agree(sys1, bound: int) -> collections.Counter:
    """Check that exploring sys1 gives what rebuilding and keying every
    successor gives (`step_oracle.keyed_explore`), and that on each edge the
    parts and key made from the parent's parts and the delta are those of
    the rebuilt successor.  Counts the edges checked and what they cover."""
    keys = netmod.StateKeys(canonicalize(sys1.main_net, sys1.procedures).restricted)
    parts = {}  # id(parent) -> (parent, its parts)
    seen = collections.Counter()

    def check(cn, t, built):
        if id(cn) not in parts:
            parts[id(cn)] = cn, keys.parts(cn)
        delta = t.delta
        got = keys.parts(ERR_NET) if delta is None else keys.after(parts[id(cn)][1], delta)
        assert got == keys.parts(built)
        assert keys.key(got) == keys.key(keys.parts(built))
        seen["edges"] += 1
        seen["restricted"] += bool(cn.restricted)
        if delta is None:
            seen["err"] += 1
            return
        # The units the delta takes from the parent, the units it adds, and
        # those of the outcome it absorbs.
        removed, added = delta
        seen["unit removed"] += sum(isinstance(body, s.NilProc) for _, body in removed)
        seen["unit added"] += sum(isinstance(body, s.NilProc) for _, body in added)
        seen["unit absorbed"] += 1 + len(t.outcome.add) - len(added)

    assert semantics.explore(sys1, bound=bound) == step_oracle.keyed_explore(sys1, bound, check)
    return seen


UNIT_MOVES = ("unit removed", "unit added", "unit absorbed")


class TestDeltaKeys:
    def test_criteria_3_to_5_explorations(self):
        seen = collections.Counter()
        for seed in range(test_acceptance.EXPLORED):
            seen += delta_keys_agree(diffcheck.generated(seed), test_acceptance.EXPLORE_BOUND)
        assert seen["edges"] > 30_000
        assert all(seen[kind] for kind in UNIT_MOVES)

    def test_diffcheck_explorations(self):
        seen = collections.Counter()
        for _, sys1 in diffcheck.population():
            seen += delta_keys_agree(sys1, diffcheck.EXPLORE_BOUND)
        assert seen["edges"] > 15_000
        assert all(seen[kind] for kind in ("err", "restricted", *UNIT_MOVES))

    def test_inert_units(self):
        seen = delta_keys_agree(parse_system(INERT_UNITS), 10_000)
        assert all(seen[kind] for kind in ("err", "restricted", *UNIT_MOVES))


def _table(tid, *values):
    return s.TableComp(s.Interface(tid, (s.INT,)), Multiset([srow(v) for v in values]))


class TestTableOrder:
    @pytest.fixture
    def unchecked(self):
        # Three different T@l1 tables tie on (loc, tid); only render orders
        # them.  The checker rejects such a net (duplicate-table).
        comps = [_table("T", 30), _table("T", 4), _table("T", 100, 2), _table("Ab", 5),
                 _table("T", 7)]
        net = s.Node("l2", comps[-1])
        for comp in comps[:-1]:
            net = s.ParNet(s.Node("l1", comp), net)
        return canonicalize(net)

    def test_find_tables_keeps_render_order(self, unchecked):
        found = find_tables(unchecked, "l1", "T")
        assert len(found) == 3
        assert [s.render(t) for t in found] == sorted(s.render(t) for t in found)

    def test_located_tables_keep_render_order(self, unchecked):
        expected = [(loc, body)
                    for loc, body in sorted(unchecked.items.support(),
                                            key=item_sort_key)
                    if isinstance(body, s.TableComp)]
        got = [(loc, body) for (loc, _), found in sorted(netmod.tables_by_id(unchecked).items())
               for body in found]
        assert got == expected
        assert [loc for loc, _ in expected] == ["l1"] * 4 + ["l2"]

    def test_dump_keeps_render_order(self, unchecked):
        expected = [(loc, body.interface.tid, sorted(v for (v,) in body.rows))
                    for loc, body in sorted_items(unchecked)
                    if isinstance(body, s.TableComp)]
        got = [(d["loc"], d["tid"], [v for (v,) in d["rows"]])
               for d in netmod.dump_tables(unchecked)]
        assert got == expected
        assert [rows for _, _, rows in got] == [[5], [2, 100], [30], [4], [7]]


def known_localities(cn) -> frozenset:
    """Sites that exist for execution: restricted names plus every locality
    occurring anywhere in the net, found by walking every item's body."""
    names = set(cn.restricted)
    for (loc, body), _ in cn.items.items():
        names.add(loc)
        names |= s.free_locs(body)
    return frozenset(names)


def waiting_action(body):
    """The action a process body waits at, or None."""
    while isinstance(body, s.Seq):
        body = body.first
    return body.action if isinstance(body, s.Prefix) else None


class TestKnownLocalities:
    def test_creates_and_evals_name_a_known_locality(self):
        # The engine runs a create or eval at a constant locality with no
        # check that the locality exists: it occurs in the acting body.
        checked = 0
        for sys1 in population():
            for cn in visited(sys1, bound=10):
                known = known_localities(cn)
                for (_, body), _ in cn.items.items():
                    action = waiting_action(body)
                    if isinstance(action, (s.Create, s.Eval)) and isinstance(action.loc, VLoc):
                        assert action.loc.name in known
                        checked += 1
        assert checked > 100


class TestEnumerationWork:
    def test_one_table_map_per_enumeration(self, monkeypatch):
        # n inserts, each beside its own table: one enumeration reads one
        # map of the tables, and scans no item per action.
        sys1 = parse_system(wide(60))
        cn = canonicalize(sys1.main_net)
        calls = dict.fromkeys(["tables_by_id", "find_tables", "lid", "free_locs"], 0)
        for module, name in [(netmod, "tables_by_id"), (netmod, "find_tables"),
                             (netmod, "lid"), (s, "free_locs")]:
            real = getattr(module, name)

            def counting(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counting)
            if getattr(semantics, name, None) is real:
                monkeypatch.setattr(semantics, name, counting)
        transitions = semantics.enumerate_transitions(cn, sys1)
        assert len(transitions) == 60
        assert calls == {"tables_by_id": 1, "find_tables": 0, "lid": 0, "free_locs": 0}


    def test_a_run_hashes_its_big_table_whole_at_most_once(self, monkeypatch):
        # 20 inserts into a 2,000-row table: each new table's hash is the old
        # one's plus the inserted row's.
        rows = ", ".join(f"({i})" for i in range(2000))
        inserts = "".join(f"insert(T@$l, ({-i})). " for i in range(1, 21))
        sys1 = parse_system(f"$l :: {{ table T : (Int) = {{ {rows} }} | {inserts}nil }}\n")
        whole = []
        real = Multiset.__hash__

        def counting(rows):
            if rows._hash is None and len(rows) >= 2000:
                whole.append(rows)
            return real(rows)

        monkeypatch.setattr(Multiset, "__hash__", counting)
        trace = semantics.run(sys1)
        assert (trace.terminal, len(trace.steps)) == ("quiescent", 20)
        assert len(whole) <= 1


def count_row_passes(monkeypatch) -> list:
    """Record the rows of every `_row_pass` the engine makes from now on."""
    passes = []
    real = semantics._row_pass

    def counting(rows, *args):
        passes.append(rows)
        return real(rows, *args)

    monkeypatch.setattr(semantics, "_row_pass", counting)
    return passes


def count_judged(monkeypatch) -> dict:
    """Count, by predicate, the rows a row pass computes a verdict for from
    now on."""
    judged = {}
    real = semantics._judge

    def counting(template, pred, payload):
        judge = real(template, pred, payload)

        def counted(row):
            judged[pred] = judged.get(pred, 0) + 1
            return judge(row)

        return counted

    monkeypatch.setattr(semantics, "_judge", counting)
    return judged


def count_renders(monkeypatch, *classes) -> dict:
    """Count the renders of nodes of the classes from now on; a row's cells
    are rendered only when the row itself is."""
    renders = dict.fromkeys(classes, 0)
    for cls in classes:
        def counting(node, real=s._FORMAT[cls], cls=cls):
            renders[cls] += 1
            return real(node)
        monkeypatch.setitem(s._FORMAT, cls, counting)
    return renders


def net_at_l1(*comps) -> s.Net:
    net = s.Node("l1", comps[0])
    for comp in comps[1:]:
        net = s.ParNet(net, s.Node("l1", comp))
    return net


class TestOutcomeReuse:
    def test_an_unchanged_net_reruns_no_row_pass(self, monkeypatch):
        sys1 = shared_site()
        cn = canonicalize(sys1.main_net)
        passes = count_row_passes(monkeypatch)
        first = pairs(semantics.enumerate_transitions(cn, sys1))
        assert len(passes) == 3  # the readers' selects
        passes.clear()
        assert pairs(semantics.enumerate_transitions(cn, sys1)) == first
        assert passes == []

    def test_a_write_reruns_only_the_actions_over_its_table(self, monkeypatch):
        x = s.Template((s.BindData("x"),))
        above_one = s.Cmp(">", s.Var("x"), 1)
        at = VLoc("l1")
        actions = [
            s.Insert("T", s.Tuple((3,)), at),
            s.Delete("T", x, above_one, at),
            s.Update("U", x, above_one, s.Tuple((s.Arith("+", s.Var("x"), 5),)), at),
            s.Aggr("U", x, s.TruePred(), s.AggrFn("count"), s.Template((s.BindData("n"),)), at),
        ]
        comps = [*(s.TableComp(s.Interface(tid, (s.INT,)), Multiset([srow(1), srow(2)]))
                   for tid in "TU"),
                 *(s.ProcComp(s.Prefix(a, s.NilProc())) for a in actions)]
        net = s.Node("l1", comps[0])
        for comp in comps[1:]:
            net = s.ParNet(net, s.Node("l1", comp))
        sys1 = s.System(procedures={}, schema_decls=(), main_net=net)
        cn = canonicalize(net)
        passes = count_row_passes(monkeypatch)
        transitions = semantics.enumerate_transitions(cn, sys1)
        assert len(passes) == 3  # delete T, update U, aggr U
        for rule, tid in (("INS", "T"), ("UPD", "U")):
            (succ,) = [t.succ for t in transitions if t.label.rule == rule]
            passes.clear()
            transitions = semantics.enumerate_transitions(succ, sys1)
            # Only the one action left over the written table reruns.
            (table,) = find_tables(succ, "l1", tid)
            assert len(passes) == 1 and passes[0] is table.rows
            assert pairs(transitions) == pairs(semantics.enumerate_transitions(fresh(succ), sys1))

    def test_a_drop_that_leaves_fewer_tables_reruns_the_actions_over_them(self):
        # A net with two T@l1 tables, which the checker rejects
        # (duplicate-table) and so only runs unchecked: after each drop, a
        # waiting delete finds fewer tables, once the first of the ones it
        # found.
        at = VLoc("l1")
        delete = s.Delete("T", s.Template((s.BindData("x"),)), s.TruePred(), at)
        drops = s.Prefix(s.Drop("T", at), s.Prefix(s.Drop("T", at), s.NilProc()))
        comps = [*(s.TableComp(s.Interface("T", (s.INT,)), Multiset([srow(n)])) for n in (1, 2)),
                 s.ProcComp(s.Prefix(delete, s.NilProc())), s.ProcComp(drops)]
        sys1 = s.System(procedures={}, schema_decls=(), main_net=net_at_l1(*comps))
        states = [canonicalize(sys1.main_net)]
        found = []
        while states:
            cn = states.pop()
            for t in semantics.enumerate_transitions(cn, sys1):
                if t.label.rule != "DRP":
                    continue
                got = pairs(semantics.enumerate_transitions(t.succ, sys1))
                assert got == pairs(semantics.enumerate_transitions(fresh(t.succ), sys1))
                found.append((find_tables(cn, "l1", "T"), find_tables(t.succ, "l1", "T")))
                states.append(t.succ)
        assert len(found) == 4
        # Once the tables left are the first of those found before.
        assert any(after and after == before[:len(after)] for before, after in found)

    def test_population_runs_agree_with_fresh_enumerations(self, monkeypatch):
        passes = count_row_passes(monkeypatch)
        compared = kept = recomputed = 0
        for sys1 in population():
            for seed in range(3):
                rng = random.Random(seed)
                cn = canonicalize(sys1.main_net)
                for _ in range(20):
                    passes.clear()
                    got = pairs(semantics.enumerate_transitions(cn, sys1))
                    kept += len(passes)
                    passes.clear()
                    assert got == pairs(semantics.enumerate_transitions(fresh(cn), sys1))
                    recomputed += len(passes)
                    if not got:
                        break
                    compared += len(got)
                    _, cn = rng.choice(got)
                    if cn.err:
                        break
        assert compared > 1000
        # Outcomes were kept: runs of the same states made fewer row passes.
        assert 0 < kept < recomputed


def insert_chains(k: int) -> str:
    """k independent processes, each three inserts into its own table."""
    return wide(k, "insert(T@$l{i}, (1)). insert(T@$l{i}, (2)). insert(T@$l{i}, (3)). nil")


def parsed_texts() -> list:
    """Texts of the corpus, of nets that repeat a table and of renders of
    generated systems."""
    return [(CORPUS / "dept_stores.kdb").read_text(), insert_chains(3),
            *(repeated_tables(seed) for seed in range(6)),
            *(s.render(generated(seed)) for seed in range(12))]


def observed_run(sys1, seed: int) -> tuple:
    """What a seeded run shows: its end, and each step's label, successor's
    canonical key and tables."""
    trace = semantics.run(sys1, seed=seed, max_steps=30)
    return trace.terminal, [(label, str(canonical_key(cn)), netmod.dump_json(cn))
                            for label, cn in trace.steps]


class TestKeptOutcomes:
    """The outcomes a process keeps on its node outlive the run or the
    exploration that computed them, and change nothing another one sees."""

    @pytest.mark.parametrize("k", [3, 4])
    def test_explore_computes_each_insert_once(self, k, monkeypatch):
        # The states share each waiting prefix and, since the outcome that
        # wrote it is kept, the table it finds: 3k outcomes over 4^k states.
        calls = []
        real = semantics._ON_TABLE[s.Insert]
        monkeypatch.setitem(semantics._ON_TABLE, s.Insert,
                            lambda *args: calls.append(args[0]) or real(*args))
        result = semantics.explore(parse_system(insert_chains(k)))
        assert (result.states, len(result.quiescent)) == (4 ** k, 1)
        assert len(calls) == 3 * k

    def test_runs_and_explorations_agree_with_a_fresh_parse(self):
        compared = 0
        for text in parsed_texts():
            sys1 = parse_system(text)
            for seed in range(3):
                expected = observed_run(parse_system(text), seed)
                assert observed_run(sys1, seed) == expected
                assert observed_run(sys1, seed) == expected
                compared += len(expected[1])
            assert (semantics.explore(sys1, bound=100)
                    == semantics.explore(parse_system(text), bound=100))
        assert compared > 250


class TestRowVerdicts:
    """A process that waits at a table action keeps the verdicts of its row
    pass, so after a write only the rows the write made are judged."""

    IJ = s.Template((s.BindData("i"), s.BindData("j")))
    I, J = s.Var("i"), s.Var("j")
    AT = VLoc("l1")

    def waiting(self) -> list:
        """A delete, an update, an aggr and a select over T, none enabled to
        change it in a way the tests step through."""
        return [
            s.Delete("T", self.IJ, s.Cmp("=", self.J, 9), self.AT),
            s.Update("T", self.IJ, s.Cmp(">", self.J, 3), s.Tuple((self.I, 0)),
                     self.AT),
            s.Aggr("T", self.IJ, s.Cmp("<", self.J, 2), s.AggrFn("sum", 2),
                   s.Template((s.BindData("n"),)), self.AT),
            s.Select((s.TableByName("T", self.AT),), self.IJ, s.Cmp("=", self.J, 1),
                     s.Tuple((self.I,)), "t"),
        ]

    @pytest.mark.parametrize("write, changed, detail", [
        (s.Update("T", IJ, s.Cmp("<", I, 1), s.Tuple((I, s.Arith("+", J, 1))), AT),
         1, "update 1 row(s) of T@l1"),
        (s.Update("T", IJ, s.Cmp("<", I, 7), s.Tuple((I, s.Arith("+", J, 1))), AT),
         7, "update 7 row(s) of T@l1"),
        (s.Insert("T", s.Tuple((500, 1)), AT), 1, "insert (500, 1) into T@l1"),
        (s.Delete("T", IJ, s.Cmp("<", I, 5), AT), 5, "delete 5 row(s) from T@l1"),
    ])
    def test_after_a_write_of_k_rows_each_waiting_action_judges_at_most_k(
            self, write, changed, detail, monkeypatch):
        table = s.TableComp(s.Interface("T", (s.INT, s.INT)),
                            Multiset([srow(i, i % 5) for i in range(200)]))
        u = s.TableComp(s.Interface("U", (s.INT,)), Multiset())
        waiting = self.waiting()
        procs = [s.ProcComp(s.Prefix(a, s.NilProc()))
                 for a in [write, s.Insert("U", s.Tuple((1,)), self.AT), *waiting]]
        sys1 = s.System(procedures={}, schema_decls=(), main_net=net_at_l1(table, u, *procs))
        judged = count_judged(monkeypatch)
        transitions = semantics.enumerate_transitions(canonicalize(sys1.main_net), sys1)
        assert [judged.get(a.pred, 0) for a in waiting] == [200] * 4
        # A step that leaves T alone, whose enumeration keeps every outcome
        # over T, then the write.
        (succ,) = [t.succ for t in transitions if t.label.detail == "insert (1) into U@l1"]
        transitions = semantics.enumerate_transitions(succ, sys1)
        (succ,) = [t.succ for t in transitions if t.label.detail == detail]
        judged.clear()
        got = pairs(semantics.enumerate_transitions(succ, sys1))
        assert all(judged.get(a.pred, 0) <= changed for a in waiting), judged
        judged.clear()
        assert got == pairs(semantics.enumerate_transitions(fresh(succ), sys1))
        assert [judged.get(a.pred, 0) for a in waiting] == [len(find_tables(succ, "l1", "T")[0]
                                                            .rows.items())] * 4


class TestTieTexts:
    """The successors of a tie are keyed by text; a body met before, and a
    row met before, is not rendered again."""

    def test_a_tie_renders_only_the_rows_and_tables_it_has_not_met(self, monkeypatch):
        # Two selects share a label and differ in their continuation, so
        # their successors tie.  One writer inserts into U, which leaves T
        # alone; another changes one row of T.  Only T's rows hold strings.
        ab = s.Template((s.BindData("a"), s.BindData("b")))
        b, at = s.Var("b"), VLoc("l1")

        def select(n, cont):
            return s.Prefix(s.Select((s.TableByName("T", at),), ab, s.Cmp("=", b, n),
                                     s.Tuple((b,)), "t"), cont)

        big = s.TableComp(s.Interface("T", (s.STRING, s.INT)),
                          Multiset([srow(f"r{i}", i) for i in range(200)]))
        u = s.TableComp(s.Interface("U", (s.INT,)), Multiset())
        to_u = s.Prefix(s.Insert("U", s.Tuple((1,)), at), s.NilProc())
        to_t = s.Prefix(s.Update("T", ab, s.Cmp("=", b, 0),
                                 s.Tuple((s.Var("a"), s.Arith("+", b, 1000))), at),
                        s.NilProc())
        procs = [select(3, s.NilProc()), select(4, s.Prefix(s.Drop("U", at), s.NilProc())),
                 to_u, to_t]
        sys1 = s.System(procedures={}, schema_decls=(),
                        main_net=net_at_l1(big, u, *map(s.ProcComp, procs)))
        renders = count_renders(monkeypatch, str, s.TableComp)

        def enumerate_counting(cn):
            renders.update(dict.fromkeys(renders, 0))
            transitions = semantics.enumerate_transitions(cn, sys1)
            assert [t.label.rule for t in transitions].count("SEL") == 2  # the tie
            return dict(renders), {t.label.rule: t.succ for t in transitions}

        # First meeting: every row of T once, and both tables.
        counts, succ = enumerate_counting(canonicalize(sys1.main_net))
        assert counts == {str: 200, s.TableComp: 2}
        # The insert into U kept T: the tie renders no row, and only the new U.
        counts, succ = enumerate_counting(succ["INS"])
        assert counts == {str: 0, s.TableComp: 1}
        # The update made one row of T: the tie renders that row and the new T.
        counts, _ = enumerate_counting(succ["UPD"])
        assert counts == {str: 1, s.TableComp: 1}
