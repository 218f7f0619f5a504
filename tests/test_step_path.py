"""The render-free step path agrees with the keyed, fully rebuilt one.

`step_oracle` keeps the step as it was computed before: a successor rebuilt
from whole item multisets, and a canonical key for every transition.  These
tests require the engine's delta successors, label-first order, table order
and locality lookup to give exactly the same results.
"""

import random

import gensys
import pytest
import step_oracle
from fixtures import srow
from kdb import net as netmod
from kdb import semantics
from kdb import syntax as s
from kdb.net import canonical_key, canonicalize, find_tables
from kdb.values import Multiset, VLoc


def _var_tuple(*names):
    return s.Tuple(tuple(s.DataVar(n) for n in names))


def _binders(*names):
    return s.Template(tuple(s.BindData(n) for n in names))


def _reader(r: int, lo: int) -> s.Process:
    """Select three rows of Big into !t and copy them into R<r>.

    Built directly, not parsed, so every reader binds the same name and the
    readers' selects share one label, as parsed readers can after renaming.
    """
    in_range = s.And(s.Cmp(">=", s.DataVar("b"), s.IntLit(lo)),
                     s.Cmp("<", s.DataVar("b"), s.IntLit(lo + 3)))
    copy = s.Prefix(s.Insert(f"R{r}", _var_tuple("x", "y", "z"), s.LocLit("l0")), s.NilProc())
    return s.Prefix(
        s.Select((s.TableByName("Big", s.LocLit("l0")),), _binders("a", "b", "c"), in_range,
                 _var_tuple("a", "b", "c"), "t"),
        s.Foreach(s.TableByVar("t"), _binders("x", "y", "z"), s.TruePred(),
                  s.OrderSpec("unordered"), copy))


def shared_site() -> s.System:
    """Three readers and a writer at one locality, over one table."""
    schema = (s.STRING, s.INT, s.INT)
    big = s.TableComp(s.Interface("Big", schema), Multiset(
        [srow(f"o{i}", 1000 + i, i % 7) for i in range(12)]))
    writer = s.Prefix(s.Insert("Big", s.Tuple((s.StrLit("w"), s.IntLit(1), s.IntLit(2))),
                               s.LocLit("l0")), s.NilProc())
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
        assert transitions == step_oracle.keyed_transitions(cn, sys1)

    def test_successors_with_equal_keys_are_merged(self):
        # Two copies of one table: the insert has two redexes with the same
        # label and the same successor, which count as one transition.
        table = s.TableComp(s.Interface("T", (s.INT,)), Multiset([srow(1)]))
        proc = s.Prefix(s.Insert("T", s.Tuple((s.IntLit(9),)), s.LocLit("l1")), s.NilProc())
        net = s.ParNet(s.Node("l1", s.ProcComp(proc)),
                       s.ParNet(s.Node("l1", table), s.Node("l1", table)))
        sys1 = s.System(procedures={}, schema_decls=(), main_net=net)
        cn = canonicalize(net)
        assert len(list(step_oracle.outcomes(cn, sys1))) == 2
        transitions = semantics.enumerate_transitions(cn, sys1)
        assert len(transitions) == 1
        assert transitions == step_oracle.keyed_transitions(cn, sys1)

    def test_population_agrees_with_the_keyed_enumeration(self):
        compared = 0
        for sys1 in population():
            for cn in visited(sys1):
                got = semantics.enumerate_transitions(cn, sys1)
                assert got == step_oracle.keyed_transitions(cn, sys1)
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
                for pair, _rule, _detail, oc in step_oracle.outcomes(cn, sys1):
                    assert (semantics._apply(cn, pair, oc)
                            == step_oracle.rebuild_apply(cn, pair, oc))
                    compared += 1
        assert compared > 1000

    def test_inert_units_are_absorbed_only_where_touched(self):
        # The finishing process leaves nil at l1, which also hosts a table;
        # l2 keeps its lone nil.
        table = s.TableComp(s.Interface("T", (s.INT,)), Multiset())
        proc = s.Prefix(s.Insert("T", s.Tuple((s.IntLit(1),)), s.LocLit("l1")), s.NilProc())
        net = s.ParNet(s.ParNet(s.Node("l1", s.ProcComp(proc)), s.Node("l1", table)),
                       s.Node("l2", s.ProcComp(s.NilProc())))
        sys1 = s.System(procedures={}, schema_decls=(), main_net=net)
        cn = canonicalize(net)
        ((label, succ),) = semantics.enumerate_transitions(cn, sys1)
        assert sorted(loc for (loc, body), _ in succ.items.items()
                      if isinstance(body, s.NilProc)) == ["l2"]
        assert len(succ.items) == 2


def _table(tid, *values):
    return s.TableComp(s.Interface(tid, (s.INT,)), Multiset([srow(v) for v in values]))


class TestTableOrder:
    @pytest.fixture
    def unchecked(self):
        # Three different T@l1 tables tie on (loc, tid); only render orders them.
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
        expected = [(loc, body, 1)
                    for loc, body in sorted(unchecked.items.support(),
                                            key=netmod._item_sort_key)
                    if isinstance(body, s.TableComp)]
        assert netmod.table_entries(unchecked) == expected
        assert [loc for loc, _, _ in expected] == ["l1"] * 4 + ["l2"]

    def test_dump_keeps_render_order(self, unchecked):
        expected = [(loc, body.interface.tid, sorted(v.value for (v,) in
                                                     (r.components for r in body.rows)))
                    for loc, body in netmod.sorted_items(unchecked)
                    if isinstance(body, s.TableComp)]
        got = [(d["loc"], d["tid"], [v for (v,) in d["rows"]])
               for d in netmod.dump_tables(unchecked)]
        assert got == expected
        assert [rows for _, _, rows in got] == [[5], [2, 100], [30], [4], [7]]


class TestKnownLocalities:
    def test_agrees_with_the_full_walk(self):
        for sys1 in population():
            for cn in visited(sys1, bound=10):
                known = semantics.known_localities(cn)
                for loc in known | {"l0", "l1", "l2", "l9", "nowhere"}:
                    assert semantics._is_known_locality(cn, loc) == (loc in known)

    def test_a_locality_named_only_in_a_row_is_known(self):
        table = s.TableComp(s.Interface("T", (s.LOC,)), Multiset([srow(VLoc("l9"))]))
        cn = canonicalize(s.Node("l1", table))
        assert semantics._is_known_locality(cn, "l9")
        assert not semantics._is_known_locality(cn, "l8")
