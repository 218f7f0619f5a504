"""Canonical form, structural-congruence invariance, table bookkeeping."""

import random

import naive_engine
from fixtures import KLD_TABLE, srow
from gen import AstGen
from kdb import syntax as s
from kdb.net import (
    canonical_key,
    canonicalize,
    dump_tables,
    find_tables,
    lid,
    no_rep,
    ok,
    to_net,
)
from kdb.values import Multiset


def node(loc, comp):
    return s.Node(loc, comp)


def proc(p):
    return s.ProcComp(p)


NIL = s.NilProc()


class TestCanonicalize:
    def test_parallel_nil_absorbed(self):
        n = s.ParNet(node("l1", proc(NIL)), s.NilNet())
        assert canonical_key(canonicalize(n)) == canonical_key(canonicalize(node("l1", proc(NIL))))

    def test_co_located_nil_process_absorbed(self):
        p = s.Prefix(s.Insert("T", s.Tuple((s.IntLit(1),)), s.LocLit("l1")), NIL)
        merged = node("l1", s.ParComp(proc(p), proc(NIL)))
        plain = node("l1", proc(p))
        assert canonical_key(canonicalize(merged)) == canonical_key(canonicalize(plain))

    def test_lone_nil_process_is_kept(self):
        # A site hosting only the inert process is still part of the net.
        cn = canonicalize(node("l1", proc(NIL)))
        assert len(cn.items) == 1

    def test_node_splitting(self):
        both = node("l1", s.ParComp(s.TableComp(KLD_TABLE.interface, KLD_TABLE.rows),
                                    proc(NIL)))
        cn = canonicalize(both)
        assert len(cn.items) == 1  # the nil absorbs into the table's site
        assert find_tables(cn, "l1", "KLD")

    def test_extrusion_renames_on_capture(self):
        # The restricted name collides with a free occurrence outside.
        inner = s.Restrict("l1", node("l1", proc(NIL)))
        n = s.ParNet(node("l1", proc(NIL)), inner)
        cn = canonicalize(n)
        assert len(cn.restricted) == 1
        assert cn.restricted[0] != "l1"
        assert len(cn.items) == 2

    def test_restricted_names_and_items_in_source_order(self):
        p, q = s.CallProc("p", ()), s.CallProc("q", ())
        cn = canonicalize(s.ParNet(s.Restrict("a", node("a", proc(p))),
                                   s.Restrict("a", node("a", proc(q)))))
        assert cn.restricted == ("a", "a#1")
        assert list(cn.items.items()) == [(("a", p), 1), (("a#1", q), 1)]

    def test_items_of_nested_parallels_in_source_order(self):
        p1, p2, p3 = (s.CallProc(name, ()) for name in ("p1", "p2", "p3"))
        cn = canonicalize(s.ParNet(s.ParNet(node("x", proc(p1)), node("y", proc(p2))),
                                   node("x", proc(p3))))
        assert list(cn.items.items()) == [(("x", p1), 1), (("y", p2), 1), (("x", p3), 1)]

    def test_err_flag(self):
        cn = canonicalize(s.ParNet(s.ErrNet(), node("l1", proc(NIL))))
        assert cn.err and not ok(cn)
        assert ok(canonicalize(s.NilNet()))

    def test_idempotent_through_expansion(self):
        rng = random.Random(0)
        for seed in range(50):
            net = AstGen(random.Random(seed)).net()
            cn = canonicalize(net)
            again = canonicalize(to_net(cn))
            assert canonical_key(cn) == canonical_key(again)
            rng.random()


def scramble(net: s.Net, rng: random.Random, fresh: list) -> s.Net:
    """One random congruence-preserving rewrite."""
    choice = rng.randrange(8)
    if choice == 0:
        return s.ParNet(net, s.NilNet())
    if choice == 1 and isinstance(net, s.ParNet):
        return s.ParNet(net.right, net.left)
    if choice == 2 and isinstance(net, s.ParNet) and isinstance(net.left, s.ParNet):
        return s.ParNet(net.left.left, s.ParNet(net.left.right, net.right))
    if choice == 3 and isinstance(net, s.Node):
        return s.Node(net.loc, s.ParComp(net.component, s.ProcComp(s.NilProc())))
    if choice == 4 and isinstance(net, s.Node) and isinstance(net.component, s.ParComp):
        return s.ParNet(s.Node(net.loc, net.component.left),
                        s.Node(net.loc, net.component.right))
    if choice == 5 and isinstance(net, s.Restrict):
        new = fresh.pop()
        renamed = s.rename_localities(net.inner, {net.loc: new})
        return s.Restrict(new, renamed)
    if choice == 6 and isinstance(net, s.ParNet) and isinstance(net.right, s.Restrict):
        if net.right.loc not in s.free_locs(net.left):
            return s.Restrict(net.right.loc, s.ParNet(net.left, net.right.inner))
    if choice == 7 and isinstance(net, s.ParNet):
        return s.ParNet(scramble(net.left, rng, fresh), net.right)
    if isinstance(net, s.ParNet):
        return s.ParNet(net.left, scramble(net.right, rng, fresh))
    return net


class TestCongruenceInvariance:
    def test_scrambled_nets_share_a_canonical_form(self):
        for seed in range(120):
            rng = random.Random(seed)
            net = AstGen(random.Random(seed + 1000)).net()
            fresh = [f"f{seed}x{i}" for i in range(40)][::-1]
            key = canonical_key(canonicalize(net))
            scrambled = net
            for _ in range(12):
                scrambled = scramble(scrambled, rng, fresh)
            assert canonical_key(canonicalize(scrambled)) == key, f"seed {seed}"

    def test_lid_invariant_under_canonicalize(self):
        # The plain net's tables, as the naive enumerator's own walk finds them.
        for seed in range(60):
            net = AstGen(random.Random(seed)).net()
            _, items, _ = naive_engine.flatten_net(net)
            tables = Multiset((loc, body.interface.tid) for loc, body in items
                              if isinstance(body, s.TableComp))
            assert lid(canonicalize(net)) == tables


class TestLid:
    def test_single_table(self):
        cn = canonicalize(node("l1", KLD_TABLE))
        assert lid(cn) == Multiset([("l1", "KLD")])

    def test_empty_net(self):
        assert lid(canonicalize(s.NilNet())) == Multiset()

    def test_duplicate_tables_count_twice(self):
        n = s.ParNet(node("l1", KLD_TABLE), node("l1", KLD_TABLE))
        pairs = lid(canonicalize(n))
        assert pairs.count(("l1", "KLD")) == 2
        assert not no_rep(pairs)

    def test_no_rep(self):
        assert no_rep(Multiset([("l", "T")]))
        assert not no_rep(Multiset({("l", "T"): 2}))

    def test_case_study_net_has_no_repetition(self):
        import pathlib
        from kdb.parser import parse_system
        text = (pathlib.Path(__file__).parent.parent / "corpus" / "dept_stores.kdb").read_text()
        assert no_rep(lid(canonicalize(parse_system(text).main_net)))


class TestFindTables:
    def test_finds_exactly_one_stores_table(self):
        import pathlib
        from kdb.parser import parse_system
        text = (pathlib.Path(__file__).parent.parent / "corpus" / "dept_stores.kdb").read_text()
        cn = canonicalize(parse_system(text).main_net)
        assert len(find_tables(cn, "l0", "Stores")) == 1
        assert find_tables(cn, "l0", "KLD") == []

    def test_err_net_not_ok(self):
        cn = canonicalize(s.ParNet(s.ErrNet(), node("l", proc(NIL))))
        assert not ok(cn)


class TestDump:
    def test_rows_repeated_by_multiplicity_and_sorted(self):
        rows = Multiset({srow("b", 1): 2, srow("a", 2): 1})
        table = s.TableComp(s.Interface("T", (s.STRING, s.INT)), rows)
        cn = canonicalize(node("l1", table))
        (d,) = dump_tables(cn)
        assert d["rows"] == [["a", 2], ["b", 1], ["b", 1]]
        assert d["schema"] == "(String, Int)"
