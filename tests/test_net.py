"""Canonical form, structural-congruence invariance, state keys, table bookkeeping."""

import copy
import functools
import itertools
import pathlib
import random

import pytest

import naive_engine
import smallscope
from fixtures import KLD_TABLE, srow
from gen import AstGen
from kdb import net as netmod
from kdb import semantics
from kdb import syntax as s
from kdb.parser import parse_system
from kdb.semantics import enumerate_transitions, explore, run
from kdb.typesys import check_system
from kdb.net import (
    StateKeys,
    canonical_key,
    canonicalize,
    dump_tables,
    find_tables,
    lid,
)
from kdb.values import Multiset, ValueTuple, VLoc, VSet
from nets import no_rep, to_net


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
        p = s.Prefix(s.Insert("T", s.Tuple((1,)), VLoc("l1")), NIL)
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

    def test_inert_units_survive_last_where_nothing_else_stands(self):
        p, q = s.CallProc("p", ()), s.CallProc("q", ())
        parts = [node("i", proc(NIL)), node("b", proc(NIL)), node("b", proc(p)),
                 s.Restrict("r", s.ParNet(node("r", proc(NIL)), node("r", proc(q)))),
                 s.Restrict("z", node("z", proc(NIL))),
                 node("j", s.ParComp(proc(NIL), proc(NIL))), node("b", proc(p))]
        cn = canonicalize(functools.reduce(s.ParNet, parts))
        assert cn.restricted == ("r", "z")
        assert list(cn.items.items()) == [
            (("b", p), 2), (("r", q), 1), (("i", NIL), 1), (("z", NIL), 1), (("j", NIL), 1)]

    def test_err_flag(self):
        cn = canonicalize(s.ParNet(s.ErrNet(), node("l1", proc(NIL))))
        assert cn.err
        assert not canonicalize(s.NilNet()).err

    def test_idempotent_through_expansion(self):
        rng = random.Random(0)
        for seed in range(50):
            net = AstGen(random.Random(seed)).net()
            cn = canonicalize(net)
            again = canonicalize(to_net(cn))
            assert canonical_key(cn) == canonical_key(again)
            rng.random()


def rename_net(net, mapping: dict):
    """A net or a component with its free localities renamed by `mapping`;
    a restriction shadows its name."""
    if isinstance(net, (s.ParNet, s.ParComp)):
        return net.__class__(rename_net(net.left, mapping), rename_net(net.right, mapping))
    if isinstance(net, s.Restrict):
        inner = {k: v for k, v in mapping.items() if k != net.loc}
        return s.Restrict(net.loc, rename_net(net.inner, inner))
    if isinstance(net, s.Node):
        return s.Node(mapping.get(net.loc, net.loc), rename_net(net.component, mapping))
    if isinstance(net, s.ProcComp):
        return s.ProcComp(s.rename_localities(net.process, mapping))
    return s.rename_localities(net, mapping)  # a table, nil or ERR


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
        return s.Restrict(new, rename_net(net.inner, {net.loc: new}))
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


# -- random nets under restrictions, for the state keys
#
# A spec is a list of items, each a list: ["T" | "U", site, rows] for a table
# of (Int, Loc) or (Int, {Loc}) rows, or ["P", site, target, tid, n, value]
# for `insert(tid@target, (n, value)). nil`.  A name is an int, the index of
# a restricted name, or a free name.  A U row's value is a list of names.

_INTERFACES = {"T": s.Interface("T", (s.INT, s.LOC)), "U": s.Interface("U", (s.INT, s.MSet("Loc")))}


def _spec(rng: random.Random) -> tuple:
    """(number of restricted names, items) of a random net."""
    k = rng.randrange(6)
    # Some nets keep restricted names out of the random items, so that the
    # cycles below are all they hold.
    names = [*range(k), "a", "b"] if rng.random() < 0.5 else ["a", "b"]

    def value(tid):
        if tid == "T":
            return rng.choice(names)
        return [rng.choice(names) for _ in range(rng.randrange(1, 3))]

    items = []
    for _ in range(rng.randrange(1, 7)):
        tid = rng.choice("TU")
        if rng.random() < 0.5:
            rows = [[rng.randrange(2), value(tid)] for _ in range(rng.randrange(3))]
            items.append([tid, rng.choice(names), rows])
        else:
            items.append(["P", rng.choice(names), rng.choice(names), tid,
                          rng.randrange(2), value(tid)])
        if rng.random() < 0.3:  # a site that differs only in its name
            twin = copy.deepcopy(rng.choice(items))
            twin[1] = rng.choice(names)
            items.append(twin)
    if k > 1 and rng.random() < 0.7:
        # One process at each restricted name acting on the table at its image
        # under a permutation: cycles whose names colour refinement cannot
        # tell apart, though the order in which they are numbered matters.
        # Or a star: every name but one acts on the table at that one.
        image = list(range(k))
        rng.shuffle(image)
        if rng.random() < 0.3:
            image = [image[0]] * k
        n, v = rng.randrange(2), rng.choice("ab")
        items += [["P", i, image[i], "T", n, v] for i in range(k) if i != image[i]]
    return k, items


def _build(k: int, items: list, naming: list) -> s.Net:
    """The net of a spec, with restricted name i called naming[i]."""
    def name(x):
        return naming[x] if isinstance(x, int) else x

    def value(v):
        if isinstance(v, list):
            return VSet(Multiset(VLoc(name(x)) for x in v))
        return VLoc(name(v))

    nodes = []
    for item in items:
        if item[0] == "P":
            _, site, target, tid, n, v = item
            action = s.Insert(tid, s.Tuple((n, value(v))), VLoc(name(target)))
            comp = s.ProcComp(s.Prefix(action, NIL))
        else:
            tid, site, rows = item
            comp = s.TableComp(_INTERFACES[tid], Multiset(
                ValueTuple((n, value(v))) for n, v in rows))
        nodes.append(s.Node(name(site), comp))
    out = nodes[0]
    for part in nodes[1:]:
        out = s.ParNet(out, part)
    for i in reversed(range(k)):
        out = s.Restrict(naming[i], out)
    return out


def _mutant(rng: random.Random, k: int, items: list) -> list:
    """The spec with one row added or dropped, or one name changed."""
    items = copy.deepcopy(items)
    names = [*range(k), "a", "b"]
    item = rng.choice(items)
    if item[0] != "P" and rng.random() < 0.5:
        rows = item[2]
        if rows and rng.random() < 0.5:
            rows.pop(rng.randrange(len(rows)))
        else:
            rows.append([rng.randrange(2), rng.choice(names) if item[0] == "T" else [rng.choice(names)]])
    elif item[0] == "P":
        item[rng.choice((1, 2, 5))] = rng.choice(names)  # site, target or value
    else:
        item[1] = rng.choice(names)
    return items


def _pairs(seeds=range(150)):
    """(net, other net, whether canonical_key says they are equal).

    Each random net is paired with a copy under fresh names, a copy under a
    permutation of its names with its sites reordered, a scrambled copy, and
    two mutants.
    """
    for seed in seeds:
        rng = random.Random(seed)
        k, items = _spec(rng)
        plain = [f"r{i}" for i in range(k)]
        base = _build(k, items, plain)
        perm = plain[:]
        rng.shuffle(perm)
        shuffled = items[:]
        rng.shuffle(shuffled)
        others = [
            _build(k, items, [f"q{i}" for i in range(k)]),
            _build(k, shuffled, perm),
            _build(k, _mutant(rng, k, items), plain),
            _build(k, _mutant(rng, k, items), perm),
        ]
        fresh = [f"f{i}" for i in range(40)]
        scrambled = base
        for _ in range(12):
            scrambled = scramble(scrambled, rng, fresh)
        others.append(scrambled)
        a = canonicalize(base)
        oracle = canonical_key(a)
        for other in others:
            b = canonicalize(other)
            yield a, b, canonical_key(b) == oracle


def _disagreements(keyer, pairs) -> list:
    """The pairs on which `keyer` and canonical_key disagree about equality."""
    found = []
    for a, b, same in pairs:
        keys = keyer(a.restricted + b.restricted)
        if (keys.key(keys.parts(a)) == keys.key(keys.parts(b))) != same:
            found.append((s.render(to_net(a)), s.render(to_net(b)), same))
    return found


class _AnyOrderKeys(StateKeys):
    """A faulty keyer: it numbers tied names in any order, even names that
    share an item with another restricted name."""

    def _group(self, items, names, number):
        colour = self._colours(items, names, number)
        number = dict(number)
        for name in sorted(names, key=colour.__getitem__):
            number[name] = len(number)
        return self._certificate(items, number)


def _restricted_program(sites: list) -> str:
    """Sites `(name, component)` under a restriction of every name."""
    restricts = "".join(f"(new ${name}) " for name, _ in sites)
    body = "\n   || ".join(f"${name} :: {comp}" for name, comp in sites)
    return f"schema T : (Int)\n{restricts}( {body} )\n"


_TABLE = "table T : (Int) = {}"
_EIGHT = [f"r{i}" for i in range(8)]

# canonical_key would try n! numberings of the n restricted names per key;
# 8! = 40,320.  (program, reachable states up to renaming)
_WIDE = {
    # Each site holds one of 0, 1 or 2 rows: multisets of 8 from 3 values.
    "identical-chains": (_restricted_program(
        [(r, f"{{ {_TABLE} | insert(T@${r}, (1)). insert(T@${r}, (2)). nil }}") for r in _EIGHT]),
        45),
    # A site that has inserted cuts the ring: the uncut ring, and the 22
    # partitions of the 8 sites into the runs between cuts.
    "ring": (_restricted_program(
        [(r, f"{{ {_TABLE} | insert(T@$r{(i + 1) % 8}, (1)). nil }}")
         for i, r in enumerate(_EIGHT)]), 23),
    # Seven clients insert into the table at one hub: how many have.
    "star": (_restricted_program(
        [("hub", _TABLE)] + [(r, "insert(T@$hub, (1)). nil") for r in _EIGHT[1:]]), 8),
    # Four pairs, a client inserting into its own server: how many have.
    "pairs": (_restricted_program(
        [(f"c{i}", f"insert(T@$s{i}, (1)). nil") for i in range(4)]
        + [(f"s{i}", _TABLE) for i in range(4)]), 5),
    # Fifteen names: seven clients insert at one hub, then at a server of
    # their own; each client has done 0, 1 or 2 inserts.
    "hub-and-servers": (_restricted_program(
        [("hub", _TABLE)]
        + [(f"c{i}", f"insert(T@$hub, (1)). insert(T@$s{i}, (1)). nil") for i in range(7)]
        + [(f"s{i}", _TABLE) for i in range(7)]), 36),
}


# Programs whose restricted names take few configurations, each reached by
# many states and along many paths.
_RECURRING = {
    # perfbench's explore_restricted shape: insert chains at three restricted
    # sites, each into a table of its own, and two at free sites into one
    # table.  Each chain tags its rows, so no two of the 108 states are equal.
    "chains": """schema T : (Int, Int)
schema S : (Int, Int)
(new $r0) (new $r1) (new $r2) (
      $r0 :: { table T : (Int, Int) = {} | insert(T@$r0, (0, 0)). insert(T@$r0, (0, 1)). nil }
   || $r1 :: { table T : (Int, Int) = {} | insert(T@$r1, (1, 0)). nil }
   || $r2 :: { table T : (Int, Int) = {} | insert(T@$r2, (2, 0)). nil } )
|| $h0 :: table S : (Int, Int) = {}
|| $f0 :: insert(S@$h0, (3, 0)). insert(S@$h0, (3, 1)). nil
|| $f1 :: insert(S@$h0, (4, 0)). insert(S@$h0, (4, 1)). nil
""",
    "ring": _restricted_program(
        [(f"r{i}", f"{{ {_TABLE} | insert(T@$r{(i + 1) % 4}, (1)). nil }}") for i in range(4)]),
    "pairs": _restricted_program(
        [(f"c{i}", f"insert(T@$s{i}, (1)). nil") for i in range(2)]
        + [(f"s{i}", _TABLE) for i in range(2)]),
    # Two like processes at $a that change no other item: the first three
    # states differ only in the count of one item.
    "twins": _restricted_program(
        [("a", "{ eval(nil, $b). nil | eval(nil, $b). nil }"), ("b", _TABLE)]),
}


class TestStateKeys:
    @pytest.mark.parametrize("name", sorted(_WIDE))
    def test_many_restrictions_cost_polynomial_work(self, name, monkeypatch):
        # Work is counted, not timed: renders, renamings, and certificates,
        # one per numbering a key tries.
        program, states = _WIDE[name]
        counts = dict.fromkeys(("key", "render", "rename_localities", "_certificate"), 0)

        def counting(owner, attr):
            original = getattr(owner, attr)

            def wrapper(*args):
                counts[attr] += 1
                return original(*args)
            monkeypatch.setattr(owner, attr, wrapper)

        for owner, attr in ((s, "render"), (s, "rename_localities"),
                            (StateKeys, "key"), (StateKeys, "_certificate")):
            counting(owner, attr)
        system = parse_system(program)
        n = len(canonicalize(system.main_net).restricted)
        result = explore(system)
        assert result.states == states
        assert counts["render"] == 0
        assert counts["_certificate"] <= n * n * counts["key"]
        # canonicalize renames each site once, and the keyer each body once
        # per pattern of placeholders.
        assert counts["rename_localities"] <= n * n

    def test_certifies_each_restricted_configuration_once(self, monkeypatch):
        # The chains at $r0..$r2 take 3 * 2 * 2 configurations; the free
        # chains multiply the states by 9 but leave the certificate alone.
        calls = []
        certificate = StateKeys._certificate
        monkeypatch.setattr(StateKeys, "_certificate",
                            lambda *args: calls.append(args) or certificate(*args))
        result = explore(parse_system(_RECURRING["chains"]))
        assert (result.states, len(result.edges)) == (108, 324)
        assert len(calls) == 12

    def test_explore_builds_one_net_per_new_state(self, monkeypatch):
        # 324 edges and the initial net, of which 108 states are new: a
        # successor that another path reached is keyed from its parent's key
        # parts and its delta, and never built.
        built = []
        real = netmod.make_canonical
        monkeypatch.setattr(semantics, "make_canonical",
                            lambda *args: built.append(args) or real(*args))
        monkeypatch.setattr(netmod, "make_canonical", semantics.make_canonical)
        result = explore(parse_system(_RECURRING["chains"]))
        assert (result.states, len(result.edges)) == (108, 324)
        assert len(built) == 108

    @pytest.mark.parametrize("name", sorted(_RECURRING))
    def test_reachable_states_match_the_naive_engine(self, name):
        system = parse_system(_RECURRING[name])
        naive = smallscope.naive_reachable_keys(system)
        assert smallscope.engine_reachable_keys(system) == naive
        assert explore(system).states == len(naive)

    def test_agrees_with_canonical_key(self):
        pairs = list(_pairs())
        assert {same for _, _, same in pairs} == {True, False}
        assert _disagreements(StateKeys, pairs) == []

    def test_population_tells_a_faulty_keyer_apart(self):
        assert _disagreements(_AnyOrderKeys, _pairs())


def _counting(monkeypatch, name: str) -> list:
    """The arguments of every call of `syntax.<name>` from now on, each
    mapping as a copy of what it held at the call: `net_parts` renames by
    its live `Scope`, which it undoes later."""
    calls = []
    real = getattr(s, name)

    def counting(*args):
        calls.append(tuple(dict(a) if isinstance(a, dict) else a for a in args))
        return real(*args)
    monkeypatch.setattr(s, name, counting)
    return calls


class TestNetPartsWork:
    # Work is counted, not timed: the engine and the checker read a net
    # through `syntax.net_parts`, which renames only a restricted name that
    # clashes and walks for free names only once it meets a restriction.
    def test_names_apart_cost_no_renaming(self, monkeypatch):
        system = parse_system(_RECURRING["chains"])
        renames = _counting(monkeypatch, "rename_localities")
        assert len(canonicalize(system.main_net).restricted) == 3
        assert check_system(system) == []
        assert [mapping for _, mapping in renames if mapping] == []

    def test_a_clash_renames_the_nodes_in_its_scope(self, monkeypatch):
        # The counters above count: `(new $a) $a :: P || (new $a) $a :: Q`.
        p, q = s.CallProc("p", ()), s.CallProc("q", ())
        net = s.ParNet(s.Restrict("a", node("a", proc(p))), s.Restrict("a", node("a", proc(q))))
        renames = _counting(monkeypatch, "rename_localities")
        walks = _counting(monkeypatch, "free_locs")
        assert canonicalize(net).restricted == ("a", "a#1")
        assert [mapping for _, mapping in renames if mapping] == [{"a": "a#1"}]
        assert len(walks) == 2  # one per body

    def test_no_restriction_costs_no_walk_for_free_names(self, monkeypatch):
        system = parse_system((pathlib.Path(__file__).parent.parent / "corpus"
                               / "dept_stores.kdb").read_text())
        walks = _counting(monkeypatch, "free_locs")
        assert system.procedures  # nor a walk of their bodies
        assert canonicalize(system.main_net, system.procedures).restricted == ()
        assert check_system(system) == []
        assert walks == []


def _key_renaming_every_body(cn):
    """canonical_key as it was first written: every body renamed and rendered
    under every numbering of the restricted names."""
    best = None
    for perm in itertools.permutations(cn.restricted):
        mapping = {name: f"ρ{i}" for i, name in enumerate(perm)}
        cand = tuple(sorted((mapping.get(loc, loc), s.render(s.rename_localities(body, mapping)), n)
                            for (loc, body), n in cn.items.items()))
        if best is None or cand < best:
            best = cand
    return (cn.err, len(cn.restricted), best)


class TestCanonicalKey:
    def test_equals_renaming_every_body(self):
        for a, b, _ in _pairs(range(60)):
            for cn in (a, b):
                assert canonical_key(cn) == _key_renaming_every_body(cn)

    def test_orders_a_tie_by_the_least_numbering(self):
        # The two inserts at $a share a label; each successor holds two
        # restricted names, and the least key numbers $r1 first, against
        # the order in which the restrictions stand.
        program = (
            "schema T : (Int)\n(new $r0) (new $r1) ( $a :: { table T : (Int) = {} "
            "| insert(T@$a, (1)). insert(T@$r1, (5)). nil "
            "| insert(T@$a, (1)). insert(T@$r0, (6)). nil } "
            "|| $r0 :: table T : (Int) = {} || $r1 :: table T : (Int) = {(7)} )\n")
        system = parse_system(program)
        tie = enumerate_transitions(canonicalize(system.main_net), system)
        assert [t.label.rule for t in tie] == ["INS", "INS"]
        keys = [_key_renaming_every_body(t.succ) for t in tie]
        assert str(keys[0]) < str(keys[1])
        assert ("ρ0", "table T : (Int) = {(7)}", 1) in keys[0][2]
        # So the tie starts with the step of the second process.
        rest = s.Prefix(s.Insert("T", s.Tuple((6,)), VLoc("r0")), NIL)
        assert tie[0].succ.items.count(("a", rest)) == 1
        labels = [label.detail for label, _ in run(system, seed=0).steps]
        assert labels == ["insert (1) into T@a", "insert (5) into T@r1",
                          "insert (1) into T@a", "insert (6) into T@r0"]

    @pytest.mark.parametrize("restricted", [True, False])
    def test_renders_a_body_without_restricted_names_once(self, restricted, monkeypatch):
        # Of the five bodies only the insert at $b mentions a name, $a, that
        # may be restricted; the others sit at restricted or free names.
        # Without restrictions, as in a run's ties, every body is rendered
        # once however many keys read it; with three, so is every body but
        # the insert at $b, whose renamings are rendered under each of the
        # 3! numberings.
        program = _restricted_program([
            ("a", _TABLE), ("b", "insert(T@$a, (1)). nil"), ("c", "insert(T@$f, (2)). nil")])
        program += "|| $f :: { table T : (Int) = {(3)} | insert(T@$f, (4)). nil }\n"
        if not restricted:
            program = program.replace("(new $a) (new $b) (new $c) ", "")
        cn = canonicalize(parse_system(program).main_net)
        assert (len(cn.restricted), len(cn.items)) == (3 if restricted else 0, 5)
        rendered = []
        for cls in (s.Prefix, s.TableComp):
            monkeypatch.setitem(s._FORMAT, cls, lambda node, real=s._FORMAT[cls]:
                                rendered.append(node) or real(node))
        keys = {canonical_key(cn) for _ in range(3)}
        renamed = 3 * 6 if restricted else 0
        assert len(rendered) == (4 if restricted else 5) + renamed
        for loc, body in cn.items:
            once = not restricted or loc != "b"
            assert sum(x is body for x in rendered) == (1 if once else 0)
        assert keys == {_key_renaming_every_body(cn)}


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
        assert not no_rep(Multiset.of_counts({("l", "T"): 2}))

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
        assert cn.err


class TestDump:
    def test_rows_repeated_by_multiplicity_and_sorted(self):
        rows = Multiset.of_counts({srow("b", 1): 2, srow("a", 2): 1})
        table = s.TableComp(s.Interface("T", (s.STRING, s.INT)), rows)
        cn = canonicalize(node("l1", table))
        (d,) = dump_tables(cn)
        assert d["rows"] == [["a", 2], ["b", 1], ["b", 1]]
        assert d["schema"] == "(String, Int)"
