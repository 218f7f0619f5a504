"""Long straight-line processes stay within the interpreter's recursion limit.

Each pass over the syntax but `render` recurses once per action of a
chain, so these lengths pin how many Python frames one level of the tree
costs: the parser and its passes one, the checker one, and running or
exploring two (a node's `__hash__`, which `canonicalize` calls when it
first hashes the chain).  A traversal that spent one more frame per level
would fail here.

Wide nets pin the same for the `||` and `|` spines of a net.  The parser
builds a spine in a loop, and `syntax.net_parts`, the one walk of a net,
through which the checker, `canonicalize` and `free_locs` read a net's
parts, pops them off a stack; `ScopedMap` maps only the processes and
tables it finds.  So parsing, checking and exploring take a net of any
width, 10,000 nodes are pinned, and a net built in code of any shape: a
3,000-node spine nested on the right is pinned.  Restrictions nested one
in another cost `net_parts` O(1) each however deep they nest, which the
growth of its time from 500 to 4,000 levels pins.  `render` lays out every
tree from one explicit stack, so it takes a net of any width and a chain
of any length: 10,000 of each are pinned.  Running a wide net is pinned at
900 nodes, because each step still costs passes over every item, so a run
is quadratic in the width.
"""

import functools
import time

import pytest

from kdb import semantics
from kdb import syntax as s
from kdb.net import canonicalize
from kdb.parser import parse_system
from kdb.syntax import render
from kdb.typesys import check_system
from kdb.values import Multiset, VInt, VLoc


def chain(n: int) -> str:
    steps = "".join(f"insert(T@$l, ({i})). " for i in range(n))
    return f"schema T : (Int)\n$l :: {steps}nil || $l :: table T : (Int) = {{}}\n"


def wide(n: int, process: str = "insert(T@$l{i}, ({i})).nil") -> str:
    """n nodes side by side, each a process beside its own table."""
    nodes = " || ".join(f"$l{i} :: {{ {process.format(i=i)} | table T : (Int) = {{}} }}"
                        for i in range(n))
    return f"schema T : (Int)\n{nodes}\n"


def test_parse_chain_of_900():
    assert parse_system(chain(900)) is not None


def test_check_chain_of_900():
    assert check_system(parse_system(chain(900))) == []


def test_run_chain_of_450():
    trace = semantics.run(parse_system(chain(450)), seed=0, max_steps=3)
    assert trace.terminal == "step-limit"
    assert len(trace.steps) == 3


def test_explore_chain_of_450():
    result = semantics.explore(parse_system(chain(450)), bound=3)
    assert result.truncated
    assert result.states == 3


def test_parse_wide_net_of_10000():
    assert parse_system(wide(10_000)) is not None


def test_wide_net_of_900():
    sys1 = parse_system(wide(900))
    assert check_system(sys1) == []
    trace = semantics.run(sys1, seed=0, max_steps=1)
    assert trace.terminal == "step-limit"
    assert len(trace.steps) == 1


def test_explore_wide_net_of_10000():
    # Every successor costs passes over all the items (its map of tables,
    # inert units and key), so exploring n enabled inserts costs about
    # n x 2n item visits; nodes with nothing left to do take the net
    # through explore's canonicalize and key alone.
    result = semantics.explore(parse_system(wide(10_000, "nil")), bound=3)
    assert (result.states, len(result.quiescent), result.truncated) == (1, 1, False)


def test_check_wide_net_of_10000():
    assert check_system(parse_system(wide(10_000))) == []


def test_explore_restricted_wide_net_of_10000():
    nodes = wide(10_000, "nil").split("\n", 1)[1].strip()
    sys1 = parse_system(f"schema T : (Int)\n(new $l0) ({nodes})\n")
    assert semantics.explore(sys1).states == 1
    canonical = canonicalize(sys1.main_net)
    assert (len(canonical.items), canonical.restricted) == (10_000, ("l0",))


def test_render_wide_net_of_10000():
    # The parser nests the spine on the left, and a `||` under `||` is
    # parenthesised.
    text = render(parse_system(wide(10_000)).main_net)
    node = "$l{i} :: insert(T@$l{i}, ({i})). nil | table T : (Int) = {{}}"
    assert text == ("(" * 9_998 + node.format(i=0) + " || " + node.format(i=1)
                    + "".join(") || " + node.format(i=i) for i in range(2, 10_000)))


def test_render_chain_of_10000():
    chain = s.NilProc()
    for i in reversed(range(10_000)):
        chain = s.Prefix(s.Insert("T", s.Tuple((VInt(i),)), VLoc("l")), chain)
    assert render(chain) == "".join(f"insert(T@$l, ({i})). " for i in range(10_000)) + "nil"


def restricted_net(n: int, nest) -> s.Net:
    """`(new $a)` around n nodes, each an insert beside its own table, and
    a node at `$a` of n inserts beside a table; a free `$a :: nil` beside
    it.  `nest` joins a list of nets or components."""
    def insert(loc, i):
        return s.ProcComp(s.Prefix(s.Insert("T", s.Tuple((VInt(i),)), VLoc(loc)), s.NilProc()))

    table = s.TableComp(s.Interface("T", (s.INT,)), Multiset())
    nodes = [s.Node(f"l{i}", nest(s.ParComp, [insert(f"l{i}", i), table])) for i in range(n)]
    at_a = s.Node("a", nest(s.ParComp, [insert("a", i) for i in range(n)] + [table]))
    return s.ParNet(s.Restrict("a", nest(s.ParNet, nodes + [at_a])),
                    s.Node("a", s.ProcComp(s.NilProc())))


def nest_right(cls, parts):
    return functools.reduce(lambda right, left: cls(left, right), reversed(parts))


def nest_left(cls, parts):
    return functools.reduce(cls, parts)


def test_built_net_nested_on_the_right_of_3000():
    net = restricted_net(3_000, nest_right)
    system = s.System({}, (("T", (s.INT,)),), net)
    assert check_system(system) == []
    canonical = canonicalize(net)
    assert (canonical.restricted, len(canonical.items)) == (("a#1",), 9_002)
    assert canonical == canonicalize(restricted_net(3_000, nest_left))
    assert len(s.free_locs(net)) == 3_001
    assert semantics.run(system, seed=0, max_steps=1).terminal == "step-limit"


def nested_restrictions(n: int, beside: str) -> s.Net:
    """n restrictions nested one in another, the i-th around a node at
    `beside.format(i=i)` and the next."""
    nil = s.ProcComp(s.NilProc())
    net = s.Node("z", nil)
    for i in reversed(range(n)):
        net = s.Restrict(f"r{i}", s.ParNet(s.Node(beside.format(i=i), nil), net))
    return net


def least_process_time(f, *args) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.process_time()
        f(*args)
        best = min(best, time.process_time() - start)
    return best


@pytest.mark.parametrize("beside", ["r{i}", "f{i}"], ids=["own-name", "free-name"])
def test_net_parts_linear_in_restriction_nesting(beside):
    # A restriction costs net_parts O(1) however deep it nests, so 8 times
    # the levels take about 8 times the time, where a cost per restriction
    # that grew with the depth would take about 64.
    small, large = nested_restrictions(500, beside), nested_restrictions(4_000, beside)
    restricted, parts = s.net_parts(large)
    assert restricted == tuple(f"r{i}" for i in range(4_000)) and len(parts) == 4_001
    times = [least_process_time(s.net_parts, net) for net in (small, large)]
    assert times[1] / times[0] < 24, f"500 levels {times[0]:.4f} s, 4,000 levels {times[1]:.4f} s"
