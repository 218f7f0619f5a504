"""Long straight-line processes stay within the interpreter's recursion limit.

Each pass over the syntax recurses once per action of a chain, so these
lengths pin how many Python frames one level of the tree costs: the parser
and its passes one, the checker one, and running or exploring two (the
`__hash__` that every node class shares, which `canonicalize` calls when it
first hashes the chain).  A traversal that spent one more
frame per level would fail here.

Wide nets pin the same for the `||` and `|` spines of a net.  The parser
builds a spine in a loop, the checker and `canonicalize` pop its parts off
a stack, and `ScopedMap` (behind `free_vars`, `free_locs` and the checker's
table shapes) follows its left branches in a loop, so parsing, checking and
exploring take a net of any width: 10,000 nodes are pinned.  `render` is
the one walk that still recurses on width.  Running a wide net is pinned at
900 nodes, because each step still costs passes over every item, so a run
is quadratic in the width.
"""

from kdb import semantics
from kdb.net import canonicalize
from kdb.parser import parse_system
from kdb.typesys import check_system


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
