"""Long straight-line processes stay within the interpreter's recursion limit.

Each pass over the syntax recurses once per action of a chain, so these
lengths pin how many Python frames one level of the tree costs: the parser
and its passes one, the checker one, and running or exploring two (the
rendering in keys and dumps).  A traversal that spent one more frame per
level would fail here.
"""

from kdb import semantics
from kdb.parser import parse_system
from kdb.typesys import check_system


def chain(n: int) -> str:
    steps = "".join(f"insert(T@$l, ({i})). " for i in range(n))
    return f"schema T : (Int)\n$l :: {steps}nil || $l :: table T : (Int) = {{}}\n"


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
