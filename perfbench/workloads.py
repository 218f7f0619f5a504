"""Seeded inputs and known answers for the benchmark workloads.

Each generator writes a `.kdb` program from a seed and computes, from the
program it wrote, what `kdb` must answer: exit code, standard output, and
for `run` and `explore` the trace's last record or the DOT graph's size.
Nothing here imports or runs kdb, so the answers are independent of it.

Sizes are fixed per workload and only the values vary with the seed, so
every seed gives inputs of the same shape and the same amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

EXIT_OK = 0
EXIT_TYPE_ERRORS = 1

# check_procs: program shape.
CHECK_PROCEDURES = 100
CHECK_BLOCKS = 2  # blocks of ten actions plus a foreach and a call per procedure
CHECK_PLANTED_EVERY = 20  # one planted format error per this many procedures
DEEP_CHAIN_ACTIONS = 4000

# run_tables: table sizes and process counts.
RUN_BIG_ROWS = 200
RUN_SMALL_ROWS = 20
RUN_WRITERS = 3
RUN_READERS = 3
RUN_READER_ROWS = 3  # original rows each reader selects and copies

# explore_restricted: chain lengths.
EXPLORE_RESTRICTED = (2, 1, 1)  # chains at restricted localities, own table each
EXPLORE_SHARED = (2, 2)  # chains at free localities sharing one table


@dataclass
class Operation:
    """One CLI call and the answer it must give."""
    label: str
    argv: list  # kdb arguments; "{dir}" stands for the work directory
    exit_code: int
    stdout: str
    timed: bool = True  # False: a probe, run once; in no metric, attempted or failed
    vary_seed: bool = False  # append a per-call scheduler seed (`run` only)
    trace_last: dict | None = None  # expected last line of the --trace file
    dot: tuple | None = None  # expected (node lines, edge lines) of the --dot file
    known_failure: str | None = None  # exception type of a known defect


@dataclass
class Workload:
    name: str
    files: dict  # file name -> program text
    setup_input: str  # file whose set-up `setup_s` measures
    ops: list = field(default_factory=list)


def _dump(tables: list) -> list:
    """What `net.dump_tables` returns for tables given as (loc, tid, schema, rows)."""
    out = []
    for loc, tid, schema, rows in sorted(tables, key=lambda t: (t[0], t[1])):
        out.append({"loc": loc, "tid": tid, "schema": schema,
                    "rows": [list(r) for r in sorted(rows)]})
    return out


def _q(text: str) -> str:
    return '"' + text + '"'


def _word(rng: random.Random, n: int = 6) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(n))


def _num(rng: random.Random) -> int:
    """Three-digit numbers keep the program text the same length for every seed."""
    return rng.randrange(100, 1000)


# ---------------------------------------------------------------------------
# check_procs

# (action text, diagnostic) for the planted format errors; "{n}" is a number.
_PLANTED = (
    ("insert(A@$l0, ({n}, {n})).",
     {"kind": "payload-format", "message": "inserted row does not fit table 'A'",
      "expected": "(String, Int, Int)", "found": "(Int, Int)"}),
    ("update(A@$l0, (!pa, !pb, !pc), true, (pa, pb)).",
     {"kind": "payload-format", "message": "updated row does not fit table 'A'",
      "expected": "(String, Int, Int)", "found": "(String, Int)"}),
    ("aggr(A@$l0, (!pa, !pb, !pc), pb > {n}, sum[1], (!pr)).",
     {"kind": "aggregator-signature",
      "message": "sum[1] needs an Int column 1 in table 'A'",
      "expected": "Int", "found": "String"}),
)


def _check_block(rng: random.Random, b: int, callee: str) -> list:
    """Ten straight-line actions of all eight kinds, then a foreach and a call.

    Returns lines; a line starting with "(" opens a sequence the caller closes.
    """
    n = lambda: _num(rng)  # noqa: E731
    w = lambda: _q(_word(rng))  # noqa: E731
    return [
        f"insert(A@u, ({w()}, x, {n()})).",
        f"update(A@$l0, (!a{b}, !b{b}, !c{b}), b{b} < {n()}, (a{b}, b{b} + 1, c{b})).",
        f"delete(A@$l0, (!d{b}, !e{b}, !f{b}), d{b} = {w()} && f{b} > {n()}).",
        f"aggr(A@u, (!g{b}, !h{b}, !i{b}), h{b} >= x, sum[3], (!r{b})).",
        f"insert(B@$l0, ({w()} ++ {w()}, r{b} * {n()})).",
        f"create(C@u, (String, Int)).",
        f"insert(C@u, ({w()}, r{b} - x)).",
        f"drop(C@u).",
        f"eval(insert(B@u, ({w()}, {n()})). nil, $l1).",
        f"select(A@$l0, B@$l0, (!j{b}, !k{b}, !m{b}, !o{b}, !n{b}), k{b} = n{b}, (j{b}, m{b}), !t{b}).",
        f"(foreach(t{b}, (!s{b}, !v{b}), v{b} > {n()}, asc[2]): insert(B@u, (s{b}, v{b})). nil;",
        f"({callee}({n()}, $l1);",
    ]


def check_procs(seed: int) -> Workload:
    """`kdb check --json` on many straight-line procedures with planted errors."""
    rng = random.Random(seed)
    planted_at = rng.randrange(CHECK_PLANTED_EVERY)
    lines = [
        "schema A : (String, Int, Int)",
        "schema B : (String, Int)",
        "schema C : (String, Int)",
        "",
        "let",
    ]
    diags = []
    indent = "  "
    for i in range(CHECK_PROCEDURES):
        lines.append(f"p{i}(x: Int, u: Loc) :=")
        opened = 0
        for b in range(CHECK_BLOCKS):
            for text in _check_block(rng, b, f"p{(i + 1 + b) % CHECK_PROCEDURES}"):
                lines.append(indent + text)
                opened += text.startswith("(")
        if i % CHECK_PLANTED_EVERY == planted_at:
            text, diag = _PLANTED[(i // CHECK_PLANTED_EVERY) % len(_PLANTED)]
            lines.append(indent + text.format(n=_num(rng)))
            # Keys in the order of `Diagnostic.to_json`.
            diags.append({"span": f"{len(lines)}:{len(indent) + 1}", **diag})
        lines.append(indent + "nil" + ")" * opened)
        lines.append("and" if i + 1 < CHECK_PROCEDURES else "in")
    rows_a = ", ".join(f"({_q(_word(rng))}, {_num(rng)}, {_num(rng)})" for _ in range(8))
    rows_b = ", ".join(f"({_q(_word(rng))}, {_num(rng)})" for _ in range(8))
    lines += [
        f"$l0 :: {{ table A : (String, Int, Int) = {{ {rows_a} }}",
        f"       | table B : (String, Int) = {{ {rows_b} }}",
        f"       | p0({_num(rng)}, $l1) }}",
        "|| $l1 :: nil",
    ]
    deep = _deep_chain(rng)
    return Workload(
        name="check_procs",
        files={"procs.kdb": "\n".join(lines) + "\n", "deep.kdb": deep},
        setup_input="procs.kdb",
        ops=[
            Operation("check", ["check", "{dir}/procs.kdb", "--json"],
                      EXIT_TYPE_ERRORS, json.dumps(diags, indent=2) + "\n"),
            # A legal program that today raises RecursionError (ROADMAP item 2);
            # it is probed once per run, so the defect shows in the run's log.
            Operation("deep_chain", ["check", "{dir}/deep.kdb", "--json"],
                      EXIT_OK, "[]\n", timed=False, known_failure="RecursionError"),
        ],
    )


def _deep_chain(rng: random.Random) -> str:
    """A well-typed straight-line process of DEEP_CHAIN_ACTIONS inserts."""
    acts = "\n".join(f"  insert(A@$l0, ({_q(_word(rng))}, {i}, {_num(rng)}))."
                     for i in range(DEEP_CHAIN_ACTIONS))
    return ("schema A : (String, Int, Int)\n"
            "$l0 :: { table A : (String, Int, Int) = {}\n| " + acts[2:] + "\n  nil }\n")


# ---------------------------------------------------------------------------
# run_tables

def _row(t) -> str:
    return "(" + ", ".join(_q(v) if isinstance(v, str) else str(v) for v in t) + ")"


def run_tables(seed: int) -> Workload:
    """`kdb run --trace` on a big shared table hit by writers and readers.

    Writers insert, update and delete only rows tagged with their own name;
    readers select original rows, which no writer touches, and aggregate the
    read-only small table. So the program is confluent and the final tables
    are the same under every scheduler seed.
    """
    rng = random.Random(seed)
    # Original rows: tag "o" + 5 letters, unique second column 1000..; writer
    # rows use second columns below 1000, so the readers' ranges miss them.
    keys = list(range(1000, 1000 + RUN_BIG_ROWS))
    rng.shuffle(keys)
    big = [("o" + _word(rng, 5), k, _num(rng)) for k in keys]
    small = [("s" + _word(rng, 5), rng.randrange(10, 100), _num(rng))
             for _ in range(RUN_SMALL_ROWS)]

    procs = []
    final_big = list(big)
    for w in range(RUN_WRITERS):
        tag = f"w{w}"
        c = [_num(rng) for _ in range(4)]
        d = _num(rng)
        # Mirror of the writer's actions on its own rows.
        own = [(tag, j + 1, c[j]) for j in range(3)]
        own = [(t, b, cc + d) if b < 3 else (t, b, cc) for t, b, cc in own]
        own = [r for r in own if r[1] != 2]
        own.append((tag, 4, c[3]))
        own = [(t, b + 10, cc) for t, b, cc in own]
        final_big += own
        procs.append(
            f"insert(Big@$l0, ({_q(tag)}, 1, {c[0]})). "
            f"insert(Big@$l0, ({_q(tag)}, 2, {c[1]})). "
            f"insert(Big@$l0, ({_q(tag)}, 3, {c[2]})). "
            f"update(Big@$l0, (!a, !b, !c), a = {_q(tag)} && b < 3, (a, b, c + {d})). "
            f"delete(Big@$l0, (!a, !b, !c), a = {_q(tag)} && b = 2). "
            f"insert(Big@$l0, ({_q(tag)}, 4, {c[3]})). "
            f"update(Big@$l0, (!a, !b, !c), a = {_q(tag)}, (a, b + 10, c)). nil")

    tables = [("l0", "Big", "(String, Int, Int)", final_big),
              ("l1", "Small", "(String, Int, Int)", small)]
    steps = RUN_WRITERS * 7  # one step per writer action
    for r in range(RUN_READERS):
        lo = 1000 + rng.randrange(RUN_BIG_ROWS - RUN_READER_ROWS)
        hi = lo + RUN_READER_ROWS
        limit = rng.randrange(10, 90)
        picked = [row for row in big if lo <= row[1] < hi]
        total = sum(row[2] for row in small if row[1] > limit)
        tables.append(("l0", f"R{r}", "(String, Int, Int)", picked + [("sum", total, 0)]))
        # create, select; a step to pick and one to insert each row, one to
        # leave the loop; aggr, insert.
        steps += 2 + (2 * len(picked) + 1) + 2
        procs.append(
            f"create(R{r}@$l0, (String, Int, Int)). "
            f"select(Big@$l0, (!a, !b, !c), b >= {lo} && b < {hi}, (a, b, c), !t). "
            f"(foreach(t, (!x, !y, !z), true, unordered): insert(R{r}@$l0, (x, y, z)). nil; "
            f"aggr(Small@$l1, (!p, !q, !s), q > {limit}, sum[3], (!m)). "
            f"insert(R{r}@$l0, (\"sum\", m, 0)). nil)")

    text = "\n".join([
        "schema Big : (String, Int, Int)",
        "schema Small : (String, Int, Int)",
        "",
        "$l0 :: { table Big : (String, Int, Int) = {",
        ",\n".join("    " + _row(t) for t in big) + " }",
        *("  | " + p for p in procs),
        "  }",
        "|| $l1 :: table Small : (String, Int, Int) = {",
        ",\n".join("    " + _row(t) for t in small) + " }",
    ]) + "\n"
    dump = _dump(tables)
    return Workload(
        name="run_tables",
        files={"tables.kdb": text},
        setup_input="tables.kdb",
        ops=[Operation(
            "run", ["run", "{dir}/tables.kdb", "--trace", "{dir}/trace.jsonl"],
            EXIT_OK,
            f"terminal: quiescent after {steps} step(s)\n" + json.dumps(dump, indent=2) + "\n",
            vary_seed=True,
            trace_last={"terminal": "quiescent", "tables": dump, "disabled": []},
        )],
    )


# ---------------------------------------------------------------------------
# explore_restricted

def explore_restricted(seed: int) -> Workload:
    """`kdb explore --dot` on independent insert chains, some restricted.

    Every chain inserts rows tagged with its own index, so no two states are
    equal up to renaming of restricted names: the reachable states are the
    product of the chains' progress, prod(len + 1), with one quiescent state.
    """
    rng = random.Random(seed)
    chains = list(EXPLORE_RESTRICTED) + list(EXPLORE_SHARED)
    rows = [[(i, _num(rng)) for _ in range(n)] for i, n in enumerate(chains)]

    def chain(tid: str, loc: str, i: int) -> str:
        acts = "".join(f"insert({tid}@${loc}, {_row(r)}). " for r in rows[i])
        return acts + "nil"

    nodes = []
    tables = []
    for i in range(len(EXPLORE_RESTRICTED)):
        loc = f"r{i}"
        nodes.append(f"${loc} :: {{ table T : (Int, Int) = {{}} | {chain('T', loc, i)} }}")
        tables.append((loc, "T", "(Int, Int)", rows[i]))
    inner = "\n   || ".join(nodes)
    restricts = "".join(f"(new $r{i}) " for i in range(len(EXPLORE_RESTRICTED)))
    shared = []
    for j in range(len(EXPLORE_SHARED)):
        i = len(EXPLORE_RESTRICTED) + j
        shared.append(f"$f{j} :: {chain('S', 'h0', i)}")
    tables.append(("h0", "S", "(Int, Int)", [r for i in range(len(EXPLORE_RESTRICTED), len(chains))
                                              for r in rows[i]]))
    text = "\n".join([
        "schema T : (Int, Int)",
        "schema S : (Int, Int)",
        "",
        f"{restricts}( {inner} )",
        "|| $h0 :: table S : (Int, Int) = {}",
        *("|| " + s for s in shared),
    ]) + "\n"

    states = 1
    for n in chains:
        states *= n + 1
    edges = sum(n * states // (n + 1) for n in chains)
    dump = json.dumps(_dump(tables), indent=2)
    return Workload(
        name="explore_restricted",
        files={"chains.kdb": text},
        setup_input="chains.kdb",
        ops=[Operation(
            "explore", ["explore", "{dir}/chains.kdb", "--dot", "{dir}/states.dot"],
            EXIT_OK,
            f"states: {states}\nERR reachable: no\nquiescent states: 1\n"
            f"--- quiescent 0 ---\n{dump}\n",
            dot=(states, edges),
        )],
    )


GENERATORS = {
    "check_procs": check_procs,
    "run_tables": run_tables,
    "explore_restricted": explore_restricted,
}
