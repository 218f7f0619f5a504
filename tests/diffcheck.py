"""Differential check: one hash over what kdb prints and decides.

Run from the repository root:

    PYTHONPATH=src python tests/diffcheck.py

It renders, checks, re-parses, explores and runs a fixed population, hashes
the text of every result, and prints the counts and the hash on one line.
Two builds that print the same line agree on all of it, so a refactor that
means to keep behaviour runs this before and after and compares the lines.

The population:
- 400 `gensys.typed_system` seeds (odd seeds larger), the `gensys.corrupt`
  and `gensys.corrupt_select_or_loop` copy of each where there is one, and
  the programs in `corpus/`;
- for each of those, the render and check of the system and of its
  re-parse, an exploration of at most 40 states (each state's canonical key
  and each transition's label and ends) and two seeded runs of at most 20
  steps;
- 20 nets (`repeated_tables`) that hold two or three different tables
  under one `T@l`, beside processes that insert, delete, update,
  aggregate, select, create and drop there, each treated like the systems
  above, so the order of tables that tie on (locality, identifier) is
  covered by design, not by chance;
- 1,000 `gen.random_system` programs, rendered and checked;
- 1,000 `gen.clash_source` texts, whose names clash on purpose: the render
  and `repr` of each parse (so row order too), or its ParseError text;
- a 200-node wide net, each node an insert beside its own table, run for 40
  steps: each step's label and the final tables;
- the programs in `corpus/` and the renders of 50 `gensys.corrupt` copies,
  each laid out three more ways (a `//` comment and a blank line before
  every line; a tab before every line and for every space outside a
  string; `\r\n` line ends), whole and cut at two thirds: the text of each
  one's diagnostics or ParseError, so the line:col of what is reported is
  covered on layouts that renders never produce;
- 20 texts (`bad_rows`) whose table and table literal each hold several
  rows that do not fit the schema: the text of their diagnostics, so which
  bad row is reported first is covered under both hash seeds.

Only text goes into the hash: renders, the `repr`s of parses, diagnostics,
labels and the `str` of canonical keys, none of which depends on the
string-hash seed.  CI runs it under PYTHONHASHSEED=0 and 7 and fails
unless both print the line in `tests/diffcheck.expected`, the line of the
committed code.
"""

import hashlib
import os
import random
import re
import sys

import gen
import gensys
from kdb import syntax as s
from kdb.net import canonical_key, dump_json
from kdb.parser import ParseError, parse_system
from kdb.semantics import explore, run
from kdb.typesys import check_system

SEEDS = 400
RANDOM_PROGRAMS = 1000
CLASH_SOURCES = 1000
REPEATED_TABLES = 20
WIDE_NODES = 200
WIDE_STEPS = 40
LAYOUT_CORRUPT = 50
BAD_ROW_TABLES = 20
EXPLORE_BOUND = 40
RUN_STEPS = 20
CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "corpus")


def generated(seed: int) -> s.System:
    if seed % 2:
        return gensys.typed_system(seed, max_procs=3, max_steps=6, max_rows=4)
    return gensys.typed_system(seed)


def repeated_tables(seed: int) -> str:
    """A net with two or three different tables under T@$l, one of them
    perhaps twice, and processes that act on T@$l."""
    rng = random.Random(seed)

    def rows() -> str:
        return ", ".join(f"({rng.randrange(5)}, {rng.randrange(5)})"
                         for _ in range(rng.randrange(4)))

    tables = {f"table T : (Int, Int) = {{{rows()}}}" for _ in range(rng.randint(2, 3))}
    if len(tables) < 2:
        tables.add("table T : (Int, Int) = {(9, 9)}")
    a = rng.randrange(5)
    actions = [
        f"insert(T@$l, ({a}, {rng.randrange(5)})). nil",
        f"delete(T@$l, (!x, !y), x = {a}). nil",
        f"update(T@$l, (!x, !y), y < {a}, (x, y + 1)). nil",
        "aggr(T@$l, (!x, !y), true, sum[2], (!r)). insert(U@$l, (r, r)). nil",
        f"select(T@$l, (!x, !y), x >= {a}, (x, y), !t). "
        "foreach(t, (!p, !q), true, unordered): insert(U@$l, (p, q)). nil",
        "create(T@$l, (Int, Int)). nil",
        "drop(T@$l). nil",
    ]
    procs = rng.sample(actions, rng.randint(2, 4))
    parts = sorted(tables) + ["table U : (Int, Int) = {}"] + procs
    if rng.random() < 0.5:
        parts.append(sorted(tables)[0])  # one table twice: a count of 2
    return "$l :: { " + " | ".join(parts) + " }\n"


def bad_rows(seed: int) -> str:
    """A table and a table literal of (Int, String) rows, each with several
    rows of other shapes among rows that fit."""
    rng = random.Random(seed)

    def rows() -> str:
        out = []
        for k in range(rng.randint(4, 8)):
            word = f'"w{rng.randrange(100)}"'
            out.append(rng.choice([f"({k}, {word})", f"({word}, {k})", f"({word})",
                                   f"({k}, {word}, {k})", f"({k}, {k})"]))
        return ", ".join(out)

    return (f"schema T : (Int, String)\n$l :: table T : (Int, String) = {{{rows()}}}\n"
            f"|| $m :: select(table U : (Int, String) = {{{rows()}}}, (!x, !y), true, (x, y), !t)."
            " nil\n")


def wide(n: int) -> str:
    """n nodes side by side, each an insert beside its own table."""
    return " || ".join(f"$l{i} :: {{ insert(T@$l{i}, ({i})). nil | table T : (Int) = {{}} }}"
                       for i in range(n)) + "\n"


def layouts(text: str) -> list:
    """`text` laid out three more ways, with the same tokens."""
    lines = text.splitlines(keepends=True)
    return [
        "".join(f"// line {i}\n\n{line}" for i, line in enumerate(lines)),
        "".join("\t" + re.sub(r'("(?:\\.|[^"\\\n])*")| ', lambda m: m[1] or "\t", line)
                for line in lines),
        text.replace("\n", "\r\n"),
    ]


def layout_texts() -> list:
    """(name, text) pairs: the corpus and 50 corrupt renders, each laid out
    as `layouts` lays it out."""
    texts = []
    for fname in sorted(os.listdir(CORPUS)):
        if fname.endswith(".kdb"):
            with open(os.path.join(CORPUS, fname), encoding="utf-8") as f:
                texts.append((fname, f.read()))
    seed = 0
    while len(texts) < LAYOUT_CORRUPT + 2:
        bad = gensys.corrupt(generated(seed), random.Random(seed))
        if bad is not None:
            texts.append((f"corrupt {seed}", s.render(bad) + "\n"))
        seed += 1
    return [(f"{name} layout {k}", text)
            for name, original in texts for k, text in enumerate(layouts(original))]


def population() -> list:
    """(name, system) pairs, in a fixed order."""
    out = []
    for seed in range(SEEDS):
        sys1 = generated(seed)
        out.append((f"gensys {seed}", sys1))
        for name, corrupt in (("corrupt", gensys.corrupt),
                              ("corrupt_select_or_loop", gensys.corrupt_select_or_loop)):
            bad = corrupt(sys1, random.Random(seed))
            if bad is not None:
                out.append((f"{name} {seed}", bad))
    for seed in range(REPEATED_TABLES):
        out.append((f"repeated tables {seed}", parse_system(repeated_tables(seed))))
    for fname in sorted(os.listdir(CORPUS)):
        if fname.endswith(".kdb"):
            with open(os.path.join(CORPUS, fname), encoding="utf-8") as f:
                out.append((fname, parse_system(f.read())))
    return out


def render_and_check(sys1: s.System) -> list:
    text = s.render(sys1)
    return [text, *map(str, check_system(sys1))]


def reported(text: str) -> list:
    """The diagnostics of `text`, or its ParseError, as text."""
    try:
        return [str(d) for d in check_system(parse_system(text))]
    except ParseError as e:
        return [f"parse error: {e}"]


def main() -> int:
    digest = hashlib.sha256()
    counts = {"systems": 0, "states": 0, "transitions": 0, "random": 0, "clash": 0,
              "layouts": 0, "bad_rows": 0}

    def put(*lines) -> None:
        for line in lines:
            digest.update(line.encode("utf-8") + b"\n")

    for name, sys1 in population():
        counts["systems"] += 1
        put(f"== {name}", *render_and_check(sys1))
        try:
            put("reparse", *render_and_check(parse_system(s.render(sys1))))
        except ParseError as e:
            put(f"reparse error: {e}")
        result = explore(sys1, bound=EXPLORE_BOUND)
        counts["states"] += result.states
        counts["transitions"] += len(result.edges)
        put(f"explore {result.states} {result.err_reachable} {result.truncated}",
            *(str(canonical_key(cn)) for cn in result.state_list),
            *(f"{i} {lb.rule} {lb.actor} {lb.detail} {j}" for i, lb, j in result.edges))
        for seed in (0, 1):
            trace = run(sys1, seed=seed, max_steps=RUN_STEPS)
            put(f"run {seed} {trace.terminal}",
                *(f"{lb.rule} {lb.actor} {lb.detail}" for lb, _ in trace.steps),
                str(canonical_key(trace.final())), *trace.disabled())
    for seed in range(RANDOM_PROGRAMS):
        counts["random"] += 1
        put(f"== random {seed}", *render_and_check(gen.random_system(seed)))
    for seed in range(CLASH_SOURCES):
        counts["clash"] += 1
        put(f"== clash {seed}")
        try:
            sys1 = parse_system(gen.clash_source(seed))
        except ParseError as e:
            put(f"parse error: {e}")
        else:
            put(s.render(sys1), repr(sys1))
    trace = run(parse_system(wide(WIDE_NODES)), seed=0, max_steps=WIDE_STEPS)
    put(f"== wide {WIDE_NODES} {trace.terminal}",
        *(f"{lb.rule} {lb.actor} {lb.detail}" for lb, _ in trace.steps), dump_json(trace.final()))
    for name, text in layout_texts():
        counts["layouts"] += 1
        put(f"== {name}", *reported(text), "cut", *reported(text[:len(text) * 2 // 3]))
    for seed in range(BAD_ROW_TABLES):
        counts["bad_rows"] += 1
        put(f"== bad rows {seed}", *reported(bad_rows(seed)))
    print(" ".join(f"{k}={v}" for k, v in counts.items()), digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
