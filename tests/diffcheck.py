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
- 1,000 `gen.random_system` programs, rendered and checked.

Only text goes into the hash: renders, diagnostics, labels and the `str` of
canonical keys, none of which depends on the string-hash seed.
"""

import hashlib
import os
import random
import sys

import gen
import gensys
from kdb import syntax as s
from kdb.net import canonical_key
from kdb.parser import ParseError, parse_system
from kdb.semantics import explore, run
from kdb.typesys import check_system

SEEDS = 400
RANDOM_PROGRAMS = 1000
EXPLORE_BOUND = 40
RUN_STEPS = 20
CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "corpus")


def generated(seed: int) -> s.System:
    if seed % 2:
        return gensys.typed_system(seed, max_procs=3, max_steps=6, max_rows=4)
    return gensys.typed_system(seed)


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
    for fname in sorted(os.listdir(CORPUS)):
        if fname.endswith(".kdb"):
            with open(os.path.join(CORPUS, fname), encoding="utf-8") as f:
                out.append((fname, parse_system(f.read())))
    return out


def render_and_check(sys1: s.System) -> list:
    text = s.render(sys1)
    return [text, *map(str, check_system(sys1))]


def main() -> int:
    digest = hashlib.sha256()
    counts = {"systems": 0, "states": 0, "transitions": 0, "random": 0}

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
    print(" ".join(f"{k}={v}" for k, v in counts.items()), digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
