"""Golden seeded traces of the engine, and the code that computes them.

The files next to this script pin what the engine does under a seeded
scheduler: which transitions are enabled, in which order, which one each seed
picks, and the state graph `explore` builds.  `tests/test_golden.py`
recomputes every file and requires it to be byte-identical, so a reordering
of transitions cannot pass unnoticed.

- `dept_stores/`: `kdb run --seed N --trace` for N = 0..9 on
  `corpus/dept_stores.kdb` (stdout and the JSON-lines trace), and
  `kdb explore --dot` on the same file; `exit_codes.json` holds every exit
  code.
- `shared_site.jsonl`: seeded runs and a bounded `explore` of a small
  program whose readers and writers all sit at one locality, so several
  enabled transitions share a label and are ordered by their successors.
- `gensys.jsonl`: one line per `gensys.typed_system` seed, with
  `semantics.run` for scheduler seeds 0-2 and a summary of
  `semantics.explore` (state count, edges as (i, rule, actor, detail, j),
  sorted quiescent dumps), plus seeded runs of a copy that
  `gensys.corrupt` made ill-typed, so that error outcomes are pinned too.
- `frontend.jsonl`: what the front end makes of the corpus files,
  `SHARED_SITE`, `BINDER_REUSE` (every binder form, reused names, reused
  restrictions, locality values under a restriction), `CREATE_BEFORE_TABLE`
  and `TWO_BAD_CALLS`: the render of `parse_system`'s result, which shows
  every variable binder and every restriction as written, or its parse
  error, and the stdout and exit code of `kdb check --json`.  Then one line per `gensys.typed_system` seed with the
  `check_system` diagnostics of its `gensys.corrupt` copy.

Regenerate only when a change of engine behaviour is intended, and record
the change in CHANGES.md.  From the root of a checkout:

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import random
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import gensys  # noqa: E402
from kdb import net as netmod  # noqa: E402
from kdb import semantics  # noqa: E402
from kdb.cli import main  # noqa: E402
from kdb.parser import ParseError, parse_system  # noqa: E402
from kdb.syntax import render  # noqa: E402
from kdb.typesys import check_system  # noqa: E402

DEPT = HERE.parent.parent / "corpus" / "dept_stores.kdb"
RUN_SEEDS = range(10)
GENSYS_SEEDS = range(50)
GENSYS_RUN_SEEDS = range(3)
GENSYS_MAX_STEPS = 40
GENSYS_EXPLORE_BOUND = 400
SHARED_SITE_BOUND = 300

_READER = (
    "create(R{r}@$l0, (String, Int, Int)). "
    "select(Big@$l0, (!a, !b, !c), b >= {lo} && b < {hi}, (a, b, c), !t). "
    "(foreach(t, (!x, !y, !z), true, unordered): insert(R{r}@$l0, (x, y, z)). nil; "
    "aggr(Small@$l1, (!p, !q, !s), q > 10, sum[3], (!m)). "
    "insert(R{r}@$l0, (\"sum\", m, 0)). nil)"
)
SHARED_SITE = "\n".join([
    "schema Big : (String, Int, Int)",
    "schema Small : (String, Int, Int)",
    "$l0 :: { table Big : (String, Int, Int) = {",
    "    (\"oa\", 1000, 5), (\"ob\", 1001, 7), (\"oc\", 1002, 9), (\"od\", 1003, 2) }",
    "  | insert(Big@$l0, (\"w0\", 1, 3)). "
    "update(Big@$l0, (!a, !b, !c), a = \"w0\", (a, b + 10, c)). nil",
    "  | insert(Big@$l0, (\"w1\", 1, 4)). delete(Big@$l0, (!a, !b, !c), a = \"w1\"). nil",
    *(f"  | {_READER.format(r=r, lo=1000 + r, hi=1002 + r)}" for r in range(3)),
    "  }",
    "|| $l1 :: table Small : (String, Int, Int) = { (\"sa\", 20, 1), (\"sb\", 5, 2) }",
]) + "\n"

# Every binder form with reused names: procedure parameters of all three
# kinds, template fields `!x` and `!@u` of every action and of loops,
# select's `!t` and aggr's result binder, a select inside an eval, two
# restrictions of the same `$n` that also occurs free, and locality values
# in rows under a restriction.
BINDER_REUSE = "\n".join([
    "schema T : (Int, Loc)",
    "schema S : (Loc)",
    "schema R : (Int)",
    "let f(x: Int, u: Loc) := insert(T@u, (x, $m)). delete(T@u, (!x, !@u), x = 1 && u = $m). nil",
    "and g(t: (Int, Loc), x: Int) := foreach(t, (!x, !@u), x > 0, asc[1]): insert(R@$m, (x)). nil",
    "in",
    "$m :: { table T : (Int, Loc) = { (1, $m), (2, $n) }",
    "      | table R : (Int) = {}",
    "      | select(T@$m, (!x, !@u), !(x in {1, 2}), (x, u), !t). "
    "foreach(t, (!x, !@u), true, unordered): update(T@u, (!x, !@u), x = 1, (x + 1, u)). nil",
    "      | aggr(T@$m, (!x, !@u), true, sum[1], (!x)). insert(R@$m, (x)). f(x, $m)",
    "      | eval(select(T@$m, (!x, !@u), true, (x), !t). foreach(t, (!x), true, lex): nil, $m). nil }",
    "|| (new $n) $n :: { table S : (Loc) = { ($n) } | insert(S@$n, ($n)). nil }",
    "|| (new $n) ($n :: table S : (Loc) = { ($n), ($m) }",
    "   || $n :: select(table U : (Loc) = { ($n) }, S@$n, (!@u, !@v), u = v, (u), !t). "
    "delete(S@$n, (!@u), u = $n). nil)",
]) + "\n"

# Net tables are collected before the processes' create actions, so the
# table's (Int) is the expected schema and the create's (String) the found one.
CREATE_BEFORE_TABLE = "$l :: { create(T@$l, (String)). nil | table T : (Int) = {} }\n"

# Two bad calls: which one the parser reports is part of its behaviour.
TWO_BAD_CALLS = "let f(x: Int) := nil in $l :: g(1) || $l :: f(1, 2)\n"


def _cli(argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def corpus_files() -> dict:
    """CLI goldens on the corpus case study, keyed by path under golden/."""
    files = {}
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        side = os.path.join(tmp, "side")
        for seed in RUN_SEEDS:
            name = f"run_seed{seed}"
            codes[name], files[f"dept_stores/{name}.out"] = _cli(
                ["run", str(DEPT), "--seed", str(seed), "--trace", side])
            files[f"dept_stores/{name}.jsonl"] = pathlib.Path(side).read_text(encoding="utf-8")
        codes["explore"], files["dept_stores/explore.out"] = _cli(
            ["explore", str(DEPT), "--dot", side])
        files["dept_stores/explore.dot"] = pathlib.Path(side).read_text(encoding="utf-8")
    files["dept_stores/exit_codes.json"] = json.dumps(codes, indent=1, sort_keys=True) + "\n"
    return files


def _lid_list(cn) -> list:
    return [[loc, tid, n] for (loc, tid), n in sorted(netmod.lid(cn).items())]


def _run_summary(sys1, seed: int) -> dict:
    trace = semantics.run(sys1, seed=seed, max_steps=GENSYS_MAX_STEPS)
    return {
        "seed": seed,
        "terminal": trace.terminal,
        "steps": [[label.rule, label.actor, label.detail, _lid_list(cn)]
                  for label, cn in trace.steps],
        "tables": netmod.dump_tables(trace.final()),
        "disabled": trace.disabled(),
    }


def _explore_summary(sys1, bound: int) -> dict:
    result = semantics.explore(sys1, bound=bound)
    return {
        "states": result.states,
        "truncated": result.truncated,
        "err_reachable": result.err_reachable,
        "edges": [[i, label.rule, label.actor, label.detail, j]
                  for i, label, j in result.edges],
        "quiescent": sorted(netmod.dump_json(cn) for cn in result.quiescent),
    }


def _gensys_pair(seed: int) -> tuple:
    """A generated system and its ill-typed copy (or None)."""
    # Odd seeds use the larger shape of the acceptance population.
    if seed % 2:
        sys1 = gensys.typed_system(seed, max_procs=3, max_steps=6, max_rows=4)
    else:
        sys1 = gensys.typed_system(seed)
    return sys1, gensys.corrupt(sys1, random.Random(seed))


def gensys_line(seed: int) -> str:
    # The corrupted copy drives the runs into the monitor's error outcomes.
    sys1, bad = _gensys_pair(seed)
    return json.dumps({
        "system": seed,
        "runs": [_run_summary(sys1, r) for r in GENSYS_RUN_SEEDS],
        "explore": _explore_summary(sys1, GENSYS_EXPLORE_BOUND),
        "corrupted_runs": [] if bad is None else [_run_summary(bad, r) for r in GENSYS_RUN_SEEDS],
    }, sort_keys=True)


def gensys_file() -> str:
    return "".join(gensys_line(seed) + "\n" for seed in GENSYS_SEEDS)


def shared_site_file() -> str:
    sys1 = parse_system(SHARED_SITE)
    lines = [_run_summary(sys1, seed) for seed in RUN_SEEDS]
    lines.append(_explore_summary(sys1, SHARED_SITE_BOUND))
    return "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)


def frontend_inputs() -> dict:
    inputs = {f"corpus/{p.name}": p.read_text(encoding="utf-8")
              for p in sorted(DEPT.parent.glob("*.kdb"))}
    inputs["SHARED_SITE"] = SHARED_SITE
    inputs["BINDER_REUSE"] = BINDER_REUSE
    inputs["CREATE_BEFORE_TABLE"] = CREATE_BEFORE_TABLE
    inputs["TWO_BAD_CALLS"] = TWO_BAD_CALLS
    return inputs


def frontend_file() -> str:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.kdb")
        for name, source in frontend_inputs().items():
            try:
                parsed = {"render": render(parse_system(source))}
            except ParseError as exc:
                parsed = {"parse_error": str(exc)}
            pathlib.Path(path).write_text(source, encoding="utf-8")
            code, out = _cli(["check", path, "--json"])
            lines.append({"input": name, **parsed, "check_json": out, "check_exit": code})
    for seed in GENSYS_SEEDS:
        _, bad = _gensys_pair(seed)
        if bad is not None:
            lines.append({"corrupted_system": seed,
                          "diagnostics": [d.to_json() for d in check_system(bad)]})
    return "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)


def golden_files() -> dict:
    """Every golden file's content, keyed by its path under golden/."""
    files = corpus_files()
    files["shared_site.jsonl"] = shared_site_file()
    files["gensys.jsonl"] = gensys_file()
    files["frontend.jsonl"] = frontend_file()
    return files


def write_all() -> None:
    for rel, text in golden_files().items():
        path = HERE / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path.relative_to(HERE.parent.parent)} ({len(text)} bytes)")


if __name__ == "__main__":
    write_all()
