"""The kdb benchmark: one workload, one run, one JSON result line.

Usage (from the root of a kdb checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's programs and known answers from the seed, then
runs its operations through `kdb.cli.main` in a fresh worker interpreter
for S seconds and checks every answer. With `--trace 0` the last line
holds the end-to-end metrics; with `--trace 1` it holds the per-layer
metrics of traced calls, alternated with untraced ones. See README.md.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from calibrate import NOMINAL_S, scale
from workloads import GENERATORS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7
DEADLINE_S = 170  # a run must end within 180 s


def _child(args: list, deadline: float) -> str:
    """Run a Python helper of this directory; return its last stdout line."""
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited with {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout.strip().splitlines()[-1]


def _percentile_line(name: str, unit: str, values: list) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    line = f"{name}: median {statistics.median(ordered):.4f} {unit} over {len(ordered)} samples"
    q = (len(ordered) - 10) * 100 // len(ordered)
    if q > 50:
        line += f", p{q} {ordered[min(len(ordered) - 1, q * len(ordered) // 100)]:.4f} {unit}"
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "kdb", "cli.py")):
        print("perfbench: no kdb sources at src/kdb; run from the root of a kdb checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    workload = GENERATORS[args.workload](args.seed)
    scratch = os.path.join(root, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch)
    try:
        for name, text in workload.files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        setup = []
        if not args.trace:
            setup_input = os.path.join(workdir, workload.setup_input)
            probe = os.path.join(HERE, "setup_probe.py")
            setup = [json.loads(_child([probe, src, setup_input], deadline))
                     for _ in range(SETUP_REPEATS)]
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({
                "src": src,
                "workdir": workdir,
                "seconds": args.seconds,
                "trace": args.trace,
                "seed_base": random.Random(args.seed).randrange(2**31),
                "spans_path": os.path.join(scratch, f"spans-{workload.name}"),
                "ops": [dataclasses.asdict(op) for op in workload.ops],
            }, fh)
        result = json.loads(_child([os.path.join(HERE, "worker.py"), spec_path], deadline))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for (label, reason, _), n in collections.Counter(map(tuple, result["failures"])).items():
        print(f"failed {n}x {label}: {reason}")
    for label, outcome in result["probes"].items():
        if outcome is None:
            print(f"probe {label}: gave its known answer")
        else:
            reason, known = outcome
            print(f"probe {label}: {reason}" + (" (known defect)" if known else ""))
    if args.trace:
        values = result["layers"]
    else:
        print(_percentile_line("raw wall_s", "s", result["wall_s"]))
        print(_percentile_line("raw setup_s", "s", [p["setup_s"] for p in setup]))
        print(f"reference: median {statistics.median(result['reference_s']):.5f} s "
              f"over {len(result['reference_s'])} samples, nominal {NOMINAL_S} s")
        values = {
            "wall_s": scale(statistics.median(result["wall_s"]), result["reference_s"]),
            "setup_s": statistics.median(scale(p["setup_s"], p["reference_s"]) for p in setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']}: {values[m['name']]} {m['unit']}")
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
