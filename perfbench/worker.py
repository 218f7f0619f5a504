"""Runs one workload's operations in a closed loop and checks every answer.

Usage: python3 perfbench/worker.py SPEC.json

`run.py` starts this in a fresh interpreter, so the peak resident memory it
reports is that of kdb running the workload. One client sends the next
operation when the previous one has returned. Each operation calls
`kdb.cli.main` in-process with stdout and stderr captured, and its exit
code and output are compared with the answer the generator computed. The
last line printed is a JSON object with the results.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time

from calibrate import reference_seconds
from workloads import Operation


def _outcome(op: Operation, code, out: str, workdir: str):
    """None when the operation gave its known answer, else the reason."""
    if code != op.exit_code:
        return f"exit code {code}, expected {op.exit_code}"
    if out != op.stdout:
        return "standard output differs from the known answer"
    if op.trace_last is not None:
        with open(os.path.join(workdir, "trace.jsonl"), encoding="utf-8") as fh:
            last = fh.read().splitlines()[-1]
        if json.loads(last) != op.trace_last:
            return "last trace record differs from the known answer"
    if op.dot is not None:
        with open(os.path.join(workdir, "states.dot"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        nodes = sum(1 for ln in lines if ln.startswith("  s") and "->" not in ln)
        edges = sum(1 for ln in lines if "->" in ln)
        if (nodes, edges) != tuple(op.dot):
            return f"DOT graph has {nodes} states and {edges} edges, expected {op.dot}"
    return None


class Client:
    def __init__(self, cli, workdir: str, seed_base: int):
        self.cli = cli
        self.workdir = workdir
        self.seed_base = seed_base
        self.attempted = 0
        self.failures: list = []  # (label, reason, known defect)

    def call(self, op: Operation):
        """Run one operation; returns its wall seconds and output bytes."""
        argv = [a.replace("{dir}", self.workdir) for a in op.argv]
        if op.vary_seed:
            argv += ["--seed", str(self.seed_base + self.attempted)]
        for name in ("trace.jsonl", "states.dot"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self.workdir, name))
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        code = raised = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as exc:  # any crash is a failed operation, not a crashed benchmark
            raised = exc
        wall = time.perf_counter() - start
        self.attempted += 1
        if raised is not None:
            reason = f"raised {type(raised).__name__}"
            known = type(raised).__name__ == op.known_failure
        else:
            reason = _outcome(op, code, out.getvalue(), self.workdir)
            known = False
        if reason is not None:
            self.failures.append((op.label, reason, known))
        size = len(out.getvalue().encode("utf-8"))
        for name in ("trace.jsonl", "states.dot"):
            with contextlib.suppress(FileNotFoundError):
                size += os.path.getsize(os.path.join(self.workdir, name))
        return wall, size

    def loop(self, ops: list, seconds: float):
        """Closed loop over the timed operations for `seconds` (at least one call).

        Returns the calls' wall times and reference times measured between calls.
        """
        walls, refs = [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            refs += reference_seconds(2)
            walls.append(self.call(ops[len(walls) % len(ops)])[0])
        return walls, refs

    def traced_loop(self, ops: list, seconds: float, spans_path: str) -> dict:
        """Alternate untraced and traced calls for `seconds`; return the layer metrics.

        Alternating call by call lets both sides see the same phases of a
        noisy machine, so the overhead ratio compares like with like.
        """
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        plain, traced, sizes = [], [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            op = ops[len(traced) % len(ops)]
            wall, size = self.call(op)
            plain.append(wall)
            sizes.append(size)
            tracer.install()
            tracer.begin_op(len(traced))
            try:
                wall, _ = self.call(op)
            finally:
                tracer.end_op()
                tracer.uninstall()
            traced.append(wall)
        tracer.write_spans(spans_path)
        layers = layer_metrics(tracer.per_op)
        layers["cli.output_bytes"] = statistics.median(sizes)
        layers["bench.trace_overhead"] = statistics.median(traced) / statistics.median(plain)
        return layers


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = spec["src"]
    sys.path.insert(0, src)
    import kdb.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(kdb.__file__))) != src:
        print(f"worker: imported kdb from {kdb.__file__}, not from {src}", file=sys.stderr)
        return 2
    ops = [Operation(**o) for o in spec["ops"]]
    timed = [op for op in ops if op.timed]
    client = Client(kdb.cli, spec["workdir"], spec["seed_base"])

    result = {}
    if spec["trace"]:
        result["layers"] = client.traced_loop(timed, spec["seconds"], spec["spans_path"])
    else:
        result["wall_s"], result["reference_s"] = client.loop(timed, spec["seconds"])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Probes run last, so that neither their time nor their memory reaches
    # a metric, each on a client of its own, so that a probe of a known
    # defect counts in neither `attempted` nor `failed`.
    result["attempted"] = client.attempted
    result["failures"] = client.failures
    result["probes"] = {}
    for op in ops:
        if not op.timed:
            probe = Client(kdb.cli, spec["workdir"], spec["seed_base"])
            probe.call(op)
            result["probes"][op.label] = probe.failures[0][1:] if probe.failures else None
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
