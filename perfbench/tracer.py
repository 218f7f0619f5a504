"""Spans and counters around kdb's layers, recorded from outside the program.

`Tracer.install` replaces public functions of kdb's modules with wrappers,
including the copies that other modules imported by name, and
`Tracer.uninstall` puts every original back. A timed wrapper records a span
(name, start, end, parent span, operation); a counted wrapper only counts
calls. A call nested inside a span of its own layer (recursion, or
`dump_json` calling `dump_tables`) is not a new span or count, so counts are
calls into a layer from outside it. Self time is a span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from array import array
from collections import defaultdict

# Spans are kept for this many operations; totals cover every operation.
SPAN_OPS = 3

KDB_MODULES = ("kdb.cli", "kdb.parser", "kdb.typesys", "kdb.syntax", "kdb.kernel",
               "kdb.net", "kdb.values", "kdb.semantics")

# (module, function, layer). Two functions with one layer share its span.
TIMED = (
    ("kdb.cli", "main", "cli.main"),
    ("kdb.parser", "parse_system", "parser.parse"),
    ("kdb.parser", "tokenize", "parser.tokenize"),
    ("kdb.parser", "rename_apart", "parser.rename_apart"),
    ("kdb.typesys", "check_system", "typesys.check"),
    ("kdb.syntax", "render", "syntax.render"),
    ("kdb.syntax", "rename_localities", "syntax.rename_localities"),
    ("kdb.net", "canonicalize", "net.canonicalize"),
    ("kdb.net", "canonical_key", "net.canonical_key"),
    ("kdb.net", "find_tables", "net.find_tables"),
    ("kdb.net", "lid", "net.lid"),
    ("kdb.net", "dump_json", "net.dump"),
    ("kdb.net", "dump_tables", "net.dump"),
    ("kdb.kernel", "join_rows", "kernel.join_rows"),
    ("kdb.semantics", "run", "semantics.run"),
    ("kdb.semantics", "explore", "semantics.explore"),
    ("kdb.semantics", "enumerate_transitions", "semantics.enumerate"),
)

# (module, function, counter). `make_canonical` builds every successor net.
COUNTED = (
    ("kdb.kernel", "match", "kernel.match"),
    ("kdb.kernel", "eval_pred", "kernel.eval_pred"),
    ("kdb.net", "make_canonical", "semantics.successors"),
)


def frontier_max(result) -> int:
    """Largest BFS level of an ExploreResult, from the edges that found states."""
    depth = {0: 0}
    for i, _label, j in result.edges:
        if j not in depth:
            depth[j] = depth[i] + 1
    sizes = defaultdict(int)
    for d in depth.values():
        sizes[d] += 1
    return max(sizes.values())


class Tracer:
    def __init__(self):
        self.layer_ids: dict = {}
        self.spans = array("q")  # flat records: layer id, start ns, end ns, parent, op
        self.op = -1
        self.keep_spans = False
        self.per_op: list = []
        self._stack: list = []  # open spans: [start ns, child ns, record index]
        self._active: dict = defaultdict(int)
        self._patches: list = []
        self._self_ns: dict = defaultdict(int)
        self._total_ns: dict = defaultdict(int)
        self._calls: dict = defaultdict(int)
        self._counts: dict = defaultdict(int)
        self._steps_ns: list = []
        self._enabled: list = []

    # -- installing and removing the wrappers

    def install(self) -> None:
        hooks = {
            "parser.parse": lambda args, res, dur: self._count("parser.chars", len(args[0])),
            "parser.tokenize": lambda args, res, dur: self._count("parser.tokens", len(res)),
            "typesys.check": lambda args, res, dur: self._count("typesys.diagnostics", len(res)),
            "semantics.enumerate": self._on_enumerate,
            "semantics.run": lambda args, res, dur: self._count("semantics.steps", len(res.steps)),
            "semantics.explore": self._on_explore,
        }
        for mod, attr, layer in TIMED:
            self._replace(mod, attr, lambda fn, layer=layer: self._timed(layer, fn, hooks.get(layer)))
        for mod, attr, counter in COUNTED:
            self._replace(mod, attr, lambda fn, counter=counter: self._counted(counter, fn))
        ms = importlib.import_module("kdb.values").Multiset
        original = ms.__init__
        counts = self._counts

        def init(obj, items=None):
            original(obj, items)
            counts["values.multiset_builds"] += 1
            counts["values.multiset_entries_copied"] += len(obj.items())

        self._patches.append((ms, "__init__", original))
        ms.__init__ = init

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _replace(self, mod: str, attr: str, make) -> None:
        original = getattr(importlib.import_module(mod), attr)
        wrapper = make(original)
        for name in KDB_MODULES:
            module = importlib.import_module(name)
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def _timed(self, layer: str, fn, hook):
        active, stack, spans = self._active, self._stack, self.spans
        self_ns, total_ns, calls = self._self_ns, self._total_ns, self._calls
        layer_id = self.layer_ids.setdefault(layer, len(self.layer_ids))
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if active[layer]:
                return fn(*args, **kwargs)
            active[layer] = 1
            index = -1
            if self.keep_spans:
                index = len(spans) // 5
                spans.extend((layer_id, 0, 0, stack[-1][2] if stack else -1, self.op))
            frame = [0, 0, index]
            stack.append(frame)
            frame[0] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[layer] = 0
                dur = end - start
                if index >= 0:
                    spans[5 * index + 1] = start
                    spans[5 * index + 2] = end
                self_ns[layer] += dur - frame[1]
                total_ns[layer] += dur
                calls[layer] += 1
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(args, result, dur)
            return result

        return wrapper

    def _counted(self, counter: str, fn):
        active, counts = self._active, self._counts

        def wrapper(*args, **kwargs):
            if active[counter]:
                return fn(*args, **kwargs)
            counts[counter] += 1
            active[counter] = 1
            try:
                return fn(*args, **kwargs)
            finally:
                active[counter] = 0

        return wrapper

    def _count(self, counter: str, n: int) -> None:
        self._counts[counter] += n

    def _on_enumerate(self, args, result, dur: int) -> None:
        self._steps_ns.append(dur)
        self._enabled.append(len(result))

    def _on_explore(self, args, result, dur: int) -> None:
        self._count("semantics.explore_states", result.states)
        self._count("semantics.explore_edges", len(result.edges))
        self._count("semantics.frontier_max", frontier_max(result))

    # -- operations

    def begin_op(self, op: int) -> None:
        self.op = op
        self.keep_spans = op < SPAN_OPS

    def end_op(self) -> None:
        """Close the current operation's totals; spans stay in memory."""
        self.per_op.append({
            "self_ns": dict(self._self_ns), "total_ns": dict(self._total_ns),
            "calls": dict(self._calls), "counts": dict(self._counts),
            "steps_ns": list(self._steps_ns), "enabled": list(self._enabled),
        })
        for d in (self._self_ns, self._total_ns, self._calls, self._counts):
            d.clear()
        self._steps_ns.clear()
        self._enabled.clear()
        self.op = -1
        self.keep_spans = False

    def write_spans(self, path: str) -> None:
        """Write the spans as raw int64 records to PATH.bin, described in PATH.json."""
        with open(path + ".bin", "wb") as fh:
            self.spans.tofile(fh)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"layers": sorted(self.layer_ids, key=self.layer_ids.get),
                       "record": ["layer", "start_ns", "end_ns", "parent", "op"],
                       "format": "native-endian int64, five per span",
                       "spans": len(self.spans) // 5}, fh, indent=1)

def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _op_metrics(op: dict) -> dict:
    self_s = lambda layer: op["self_ns"].get(layer, 0) / 1e9  # noqa: E731
    total_s = lambda layer: op["total_ns"].get(layer, 0) / 1e9  # noqa: E731
    calls = op["calls"].get
    count = op["counts"].get
    built = count("semantics.successors", 0)
    used = count("semantics.steps", 0) + max(count("semantics.explore_states", 0) - 1, 0)
    parse_s = total_s("parser.parse")
    explore_s = total_s("semantics.explore")
    enabled = op["enabled"]
    return {
        "parser.tokenize_s": self_s("parser.tokenize"),
        "parser.parse_s": self_s("parser.parse"),
        "parser.rename_apart_s": self_s("parser.rename_apart"),
        "parser.tokens": count("parser.tokens", 0),
        "parser.kchars_per_s": count("parser.chars", 0) / 1000 / parse_s if parse_s else 0.0,
        "typesys.check_s": self_s("typesys.check"),
        "typesys.diagnostics": count("typesys.diagnostics", 0),
        "syntax.render_s": self_s("syntax.render"),
        "syntax.render_calls": calls("syntax.render", 0),
        "syntax.rename_localities_s": self_s("syntax.rename_localities"),
        "net.canonical_key_s": self_s("net.canonical_key"),
        "net.canonical_key_calls": calls("net.canonical_key", 0),
        "net.find_tables_s": self_s("net.find_tables"),
        "net.lid_s": self_s("net.lid"),
        "net.canonicalize_s": self_s("net.canonicalize"),
        "net.dump_s": self_s("net.dump"),
        "kernel.match_calls": count("kernel.match", 0),
        "kernel.eval_pred_calls": count("kernel.eval_pred", 0),
        "kernel.join_rows_s": self_s("kernel.join_rows"),
        "values.multiset_builds": count("values.multiset_builds", 0),
        "values.multiset_entries_copied": count("values.multiset_entries_copied", 0),
        "semantics.enumerate_self_s": self_s("semantics.enumerate"),
        "semantics.enumerate_calls": calls("semantics.enumerate", 0),
        "semantics.enabled_mean": sum(enabled) / len(enabled) if enabled else 0.0,
        "semantics.successors_built": built,
        "semantics.successor_use_ratio": used / built if built else 0.0,
        "semantics.explore_states": count("semantics.explore_states", 0),
        "semantics.explore_edges": count("semantics.explore_edges", 0),
        "semantics.explore_states_per_s":
            count("semantics.explore_states", 0) / explore_s if explore_s else 0.0,
        "semantics.frontier_max": count("semantics.frontier_max", 0),
    }


def layer_metrics(per_op: list) -> dict:
    """Each layer metric as its median over the traced operations.

    Step percentiles pool every `enumerate_transitions` call of every
    operation: a step is one call, in `run` one scheduler step and in
    `explore` the expansion of one state.
    """
    rows = [_op_metrics(op) for op in per_op]
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    steps_ms = [ns / 1e6 for op in per_op for ns in op["steps_ns"]]
    out["semantics.step_ms_p50"] = _percentile(steps_ms, 0.5)
    out["semantics.step_ms_p90"] = _percentile(steps_ms, 0.9)
    return out
