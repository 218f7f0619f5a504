"""Tests of the benchmark itself: generators, oracle, tracer and failure handling.

Run from the repository root: python3 -m pytest perfbench -q
"""

import contextlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import kdb.cli  # noqa: E402
import workloads  # noqa: E402
from tracer import KDB_MODULES, Tracer, layer_metrics  # noqa: E402
from worker import Client  # noqa: E402

NAMES = sorted(workloads.GENERATORS)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a size that runs in well under a second."""
    for name, value in {
        "CHECK_PROCEDURES": 6, "CHECK_BLOCKS": 1, "CHECK_PLANTED_EVERY": 2,
        "DEEP_CHAIN_ACTIONS": 30, "RUN_BIG_ROWS": 12, "RUN_SMALL_ROWS": 4,
        "RUN_WRITERS": 2, "RUN_READERS": 2, "RUN_READER_ROWS": 2,
        "EXPLORE_RESTRICTED": (1, 2), "EXPLORE_SHARED": (1, 1),
    }.items():
        monkeypatch.setattr(workloads, name, value)


def _client(workload, tmp_path) -> Client:
    for name, text in workload.files.items():
        (tmp_path / name).write_text(text)
    return Client(kdb.cli, str(tmp_path), seed_base=11)


def _outputs(client: Client, op) -> tuple:
    """Run an operation and return its stdout and output files, byte for byte."""
    out = io.StringIO()
    argv = [a.replace("{dir}", client.workdir) for a in op.argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = kdb.cli.main(argv + (["--seed", "3"] if op.vary_seed else []))
    files = {}
    for name in ("trace.jsonl", "states.dot"):
        path = os.path.join(client.workdir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                files[name] = fh.read()
            os.remove(path)
    return code, out.getvalue(), files


@pytest.mark.parametrize("name", NAMES)
def test_generator_is_deterministic_per_seed(name):
    gen = workloads.GENERATORS[name]
    assert gen(5) == gen(5)
    assert gen(5).files != gen(6).files


@pytest.mark.parametrize("name", NAMES)
def test_oracle_agrees_with_kdb_on_tiny_instance(name, tiny, tmp_path):
    workload = workloads.GENERATORS[name](3)
    client = _client(workload, tmp_path)
    for op in workload.ops:
        for _ in range(2 if op.vary_seed else 1):
            client.call(op)
    assert client.failures == []
    assert client.attempted >= len(workload.ops)


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_output_is_byte_identical(name, tiny, tmp_path):
    workload = workloads.GENERATORS[name](4)
    client = _client(workload, tmp_path)
    timed = [op for op in workload.ops if op.timed]
    plain = [_outputs(client, op) for op in timed]
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for i, op in enumerate(timed):
            tracer.begin_op(i)
            traced.append(_outputs(client, op))
            tracer.end_op()
    finally:
        tracer.uninstall()
    assert traced == plain
    layers = layer_metrics(tracer.per_op)
    if name == "explore_restricted":
        assert layers["semantics.explore_states"] == timed[0].dot[0]
        assert layers["semantics.explore_edges"] == timed[0].dot[1]
    if name == "check_procs":
        expected = json.loads(timed[0].stdout)
        assert layers["typesys.diagnostics"] == len(expected)
        assert layers["semantics.enumerate_calls"] == 0


def test_no_wrapper_is_left_patched(tiny, tmp_path):
    def snapshot():
        modules = [importlib.import_module(m) for m in KDB_MODULES]
        attrs = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
        attrs["Multiset.__init__"] = sys.modules["kdb.values"].Multiset.__init__
        return attrs

    before = snapshot()
    workload = workloads.GENERATORS["run_tables"](2)
    client = _client(workload, tmp_path)
    tracer = Tracer()
    tracer.install()
    assert snapshot() != before
    try:
        tracer.begin_op(0)
        client.call(workload.ops[0])
        tracer.end_op()
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert client.failures == []


def test_deep_chain_is_a_failed_operation_today(tmp_path):
    """ROADMAP item 2: a legal chain of thousands of actions raises RecursionError.

    When that defect is fixed, this operation passes and this test is updated.
    """
    workload = workloads.GENERATORS["check_procs"](1)
    client = _client(workload, tmp_path)
    deep = [op for op in workload.ops if not op.timed]
    assert [op.label for op in deep] == ["deep_chain"]
    client.call(deep[0])
    assert client.failures == [("deep_chain", "raised RecursionError", True)]


def test_run_fails_without_kdb_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run_tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
