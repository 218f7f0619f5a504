"""Command-line behavior: exit codes, determinism, output formats."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from kdb.cli import EXIT_BROKEN_PIPE, main

ROOT = pathlib.Path(__file__).parent.parent
CORPUS = ROOT / "corpus"
DEPT = str(CORPUS / "dept_stores.kdb")
BAD = str(CORPUS / "bad_insert.kdb")

# Unchecked systems that bind a variable to the wrong sort: a select's table
# variable inserted as data; an Int bound to a loop's table variable, and a
# select's table variable passed as an Int argument.
TABLE_AS_DATA = ("schema T : (Int)\nschema U : (Int)\n"
                 "$l :: select(T@$l, (!x), true, (x), !t). insert(U@$l, (t)). nil\n"
                 "|| $l :: table T : (Int) = {(1)} | table U : (Int) = {}")
DATA_AS_TABLE = ("let p(t: Int) := foreach(t, (!y), true, unordered): nil\n"
                 "in $l :: p(1) || $m :: select(table T : (Int) = {(1)}, (!x), true, (x), !t). p(t)")
# A payload multiset of two sorts, which the checker rejects and which,
# unchecked, the monitor of a select's schema projection stops.
MIXED_PAYLOAD = ("schema T : (Int)\n"
                 '$l :: select(T@$l, (!x), true, ({1, "a"}), !t). nil || $l :: table T : (Int) = {}\n')


def write(tmp_path, text: str) -> str:
    f = tmp_path / "system.kdb"
    f.write_text(text)
    return str(f)


def kdb_env(**extra) -> dict:
    """The environment of a `python -m kdb.cli` subprocess, with `src` on its path."""
    path = os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    return {**os.environ, "PYTHONPATH": path, **extra}


class TestCheck:
    def test_well_typed_file(self, capsys):
        assert main(["check", DEPT]) == 0
        assert "ok" in capsys.readouterr().out

    def test_ill_typed_file(self, capsys):
        assert main(["check", BAD]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "KLD" in err

    def test_missing_file(self, capsys):
        assert main(["check", "no_such_file.kdb"]) == 2

    def test_file_not_utf8(self, tmp_path, capsys):
        f = tmp_path / "latin1.kdb"
        f.write_bytes(b"$l :: nil\xff\n")
        assert main(["check", str(f)]) == 2
        assert capsys.readouterr().err == f"{f}: cannot read file: not UTF-8 at byte 9\n"

    def test_parse_error(self, tmp_path, capsys):
        f = tmp_path / "broken.kdb"
        f.write_text("$l :: insert(")
        assert main(["check", str(f)]) == 2

    def test_json_diagnostics(self, capsys):
        assert main(["check", BAD, "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data[0]["kind"] == "payload-format"
        assert data[0]["span"]

    def test_first_bad_row_in_row_order_under_every_hash_seed(self, tmp_path):
        # Rows are checked in the order the table lists them, not in the
        # hash order of strings, which the seed changes.
        f = write(tmp_path, 'schema T : (Int)\n$l :: table T : (Int) = '
                            '{("a"), ("b"), ("c"), ("d"), ("e"), ("f")}')
        for seed in range(6):
            done = subprocess.run([sys.executable, "-m", "kdb.cli", "check", f],
                                  capture_output=True, text=True, timeout=60,
                                  env=kdb_env(PYTHONHASHSEED=str(seed)))
            assert (done.returncode, done.stderr) == \
                (1, f'{f}:2:7: row ("a") does not fit the table schema\n'), seed


@pytest.mark.parametrize("command", ["run", "explore", "dump"])
def test_a_parse_error_exits_before_the_command_runs(tmp_path, capsys, command):
    path = write(tmp_path, "schema T : (Int)\n$l :: insert(T@$l, (1). nil\n")
    assert main([command, path]) == 2
    assert capsys.readouterr() == ("", f"{path}:2:23: unexpected '.' (expected ))\n")


class TestRun:
    def test_case_study_quiescent(self, capsys):
        assert main(["run", DEPT]) == 0
        out = capsys.readouterr().out
        assert "terminal: quiescent" in out

    def test_refuses_ill_typed_without_flag(self, capsys):
        assert main(["run", BAD]) == 1
        assert "refusing" in capsys.readouterr().err

    def test_unchecked_run_hits_the_monitor(self, capsys):
        assert main(["run", BAD, "--unchecked"]) == 3

    @pytest.mark.parametrize("text", ["ERR", "$l :: nil || ERR"])
    def test_unchecked_run_of_the_error_net_ends_in_err(self, tmp_path, capsys, text):
        assert main(["run", write(tmp_path, text), "--unchecked"]) == 3
        assert capsys.readouterr().out == "terminal: err after 0 step(s)\n[]\n"

    def test_unchecked_malformed_payload_is_monitored(self, tmp_path, capsys):
        path = write(tmp_path, MIXED_PAYLOAD)
        assert main(["check", path]) == 1
        assert capsys.readouterr().err == f"{path}:2:33: multiset elements must share one type\n"
        trace = tmp_path / "trace.jsonl"
        assert main(["run", path, "--unchecked", "--trace", str(trace)]) == 3
        assert "terminal: err after 1 step(s)\n" in capsys.readouterr().out
        first = json.loads(trace.read_text().splitlines()[0])
        assert (first["rule"], first["detail"]) == \
            ("SEL", "select: malformed payload for schema projection")

    def test_unchecked_table_used_as_data_is_monitored(self, tmp_path, capsys):
        assert main(["run", write(tmp_path, TABLE_AS_DATA), "--unchecked"]) == 3
        assert "terminal: err" in capsys.readouterr().out

    def test_refuses_a_repeated_table_without_flag(self, tmp_path, capsys):
        # Run unchecked, two tables T@l would switch off the `lid` check.
        path = write(tmp_path, "$l :: table T : (Int) = {} || $l :: table T : (Int) = {(1)}")
        assert main(["run", path]) == 1
        assert capsys.readouterr().err == (
            f"{path}:1:37: table 'T' already stands at $l\n"
            f"{path}: refusing to run an ill-typed system (pass --unchecked to run anyway)\n")
        assert main(["run", path, "--unchecked"]) == 0
        assert "terminal: quiescent after 0 step(s)" in capsys.readouterr().out

    def test_unchecked_data_bound_to_a_table_variable_is_stuck(self, tmp_path, capsys):
        assert main(["run", write(tmp_path, DATA_AS_TABLE), "--unchecked"]) == 0
        out = capsys.readouterr().out
        assert "disabled: l :: foreach(t, (!y), true, unordered): nil" in out
        assert "disabled: m :: p(t)\n" in out

    @pytest.mark.parametrize("prefix", ["", "(new $l) "])
    def test_restriction_keeps_the_failure_reported(self, tmp_path, prefix):
        # The first row that fails decides the error; restricting $l must not
        # reorder the rows.
        text = ("schema T : (Loc)\n" + prefix + "$l :: table T : (Loc) = {($l), (1)}"
                " | select(T@$l, (!@u), u = 1, (u), !t). nil")
        path = tmp_path / "t.jsonl"
        assert main(["run", write(tmp_path, text), "--unchecked", "--trace", str(path)]) == 3
        first = json.loads(path.read_text().splitlines()[0])
        assert first["detail"] == "select: evaluation error"

    def test_unwritable_trace(self, tmp_path, capsys):
        path = tmp_path / "missing" / "t.jsonl"
        assert main(["run", DEPT, "--trace", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"{path}: cannot write file: No such file or directory\n")

    def test_step_limit(self, tmp_path, capsys):
        f = tmp_path / "spin.kdb"
        f.write_text("schema T : (Int)\n"
                     "let loop() := insert(T@$l, (1)). loop()\n"
                     "in $l :: table T : (Int) = {} || $l :: loop()")
        assert main(["run", str(f), "--max-steps", "5"]) == 4

    def test_negative_step_limit_is_rejected(self, capsys):
        assert main(["run", DEPT, "--max-steps", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "--max-steps must be nonnegative\n"

    def test_trace_is_deterministic(self, tmp_path):
        t1 = tmp_path / "a.jsonl"
        t2 = tmp_path / "b.jsonl"
        assert main(["run", DEPT, "--seed", "7", "--trace", str(t1)]) == 0
        assert main(["run", DEPT, "--seed", "7", "--trace", str(t2)]) == 0
        assert t1.read_bytes() == t2.read_bytes()

    def test_trace_format(self, tmp_path):
        path = tmp_path / "t.jsonl"
        main(["run", DEPT, "--trace", str(path)])
        lines = path.read_text().splitlines()
        first = json.loads(lines[0])
        assert set(first) == {"index", "rule", "actor", "detail", "lid", "ok"}
        last = json.loads(lines[-1])
        assert last["terminal"] == "quiescent"
        assert isinstance(last["tables"], list)

    def test_error_step_visible_in_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        assert main(["run", BAD, "--unchecked", "--trace", str(path)]) == 3
        lines = [json.loads(x) for x in path.read_text().splitlines()]
        assert lines[0]["rule"] == "INS"
        assert lines[0]["ok"] is False
        assert lines[-1]["terminal"] == "err"

    def test_a_closed_pipe_ends_the_run_without_a_traceback(self):
        # The read end is closed before kdb starts, so its first write to
        # stdout meets a broken pipe, as `kdb run ... | head -n 1` may.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "kdb.cli", "run", DEPT, "--max-steps", "0"],
                stdout=write_end, stderr=subprocess.PIPE, timeout=60, env=kdb_env())
        finally:
            os.close(write_end)
        assert done.stderr == b""
        assert done.returncode == EXIT_BROKEN_PIPE

    def test_disabled_actions_reported(self, tmp_path, capsys):
        f = tmp_path / "stuck.kdb"
        f.write_text("schema T : (Int)\n"
                     "$l1 :: insert(T@$l9, (1)). nil\n"
                     "|| $l1 :: table T : (Int) = {}")
        assert main(["run", str(f)]) == 0
        assert "disabled: l1 ::" in capsys.readouterr().out


class TestExplore:
    def test_case_study_has_no_reachable_error(self, capsys):
        assert main(["explore", DEPT]) == 0
        out = capsys.readouterr().out
        assert "ERR reachable: no" in out

    def test_bad_insert_error_reachable(self, capsys):
        assert main(["explore", BAD, "--unchecked"]) == 0
        assert "ERR reachable: yes" in capsys.readouterr().out

    @pytest.mark.parametrize("text, err", [pytest.param(TABLE_AS_DATA, "yes", id="table-as-data"),
                                           pytest.param(DATA_AS_TABLE, "no", id="data-as-table")])
    def test_unchecked_wrong_sort_bindings(self, tmp_path, capsys, text, err):
        assert main(["explore", write(tmp_path, text), "--unchecked"]) == 0
        assert f"ERR reachable: {err}" in capsys.readouterr().out

    def test_unwritable_dot(self, tmp_path, capsys):
        path = tmp_path / "missing" / "g.dot"
        assert main(["explore", DEPT, "--dot", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"{path}: cannot write file: No such file or directory\n")

    def test_empty_net_single_state(self, tmp_path, capsys):
        f = tmp_path / "empty.kdb"
        f.write_text("nil")
        assert main(["explore", str(f)]) == 0
        assert "states: 1" in capsys.readouterr().out

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_bound_below_one_is_rejected(self, bound, capsys):
        assert main(["explore", DEPT, "--bound", bound]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--bound must be at least 1" in captured.err

    def test_bound_above_the_cap_is_capped(self, tmp_path, capsys):
        assert main(["explore", write(tmp_path, "nil"), "--bound", "1000001"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "bound capped at 1000000\n"
        assert "states: 1\n" in captured.out

    def test_bound_one_truncates(self, capsys):
        assert main(["explore", DEPT, "--bound", "1"]) == 0
        assert "states: 1 (truncated)" in capsys.readouterr().out

    def test_dot_output(self, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        assert main(["explore", BAD, "--unchecked", "--dot", str(dot)]) == 0
        text = dot.read_text()
        assert text.startswith("digraph")
        assert "INS" in text


class TestDump:
    def test_initial_tables(self, capsys):
        assert main(["dump", DEPT]) == 0
        data = json.loads(capsys.readouterr().out)
        tids = {d["tid"] for d in data}
        assert tids == {"Stores", "KLD", "LAM"}
        kld = next(d for d in data if d["tid"] == "KLD")
        assert len(kld["rows"]) == 7

    def test_color_toggle(self, capsys, monkeypatch):
        monkeypatch.setenv("KDB_COLOR", "1")
        assert main(["check", BAD]) == 1
        assert "\x1b[31m" in capsys.readouterr().err
        monkeypatch.setenv("KDB_COLOR", "0")
        assert main(["check", BAD]) == 1
        assert "\x1b[31m" not in capsys.readouterr().err


def modules_loaded_by(code: str) -> set:
    """The modules that running `code` in a fresh interpreter imports.

    `-S` keeps `site` and whatever it imports out, so only the modules that
    `code` pulls in are counted."""
    probe = ("import json, sys\n"
             f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
             "before = set(sys.modules)\n"
             f"{code}\n"
             "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          timeout=60, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


class TestImports:
    def test_importing_the_cli_loads_no_dataclasses(self):
        loaded = modules_loaded_by("import kdb.cli")
        assert "kdb.cli" in loaded
        assert "dataclasses" not in loaded

    def test_type_hints_resolve_for_a_type_checker(self):
        # The engine's module is imported for a type checker only; where
        # TYPE_CHECKING holds, the writers' hints name its classes.
        loaded = modules_loaded_by(
            "import typing\ntyping.TYPE_CHECKING = True\nimport kdb.cli, kdb.semantics as m\n"
            "hints = typing.get_type_hints\n"
            "assert hints(kdb.cli._write_trace)['trace'] is m.Trace\n"
            "assert hints(kdb.cli._write_dot)['result'] is m.ExploreResult")
        assert "kdb.semantics" in loaded

    def test_check_loads_neither_the_engine_nor_canonical_nets(self):
        loaded = modules_loaded_by(f"import kdb.cli\nkdb.cli.main(['check', {DEPT!r}])")
        assert {"kdb.parser", "kdb.typesys"} <= loaded
        assert not loaded & {"kdb.semantics", "kdb.net", "dataclasses"}
