"""Native cells: an Int cell is an `int`, a String cell a `str`, a row a tuple.

These pin the places where a native cell behaves unlike a node would:
- `0` and `""` are false, so no code may test a value for truth to tell it
  from an evaluation error;
- a `str` constant is no finished text, so `render` quotes it in every
  expression position and at the top level;
- an Id or a Loc keeps its own class, so it never equals a String of the
  same text, even in a table the checker would reject;
- strings order by code point (the order of their UTF-8 bytes) wherever
  rows are ordered: in a dump, in a `lex` loop and in an `asc` loop.
"""

import json

import pytest

from kdb import kernel as k
from kdb import syntax as s
from kdb.cli import main
from kdb.net import canonicalize, dump_tables, find_tables
from kdb.parser import parse_system
from kdb.semantics import run
from kdb.typesys import check_system
from kdb.values import Multiset, ValueTuple, VLoc, VTid, sorted_rows


def write(tmp_path, text: str) -> str:
    f = tmp_path / "system.kdb"
    f.write_text(text, encoding="utf-8")
    return str(f)


def rows_of(cn, loc: str, tid: str) -> list:
    (table,) = find_tables(cn, loc, tid)
    return sorted_rows(table.rows)


class TestFalseValues:
    # Every cell below is `0` or `""`, computed by `x - x` or `"" ++ ""`.
    ZEROS = (
        "schema T : (String, Int)\nschema A : (Int)\n"
        "$l :: { table T : (String, Int) = {(\"x\", 7)} | table A : (Int) = {}\n"
        "  | insert(T@$l, (\"\" ++ \"\", 5 - 5)).\n"
        "    update(T@$l, (!a, !b), b = 7, (\"\" ++ \"\", b - b)).\n"
        "    select(T@$l, (!c, !d), c ++ \"\" = \"\" && d - d = 0, (d, c), !t).\n"
        "    (foreach(t, (!e, !f), f = \"\", unordered): insert(A@$l, (e + e)). nil;\n"
        "     aggr(T@$l, (!g, !h), g = \"\", sum[2], (!m)). insert(A@$l, (m - m)). nil) }\n")

    def test_the_kernel_builds_a_row_of_false_cells(self):
        t = s.Tuple((s.Arith("-", 1, 1), s.Arith("++", "", "")))
        assert k.eval_tuple(t) == ValueTuple((0, ""))
        assert k.eval_tuple(t).__class__ is ValueTuple

    def test_false_cells_insert_update_select_and_aggregate(self):
        system = parse_system(self.ZEROS)
        assert check_system(system) == []
        trace = run(system, seed=0)
        assert trace.terminal == "quiescent"
        assert [label.detail for label, _ in trace.steps] == [
            'insert ("", 0) into T@l', "update 1 row(s) of T@l", "select 2 row(s) into !t",
            *['[FOR_TT] iterate on (0, "")', "[SEQ_FF] [INS] insert (0) into A@l"] * 2,
            "[FOR_FF] loop exhausted", "aggregate over T@l -> (0)", "insert (0) into A@l"]
        final = trace.final()
        assert rows_of(final, "l", "T") == [("", 0), ("", 0)]
        assert rows_of(final, "l", "A") == [(0,), (0,), (0,)]


class TestStringConstantsRender:
    X = s.Var("x")

    @pytest.mark.parametrize("node, text", [
        pytest.param("a b", '"a b"', id="top-level"),
        pytest.param("", '""', id="top-level-empty"),
        pytest.param(s.Cmp("=", "a", X), '"a" = x', id="Cmp-left"),
        pytest.param(s.Cmp("<", X, "a"), 'x < "a"', id="Cmp-right"),
        pytest.param(s.Cmp("in", "a", s.MultisetLit(("a", "b"))), '"a" in {"a", "b"}', id="Cmp-in"),
        pytest.param(s.Arith("++", "a", X), '("a" ++ x)', id="Arith-left"),
        pytest.param(s.Arith("++", X, "a"), '(x ++ "a")', id="Arith-right"),
        pytest.param(s.MultisetLit(("",)), '{""}', id="MultisetLit"),
        pytest.param(s.Tuple(("a", 1, "")), '("a", 1, "")', id="Tuple"),
        pytest.param(s.CallProc("p", ('q"', 1)), 'p("q\\"", 1)', id="CallProc"),
        pytest.param(s.Not(s.Cmp("!=", "a", "b")), '!("a" != "b")', id="Cmp-under-Not"),
    ])
    def test_a_string_constant_renders_quoted(self, node, text):
        assert s.render(node) == text

    def test_every_position_parses_back(self):
        source = (
            "schema T : (String)\n"
            "let p(x: String) := insert(T@$l, (x ++ \"!\")). nil\n"
            "in $l :: { table T : (String) = {(\"r\")}\n"
            "  | insert(T@$l, (\"a\" ++ \"b\")). delete(T@$l, (!y), \"a\" = y).\n"
            "    update(T@$l, (!z), (z in {\"a\", \"\"}) && !(z < \"b\"), (\"\" ++ z)). p(\"q\") }\n")
        system = parse_system(source)
        assert check_system(system) == []
        text = s.render(system)
        again = parse_system(text)
        assert again == system and s.render(again) == text
        for quoted in ('("a" ++ "b")', '"a" = y', '{"a", ""}', '(z < "b")', '("" ++ z)',
                       'p("q")', '(x ++ "!")'):
            assert quoted in text


class TestKinds:
    def test_a_string_an_id_and_a_loc_of_one_text_are_three_rows(self):
        rows = Multiset([ValueTuple(("a",)), ValueTuple((VTid("a"),)), ValueTuple((VLoc("a"),))])
        assert len(rows.support()) == 3
        table = s.TableComp(s.Interface("T", (s.STRING,)), rows)
        assert s.render(table) == 'table T : (String) = {("a"), (a), ($a)}'
        writer = s.Prefix(s.Insert("U", s.Tuple((1,)), VLoc("l")), s.NilProc())
        net = s.ParNet(s.Node("l", table), s.ParNet(
            s.Node("l", s.TableComp(s.Interface("U", (s.INT,)), Multiset())),
            s.Node("l", s.ProcComp(writer))))
        system = s.System(procedures={}, schema_decls=(), main_net=net)
        trace = run(system, seed=0)
        assert trace.terminal == "quiescent" and len(trace.steps) == 1
        (dumped,) = [d for d in dump_tables(trace.final()) if d["tid"] == "T"]
        assert dumped["rows"] == [["a"], ["a"], ["a"]]
        assert len(rows_of(trace.final(), "l", "T")) == 3

    MIXED = ("schema T : (String)\nschema U : (Int)\n"
             "$l :: { table T : (String) = {($a), (\"a\"), (A), (\"A\")}\n"
             "  | table U : (Int) = {} | insert(U@$l, (1)). nil }\n")

    def test_an_unchecked_run_keeps_the_kinds_apart(self, tmp_path, capsys):
        path = write(tmp_path, self.MIXED)
        assert main(["check", path]) == 1
        capsys.readouterr()
        assert main(["run", path, "--unchecked"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("terminal: quiescent after 1 step(s)\n")
        tables = json.loads(out.split("\n", 1)[1])
        # Strings first, then the Id, then the Loc.
        assert tables[0]["tid"] == "T" and tables[0]["rows"] == [["A"], ["a"], ["A"], ["a"]]

    def test_dump_shows_every_kind(self, tmp_path, capsys):
        assert main(["dump", write(tmp_path, self.MIXED)]) == 0
        tables = json.loads(capsys.readouterr().out)
        assert tables[0]["rows"] == [["A"], ["a"], ["A"], ["a"]]
        cn = canonicalize(parse_system(self.MIXED).main_net)
        assert rows_of(cn, "l", "T") == [("A",), ("a",), (VTid("A"),), (VLoc("a"),)]


class TestCodePointOrder:
    # Code-point order, which is the order of the UTF-8 bytes; UTF-16 would
    # put U+1F600 (a surrogate pair, D83D DE00) before U+FB00.
    ORDER = ["Z", "a", "z", "é", "Ω", "ﬀ", "\U0001f600"]
    SOURCE = (
        "schema T : (String, Int)\nschema L : (String)\n"
        "$l :: { table T : (String, Int) = {"
        + ", ".join(f'("{c}", {i})' for i, c in enumerate(reversed(ORDER))) + "}\n"
        "  | table L : (String) = {}\n"
        "  | select(T@$l, (!s, !n), true, (s, n), !t).\n"
        "    (foreach(t, (!s, !n), true, lex): insert(L@$l, (s)). nil;\n"
        "     foreach(t, (!s, !n), true, asc[1]): insert(L@$l, (s)). nil) }\n")

    def test_dump(self, tmp_path, capsys):
        assert main(["dump", write(tmp_path, self.SOURCE)]) == 0
        (l_table, t_table) = json.loads(capsys.readouterr().out)
        assert [row[0] for row in t_table["rows"]] == self.ORDER

    def test_lex_and_asc_loops(self):
        system = parse_system(self.SOURCE)
        assert check_system(system) == []
        trace = run(system, seed=0)
        assert trace.terminal == "quiescent"
        picked = [label.detail.rsplit("iterate on ", 1)[1] for label, _ in trace.steps
                  if "iterate on " in label.detail]
        want = [s.render_row(ValueTuple((c, len(self.ORDER) - 1 - i)))
                for i, c in enumerate(self.ORDER)]
        assert picked == want + want  # the lex loop, then the asc loop
