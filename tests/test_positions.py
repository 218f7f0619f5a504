"""Source positions in what the front end reports.

A node keeps the offset of its first token, and a line:col is computed
only for an error or a diagnostic that is reported.  These tables pin the
text of both at the layouts where a line table can go wrong: the first
column of the first line, after comment lines and blank lines, after tabs
and `\\r\\n` line ends, at the last token and at the end of input.
"""

import pathlib

import pytest

from kdb import syntax as s
from kdb.nodes import Record
from kdb.parser import ParseError, parse_system
from kdb.typesys import check_system

PROCESS = ("expected a process (expected a procedure call or aggr or create or delete"
           " or drop or eval or foreach or insert or nil or select or update)")

PARSE_ERRORS = [
    pytest.param("~", "1:1: unexpected character '~'", id="lex-1:1"),
    pytest.param("@", "1:1: expected a net (expected $ or ( or ERR or nil)", id="parse-1:1"),
    pytest.param("// one\n\n// two\n\n  $l :: @", "5:9: " + PROCESS, id="comments-blanks"),
    pytest.param("\t$l ::\t@", "1:8: " + PROCESS, id="tabs"),
    pytest.param("$l ::\r\n  insert(T@$l, (1))\r\n",
                 "3:1: unexpected end of input (expected '.' and a continuation)", id="crlf-eof"),
    pytest.param('$l ::\r\n  insert(T@$l, ("a\\qb")). nil', "2:17: unknown escape \\q",
                 id="crlf-lex"),
    pytest.param("let f() := nil\r\nand f() := nil\r\nin $l :: nil",
                 "2:5: procedure 'f' defined twice", id="crlf-duplicate-procedure"),
    pytest.param("$l ::\n\t\tdelete(T@$l, (!x,\t!x), true). nil",
                 "2:21: template binds 'x' twice; binders must be linear", id="tabs-template"),
    pytest.param("// calls\n\n$l :: nil ||\n  $l :: missing(1)",
                 "4:9: call to undefined procedure 'missing'", id="comments-call"),
    pytest.param("$l :: nil nil", "1:11: unexpected 'nil' (expected end of input)",
                 id="last-token"),
    pytest.param("$l ::", "1:6: " + PROCESS, id="eof"),
    pytest.param("$l :: // trailing\n", "2:1: " + PROCESS, id="eof-after-comment"),
    pytest.param("$l :: insert(T@$l, (1)). nil ||\t",
                 "1:33: expected a net (expected $ or ( or ERR or nil)", id="eof-after-tab"),
    # A text that starts a shape the parser reads inline and then breaks
    # it: the error is the one the rule's general code raises.
    pytest.param("$l :: delete(T@$l, (!x, !x), true). nil",
                 "1:25: template binds 'x' twice; binders must be linear", id="template-twice"),
    pytest.param("$l :: delete(T@$l, (!x, !@x), true). nil",
                 "1:25: template binds 'x' twice; binders must be linear",
                 id="template-twice-loc"),
    pytest.param("$l :: delete(T@$l, (!x, 1), true). nil",
                 "1:25: expected a template field (expected !@u or !x)", id="template-constant"),
    pytest.param("$l :: delete(T@$l, (!x, !y", "1:27: unexpected end of input (expected ))",
                 id="template-eof"),
    pytest.param("$l :: insert(T@", "1:16: expected a locality (expected $ or a locality variable)",
                 id="target-eof"),
    pytest.param("$l :: insert(T@$", "1:17: unexpected end of input (expected locality name)",
                 id="target-sigil-eof"),
    pytest.param("$l :: insert(T@$l, (a, b +", "1:27: expected an expression",
                 id="tuple-operator-eof"),
    pytest.param("$l :: insert(T@$l, (1, -", "1:24: expected an expression", id="tuple-minus-eof"),
    pytest.param("$l :: insert(T@$l, (1, -)). nil", "1:24: expected an expression",
                 id="tuple-minus"),
    pytest.param("$l :: table T : (Int, Int) = {(1, -", "1:35: expected a constant value",
                 id="row-minus-eof"),
    pytest.param("$l :: table T : (Int, Int) = {(1, -)}", "1:35: expected a constant value",
                 id="row-minus"),
    pytest.param('$l :: table T : (Int, String) = {(1, "a"',
                 "1:41: unexpected end of input (expected ))", id="row-eof"),
    pytest.param("$l :: delete(T@$l, (!x), x <", "1:29: expected an expression",
                 id="comparison-eof"),
]


@pytest.mark.parametrize("src, text", PARSE_ERRORS)
def test_parse_error_position(src, text):
    with pytest.raises(ParseError) as exc:
        parse_system(src)
    assert str(exc.value) == text


# Texts that the parser's inline shapes do not cover, so the general code
# reads them: what each parses to, rendered, and the class and span of
# every node of the tree.
GENERAL_PATH = [
    pytest.param("$l :: delete(T@$l, (!x, !y), x < y + 1). nil",
                 "$l :: delete(T@$l, (!x, !y), x < (y + 1)). nil",
                 "Node 0, ProcComp 6, Prefix 6, Delete 6, Template 19, BindData 20, BindData 24,"
                 " Cmp 29, Var 29, Arith 35, Var 33, VLoc None, NilProc 41", id="comparison-arith"),
    pytest.param("$l :: delete(T@$l, (!x), x < -1). nil",
                 "$l :: delete(T@$l, (!x), x < -1). nil",
                 "Node 0, ProcComp 6, Prefix 6, Delete 6, Template 19, BindData 20, Cmp 25,"
                 " Var 25, VLoc None, NilProc 34", id="comparison-negative"),
    pytest.param("$l :: delete(T@$l, (!x), x + 1 < (y)). nil",
                 "$l :: delete(T@$l, (!x), (x + 1) < y). nil",
                 "Node 0, ProcComp 6, Prefix 6, Delete 6, Template 19, BindData 20, Cmp 25,"
                 " Arith 27, Var 25, Var 34, VLoc None, NilProc 39", id="comparison-left-arith"),
    pytest.param("$l :: table T : (Int, Loc, Id, {Int}) = {(-1, $l, T, {1, 2}), (1, $m, U, {3})}",
                 "$l :: table T : (Int, Loc, Id, {Int}) = {(-1, $l, T, {1, 2}), (1, $m, U, {3})}",
                 "Node 0, TableComp 6, Interface None, Base None, Base None, Base None, MSet None",
                 id="rows"),
    pytest.param("$l :: insert(T@$l, (-1, $l, T, {1, 2}, a ++ b)). nil",
                 "$l :: insert(T@$l, (-1, $l, T, {1, 2}, (a ++ b))). nil",
                 "Node 0, ProcComp 6, Prefix 6, Insert 6, Tuple 19, VLoc None, VTid None,"
                 " MultisetLit 31, Arith 41, Var 39, Var 44, VLoc None, NilProc 49", id="tuple"),
]


@pytest.mark.parametrize("src, text, spans", GENERAL_PATH)
def test_general_path(src, text, spans):
    system = parse_system(src)
    assert s.render(system) == text
    assert ", ".join(f"{n.__class__.__name__} {getattr(n, 'span', None)}"
                     for n in _nodes(system.main_net)) == spans


DIAGNOSTICS = [
    pytest.param("ERR", ["1:1: the error net is never well-typed"], id="1:1"),
    pytest.param("// c\n\n// d\n\nERR", ["5:1: the error net is never well-typed"],
                 id="comments-blanks"),
    pytest.param("\t$l ::\tinsert(T@$l, (1)). nil", ["1:8: no schema known for table 'T'"],
                 id="tabs"),
    pytest.param("$l :: nil ||\r\n$l :: insert(U@$l, (1)). nil",
                 ["2:7: no schema known for table 'U'"], id="crlf"),
    pytest.param("$l :: table T : (Int) = {} ||\r\n\t$m :: table T : (String) = {}",
                 ["2:8: table 'T' is used with two different schemas"
                  " (expected (Int), found (String))",
                  "2:8: table 'T' carries a different schema (expected (Int), found (String))"],
                 id="crlf-tabs-schema-map"),
    pytest.param("$l :: nil || ERR", ["1:14: the error net is never well-typed"],
                 id="last-token"),
    pytest.param("$l :: nil\n// end\n|| ERR // last\n",
                 ["3:4: the error net is never well-typed"], id="last-token-before-comment"),
    pytest.param("$l :: insert(T@$l, (x)). nil",
                 ["1:7: no schema known for table 'T'", "1:21: unbound variable 'x'",
                  "the net has free variables: x"], id="spanless"),
]


@pytest.mark.parametrize("src, texts", DIAGNOSTICS)
def test_diagnostic_position(src, texts):
    assert [str(d) for d in check_system(parse_system(src))] == texts


CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def _nodes(x):
    """Every node reachable from `x`."""
    if isinstance(x, Record):
        yield x
        for name in x._fields:
            yield from _nodes(getattr(x, name))
    elif isinstance(x, (tuple, list)):
        for y in x:
            yield from _nodes(y)
    elif isinstance(x, dict):
        for y in x.values():
            yield from _nodes(y)


@pytest.fixture
def built(monkeypatch):
    """Counts of the Spans and line tables built while the test runs."""
    counts = {"spans": 0, "line tables": 0}
    span_init, line_starts = s.Span.__init__, s.line_starts

    def counted_span(self, *args):
        counts["spans"] += 1
        span_init(self, *args)

    def counted_line_starts(source):
        counts["line tables"] += 1
        return line_starts(source)

    monkeypatch.setattr(s.Span, "__init__", counted_span)
    monkeypatch.setattr(s, "line_starts", counted_line_starts)
    return counts


@pytest.mark.parametrize("fname", ["dept_stores.kdb", "bad_insert.kdb"])
def test_a_parse_builds_no_span(built, fname):
    system = parse_system((CORPUS / fname).read_text(encoding="utf-8"))
    assert built == {"spans": 0, "line tables": 0}
    assert not any(isinstance(getattr(n, "span", None), s.Span) for n in _nodes(system))


def test_a_check_builds_a_span_per_diagnostic_and_one_line_table(built):
    src = ("$l :: insert(T@$l, (1)). nil\n|| ERR\n"
           "|| $m :: { table V : (Int) = {} | insert(U@$m, (1)). nil }\n"
           "|| $n :: table V : (String) = {}\n")
    system = parse_system(src)
    diags = check_system(system)
    assert [str(d) for d in diags] == [
        "4:10: table 'V' is used with two different schemas (expected (Int), found (String))",
        "1:7: no schema known for table 'T'",
        "2:4: the error net is never well-typed",
        "3:35: no schema known for table 'U'",
        "4:10: table 'V' carries a different schema (expected (Int), found (String))",
    ]
    assert built == {"spans": len(diags), "line tables": 1}
    built.update(spans=0, **{"line tables": 0})
    assert check_system(parse_system((CORPUS / "dept_stores.kdb").read_text())) == []
    assert built == {"spans": 0, "line tables": 0}
