"""Lexer and parser for the `.kdb` concrete syntax.

Lexical conventions: table identifiers are capitalized (`KLD`), variables are
lowercase (`tp`, `tbv`), locality names carry a `$` sigil (`$l1`).
Template fields bind data with `!x` and locality variables with `!@u`, so
the parser can tell the two kinds of binders apart without type
information.

`tokenize` splits the source at its tokens with one regular expression, a
chunk of lines at a time, and decides the kind and text of each distinct
token text once.  It keeps the tokens in a `Tokens` store of three parallel
sequences: kinds, texts and char offsets.  The parser names a token by its
index and reads `kinds[i]`, `texts[i]` and `offsets[i]`; a node's span is
the offset of its first token.  A line and column are computed only for a
ParseError, against a line table built at most once per parse.  The store
ends in one EOF token, which the parser never reads past.  Keyword and
operator choices are table lookups on the kind.

The descent reads every name as written, variables and localities alike,
so it builds the only tree.  A variable use is a `syntax.Var`, or a
`TableByVar` in a table position, and a binder keeps its text.  Which binder
a use reads is the rule of `syntax.CHILDREN`: the nearest one whose scope
holds it, as an inner binder hides an outer one of the same name.  The
checker, `syntax.free_vars` and `kernel.apply_subst` each apply that rule
in their own `syntax.Scope`; a binding action substitutes only values,
which hold no variable, so no substitution can capture a name and no binder
needs renaming apart.  Restriction scope is `syntax.net_parts`' to decide.
The descent collects the calls: each must name a declared procedure and
pass it as many arguments as it has parameters, and the first bad one in
source order is reported.  It builds a net's `||` spine in a loop, so a
wide net costs no frames.
"""

from __future__ import annotations

import itertools
import re
import struct

from kdb import syntax as s
from kdb.values import Multiset, ValueTuple, VLoc, VSet, VTid


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected=()):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(sorted(expected))

    def __str__(self) -> str:
        base = f"{self.line}:{self.col}: {self.message}"
        if self.expected:
            base += " (expected " + " or ".join(self.expected) + ")"
        return base


KEYWORDS = {
    "nil", "ERR", "true", "in", "sub",
    "insert", "delete", "select", "update", "aggr", "create", "drop", "eval",
    "foreach", "new", "let", "and", "schema", "table",
    "unordered", "asc", "desc", "lex",
    "sum", "avg", "count", "min", "max",
    "Int", "String", "Id", "Loc",
}

# Two-character operators come first, so that the longest one matches.
OPERATORS = ("||", "::", ":=", "!=", "<=", ">=", "++", "&&", "!@",
             "(", ")", "[", "]", "{", "}", ",", ".", ";", "@", "$", "!",
             "<", ">", "=", "+", "-", "*", "/", "|", ":")

# One raw token: a word, an operator, a comment, an integer, a string or
# any other character but layout, which is bad.  Each alternative begins
# with a character that is not layout, so a search steps over layout.  No
# token holds a newline.  Two-character operators come before the rest,
# and a comment before "/".
_TOKEN_RE = re.compile(
    r"""([A-Za-z_][A-Za-z0-9_]*|"""
    + "|".join(re.escape(op) for op in OPERATORS if len(op) == 2)
    + r"""|//[^\n]*|["""
    + "".join(re.escape(op) for op in OPERATORS if len(op) == 1)
    + r"""]|\d+|"(?:\\.|[^"\\\n])*"|\S)""")

# The characters `tokenize` splits at once; each chunk but the last ends
# just after a newline.  A chunk's offsets live as int objects until they
# are packed, about 40 bytes a token: chunks of 8 KB would double the
# parse's memory peak on a program of a few KB.
_CHUNK = 2048

# A keyword or an operator is a kind of its own.
_OWN_KIND = {text: text for text in (*KEYWORDS, *OPERATORS)}

_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


def _lex_error(message: str, source: str, offset: int) -> ParseError:
    where = s.Positions(source).position(offset)
    return ParseError(message, where.line, where.col)


def _classify(raw: str) -> tuple:
    """The kind and text of a raw token that is no keyword or operator.  A
    comment's kind is None; a bad token's kind is BAD and its text the
    error message."""
    first = raw[0]
    if first == '"' and len(raw) > 1:
        body = raw[1:-1]
        if "\\" not in body:
            return "STRING", body
        for escape in _ESCAPE_RE.findall(body):
            if escape not in _ESCAPES:
                return "BAD", f"unknown escape \\{escape}"
        return "STRING", _ESCAPE_RE.sub(lambda m: _ESCAPES[m[1]], body)
    if first.isdecimal():  # what \d matches
        return "INT", raw
    if "A" <= first <= "Z":
        return "TID", raw
    if "a" <= first <= "z" or first == "_":
        return "NAME", raw
    if raw.startswith("//"):
        return None, raw
    return "BAD", f"unexpected character {raw!r}"


class Tokens:
    """The tokens of one source as three parallel sequences, read by index:
    `kinds[i]` and `texts[i]` are strings and `offsets[i]` an int.

    The kind of a keyword or an operator is its text; the other kinds are
    INT, STRING (whose text is the unescaped body), TID and NAME.  Equal
    texts are one object, and the offsets are 4-byte ints in a bytearray.
    """

    __slots__ = ("kinds", "texts", "offsets")

    def __init__(self, kinds: list, texts: list, offsets: memoryview):
        self.kinds = kinds
        self.texts = texts
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.kinds)


def tokenize(source: str) -> Tokens:
    """The tokens of `source`, ending in EOF.

    The regular expression does the work per token: splitting a chunk of
    about `_CHUNK` characters at its tokens gives layout, token, layout,
    ..., layout, and a token's offset is the running sum of the lengths
    before it.  The kind and text of each distinct raw token are decided
    once per call, and of a chunk's bad tokens the first is reported."""
    kinds, texts, offsets = [], [], bytearray()
    kind_of, text_of = {}, {}  # a raw token -> its kind, its text
    shared = {}  # a text -> its one object, freed with the parse
    start, size = 0, len(source)
    while start < size:
        end = source.find("\n", start + _CHUNK) + 1 or size
        chunk = source[start:end]
        pieces = _TOKEN_RE.split(chunk)
        raws = pieces[1::2]
        at = list(itertools.accumulate(map(len, pieces), initial=start))[1:-1:2]
        bad = []
        for raw in set(raws).difference(kind_of):
            kind = text = _OWN_KIND.get(raw)
            if kind is None:
                kind, text = _classify(raw)
                if kind == "BAD":
                    bad.append(raw)
            kind_of[raw] = kind
            text_of[raw] = shared.setdefault(text, text)
        if bad:
            i = min(map(raws.index, bad))
            raise _lex_error(text_of[raws[i]], source, at[i])
        chunk_kinds = list(map(kind_of.__getitem__, raws))
        if "//" in chunk:  # drop the comments, whose kind is None
            raws = list(itertools.compress(raws, chunk_kinds))
            at = list(itertools.compress(at, chunk_kinds))
            chunk_kinds = list(filter(None, chunk_kinds))
        kinds += chunk_kinds
        texts += map(text_of.__getitem__, raws)
        offsets += struct.pack(f"{len(at)}I", *at)
        start = end
    kinds.append("EOF")
    texts.append("")
    offsets += struct.pack("I", size)
    return Tokens(kinds, texts, memoryview(offsets).cast("I"))


_BASE_TYPES = {kw: kw for kw in ("Int", "String", "Id", "Loc")}
_ORDERS = {op: op for op in ("unordered", "lex", "asc", "desc")}
_AGGREGATORS = {op: op for op in ("count", "sum", "avg", "min", "max")}
_COMPARISONS = {op: op for op in ("=", "!=", "<", "<=", ">", ">=", "in", "sub")}
_BINOPS = frozenset(("++", "+", "-", "*", "/"))
_ACTION_KEYWORDS = ("insert", "delete", "select", "update", "aggr", "create", "drop", "eval")


class _Parser:
    """A token is named by its index into `kinds`, `texts` and `offsets`."""

    def __init__(self, positions: s.Positions, tokens: Tokens):
        self.kinds, self.texts, self.offsets = tokens.kinds, tokens.texts, tokens.offsets
        self.pos = 0
        self.positions = positions
        self.calls = []
        self.parens = {}  # position after a "(" -> (expression, position after ")") or ParseError

    # -- token plumbing

    def next(self) -> int:
        self.pos += 1
        return self.pos - 1

    def at(self, kind: str) -> bool:
        return self.kinds[self.pos] == kind

    def accept(self, kind: str) -> bool:
        """Whether the next token is of `kind`; it is read if so."""
        if self.kinds[self.pos] != kind:
            return False
        self.pos += 1
        return True

    def expect(self, kind: str, what=None) -> int:
        t = self.pos
        if self.kinds[t] != kind:
            described = "end of input" if self.kinds[t] == "EOF" else repr(self.texts[t])
            raise self.error(f"unexpected {described}", self.offsets[t], expected=(what or kind,))
        self.pos = t + 1
        return t

    def keyword(self, table: dict, what: str):
        """The table's entry for the next token, which must be one of its keys."""
        entry = table.get(self.kinds[self.pos])
        if entry is None:
            self.fail(f"expected {what}", expected=table)
        self.pos += 1
        return entry

    def separated(self, item) -> list:
        """item (',' item)*"""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

    def error(self, message: str, offset: int, expected=()) -> ParseError:
        where = self.positions.position(offset)
        return ParseError(message, where.line, where.col, expected=expected)

    def fail(self, message: str, expected=()):
        raise self.error(message, self.offsets[self.pos], expected)

    # -- entry point

    def system(self) -> s.System:
        decls = []
        while self.accept("schema"):
            tid = self.texts[self.expect("TID", "table identifier")]
            self.expect(":")
            decls.append((tid, self.schema()))
        procedures = {}
        if self.accept("let"):
            while True:
                d = self.procdef()
                if d.name in procedures:
                    raise self.error(f"procedure {d.name!r} defined twice", d.span)
                procedures[d.name] = d
                if not self.accept("and"):
                    break
            self.expect("in")
        net = self.net()
        self.expect("EOF", "end of input")
        return s.System(procedures=procedures, schema_decls=tuple(decls), main_net=net,
                        source=self.positions.source)

    def procdef(self) -> s.ProcDef:
        t = self.expect("NAME", "procedure name")
        self.expect("(")
        params = [] if self.at(")") else self.separated(self.param)
        self.expect(")")
        self.expect(":=")
        body = self.process()
        if len({n for n, _ in params}) != len(params):
            raise self.error(f"duplicate parameter name in {self.texts[t]!r}", self.offsets[t])
        return s.ProcDef(self.texts[t], tuple(params), body, span=self.offsets[t])

    def param(self) -> tuple:
        name = self.texts[self.expect("NAME", "parameter name")]
        self.expect(":")
        return name, (self.schema() if self.at("(") else self.mtype())

    # -- types

    def schema(self) -> s.Schema:
        self.expect("(", "schema")
        parts = self.separated(self.mtype)
        self.expect(")")
        return tuple(parts)

    def mtype(self) -> s.MType:
        if self.accept("{"):
            base = self.keyword(_BASE_TYPES, "a column type")
            self.expect("}")
            return s.MSet(base)
        return s.Base(self.keyword(_BASE_TYPES, "a column type"))

    # -- nets and components

    def net(self) -> s.Net:
        left = self.net_atom()
        while self.accept("||"):
            left = s.ParNet(left, self.net_atom())
        return left

    def net_atom(self) -> s.Net:
        span = self.offsets[self.pos]
        if self.accept("nil"):
            return s.NilNet(span=span)
        if self.accept("ERR"):
            return s.ErrNet(span=span)
        if self.accept("$"):
            loc = self.texts[self.expect("NAME", "locality name")]
            self.expect("::")
            return s.Node(loc, self.component(), span=span)
        if self.accept("("):
            if self.accept("new"):
                self.expect("$")
                loc = self.texts[self.expect("NAME", "locality name")]
                self.expect(")")
                return s.Restrict(loc, self.net_atom(), span=span)
            inner = self.net()
            self.expect(")")
            return inner
        self.fail("expected a net", expected=("nil", "ERR", "$", "("))

    def component(self) -> s.Component:
        left = self.comp_atom()
        while self.accept("|"):
            left = s.ParComp(left, self.comp_atom())
        return left

    def comp_atom(self) -> s.Component:
        span = self.offsets[self.pos]
        if self.at("table"):
            interface, rows = self.table_literal()
            return s.TableComp(interface, rows, span=span)
        if self.accept("{"):
            inner = self.component()
            self.expect("}")
            return inner
        return s.ProcComp(self.process(), span=span)

    def table_literal(self):
        self.expect("table")
        tid = self.texts[self.expect("TID", "table identifier")]
        self.expect(":")
        sk = self.schema()
        self.expect("=")
        self.expect("{")
        rows = Multiset([] if self.at("}") else self.separated(self.row))
        self.expect("}")
        return s.Interface(tid, sk), rows

    def row(self) -> ValueTuple:
        self.expect("(", "row")
        vals = self.separated(self.value)
        self.expect(")")
        return ValueTuple(tuple(vals))

    def constant(self, t: int, what: str):
        """The constant the token `t`, just read, begins: an integer, a string,
        a table identifier or a locality, as a row and an expression hold
        it.  `what` is the error when `t` begins none."""
        kind = self.kinds[t]
        if kind == "INT":
            return int(self.texts[t])
        if kind == "-" and self.at("INT"):
            return -int(self.texts[self.next()])
        if kind == "STRING":
            return self.texts[t]
        if kind == "TID":
            return VTid(self.texts[t])
        if kind == "$":
            return VLoc(self.texts[self.expect("NAME", "locality name")])
        raise self.error(what, self.offsets[t])

    def value(self):
        t = self.next()
        if self.kinds[t] == "{":
            elems = self.separated(self.scalar_value)
            self.expect("}")
            try:
                return VSet(Multiset(elems))
            except ValueError as exc:
                raise self.error(str(exc), self.offsets[t]) from None
        return self.constant(t, "expected a constant value")

    def scalar_value(self):
        if self.at("{"):
            raise self.error("multisets cannot nest", self.offsets[self.pos])
        return self.value()

    # -- processes

    def process(self) -> s.Process:
        first = self.proc_atom()
        if self.accept(";"):
            return s.Seq(first, self.process())
        return first

    def proc_atom(self) -> s.Process:
        t = self.pos
        kind = self.kinds[t]
        if kind in _ACTION_KEYWORDS:
            action = self.action()
            self.expect(".", "'.' and a continuation")
            return s.Prefix(action, self.proc_atom(), span=action.span)
        if kind == "NAME":
            self.next()
            self.expect("(")
            args = [] if self.at(")") else self.separated(self.expr)
            self.expect(")")
            call = s.CallProc(self.texts[t], tuple(args), span=self.offsets[t])
            self.calls.append(call)
            return call
        if kind == "nil":
            self.next()
            return s.NilProc(span=self.offsets[t])
        if kind == "(":
            self.next()
            inner = self.process()
            self.expect(")")
            return inner
        if kind == "foreach":
            self.next()
            self.expect("(")
            table = self.tableref()
            self.expect(",")
            template = self.template()
            self.expect(",")
            pred = self.pred()
            self.expect(",")
            order = self.operator(s.OrderSpec, _ORDERS, "a loop order")
            self.expect(")")
            self.expect(":")
            body = self.proc_atom()
            return s.Foreach(table, template, pred, order, body, span=self.offsets[t])
        self.fail(
            "expected a process",
            expected=("nil", "foreach", "a procedure call") + _ACTION_KEYWORDS,
        )

    def operator(self, cls, table: dict, what: str):
        """An aggregator or loop order: its keyword, then `[col]` if it reads one."""
        op = self.keyword(table, what)
        if op in s.COLUMNLESS:
            return cls(op)
        self.expect("[")
        t = self.expect("INT", "column index")
        self.expect("]")
        col = int(self.texts[t])
        if col < 1:
            raise self.error("column indices start at 1", self.offsets[t])
        return cls(op, col)

    # -- actions

    def target(self):
        """`TID@loc` with loc a locality literal or variable."""
        tid = self.texts[self.expect("TID", "table identifier")]
        self.expect("@")
        return tid, self.loc_expr()

    def loc_expr(self) -> s.Expr:
        t = self.pos
        if self.accept("$"):
            return VLoc(self.texts[self.expect("NAME", "locality name")])
        if self.accept("NAME"):
            return s.Var(self.texts[t], span=self.offsets[t])
        self.fail("expected a locality", expected=("$", "a locality variable"))

    def action(self) -> s.Action:
        t = self.next()
        kw = self.kinds[t]
        span = self.offsets[t]
        self.expect("(")
        if kw == "select":
            tables = [self.tableref()]
            self.expect(",")
            while not (self.at("(") and self.kinds[self.pos + 1] in ("!", "!@")):
                tables.append(self.tableref())
                self.expect(",")
            template = self.template()
            self.expect(",")
            pred = self.pred()
            self.expect(",")
            payload = self.tuple_()
            self.expect(",")
            self.expect("!")
            bind = self.texts[self.expect("NAME", "table variable")]
            self.expect(")")
            return s.Select(tuple(tables), template, pred, payload, bind, span=span)
        if kw == "eval":
            proc = self.process()
            self.expect(",")
            loc = self.loc_expr()
            self.expect(")")
            return s.Eval(proc, loc, span=span)
        # The other actions share their leading arguments: a target, then
        # most of them a template and a predicate.
        tid, loc = self.target()
        if kw == "drop":
            self.expect(")")
            return s.Drop(tid, loc, span=span)
        self.expect(",")
        if kw == "insert":
            payload = self.tuple_()
            self.expect(")")
            return s.Insert(tid, payload, loc, span=span)
        if kw == "create":
            sk = self.schema()
            self.expect(")")
            return s.Create(tid, loc, sk, span=span)
        template = self.template()
        self.expect(",")
        pred = self.pred()
        if kw == "update":
            self.expect(",")
            payload = self.tuple_()
        if kw == "delete":
            self.expect(")")
            return s.Delete(tid, template, pred, loc, span=span)
        if kw == "update":
            self.expect(")")
            return s.Update(tid, template, pred, payload, loc, span=span)
        self.expect(",")
        fn = self.operator(s.AggrFn, _AGGREGATORS, "an aggregator")  # aggr
        self.expect(",")
        bind_template = self.template()
        self.expect(")")
        return s.Aggr(tid, template, pred, fn, bind_template, loc, span=span)

    def tableref(self) -> s.TableRef:
        t = self.pos
        if self.at("table"):
            interface, rows = self.table_literal()
            return s.TableLiteral(interface, rows, span=self.offsets[t])
        if self.at("TID"):
            tid, loc = self.target()
            return s.TableByName(tid, loc, span=self.offsets[t])
        if self.accept("NAME"):
            return s.TableByVar(self.texts[t], span=self.offsets[t])
        self.fail("expected a table", expected=("TID@loc", "a table variable", "table"))

    # -- templates, tuples, predicates, expressions

    def template(self) -> s.Template:
        span = self.offsets[self.expect("(", "template")]
        fields = self.separated(self.template_field)
        self.expect(")")
        seen = set()
        for f in fields:
            if f.name in seen:
                raise self.error(f"template binds {f.name!r} twice; binders must be linear",
                                 f.span)
            seen.add(f.name)
        return s.Template(tuple(fields), span=span)

    def template_field(self) -> s.BindData | s.BindLoc:
        span = self.offsets[self.pos]
        if self.accept("!@"):
            return s.BindLoc(self.texts[self.expect("NAME", "locality variable")], span=span)
        if self.accept("!"):
            return s.BindData(self.texts[self.expect("NAME", "data variable")], span=span)
        self.fail("expected a template field", expected=("!x", "!@u"))

    def tuple_(self) -> s.Tuple:
        span = self.offsets[self.expect("(", "tuple")]
        comps = self.separated(self.expr)
        self.expect(")")
        return s.Tuple(tuple(comps), span=span)

    def pred(self) -> s.Pred:
        left = self.pred_atom()
        while self.accept("&&"):
            left = s.And(left, self.pred_atom())
        return left

    def pred_atom(self) -> s.Pred:
        span = self.offsets[self.pos]
        if self.accept("true"):
            return s.TruePred(span=span)
        if self.accept("!"):
            return s.Not(self.pred_atom(), span=span)
        if self.at("("):
            # Could be a parenthesized predicate or a parenthesized expression
            # starting a comparison; try the former, fall back to the latter.
            mark = self.pos
            try:
                self.next()
                inner = self.pred()
                self.expect(")")
                if self.kinds[self.pos] not in _COMPARISONS:
                    return inner
            except ParseError:
                pass
            self.pos = mark
        left = self.expr()
        op = self.keyword(_COMPARISONS, "a comparison")
        return s.Cmp(op, left, self.expr(), span=span)

    def expr(self) -> s.Expr:
        left = self.expr_atom()
        while self.kinds[self.pos] in _BINOPS:
            t = self.next()
            left = s.Arith(self.kinds[t], left, self.expr_atom(), span=self.offsets[t])
        return left

    def expr_atom(self) -> s.Expr:
        t = self.next()
        kind = self.kinds[t]
        if kind == "NAME":
            return s.Var(self.texts[t], span=self.offsets[t])
        if kind == "{":
            elems = self.separated(self.multiset_elem)
            self.expect("}")
            return s.MultisetLit(tuple(elems), span=self.offsets[t])
        if kind == "(":
            # Memoised, a failed read too: `pred_atom` reads it twice at every
            # level of nesting, and a second read gives the same.
            start = self.pos
            got = self.parens.get(start)
            if got is None:
                try:
                    inner = self.expr()
                    self.expect(")")
                    got = inner, self.pos
                except ParseError as e:
                    got = e
                self.parens[start] = got
            if got.__class__ is not tuple:
                raise got
            inner, self.pos = got
            return inner
        return self.constant(t, "expected an expression")

    def multiset_elem(self) -> s.Expr:
        span = self.offsets[self.pos]
        e = self.expr()
        if _contains_multiset(e):
            raise self.error("multisets cannot nest", span)
        return e


def _contains_multiset(e: s.Expr) -> bool:
    if isinstance(e, s.MultisetLit):
        return True
    if isinstance(e, s.Arith):
        return _contains_multiset(e.left) or _contains_multiset(e.right)
    return False


def _check_calls(parser: _Parser, procedures: dict) -> None:
    for p in parser.calls:
        d = procedures.get(p.name)
        if d is None:
            message = f"call to undefined procedure {p.name!r}"
        elif len(d.params) != len(p.args):
            message = f"procedure {p.name!r} takes {len(d.params)} argument(s), got {len(p.args)}"
        else:
            continue
        raise parser.error(message, p.span)


def rename_apart(source: str, tokens: Tokens) -> s.System:
    """Parse the tokens of `source` into a system, every name as written,
    and check its calls.  Nothing is renamed: the function keeps its name
    because `perfbench/tracer.py` times this stage of the parse by it."""
    parser = _Parser(s.Positions(source), tokens)
    system = parser.system()
    _check_calls(parser, system.procedures)
    return system


# ---------------------------------------------------------------------------
# Entry point

def parse_system(source: str) -> s.System:
    """Parse a full system; raises ParseError on malformed input."""
    return rename_apart(source, tokenize(source))
