"""Lexer and parser for the `.kdb` concrete syntax.

Lexical conventions: table identifiers are capitalized (`KLD`), variables are
lowercase (`tp`, `tbv`), localities carry a `$` sigil (`$l1`).  Template
fields bind data with `!x` and localities with `!@u`, so the parser can tell
the two kinds of binders apart without type information.

`tokenize` makes one regular-expression match and one list append per
token.  A token is a (kind, text, offset) triple; its line and column are
computed from the offset only for spans and errors.  The list ends in one
EOF token, which the parser never reads past.  Keyword and operator choices
are table lookups on the kind.

After building the AST, `rename_apart` makes one `syntax.ScopedMap` walk
over the binders that `syntax.CHILDREN` declares, after two folds that
collect the names already in use.  Its environment is two `syntax.Scope`s
on one journal: one maps each variable in scope to its sort and its new
name, the other each restricted locality to its new name.  The walk

- sorts variables: a bare name is a locality variable where a `!@u`
  template field or a Loc parameter binds it, and a data variable otherwise
  (the parser reads a bare name as data, or in a locality position as a
  locality variable);
- renames bound names apart so that no binder name is reused anywhere in
  the system (fresh names use a `#k` suffix, which the lexer forbids in
  source), numbered in visit order: procedures in declaration order, then
  the main net;
- collects the procedure calls.  After the walk every call must name a
  declared procedure and pass it as many arguments as it has parameters.
  Of several bad calls the first in source order is reported: the walk
  visits the procedures before the main net, and each in source order.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_right

from kdb import syntax as s
from kdb.values import Multiset, ValueTuple, VInt, VLoc, VSet, VStr, VTid


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

# Layout, then one token: the name of the group that matched is its kind.
_TOKEN_RE = re.compile(
    r"""\s*(?://[^\n]*\s*)*
    (?:
        (?P<INT>\d+)
      | (?P<STRING>"(?:\\.|[^"\\\n])*")
      | (?P<TID>[A-Z][A-Za-z0-9_]*)
      | (?P<NAME>[a-z_][A-Za-z0-9_]*)
      | (?P<OP>""" + "|".join(map(re.escape, OPERATORS)) + r""")
      | (?P<EOF>\Z)
      | (?P<BAD>.)
    )""",
    re.VERBOSE,
)

# A keyword or an operator is a kind of its own.
_OWN_KIND = {text: text for text in (*KEYWORDS, *OPERATORS)}

_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


def _line_starts(source: str) -> list:
    return [0] + [m.end() for m in re.finditer("\n", source)]


def _position(line_starts: list, offset: int) -> s.Span:
    line = bisect_right(line_starts, offset)
    return s.Span(line, offset - line_starts[line - 1] + 1)


def _lex_error(message: str, source: str, offset: int) -> ParseError:
    where = _position(_line_starts(source), offset)
    return ParseError(message, where.line, where.col)


def _unescape(body: str, source: str, offset: int) -> str:
    def escape(m):
        if m[1] not in _ESCAPES:
            raise _lex_error(f"unknown escape \\{m[1]}", source, offset)
        return _ESCAPES[m[1]]

    return _ESCAPE_RE.sub(escape, body) if "\\" in body else body


def tokenize(source: str) -> list:
    """(kind, text, offset) per token, ending in EOF.

    The kind of a keyword or an operator is its text; the other kinds are
    INT, STRING (whose text is the unescaped body), TID and NAME.
    """
    tokens = []
    pos = 0
    while True:
        m = _TOKEN_RE.match(source, pos)
        kind = m.lastgroup
        text = m[kind]
        start = m.start(kind)
        if kind == "STRING":
            text = _unescape(text[1:-1], source, start)
        else:
            kind = _OWN_KIND.get(text, kind)
            if kind == "BAD":
                raise _lex_error(f"unexpected character {text!r}", source, start)
        tokens.append((kind, text, start))
        if kind == "EOF":
            return tokens
        pos = m.end()


_BASE_TYPES = {kw: kw for kw in ("Int", "String", "Id", "Loc")}
_ORDERS = {op: op for op in ("unordered", "lex", "asc", "desc")}
_AGGREGATORS = {op: op for op in ("count", "sum", "avg", "min", "max")}
_COMPARISONS = {op: op for op in ("=", "!=", "<", "<=", ">", ">=", "in", "sub")}
_BINOPS = frozenset(("++", "+", "-", "*", "/"))
_ACTION_KEYWORDS = ("insert", "delete", "select", "update", "aggr", "create", "drop", "eval")


class _Parser:
    def __init__(self, source: str, tokens: list):
        self.tokens = tokens
        self.pos = 0
        self.line_starts = _line_starts(source)

    # -- token plumbing

    def peek(self, ahead: int = 0) -> tuple:
        return self.tokens[self.pos + ahead]

    def next(self) -> tuple:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos][0] == kind

    def accept(self, kind: str):
        t = self.tokens[self.pos]
        if t[0] != kind:
            return None
        self.pos += 1
        return t

    def expect(self, kind: str, what=None) -> tuple:
        t = self.tokens[self.pos]
        if t[0] != kind:
            described = "end of input" if t[0] == "EOF" else repr(t[1])
            raise self.error(f"unexpected {described}", t, expected=(what or kind,))
        self.pos += 1
        return t

    def keyword(self, table: dict, what: str):
        """The table's entry for the next token, which must be one of its keys."""
        entry = table.get(self.tokens[self.pos][0])
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

    def span(self, t: tuple) -> s.Span:
        return _position(self.line_starts, t[2])

    def error(self, message: str, t: tuple, expected=()) -> ParseError:
        where = self.span(t)
        return ParseError(message, where.line, where.col, expected=expected)

    def fail(self, message: str, expected=()):
        raise self.error(message, self.tokens[self.pos], expected)

    # -- entry point

    def system(self) -> s.System:
        decls = []
        while self.accept("schema"):
            tid = self.expect("TID", "table identifier")[1]
            self.expect(":")
            decls.append((tid, self.schema()))
        procedures = {}
        if self.accept("let"):
            while True:
                d = self.procdef()
                if d.name in procedures:
                    raise ParseError(f"procedure {d.name!r} defined twice",
                                     d.span.line, d.span.col)
                procedures[d.name] = d
                if not self.accept("and"):
                    break
            self.expect("in")
        net = self.net()
        self.expect("EOF", "end of input")
        return s.System(procedures=procedures, schema_decls=tuple(decls), main_net=net)

    def procdef(self) -> s.ProcDef:
        t = self.expect("NAME", "procedure name")
        self.expect("(")
        params = [] if self.at(")") else self.separated(self.param)
        self.expect(")")
        self.expect(":=")
        body = self.process()
        if len({n for n, _ in params}) != len(params):
            raise self.error(f"duplicate parameter name in {t[1]!r}", t)
        return s.ProcDef(t[1], tuple(params), body, span=self.span(t))

    def param(self) -> tuple:
        name = self.expect("NAME", "parameter name")[1]
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
        t = self.peek()
        if self.accept("nil"):
            return s.NilNet(span=self.span(t))
        if self.accept("ERR"):
            return s.ErrNet(span=self.span(t))
        if self.accept("$"):
            loc = self.expect("NAME", "locality name")[1]
            self.expect("::")
            return s.Node(loc, self.component(), span=self.span(t))
        if self.accept("("):
            if self.accept("new"):
                self.expect("$")
                loc = self.expect("NAME", "locality name")[1]
                self.expect(")")
                return s.Restrict(loc, self.net_atom(), span=self.span(t))
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
        t = self.peek()
        if t[0] == "table":
            interface, rows = self.table_literal()
            return s.TableComp(interface, rows, span=self.span(t))
        if self.accept("{"):
            inner = self.component()
            self.expect("}")
            return inner
        return s.ProcComp(self.process(), span=self.span(t))

    def table_literal(self):
        self.expect("table")
        tid = self.expect("TID", "table identifier")[1]
        self.expect(":")
        sk = self.schema()
        self.expect("=")
        self.expect("{")
        rows = [] if self.at("}") else self.separated(self.row)
        self.expect("}")
        return s.Interface(tid, sk), Multiset(rows)

    def row(self) -> ValueTuple:
        self.expect("(", "row")
        vals = self.separated(self.value)
        self.expect(")")
        return ValueTuple(tuple(vals))

    def constant(self, t: tuple, what: str):
        """The constant the token `t`, just read, begins: an integer, a string,
        a table identifier or a locality, in a row or an expression alike.
        `what` is the error when `t` begins none."""
        kind = t[0]
        if kind == "INT":
            return VInt(int(t[1]))
        if kind == "-" and self.at("INT"):
            return VInt(-int(self.next()[1]))
        if kind == "STRING":
            return VStr(t[1])
        if kind == "TID":
            return VTid(t[1])
        if kind == "$":
            return VLoc(self.expect("NAME", "locality name")[1])
        raise self.error(what, t)

    def value(self):
        t = self.next()
        if t[0] == "{":
            elems = self.separated(self.scalar_value)
            self.expect("}")
            try:
                return VSet(Multiset(elems))
            except ValueError as exc:
                raise self.error(str(exc), t) from None
        return self.constant(t, "expected a constant value")

    def scalar_value(self):
        if self.at("{"):
            raise self.error("multisets cannot nest", self.peek())
        return self.value()

    # -- processes

    def process(self) -> s.Process:
        first = self.proc_atom()
        if self.accept(";"):
            return s.Seq(first, self.process())
        return first

    def proc_atom(self) -> s.Process:
        t = self.peek()
        kind = t[0]
        if kind in _ACTION_KEYWORDS:
            action = self.action()
            self.expect(".", "'.' and a continuation")
            return s.Prefix(action, self.proc_atom(), span=action.span)
        if kind == "NAME":
            self.next()
            self.expect("(")
            args = [] if self.at(")") else self.separated(self.expr)
            self.expect(")")
            return s.CallProc(t[1], tuple(args), span=self.span(t))
        if kind == "nil":
            self.next()
            return s.NilProc(span=self.span(t))
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
            return s.Foreach(table, template, pred, order, body, span=self.span(t))
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
        col = int(t[1])
        if col < 1:
            raise self.error("column indices start at 1", t)
        return cls(op, col)

    # -- actions

    def target(self):
        """`TID@loc` with loc a locality literal or variable."""
        tid = self.expect("TID", "table identifier")[1]
        self.expect("@")
        return tid, self.loc_expr()

    def loc_expr(self) -> s.Expr:
        t = self.peek()
        if self.accept("$"):
            return VLoc(self.expect("NAME", "locality name")[1])
        if self.accept("NAME"):
            return s.LocVar(t[1], span=self.span(t))
        self.fail("expected a locality", expected=("$", "a locality variable"))

    def action(self) -> s.Action:
        t = self.next()
        kw = t[0]
        span = self.span(t)
        self.expect("(")
        if kw == "select":
            tables = [self.tableref()]
            self.expect(",")
            while not (self.at("(") and self.peek(1)[0] in ("!", "!@")):
                tables.append(self.tableref())
                self.expect(",")
            template = self.template()
            self.expect(",")
            pred = self.pred()
            self.expect(",")
            payload = self.tuple_()
            self.expect(",")
            self.expect("!")
            bind = self.expect("NAME", "table variable")[1]
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
        if kw == "delete":
            self.expect(")")
            return s.Delete(tid, template, pred, loc, span=span)
        self.expect(",")
        if kw == "update":
            payload = self.tuple_()
            self.expect(")")
            return s.Update(tid, template, pred, payload, loc, span=span)
        fn = self.operator(s.AggrFn, _AGGREGATORS, "an aggregator")  # aggr
        self.expect(",")
        bind_template = self.template()
        self.expect(")")
        return s.Aggr(tid, template, pred, fn, bind_template, loc, span=span)

    def tableref(self) -> s.TableRef:
        t = self.peek()
        if t[0] == "table":
            interface, rows = self.table_literal()
            return s.TableLiteral(interface, rows, span=self.span(t))
        if t[0] == "TID":
            tid, loc = self.target()
            return s.TableByName(tid, loc, span=self.span(t))
        if self.accept("NAME"):
            return s.TableByVar(t[1], span=self.span(t))
        self.fail("expected a table", expected=("TID@loc", "a table variable", "table"))

    # -- templates, tuples, predicates, expressions

    def template(self) -> s.Template:
        t = self.expect("(", "template")
        fields = self.separated(self.template_field)
        self.expect(")")
        seen = set()
        for f in fields:
            if f.name in seen:
                raise ParseError(
                    f"template binds {f.name!r} twice; binders must be linear",
                    f.span.line, f.span.col,
                )
            seen.add(f.name)
        return s.Template(tuple(fields), span=self.span(t))

    def template_field(self):
        t = self.peek()
        if self.accept("!@"):
            return s.BindLoc(self.expect("NAME", "locality variable")[1], span=self.span(t))
        if self.accept("!"):
            return s.BindData(self.expect("NAME", "data variable")[1], span=self.span(t))
        self.fail("expected a template field", expected=("!x", "!@u"))

    def tuple_(self) -> s.Tuple:
        t = self.expect("(", "tuple")
        comps = self.separated(self.expr)
        self.expect(")")
        return s.Tuple(tuple(comps), span=self.span(t))

    def pred(self) -> s.Pred:
        left = self.pred_atom()
        while self.accept("&&"):
            left = s.And(left, self.pred_atom())
        return left

    def pred_atom(self) -> s.Pred:
        t = self.peek()
        if self.accept("true"):
            return s.TruePred(span=self.span(t))
        if self.accept("!"):
            return s.Not(self.pred_atom(), span=self.span(t))
        if self.at("("):
            # Could be a parenthesized predicate or a parenthesized expression
            # starting a comparison; try the former, fall back to the latter.
            mark = self.pos
            try:
                self.next()
                inner = self.pred()
                self.expect(")")
                if self.peek()[0] not in _COMPARISONS:
                    return inner
            except ParseError:
                pass
            self.pos = mark
        left = self.expr()
        op = self.keyword(_COMPARISONS, "a comparison")
        if op == "in":
            return s.Member(left, self.expr(), span=self.span(t))
        return s.Cmp(op, left, self.expr(), span=self.span(t))

    def expr(self) -> s.Expr:
        left = self.expr_atom()
        while self.peek()[0] in _BINOPS:
            t = self.next()
            right = self.expr_atom()
            if t[0] == "++":
                left = s.Concat(left, right, span=self.span(t))
            else:
                left = s.Arith(t[0], left, right, span=self.span(t))
        return left

    def expr_atom(self) -> s.Expr:
        t = self.next()
        kind = t[0]
        if kind == "NAME":
            # Data vs locality variable is settled by `rename_apart`.
            return s.DataVar(t[1], span=self.span(t))
        if kind == "{":
            elems = self.separated(self.multiset_elem)
            self.expect("}")
            return s.MultisetLit(tuple(elems), span=self.span(t))
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        return self.constant(t, "expected an expression")

    def multiset_elem(self) -> s.Expr:
        t = self.peek()
        e = self.expr()
        if _contains_multiset(e):
            raise self.error("multisets cannot nest", t)
        return e


def _contains_multiset(e: s.Expr) -> bool:
    if isinstance(e, s.MultisetLit):
        return True
    if isinstance(e, (s.Concat, s.Arith)):
        return _contains_multiset(e.left) or _contains_multiset(e.right)
    return False


# ---------------------------------------------------------------------------
# Sorting variables, renaming binders apart and collecting calls, in one walk

class _Resolve(s.ScopedMap):
    """env maps each variable in scope to its sort ("data", "loc" or
    "table") and its new name; `localities`, which shares env's journal,
    maps each restricted locality in scope to its new name.

    A binder keeps its name on first use and gets a `#k`-suffixed fresh name
    on any reuse; `#` cannot appear in source names, so fresh names never
    collide.  `calls` holds the calls mapped so far, in visit order.
    """

    def __init__(self, used_vars: set, used_locs: set):
        self.used_vars = used_vars
        self.used_locs = used_locs
        self.counter = itertools.count(1)
        self.calls = []
        self.variables = s.Scope()
        self.localities = s.Scope(journal=self.variables.journal)

    def _fresh(self, name: str, used: set) -> str:
        new = name
        while new in used:
            new = f"{name}#{next(self.counter)}"
        used.add(new)
        return new

    def bind(self, names, env):
        new = tuple(self._fresh(name, self.used_vars) for name, _ in names)
        for (name, sort), fresh in zip(names, new):
            env.bind(name, (sort, fresh))
        return new

    def restrict(self, name, env):
        new = self._fresh(name, self.used_locs)
        self.localities.bind(name, new)
        return new

    def site(self, name, env):
        return self.localities.get(name, name)

    def _var(self, node, env):
        bound = env.get(node.name)
        if bound is None:
            return node
        sort, name = bound
        cls = node.__class__
        if cls is not s.TableByVar:
            cls = s.LocVar if sort == "loc" else s.DataVar
        if cls is node.__class__ and name == node.name:
            return node
        return cls(name, span=node.span)

    def _loc(self, node, env):
        return s.rename_value(node, self.localities)

    def _table(self, node, env):
        return s.rename_table(node, self.localities) if self.localities else node

    def _call(self, node, env):
        # A call is a leaf process, so mapping its arguments here adds one
        # frame at the bottom of the tree only.
        self.calls.append(node)
        args = tuple([self.map(a, env) for a in node.args])
        if all(a is b for a, b in zip(args, node.args)):
            return node
        return s.CallProc(node.name, args, span=node.span)

    hooks = {s.DataVar: _var, s.LocVar: _var, s.TableByVar: _var, s.CallProc: _call,
             VLoc: _loc, s.TableLiteral: _table, s.TableComp: _table}


def _check_calls(calls: list, procedures: dict) -> None:
    for p in calls:
        d = procedures.get(p.name)
        where = p.span or s.Span(0, 0)
        if d is None:
            raise ParseError(f"call to undefined procedure {p.name!r}",
                             where.line, where.col)
        if len(d.params) != len(p.args):
            raise ParseError(
                f"procedure {p.name!r} takes {len(d.params)} argument(s), "
                f"got {len(p.args)}",
                where.line, where.col,
            )


def rename_apart(system: s.System) -> s.System:
    """Sort variables, rename binders apart and check calls (module docstring)."""
    # A procedure body restricts no name, so the free localities of the
    # system include every name a body mentions.
    walk = _Resolve(set(s.free_vars(system)), set(s.free_locs(system)))
    procedures = {name: walk.map(d, walk.variables) for name, d in system.procedures.items()}
    main_net = walk.map(system.main_net, walk.variables)
    _check_calls(walk.calls, system.procedures)
    return s.System(procedures, system.schema_decls, main_net)


# ---------------------------------------------------------------------------
# Entry point

def parse_system(source: str) -> s.System:
    """Parse a full system; raises ParseError on malformed input."""
    tokens = tokenize(source)
    system = _Parser(source, tokens).system()
    return rename_apart(system)
