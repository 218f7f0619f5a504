"""Lexer and parser for the `.kdb` concrete syntax.

Lexical conventions: table identifiers are capitalized (`KLD`), variables are
lowercase (`tp`, `tbv`), localities carry a `$` sigil (`$l1`).  Template
fields bind data with `!x` and localities with `!@u`, so the parser can tell
the two kinds of binders apart without type information.

After building the AST the parser runs three passes, each a
`syntax.ScopedMap` over the binders that `syntax.CHILDREN` declares:

1. `classify_variables`: a bare name is a locality variable where a `!@u`
   template field or a Loc parameter binds it, and a data variable
   otherwise (the parser reads every bare name as data).
2. `resolve_calls`: every call names a declared procedure and passes it as
   many arguments as it has parameters.
3. `rename_apart`: bound names are renamed apart so that no binder name is
   reused anywhere in the system (fresh names use a `#k` suffix, which the
   lexer forbids in source), numbered in visit order: procedures in
   declaration order, then the main net.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

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

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<int>\d+)
  | (?P<string>"(?:\\.|[^"\\\n])*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\|\||::|:=|!=|<=|>=|\+\+|&&|!@|[()\[\]{},.;@$!<>=+\-*/|:])
    """,
    re.VERBOSE,
)

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


@dataclass(frozen=True)
class Token:
    kind: str  # INT STRING NAME TID keyword-or-op EOF
    text: str
    line: int
    col: int

    def span(self) -> s.Span:
        return s.Span(self.line, self.col)


def tokenize(source: str) -> list:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            col = pos - line_start + 1
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        col = pos - line_start + 1
        if kind == "ws" or kind == "comment":
            pass
        elif kind == "int":
            tokens.append(Token("INT", text, line, col))
        elif kind == "string":
            body = text[1:-1]
            out = []
            i = 0
            while i < len(body):
                c = body[i]
                if c == "\\":
                    i += 1
                    esc = body[i]
                    if esc not in _ESCAPES:
                        raise ParseError(f"unknown escape \\{esc}", line, col)
                    out.append(_ESCAPES[esc])
                else:
                    out.append(c)
                i += 1
            tokens.append(Token("STRING", "".join(out), line, col))
        elif kind == "ident":
            if text in KEYWORDS:
                tokens.append(Token(text, text, line, col))
            elif text[0].isupper():
                tokens.append(Token("TID", text, line, col))
            else:
                tokens.append(Token("NAME", text, line, col))
        else:
            tokens.append(Token(text, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            line_start = pos + text.rfind("\n") + 1
        pos = m.end()
    tokens.append(Token("EOF", "", line, n - line_start + 1))
    return tokens


_CMP_TOKENS = ("=", "!=", "<", "<=", ">", ">=")
_BINOPS = ("++", "+", "-", "*", "/")
_ACTION_KEYWORDS = ("insert", "delete", "select", "update", "aggr", "create", "drop", "eval")


class _Parser:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at(self, *kinds) -> bool:
        return self.peek().kind in kinds

    def accept(self, kind):
        if self.at(kind):
            return self.next()
        return None

    def expect(self, kind, what=None) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(
                f"unexpected {self._describe(t)}", t.line, t.col,
                expected=(what or kind,),
            )
        return self.next()

    @staticmethod
    def _describe(t: Token) -> str:
        if t.kind == "EOF":
            return "end of input"
        return repr(t.text)

    def fail(self, message: str, expected=()):
        t = self.peek()
        raise ParseError(message, t.line, t.col, expected=expected)

    # -- entry point

    def system(self) -> s.System:
        decls = []
        while self.at("schema"):
            self.next()
            tid = self.expect("TID", "table identifier").text
            self.expect(":")
            decls.append((tid, self.schema()))
        procedures = {}
        if self.at("let"):
            self.next()
            while True:
                d = self.procdef()
                if d.name in procedures:
                    self.fail(f"procedure {d.name!r} defined twice")
                procedures[d.name] = d
                if self.accept("and"):
                    continue
                break
            self.expect("in")
        net = self.net()
        self.expect("EOF", "end of input")
        return s.System(procedures=procedures, schema_decls=tuple(decls), main_net=net)

    def procdef(self) -> s.ProcDef:
        t = self.expect("NAME", "procedure name")
        self.expect("(")
        params = []
        if not self.at(")"):
            while True:
                pname = self.expect("NAME", "parameter name").text
                self.expect(":")
                params.append((pname, self.param_type()))
                if not self.accept(","):
                    break
        self.expect(")")
        self.expect(":=")
        body = self.process()
        if len({n for n, _ in params}) != len(params):
            raise ParseError(f"duplicate parameter name in {t.text!r}", t.line, t.col)
        return s.ProcDef(t.text, tuple(params), body, span=t.span())

    # -- types

    def param_type(self):
        if self.at("("):
            return self.schema()
        return self.mtype()

    def schema(self) -> s.Schema:
        self.expect("(", "schema")
        parts = [self.mtype()]
        while self.accept(","):
            parts.append(self.mtype())
        self.expect(")")
        return tuple(parts)

    def mtype(self) -> s.MType:
        if self.accept("{"):
            base = self.base_type()
            self.expect("}")
            return s.MSet(base)
        return s.Base(self.base_type())

    def base_type(self) -> str:
        for kw in ("Int", "String", "Id", "Loc"):
            if self.accept(kw):
                return kw
        self.fail("expected a column type", expected=("Int", "String", "Id", "Loc"))

    # -- nets and components

    def net(self) -> s.Net:
        left = self.net_atom()
        while self.accept("||"):
            left = s.ParNet(left, self.net_atom())
        return left

    def net_atom(self) -> s.Net:
        t = self.peek()
        if self.accept("nil"):
            return s.NilNet(span=t.span())
        if self.accept("ERR"):
            return s.ErrNet(span=t.span())
        if self.at("$"):
            self.next()
            loc = self.expect("NAME", "locality name").text
            self.expect("::")
            return s.Node(loc, self.component(), span=t.span())
        if self.at("("):
            if self.peek(1).kind == "new":
                self.next()
                self.next()
                self.expect("$")
                loc = self.expect("NAME", "locality name").text
                self.expect(")")
                return s.Restrict(loc, self.net_atom(), span=t.span())
            self.next()
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
        if self.at("table"):
            interface, rows = self.table_literal()
            return s.TableComp(interface, rows, span=t.span())
        if self.at("{"):
            self.next()
            inner = self.component()
            self.expect("}")
            return inner
        return s.ProcComp(self.process(), span=t.span())

    def table_literal(self):
        self.expect("table")
        tid = self.expect("TID", "table identifier").text
        self.expect(":")
        sk = self.schema()
        self.expect("=")
        rows = self.rows()
        return s.Interface(tid, sk), rows

    def rows(self) -> Multiset:
        self.expect("{")
        rows = []
        if not self.at("}"):
            while True:
                rows.append(self.row())
                if not self.accept(","):
                    break
        self.expect("}")
        return Multiset(rows)

    def row(self) -> ValueTuple:
        self.expect("(", "row")
        vals = [self.value()]
        while self.accept(","):
            vals.append(self.value())
        self.expect(")")
        return ValueTuple(tuple(vals))

    def value(self):
        t = self.peek()
        if self.at("INT"):
            return VInt(int(self.next().text))
        if self.at("-") and self.peek(1).kind == "INT":
            self.next()
            return VInt(-int(self.next().text))
        if self.at("STRING"):
            return VStr(self.next().text)
        if self.at("TID"):
            return VTid(self.next().text)
        if self.at("$"):
            self.next()
            return VLoc(self.expect("NAME", "locality name").text)
        if self.at("{"):
            self.next()
            elems = [self.scalar_value()]
            while self.accept(","):
                elems.append(self.scalar_value())
            self.expect("}")
            try:
                return VSet(Multiset(elems))
            except ValueError as exc:
                raise ParseError(str(exc), t.line, t.col) from None
        self.fail("expected a constant value")

    def scalar_value(self):
        t = self.peek()
        if self.at("{"):
            raise ParseError("multisets cannot nest", t.line, t.col)
        v = self.value()
        return v

    # -- processes

    def process(self) -> s.Process:
        first = self.proc_atom()
        if self.accept(";"):
            return s.Seq(first, self.process())
        return first

    def proc_atom(self) -> s.Process:
        t = self.peek()
        if self.accept("nil"):
            return s.NilProc(span=t.span())
        if self.at("("):
            self.next()
            inner = self.process()
            self.expect(")")
            return inner
        if self.at("foreach"):
            self.next()
            self.expect("(")
            table = self.tableref()
            self.expect(",")
            template = self.template()
            self.expect(",")
            pred = self.pred()
            self.expect(",")
            order = self.order()
            self.expect(")")
            self.expect(":")
            body = self.proc_atom()
            return s.Foreach(table, template, pred, order, body, span=t.span())
        if self.at(*_ACTION_KEYWORDS):
            action = self.action()
            self.expect(".", "'.' and a continuation")
            return s.Prefix(action, self.proc_atom(), span=t.span())
        if self.at("NAME"):
            name = self.next().text
            self.expect("(")
            args = []
            if not self.at(")"):
                while True:
                    args.append(self.expr())
                    if not self.accept(","):
                        break
            self.expect(")")
            return s.CallProc(name, tuple(args), span=t.span())
        self.fail(
            "expected a process",
            expected=("nil", "foreach", "a procedure call") + _ACTION_KEYWORDS,
        )

    def order(self) -> s.OrderSpec:
        if self.accept("unordered"):
            return s.Unordered()
        if self.accept("lex"):
            return s.Lex()
        for kw, cls in (("asc", s.Asc), ("desc", s.Desc)):
            if self.accept(kw):
                return cls(self.col_index())
        self.fail("expected a loop order", expected=("unordered", "asc", "desc", "lex"))

    def col_index(self) -> int:
        self.expect("[")
        t = self.expect("INT", "column index")
        self.expect("]")
        col = int(t.text)
        if col < 1:
            raise ParseError("column indices start at 1", t.line, t.col)
        return col

    def aggfn(self) -> s.AggrFn:
        if self.accept("count"):
            return s.AggCount()
        for kw, cls in (("sum", s.AggSum), ("avg", s.AggAvg), ("min", s.AggMin), ("max", s.AggMax)):
            if self.accept(kw):
                return cls(self.col_index())
        self.fail("expected an aggregator", expected=("sum", "avg", "count", "min", "max"))

    # -- actions

    def target(self):
        """`TID@loc` with loc a locality literal or variable."""
        tid = self.expect("TID", "table identifier").text
        self.expect("@")
        return tid, self.loc_expr()

    def loc_expr(self) -> s.Expr:
        t = self.peek()
        if self.accept("$"):
            return s.LocLit(self.expect("NAME", "locality name").text, span=t.span())
        if self.at("NAME"):
            return s.LocVar(self.next().text, span=t.span())
        self.fail("expected a locality", expected=("$", "a locality variable"))

    def action(self) -> s.Action:
        t = self.next()
        kw = t.kind
        self.expect("(")
        if kw == "insert":
            tid, loc = self.target()
            self.expect(",")
            payload = self.tuple_()
            self.expect(")")
            return s.Insert(tid, payload, loc, span=t.span())
        if kw == "delete":
            tid, loc = self.target()
            self.expect(",")
            template = self.template()
            self.expect(",")
            pred = self.pred()
            self.expect(")")
            return s.Delete(tid, template, pred, loc, span=t.span())
        if kw == "update":
            tid, loc = self.target()
            self.expect(",")
            template = self.template()
            self.expect(",")
            pred = self.pred()
            self.expect(",")
            payload = self.tuple_()
            self.expect(")")
            return s.Update(tid, template, pred, payload, loc, span=t.span())
        if kw == "aggr":
            tid, loc = self.target()
            self.expect(",")
            template = self.template()
            self.expect(",")
            pred = self.pred()
            self.expect(",")
            fn = self.aggfn()
            self.expect(",")
            bind_template = self.template()
            self.expect(")")
            return s.Aggr(tid, template, pred, fn, bind_template, loc, span=t.span())
        if kw == "create":
            tid, loc = self.target()
            self.expect(",")
            sk = self.schema()
            self.expect(")")
            return s.Create(tid, loc, sk, span=t.span())
        if kw == "drop":
            tid, loc = self.target()
            self.expect(")")
            return s.Drop(tid, loc, span=t.span())
        if kw == "eval":
            proc = self.process()
            self.expect(",")
            loc = self.loc_expr()
            self.expect(")")
            return s.Eval(proc, loc, span=t.span())
        if kw == "select":
            tables = [self.tableref()]
            self.expect(",")
            while not self._template_ahead():
                tables.append(self.tableref())
                self.expect(",")
            template = self.template()
            self.expect(",")
            pred = self.pred()
            self.expect(",")
            payload = self.tuple_()
            self.expect(",")
            self.expect("!")
            bind = self.expect("NAME", "table variable").text
            self.expect(")")
            return s.Select(tuple(tables), template, pred, payload, bind, span=t.span())
        raise AssertionError(kw)

    def _template_ahead(self) -> bool:
        return self.at("(") and self.peek(1).kind in ("!", "!@")

    def tableref(self) -> s.TableRef:
        t = self.peek()
        if self.at("table"):
            interface, rows = self.table_literal()
            return s.TableLiteral(interface, rows, span=t.span())
        if self.at("TID"):
            tid, loc = self.target()
            return s.TableByName(tid, loc, span=t.span())
        if self.at("NAME"):
            return s.TableByVar(self.next().text, span=t.span())
        self.fail("expected a table", expected=("TID@loc", "a table variable", "table"))

    # -- templates, tuples, predicates, expressions

    def template(self) -> s.Template:
        t = self.expect("(", "template")
        fields = [self.template_field()]
        while self.accept(","):
            fields.append(self.template_field())
        self.expect(")")
        seen = set()
        for f in fields:
            if f.name in seen:
                raise ParseError(
                    f"template binds {f.name!r} twice; binders must be linear",
                    f.span.line, f.span.col,
                )
            seen.add(f.name)
        return s.Template(tuple(fields), span=t.span())

    def template_field(self):
        t = self.peek()
        if self.accept("!@"):
            return s.BindLoc(self.expect("NAME", "locality variable").text, span=t.span())
        if self.accept("!"):
            return s.BindData(self.expect("NAME", "data variable").text, span=t.span())
        self.fail("expected a template field", expected=("!x", "!@u"))

    def tuple_(self) -> s.Tuple:
        t = self.expect("(", "tuple")
        comps = [self.expr()]
        while self.accept(","):
            comps.append(self.expr())
        self.expect(")")
        return s.Tuple(tuple(comps), span=t.span())

    def pred(self) -> s.Pred:
        left = self.pred_atom()
        while self.accept("&&"):
            left = s.And(left, self.pred_atom())
        return left

    def pred_atom(self) -> s.Pred:
        t = self.peek()
        if self.accept("true"):
            return s.TruePred(span=t.span())
        if self.accept("!"):
            return s.Not(self.pred_atom(), span=t.span())
        if self.at("("):
            # Could be a parenthesized predicate or a parenthesized expression
            # starting a comparison; try the former, fall back to the latter.
            mark = self.pos
            try:
                self.next()
                inner = self.pred()
                self.expect(")")
                if not self.at("in", "sub", *_CMP_TOKENS):
                    return inner
            except ParseError:
                pass
            self.pos = mark
        left = self.expr()
        if self.accept("in"):
            return s.Member(left, self.expr(), span=t.span())
        if self.accept("sub"):
            return s.Cmp("sub", left, self.expr(), span=t.span())
        for op in _CMP_TOKENS:
            if self.accept(op):
                return s.Cmp(op, left, self.expr(), span=t.span())
        self.fail("expected a comparison", expected=_CMP_TOKENS + ("in", "sub"))

    def expr(self) -> s.Expr:
        left = self.expr_atom()
        while True:
            matched = False
            for op in _BINOPS:
                if self.at(op):
                    t = self.next()
                    right = self.expr_atom()
                    if op == "++":
                        left = s.Concat(left, right, span=t.span())
                    else:
                        left = s.Arith(op, left, right, span=t.span())
                    matched = True
                    break
            if not matched:
                return left

    def expr_atom(self) -> s.Expr:
        t = self.peek()
        if self.at("INT"):
            return s.IntLit(int(self.next().text), span=t.span())
        if self.at("-") and self.peek(1).kind == "INT":
            self.next()
            return s.IntLit(-int(self.next().text), span=t.span())
        if self.at("STRING"):
            return s.StrLit(self.next().text, span=t.span())
        if self.at("TID"):
            return s.TidLit(self.next().text, span=t.span())
        if self.at("$"):
            self.next()
            return s.LocLit(self.expect("NAME", "locality name").text, span=t.span())
        if self.at("NAME"):
            # Data vs locality variable is settled by the classification pass.
            return s.DataVar(self.next().text, span=t.span())
        if self.at("{"):
            self.next()
            elems = [self.multiset_elem()]
            while self.accept(","):
                elems.append(self.multiset_elem())
            self.expect("}")
            return s.MultisetLit(tuple(elems), span=t.span())
        if self.at("("):
            self.next()
            inner = self.expr()
            self.expect(")")
            return inner
        self.fail("expected an expression")

    def multiset_elem(self) -> s.Expr:
        t = self.peek()
        e = self.expr()
        if _contains_multiset(e):
            raise ParseError("multisets cannot nest", t.line, t.col)
        return e


def _contains_multiset(e: s.Expr) -> bool:
    if isinstance(e, s.MultisetLit):
        return True
    if isinstance(e, (s.Concat, s.Arith)):
        return _contains_multiset(e.left) or _contains_multiset(e.right)
    return False


# ---------------------------------------------------------------------------
# Pass 1: classify bare variable occurrences as data vs locality

class _Classify(s.ScopedMap):
    """A name is a locality variable where a `!@u` or a Loc parameter binds
    it; env maps the names in scope to their sorts."""

    def bind(self, names, env):
        return None, {**env, **dict(names)}

    def _data(self, node, env):
        if env.get(node.name) == "loc":
            return s.LocVar(node.name, span=node.span)
        return node

    def _loc(self, node, env):
        if env.get(node.name, "loc") != "loc":
            return s.DataVar(node.name, span=node.span)
        return node

    hooks = {s.DataVar: _data, s.LocVar: _loc}


def classify_variables(system: s.System) -> s.System:
    return _Classify().map(system, {})


# ---------------------------------------------------------------------------
# Pass 2: resolve procedure calls

class _Calls(s.ScopedMap):
    """Every procedure call, in visit order."""

    def __init__(self):
        self.out = []

    def _call(self, node, env):
        self.out.append(node)
        return node

    hooks = {s.CallProc: _call, **dict.fromkeys(s.EXPRESSION_NODES, s.keep)}


def resolve_calls(system: s.System) -> None:
    for root in [system.main_net] + [d.body for d in system.procedures.values()]:
        calls = _Calls()
        calls.map(root, None)
        # Of several bad calls in one root, the last one is reported.
        for p in reversed(calls.out):
            d = system.procedures.get(p.name)
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


# ---------------------------------------------------------------------------
# Pass 3: rename bound names apart

class _RenameApart(s.ScopedMap):
    """Makes every binder name unique across the whole system.

    Variables and localities live in separate namespaces; env is the pair
    (variable renaming, locality renaming) in scope.  A binder keeps its
    name on first use and gets a `#k`-suffixed fresh name on any reuse; `#`
    cannot appear in source names, so fresh names never collide.
    """

    def __init__(self, used_vars: set, used_locs: set):
        self.used_vars = used_vars
        self.used_locs = used_locs
        self.counter = itertools.count(1)

    def _fresh(self, name: str, used: set) -> str:
        new = name
        while new in used:
            new = f"{name}#{next(self.counter)}"
        used.add(new)
        return new

    def bind(self, names, env):
        venv, lenv = env
        new = tuple(self._fresh(name, self.used_vars) for name, _ in names)
        return new, ({**venv, **{name: n for (name, _), n in zip(names, new)}}, lenv)

    def restrict(self, name, env):
        venv, lenv = env
        new = self._fresh(name, self.used_locs)
        return new, (venv, {**lenv, name: new})

    def site(self, name, env):
        return env[1].get(name, name)

    def _var(self, node, env):
        return s.rename_occurrence(node, env[0])

    def _loc(self, node, env):
        return s.rename_occurrence(node, env[1])

    def _table(self, node, env):
        return s.rename_table(node, env[1]) if env[1] else node

    hooks = {s.DataVar: _var, s.LocVar: _var, s.TableByVar: _var,
             s.LocLit: _loc, s.TableLiteral: _table, s.TableComp: _table}


def rename_apart(system: s.System) -> s.System:
    used_vars = set(s.free_vars(system))
    used_locs = set(s.free_locs(system.main_net))
    for d in system.procedures.values():
        used_locs |= s.loc_names(d.body)
    return _RenameApart(used_vars, used_locs).map(system, ({}, {}))


# ---------------------------------------------------------------------------
# Entry point

def parse_system(source: str) -> s.System:
    """Parse a full system; raises ParseError on malformed input."""
    tokens = tokenize(source)
    system = _Parser(tokens).system()
    system = classify_variables(system)
    resolve_calls(system)
    return rename_apart(system)
