"""Recursive-descent parser for the textual scalar form.

Grammar, loosest binding first:

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' exponent)*
    exponent := ['-'] INT | '(' ['-'] INT ')'
    atom     := INT | 'i' | SYMBOL | '(' expr ')'

so '^' binds tighter than unary minus, which binds tighter than '*' and
'/', which bind tighter than '+' and '-'.  Chained '^' associates to the
left.  The name 'i' always denotes the imaginary unit; any other name
must be declared by the symbol table.  Everything str(Scalar) emits
parses back to an identical stored value.

Parentheses and unary minus nest at most MAX_DEPTH deep, which keeps
the recursion far inside the interpreter's limit and far above the few
levels str(Scalar) prints.
"""

from __future__ import annotations

import re

from .scalar import Scalar, SymbolTable

__all__ = ["ParseError", "parse"]


class ParseError(Exception):
    """Input text that does not match the scalar grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


MAX_DEPTH = 100

_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()])")


def _tokenize(text: str):
    toks = []
    k = 0
    while k < len(text):
        if text[k].isspace():
            k += 1
            continue
        m = _TOKEN.match(text, k)
        if m is None:
            raise ParseError(f"unexpected character {text[k]!r}", k)
        toks.append((m.lastgroup, m.group(), k))
        k = m.end()
    toks.append(("end", "", len(text)))
    return toks


class _Cursor:
    __slots__ = ("toks", "k", "depth")

    def __init__(self, toks):
        self.toks = toks
        self.k = 0
        self.depth = 0

    def descend(self, pos: int):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", pos)

    def current(self):
        return self.toks[self.k]

    def advance(self):
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def take_op(self, *ops) -> str:
        kind, text, _ = self.current()
        if kind == "op" and text in ops:
            self.k += 1
            return text
        return ""

    def expect_op(self, op: str):
        kind, text, pos = self.current()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        self.k += 1


def parse(text: str, table: SymbolTable) -> Scalar:
    """Parse text into an exact Scalar over the given table.

    Raises ParseError for malformed input, UnknownSymbol for undeclared
    names, and PoleError when the text divides by an exact zero.
    """
    cur = _Cursor(_tokenize(text))
    value = _expr(cur, table)
    kind, _, pos = cur.current()
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    return value


def _expr(cur: _Cursor, table: SymbolTable) -> Scalar:
    value = _term(cur, table)
    while True:
        op = cur.take_op("+", "-")
        if not op:
            return value
        rhs = _term(cur, table)
        value = value + rhs if op == "+" else value - rhs


def _term(cur: _Cursor, table: SymbolTable) -> Scalar:
    value = _unary(cur, table)
    while True:
        op = cur.take_op("*", "/")
        if not op:
            return value
        rhs = _unary(cur, table)
        value = value * rhs if op == "*" else value / rhs


def _unary(cur: _Cursor, table: SymbolTable) -> Scalar:
    if not cur.take_op("-"):
        return _power(cur, table)
    cur.descend(cur.toks[cur.k - 1][2])
    value = -_unary(cur, table)
    cur.depth -= 1
    return value


def _power(cur: _Cursor, table: SymbolTable) -> Scalar:
    value = _atom(cur, table)
    while cur.take_op("^"):
        value = value ** _exponent(cur)
    return value


def _exponent(cur: _Cursor) -> int:
    if cur.take_op("("):
        e = _signed_int(cur)
        cur.expect_op(")")
        return e
    return _signed_int(cur)


def _signed_int(cur: _Cursor) -> int:
    neg = bool(cur.take_op("-"))
    kind, text, pos = cur.current()
    if kind != "int":
        raise ParseError("expected an integer exponent", pos)
    cur.advance()
    return -int(text) if neg else int(text)


def _atom(cur: _Cursor, table: SymbolTable) -> Scalar:
    kind, text, pos = cur.current()
    if kind == "int":
        cur.advance()
        return table.const(int(text))
    if kind == "name":
        cur.advance()
        if text == "i":
            return table.i()
        return table.symbol(text)
    if kind == "op" and text == "(":
        cur.advance()
        cur.descend(pos)
        value = _expr(cur, table)
        cur.expect_op(")")
        cur.depth -= 1
        return value
    raise ParseError("expected a value", pos)
