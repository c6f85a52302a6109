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

Values are assembled, not canonicalised token by token.  Every atom is
read as a scalar._Laurent value, a numerator over d*x^b not yet
canonicalised.  Sums over one monomial x^b, products, quotients by one
term and non-negative powers of a unit times a monomial over one stay
Laurent values, canonicalised once, at the end.  A value whose
denominator is one term has exactly one canonical form (see the scalar
module), so this stores what step-by-step arithmetic stores.  Anything
else is Scalar arithmetic on canonical operands, in reading order, and
the subexpression stays there: _apply is the one switch, where a
Laurent operand that meets a Scalar is made canonical.

Parentheses and unary minus nest at most MAX_DEPTH deep, which keeps
the recursion far inside the interpreter's limit and far above the few
levels str(Scalar) prints.

A power of a value with two or more terms in its numerator or
denominator is bounded: |exponent| times the largest total degree of
those terms may not exceed MAX_EXPONENT, so '(a+1)^1000' parses and
'(a+1)^1001' or '((a+1)^40)^40' raise ParseError before any work.  A
power of one term over one term scales exponents and powers two
Gaussian-integer coefficients; the coefficients it would reach may not
exceed MAX_DIGITS decimal digits, the interpreter's default limit for
printing an int, and neither may an integer literal; when the
interpreter's own limit (sys.get_int_max_str_digits) is lower, that
limit bounds both instead.  Units never grow, so 'i^99999' and
'x^20000' parse, while '2^99999999999' raises ParseError without
allocating.  The exponents it scales are bounded by the scalar layer:
'(a^99999999999)^99999999999' passes scalar.MAX_SYMBOL_EXPONENT and
raises ExponentLimitExceeded, as does every sum, product and quotient
whose stored form would pass it, at the step where it is formed.
Both bounds apply to the canonical form of the base.  str(Scalar)
prints no power of a number, so everything it prints still parses
back.  A quotient of sums in one symbol takes a gcd, bounded by
scalar.MAX_GCD_DEGREE: '(a^99999999999+1)/(a+1)' raises
DegreeLimitExceeded before the gcd starts.
"""

from __future__ import annotations

import math
import re
import sys
from operator import add, mul, sub, truediv

from .scalar import Scalar, SymbolTable, _Laurent

__all__ = ["ParseError", "parse"]


class ParseError(Exception):
    """Input text that does not match the scalar grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


MAX_DEPTH = 100
MAX_EXPONENT = 1000
MAX_DIGITS = 4300

# every character starts a match: a token, a run of white space, or one bad character
_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()])"
                    r"|(?P<space>\s+)|(?P<bad>.)", re.DOTALL)


def _tokenize(text: str):
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if kind != "space":
            toks.append((kind, m.group(), m.start()))
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
    return _scalar(value)


def _scalar(value) -> Scalar:
    return value.scalar() if type(value) is _Laurent else value


def _apply(op, lhs, rhs):
    """op(lhs, rhs): Laurent arithmetic when both are Laurent values, else Scalar arithmetic."""
    if type(lhs) is not _Laurent or type(rhs) is not _Laurent:
        lhs, rhs = _scalar(lhs), _scalar(rhs)
    return op(lhs, rhs)


def _expr(cur: _Cursor, table: SymbolTable):
    value = _term(cur, table)
    while True:
        op = cur.take_op("+", "-")
        if not op:
            return value
        value = _apply(add if op == "+" else sub, value, _term(cur, table))


def _term(cur: _Cursor, table: SymbolTable):
    value = _unary(cur, table)
    while True:
        op = cur.take_op("*", "/")
        if not op:
            return value
        value = _apply(mul if op == "*" else truediv, value, _unary(cur, table))


def _unary(cur: _Cursor, table: SymbolTable):
    if not cur.take_op("-"):
        return _power(cur, table)
    cur.descend(cur.toks[cur.k - 1][2])
    value = -_unary(cur, table)
    cur.depth -= 1
    return value


def _power(cur: _Cursor, table: SymbolTable):
    value = _atom(cur, table)
    while cur.take_op("^"):
        pos = cur.current()[2]
        e = _exponent(cur)
        if type(value) is _Laurent and e >= 0 and value.is_unit_term():
            value = value.unit_power(e)  # a unit times a monomial never grows
            continue
        value = _scalar(value)
        if len(value.num) > 1 or len(value.den) > 1:
            degree = abs(e) * max(sum(table._unpack(x)) for x in (*value.num, *value.den))
            if degree > MAX_EXPONENT:
                raise ParseError(f"power of a sum reaches total degree {degree}, "
                                 f"beyond the limit {MAX_EXPONENT}", pos)
        else:
            # decimal digits a coefficient gains per unit of |e|: log10 of its modulus
            growth = max((math.log10(re * re + im * im) / 2
                          for re, im in (*value.num.values(), *value.den.values())),
                         default=0)
            limit = _digit_limit()
            if growth and abs(e) > limit / growth:
                raise ParseError(f"power of a single term reaches more than "
                                 f"{limit} coefficient digits", pos)
        value = value ** e
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
    return -_int_literal(text, pos) if neg else _int_literal(text, pos)


def _digit_limit() -> int:
    # MAX_DIGITS, or the interpreter's int-printing limit when lower (0 sets none)
    return min(MAX_DIGITS, sys.get_int_max_str_digits() or MAX_DIGITS)


def _int_literal(text: str, pos: int) -> int:
    limit = _digit_limit()
    if len(text) > limit:
        raise ParseError(f"integer literal of {len(text)} digits, "
                         f"beyond the limit {limit}", pos)
    return int(text)


def _atom(cur: _Cursor, table: SymbolTable):
    kind, text, pos = cur.current()
    if kind == "int":
        cur.advance()
        n = _int_literal(text, pos)
        return _Laurent(table, {0: (n, 0)} if n else {})
    if kind == "name":
        cur.advance()
        if text == "i":
            return _Laurent(table, {0: (0, 1)})
        return _Laurent(table, {1 << table._shifts[table.index(text)]: (1, 0)})
    if kind == "op" and text == "(":
        cur.advance()
        cur.descend(pos)
        value = _expr(cur, table)
        cur.expect_op(")")
        cur.depth -= 1
        return value
    raise ParseError("expected a value", pos)
