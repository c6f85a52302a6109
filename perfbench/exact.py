"""Exact Gaussian arithmetic for the benchmark's inputs and oracle.

Nothing here imports the program under test.  Inputs are built over
the Gaussian integers and expected answers are computed with the
standard library's Fraction, so the oracle is an independent source: a
value the program prints is checked by evaluating its text at sample
points, never by asking the program to compare it.
"""

from __future__ import annotations

import re
from fractions import Fraction


class PoleAtPoint(ZeroDivisionError):
    """An expression divides by zero at the chosen sample point."""


class GQ:
    """A Gaussian rational re + im*i with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def lift(value) -> "GQ":
        return value if isinstance(value, GQ) else GQ(value)

    def __add__(self, other):
        o = GQ.lift(other)
        return GQ(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GQ.lift(other)
        return GQ(self.re - o.re, self.im - o.im)

    def __mul__(self, other):
        o = GQ.lift(other)
        return GQ(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GQ.lift(other)
        norm = o.re * o.re + o.im * o.im
        if norm == 0:
            raise PoleAtPoint("division by zero")
        return GQ((self.re * o.re + self.im * o.im) / norm,
                  (self.im * o.re - self.re * o.im) / norm)

    def __neg__(self):
        return GQ(-self.re, -self.im)

    def __pow__(self, e: int):
        if e < 0:
            return GQ(1) / self ** -e
        out = GQ(1)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        o = GQ.lift(other)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def text(self) -> str:
        """The value in the program's input grammar, parenthesised."""
        if self.im == 0:
            return f"({self.re})"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"

    def __repr__(self):
        return f"GQ({self.re}, {self.im})"


# ------------------------------------------------------------ evaluation

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(.))")


def _tokens(text: str) -> list:
    out = []
    for match in _TOKEN.finditer(text):
        number, name, op = match.groups()
        if number is not None:
            out.append(("int", number))
        elif name is not None:
            out.append(("name", name))
        elif op is not None and not op.isspace():
            out.append(("op", op))
    out.append(("end", ""))
    return out


class _Evaluator:
    """Recursive descent over the scalar grammar, evaluating at one point.

    Precedence, loosest first: + and -, then * and /, then unary minus,
    then ^ with an integer exponent, left-associative.
    """

    def __init__(self, text: str, point: dict):
        self.toks = _tokens(text)
        self.pos = 0
        self.point = point

    def peek(self, *ops) -> bool:
        kind, tok = self.toks[self.pos]
        return kind == "op" and tok in ops

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def run(self) -> GQ:
        value = self.expr()
        if self.toks[self.pos][0] != "end":
            raise ValueError(f"trailing input at token {self.pos}")
        return value

    def expr(self) -> GQ:
        value = self.term()
        while self.peek("+", "-"):
            op = self.take()[1]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> GQ:
        value = self.unary()
        while self.peek("*", "/"):
            op = self.take()[1]
            rhs = self.unary()
            value = value * rhs if op == "*" else value / rhs
        return value

    def unary(self) -> GQ:
        if self.peek("-"):
            self.take()
            return -self.unary()
        value = self.atom()
        while self.peek("^"):
            self.take()
            value = value ** self.exponent()
        return value

    def exponent(self) -> int:
        wrapped = self.peek("(")
        if wrapped:
            self.take()
        sign = -1 if self.peek("-") else 1
        if sign < 0:
            self.take()
        kind, tok = self.take()
        if kind != "int":
            raise ValueError("expected an integer exponent")
        if wrapped and self.take() != ("op", ")"):
            raise ValueError("expected ')'")
        return sign * int(tok)

    def atom(self) -> GQ:
        kind, tok = self.take()
        if kind == "int":
            return GQ(int(tok))
        if kind == "name":
            return GQ(0, 1) if tok == "i" else self.point[tok]
        if (kind, tok) == ("op", "("):
            value = self.expr()
            if self.take() != ("op", ")"):
                raise ValueError("expected ')'")
            return value
        raise ValueError(f"unexpected token {tok!r}")


def evaluate(text: str, point: dict) -> GQ:
    """Value of an expression in the program's grammar at a sample point.

    Raises PoleAtPoint when the expression divides by zero there, and
    ValueError (or KeyError for an unbound name) when the text does not
    belong to the grammar.
    """
    return _Evaluator(text, point).run()


# ------------------------------------------------- polynomial matrices

# Inputs are built over the Gaussian integers, as (re, im) int pairs,
# because Fraction arithmetic would make set-up slower than the ops it
# feeds; the one division, by a determinant, happens when printing.  A
# polynomial in one symbol is a dict {exponent: (re, im)} without zero
# terms.


def gi_mul(x: tuple, y: tuple) -> tuple:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            re, im = out.get(i + j, (0, 0))
            z = gi_mul(x, y)
            out[i + j] = (re + z[0], im + z[1])
    return {k: c for k, c in out.items() if c != (0, 0)}


def mat_mul(a: list, b: list) -> list:
    """Product of two matrices of polynomials."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc: dict = {}
            for k in range(n):
                if a[i][k] and b[k][j]:
                    for e, (re, im) in poly_mul(a[i][k], b[k][j]).items():
                        r0, i0 = acc.get(e, (0, 0))
                        acc[e] = (r0 + re, i0 + im)
            row.append({e: c for e, c in acc.items() if c != (0, 0)})
        out.append(row)
    return out


def const_matrix(rows: list) -> list:
    """Gaussian-integer rows as a matrix of constant polynomials."""
    return [[{0: x} if x != (0, 0) else {} for x in row] for row in rows]


def det(rows: list) -> tuple:
    """Determinant of a small Gaussian-integer matrix by cofactor expansion."""
    if len(rows) == 1:
        return rows[0][0]
    re = im = 0
    for j, x in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        z = gi_mul(x, det(minor))
        sign = -1 if j % 2 else 1
        re, im = re + sign * z[0], im + sign * z[1]
    return (re, im)


def adjugate(rows: list) -> list:
    """The adjugate, so that rows * adjugate(rows) = det(rows) * I."""
    n = len(rows)
    if n == 1:
        return [[(1, 0)]]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(rows) if k != i]
            re, im = det(minor)
            sign = -1 if (i + j) % 2 else 1
            out[j][i] = (sign * re, sign * im)
    return out


def kron(a: list, b: list) -> list:
    n, m = len(a), len(b)
    return [[gi_mul(a[i // m][j // m], b[i % m][j % m]) for j in range(n * m)]
            for i in range(n * m)]


def poly_text(p: dict, symbol: str, divisor: tuple = (1, 0)) -> str:
    """A polynomial with Gaussian-integer coefficients over divisor, as text."""
    if not p:
        return "0"
    norm = divisor[0] ** 2 + divisor[1] ** 2
    conj = (divisor[0], -divisor[1])
    parts = []
    for k in sorted(p, reverse=True):
        re, im = gi_mul(p[k], conj)
        coeff = GQ(Fraction(re, norm), Fraction(im, norm)).text()
        parts.append(coeff if k == 0 else f"{coeff}*{symbol}^{k}")
    return " + ".join(parts)
