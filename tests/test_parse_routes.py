"""The parser against step-by-step Scalar arithmetic.

reference_parse is a pinned copy of the parser's reading rule: every
token becomes a canonical Scalar and every operator one Scalar
operation, in reading order.  parse now reads the same way, step for
step; only its message for a power-of-a-sum degree past thirty digits
(a digit count) differs.  reference_parse shares the tokenizer, the
cursor and the exponent reader.  parse must store the same dicts, or
raise the same exception with the same message.
"""

import math
from fractions import Fraction

from hypothesis import given, strategies as st

from braidbax import SymbolTable, parse
from braidbax.parser import (MAX_DEPTH, MAX_EXPONENT, ParseError, _Cursor, _digit_limit,
                             _exponent, _int_literal, _tokenize)
from braidbax.scalar import _ratio_str


def reference_parse(text, table):
    cur = _Cursor(_tokenize(text))
    value = _ref_expr(cur, table)
    kind, _, pos = cur.current()
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    return value


def _ref_expr(cur, table):
    value = _ref_term(cur, table)
    while True:
        op = cur.take_op("+", "-")
        if not op:
            return value
        rhs = _ref_term(cur, table)
        value = value + rhs if op == "+" else value - rhs


def _ref_term(cur, table):
    value = _ref_unary(cur, table)
    while True:
        op = cur.take_op("*", "/")
        if not op:
            return value
        rhs = _ref_unary(cur, table)
        value = value * rhs if op == "*" else value / rhs


def _ref_unary(cur, table):
    if not cur.take_op("-"):
        return _ref_power(cur, table)
    cur.descend(cur.toks[cur.k - 1][2])
    value = -_ref_unary(cur, table)
    cur.depth -= 1
    return value


def _ref_power(cur, table):
    value = _ref_atom(cur, table)
    while cur.take_op("^"):
        pos = cur.current()[2]
        e = _exponent(cur)
        if len(value.num) > 1 or len(value.den) > 1:
            degree = abs(e) * max(sum(table._unpack(x)) for x in (*value.num, *value.den))
            if degree > MAX_EXPONENT:
                raise ParseError(f"power of a sum reaches total degree {degree}, "
                                 f"beyond the limit {MAX_EXPONENT}", pos)
        else:
            growth = max((math.log10(re * re + im * im) / 2
                          for re, im in (*value.num.values(), *value.den.values())),
                         default=0)
            limit = _digit_limit()
            if growth and abs(e) > limit / growth:
                raise ParseError(f"power of a single term reaches more than "
                                 f"{limit} coefficient digits", pos)
        value = value ** e
    return value


def _ref_atom(cur, table):
    kind, text, pos = cur.current()
    if kind == "int":
        cur.advance()
        return table.scalar(_int_literal(text, pos))
    if kind == "name":
        cur.advance()
        if text == "i":
            return table.i()
        return table.symbol(text)
    if kind == "op" and text == "(":
        cur.advance()
        cur.descend(pos)
        value = _ref_expr(cur, table)
        cur.expect_op(")")
        cur.depth -= 1
        return value
    raise ParseError("expected a value", pos)


def _outcome(read, text, table):
    """The stored dicts read gives, or the exception it raises."""
    try:
        value = read(text, table)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return value.num, value.den


# 2^40 - 1 is the bound; sums and products of 2^39 reach it
_HALF, _TOP = 1 << 39, (1 << 40) - 1
_EXPONENTS = ["0", "1", "2", "3", "-1", "-2", "(-3)", "(2)", "1001"]
_HUGE_EXPONENTS = ["99999999999", str(_HALF), str(_HALF - 1), str(_TOP), f"-{_TOP}",
                   str(_TOP + 1)]
_LITERALS = ["0", "1", "2", "3", "4", "6", "12", "9" * _digit_limit(),
             "1" + "0" * (_digit_limit() - 1), "9" * (_digit_limit() + 1)]


@st.composite
def texts(draw):
    """A table of 0..3 symbols and a text in its names, i and the operators.

    Huge exponents and quotients by sums never meet in one text: a gcd
    of sums of such degrees runs through every degree between them.
    """
    names = ["x", "y", "z"][:draw(st.integers(0, 3))]
    huge = draw(st.booleans())
    exponents = st.sampled_from(_EXPONENTS + _HUGE_EXPONENTS if huge else _EXPONENTS)
    atom = st.sampled_from(_LITERALS) | st.just("i")
    if names:
        name = st.sampled_from(names)
        atom |= name | st.tuples(name, exponents).map("^".join)
    if draw(st.integers(0, 9)) == 0:
        atom |= st.just("w")  # undeclared

    def grow(sub):
        options = [
            st.tuples(sub, st.sampled_from(" + | - |*|/".split("|")), sub).map("".join),
            sub.map(lambda s: f"({s})"),
            sub.map(lambda s: f"-{s}"),
            st.tuples(sub, exponents).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(sub, exponents).map("^".join),
            st.tuples(sub, st.integers(1, 80)).map(lambda t: t[0] + "/2" * t[1]),
        ]
        if not huge:
            options.append(st.tuples(sub, sub, sub).map(lambda t: f"{t[0]}/({t[1]} - {t[2]})"))
        return st.one_of(options)

    return SymbolTable(names), draw(st.recursive(atom, grow, max_leaves=8))


@given(texts())
def test_parse_matches_step_by_step_arithmetic(case):
    table, text = case
    assert _outcome(parse, text, table) == _outcome(reference_parse, text, table)


def test_parse_routes_agree_on_chosen_texts():
    table = SymbolTable(["x", "y", "z"])
    for text in (
        "x" + "/2" * 200,
        "(x + 1)/(x - 1)*y^-1 + z",
        "(x*y + 1)^-2/(x - y)^2 + x^-1",
        "((x + y)/(x - y))^3 - 1/x",
        "(x - x)^-1", "1/(y - y)", "0^0", "(x/x - 1)^-2",
        f"x^{_TOP}*x", f"x^{_TOP}*x/x", f"x^-1*x^{_TOP}*x", f"x^{_TOP} + x^-1",
        f"x^{_HALF}*x^{_HALF}", f"x^{_HALF} + x^-{_HALF - 1}", f"x^{_HALF} + x^-{_HALF}",
        f"(x^{_HALF}*y)^2", f"(y/x)^{_TOP}", f"(2*x^-3)^-{_HALF}",
        f"(x*x^-1)^{_TOP + 1}", f"(x^2/x^2*y)^{_HALF}", f"(x^2/x^2*y)^-{_TOP + 1}",
        "(2/2)^99999999999", "(2*i/(1 + i))^7/(2*x)^-5", "((1+i)*x/(2*y))^-3",
        "(x + 1)^1000", "(x^-1 + y^-1)^500", "(x^-1 + y^-1)^501",
        "(x^99999999999 + 1)/(x + 1)", f"x^{_TOP + 1}", f"(x^-1 + 1)^{_TOP + 1}",
        "-" * MAX_DEPTH + "x", "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
        "-" * (MAX_DEPTH + 1) + "x",
        "x^2*y + (3/4 + 1/3*i)*x^-1 - 1/12*y^-2", "((1 + 6*i)*x^2*y^3 + 6 + 12*i)/(4*x*y)",
        # sums over two monomials, Scalar operands on either side, powers off the unit route
        "x/y + 1/(2*y^2)", "1/(x + 1) + x", "x - 1/(x + 1)", "(1/(x + 1))/x",
        "(x + 1)^2*y + 1/x", "(i*x)^-3*y", "(x/y)^3", "(x^2/x)^3",
        f"1/(x + 1)*x^{_TOP}*x", f"x^{_TOP}*x/(x + 1)", f"x^{_TOP}/(x + 1)*x",
        f"1/(x + 1) + x^{_TOP}*x", f"(x + 1)^-1*x^-{_TOP}*x^-1", f"x^{_HALF} + 1/(x + 1)",
        # powers of a unit times a monomial, at and past the exponent bound
        "i^99999", "(-i)^99999999999", "(i*x)^-99999", "(-i*x*y)^1000000",
        f"(x*y)^{_TOP}", f"(i*x)^{_TOP + 1}", "(-1)^99999999999",
    ):
        assert _outcome(parse, text, table) == _outcome(reference_parse, text, table), text


@given(st.integers() | st.integers(-10 ** 60, 10 ** 60),
       st.integers(1, 10 ** 6) | st.integers(1, 10 ** 60))
def test_ratio_formatter_prints_the_fraction(x, d):
    assert _ratio_str(x, d) == str(Fraction(x, d))
