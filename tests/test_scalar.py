"""The exact scalar field: Gaussian-rational coefficients, Laurent monomials."""

import operator
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from braidbax import PoleError, Scalar, SymbolTable, UnknownSymbol, sqrt_scalar
from braidbax.scalar import (
    _canonical,
    _canonical_term,
    _content,
    _dot,
    _gint_gcd,
    _gmul,
    _normaliser,
    _power,
)

from conftest import TABLE, nonzero_scalars, scalars, to_sympy


# ------------------------------------------------------------------ tables


def test_symbol_table_basics():
    table = SymbolTable(["a", "b"])
    assert str(table.symbol("a") + table.symbol("b")) == "a + b"
    with pytest.raises(UnknownSymbol):
        table.symbol("c")
    with pytest.raises(ValueError):
        SymbolTable(["i"])  # the imaginary unit is reserved
    with pytest.raises(ValueError):
        SymbolTable(["a", "a"])


def test_foreign_table_mix_rejected():
    other = SymbolTable(["x"])
    with pytest.raises(ValueError):
        TABLE.symbol("x") + other.symbol("x")


def test_table_scalar_is_the_one_conversion():
    x = TABLE.symbol("x")
    assert TABLE.scalar(x) is x
    assert str(TABLE.scalar(-3)) == "-3"
    assert str(TABLE.scalar(Fraction(-6, 4))) == "-3/2"
    assert TABLE.scalar(0).is_zero()
    with pytest.raises(ValueError):
        TABLE.scalar(SymbolTable(["x"]).symbol("x"))
    for value in (True, 0.5, 1j, "1", None):
        with pytest.raises(TypeError):
            TABLE.scalar(value)
        with pytest.raises(TypeError):
            x + value


# ------------------------------------------------------- canonical behaviour


def test_canonical_examples():
    x = TABLE.symbol("x")
    i = TABLE.i()
    one = TABLE.one()
    assert str((one + i) / ((1 - i) * x)) == "i/x"
    assert str((x * x - 1) / (x - 1)) == "x + 1"
    assert str(x / x) == "1"
    assert str(x ** -2 * x ** 2) == "1"
    assert str((2 * x) / 4) == "1/2*x"
    assert str(-x) == "-x"


def test_denominator_normalisation_is_idempotent():
    x = TABLE.symbol("x")
    i = TABLE.i()
    v = (-1 + i) / ((1 + i) * x)
    assert str(v) == "i/x"
    w = v * TABLE.one()
    assert str(w) == str(v)


def test_pole_error():
    x = TABLE.symbol("x")
    with pytest.raises(PoleError):
        x / (x - x)
    with pytest.raises(PoleError):
        TABLE.zero() ** -1


def test_scalars_are_unhashable():
    with pytest.raises(TypeError):
        hash(TABLE.one())


def test_is_real_and_conjugate():
    x = TABLE.symbol("x")
    i = TABLE.i()
    assert (x + 1).is_real()
    assert not (x + i).is_real()
    assert (x + i).conjugate() == x - i
    assert ((x + i) * (x + i).conjugate()).is_real()


def test_power_semantics():
    x = TABLE.symbol("x")
    assert x ** 0 == TABLE.one()
    assert x ** -1 * x == TABLE.one()
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    assert (x + 1) ** 64 == ((x + 1) ** 8) ** 8


def test_constant_multiples_of_the_denominator_reduce():
    # with two symbols no gcd is taken, but num = c*den still means c
    x, y = TABLE.symbols("x", "y")
    i = TABLE.i()
    p = x * x - y + i * x * y
    assert str(p / p) == "1"
    assert str(-p / p) == "-1"
    assert str((2 + i) * x * p / (3 * x * p)) == "2/3 + 1/3*i"
    assert str((x + y) / (x - y)) == "(x + y)/(x - y)"


def test_equality_cross_multiplies():
    x, y = TABLE.symbols("x", "y")
    assert x / y == (x * x) / (x * y)
    assert x / y != y / x


# ------------------------------------------------------------- fast routes
#
# A value with a one-term denominator has exactly one canonical form, so
# each direct route must store the dicts its general counterpart stores.

_TABLES = [SymbolTable(names) for names in (["x"], ["x", "y"], ["x", "y", "z"])]
_gints = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(lambda z: z != (0, 0))


def _forms(value):
    return value.num, value.den


@st.composite
def _factor(draw, table, laurent_only):
    value = draw(nonzero_scalars(names=table.names, table=table))
    if laurent_only or draw(st.booleans()):
        return value
    # a two-term denominator: no longer a Laurent polynomial
    name = draw(st.sampled_from(table.names))
    return value / (table.symbol(name) + draw(st.integers(1, 3)))


@given(st.data())
def test_one_term_route_matches_the_general_route(data):
    n = data.draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-3, 3)] * n)
    common = data.draw(_gints)  # a shared factor, so that content is found
    num = {data.draw(exps): _gmul(common, data.draw(_gints))}
    den = {data.draw(exps): _gmul(common, data.draw(_gints))}
    assert _canonical_term((0,) * n, num, den) == _canonical(n, num, den)


@given(st.lists(_gints, min_size=1, max_size=5), _gints, st.integers(1, 6))
def test_integer_first_content_gives_the_euclid_forms(coeffs, common, k):
    coeffs = [_gmul((k * common[0], k * common[1]), c) for c in coeffs]

    def normalised(g):
        h, m = _normaliser(g, coeffs[-1])
        return [(r // m, i // m) for r, i in (_gmul(c, h) for c in coeffs)]

    assert normalised(_content(coeffs)) == normalised(reduce(_gint_gcd, coeffs))


@given(st.data(), st.integers(-6, 6))
def test_one_term_power_matches_square_and_multiply(data, e):
    table = data.draw(st.sampled_from(_TABLES))
    exps = st.tuples(*[st.integers(0, 3)] * table.n)
    value = Scalar(table, {data.draw(exps): data.draw(_gints)},
                   {data.draw(exps): data.draw(_gints)})
    base = value if e >= 0 else Scalar(table, value.den, value.num)
    assert _forms(value ** e) == _forms(_power(table.one(), base, abs(e)))


@pytest.mark.parametrize("laurent_only", [True, False])
@given(data=st.data())
def test_dot_matches_the_step_by_step_sum(laurent_only, data):
    table = data.draw(st.sampled_from(_TABLES))
    factor = _factor(table, laurent_only)
    pairs = data.draw(st.lists(st.tuples(factor, factor), min_size=1, max_size=4))
    want = reduce(operator.add, (a * b for a, b in pairs))
    assert _forms(_dot(table, pairs)) == _forms(want)


# -------------------------------------------------------- the univariate gcd
#
# A value with one active symbol has exactly one canonical form, so a
# common factor of numerator and denominator must vanish without a trace.

_X = SymbolTable(["x"])
_gaussian_rationals = st.tuples(st.fractions(-5, 5, max_denominator=4),
                                st.fractions(-5, 5, max_denominator=4)).filter(any)


def _gaussian(table, z):
    return table.scalar(z[0]) + table.scalar(z[1]) * table.i()


@given(nonzero_scalars(names=("x",), table=_X), nonzero_scalars(names=("x",), table=_X),
       nonzero_scalars(names=("x",), table=_X), _gaussian_rationals)
def test_common_factors_cancel_to_the_reduced_form(p, q, g, root):
    g = g * (_X.symbol("x") - _gaussian(_X, root))  # at least one linear factor
    assert _forms((p * g) / (q * g)) == _forms(p / q)


# -------------------------------------------------------------- square roots


def test_sqrt_scalar_values():
    x = TABLE.symbol("x")
    i = TABLE.i()
    assert sqrt_scalar(TABLE.scalar(Fraction(9, 4))) == TABLE.scalar(Fraction(3, 2))
    assert sqrt_scalar(TABLE.scalar(-1)) == i
    assert sqrt_scalar(TABLE.zero()) == TABLE.zero()
    assert sqrt_scalar(x * x) is not None
    root = sqrt_scalar(4 * x * x)
    assert root is not None and root * root == 4 * x * x
    y = TABLE.symbol("y")
    for value in (TABLE.i() * x * x / (2 * y * y), TABLE.i() / 2):
        root = sqrt_scalar(value)
        assert root is not None and root * root == value
    assert sqrt_scalar(TABLE.scalar(2)) is None
    assert sqrt_scalar(TABLE.scalar(Fraction(-1, 3))) is None
    assert sqrt_scalar(1 + i) is None


def test_sqrt_scalar_constant_branch():
    # the root with positive real part wins; purely imaginary results
    # take the positive imaginary branch
    i = TABLE.i()
    assert str(sqrt_scalar(TABLE.scalar(4))) == "2"
    assert str(sqrt_scalar(TABLE.scalar(-4))) == "2*i"
    assert str(sqrt_scalar(2 * i)) == "1 + i"
    assert str(sqrt_scalar(-2 * i)) == "1 - i"
    assert str(sqrt_scalar(TABLE.scalar(Fraction(9, 4)))) == "3/2"
    assert str(sqrt_scalar(TABLE.scalar(Fraction(-9, 4)))) == "3/2*i"
    assert sqrt_scalar(TABLE.scalar(2)) is None
    assert sqrt_scalar(1 + i) is None


@given(st.data(), _gaussian_rationals)
def test_sqrt_scalar_of_a_square_takes_the_documented_branch(data, c):
    table = data.draw(st.sampled_from(_TABLES[:2]))
    z = _gaussian(table, c)
    for name in table.names:
        z = z * table.symbol(name) ** data.draw(st.integers(-3, 3))
    # the root's coefficient has positive real part, or zero real part
    # and positive imaginary part
    re, im = c if c[0] > 0 or (c[0] == 0 and c[1] > 0) else (-c[0], -c[1])
    want = z if (re, im) == c else -z
    assert _forms(sqrt_scalar(z * z)) == _forms(want)


# ---------------------------------------------------------------- properties


@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(scalars())
def test_additive_inverse(a):
    assert (a - a).is_zero()
    assert (-(-a)) == a


@given(scalars(), nonzero_scalars())
def test_division_inverts_multiplication(a, b):
    assert (a / b) * b == a
    assert (a * b) / b == a


@given(scalars())
def test_conjugation_is_an_involution(a):
    assert a.conjugate().conjugate() == a


@given(scalars(), scalars())
def test_conjugation_distributes(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(scalars())
def test_canonical_string_is_stable(a):
    # equal values print identically; printing twice is a fixed point
    b = a + TABLE.zero()
    assert str(b) == str(a)
    assert (a - b).is_zero()


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def test_arithmetic_agrees_with_sympy():
    # sympy is an independent oracle: every operation is mirrored on
    # sympy expressions and the printed result must cancel against it
    sympy = pytest.importorskip("sympy")
    operands = scalars() | scalars(names=())  # constants as well
    steps = st.lists(st.tuples(st.sampled_from("+-*/^"), operands, st.integers(-3, 3)), max_size=4)

    @given(operands, steps)
    def check(value, steps):
        expected = to_sympy(value)
        for op, operand, e in steps:
            if op == "^":
                if e < 0 and value.is_zero():
                    continue
                value, expected = value ** e, expected ** e
            elif op != "/" or not operand.is_zero():
                value = _OPS[op](value, operand)
                expected = _OPS[op](expected, to_sympy(operand))
        assert sympy.cancel(to_sympy(value) - expected) == 0

    check()
