"""The exact scalar field: Gaussian-rational coefficients, Laurent monomials."""

import math
import operator
from fractions import Fraction
from functools import reduce
from itertools import chain

import pytest
from hypothesis import example, given, strategies as st

from braidbax import PoleError, Scalar, SymbolTable, UnknownSymbol, sqrt_scalar
from braidbax.scalar import (
    MAX_GCD_DEGREE,
    MAX_SYMBOL_EXPONENT,
    MAX_SYMBOLS,
    DegreeLimitExceeded,
    ExponentLimitExceeded,
    _canonical,
    _canonical_over_term,
    _content,
    _divide,
    _dot,
    _gint_gcd,
    _gmul,
    _gpow,
    _normaliser,
    _over_content,
    _over_int,
    _padd,
    _pmul,
    _ugcd,
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


def test_symbol_count_is_bounded():
    names = [f"s{k}" for k in range(MAX_SYMBOLS + 1)]
    table = SymbolTable(names[:-1])
    assert table.n == MAX_SYMBOLS == 100
    with pytest.raises(ValueError, match="101 symbols, beyond the limit 100"):
        SymbolTable(names)


def test_one_symbol_gcd_degree_is_bounded():
    table = SymbolTable(["a", "b"])
    a, b = table.symbols("a", "b")
    n = MAX_GCD_DEGREE
    # at the bound the gcd is taken: a^n - 1 = (a - 1)(a^(n-1) + ... + a + 1)
    value = (a ** n - 1) / (a - 1)
    assert value.den == {0: (1, 0)} and len(value.num) == n
    with pytest.raises(DegreeLimitExceeded,
                       match=f"^quotient of degree {n + 1} in b, beyond the gcd limit {n}$"):
        (b ** (n + 1) - 1) / (b - 1)
    # with two active symbols no gcd is taken, so no bound applies
    assert len(((a ** (n + 1) - b) / (a - b)).num) == 2


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


def test_each_table_shares_one_zero_and_one_one():
    table = SymbolTable(["x"])
    zero, one = table.zero(), table.one()
    assert zero is table.zero() is table.scalar(0) is table.scalar(Fraction(0))
    assert one is table.one() is table.scalar(1) is table.scalar(Fraction(3, 3))
    assert (zero.num, zero.den) == ({}, {0: (1, 0)})
    assert (one.num, one.den) == ({0: (1, 0)}, {0: (1, 0)})
    assert table.scalar(-1) is not one and table.scalar(2) is not one
    # another table of the same names has its own
    assert SymbolTable(["x"]).zero() is not zero


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


def _keys(table, n_max=6):
    """Packed keys of exponents 0..n_max; the kernel never sees a negative one."""
    return st.tuples(*[st.integers(0, n_max)] * table.n).map(table._pack)


def _routed(canonical, table, num, den):
    try:
        return canonical(table, num, den)
    except ExponentLimitExceeded as exc:
        return str(exc)


@given(st.data())
def test_one_term_route_matches_the_general_route(data):
    table = data.draw(st.sampled_from(_TABLES))
    common = data.draw(_gints)  # a shared factor, so that content is found
    # exponents at and past the bound, so that both routes raise alike
    field = st.integers(0, 6) | st.sampled_from([MAX_SYMBOL_EXPONENT, MAX_SYMBOL_EXPONENT + 1])
    keys = st.tuples(*[field] * table.n).map(table._pack)
    num = data.draw(st.dictionaries(keys, _gints.map(lambda c: _gmul(common, c)), max_size=4))
    # a positive int over a monomial takes the step's integer-content path
    den = {data.draw(keys): data.draw(_gints.map(lambda c: _gmul(common, c))
                                      | st.integers(1, 60).map(lambda r: (r, 0)))}
    assert (_routed(_canonical_over_term, table, num, den)
            == _routed(_canonical, table, num, den))


@given(st.lists(_gints, min_size=1, max_size=5), _gints, st.integers(1, 6))
@example(coeffs=[(1, 0), (0, 1), (2, 1)], common=(1, 1), k=3)  # norms' gcd 2: content 3*(1 + i)
def test_integer_first_content_gives_the_euclid_forms(coeffs, common, k):
    coeffs = [_gmul((k * common[0], k * common[1]), c) for c in coeffs]

    def normalised(g):
        h, m = _normaliser(g, coeffs[-1])
        return [(r // m, i // m) for r, i in (_gmul(c, h) for c in coeffs)]

    assert normalised(_content(coeffs)) == normalised(reduce(_gint_gcd, coeffs))


def _square_and_multiply(one, base, e):
    """Reference: base ** e for e >= 0 by square and multiply, starting from one."""
    out = one
    while e:
        if e & 1:
            out = out * base
        e >>= 1
        if e:
            base = base * base
    return out


@given(st.data(), st.integers(-6, 6))
def test_one_term_power_matches_square_and_multiply(data, e):
    table = data.draw(st.sampled_from(_TABLES))
    value = Scalar(table, {data.draw(_keys(table, 3)): data.draw(_gints)},
                   {data.draw(_keys(table, 3)): data.draw(_gints)})
    base = value if e >= 0 else Scalar(table, value.den, value.num)
    assert _forms(value ** e) == _forms(_square_and_multiply(table.one(), base, abs(e)))


@pytest.mark.parametrize("laurent_only", [True, False])
@given(data=st.data())
def test_dot_matches_the_step_by_step_sum(laurent_only, data):
    table = data.draw(st.sampled_from(_TABLES))
    factor = _factor(table, laurent_only)
    pairs = data.draw(st.lists(st.tuples(factor, factor), min_size=1, max_size=4))
    want = reduce(operator.add, (a * b for a, b in pairs))
    assert _forms(_dot(table, pairs)) == _forms(want)


# ------------------------------------------------------- packed exponent keys
#
# A key packs a monomial's exponents into one int, one field per symbol.
# The reference below is the kernel written on exponent tuples; each packed
# route must store the forms it stores, read back through _unpack.

_WIDE = [SymbolTable([f"s{k}" for k in range(n)]) for n in range(8)]
_fields = st.integers(0, MAX_SYMBOL_EXPONENT) | st.sampled_from([0, 1, MAX_SYMBOL_EXPONENT])


@given(st.data())
def test_packing_round_trips_and_keeps_tuple_order(data):
    table = data.draw(st.sampled_from(_WIDE))
    e = data.draw(st.tuples(*[_fields] * table.n))
    # f shares a prefix of e, so that later fields decide the order too
    k = data.draw(st.integers(0, table.n))
    f = e[:k] + data.draw(st.tuples(*[_fields] * (table.n - k)))
    assert table._unpack(table._pack(e)) == e
    assert (table._pack(e) < table._pack(f)) == (e < f)
    assert (table._pack(e) == table._pack(f)) == (e == f)


def _tuples(table, poly):
    return {table._unpack(e): c for e, c in poly.items()}


def _tuple_forms(value):
    return _tuples(value.table, value.num), _tuples(value.table, value.den)


def _ref_pmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out = _padd(out, {tuple(map(operator.add, ea, eb)): _gmul(ca, cb)})
    return out


def _ref_canonical(n, num, den):
    one = (0,) * n
    if not num:
        return {}, {one: (1, 0)}
    mins = [min(col) for col in zip(*num, *den)]
    num = {tuple(map(operator.sub, e, mins)): c for e, c in num.items()}
    den = {tuple(map(operator.sub, e, mins)): c for e, c in den.items()}
    if len(den) > 1 and num.keys() == den.keys():
        lead = next(iter(den))
        if all(_gmul(num[e], den[lead]) == _gmul(den[e], num[lead]) for e in den):
            num, den = {one: num[lead]}, {one: den[lead]}
    active = [k for k in range(n) if any(e[k] for e in chain(num, den))]
    if len(num) > 1 and len(den) > 1 and len(active) == 1:
        k, = active
        a = {e[k]: c for e, c in num.items()}
        b = {e[k]: c for e, c in den.items()}
        g = _ugcd(a, b)
        if max(g):
            num = {one[:k] + (d,) + one[k + 1:]: c for d, c in _divide(a, g)[0].items()}
            den = {one[:k] + (d,) + one[k + 1:]: c for d, c in _divide(b, g)[0].items()}
    if len(den) == 1 and one in den:
        num, d = _over_int(num, den[one])
        return num, {one: d[0]}
    return _over_content(num, den)


def _ref_mul(n, a, b):
    return _ref_canonical(n, _ref_pmul(a[0], b[0]), _ref_pmul(a[1], b[1]))


def _ref_add(n, a, b):
    if a[1] == b[1]:
        return _ref_canonical(n, _padd(a[0], b[0]), a[1])
    return _ref_canonical(n, _padd(_ref_pmul(a[0], b[1]), _ref_pmul(b[0], a[1])),
                          _ref_pmul(a[1], b[1]))


def _ref_dot(n, pairs):
    if len(pairs) == 1 or not all(len(a[1]) == 1 and len(b[1]) == 1 for a, b in pairs):
        return reduce(lambda x, y: _ref_add(n, x, y), (_ref_mul(n, a, b) for a, b in pairs))
    terms = []
    for a, b in pairs:
        (ea, ca), = a[1].items()
        (eb, cb), = b[1].items()
        cr, ci = _gmul(ca, cb)
        terms.append((a[0], b[0], (cr, -ci), cr * cr + ci * ci, tuple(map(operator.add, ea, eb))))
    lcm = math.lcm(*(t[3] for t in terms))
    top = tuple(map(max, zip(*(t[4] for t in terms))))
    num = {}
    for anum, bnum, (hr, hi), norm, m in terms:
        h = (hr * (lcm // norm), hi * (lcm // norm))
        shift = tuple(map(operator.sub, top, m))
        shifted = {tuple(map(operator.add, e, shift)): _gmul(c, h) for e, c in anum.items()}
        num = _padd(num, _ref_pmul(shifted, bnum))
    return _ref_canonical(n, num, {top: (lcm, 0)})


def _ref_one_term_pow(n, value, e):
    num, den = value
    if e < 0:
        num, den, e = den, num, -e
    (a, c), = num.items()
    (b, d), = den.items()
    return _ref_canonical(n, {tuple(x * e for x in a): _gpow(c, e)},
                          {tuple(x * e for x in b): _gpow(d, e)})


def _ref_sqrt(table, value):
    # the root of the monomial ratio times the root of the coefficient ratio
    (ne, nc), = value[0].items()
    (de, dc), = value[1].items()
    if any(x % 2 for x in (*ne, *de)):
        return None
    coeff = sqrt_scalar(Scalar(table, {0: nc}, {0: dc}))
    if coeff is None:
        return None
    mono = ({tuple(x // 2 for x in ne): (1, 0)}, {tuple(x // 2 for x in de): (1, 0)})
    return _ref_mul(table.n, mono, _tuple_forms(coeff))


@given(st.data())
def test_packed_canonical_matches_the_tuple_reference(data):
    table = data.draw(st.sampled_from(_TABLES))
    poly = st.dictionaries(_keys(table), _gints, min_size=1, max_size=4)
    num, den = data.draw(poly), data.draw(poly)
    want = _ref_canonical(table.n, _tuples(table, num), _tuples(table, den))
    assert _tuple_forms(Scalar(table, num, den)) == want


@pytest.mark.parametrize("laurent_only", [True, False])
@given(data=st.data())
def test_packed_arithmetic_matches_the_tuple_reference(laurent_only, data):
    table = data.draw(st.sampled_from(_TABLES))
    factor = _factor(table, laurent_only)
    a, b = data.draw(factor), data.draw(factor)
    ta, tb = _tuple_forms(a), _tuple_forms(b)
    assert _tuples(table, _pmul(a.num, b.num)) == _ref_pmul(ta[0], tb[0])
    assert _tuple_forms(a * b) == _ref_mul(table.n, ta, tb)
    assert _tuple_forms(a + b) == _ref_add(table.n, ta, tb)
    pairs = data.draw(st.lists(st.tuples(factor, factor), min_size=1, max_size=4))
    want = _ref_dot(table.n, [(_tuple_forms(x), _tuple_forms(y)) for x, y in pairs])
    assert _tuple_forms(_dot(table, pairs)) == want


@given(st.data(), st.integers(-6, 6))
def test_packed_one_term_routes_match_the_tuple_reference(data, e):
    table = data.draw(st.sampled_from(_TABLES))
    value = Scalar(table, {data.draw(_keys(table, 3)): data.draw(_gints)},
                   {data.draw(_keys(table, 3)): data.draw(_gints)})
    assert _tuple_forms(value ** e) == _ref_one_term_pow(table.n, _tuple_forms(value), e)
    for v in (value, value * value):
        root = sqrt_scalar(v)
        want = _ref_sqrt(table, _tuple_forms(v))
        assert (root if root is None else _tuple_forms(root)) == want


def test_exponents_are_bounded_per_symbol():
    top = MAX_SYMBOL_EXPONENT
    table = SymbolTable(["x", "y"])
    x, y = table.symbols("x", "y")
    at = x ** top
    assert str(at) == f"x^{top}"
    assert str(at * y ** top) == f"x^{top}*y^{top}"
    assert str((y / x) ** top) == f"y^{top}/x^{top}"
    assert at / x == x ** (top - 1)
    assert sqrt_scalar(x ** (top - 1)) == x ** ((top - 1) // 2)
    # a stored form is checked after the shift: x^(top + 1)/x is x^top
    assert Scalar(table, {table._pack((top + 1, 0)): (1, 0)}, {table._pack((1, 0)): (1, 0)}) == at
    past = {
        "x": [lambda: x ** (top + 1), lambda: at * x, lambda: (at + y) * x,
              lambda: (y / x) ** -(top + 1), lambda: (x / y) ** (1 << 64),
              lambda: Scalar(table, {table._pack((top + 1, 0)): (1, 0)}, {0: (1, 0)})],
        # y is the low field: y^(2^64 + 1) would wrap to x*y without the check first
        "y": [lambda: y ** (top + 1), lambda: y ** ((1 << 64) + 1), lambda: 1 / y ** top / y],
    }
    for name, makes in past.items():
        for make in makes:
            with pytest.raises(ExponentLimitExceeded,
                               match=f"^exponent of {name} beyond the limit {top}$"):
                make()


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
