"""Matrices, univariate polynomials, built-ins, and the JSON layout."""

import operator
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from braidbax import (
    DimensionMismatch,
    SingularMatrix,
    SquareMatrix,
    SymbolTable,
    UnivariatePoly,
    braid,
    builtin,
    matrix_from_obj,
    matrix_to_obj,
    minimal_polynomial,
)
from braidbax.linalg import _row_space
from braidbax.scalar import Scalar, _dot
from braidbax.spectral import _divide

from conftest import TABLE, matrices, nonzero_scalars, to_sympy


def test_construction_and_coercion():
    m = SquareMatrix(TABLE, [[1, Fraction(1, 2)], [TABLE.i(), 0]])
    assert m.n == 2
    assert str(m.rows[0][1]) == "1/2"
    with pytest.raises(DimensionMismatch):
        SquareMatrix(TABLE, [[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        SquareMatrix(TABLE, [])
    other = SymbolTable(["x"])
    with pytest.raises(ValueError):
        SquareMatrix(TABLE, [[other.symbol("x"), 0], [0, 1]])


def test_arithmetic():
    x = TABLE.symbol("x")
    a = SquareMatrix(TABLE, [[1, x], [0, 1]])
    b = SquareMatrix(TABLE, [[1, -x], [0, 1]])
    eye = SquareMatrix.identity(TABLE, 2)
    assert a * b == eye
    assert a + b == 2 * eye
    assert a - a == SquareMatrix.zeros(TABLE, 2)
    assert (-1) * a + a == SquareMatrix.zeros(TABLE, 2)
    assert x * eye == SquareMatrix(TABLE, [[x, 0], [0, x]])
    with pytest.raises(DimensionMismatch):
        a * SquareMatrix.identity(TABLE, 3)


def test_transpose_and_dagger():
    i = TABLE.i()
    x = TABLE.symbol("x")
    m = SquareMatrix(TABLE, [[1, i * x], [0, 2]])
    # a real matrix's dagger is its transpose
    assert SquareMatrix(TABLE, [[1, x], [0, 2]]).dagger() == SquareMatrix(TABLE, [[1, 0], [x, 2]])
    # symbols are treated as real under conjugation
    assert m.dagger() == SquareMatrix(TABLE, [[1, 0], [-i * x, 2]])
    assert m.dagger().dagger() == m


def test_inverse():
    x = TABLE.symbol("x")
    m = SquareMatrix(TABLE, [[x, 1], [1, x]])
    eye = SquareMatrix.identity(TABLE, 2)
    assert m * m.inverse() == eye
    assert m.inverse() * m == eye
    with pytest.raises(SingularMatrix):
        SquareMatrix(TABLE, [[1, 1], [1, 1]]).inverse()


def test_kron_shape_and_values():
    a = SquareMatrix(TABLE, [[0, 1], [1, 0]])
    b = SquareMatrix(TABLE, [[1, 0], [0, -1]])
    k = a.kron(b)
    assert k.n == 4
    assert k == SquareMatrix(TABLE, [
        [0, 0, 1, 0],
        [0, 0, 0, -1],
        [1, 0, 0, 0],
        [0, -1, 0, 0],
    ])


@settings(max_examples=25)
@given(matrices(), matrices(), matrices(), matrices())
def test_kron_mixed_product(a, b, c, d):
    assert a.kron(b) * c.kron(d) == (a * c).kron(b * d)


# -- stored forms: the matrix layer keeps canonical entries and skips zeros --
#
# Sums with an exact zero return the other entry as it is, and internal
# results store their entries without a second canonicalisation.  Both
# rest on canonicalisation being idempotent, which the first test checks
# next to the matrix operations that rely on it.

_TABLES = [SymbolTable(names) for names in ([], ["x"], ["x", "y"], ["x", "y", "z"])]


@st.composite
def _entries(draw, table):
    """Exact zeros (the table's shared one among them), or values whose
    denominator may have two terms, over two symbols where the table has them."""
    kind = draw(st.sampled_from(["zero", "computed zero", "laurent", "two terms"]))
    if kind == "zero":
        return table.zero()
    value = draw(nonzero_scalars(names=table.names, table=table))
    if kind == "computed zero":
        return value - value
    if kind == "two terms" and table.n:
        den = table.symbol(table.names[0]) + draw(st.integers(1, 3))
        if table.n > 1:
            den = den + draw(st.integers(-2, 2).filter(bool)) * table.symbol(table.names[1])
        value = value / den
    return value


@st.composite
def _matrix_pairs(draw):
    table = draw(st.sampled_from(_TABLES))
    n = draw(st.integers(1, 3))

    def matrix():
        return SquareMatrix(table, [[draw(_entries(table)) for _ in range(n)] for _ in range(n)])

    return table, matrix(), matrix(), draw(_entries(table))


def _forms(rows):
    return [[(e.num, e.den) for e in row] for row in rows]


@given(_matrix_pairs())
def test_canonical_forms_are_kept_and_zero_sums_match_the_scalar_route(case):
    table, a, b, c = case
    for value in (c, *(e for row in a.rows + b.rows for e in row)):
        again = Scalar(table, value.num, value.den)
        assert (again.num, again.den) == (value.num, value.den)
    ra, rb, n = a.rows, b.rows, a.n
    assert _forms((a + b).rows) == _forms([[x + y for x, y in zip(p, q)] for p, q in zip(ra, rb)])
    assert _forms((a - b).rows) == _forms([[x - y for x, y in zip(p, q)] for p, q in zip(ra, rb)])
    assert _forms((c * a).rows) == _forms([[c * x for x in p] for p in ra])
    assert _forms((a * b).rows) == _forms([
        [reduce(operator.add, (ra[i][k] * rb[k][j] for k in range(n)), table.zero())
         for j in range(n)] for i in range(n)])
    assert _forms(a.kron(b).rows) == _forms([
        [ra[i][j] * rb[k][l] for j in range(n) for l in range(n)]
        for i in range(n) for k in range(n)])


def _snapshot(values):
    return [(dict(v.num), dict(v.den)) for v in values]


@given(_matrix_pairs())
def test_no_operation_writes_into_its_operands(case):
    # the table's zero and one are shared by every value that is 0 or 1,
    # so an operation writing into an operand would corrupt them all
    table, a, b, c = case
    scalars = [c, table.zero(), table.one(), *(e for row in a.rows + b.rows for e in row)]
    before = _snapshot(scalars)
    for x in scalars:
        x.conjugate(), -x, x ** 2, x + 1, 1 - x, 0 * x
        if x:
            x ** -1, 1 / x
        for y in scalars[:4]:
            x + y, x - y, x * y
            if y:
                x / y
    _dot(table, [(x, y) for x in scalars for y in scalars[:3] if x and y])
    a + b, a - b, c * a, a * c, a * b, a.kron(b), a.dagger(), _row_space(a)
    try:
        a.inverse()
    except SingularMatrix:
        pass
    assert _snapshot(scalars) == before
    assert table.zero().num == {} and table.one().num == {0: (1, 0)}


def _column_scan_rref(rows):
    """Reduced row echelon form by scanning columns: the reduced rows,
    zero rows last, and the pivot columns.  An elimination order
    independent of the package's row-insertion step, as its oracle."""
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(len(work[0])):
        pr = next((k for k in range(r, len(work)) if not work[k][col].is_zero()), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        lead = work[r][col]
        if lead != 1:
            work[r] = [x / lead for x in work[r]]
        for k in range(len(work)):
            if k != r and not work[k][col].is_zero():
                f = work[k][col]
                work[k] = [x - f * y for x, y in zip(work[k], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work, pivots


@st.composite
def _elimination_inputs(draw):
    """A 2x2 to 5x5 matrix over TABLE in zero, one or both symbols, and
    those symbols.  Up to 4 entries are a unit times a monomial, maybe
    plus a unit times 1 or a symbol, the others small Gaussian integers;
    half the matrices then get a row that is a combination of two others,
    so rank-deficient ones are common."""
    names = draw(st.sampled_from([(), ("x",), ("x", "y")]))
    n = draw(st.integers(2, 5))
    units = st.sampled_from([1, -1, 2, TABLE.i(), Fraction(1, 2)])
    rows = [[draw(st.integers(-2, 2)) + draw(st.integers(-1, 1)) * TABLE.i()
             for _ in range(n)] for _ in range(n)]
    for cell in sorted(draw(st.sets(st.integers(0, n * n - 1), max_size=4))):
        value = draw(units)
        for name in names:
            value = value * TABLE.symbol(name) ** draw(st.integers(-1, 1))
        if draw(st.booleans()):
            value = value + draw(units) * draw(st.sampled_from([1, *TABLE.symbols(*names)]))
        rows[cell // n][cell % n] = value
    if draw(st.booleans()):
        k, *others = draw(st.permutations(range(n)))
        a, b = others[0], draw(st.sampled_from(others[:2]))
        c = draw(st.sampled_from([0, 1, -1, TABLE.i(), *TABLE.symbols(*names)]))
        rows[k] = [TABLE.scalar(p) + c * q for p, q in zip(rows[a], rows[b])]
    return names, SquareMatrix(TABLE, rows)


def _forms(rows):
    return [[(e.num, e.den) for e in row] for row in rows]


@settings(max_examples=100)
@given(_elimination_inputs())
@example(((), SquareMatrix(TABLE, [[1, 1, 0], [1, 1, 1], [2, 2, 1]])))
def test_row_space_and_inverse_match_the_column_scan_rref(case):
    names, m = case
    n = m.n
    reduced, pivots = _column_scan_rref(m.rows)
    space = _row_space(m)
    assert [list(row) for row in space] == reduced[:len(pivots)]
    if len(names) <= 1:
        assert _forms(space) == _forms(reduced[:len(pivots)])
    aug = [list(row) + [TABLE.one() if i == j else TABLE.zero() for j in range(n)]
           for i, row in enumerate(m.rows)]
    reduced_aug, pivots_aug = _column_scan_rref(aug)
    if pivots_aug[:n] != list(range(n)):
        with pytest.raises(SingularMatrix):
            m.inverse()
        return
    inverse = m.inverse()
    expected = [row[n:] for row in reduced_aug]
    assert [list(row) for row in inverse.rows] == expected
    if len(names) <= 1:
        assert _forms(inverse.rows) == _forms(expected)


def test_univariate_poly_basics():
    p = UnivariatePoly(TABLE, [2, -2, 1])
    assert str(p) == "t^2 - 2*t + 2"
    assert p.degree() == 2
    assert p.is_monic()
    assert str(UnivariatePoly(TABLE, [-1, 1])) == "t - 1"
    assert str(UnivariatePoly(TABLE, [0, 0, 1])) == "t^2"
    q = TABLE.symbol("x")
    cubic = UnivariatePoly(TABLE, [q * q, -(q * q), -TABLE.one(), TABLE.one()])
    assert str(cubic) == "t^3 - t^2 - x^2*t + x^2"


def test_univariate_poly_eval():
    # the remainder of synthetic division by t - r is the value at r:
    # 1 + i is a root of t^2 - 2t + 2, and the quotient is t - (1 - i)
    p = UnivariatePoly(TABLE, [2, -2, 1])
    quo, rem = _divide(p, 1 + TABLE.i())
    assert rem.is_zero()
    assert quo == [TABLE.one(), TABLE.i() - 1]
    _, rem = _divide(p, TABLE.scalar(3))
    assert rem == TABLE.scalar(5)


def test_minimal_polynomial_cases():
    eye = SquareMatrix.identity(TABLE, 3)
    assert str(minimal_polynomial(eye)) == "t - 1"
    nil = SquareMatrix(TABLE, [[0, 1], [0, 0]])
    assert str(minimal_polynomial(nil)) == "t^2"
    diag = SquareMatrix(TABLE, [[1, 0], [0, 2]])
    assert str(minimal_polynomial(diag)) == "t^2 - 3*t + 2"
    # repeated eigenvalues collapse: minimal degree < characteristic degree
    rep = SquareMatrix(TABLE, [[2, 0], [0, 2]])
    assert minimal_polynomial(rep).degree() == 1


def test_minimal_polynomial_agrees_with_sympy():
    # sympy is an independent oracle: its characteristic polynomial is a
    # multiple of the minimal polynomial, and for a diagonalisable matrix
    # its square-free part is the minimal polynomial itself
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    x, i = TABLE.symbol("x"), TABLE.i()
    cases = [  # (matrix, diagonalisable)
        (braid(builtin("s03_r", SymbolTable([]))), True),
        (braid(builtin("s14_r", SymbolTable(["q"]))), True),
        (builtin("perm", SymbolTable([])), True),
        (SquareMatrix(TABLE, [[1, Fraction(1, 2)], [i, 0]]), True),
        (SquareMatrix(TABLE, [[1, x], [0, 1]]), False),
        (SquareMatrix(TABLE, [[1, i * x], [0, 2]]), True),
        (SquareMatrix(TABLE, [[x, 1], [1, x]]), True),
        (SquareMatrix(TABLE, [[x, 1], [i, 2]]), True),
        (SquareMatrix(TABLE, [[0, 1], [1, 0]]).kron(SquareMatrix(TABLE, [[1, 0], [0, -1]])), True),
        (SquareMatrix(TABLE, [[1, 1], [1, 1]]), True),
        (SquareMatrix(TABLE, [[1, 1], [-1, 1]]), True),
        (SquareMatrix.identity(TABLE, 3), True),
        (SquareMatrix(TABLE, [[0, 1], [0, 0]]), False),
        (SquareMatrix(TABLE, [[1, 0], [0, 2]]), True),
        (SquareMatrix(TABLE, [[2, 0], [0, 2]]), True),
    ]
    for m, diagonalisable in cases:
        poly = minimal_polynomial(m)
        assert poly.is_monic()
        mine = sum(to_sympy(c) * t ** k for k, c in enumerate(poly.coeffs))
        charpoly = sympy.Matrix([[to_sympy(e) for e in row] for row in m.rows]).charpoly(t)
        assert sympy.cancel(sympy.rem(charpoly.as_expr(), mine, t)) == 0, m
        if diagonalisable:
            square_free = sympy.Poly(sympy.sqf_part(charpoly.as_expr(), t), t).monic()
            assert sympy.cancel(square_free.as_expr() - mine) == 0, m
        else:
            assert poly.degree() == m.n


def _two_list_minimal_polynomial(a):
    """Reference: the Krylov search keeping each reduced flat vector and its
    coefficients over the powers in two parallel lists."""
    table = a.table
    zero = table.zero()
    basis = []  # [pivot, reduced flat vector, combo over powers]
    power = SquareMatrix.identity(table, a.n)
    k = 0
    while True:
        vec = [e for row in power.rows for e in row]
        combo = [zero] * (k + 1)
        combo[k] = table.one()
        for pivot, bvec, bcombo in basis:
            f = vec[pivot]
            if not f.is_zero():
                vec = [x - f * y for x, y in zip(vec, bvec)]
                padded = list(bcombo) + [zero] * (len(combo) - len(bcombo))
                combo = [x - f * y for x, y in zip(combo, padded)]
        if all(x.is_zero() for x in vec):
            return UnivariatePoly(table, combo)
        pivot = next(idx for idx, x in enumerate(vec) if not x.is_zero())
        lead = vec[pivot]
        vec = [x / lead for x in vec]
        combo = [x / lead for x in combo]
        for trip in basis:
            g = trip[1][pivot]
            if not g.is_zero():
                trip[1] = [x - g * y for x, y in zip(trip[1], vec)]
                padded = list(trip[2]) + [zero] * (len(combo) - len(trip[2]))
                trip[2] = [x - g * y for x, y in zip(padded, combo)]
        basis.append([pivot, vec, combo])
        power = power * a
        k += 1


@st.composite
def _krylov_inputs(draw):
    """A 2x2 to 4x4 matrix over TABLE in zero, one or both symbols.

    Up to 4, 3 or 2 entries (for n = 2, 3, 4) are a unit times a monomial,
    maybe plus a unit times 1 or a symbol; the others are small Gaussian
    integers.  Up to 3x3 over both symbols a symbolic entry may be divided
    by x + c*y: a two-term denominator in two symbols, whose stored forms
    depend on the order of operations.  Denser symbolic inputs swell for
    seconds to minutes.
    """
    names = draw(st.sampled_from([(), ("x",), ("x", "y"), ("x", "y")]))
    n = draw(st.integers(2, 4))
    x, y = TABLE.symbols("x", "y")
    units = st.sampled_from([1, -1, 2, TABLE.i(), Fraction(1, 2)])
    cells = draw(st.sets(st.integers(0, n * n - 1), max_size=6 - n))
    rows = [[draw(st.integers(-2, 2)) + draw(st.integers(-1, 1)) * TABLE.i()
             for _ in range(n)] for _ in range(n)]
    for cell in sorted(cells):
        value = draw(units)
        for name in names:
            value = value * TABLE.symbol(name) ** draw(st.integers(-1, 1))
        if draw(st.booleans()):
            value = value + draw(units) * draw(st.sampled_from([1, *TABLE.symbols(*names)]))
        if names == ("x", "y") and n < 4 and draw(st.booleans()):
            value = value / (x + draw(st.sampled_from([1, 2, -1])) * y)
        rows[cell // n][cell % n] = value
    return SquareMatrix(TABLE, rows)


@settings(max_examples=100)
@given(_krylov_inputs())
# a dense one, on which reducing by the basis rows in another order
# changes the stored forms
@example(matrix_from_obj({"n": 3, "symbols": ["x", "y"], "entries": [
    ["0", "3*x/(x + 2*y)", "(-x*y + 3)/(x^2 - x*y)"],
    ["(2*x*y + 3)/(x^2 + 2*x*y)", "0", "(-2*x*y - 3)/(x^2 + 2*x*y)"],
    ["0", "(-2*y - 2)/(x - y)", "0"]]}, TABLE))
def test_minimal_polynomial_keeps_the_stored_forms_of_the_two_list_search(m):
    forms = [(c.num, c.den) for c in minimal_polynomial(m).coeffs]
    assert forms == [(c.num, c.den) for c in _two_list_minimal_polynomial(m).coeffs]


def test_builtin_names():
    table = SymbolTable(["q"])
    assert builtin("S03_R", table) == builtin("s03_r", table)
    for name in ("s03_r", "s14_r", "perm", "s03_m_diag", "s03_m_prime_unnorm"):
        assert builtin(name, table).n == 4
    with pytest.raises(ValueError):
        builtin("s99", table)
    perm = builtin("perm", table)
    assert perm * perm == SquareMatrix.identity(table, 4)


def test_braid_is_perm_times_r():
    table = SymbolTable(["q"])
    r = builtin("s14_r", table)
    assert braid(r) == builtin("perm", table) * r
    with pytest.raises(DimensionMismatch):
        braid(SquareMatrix.identity(table, 2))


def test_matrix_json_round_trip():
    table = SymbolTable(["q"])
    rhat = braid(builtin("s14_r", table))
    obj = matrix_to_obj(rhat)
    assert obj["n"] == 4
    assert obj["symbols"] == ["q"]
    assert all(isinstance(entry, str) for row in obj["entries"] for entry in row)
    again = matrix_from_obj(obj)
    assert matrix_to_obj(again) == obj
    assert matrix_from_obj(obj, table) == rhat


def test_matrix_from_obj_validation():
    from braidbax import ParseError, UnknownSymbol

    with pytest.raises(ValueError):
        matrix_from_obj({"n": 2, "symbols": [], "entries": [["1", "0"]]})
    with pytest.raises(ValueError):
        matrix_from_obj({"symbols": [], "entries": [["1"]]})
    with pytest.raises(ValueError):
        matrix_from_obj({"n": 0, "symbols": [], "entries": []})
    with pytest.raises(ParseError):
        matrix_from_obj({"n": 1, "symbols": [], "entries": [["2 +"]]})
    with pytest.raises(UnknownSymbol):
        matrix_from_obj({"n": 1, "symbols": [], "entries": [["q"]]})
