"""Matrices, univariate polynomials, built-ins, and the JSON layout."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

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
    rref,
)

from conftest import TABLE, matrices, to_sympy


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
    assert (-a) + a == SquareMatrix.zeros(TABLE, 2)
    assert x * eye == SquareMatrix(TABLE, [[x, 0], [0, x]])
    with pytest.raises(DimensionMismatch):
        a * SquareMatrix.identity(TABLE, 3)


def test_transpose_and_dagger():
    i = TABLE.i()
    x = TABLE.symbol("x")
    m = SquareMatrix(TABLE, [[1, i * x], [0, 2]])
    assert m.transpose() == SquareMatrix(TABLE, [[1, 0], [i * x, 2]])
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


def test_matrix_powers():
    x = TABLE.symbol("x")
    m = SquareMatrix(TABLE, [[x, 1], [TABLE.i(), 2]])
    assert m ** 0 == SquareMatrix.identity(TABLE, 2)
    assert m ** 5 == m * m * m * m * m
    assert m ** -2 == m.inverse() ** 2


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


def test_rref():
    one = TABLE.one()
    zero = TABLE.zero()
    reduced, pivots = rref([
        [one, one, zero],
        [one, one, one],
        [2 * one, 2 * one, one],
    ])
    assert pivots == [0, 2]
    assert reduced[0] == [one, one, zero]
    assert reduced[1] == [zero, zero, one]
    assert all(entry.is_zero() for entry in reduced[2])


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
    p = UnivariatePoly(TABLE, [2, -2, 1])
    assert p.eval_scalar(1 + TABLE.i()).is_zero()


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
