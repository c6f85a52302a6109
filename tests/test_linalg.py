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
    char_poly,
    matrix_from_obj,
    matrix_to_obj,
    minimal_polynomial,
    rref,
)

from conftest import TABLE, matrices


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


def test_univariate_poly_divmod_and_eval():
    p = UnivariatePoly(TABLE, [2, -2, 1])
    d = UnivariatePoly(TABLE, [-(1 + TABLE.i()), 1])
    quo, rem = divmod(p, d)
    assert rem.is_zero()
    assert quo == UnivariatePoly(TABLE, [-(1 - TABLE.i()), 1])
    assert p.eval_scalar(1 + TABLE.i()).is_zero()
    m = SquareMatrix(TABLE, [[1, 1], [-1, 1]])
    assert p.eval_matrix(m).is_zero()


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


def test_char_poly():
    m = SquareMatrix(TABLE, [[1, 1], [-1, 1]])
    assert char_poly(m) == UnivariatePoly(TABLE, [2, -2, 1])
    big = SquareMatrix.identity(TABLE, 5)
    with pytest.raises(DimensionMismatch):
        char_poly(big)
    table = SymbolTable(["q"])
    rhat = braid(builtin("s14_r", table))
    assert char_poly(rhat) == minimal_polynomial(rhat) * UnivariatePoly(table, [-1, 1])


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
