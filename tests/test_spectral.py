"""Root finding, Lagrange projectors, and diagonalizer conjugation."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from braidbax import (
    IrreducibleOverSearchSpace,
    NotDiagonal,
    RepeatedRoots,
    SquareMatrix,
    SymbolTable,
    UnivariatePoly,
    braid,
    builtin,
    check_diagonalizer,
    find_roots,
    lagrange_projectors,
    minimal_polynomial,
)
from braidbax.linalg import _row_space
from braidbax.spectral import _divide, _recompose
from conftest import TABLE, scalars, transpose

QT = SymbolTable(["q"])
Q = QT.symbol("q")


def test_find_roots_quadratic():
    table = SymbolTable([])
    roots = find_roots(UnivariatePoly(table, [2, -2, 1]))
    assert [str(r) for r in roots] == ["1 + i", "1 - i"]


def test_find_roots_cubic_with_symbols():
    poly = UnivariatePoly(QT, [Q * Q, -(Q * Q), -QT.one(), QT.one()])
    roots = find_roots(poly)
    assert [str(r) for r in roots] == ["-q", "1", "q"]


def test_find_roots_strips_zero_roots():
    table = SymbolTable([])
    roots = find_roots(UnivariatePoly(table, [0, 0, -1, 1]))  # t^2 (t - 1)
    assert [str(r) for r in roots] == ["0", "0", "1"]


def test_find_roots_requires_monic():
    table = SymbolTable([])
    with pytest.raises(ValueError):
        find_roots(UnivariatePoly(table, [1, 2]))
    with pytest.raises(ValueError):
        find_roots(UnivariatePoly(table, [5]))


def test_find_roots_irreducible():
    table = SymbolTable([])
    with pytest.raises(IrreducibleOverSearchSpace) as info:
        find_roots(UnivariatePoly(table, [-2, 0, 1]))  # t^2 - 2
    assert "t^2 - 2" in str(info.value)
    # cubic with no unit-times-monomial root
    with pytest.raises(IrreducibleOverSearchSpace):
        find_roots(UnivariatePoly(QT, [Q + 1, 0, 0, 1]))


@pytest.mark.parametrize("names", [("x",), ("x", "y")])
@given(data=st.data())
def test_deflate_returns_the_quotient(names, data):
    root = data.draw(scalars(names=names))
    quotient = data.draw(st.lists(scalars(names=names), max_size=3)) + [TABLE.one()]
    # coefficients of (t - root) * quotient, ascending in degree
    product = [-root * quotient[0]]
    product += [low - root * high for low, high in zip(quotient, quotient[1:])]
    product.append(quotient[-1])
    quo, rem = _divide(UnivariatePoly(TABLE, product), root)
    assert rem.is_zero()
    assert [str(c) for c in reversed(quo)] == [str(c) for c in quotient]


def test_lagrange_projectors_resolve_both_cases():
    rhat = braid(builtin("s03_r", SymbolTable([])))
    ps = lagrange_projectors(rhat, find_roots(minimal_polynomial(rhat)))
    assert len(ps) == 2
    assert sum((proj for _, proj in ps), SquareMatrix.zeros(rhat.table, 4)) == \
        SquareMatrix.identity(rhat.table, 4)
    assert _recompose(rhat, ps) == rhat

    rhat = braid(builtin("s14_r", QT))
    ps = lagrange_projectors(rhat, find_roots(minimal_polynomial(rhat)))
    assert len(ps) == 3
    for _, proj in ps:
        assert proj * proj == proj
    assert _recompose(rhat, ps) == rhat


def test_lagrange_rejects_bad_roots():
    table = SymbolTable([])
    eye = SquareMatrix.identity(table, 2)
    with pytest.raises(RepeatedRoots):
        lagrange_projectors(eye, [table.one(), table.one()])
    with pytest.raises(ValueError):
        lagrange_projectors(eye, [table.scalar(2)])


def test_eigenvectors_have_their_eigenvalues():
    # the column space of each projector is the eigenspace of its eigenvalue
    rhat = braid(builtin("s14_r", QT))
    ps = lagrange_projectors(rhat, find_roots(minimal_polynomial(rhat)))
    seen = 0
    for eig, proj in ps:
        vectors = _row_space(transpose(proj))
        assert vectors
        for vec in vectors:
            image = [
                sum((rhat.rows[r][c] * vec[c] for c in range(4)), QT.zero())
                for r in range(4)
            ]
            assert all(image[r] == eig * vec[r] for r in range(4))
            seen += 1
    assert seen == 4  # a full eigenbasis


def test_check_diagonalizer_known_conjugations():
    rhat14 = braid(builtin("s14_r", QT))
    m = builtin("s03_m_diag", QT)
    conj = check_diagonalizer(m, rhat14)
    assert conj == SquareMatrix(QT, [
        [Q, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -Q],
    ])

    rhat03 = braid(builtin("s03_r", QT))
    mp = builtin("s03_m_prime_unnorm", QT)
    one, i = QT.one(), QT.i()
    conj = check_diagonalizer(mp, rhat03)
    assert conj == SquareMatrix(QT, [
        [one - i, 0, 0, 0],
        [0, one - i, 0, 0],
        [0, 0, one + i, 0],
        [0, 0, 0, one + i],
    ])


def test_check_diagonalizer_guards():
    eye = SquareMatrix.identity(QT, 4)
    skew = SquareMatrix(QT, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(ValueError):
        check_diagonalizer(skew, eye)  # not unitary at all
    with pytest.raises(ValueError):
        check_diagonalizer(SquareMatrix.zeros(QT, 4), eye)  # zero multiple of a unitary
    rhat14 = braid(builtin("s14_r", QT))
    with pytest.raises(NotDiagonal) as info:
        check_diagonalizer(2 * eye, rhat14)  # trivial conjugation keeps corners
    assert info.value.position == (0, 3)


def test_norm_squared_accepts_fractions():
    table = SymbolTable([])
    eye = SquareMatrix.identity(table, 2)
    half_unitary = SquareMatrix(table, [[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    # the factor read off d * dagger(d) is 1/4
    conj = check_diagonalizer(half_unitary, eye)
    assert conj == eye
