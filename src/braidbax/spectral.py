"""Eigenvalue extraction and spectral projector construction.

Roots are searched over a deliberately small space: unit multiples of
monomial divisors of the constant term, plus the closed quadratic
formula once the polynomial is driven down to degree two.  That covers
every matrix this package ships and every 4x4 input whose spectrum
lives in Q(i) adjoined with monomials; anything else raises
IrreducibleOverSearchSpace rather than guessing.  One synthetic division
by t - r, _divide, gives both the remainder that tests a candidate root
and the quotient it deflates to, and checks every root found.

lagrange_projectors returns the checked resolution as a plain tuple of
(eigenvalue, projector) pairs in root order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .linalg import SquareMatrix, UnivariatePoly
from .scalar import Scalar, sqrt_scalar

__all__ = [
    "IrreducibleOverSearchSpace",
    "NotDiagonal",
    "RepeatedRoots",
    "check_diagonalizer",
    "find_roots",
    "lagrange_projectors",
]


class IrreducibleOverSearchSpace(Exception):
    """The polynomial did not split over the searched root shapes."""

    def __init__(self, poly: UnivariatePoly):
        super().__init__(f"cannot split {poly} over the root search space")
        self.poly = poly


class RepeatedRoots(Exception):
    """Spectral projectors need pairwise distinct eigenvalues."""


class NotDiagonal(Exception):
    """A conjugation expected to diagonalize left an off-diagonal entry."""

    def __init__(self, position: Tuple[int, int], entry: Scalar):
        super().__init__(f"entry {position} = {entry} is off-diagonal and nonzero")
        self.position = position
        self.entry = entry


def find_roots(poly: UnivariatePoly) -> List[Scalar]:
    """All roots of a monic polynomial, multiplicity included, sorted by text.

    Raises IrreducibleOverSearchSpace when some factor of degree three
    or more has no root of the searched shape, or when a quadratic
    discriminant has no square root in the scalar field.
    """
    if poly.degree() < 1 or not poly.is_monic():
        raise ValueError("root search requires a monic polynomial of degree >= 1")
    table = poly.table
    roots: List[Scalar] = []
    work = poly

    while work.degree() >= 1 and work.coeffs[0].is_zero():
        roots.append(table.zero())
        work = UnivariatePoly(table, work.coeffs[1:])

    while work.degree() >= 3:
        found = _trial_root(work)
        if found is None:
            raise IrreducibleOverSearchSpace(poly)
        root, work = found
        roots.append(root)

    if work.degree() == 2:
        b, c = work.coeffs[1], work.coeffs[0]
        disc = b * b - 4 * c
        s = sqrt_scalar(disc)
        if s is None:
            raise IrreducibleOverSearchSpace(poly)
        half = table.scalar(Fraction(1, 2))
        roots.append((s - b) * half)
        roots.append((-s - b) * half)
    elif work.degree() == 1:
        roots.append(-work.coeffs[0])

    for r in roots:
        if not _divide(poly, r)[1].is_zero():
            raise AssertionError(f"root candidate {r} fails to annihilate {poly}")
    return sorted(roots, key=str)


def _trial_root(poly: UnivariatePoly) -> Optional[Tuple[Scalar, UnivariatePoly]]:
    # candidates: unit * monomial divisor of the (nonzero) constant term;
    # the first root is returned with the quotient of poly by t - root
    table = poly.table
    c0 = poly.coeffs[0]
    emin = [min(col) for col in zip(*map(table._unpack, c0.num))]
    one = table.one()
    units = (one, -one, table.i(), -table.i())
    for exps in itertools.product(*(range(m + 1) for m in emin)):
        mono = one
        for name, e in zip(table.names, exps):
            if e:
                mono = mono * table.symbol(name) ** e
        for u in units:
            cand = u * mono
            quo, rem = _divide(poly, cand)
            if rem.is_zero():
                return cand, UnivariatePoly(table, reversed(quo))
    return None


def _divide(poly: UnivariatePoly, root: Scalar) -> Tuple[List[Scalar], Scalar]:
    """The quotient of poly by t - root, its coefficients in descending
    degree, and the remainder poly(root), by synthetic division."""
    quo = [poly.coeffs[-1]]
    for c in reversed(poly.coeffs[:-1]):
        quo.append(c + quo[-1] * root)
    rem = quo.pop()
    return quo, rem


def _recompose(a: SquareMatrix, pairs: Sequence[Tuple[Scalar, SquareMatrix]]) -> SquareMatrix:
    """The sum of eigenvalue * projector over the pairs of a, in pair order."""
    return sum((eig * proj for eig, proj in pairs), SquareMatrix.zeros(a.table, a.n))


def lagrange_projectors(
    a: SquareMatrix, roots: Sequence[Scalar]
) -> Tuple[Tuple[Scalar, SquareMatrix], ...]:
    """The (eigenvalue, projector) pairs of a, in root order, with
    P_k = prod_{j != k} (a - r_j I)/(r_k - r_j).

    The roots must be pairwise distinct and the product of (a - r I)
    over all of them must vanish; both are verified, as are the
    projector properties themselves, since everything here is cheap and
    exact.
    """
    table = a.table
    rl = list(roots)
    for i, ri in enumerate(rl):
        for rj in rl[i + 1:]:
            if ri == rj:
                raise RepeatedRoots(f"eigenvalue {ri} repeats")
    eye = SquareMatrix.identity(table, a.n)
    annihilate = eye
    for r in rl:
        annihilate = annihilate * (a - r * eye)
    if not annihilate.is_zero():
        raise ValueError("the given roots do not annihilate the matrix")

    pairs = []
    for k, rk in enumerate(rl):
        num = eye
        den = table.one()
        for j, rj in enumerate(rl):
            if j != k:
                num = num * (a - rj * eye)
                den = den * (rk - rj)
        pairs.append((rk, (table.one() / den) * num))

    zero_m = SquareMatrix.zeros(table, a.n)
    for i, (_, pi) in enumerate(pairs):
        for j, (_, pj) in enumerate(pairs):
            want = pi if i == j else zero_m
            if pi * pj != want:
                raise ValueError("projector orthogonality failed; roots are not the full spectrum")
    if sum((proj for _, proj in pairs), zero_m) != eye:
        raise ValueError("projectors do not resolve the identity")
    if _recompose(a, pairs) != a:
        raise ValueError("spectral recomposition does not restore the matrix")
    return tuple(pairs)


def check_diagonalizer(d: SquareMatrix, a: SquareMatrix) -> SquareMatrix:
    """Conjugate a by the scaled unitary d and insist the result is diagonal.

    d must satisfy d * dagger(d) = c * I for a nonzero scalar c, which is
    read off that product; the returned matrix is (1/c) * d * a * dagger(d).
    Raises ValueError when d is not a nonzero multiple of a unitary and
    NotDiagonal (with the offending position) when the conjugated matrix
    is not diagonal.
    """
    table = a.table
    dd = d.dagger()
    gram = d * dd
    c = gram.rows[0][0]
    if c.is_zero() or gram != c * SquareMatrix.identity(table, a.n):
        raise ValueError("matrix is not a nonzero multiple of a unitary")
    conj = (table.one() / c) * (d * a * dd)
    for i in range(conj.n):
        for j in range(conj.n):
            if i != j and not conj.rows[i][j].is_zero():
                raise NotDiagonal((i, j), conj.rows[i][j])
    return conj
