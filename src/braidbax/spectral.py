"""Eigenvalue extraction and spectral projector construction.

Roots are searched over a deliberately small space: unit multiples of
monomial divisors of the constant term, plus the closed quadratic
formula once the polynomial is driven down to degree two.  That covers
every matrix this package ships and every 4x4 input whose spectrum
lives in Q(i) adjoined with monomials; anything else raises
IrreducibleOverSearchSpace rather than guessing.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .linalg import SquareMatrix, UnivariatePoly, _row_space
from .scalar import Scalar, sqrt_scalar

__all__ = [
    "IrreducibleOverSearchSpace",
    "NotDiagonal",
    "ProjectorSet",
    "RepeatedRoots",
    "check_diagonalizer",
    "eigenvectors_from_projectors",
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
        root = _trial_root(work)
        if root is None:
            raise IrreducibleOverSearchSpace(poly)
        roots.append(root)
        work = _deflate(work, root)

    if work.degree() == 2:
        b, c = work.coeffs[1], work.coeffs[0]
        disc = b * b - 4 * c
        s = sqrt_scalar(disc)
        if s is None:
            raise IrreducibleOverSearchSpace(poly)
        half = table.const(Fraction(1, 2))
        roots.append((s - b) * half)
        roots.append((-s - b) * half)
    elif work.degree() == 1:
        roots.append(-work.coeffs[0])

    for r in roots:
        if not poly.eval_scalar(r).is_zero():
            raise AssertionError(f"root candidate {r} fails to annihilate {poly}")
    return sorted(roots, key=str)


def _trial_root(poly: UnivariatePoly) -> Optional[Scalar]:
    # candidates: unit * monomial divisor of the (nonzero) constant term
    table = poly.table
    c0 = poly.coeffs[0]
    emin = [min(e[k] for e in c0.num) for k in range(table.n)]
    one = table.one()
    units = (one, -one, table.i(), -table.i())
    for exps in itertools.product(*(range(m + 1) for m in emin)):
        mono = one
        for name, e in zip(table.names, exps):
            if e:
                mono = mono * table.symbol(name) ** e
        for u in units:
            cand = u * mono
            if poly.eval_scalar(cand).is_zero():
                return cand
    return None


def _deflate(poly: UnivariatePoly, root: Scalar) -> UnivariatePoly:
    quo, rem = divmod(poly, UnivariatePoly(poly.table, [-root, 1]))
    assert rem.is_zero()
    return quo


class ProjectorSet:
    """A matrix together with its resolution into spectral projectors."""

    __slots__ = ("base", "items")

    def __init__(self, base: SquareMatrix, items: Sequence[Tuple[Scalar, SquareMatrix]]):
        self.base = base
        self.items = tuple(items)

    def eigenvalues(self) -> List[Scalar]:
        return [eig for eig, _ in self.items]

    def projectors(self) -> List[SquareMatrix]:
        return [proj for _, proj in self.items]

    def identity_sum(self) -> SquareMatrix:
        total = SquareMatrix.zeros(self.base.table, self.base.n)
        for _, proj in self.items:
            total = total + proj
        return total

    def recompose(self) -> SquareMatrix:
        total = SquareMatrix.zeros(self.base.table, self.base.n)
        for eig, proj in self.items:
            total = total + eig * proj
        return total


def lagrange_projectors(a: SquareMatrix, roots: Sequence[Scalar]) -> ProjectorSet:
    """Spectral projectors P_k = prod_{j != k} (a - r_j I)/(r_k - r_j).

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

    items = []
    for k, rk in enumerate(rl):
        num = eye
        den = table.one()
        for j, rj in enumerate(rl):
            if j != k:
                num = num * (a - rj * eye)
                den = den * (rk - rj)
        items.append((rk, (table.one() / den) * num))
    ps = ProjectorSet(a, items)

    zero_m = SquareMatrix.zeros(table, a.n)
    for i, (_, pi) in enumerate(ps.items):
        for j, (_, pj) in enumerate(ps.items):
            want = pi if i == j else zero_m
            if pi * pj != want:
                raise ValueError("projector orthogonality failed; roots are not the full spectrum")
    if ps.identity_sum() != eye:
        raise ValueError("projectors do not resolve the identity")
    if ps.recompose() != a:
        raise ValueError("spectral recomposition does not restore the matrix")
    return ps


def eigenvectors_from_projectors(ps: ProjectorSet):
    """Per eigenvalue, a canonical basis of the projector's column space.

    The basis is the set of nonzero rows of the reduced row echelon form
    of the transposed projector, so it is deterministic.
    """
    return [(eig, list(_row_space(proj.transpose()))) for eig, proj in ps.items]


def check_diagonalizer(d: SquareMatrix, a: SquareMatrix,
                       norm_squared) -> SquareMatrix:
    """Conjugate a by the scaled unitary d and insist the result is diagonal.

    d must satisfy d * dagger(d) = norm_squared * I; the returned matrix
    is (1/norm_squared) * d * a * dagger(d).  Raises ValueError when d
    is not unitary up to the stated factor and NotDiagonal (with the
    offending position) when the conjugated matrix is not diagonal.
    """
    table = a.table
    ns = norm_squared if isinstance(norm_squared, Scalar) else table.const(norm_squared)
    eye = SquareMatrix.identity(table, a.n)
    if d * d.dagger() != ns * eye:
        raise ValueError("matrix is not unitary up to the stated norm factor")
    conj = (table.one() / ns) * (d * a * d.dagger())
    for i in range(conj.n):
        for j in range(conj.n):
            if i != j and not conj.rows[i][j].is_zero():
                raise NotDiagonal((i, j), conj.rows[i][j])
    return conj
