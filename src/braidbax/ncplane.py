"""Quadratic coordinate-differential algebras from projector data.

One builder, _wz_relations, follows the Wess-Zumino prescription over
two shift matrices: P - I annihilates coordinate products, Q + I
annihilates differential products, and the mixed block
x (x) xi = Q * (xi (x) x) is read off row by row.  Consistency demands
(P - I)(Q + I) = 0, which holds exactly when the shifts are built from
orthogonal projectors of the same braid matrix.

Relations may be derived in transformed generators: a 2x2 matrix t maps
the new generators into the old ones, and every block is pushed through
t (x) t before canonicalization.  Relation blocks are stored in reduced
row-echelon form over the monomial order 11 < 12 < 21 < 22, so two
derivations agree exactly when their canonical data agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .cases import s03_constant_projectors, s14_constant_projectors
from .linalg import SquareMatrix, _row_space
from .scalar import Scalar, SymbolTable, _join_terms, _signed_term

__all__ = [
    "ConsistencyFailure",
    "RelationSet",
    "mixed_rules_s03",
    "mixed_rules_s14",
    "s03_plane",
    "s14_plane",
]


class ConsistencyFailure(Exception):
    """(P - I)(Q + I) is not zero; carries the offending product."""

    def __init__(self, message: str, witness: SquareMatrix):
        super().__init__(message)
        self.witness = witness


_COORD_MONOMIALS = ("x1*x1", "x1*x2", "x2*x1", "x2*x2")
_DIFF_MONOMIALS = ("xi1*xi1", "xi1*xi2", "xi2*xi1", "xi2*xi2")
_MIXED_LEFT = ("x1*xi1", "x1*xi2", "x2*xi1", "x2*xi2")
_MIXED_RIGHT = ("xi1*x1", "xi1*x2", "xi2*x1", "xi2*x2")


def _term_str(coeff: Scalar, monomial: str) -> str:
    s = str(coeff)
    if "/" in s and " + " not in s and " - " not in s:
        # plane lines parenthesise a bare quotient: -(1/2)*xi1*x1
        sign = "-" if s.startswith("-") else ""
        s = f"{sign}({s[len(sign):]})"
    return _signed_term(s, monomial)


def _combo_str(coeffs: Sequence[Scalar], monomials: Sequence[str]) -> str:
    return _join_terms([_term_str(coeff, monomial)
                        for coeff, monomial in zip(coeffs, monomials)
                        if not coeff.is_zero()])


@dataclass(eq=True)
class RelationSet:
    """Canonical quadratic relations: two annihilator blocks plus rewrite rules.

    coordinates and differentials hold echelon-reduced coefficient rows
    (leading coefficient 1) over the ordered degree-two monomials; mixed
    holds the 4x4 rule matrix, row k giving the right side of the rule
    for the k-th coordinate-differential product.
    """

    coordinates: tuple
    differentials: tuple
    mixed: SquareMatrix

    def lines(self) -> list:
        out = []
        for row in self.coordinates:
            out.append(f"{_combo_str(row, _COORD_MONOMIALS)} = 0")
        for row in self.differentials:
            out.append(f"{_combo_str(row, _DIFF_MONOMIALS)} = 0")
        for k, left in enumerate(_MIXED_LEFT):
            out.append(f"{left} = {_combo_str(self.mixed.rows[k], _MIXED_RIGHT)}")
        return out

    def to_obj(self) -> dict:
        return {
            "coordinates": [[str(c) for c in row] for row in self.coordinates],
            "differentials": [[str(c) for c in row] for row in self.differentials],
            "mixed": [[str(c) for c in row] for row in self.mixed.rows],
            "lines": self.lines(),
        }


def _wz_relations(
    coord: SquareMatrix, diff: SquareMatrix, transform: Optional[SquareMatrix] = None
) -> RelationSet:
    """Check (P - I)(Q + I) = 0 and read the three relation blocks off the shifts.

    coord is P - I and diff is Q + I.  With old = transform * new on
    single generators, quadratic blocks transform through t (x) t:
    annihilator rows are multiplied by it on the right, the rule matrix
    Q is conjugated.  A singular transform is rejected by the inversion,
    a missized one by the product.
    """
    product = coord * diff
    if not product.is_zero():
        raise ConsistencyFailure("(P - I)(Q + I) does not vanish", product)
    mixed = diff - SquareMatrix.identity(diff.table, diff.n)
    if transform is not None:
        big = transform.kron(transform)
        coord, diff, mixed = coord * big, diff * big, big.inverse() * mixed * big
    return RelationSet(coordinates=_row_space(coord), differentials=_row_space(diff),
                       mixed=mixed)


# ------------------------------------------------------------ built-in planes


def _s03_generator_transform(table: SymbolTable) -> SquareMatrix:
    """The complex generator mix making every s03 coefficient real."""
    i = table.i()
    return SquareMatrix(table, [[1, i], [1, -i]])


# The published coordinate and differential blocks of the two planes,
# echelon rows over x1*x1, x1*x2, x2*x1, x2*x2 (resp. xi1*xi1, ...).
_PUBLISHED_BLOCKS = {
    "s03": (((1, -1, 0, 0), (0, 0, 1, 1)),
            ((1, 1, 0, 0), (0, 0, 1, -1))),
    "s14": (((1, 0, 0, -1),),
            ((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0))),
}


def _published_blocks(case: str, table: SymbolTable) -> Tuple[tuple, tuple]:
    """(coordinates, differentials) as a plane of the case must print them."""
    return tuple(tuple(tuple(table.scalar(e) for e in row) for row in block)
                 for block in _PUBLISHED_BLOCKS[case])


def s03_plane(c: Scalar, rhat: Optional[SquareMatrix] = None) -> RelationSet:
    """Relations of the s03 plane with parameter c, in mixed generators.

    The diff shift is 2c times the plus projector: the factor 2 is what
    the displayed rules require once the generator mix is applied, and
    it keeps every coefficient in the rationals extended by c.  The
    projectors come from rhat, the braided built-in by default.
    """
    table = c.table
    projectors = s03_constant_projectors(table, rhat)
    return _wz_relations(projectors["minus"], (2 * c) * projectors["plus"],
                         _s03_generator_transform(table))


def s14_plane(
    kplus: Scalar, kzero: Scalar, plus: Optional[SquareMatrix] = None
) -> RelationSet:
    """Relations of the two-parameter s14 plane, in the original generators.

    plus replaces the constant plus projector when given.
    """
    projectors = s14_constant_projectors(kplus.table)
    if plus is None:
        plus = projectors["plus"]
    return _wz_relations(projectors["minus"],
                         (2 * kplus) * plus + kzero * projectors["zero"])


def mixed_rules_s03(c: Scalar) -> SquareMatrix:
    """The four s03 rewrite rules as displayed, rows ordered by left monomial."""
    table = c.table
    zero = table.zero()
    return SquareMatrix(table, [
        [c - 1, c, zero, zero],
        [c, c - 1, zero, zero],
        [zero, zero, c - 1, -c],
        [zero, zero, -c, c - 1],
    ])


def mixed_rules_s14(kplus: Scalar, kzero: Scalar) -> SquareMatrix:
    """The four s14 rewrite rules as displayed, rows ordered by left monomial."""
    table = kplus.table
    zero = table.zero()
    return SquareMatrix(table, [
        [kplus - 1, zero, zero, kplus],
        [zero, kzero - 1, zero, zero],
        [zero, zero, kzero - 1, zero],
        [kplus, zero, zero, kplus - 1],
    ])
