"""Quadratic coordinate-differential algebras from projector data.

The construction takes a pair of 4x4 operators: one whose shift P - I
annihilates coordinate products, one whose shift Q + I annihilates
differential products, with the mixed block x (x) xi = Q * (xi (x) x)
read off row by row.  Consistency demands (P - I)(Q + I) = 0, which
holds exactly when the shifts are built from orthogonal projectors of
the same braid matrix.

Relations may be derived in transformed generators: a 2x2 matrix t maps
the new generators into the old ones, and every block is pushed through
t (x) t before canonicalization.  Relation blocks are stored in reduced
row-echelon form over the monomial order 11 < 12 < 21 < 22, so two
derivations agree exactly when their canonical data agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

from .cases import s03_constant_projectors, s14_constant_projectors
from .linalg import DimensionMismatch, SquareMatrix, _row_space
from .scalar import Scalar, SymbolTable, _join_terms

__all__ = [
    "ConsistencyFailure",
    "RelationSet",
    "WZConfig",
    "derive_relations",
    "mixed_rules_s03",
    "mixed_rules_s14",
    "s03_generator_transform",
    "s03_plane",
    "s14_plane",
    "transform_quadratic",
    "wz_build",
]


class ConsistencyFailure(Exception):
    """(P - I)(Q + I) is not zero; carries the offending product."""

    def __init__(self, message: str, witness: SquareMatrix):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class WZConfig:
    """Recipe for one plane: which projectors build the two shifts.

    coord names the projector set equal to P - I (unit coefficient, by
    homogeneity of the mixed block).  diff lists (label, coefficient)
    terms summed into Q + I.  transform optionally changes generators.
    """

    coord: str
    diff: tuple
    transform: Optional[SquareMatrix] = None


def wz_build(
    projectors: Mapping[str, SquareMatrix], cfg: WZConfig
) -> tuple:
    """Assemble (P, Q) from labelled projectors and check consistency."""
    try:
        base = projectors[cfg.coord]
    except KeyError:
        raise ValueError(f"no projector labelled {cfg.coord!r}") from None
    table = base.table
    eye = SquareMatrix.identity(table, base.n)
    p = eye + base
    q = -eye
    for label, coeff in cfg.diff:
        try:
            term = projectors[label]
        except KeyError:
            raise ValueError(f"no projector labelled {label!r}") from None
        q = q + coeff * term
    product = (p - eye) * (q + eye)
    if not product.is_zero():
        raise ConsistencyFailure("(P - I)(Q + I) does not vanish", product)
    return p, q


_COORD_MONOMIALS = ("x1*x1", "x1*x2", "x2*x1", "x2*x2")
_DIFF_MONOMIALS = ("xi1*xi1", "xi1*xi2", "xi2*xi1", "xi2*xi2")
_MIXED_LEFT = ("x1*xi1", "x1*xi2", "x2*xi1", "x2*xi2")
_MIXED_RIGHT = ("xi1*x1", "xi1*x2", "xi2*x1", "xi2*x2")


def _term_str(coeff: Scalar, monomial: str) -> str:
    s = str(coeff)
    if " + " in s or " - " in s:
        return f"({s})*{monomial}"
    sign = ""
    if s.startswith("-"):
        sign, s = "-", s[1:]
    if s == "1":
        return sign + monomial
    if "/" in s:
        return f"{sign}({s})*{monomial}"
    return f"{sign}{s}*{monomial}"


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


def derive_relations(
    p: SquareMatrix, q: SquareMatrix, transform: Optional[SquareMatrix] = None
) -> RelationSet:
    """Read the three relation blocks off (P, Q), optionally in new generators.

    With old = transform * new on single generators, quadratic blocks
    transform through t (x) t: annihilator rows are multiplied by it on
    the right, the rule matrix is conjugated.  A singular transform is
    rejected by the inversion.
    """
    table = p.table
    eye = SquareMatrix.identity(table, p.n)
    if transform is None:
        coord = _row_space(p - eye)
        diff = _row_space(q + eye)
        mixed = q
    else:
        if transform.n != 2:
            raise DimensionMismatch("generator transform must be 2x2")
        big = transform.kron(transform)
        coord = _row_space((p - eye) * big)
        diff = _row_space((q + eye) * big)
        mixed = big.inverse() * q * big
    return RelationSet(coordinates=coord, differentials=diff, mixed=mixed)


def transform_quadratic(transform: SquareMatrix, vector: Sequence) -> tuple:
    """Apply the induced t (x) t action to a degree-two component vector.

    Covariant: the action of a product of transforms is the composition
    of their actions.  The transform must be an invertible 2x2 matrix.
    """
    if transform.n != 2:
        raise DimensionMismatch("generator transform must be 2x2")
    transform.inverse()  # reject singular transforms up front
    table = transform.table
    big = transform.kron(transform)
    coeffs = [value if isinstance(value, Scalar) else table.const(value) for value in vector]
    if len(coeffs) != 4:
        raise DimensionMismatch("component vector must have four entries")
    return tuple(
        sum((big.rows[i][j] * coeffs[j] for j in range(4)), table.zero())
        for i in range(4)
    )


# ------------------------------------------------------------ built-in planes


def s03_generator_transform(table: SymbolTable) -> SquareMatrix:
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
    return tuple(tuple(tuple(table.const(e) for e in row) for row in block)
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
    transform = s03_generator_transform(table)
    cfg = WZConfig(coord="minus", diff=(("plus", 2 * c),), transform=transform)
    p, q = wz_build(projectors, cfg)
    return derive_relations(p, q, transform)


def s14_plane(
    kplus: Scalar, kzero: Scalar, plus: Optional[SquareMatrix] = None
) -> RelationSet:
    """Relations of the two-parameter s14 plane, in the original generators.

    plus replaces the constant plus projector when given.
    """
    table = kplus.table
    projectors = s14_constant_projectors(table)
    if plus is not None:
        projectors["plus"] = plus
    cfg = WZConfig(coord="minus", diff=(("plus", 2 * kplus), ("zero", kzero)))
    p, q = wz_build(projectors, cfg)
    return derive_relations(p, q)


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
