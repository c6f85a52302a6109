"""The two built-in analysis cases and their published expected data.

builtin_case(name) is the one constructor; it builds either case over
its own symbol table (no symbols for s03, q for s14).  A case bundles
the braided matrix, the expected minimal polynomial, the
eigenvalue-to-projector-label pairing, and the expected projector
matrices.  Projectors for both cases are constant (the second case's
are famously independent of q), so s03_constant_projectors and
s14_constant_projectors instantiate them over any symbol table; that is
what the tensor and plane constructions elsewhere rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .linalg import SquareMatrix, UnivariatePoly, braid, builtin
from .scalar import Scalar, SymbolTable

__all__ = [
    "BuiltinCase",
    "builtin_case",
    "s03_constant_projectors",
    "s14_constant_projectors",
]


@dataclass(frozen=True)
class BuiltinCase:
    table: SymbolTable
    rhat: SquareMatrix
    min_poly: UnivariatePoly
    # (eigenvalue, projector label) sorted by eigenvalue text, matching
    # the order find_roots reports
    pairing: Tuple[Tuple[Scalar, str], ...]
    projectors: Dict[str, SquareMatrix]


def s03_constant_projectors(
    table: SymbolTable, rhat: Optional[SquareMatrix] = None
) -> Dict[str, SquareMatrix]:
    """The two braided-matrix projectors (I +- i(rhat - I))/2.

    rhat defaults to the braided built-in, which makes them constants;
    the self-check passes a corrupted one to see its projectors move.
    """
    if rhat is None:
        rhat = braid(builtin("s03_r", table))
    eye = SquareMatrix.identity(table, 4)
    half = table.scalar(Fraction(1, 2))
    i = table.i()
    return {
        "plus": half * (eye + i * (rhat - eye)),
        "minus": half * (eye - i * (rhat - eye)),
    }


def s14_constant_projectors(table: SymbolTable) -> Dict[str, SquareMatrix]:
    """The three projectors of the second case, verbatim constants."""
    h = Fraction(1, 2)
    return {
        "zero": SquareMatrix(table, [[0, 0, 0, 0],
                                     [0, 1, 0, 0],
                                     [0, 0, 1, 0],
                                     [0, 0, 0, 0]]),
        "plus": SquareMatrix(table, [[h, 0, 0, h],
                                     [0, 0, 0, 0],
                                     [0, 0, 0, 0],
                                     [h, 0, 0, h]]),
        "minus": SquareMatrix(table, [[h, 0, 0, -h],
                                      [0, 0, 0, 0],
                                      [0, 0, 0, 0],
                                      [-h, 0, 0, h]]),
    }


def builtin_case(name: str) -> BuiltinCase:
    """The built-in case s03 or s14 (any letter case), over its own symbol table."""
    key = name.lower()
    if key == "s03":
        table = SymbolTable([])
        rhat = braid(builtin("s03_r", table))
        one, i = table.one(), table.i()
        return BuiltinCase(
            table=table,
            rhat=rhat,
            min_poly=UnivariatePoly(table, [2, -2, 1]),
            pairing=((one + i, "minus"), (one - i, "plus")),  # "1 + i" < "1 - i"
            projectors=s03_constant_projectors(table, rhat),
        )
    if key == "s14":
        table = SymbolTable(["q"])
        q, one = table.symbol("q"), table.one()
        return BuiltinCase(
            table=table,
            rhat=braid(builtin("s14_r", table)),
            min_poly=UnivariatePoly(table, [q * q, -(q * q), -one, one]),
            pairing=((-q, "minus"), (one, "zero"), (q, "plus")),  # "-q" < "1" < "q"
            projectors=s14_constant_projectors(table),
        )
    raise ValueError(f"unknown built-in case {name!r}")
