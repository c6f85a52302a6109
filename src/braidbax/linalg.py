"""Dense exact matrix algebra over symbolic scalars.

SquareMatrix is immutable and stores every entry as a Scalar over one
shared SymbolTable; it has the operations the package uses and no more.
The public constructor lifts ints and Fractions through table.scalar;
every matrix this module computes is built by the private _of, which
stores its rows of already-canonical Scalars as they are.  Products skip
exactly-zero entries, and sums return the other entry (negated for a
difference) where one is exactly zero: a canonical form is stored as it
stands, so that is the entry the Scalar sum would store.  This keeps the
8x8 symbolic residual computations elsewhere in this package fast, as
their matrices are mostly zeros and constants.  One Gauss-Jordan step,
_insert, serves the inverse, the row space and the Krylov minimal
polynomial (one row per power: flat entries, then coefficients over the
powers).  The module also houses the built-in 4x4 matrices the rest of
the package analyzes, a univariate polynomial type printed in t through
the scalar layer's term printer, and a bit-exact JSON form for matrices.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, List, Mapping, Optional, Sequence

from .parser import parse
from .scalar import Scalar, SymbolTable, _dot, _join_terms, _lift, _signed_term

__all__ = [
    "DimensionMismatch",
    "SingularMatrix",
    "SquareMatrix",
    "UnivariatePoly",
    "braid",
    "builtin",
    "matrix_from_obj",
    "matrix_to_obj",
    "minimal_polynomial",
]


# the largest n matrix_from_obj reads: R-matrices on V (x) V with dim V <= 4
MAX_DIMENSION = 16


class DimensionMismatch(Exception):
    """Matrix operands whose shapes do not fit the operation."""


class SingularMatrix(Exception):
    """Inversion was requested for a matrix without an inverse."""


class SquareMatrix:
    """An n-by-n matrix of exact Scalars, immutable after construction."""

    __slots__ = ("table", "n", "rows")

    def __init__(self, table: SymbolTable, rows: Iterable[Iterable[object]]):
        fixed = []
        for row in rows:
            fixed.append(tuple(table.scalar(value) for value in row))
        n = len(fixed)
        if n == 0:
            raise DimensionMismatch("matrix needs at least one row")
        for row in fixed:
            if len(row) != n:
                raise DimensionMismatch("matrix is not square")
        self.table = table
        self.n = n
        self.rows = tuple(fixed)

    @classmethod
    def _of(cls, table: SymbolTable, rows: Sequence[Sequence[Scalar]]) -> "SquareMatrix":
        """The matrix of square rows of canonical Scalars of table, stored as they are."""
        if not rows:
            raise DimensionMismatch("matrix needs at least one row")
        m = object.__new__(cls)
        m.table = table
        m.n = len(rows)
        m.rows = tuple(map(tuple, rows))
        return m

    @classmethod
    def identity(cls, table: SymbolTable, n: int) -> "SquareMatrix":
        zero, one = table.zero(), table.one()
        return cls._of(table, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, table: SymbolTable, n: int) -> "SquareMatrix":
        return cls._of(table, [[table.zero()] * n] * n)

    # -- structure --

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        if self.n != other.n or self.table.names != other.table.names:
            return False
        return all(a == b for ra, rb in zip(self.rows, other.rows)
                   for a, b in zip(ra, rb))

    def __str__(self):
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]"
                         for row in self.rows)

    def __repr__(self):
        return f"SquareMatrix({self.n}x{self.n})"

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    # -- arithmetic --

    def _same_shape(self, other: "SquareMatrix"):
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n}x{self.n} vs {other.n}x{other.n}")
        if self.table.names != other.table.names:
            raise ValueError("matrices belong to different symbol tables")

    def __add__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        self._same_shape(other)
        return SquareMatrix._of(self.table, [[a + b if a and b else a or b
                                              for a, b in zip(ra, rb)]
                                             for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        self._same_shape(other)
        return SquareMatrix._of(self.table, [[a - b if a and b else -b if b else a
                                              for a, b in zip(ra, rb)]
                                             for ra, rb in zip(self.rows, other.rows)])

    def _scale(self, factor: Scalar) -> "SquareMatrix":
        return SquareMatrix._of(self.table, [[factor * e if e else e for e in row]
                                             for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, SquareMatrix):
            self._same_shape(other)
            zero = self.table.zero()
            brows = [[(j, b) for j, b in enumerate(row) if b] for row in other.rows]
            out = []
            for arow in self.rows:
                pairs = {}
                for a, brow in zip(arow, brows):
                    if a:
                        for j, b in brow:
                            pairs.setdefault(j, []).append((a, b))
                out.append([_dot(self.table, pairs[j]) if j in pairs else zero
                            for j in range(self.n)])
            return SquareMatrix._of(self.table, out)
        factor = _lift(self.table, other)
        if factor is None:
            return NotImplemented
        return self._scale(factor)

    def __rmul__(self, other):
        factor = _lift(self.table, other)
        if factor is None:
            return NotImplemented
        return self._scale(factor)

    def dagger(self) -> "SquareMatrix":
        """Conjugate transpose; symbols are treated as real."""
        return SquareMatrix._of(self.table,
                                [[self.rows[j][i].conjugate() for j in range(self.n)]
                                 for i in range(self.n)])

    def inverse(self) -> "SquareMatrix":
        n = self.n
        one = self.table.one()
        zero = self.table.zero()
        basis: List[list] = []
        for i, row in enumerate(self.rows):
            aug = list(row) + [one if i == j else zero for j in range(n)]
            if _insert(basis, aug, n) is not None:
                raise SingularMatrix("matrix has no inverse over the field")
        return SquareMatrix._of(self.table, [row[n:] for _, row in sorted(basis, key=itemgetter(0))])

    def kron(self, other: "SquareMatrix") -> "SquareMatrix":
        """Kronecker product, row-major blocks: result[i*m+k][j*m+l] = A[i][j]*B[k][l]."""
        if self.table.names != other.table.names:
            raise ValueError("matrices belong to different symbol tables")
        m = other.n
        zero = self.table.zero()
        rows = []
        for i in range(self.n):
            for k in range(m):
                row = []
                for j in range(self.n):
                    a = self.rows[i][j]
                    if a.is_zero():
                        row.extend([zero] * m)
                    else:
                        row.extend(a * b if b else zero for b in other.rows[k])
                rows.append(row)
        return SquareMatrix._of(self.table, rows)


def _insert(basis: List[list], row: list, width: int) -> Optional[list]:
    """One Gauss-Jordan step: reduce row by the [pivot, row] pairs of basis
    in insertion order, scale its first nonzero entry among the first
    width columns to one, clear that column from the basis rows and
    append the row.  Returns None then, or the reduced row when no pivot
    is left."""
    for pivot, brow in basis:
        f = row[pivot]
        if not f.is_zero():
            row = [x - f * y for x, y in zip(row, brow)]
    pivot = next((idx for idx in range(width) if not row[idx].is_zero()), None)
    if pivot is None:
        return row
    lead = row[pivot]
    if lead != 1:
        row = [x / lead for x in row]
    for pair in basis:
        g = pair[1][pivot]
        if not g.is_zero():
            pair[1] = [x - g * y for x, y in zip(pair[1], row)]
    basis.append([pivot, row])
    return None


def _row_space(matrix: SquareMatrix) -> tuple:
    """The nonzero rows of the reduced row echelon form of matrix, by pivot:
    a canonical basis of its row space."""
    basis: List[list] = []
    for row in matrix.rows:
        _insert(basis, list(row), matrix.n)
    return tuple(tuple(row) for _, row in sorted(basis, key=itemgetter(0)))


# -- univariate polynomials in an auxiliary variable t ----------------------


class UnivariatePoly:
    """A polynomial in one variable t with Scalar coefficients.

    The variable is auxiliary and distinct from every table symbol, so
    q^2 can sit inside a coefficient of t.  Coefficients are stored in
    ascending degree with a nonzero leading coefficient.
    """

    __slots__ = ("table", "coeffs")

    def __init__(self, table: SymbolTable, coeffs: Iterable[object]):
        fixed = [table.scalar(c) for c in coeffs]
        while fixed and fixed[-1].is_zero():
            fixed.pop()
        self.table = table
        self.coeffs = tuple(fixed)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        if not isinstance(other, UnivariatePoly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __str__(self):
        return _join_terms([_signed_term(str(c), "" if d == 0 else "t" if d == 1 else f"t^{d}")
                            for d, c in reversed(list(enumerate(self.coeffs)))
                            if not c.is_zero()])

    def __repr__(self):
        return f"UnivariatePoly({self})"


def minimal_polynomial(a: SquareMatrix) -> UnivariatePoly:
    """Monic least-degree polynomial with p(a) = 0.

    Krylov search: flatten I, a, a^2, ... and stop at the first exact
    linear dependency.  A row holds a reduced flat vector, then how it is
    written in terms of the powers; each new power pads every basis row
    with its zero coefficient, so all rows have one length.
    """
    table = a.table
    zero = table.zero()
    size = a.n * a.n
    basis: List[list] = []  # [pivot, reduced row]
    power = SquareMatrix.identity(table, a.n)
    k = 0
    while True:
        for pair in basis:
            pair[1].append(zero)
        row = [e for r in power.rows for e in r] + [zero] * k + [table.one()]
        reduced = _insert(basis, row, size)
        if reduced is not None:
            return UnivariatePoly(table, reduced[size:])
        power = power * a
        k += 1
        if k > size + 1:
            raise AssertionError("no dependency found; exact arithmetic bug")


# -- built-in matrices -------------------------------------------------------


# Entries are ints, or expressions parsed over the table when the matrix
# is built: the grids without one never touch q or i.
_BUILTIN_GRIDS = {
    "s03_r": ((1, 0, 0, 1),
              (0, 1, 1, 0),
              (0, 1, -1, 0),
              (-1, 0, 0, 1)),
    "s14_r": ((0, 0, 0, "q"),
              (0, 0, 1, 0),
              (0, 1, 0, 0),
              ("q", 0, 0, 0)),
    "perm": ((1, 0, 0, 0),
             (0, 0, 1, 0),
             (0, 1, 0, 0),
             (0, 0, 0, 1)),
    "s03_m_diag": ((1, 0, 0, 1),
                   (0, 1, -1, 0),
                   (0, 1, 1, 0),
                   (-1, 0, 0, 1)),
    "s03_m_prime_unnorm": ((1, 0, 0, "i"),
                           (0, 1, "-i", 0),
                           (0, "-i", 1, 0),
                           ("i", 0, 0, 1)),
}


def builtin(name: str, table: SymbolTable) -> SquareMatrix:
    """One of the package's built-in 4x4 matrices, by case-insensitive name.

    Known names: s03_r, s14_r, perm, s03_m_diag, s03_m_prime_unnorm.
    The two diagonalizer matrices are stored without their 1/sqrt(2)
    prefactor so that everything stays inside Q(i); conjugating with
    them therefore produces 2x the diagonal form.
    """
    grid = _BUILTIN_GRIDS.get(name.lower())
    if grid is None:
        raise ValueError(f"unknown builtin matrix {name!r}")
    return SquareMatrix(table, [[parse(e, table) if isinstance(e, str) else e
                                 for e in row] for row in grid])


def braid(r: SquareMatrix) -> SquareMatrix:
    """Compose with the middle-swap permutation: the braided form P*R."""
    if r.n != 4:
        raise DimensionMismatch("braiding is defined here for 4x4 matrices")
    return builtin("perm", r.table) * r


# -- JSON form ----------------------------------------------------------------


def matrix_to_obj(m: SquareMatrix) -> dict:
    """Plain-data form: {"n": ..., "symbols": [...], "entries": [[str, ...]]}."""
    return {
        "n": m.n,
        "symbols": list(m.table.names),
        "entries": [[str(e) for e in row] for row in m.rows],
    }


def matrix_from_obj(obj: Mapping, table: Optional[SymbolTable] = None) -> SquareMatrix:
    """Rebuild a matrix from its plain-data form, bit-exactly.

    When no table is supplied, one is created from the object's symbol
    list.  Raises ValueError for structural problems, a dimension beyond
    MAX_DIMENSION among them, before any entry is read; entry text
    errors propagate as ParseError or UnknownSymbol.
    """
    if not isinstance(obj, Mapping):
        raise ValueError("matrix object must be a mapping")
    try:
        n = obj["n"]
        symbols = obj["symbols"]
        entries = obj["entries"]
    except KeyError as missing:
        raise ValueError(f"matrix object lacks key {missing}") from None
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("matrix dimension must be a positive integer")
    if n > MAX_DIMENSION:
        raise ValueError(f"matrix dimension {n} is beyond the limit {MAX_DIMENSION}")
    if (not isinstance(symbols, list)
            or not all(isinstance(s, str) for s in symbols)):
        raise ValueError("matrix symbols must be a list of names")
    if table is None:
        table = SymbolTable(symbols)
    if (not isinstance(entries, list) or len(entries) != n
            or any(not isinstance(row, list) or len(row) != n for row in entries)):
        raise ValueError(f"matrix entries must form an {n}x{n} grid")
    if not all(isinstance(text, str) for row in entries for text in row):
        raise ValueError("matrix entries must be strings")
    rows = [[parse(text, table) for text in row] for row in entries]
    return SquareMatrix(table, rows)
