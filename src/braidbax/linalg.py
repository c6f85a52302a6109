"""Dense exact matrix algebra over symbolic scalars.

SquareMatrix is immutable and stores every entry as a Scalar over one
shared SymbolTable.  Products skip exactly-zero entries, which keeps the
8x8 symbolic residual computations elsewhere in this package fast.  The
module also houses the built-in 4x4 matrices the rest of the package
analyzes, a univariate polynomial type for minimal polynomials, and a
bit-exact JSON form for matrices.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from .parser import parse
from .scalar import Scalar, SymbolTable, _as_gauss, _join_terms

__all__ = [
    "DimensionMismatch",
    "SingularMatrix",
    "SquareMatrix",
    "UnivariatePoly",
    "braid",
    "builtin",
    "char_poly",
    "matrix_from_obj",
    "matrix_to_obj",
    "minimal_polynomial",
    "rref",
]


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
            fixed.append(tuple(self._entry(table, value) for value in row))
        n = len(fixed)
        if n == 0:
            raise DimensionMismatch("matrix needs at least one row")
        for row in fixed:
            if len(row) != n:
                raise DimensionMismatch("matrix is not square")
        self.table = table
        self.n = n
        self.rows = tuple(fixed)

    @staticmethod
    def _entry(table: SymbolTable, value) -> Scalar:
        if isinstance(value, Scalar):
            if value.table.names != table.names:
                raise ValueError("entry belongs to a different symbol table")
            return value
        return table.const(value)

    @classmethod
    def identity(cls, table: SymbolTable, n: int) -> "SquareMatrix":
        return cls(table, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, table: SymbolTable, n: int) -> "SquareMatrix":
        return cls(table, [[0] * n for _ in range(n)])

    # -- structure --

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        if self.n != other.n or self.table.names != other.table.names:
            return False
        return all(a == b for ra, rb in zip(self.rows, other.rows)
                   for a, b in zip(ra, rb))

    __hash__ = None

    def __str__(self):
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]"
                         for row in self.rows)

    def __repr__(self):
        return f"SquareMatrix({self.n}x{self.n})"

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def is_diagonal(self) -> bool:
        return all(e.is_zero() for i, row in enumerate(self.rows)
                   for j, e in enumerate(row) if i != j)

    def trace(self) -> Scalar:
        total = self.table.zero()
        for k in range(self.n):
            total = total + self.rows[k][k]
        return total

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
        return SquareMatrix(self.table, [[a + b for a, b in zip(ra, rb)]
                                         for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        self._same_shape(other)
        return SquareMatrix(self.table, [[a - b for a, b in zip(ra, rb)]
                                         for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return SquareMatrix(self.table, [[-e for e in row] for row in self.rows])

    def _scale(self, factor: Scalar) -> "SquareMatrix":
        return SquareMatrix(self.table, [[factor * e for e in row]
                                         for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, SquareMatrix):
            self._same_shape(other)
            zero = self.table.zero()
            out = []
            for arow in self.rows:
                acc = {}
                for k, a in enumerate(arow):
                    if a.is_zero():
                        continue
                    for j, b in enumerate(other.rows[k]):
                        if b.is_zero():
                            continue
                        prod = a * b
                        cur = acc.get(j)
                        acc[j] = prod if cur is None else cur + prod
                out.append([acc.get(j, zero) for j in range(self.n)])
            return SquareMatrix(self.table, out)
        factor = self._as_scalar(other)
        if factor is None:
            return NotImplemented
        return self._scale(factor)

    def __rmul__(self, other):
        factor = self._as_scalar(other)
        if factor is None:
            return NotImplemented
        return self._scale(factor)

    def _as_scalar(self, value) -> Optional[Scalar]:
        if isinstance(value, Scalar):
            if value.table.names != self.table.names:
                raise ValueError("scalar belongs to a different symbol table")
            return value
        if _as_gauss(value) is not None:
            return self.table.const(value)
        return None

    def __pow__(self, e: int):
        if not isinstance(e, int) or isinstance(e, bool):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        out = SquareMatrix.identity(self.table, self.n)
        for _ in range(e):
            out = out * self
        return out

    def transpose(self) -> "SquareMatrix":
        return SquareMatrix(self.table, list(zip(*self.rows)))

    def dagger(self) -> "SquareMatrix":
        """Conjugate transpose; symbols are treated as real."""
        return SquareMatrix(self.table,
                            [[self.rows[j][i].conjugate() for j in range(self.n)]
                             for i in range(self.n)])

    def inverse(self) -> "SquareMatrix":
        n = self.n
        one = self.table.one()
        zero = self.table.zero()
        aug = [list(row) + [one if i == j else zero for j in range(n)]
               for i, row in enumerate(self.rows)]
        reduced, pivots = rref(aug, pivot_cols=n)
        if pivots != list(range(n)):
            raise SingularMatrix("matrix has no inverse over the field")
        return SquareMatrix(self.table, [row[n:] for row in reduced])

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
                        row.extend(a * other.rows[k][l] for l in range(m))
                rows.append(row)
        return SquareMatrix(self.table, rows)

    def substitute(self, bindings: Mapping[str, object]) -> "SquareMatrix":
        return SquareMatrix(self.table,
                            [[e.substitute(bindings) for e in row]
                             for row in self.rows])


def rref(rows: Sequence[Sequence[Scalar]],
         pivot_cols: Optional[int] = None) -> Tuple[List[List[Scalar]], List[int]]:
    """Reduced row echelon form over the exact field.

    Pivots are chosen as the first nonzero entry in scan order, which is
    deterministic; numerical stability is not a concern here.  Returns
    the reduced rows (zero rows sink to the bottom) and the pivot column
    indices.
    """
    work = [list(r) for r in rows]
    if not work:
        return work, []
    width = len(work[0])
    limit = width if pivot_cols is None else pivot_cols
    pivots: List[int] = []
    r = 0
    for col in range(limit):
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


def _row_space(matrix: SquareMatrix) -> tuple:
    """The nonzero rows of rref(matrix): a canonical basis of its row space."""
    reduced, pivots = rref(matrix.rows)
    return tuple(tuple(row) for row in reduced[:len(pivots)])


# -- univariate polynomials in an auxiliary variable t ----------------------


class UnivariatePoly:
    """A polynomial in one variable t with Scalar coefficients.

    The variable is auxiliary and distinct from every table symbol, so
    q^2 can sit inside a coefficient of t.  Coefficients are stored in
    ascending degree with a nonzero leading coefficient.
    """

    __slots__ = ("table", "coeffs")

    def __init__(self, table: SymbolTable, coeffs: Iterable[object]):
        fixed = [c if isinstance(c, Scalar) else table.const(c) for c in coeffs]
        while fixed and fixed[-1].is_zero():
            fixed.pop()
        self.table = table
        self.coeffs = tuple(fixed)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        if not isinstance(other, UnivariatePoly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, UnivariatePoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return UnivariatePoly(self.table, out)

    def __sub__(self, other):
        if not isinstance(other, UnivariatePoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return UnivariatePoly(self.table, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, UnivariatePoly):
            if self.is_zero() or other.is_zero():
                return UnivariatePoly(self.table, [])
            zero = self.table.zero()
            out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
            for ka, a in enumerate(self.coeffs):
                if a.is_zero():
                    continue
                for kb, b in enumerate(other.coeffs):
                    out[ka + kb] = out[ka + kb] + a * b
            return UnivariatePoly(self.table, out)
        if isinstance(other, Scalar) or _as_gauss(other) is not None:
            return UnivariatePoly(self.table, [c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __divmod__(self, other):
        if not isinstance(other, UnivariatePoly):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        zero = self.table.zero()
        if len(rem) < len(div):
            return UnivariatePoly(self.table, []), UnivariatePoly(self.table, rem)
        quo = [zero] * (len(rem) - len(div) + 1)
        lead = div[-1]
        while len(rem) >= len(div):
            f = rem[-1] / lead
            pos = len(rem) - len(div)
            quo[pos] = f
            if not f.is_zero():
                for k in range(len(div) - 1):
                    rem[pos + k] = rem[pos + k] - f * div[k]
            rem.pop()
        return UnivariatePoly(self.table, quo), UnivariatePoly(self.table, rem)

    def eval_scalar(self, x: Scalar) -> Scalar:
        total = self.table.zero()
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def eval_matrix(self, a: SquareMatrix) -> SquareMatrix:
        total = SquareMatrix.zeros(a.table, a.n)
        eye = SquareMatrix.identity(a.table, a.n)
        for c in reversed(self.coeffs):
            total = total * a + c * eye
        return total

    def __str__(self):
        return _join_terms([_poly_term_str(self.coeffs[d], d)
                            for d in range(len(self.coeffs) - 1, -1, -1)
                            if not self.coeffs[d].is_zero()])

    def __repr__(self):
        return f"UnivariatePoly({self})"


def _poly_term_str(c: Scalar, d: int) -> str:
    mono = "t" if d == 1 else f"t^{d}"
    if d == 0:
        return str(c)
    if c == 1:
        return mono
    if c == -1:
        return "-" + mono
    cs = str(c)
    if " + " in cs or " - " in cs:
        cs = f"({cs})"
    return f"{cs}*{mono}"


def minimal_polynomial(a: SquareMatrix) -> UnivariatePoly:
    """Monic least-degree polynomial with p(a) = 0.

    Krylov search: flatten I, a, a^2, ... and stop at the first exact
    linear dependency, tracking how each reduced vector is written in
    terms of the powers.
    """
    table = a.table
    zero = table.zero()
    basis: List[list] = []  # [pivot, reduced flat vector, combo over powers]
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
        if k > a.n * a.n + 1:
            raise AssertionError("no dependency found; exact arithmetic bug")


def char_poly(a: SquareMatrix) -> UnivariatePoly:
    """det(tI - a) by cofactor expansion; supported for n <= 4."""
    if a.n > 4:
        raise DimensionMismatch("characteristic polynomial only for n <= 4")
    table = a.table
    cells = [[UnivariatePoly(table, [-a.rows[i][j], 1] if i == j else [-a.rows[i][j]])
              for j in range(a.n)] for i in range(a.n)]
    return _det_poly(table, cells)


def _det_poly(table: SymbolTable, cells) -> UnivariatePoly:
    if len(cells) == 1:
        return cells[0][0]
    total = UnivariatePoly(table, [])
    for j, cell in enumerate(cells[0]):
        if cell.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in cells[1:]]
        term = cell * _det_poly(table, minor)
        total = total + term if j % 2 == 0 else total - term
    return total


# -- built-in matrices -------------------------------------------------------


# Entries are ints, or names resolved against the table when the matrix
# is built: the grids without a name never touch q or i.
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

_BUILTIN_NAMES = {
    "q": lambda table: table.symbol("q"),
    "i": lambda table: table.i(),
    "-i": lambda table: -table.i(),
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
    return SquareMatrix(table, [[_BUILTIN_NAMES[e](table) if isinstance(e, str) else e
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
    list.  Raises ValueError for structural problems; entry text errors
    propagate as ParseError or UnknownSymbol.
    """
    if not isinstance(obj, Mapping):
        raise ValueError("matrix object must be a mapping")
    try:
        n = obj["n"]
        symbols = obj["symbols"]
        entries = obj["entries"]
    except KeyError as missing:
        raise ValueError(f"matrix object lacks key {missing}") from None
    if not isinstance(n, int) or n < 1:
        raise ValueError("matrix dimension must be a positive integer")
    if (not isinstance(symbols, list)
            or not all(isinstance(s, str) for s in symbols)):
        raise ValueError("matrix symbols must be a list of names")
    if table is None:
        table = SymbolTable(symbols)
    if (not isinstance(entries, list) or len(entries) != n
            or any(not isinstance(row, list) or len(row) != n for row in entries)):
        raise ValueError(f"matrix entries must form an {n}x{n} grid")
    rows = [[parse(text, table) for text in row] for row in entries]
    return SquareMatrix(table, rows)
