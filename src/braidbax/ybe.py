"""Yang-Baxter verification and the two Baxterised families.

Constant checks embed a 4x4 matrix into positions (1,2) and (2,3) of a
three-site space and compare the two triple products.  The parametrised
checks cover the power-law family over the s03 braid matrix and the
two-parameter projector family over the s14 braid matrix, including the
product-combination identities that collapse the s14 residual onto a
four-matrix span.

Conventions fixed here and relied on by the tests:

* s03 members are denominator-cleared, 2I + (x^p - 1)*Rhat.  Both sides
  of the parametrised equation contain the same three members, so the
  cleared form vanishes exactly when the unit-normalised one does.
* The parametrised residual places the first argument at slot (1,2),
  the middle at (2,3), the last at (1,2), and mirrors the slots on the
  subtracted side.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .cases import s14_constant_projectors
from .linalg import DimensionMismatch, SquareMatrix, braid, builtin
from .scalar import Scalar, SymbolTable

__all__ = [
    "CombinationBasis",
    "ResidualNotInSpan",
    "TensorOps",
    "braid_ybe_residual",
    "combination_basis",
    "embed12",
    "embed23",
    "expand_pybe_coefficients",
    "expansion_identity_residual",
    "power_reduction_residual",
    "pybe_coefficient_formulas",
    "reduction_identity_residuals",
    "s03_generic_residual",
    "s03_member",
    "s03_member_generic",
    "s03_pybe_residual",
    "s03_reduction_residual",
    "s14_chain",
    "s14_inverse_closed",
    "s14_member",
    "s14_member_q",
    "s14_pybe_residual",
    "verify_frt_relations",
]


class ResidualNotInSpan(Exception):
    """The expanded residual failed to reduce onto the four-matrix span."""


def embed12(a: SquareMatrix) -> SquareMatrix:
    """a acting on the first two of three sites: a tensor I2."""
    if a.n != 4:
        raise DimensionMismatch("three-site embedding expects a 4x4 matrix")
    return a.kron(SquareMatrix.identity(a.table, 2))


def embed23(a: SquareMatrix) -> SquareMatrix:
    """a acting on the last two of three sites: I2 tensor a."""
    if a.n != 4:
        raise DimensionMismatch("three-site embedding expects a 4x4 matrix")
    return SquareMatrix.identity(a.table, 2).kron(a)


def _triple_residual(a: SquareMatrix, b: SquareMatrix, c: SquareMatrix) -> SquareMatrix:
    """A12 B23 C12 - C23 B12 A23 on the three-site space."""
    return embed12(a) * embed23(b) * embed12(c) - embed23(c) * embed12(b) * embed23(a)


def braid_ybe_residual(b: SquareMatrix) -> SquareMatrix:
    """B12 B23 B12 - B23 B12 B23; zero exactly for braid-relation matrices."""
    b12 = embed12(b)
    b23 = embed23(b)
    return b12 * b23 * b12 - b23 * b12 * b23


# ---------------------------------------------------------------- s03 family


def _s03_rhat(table: SymbolTable) -> SquareMatrix:
    return braid(builtin("s03_r", table))


def s03_member_generic(c: Scalar, rhat: Optional[SquareMatrix] = None) -> SquareMatrix:
    """Unit-normalised member I + c*Rhat with a free coefficient scalar."""
    if rhat is None:
        rhat = _s03_rhat(c.table)
    return SquareMatrix.identity(c.table, 4) + c * rhat


def s03_member(p: int, x: Scalar, rhat: Optional[SquareMatrix] = None) -> SquareMatrix:
    """Power-law family member 2I + (x^p - 1)*Rhat.

    Twice the unit-normalised member with coefficient (x^p - 1)/2; the
    factor cancels between the two sides of the parametrised equation,
    so the cleared form keeps every entry a Laurent polynomial.
    Negative p makes x = 0 a pole.
    """
    if not isinstance(p, int) or isinstance(p, bool):
        raise TypeError("the exponent p must be an integer")
    if rhat is None:
        rhat = _s03_rhat(x.table)
    return 2 * SquareMatrix.identity(x.table, 4) + (x ** p - 1) * rhat


def s03_pybe_residual(
    p: int, x: Scalar, y: Scalar, rhat: Optional[SquareMatrix] = None
) -> SquareMatrix:
    """Triple-product residual of the power-law family at (x, xy, y).

    Identically zero for every integer p, symbolically in x and y.
    """
    if rhat is None:
        rhat = _s03_rhat(x.table)
    return _triple_residual(
        s03_member(p, x, rhat), s03_member(p, x * y, rhat), s03_member(p, y, rhat)
    )


def s03_generic_residual(
    cx: Scalar, cy: Scalar, cxy: Scalar, rhat: Optional[SquareMatrix] = None
) -> SquareMatrix:
    """Residual of unit members with free coefficients in the three slots.

    Feeding coefficients that violate the composition law
    cx + cy + 2*cx*cy = cxy leaves a nonzero multiple of B12 - B23.
    """
    if rhat is None:
        rhat = _s03_rhat(cx.table)
    return _triple_residual(
        s03_member_generic(cx, rhat),
        s03_member_generic(cxy, rhat),
        s03_member_generic(cy, rhat),
    )


def power_reduction_residual(
    b: SquareMatrix, cx: Scalar, cy: Scalar, cxy: Scalar
) -> SquareMatrix:
    """First collapse stage, valid for any braid-relation matrix b.

    The generic residual minus

        (cx + cy - cxy)(B12 - B23) + cx*cy*(B12^2 - B23^2)

    cancels using the braid relation alone, before any minimal
    polynomial enters.
    """
    eye = SquareMatrix.identity(b.table, b.n)
    residual = _triple_residual(eye + cx * b, eye + cxy * b, eye + cy * b)
    b12, b23 = embed12(b), embed23(b)
    collapsed = (cx + cy - cxy) * (b12 - b23) + (cx * cy) * (b12 * b12 - b23 * b23)
    return residual - collapsed


def s03_reduction_residual(
    cx: Scalar, cy: Scalar, cxy: Scalar, rhat: Optional[SquareMatrix] = None
) -> SquareMatrix:
    """Full collapse for the s03 braid matrix.

    Its square satisfies Rhat^2 = 2(Rhat - I), which merges the two
    first-stage terms into

        (cx + cy + 2*cx*cy - cxy)(B12 - B23)

    so the residual vanishes exactly on the composition law.
    """
    if rhat is None:
        rhat = _s03_rhat(cx.table)
    b12, b23 = embed12(rhat), embed23(rhat)
    law = cx + cy + 2 * cx * cy - cxy
    return s03_generic_residual(cx, cy, cxy, rhat) - law * (b12 - b23)


# ---------------------------------------------------------------- s14 family


def _corner_projectors(
    table: SymbolTable, plus: Optional[SquareMatrix], minus: Optional[SquareMatrix]
) -> tuple:
    """The given corner projectors, the s14 constants standing in for None."""
    if plus is None or minus is None:
        pair = s14_constant_projectors(table)
        plus = pair["plus"] if plus is None else plus
        minus = pair["minus"] if minus is None else minus
    return plus, minus


def s14_member(
    v: Scalar,
    w: Scalar,
    plus: Optional[SquareMatrix] = None,
    minus: Optional[SquareMatrix] = None,
) -> SquareMatrix:
    """Two-parameter member I + v*Pplus + w*Pminus (4x4)."""
    plus, minus = _corner_projectors(v.table, plus, minus)
    return SquareMatrix.identity(v.table, 4) + v * plus + w * minus


def s14_member_q(q: Scalar) -> SquareMatrix:
    """One-parameter slice I + (q-1)*Pplus - (q+1)*Pminus.

    Reproduces the braided s14 built-in entry for entry; its parameter
    pair (q-1, -(q+1)) sums to -2.
    """
    return s14_member(q - 1, -(q + 1))


def s14_inverse_closed(
    v: Scalar,
    w: Scalar,
    plus: Optional[SquareMatrix] = None,
    minus: Optional[SquareMatrix] = None,
) -> SquareMatrix:
    """Closed inverse I - v/(1+v)*Pplus - w/(1+w)*Pminus.

    Poles at v = -1 and w = -1, exactly where the member is singular.
    """
    return s14_member(-v / (1 + v), -w / (1 + w), plus, minus)


def s14_pybe_residual(
    first: tuple,
    middle: tuple,
    last: tuple,
    plus: Optional[SquareMatrix] = None,
    minus: Optional[SquareMatrix] = None,
) -> SquareMatrix:
    """Triple-product residual for three (v, w) parameter pairs.

    Zero whenever each pair sums to -2, with the pairs otherwise
    independent.
    """
    return _triple_residual(*(s14_member(v, w, plus, minus) for v, w in (first, middle, last)))


class TensorOps:
    """Slot embeddings of the two s14 corner projectors.

    x1 and x2 put the plus projector at sites (1,2) and (2,3); y1 and
    y2 do the same for the minus projector.  Alternative 4x4 matrices
    may be supplied to demonstrate how the identities fail for
    non-projectors.
    """

    __slots__ = ("table", "plus", "minus", "x1", "x2", "y1", "y2")

    def __init__(
        self,
        table: SymbolTable,
        plus: Optional[SquareMatrix] = None,
        minus: Optional[SquareMatrix] = None,
    ):
        plus, minus = _corner_projectors(table, plus, minus)
        self.table = table
        self.plus = plus
        self.minus = minus
        self.x1 = embed12(plus)
        self.x2 = embed23(plus)
        self.y1 = embed12(minus)
        self.y2 = embed23(minus)


class CombinationBasis:
    """The twelve product-combination matrices the residual expands over.

    s1, s2 are the slot differences of the plus and minus embeddings;
    j1, j2 the mixed two-factor differences; the remaining eight are
    the three-factor differences that the reduction identities send
    back onto the span of {s1, s2, j1, j2}.
    """

    __slots__ = ("s1", "s2", "j1", "j2", "s5", "s6", "k1", "k2", "k3", "l1", "l2", "l3")

    def __init__(self, **matrices):
        for name in self.__slots__:
            setattr(self, name, matrices[name])


def combination_basis(t: TensorOps) -> CombinationBasis:
    """All twelve combinations, computed verbatim from their definitions."""
    x1, x2, y1, y2 = t.x1, t.x2, t.y1, t.y2
    return CombinationBasis(
        s1=x1 - x2,
        s2=y1 - y2,
        j1=x1 * y2 - y1 * x2,
        j2=y2 * x1 - x2 * y1,
        s5=x1 * x2 * x1 - x2 * x1 * x2,
        s6=y1 * y2 * y1 - y2 * y1 * y2,
        k1=x1 * x2 * y1 - y2 * x1 * x2,
        k2=x1 * y2 * x1 - x2 * y1 * x2,
        k3=y1 * x2 * x1 - x2 * x1 * y2,
        l1=y1 * y2 * x1 - x2 * y1 * y2,
        l2=y1 * x2 * y1 - y2 * x1 * y2,
        l3=x1 * y2 * y1 - y2 * y1 * x2,
    )


def reduction_identity_residuals(basis: CombinationBasis) -> dict:
    """Residuals of the eight identities collapsing the three-factor terms.

    Every value is the zero matrix when the basis comes from honest
    projector embeddings.
    """
    q = Fraction(1, 4)
    return {
        "s5": basis.s5 - q * basis.s1,
        "s6": basis.s6 - q * basis.s2,
        "k1": basis.k1 + q * (basis.s2 + 2 * basis.j2),
        "k2": basis.k2 - q * (basis.s2 + 2 * (basis.j1 + basis.j2)),
        "k3": basis.k3 + q * (basis.s2 + 2 * basis.j1),
        "l1": basis.l1 + q * (basis.s1 - 2 * basis.j2),
        "l2": basis.l2 - q * (basis.s1 - 2 * (basis.j1 + basis.j2)),
        "l3": basis.l3 + q * (basis.s1 - 2 * basis.j1),
    }


def expansion_identity_residual(
    t: TensorOps, first: tuple, middle: tuple, last: tuple
) -> SquareMatrix:
    """Residual minus its twelve-term combination expansion; identically zero.

    The expansion is linear in each slot's parameters, so checking it
    on six independent symbols checks it everywhere.
    """
    v, w = first
    vp, wp = middle
    vpp, wpp = last
    b = combination_basis(t)
    expected = (
        (v + vpp + v * vpp - vp) * b.s1
        + (w + wpp + w * wpp - wp) * b.s2
        + (v * vp * vpp) * b.s5
        + (w * wp * wpp) * b.s6
        + (v * wp - vp * w) * b.j1
        + (vpp * wp - vp * wpp) * b.j2
        + (v * vp * wpp) * b.k1
        + (v * wp * vpp) * b.k2
        + (w * vp * vpp) * b.k3
        + (w * wp * vpp) * b.l1
        + (w * vp * wpp) * b.l2
        + (v * wp * wpp) * b.l3
    )
    return s14_pybe_residual(first, middle, last, t.plus, t.minus) - expected


def verify_frt_relations(t: TensorOps, rq: SquareMatrix) -> bool:
    """Projector exchange across braid products, both slots, both powers.

    Checks, for f ranging over the plus and minus embeddings and B over
    rq and its inverse:

        f_(12) B23 B12 = B23 B12 f_(23)
        f_(23) B12 B23 = B12 B23 f_(12)
    """
    pairs = ((t.x1, t.x2), (t.y1, t.y2))
    for power in (rq, rq.inverse()):
        b12, b23 = embed12(power), embed23(power)
        left = b23 * b12
        right = b12 * b23
        for f1, f2 in pairs:
            if f1 * left != left * f2:
                return False
            if f2 * right != right * f1:
                return False
    return True


# Identification of the 27 elementary slot-letter differences
# D(A,B,C) = A_(12) B_(23) C_(12) - C_(23) B_(12) A_(23) with letters in
# {identity, plus, minus}.  Twenty land on a signed combination matrix,
# the remaining seven vanish through slot structure, idempotence, or
# orthogonality.  Each claim is asserted at matrix level when expanding.
_ELEMENTARY = {
    ("x", "i", "i"): ("s1", 1),
    ("i", "i", "x"): ("s1", 1),
    ("x", "i", "x"): ("s1", 1),
    ("i", "x", "i"): ("s1", -1),
    ("y", "i", "i"): ("s2", 1),
    ("i", "i", "y"): ("s2", 1),
    ("y", "i", "y"): ("s2", 1),
    ("i", "y", "i"): ("s2", -1),
    ("x", "y", "i"): ("j1", 1),
    ("y", "x", "i"): ("j1", -1),
    ("i", "y", "x"): ("j2", 1),
    ("i", "x", "y"): ("j2", -1),
    ("x", "x", "x"): ("s5", 1),
    ("y", "y", "y"): ("s6", 1),
    ("x", "x", "y"): ("k1", 1),
    ("x", "y", "x"): ("k2", 1),
    ("y", "x", "x"): ("k3", 1),
    ("y", "y", "x"): ("l1", 1),
    ("y", "x", "y"): ("l2", 1),
    ("x", "y", "y"): ("l3", 1),
}

_COMBINATION_NAMES = ("s1", "s2", "j1", "j2", "s5", "s6", "k1", "k2", "k3", "l1", "l2", "l3")


def expand_pybe_coefficients(
    first: tuple, middle: tuple, last: tuple, tops: Optional[TensorOps] = None
) -> dict:
    """Coefficients {a1, a2, b1, b2} of the residual on {s1, s2, j1, j2}.

    Expands the residual multilinearly over the three slots, so each of
    the 27 elementary letter triples contributes its parameter weight
    times a fixed matrix.  Every such matrix is checked exactly against
    the combination it must equal (or against zero); the eight
    three-factor totals are then collapsed with the reduction
    identities, and the four surviving coefficients are checked to
    recompose the residual.  Any failed check raises ResidualNotInSpan.

    The two-factor span is linearly degenerate, j1 + j2 equals
    (s1 - s2)/2, so a bare entrywise linear solve cannot single out
    these coefficients; the formal reduction here does.
    """
    table = first[0].table
    if tops is None:
        tops = TensorOps(table)
    basis = combination_basis(tops)
    eye = SquareMatrix.identity(table, 8)
    outer = {"i": eye, "x": tops.x1, "y": tops.y1}
    inner = {"i": eye, "x": tops.x2, "y": tops.y2}
    weights = [
        {"i": table.one(), "x": pair[0], "y": pair[1]}
        for pair in (first, middle, last)
    ]
    totals = {name: table.zero() for name in _COMBINATION_NAMES}
    for a in ("i", "x", "y"):
        for b in ("i", "x", "y"):
            for c in ("i", "x", "y"):
                diff = outer[a] * inner[b] * outer[c] - inner[c] * outer[b] * inner[a]
                found = _ELEMENTARY.get((a, b, c))
                if found is None:
                    if not diff.is_zero():
                        raise ResidualNotInSpan(
                            f"elementary difference {a},{b},{c} should vanish"
                        )
                    continue
                name, sign = found
                target = getattr(basis, name)
                if diff != (target if sign > 0 else -target):
                    raise ResidualNotInSpan(
                        f"elementary difference {a},{b},{c} is not {name}"
                    )
                weight = weights[0][a] * weights[1][b] * weights[2][c]
                totals[name] = totals[name] + (weight if sign > 0 else -weight)
    quarter = Fraction(1, 4)
    half = Fraction(1, 2)
    a1 = totals["s1"] + quarter * (totals["s5"] - totals["l1"] + totals["l2"] - totals["l3"])
    a2 = totals["s2"] + quarter * (totals["s6"] - totals["k1"] + totals["k2"] - totals["k3"])
    b1 = totals["j1"] + half * (totals["k2"] - totals["k3"] - totals["l2"] + totals["l3"])
    b2 = totals["j2"] + half * (totals["k2"] - totals["k1"] + totals["l1"] - totals["l2"])
    recomposed = a1 * basis.s1 + a2 * basis.s2 + b1 * basis.j1 + b2 * basis.j2
    if recomposed != s14_pybe_residual(first, middle, last, tops.plus, tops.minus):
        raise ResidualNotInSpan("reduced coefficients fail to recompose the residual")
    return {"a1": a1, "a2": a2, "b1": b1, "b2": b2}


def pybe_coefficient_formulas(first: tuple, middle: tuple, last: tuple) -> dict:
    """Closed forms the expansion coefficients must match.

    With pairs (v,w), (v',w'), (v'',w''):

        4*a1 = 4(v + v'' + v*v'' - v') + v*v'*v'' - w*w'*v''
                                       + w*v'*w'' - v*w'*w''
        4*a2 = same with v and w exchanged
        2*b1 = (v*w' - v'*w)(v'' + w'' + 2)
        2*b2 = (v''*w' - v'*w'')(v + w + 2)
    """
    v, w = first
    vp, wp = middle
    vpp, wpp = last
    quarter = Fraction(1, 4)
    half = Fraction(1, 2)
    a1 = (v + vpp + v * vpp - vp) + quarter * (
        v * vp * vpp - w * wp * vpp + w * vp * wpp - v * wp * wpp
    )
    a2 = (w + wpp + w * wpp - wp) + quarter * (
        w * wp * wpp - v * vp * wpp + v * wp * vpp - w * vp * vpp
    )
    b1 = half * (v * wp - vp * w) * (vpp + wpp + 2)
    b2 = half * (vpp * wp - vp * wpp) * (v + w + 2)
    return {"a1": a1, "a2": a2, "b1": b1, "b2": b2}


def s14_chain(v: Scalar, vpp: Scalar) -> Scalar:
    """Middle parameter that makes the first span coefficient vanish.

    v' = (v + v'' + v*v'') / (1 - v*v''/4), a pole when v*v'' = 4.  The
    second parameter of each pair composes by the identical formula.
    """
    return (v + vpp + v * vpp) / (1 - Fraction(1, 4) * v * vpp)
