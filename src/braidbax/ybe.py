"""Yang-Baxter verification and the two Baxterised families.

Constant checks embed a 4x4 matrix into positions (1,2) and (2,3) of a
three-site space and compare the two triple products.  The parametrised
checks cover the power-law family over the s03 braid matrix and the
two-parameter projector family over the s14 braid matrix, including the
product-combination identities that collapse the s14 residual onto a
four-matrix span.

Conventions fixed here and relied on by the tests:

* s03 members are unit-normalised, I + c(x)*Rhat with c = funceq.c_eval,
  the generic Baxterisation form I + c*B of any braid matrix B (Jones,
  "Baxterization", 1990); _unit_residual checks it for free c.
* Every three-site product is _triple over (1,2)/(2,3) embedding pairs
  from _embed.  The parametrised residual places the first argument at
  slot (1,2), the middle at (2,3), the last at (1,2), and mirrors the
  slots on the subtracted side.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .cases import s14_constant_projectors
from .funceq import c_eval
from .linalg import DimensionMismatch, SquareMatrix, braid, builtin
from .scalar import Scalar, SymbolTable

__all__ = [
    "ResidualNotInSpan",
    "TensorOps",
    "braid_ybe_residual",
    "expand_pybe_coefficients",
    "power_reduction_residual",
    "pybe_coefficient_formulas",
    "reduction_identity_residuals",
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


def _embed(a: SquareMatrix) -> tuple:
    """(a12, a23): a acting on sites (1,2) and (2,3) of three, a (x) I2 and I2 (x) a."""
    if a.n != 4:
        raise DimensionMismatch("three-site embedding expects a 4x4 matrix")
    eye = SquareMatrix.identity(a.table, 2)
    return a.kron(eye), eye.kron(a)


def _triple(a: tuple, b: tuple, c: tuple) -> SquareMatrix:
    """A12 B23 C12 - C23 B12 A23 for the embedding pairs a, b, c."""
    (a12, a23), (b12, b23), (c12, c23) = a, b, c
    return a12 * b23 * c12 - c23 * b12 * a23


def braid_ybe_residual(b: SquareMatrix) -> SquareMatrix:
    """B12 B23 B12 - B23 B12 B23; zero exactly for braid-relation matrices."""
    pair = _embed(b)
    return _triple(pair, pair, pair)


# ---------------------------------------------------------------- s03 family


def s03_pybe_residual(
    p: int, x: Scalar, y: Scalar, rhat: Optional[SquareMatrix] = None
) -> SquareMatrix:
    """Residual of the power-law members I + c(x)*Rhat at (x, xy, y).

    c = funceq.c_eval(p, .) = (x^p - 1)/2, which raises TypeError for a
    non-int p and PoleError at x = 0 for a negative one.  Identically
    zero for every integer p, symbolically in x and y.
    """
    cx, cy, cxy = c_eval(p, x), c_eval(p, y), c_eval(p, x * y)
    if rhat is None:
        rhat = braid(builtin("s03_r", x.table))
    return _unit_residual(rhat, cx, cy, cxy)


def _unit_residual(b: SquareMatrix, cx: Scalar, cy: Scalar, cxy: Scalar) -> SquareMatrix:
    """Residual of the unit members I + c*b with free coefficients in the three slots.

    For a braid-relation matrix b with b^2 = alpha*b + beta*I, not a
    multiple of I, it equals (cx + cy + alpha*cx*cy - cxy)(B12 - B23), so
    it vanishes exactly on that composition law; alpha = 2 for s03.
    """
    eye = SquareMatrix.identity(b.table, b.n)
    return _triple(*map(_embed, (eye + cx * b, eye + cxy * b, eye + cy * b)))


def power_reduction_residual(
    b: SquareMatrix, cx: Scalar, cy: Scalar, cxy: Scalar
) -> SquareMatrix:
    """First collapse stage, valid for any braid-relation matrix b.

    The generic residual minus

        (cx + cy - cxy)(B12 - B23) + cx*cy*(B12^2 - B23^2)

    cancels using the braid relation alone, before any minimal
    polynomial enters.
    """
    b12, b23 = _embed(b)
    collapsed = (cx + cy - cxy) * (b12 - b23) + (cx * cy) * (b12 * b12 - b23 * b23)
    return _unit_residual(b, cx, cy, cxy) - collapsed


def s03_reduction_residual(cx: Scalar, cy: Scalar, cxy: Scalar, rhat: SquareMatrix) -> SquareMatrix:
    """Full collapse for rhat, the s03 braid matrix.

    Its square satisfies Rhat^2 = 2(Rhat - I), which merges the two
    first-stage terms into

        (cx + cy + 2*cx*cy - cxy)(B12 - B23)

    so the residual vanishes exactly on the composition law.
    """
    b12, b23 = _embed(rhat)
    law = cx + cy + 2 * cx * cy - cxy
    return _unit_residual(rhat, cx, cy, cxy) - law * (b12 - b23)


# ---------------------------------------------------------------- s14 family


def s14_member(v: Scalar, w: Scalar, plus: Optional[SquareMatrix] = None) -> SquareMatrix:
    """Two-parameter member I + v*Pplus + w*Pminus (4x4).

    plus replaces the constant plus projector; the minus one is fixed.
    """
    pair = s14_constant_projectors(v.table)
    plus = pair["plus"] if plus is None else plus
    return SquareMatrix.identity(v.table, 4) + v * plus + w * pair["minus"]


def s14_member_q(q: Scalar) -> SquareMatrix:
    """One-parameter slice I + (q-1)*Pplus - (q+1)*Pminus.

    Reproduces the braided s14 built-in entry for entry; its parameter
    pair (q-1, -(q+1)) sums to -2.
    """
    return s14_member(q - 1, -(q + 1))


def s14_inverse_closed(v: Scalar, w: Scalar) -> SquareMatrix:
    """Closed inverse I - v/(1+v)*Pplus - w/(1+w)*Pminus.

    Poles at v = -1 and w = -1, exactly where the member is singular.
    """
    return s14_member(-v / (1 + v), -w / (1 + w))


def s14_pybe_residual(
    first: tuple, middle: tuple, last: tuple, plus: Optional[SquareMatrix] = None
) -> SquareMatrix:
    """Triple-product residual for three (v, w) parameter pairs.

    Zero whenever each pair sums to -2, with the pairs otherwise
    independent.
    """
    members = [s14_member(v, w, plus) for v, w in (first, middle, last)]
    return _triple(*map(_embed, members))


class TensorOps:
    """Slot embeddings of the two s14 corner projectors.

    slots maps the letter x to the _embed pair of the plus projector and
    y to that of the minus projector.  An alternative 4x4 plus matrix
    may be supplied to demonstrate how the identities fail for
    non-projectors.  diffs holds each letter difference once built on
    this instance.
    """

    __slots__ = ("table", "plus", "slots", "diffs")

    def __init__(self, table: SymbolTable, plus: Optional[SquareMatrix] = None):
        pair = s14_constant_projectors(table)
        self.table = table
        self.plus = pair["plus"] if plus is None else plus
        self.slots = {"x": _embed(self.plus), "y": _embed(pair["minus"])}
        self.diffs = {}


def _letter_difference(t: TensorOps, triple: str) -> SquareMatrix:
    """D(A,B,C) = A_(12) B_(23) C_(12) - C_(23) B_(12) A_(23), built once per t.

    The letters i, x, y of the triple name the identity, the plus and
    the minus projector.
    """
    diff = t.diffs.get(triple)
    if diff is None:
        eye = SquareMatrix.identity(t.table, 8)
        slots = {"i": (eye, eye), **t.slots}
        diff = _triple(*(slots[letter] for letter in triple))
        t.diffs[triple] = diff
    return diff


# The twelve product combinations the residual expands over, each the
# difference of one letter triple.  s1, s2 are the slot differences of
# the plus and minus embeddings, j1, j2 the mixed two-factor
# differences; the other eight are three-factor differences that the
# reduction identities send back onto the span of {s1, s2, j1, j2}.
_BASIS = {
    "s1": "xii", "s2": "yii", "j1": "xyi", "j2": "iyx",
    "s5": "xxx", "s6": "yyy", "k1": "xxy", "k2": "xyx",
    "k3": "yxx", "l1": "yyx", "l2": "yxy", "l3": "xyy",
}
_NAMED = {triple: name for name, triple in _BASIS.items()}

# The other letter triples whose difference is a signed combination;
# the remaining seven vanish through slot structure, idempotence, or
# orthogonality.  _letter_claim_residuals checks each claim at matrix
# level.
_ELEMENTARY = {
    "iix": ("s1", 1), "xix": ("s1", 1), "ixi": ("s1", -1),
    "iiy": ("s2", 1), "yiy": ("s2", 1), "iyi": ("s2", -1),
    "yxi": ("j1", -1), "ixy": ("j2", -1),
}

_TRIPLES = tuple(a + b + c for a in "ixy" for b in "ixy" for c in "ixy")

# The (triple, span name, sign) terms of the multilinear expansion, in
# triple order: the twenty triples whose difference does not vanish.
_ENTRIES = tuple(
    (triple, _NAMED[triple], 1) if triple in _NAMED else (triple, *_ELEMENTARY[triple])
    for triple in _TRIPLES if triple in _NAMED or triple in _ELEMENTARY
)

# The eight reduction identities, read by span element: a three-factor
# combination n equals the sum of scale * sign * target over the rows
# naming it, so the coefficient of each target collects
# scale * (n1 +- n2 +- n3 +- n4) from the three-factor totals.  Keep the
# term order: with two or more symbols stored forms are not canonical,
# so another grouping prints equal coefficients differently.
_REDUCTION = {
    "s1": (Fraction(1, 4), (("s5", 1), ("l1", -1), ("l2", 1), ("l3", -1))),
    "s2": (Fraction(1, 4), (("s6", 1), ("k1", -1), ("k2", 1), ("k3", -1))),
    "j1": (Fraction(1, 2), (("k2", 1), ("k3", -1), ("l2", -1), ("l3", 1))),
    "j2": (Fraction(1, 2), (("k2", 1), ("k1", -1), ("l1", 1), ("l2", -1))),
}


def reduction_identity_residuals(t: TensorOps) -> dict:
    """Residuals of the eight identities collapsing the three-factor terms.

    They run over the twelve combination matrices of t; every value is
    the zero matrix when t holds honest projector embeddings.
    """
    basis = {name: _letter_difference(t, triple) for name, triple in _BASIS.items()}
    residuals = {name: basis[name] for name in basis if name not in _REDUCTION}
    for target, (scale, terms) in _REDUCTION.items():
        for name, sign in terms:
            residuals[name] = residuals[name] - (sign * scale) * basis[target]
    return residuals


def _letter_claim_residuals(t: TensorOps) -> dict:
    """Residuals of the fifteen claims about the triples outside the basis.

    An identified triple leaves its difference minus its signed span
    element, a vanishing one its difference itself, keyed by triple in
    triple order; every value is the zero matrix when t holds honest
    projector embeddings.
    """
    residuals = {}
    for triple in _TRIPLES:
        if triple in _NAMED:
            continue
        diff = _letter_difference(t, triple)
        if triple in _ELEMENTARY:
            name, sign = _ELEMENTARY[triple]
            span = _letter_difference(t, _BASIS[name])
            diff = diff - span if sign > 0 else diff + span
        residuals[triple] = diff
    return residuals


def verify_frt_relations(t: TensorOps, rq: SquareMatrix) -> bool:
    """Projector exchange across braid products, both slots, both powers.

    Checks, for f ranging over the plus and minus embeddings and B over
    rq and its inverse:

        f_(12) B23 B12 = B23 B12 f_(23)
        f_(23) B12 B23 = B12 B23 f_(12)
    """
    for power in (rq, rq.inverse()):
        b12, b23 = _embed(power)
        left = b23 * b12
        right = b12 * b23
        for f1, f2 in t.slots.values():
            if f1 * left != left * f2:
                return False
            if f2 * right != right * f1:
                return False
    return True


def expand_pybe_coefficients(
    first: tuple, middle: tuple, last: tuple, tops: Optional[TensorOps] = None
) -> dict:
    """Coefficients {a1, a2, b1, b2} of the residual on {s1, s2, j1, j2}.

    Expands the residual multilinearly over the three slots: each
    _ENTRIES row adds its signed parameter weight to the total of its
    span name.  The eight three-factor totals are then collapsed with
    the reduction identities, and the four surviving coefficients are
    checked exactly to recompose this triplet's residual, so every
    returned coefficient set is certified; a failed recomposition raises
    ResidualNotInSpan.

    The classification in _ENTRIES concerns the constant projectors
    only, never the parameters; _letter_claim_residuals checks it.  The
    span matrices s1, s2, j1, j2 are differences of tops, by default a
    fresh TensorOps in the caller's table.

    The two-factor span is linearly degenerate, j1 + j2 equals
    (s1 - s2)/2, so a bare entrywise linear solve cannot single out
    these coefficients; the formal reduction here does.
    """
    table = first[0].table
    if tops is None:
        tops = TensorOps(table)
    weights = [{"i": table.one(), "x": v, "y": w} for v, w in (first, middle, last)]
    totals = {name: table.zero() for name in _BASIS}
    for (a, b, c), name, sign in _ENTRIES:
        weight = weights[0][a] * weights[1][b] * weights[2][c]
        totals[name] = totals[name] + (weight if sign > 0 else -weight)
    coeffs = {}
    for target, (scale, terms) in _REDUCTION.items():
        (head, _), *rest = terms
        collapsed = totals[head]
        for name, sign in rest:
            collapsed = collapsed + totals[name] if sign > 0 else collapsed - totals[name]
        coeffs[target] = totals[target] + scale * collapsed
    recomposed = sum((coeffs[name] * _letter_difference(tops, _BASIS[name])
                      for name in _REDUCTION), SquareMatrix.zeros(table, 8))
    if recomposed != s14_pybe_residual(first, middle, last, tops.plus):
        raise ResidualNotInSpan("reduced coefficients fail to recompose the residual")
    return {"a1": coeffs["s1"], "a2": coeffs["s2"], "b1": coeffs["j1"], "b2": coeffs["j2"]}


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
