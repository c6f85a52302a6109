"""The scalar functional equations behind the Baxterised families.

Two interlocking laws: the multiplicative-additive law for c and the
k-squared family law for a, together with the closed forms solving them
and the conversion maps between the two parametrisations.  Everything
is exact; square roots are only taken when they exist in the scalar
field.  f and a are evaluated on the upper branch r = sqrt(1 - 4k^2);
the lower branch, -r, is reached through the argument 1/x (see f_aux
and a_eval_general), so no evaluator takes a branch.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import PoleError, Scalar, SymbolTable, sqrt_scalar

__all__ = [
    "NonSquare",
    "a_eval_general",
    "a_from_c",
    "a_half_closed",
    "a_law_residual",
    "c_eval",
    "c_from_a",
    "c_law_residual",
    "f_aux",
    "reparametrize_check",
]


class NonSquare(Exception):
    """1 - 4*kSquared has no exact square root in the scalar field."""


def c_eval(p: int, x: Scalar) -> Scalar:
    """c(x) = (x^p - 1)/2 for an integer exponent p."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise TypeError("the exponent p must be an integer")
    return (x ** p - 1) / 2


def c_law_residual(p: int, x: Scalar, y: Scalar) -> Scalar:
    """c(x) + c(y) + 2c(x)c(y) - c(xy); identically zero for every integer p."""
    cx = c_eval(p, x)
    cy = c_eval(p, y)
    return cx + cy + 2 * cx * cy - c_eval(p, x * y)


def _root(k_squared, reference: Scalar) -> Scalar:
    """r = sqrt(1 - 4k^2) on sqrt_scalar's branch, over the table of reference."""
    k2 = reference.table.scalar(k_squared)
    r = sqrt_scalar(1 - 4 * k2)
    if r is None:
        raise NonSquare(f"1 - 4*({k2}) has no square root in the scalar field")
    return r


def f_aux(k_squared, x: Scalar) -> Scalar:
    """The upper-branch auxiliary function 1/x - x + r(x + 1/x), r = sqrt(1 - 4k^2).

    The lower branch, 1/x - x - r(x + 1/x), is -f_aux(k_squared, 1/x).
    Genuinely singular at x = 0 (the quotient a built from it is not).
    """
    r = _root(k_squared, x)
    return x ** -1 - x + r * (x + x ** -1)


def a_eval_general(k_squared, x: Scalar) -> Scalar:
    """The upper-branch a(x) = f(x)/f(1/x) - 1, evaluated through its cleared form.

    Clearing the 1/x factors gives

        a(x) = ((1+r) - (1-r)x^2) / ((1+r)x^2 - (1-r)) - 1

    which is defined at x = 0 whenever the denominator is.  The lower
    branch, the same form with -r in place of r, is
    a_eval_general(k_squared, 1/x).
    """
    r = _root(k_squared, x)
    num = (1 + r) - (1 - r) * x ** 2
    den = (1 + r) * x ** 2 - (1 - r)
    return num / den - 1


def a_half_closed(x: Scalar) -> Scalar:
    """The simplified upper-branch a(x) for kSquared = 1/2.

    ((x^2 - 1)/(x^4 + 1)) * (1 - x^2 + i(1 + x^2)); equal to the general
    form and, like it, defined at x = 0.
    """
    i = x.table.i()
    return ((x ** 2 - 1) / (x ** 4 + 1)) * (1 - x ** 2 + i * (1 + x ** 2))


def a_law_residual(k_squared, x: Scalar, y: Scalar) -> Scalar:
    """a(xy) - (a(x) + a(y) + a(x)a(y)) / (1 - kSquared*a(x)a(y)) on the upper branch."""
    k2 = x.table.scalar(k_squared)
    ax = a_eval_general(k2, x)
    ay = a_eval_general(k2, y)
    den = 1 - k2 * ax * ay
    if den.is_zero():
        raise PoleError("the law's denominator 1 - k^2 a(x)a(y) vanishes")
    return a_eval_general(k2, x * y) - (ax + ay + ax * ay) / den


def a_from_c(c: Scalar) -> Scalar:
    """a = 2c / (i + (i-1)c)."""
    i = c.table.i()
    return 2 * c / (i + (i - 1) * c)


def c_from_a(a: Scalar) -> Scalar:
    """c = i*a / (2 + (1-i)a)."""
    i = a.table.i()
    return i * a / (2 + (1 - i) * a)


def reparametrize_check(p: int) -> bool:
    """Substituting x -> x^(-p/2) into the half-case a recovers c for this p.

    Needs p even so that the substitution stays inside the Laurent
    field; odd p is rejected rather than approximated.
    """
    if not isinstance(p, int) or isinstance(p, bool):
        raise TypeError("the exponent p must be an integer")
    if p % 2:
        raise ValueError("substitution x -> x^(-p/2) requires an even p")
    table = SymbolTable(["x"])
    x = table.symbol("x")
    a_sub = a_eval_general(Fraction(1, 2), x ** (-p // 2))
    return c_from_a(a_sub) == c_eval(p, x)
