"""The single signed-term printer against the two term printers it replaced.

reference_poly_term and reference_plane_term are the minimal-polynomial
and plane-line term printers as they stood before both were routed
through scalar._signed_term; the printed forms must not have moved.
"""

from fractions import Fraction

from hypothesis import given, strategies as st

from braidbax import RelationSet, SquareMatrix, SymbolTable, UnivariatePoly
from braidbax.ncplane import _COORD_MONOMIALS, _DIFF_MONOMIALS, _MIXED_LEFT, _MIXED_RIGHT

from conftest import nonzero_scalars, scalars

TABLES = (SymbolTable([]), SymbolTable(["x"]), SymbolTable(["x", "y"]))


def reference_poly_term(c, d):
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


def reference_plane_term(coeff, monomial):
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


def reference_join(pieces):
    if not pieces:
        return "0"
    out = pieces[0]
    for p in pieces[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def reference_combo(coeffs, monomials):
    return reference_join([reference_plane_term(c, m)
                           for c, m in zip(coeffs, monomials) if not c.is_zero()])


@st.composite
def coefficients(draw, table):
    """Zero, ±1, Gaussian constants, bare quotients, Laurent polynomials and
    quotients with non-monomial denominators, over the given table."""
    names = table.names
    i = table.i()
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return table.scalar(draw(st.sampled_from([0, 1, -1])))
    if kind == 1:
        re = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
        im = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
        return table.scalar(re) + table.scalar(im) * i
    if kind == 2:
        # a bare quotient: one term over a non-unit constant or a monomial
        top = table.scalar(draw(st.sampled_from([1, -1, 3, Fraction(-5, 2)])))
        if draw(st.booleans()):
            top = top * i
        bottom = table.scalar(draw(st.sampled_from([2, 3, 7])))
        if names and draw(st.booleans()):
            bottom = bottom * table.symbol(draw(st.sampled_from(names)))
        return top / bottom
    if kind == 3:
        return draw(scalars(names=names, max_terms=3, table=table))
    return (draw(scalars(names=names, max_terms=2, table=table))
            / draw(nonzero_scalars(names=names, table=table)))


@given(st.data())
def test_minimal_polynomial_terms_print_as_before(data):
    table = data.draw(st.sampled_from(TABLES))
    coeffs = data.draw(st.lists(coefficients(table), min_size=1, max_size=5))
    poly = UnivariatePoly(table, coeffs)
    want = reference_join([reference_poly_term(c, d)
                           for d, c in reversed(list(enumerate(poly.coeffs)))
                           if not c.is_zero()])
    assert str(poly) == want


@given(st.data())
def test_plane_lines_print_as_before(data):
    table = data.draw(st.sampled_from(TABLES))

    def rows(count):
        return tuple(tuple(data.draw(coefficients(table)) for _ in range(4))
                     for _ in range(count))

    coordinates = rows(data.draw(st.integers(1, 2)))
    differentials = rows(data.draw(st.integers(1, 2)))
    mixed = SquareMatrix(table, rows(4))
    relations = RelationSet(coordinates, differentials, mixed)
    want = [f"{reference_combo(row, _COORD_MONOMIALS)} = 0" for row in coordinates]
    want += [f"{reference_combo(row, _DIFF_MONOMIALS)} = 0" for row in differentials]
    want += [f"{left} = {reference_combo(mixed.rows[k], _MIXED_RIGHT)}"
             for k, left in enumerate(_MIXED_LEFT)]
    assert relations.lines() == want


def test_the_printers_differ_only_in_plane_quotient_parentheses():
    table = SymbolTable(["x"])
    half = table.scalar(Fraction(-1, 2))
    assert str(UnivariatePoly(table, [0, half])) == "-1/2*t"
    assert reference_plane_term(half, "xi1*x1") == "-(1/2)*xi1*x1"
    zero, one = table.zero(), table.one()
    relations = RelationSet(((half, zero, zero, one),), ((one, zero, zero, zero),),
                            SquareMatrix.identity(table, 4))
    assert relations.lines()[0] == "-(1/2)*x1*x1 + x2*x2 = 0"
