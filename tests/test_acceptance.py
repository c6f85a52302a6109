"""Acceptance gate: one test per shipped guarantee, all exact.

Every comparison below is bit-exact over the Gaussian-rational field;
there are no numeric tolerances anywhere.
"""

from fractions import Fraction

from braidbax import (
    SquareMatrix,
    SymbolTable,
    braid,
    braid_ybe_residual,
    builtin,
    builtin_case,
    c_eval,
    c_from_a,
    c_law_residual,
    check_diagonalizer,
    a_eval_general,
    a_from_c,
    a_half_closed,
    a_law_residual,
    expand_pybe_coefficients,
    find_roots,
    lagrange_projectors,
    minimal_polynomial,
    mixed_rules_s03,
    mixed_rules_s14,
    pybe_coefficient_formulas,
    reduction_identity_residuals,
    reparametrize_check,
    s03_constant_projectors,
    s03_plane,
    s03_pybe_residual,
    s03_reduction_residual,
    s14_chain,
    s14_constant_projectors,
    s14_inverse_closed,
    s14_member,
    s14_member_q,
    s14_plane,
    s14_pybe_residual,
    TensorOps,
)
from braidbax.ncplane import _wz_relations

from conftest import expansion_by_plan, find_section, transpose

HALF = Fraction(1, 2)


def test_criterion_1_minimal_polynomials():
    """Both built-in braid matrices have the published minimal polynomials."""
    rhat03 = braid(builtin("s03_r", SymbolTable([])))
    assert str(minimal_polynomial(rhat03)) == "t^2 - 2*t + 2"
    rhat14 = braid(builtin("s14_r", SymbolTable(["q"])))
    assert str(minimal_polynomial(rhat14)) == "t^3 - t^2 - q^2*t + q^2"


def test_criterion_2_projector_suites():
    """Spectral projectors computed from scratch equal the published constants."""
    for name in ("s03", "s14"):
        case = builtin_case(name)
        poly = minimal_polynomial(case.rhat)
        roots = find_roots(poly)
        suite = lagrange_projectors(case.rhat, roots)
        assert len(suite) == len(case.pairing)
        constants = (
            s03_constant_projectors(case.table)
            if name == "s03"
            else s14_constant_projectors(case.table)
        )
        for (eig, proj), (want_eig, label) in zip(suite, case.pairing):
            assert eig == want_eig
            assert proj == constants[label]
        zero = SquareMatrix.zeros(case.table, 4)
        assert sum((proj for _, proj in suite), zero) == SquareMatrix.identity(case.table, 4)
        assert sum((eig * proj for eig, proj in suite), zero) == case.rhat
    # the three s14 projector matrices carry no trace of the parameter
    q_case = builtin_case("s14")
    for proj in s14_constant_projectors(q_case.table).values():
        for row in proj.rows:
            for entry in row:
                assert "q" not in str(entry)


def test_criterion_3_constant_braid_relation():
    """Both built-ins satisfy the three-site braid relation on the nose."""
    rhat03 = braid(builtin("s03_r", SymbolTable([])))
    assert braid_ybe_residual(rhat03).is_zero()
    # symbolic q, not a sampled value
    rhat14 = braid(builtin("s14_r", SymbolTable(["q"])))
    assert braid_ybe_residual(rhat14).is_zero()


def test_criterion_4_power_family_baxterisation():
    """The one-parameter power family braids for every exponent in range."""
    table = SymbolTable(["x", "y"])
    x, y = table.symbols("x", "y")
    for p in range(-4, 5):
        assert s03_pybe_residual(p, x, y).is_zero(), f"residual nonzero at p = {p}"
    # the factorisation residual vanishes for free coefficients, before
    # any composition law is imposed
    free = SymbolTable(["cx", "cy", "cxy"])
    cx, cy, cxy = free.symbols("cx", "cy", "cxy")
    assert s03_reduction_residual(cx, cy, cxy, braid(builtin("s03_r", free))).is_zero()
    # the p = -1 member I + c(x)*Rhat, cleared of its scalar prefactor, is the known matrix
    rhat = braid(builtin("s03_r", table))
    cleared = (2 * x) * (SquareMatrix.identity(table, 4) + c_eval(-1, x) * rhat)
    want = SquareMatrix(
        table,
        [
            [x + 1, 0, 0, 1 - x],
            [0, x + 1, x - 1, 0],
            [0, 1 - x, x + 1, 0],
            [x - 1, 0, 0, x + 1],
        ],
    )
    assert cleared == want


def test_criterion_5_functional_equations():
    """Coefficient laws hold symbolically and the conversions are inverse."""
    table = SymbolTable(["x", "y"])
    x, y = table.symbols("x", "y")
    for p in range(-4, 5):
        assert c_law_residual(p, x, y).is_zero()
    # the square-root branch closed form agrees with the general evaluator
    assert a_eval_general(HALF, x) == a_half_closed(x)
    assert a_law_residual(HALF, x, y).is_zero()
    # endpoint values, the second through the simplified closed form
    assert a_eval_general(HALF, table.one()).is_zero()
    assert a_half_closed(table.zero()) == -(table.one() + table.i())
    # conversions invert each other and recover the p = -2 coefficients
    c = SymbolTable(["c"]).symbol("c")
    assert c_from_a(a_from_c(c)) == c
    a = SymbolTable(["a"]).symbol("a")
    assert a_from_c(c_from_a(a)) == a
    assert c_from_a(a_eval_general(HALF, x)) == c_eval(-2, x)
    assert reparametrize_check(-2)


def test_criterion_6_combination_identities():
    """All twelve product combinations reduce onto the four-matrix span."""
    plain = SymbolTable([])
    reductions = reduction_identity_residuals(TensorOps(plain))
    assert len(reductions) == 8
    for name, residual in reductions.items():
        assert residual.is_zero(), f"reduction {name} fails"
    free = SymbolTable(["v", "w", "vp", "wp", "vpp", "wpp"])
    v, w, vp, wp, vpp, wpp = free.symbols("v", "w", "vp", "wp", "vpp", "wpp")
    tops = TensorOps(free)
    first, middle, last = (v, w), (vp, wp), (vpp, wpp)
    # the residual is the signed sum over the classified letter triples
    assert expansion_by_plan(tops, first, middle, last) == s14_pybe_residual(first, middle, last)
    # the reduced coefficients match their closed formulas in six symbols
    got = expand_pybe_coefficients(first, middle, last, tops)
    want = pybe_coefficient_formulas(first, middle, last)
    for key in ("a1", "a2", "b1", "b2"):
        assert got[key] == want[key], f"coefficient {key} disagrees"
    # pairs summing to -2 kill the residual outright
    con = SymbolTable(["v", "vp", "vpp"])
    cv, cvp, cvpp = con.symbols("v", "vp", "vpp")
    constrained = ((cv, -2 - cv), (cvp, -2 - cvp), (cvpp, -2 - cvpp))
    assert s14_pybe_residual(*constrained).is_zero()
    for value in expand_pybe_coefficients(*constrained).values():
        assert value.is_zero()
    # chaining the middle parameter cancels every coefficient when the
    # opposite-slot parameters vanish, on either side
    pair = SymbolTable(["v", "vpp"])
    pv, pvpp = pair.symbols("v", "vpp")
    zero = pair.zero()
    chained = s14_chain(pv, pvpp)
    for value in expand_pybe_coefficients(
        (pv, zero), (chained, zero), (pvpp, zero)
    ).values():
        assert value.is_zero()
    for value in expand_pybe_coefficients(
        (zero, pv), (zero, chained), (zero, pvpp)
    ).values():
        assert value.is_zero()


def test_criterion_7_inverses_and_diagonalizers():
    """Closed inverses and the two conjugations to diagonal form are exact."""
    free = SymbolTable(["v", "w"])
    v, w = free.symbols("v", "w")
    m = s14_member(v, w)
    inv = s14_inverse_closed(v, w)
    eye4 = SquareMatrix.identity(free, 4)
    assert m * inv == eye4
    assert inv * m == eye4
    table = SymbolTable(["q"])
    q = table.symbol("q")
    rhat_q = braid(builtin("s14_r", table))
    assert s14_member_q(q) == rhat_q
    # parameter inversion is matrix inversion
    assert rhat_q * s14_member_q(1 / q) == SquareMatrix.identity(table, 4)
    # the real diagonalizer takes the q-family to twice diag(q, 1, 1, -q)
    m_diag = builtin("s03_m_diag", table)
    want_q = SquareMatrix(
        table,
        [[q, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -q]],
    )
    assert m_diag * rhat_q * transpose(m_diag) == 2 * want_q
    assert check_diagonalizer(m_diag, rhat_q) == want_q
    # the complex diagonalizer takes the constant matrix to its eigenvalues
    i = table.i()
    rhat03 = braid(builtin("s03_r", table))
    m_prime = builtin("s03_m_prime_unnorm", table)
    want_03 = SquareMatrix(
        table,
        [[1 - i, 0, 0, 0], [0, 1 - i, 0, 0], [0, 0, 1 + i, 0], [0, 0, 0, 1 + i]],
    )
    assert m_prime * rhat03 * m_prime.dagger() == 2 * want_03
    assert check_diagonalizer(m_prime, rhat03) == want_03


def test_criterion_8_noncommutative_planes():
    """Both plane constructions are consistent and match the published rules."""
    table = SymbolTable(["c"])
    c = table.symbol("c")
    # the shift product (P - I)(Q + I) vanishes for the s03 shifts
    projectors = s03_constant_projectors(table)
    coord, diff = projectors["minus"], (2 * c) * projectors["plus"]
    assert (coord * diff).is_zero()
    raw = _wz_relations(coord, diff)
    assert (len(raw.coordinates), len(raw.differentials)) == (2, 2)
    rel = s03_plane(c)
    one, zero = table.one(), table.zero()
    assert rel.coordinates == ((one, -one, zero, zero), (zero, zero, one, one))
    assert rel.differentials == ((one, one, zero, zero), (zero, zero, one, -one))
    assert rel.mixed == mixed_rules_s03(c)
    for block in (rel.coordinates, rel.differentials, rel.mixed.rows):
        for row in block:
            for entry in row:
                assert entry.is_real()
    assert (len(rel.coordinates), len(rel.differentials)) == (2, 2)
    table2 = SymbolTable(["kplus", "kzero"])
    kplus, kzero = table2.symbols("kplus", "kzero")
    rel2 = s14_plane(kplus, kzero)
    one2, zero2 = table2.one(), table2.zero()
    assert rel2.coordinates == ((one2, zero2, zero2, -one2),)
    assert rel2.differentials == (
        (one2, zero2, zero2, one2),
        (zero2, one2, zero2, zero2),
        (zero2, zero2, one2, zero2),
    )
    assert rel2.mixed == mixed_rules_s14(kplus, kzero)
    assert (len(rel2.coordinates), len(rel2.differentials)) == (1, 3)


def test_criterion_9_randomised_plumbing(clean_report):
    """A 1000-case seeded random suite over the field and matrix layers."""
    section = find_section(clean_report, "plumbing")
    assert section.holds, section.detail
    assert clean_report.fields["seed"] == 0
