"""Braid-relation residuals for both parameterised families."""

import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidbax import (
    DimensionMismatch,
    PoleError,
    ResidualNotInSpan,
    SquareMatrix,
    SymbolTable,
    TensorOps,
    braid,
    braid_ybe_residual,
    builtin,
    c_eval,
    expand_pybe_coefficients,
    minimal_polynomial,
    power_reduction_residual,
    pybe_coefficient_formulas,
    reduction_identity_residuals,
    s03_pybe_residual,
    s03_reduction_residual,
    s14_chain,
    s14_constant_projectors,
    s14_inverse_closed,
    s14_member,
    s14_member_q,
    s14_pybe_residual,
    verify_frt_relations,
)
from braidbax import ybe
from braidbax.ybe import _embed, _unit_residual

from conftest import count_difference_builds, expansion_by_plan

T = SymbolTable(["x", "y"])
X, Y = T.symbols("x", "y")


def _bump(m):
    """Copy of m with one added to the top-left entry."""
    table = m.table
    unit = SquareMatrix(table, [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    return m + unit


# ---------------------------------------------------------------- embeddings


def test_embeddings_place_factors_correctly():
    a = SquareMatrix(T, [[Fraction(r * 4 + c + 1) for c in range(4)] for r in range(4)])
    left, right = _embed(a)
    assert left.n == 8 and right.n == 8
    # a (x) I duplicates each entry along the inner diagonal
    assert left == a.kron(SquareMatrix.identity(T, 2))
    assert left.rows[1][3] == a.rows[0][1]
    assert left.rows[1][2].is_zero()
    # I (x) a repeats a on the two diagonal blocks
    assert right == SquareMatrix.identity(T, 2).kron(a)
    assert right.rows[0][1] == a.rows[0][1]
    assert right.rows[0][5].is_zero()


def test_embeddings_reject_other_sizes():
    small = SquareMatrix(T, [[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatch):
        _embed(small)


@pytest.mark.parametrize("name", ["s03_r", "s14_r"])
def test_builtin_braid_matrices_satisfy_the_relation(name):
    table = SymbolTable(["q"]) if name == "s14_r" else SymbolTable([])
    assert braid_ybe_residual(braid(builtin(name, table))).is_zero()


def test_braid_residual_detects_failures():
    d = SquareMatrix(T, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]])
    assert not braid_ybe_residual(d).is_zero()


# ---------------------------------------------------------------- s03 family


def _unit_member(p, x):
    """The power-law member I + c(x)*Rhat that s03_pybe_residual multiplies."""
    return SquareMatrix.identity(x.table, 4) + c_eval(p, x) * braid(builtin("s03_r", x.table))


def _cleared_residual(p, rhat):
    """Reference: the triple product of the cleared members 2I + (z^p - 1)*Rhat at (x, xy, y)."""
    eye2 = SquareMatrix.identity(T, 2)
    a, b, c = (2 * SquareMatrix.identity(T, 4) + (z ** p - 1) * rhat for z in (X, X * Y, Y))
    return (a.kron(eye2) * eye2.kron(b) * c.kron(eye2)
            - eye2.kron(c) * b.kron(eye2) * eye2.kron(a))


def test_power_zero_member_is_twice_identity():
    assert 2 * _unit_member(0, X) == 2 * SquareMatrix.identity(T, 4)


def test_inverse_power_member_matches_cleared_matrix():
    cleared = (2 * X) * _unit_member(-1, X)
    x = X
    want = SquareMatrix(
        T,
        [
            [x + 1, 0, 0, 1 - x],
            [0, x + 1, x - 1, 0],
            [0, 1 - x, x + 1, 0],
            [x - 1, 0, 0, x + 1],
        ],
    )
    assert cleared == want


def test_square_inverse_member_is_braid_plus_inverse_braid():
    rhat = braid(builtin("s03_r", T))
    cleared = (2 * X * X) * _unit_member(-2, X)
    assert cleared == rhat + (2 * X * X) * rhat.inverse()


@pytest.mark.parametrize("p", [-2, 1, 3])
def test_parameterised_braid_residual_vanishes(p):
    assert s03_pybe_residual(p, X, Y).is_zero()


def test_cleared_members_give_eight_times_the_residual():
    rhat = braid(builtin("s03_r", T))
    for matrix in (rhat, _bump(rhat)):
        for p in range(-6, 7):
            residual = s03_pybe_residual(p, X, Y, matrix)
            assert _cleared_residual(p, matrix) == 8 * residual
            # p = 0 makes every member the identity, whatever the matrix
            assert residual.is_zero() == (matrix is rhat or p == 0)


def test_negative_powers_reject_zero_argument():
    with pytest.raises(PoleError):
        s03_pybe_residual(-1, T.zero(), Y)
    with pytest.raises(PoleError):
        c_eval(-1, T.zero())


def test_member_power_must_be_a_plain_int():
    for p in (True, 1.5):
        with pytest.raises(TypeError):
            s03_pybe_residual(p, X, Y)


def test_first_collapse_stage_for_both_builtins():
    free = SymbolTable(["cx", "cy", "cxy", "q"])
    cx, cy, cxy = free.symbols("cx", "cy", "cxy")
    for name in ("s03_r", "s14_r"):
        b = braid(builtin(name, free))
        assert power_reduction_residual(b, cx, cy, cxy).is_zero()


def test_full_collapse_is_exact_for_free_coefficients():
    free = SymbolTable(["cx", "cy", "cxy"])
    cx, cy, cxy = free.symbols("cx", "cy", "cxy")
    assert s03_reduction_residual(cx, cy, cxy, braid(builtin("s03_r", free))).is_zero()


def test_generic_residual_factors_through_the_law():
    # breaking the law by forcing cxy = 0 leaves the predicted multiple
    rhat = braid(builtin("s03_r", T))
    b12, b23 = _embed(rhat)
    broken = _unit_residual(rhat, X, Y, T.zero())
    assert broken == (X + Y + 2 * X * Y) * (b12 - b23)
    # restoring the law kills the residual
    assert _unit_residual(rhat, X, Y, X + Y + 2 * X * Y).is_zero()


def test_unit_residual_serves_a_hecke_braid_matrix():
    # the GL_q(2) Hecke matrix P*R squares to (q - 1/q)*B + I, so its law
    # has q - 1/q where the s03 law has 2
    table = SymbolTable(["q", "cx", "cy"])
    q, cx, cy = table.symbols("q", "cx", "cy")
    one, zero = table.one(), table.zero()
    hecke = braid(SquareMatrix(table, [
        [q, zero, zero, zero],
        [zero, one, q - 1 / q, zero],
        [zero, zero, one, zero],
        [zero, zero, zero, q],
    ]))
    assert str(minimal_polynomial(hecke)) == "t^2 + ((-q^2 + 1)/q)*t - 1"
    assert braid_ybe_residual(hecke).is_zero()
    assert _unit_residual(hecke, cx, cy, cx + cy + (q - 1 / q) * cx * cy).is_zero()
    assert not _unit_residual(hecke, cx, cy, cx + cy + 2 * cx * cy).is_zero()


# ---------------------------------------------------------------- s14 family


def test_two_parameter_member_and_closed_inverse():
    free = SymbolTable(["v", "w"])
    v, w = free.symbols("v", "w")
    m = s14_member(v, w)
    inv = s14_inverse_closed(v, w)
    eye = SquareMatrix.identity(free, 4)
    assert m * inv == eye
    assert inv * m == eye


def test_closed_inverse_pole_at_minus_one():
    with pytest.raises(PoleError):
        s14_inverse_closed(T.scalar(-1), T.zero())


def test_one_parameter_slice_reproduces_the_builtin():
    q = SymbolTable(["q"]).symbol("q")
    assert s14_member_q(q) == braid(builtin("s14_r", q.table))


def test_pair_sum_constraint_gives_zero_residual():
    free = SymbolTable(["v", "vp", "vpp"])
    v, vp, vpp = free.symbols("v", "vp", "vpp")
    res = s14_pybe_residual((v, -2 - v), (vp, -2 - vp), (vpp, -2 - vpp))
    assert res.is_zero()


def test_unconstrained_pairs_leave_a_nonzero_residual():
    one, zero = T.one(), T.zero()
    assert not s14_pybe_residual((one, zero), (one, zero), (one, zero)).is_zero()


def test_reduction_identities_all_vanish():
    residuals = reduction_identity_residuals(TensorOps(T))
    assert sorted(residuals) == ["k1", "k2", "k3", "l1", "l2", "l3", "s5", "s6"]
    for value in residuals.values():
        assert value.is_zero()


def test_reduction_identities_need_honest_projectors():
    pair = s14_constant_projectors(T)
    fake = TensorOps(T, plus=_bump(pair["plus"]))
    residuals = reduction_identity_residuals(fake)
    assert any(not value.is_zero() for value in residuals.values())


def test_expansion_identity_in_six_symbols():
    free = SymbolTable(["v", "w", "vp", "wp", "vpp", "wpp"])
    v, w, vp, wp, vpp, wpp = free.symbols("v", "w", "vp", "wp", "vpp", "wpp")
    first, middle, last = (v, w), (vp, wp), (vpp, wpp)
    tops = TensorOps(free)
    assert expansion_by_plan(tops, first, middle, last) == s14_pybe_residual(first, middle, last)
    # the twelve classified names are exactly the combination basis
    assert {name for _, name, _ in ybe._ENTRIES} == set(ybe._BASIS)


def test_exchange_relations_hold_for_family_members():
    q = SymbolTable(["q"]).symbol("q")
    tops = TensorOps(q.table)
    assert verify_frt_relations(tops, s14_member_q(q))
    assert verify_frt_relations(tops, s14_member_q(q.table.scalar(3)))


def test_exchange_relations_fail_for_a_unipotent_matrix():
    tops = TensorOps(T)
    uni = SquareMatrix(T, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert not verify_frt_relations(tops, uni)


# ------------------------------------------------------- residual coefficients


def test_expanded_coefficients_match_closed_formulas():
    free = SymbolTable(["v", "w", "vp", "wp", "vpp", "wpp"])
    v, w, vp, wp, vpp, wpp = free.symbols("v", "w", "vp", "wp", "vpp", "wpp")
    first, middle, last = (v, w), (vp, wp), (vpp, wpp)
    got = expand_pybe_coefficients(first, middle, last)
    want = pybe_coefficient_formulas(first, middle, last)
    assert sorted(got) == ["a1", "a2", "b1", "b2"]
    for key in want:
        assert got[key] == want[key]


def test_constrained_coefficients_vanish():
    free = SymbolTable(["v", "vp", "vpp"])
    v, vp, vpp = free.symbols("v", "vp", "vpp")
    got = expand_pybe_coefficients((v, -2 - v), (vp, -2 - vp), (vpp, -2 - vpp))
    for value in got.values():
        assert value.is_zero()


def test_chained_middle_parameter_cancels_everything():
    free = SymbolTable(["v", "vpp"])
    v, vpp = free.symbols("v", "vpp")
    zero = free.zero()
    got = expand_pybe_coefficients((v, zero), (s14_chain(v, vpp), zero), (vpp, zero))
    for value in got.values():
        assert value.is_zero()
    # the mirrored chain acts on the second slot family
    got = expand_pybe_coefficients((zero, v), (zero, s14_chain(v, vpp)), (zero, vpp))
    for value in got.values():
        assert value.is_zero()


def test_chain_values_and_pole():
    assert s14_chain(T.scalar(4), T.scalar(4)) == T.scalar(-8)
    with pytest.raises(PoleError):
        s14_chain(T.scalar(2), T.scalar(2))


def test_perturbed_projectors_break_the_span():
    pair = s14_constant_projectors(T)
    fake = TensorOps(T, plus=_bump(pair["plus"]))
    with pytest.raises(ResidualNotInSpan, match="reduced coefficients fail to recompose"):
        expand_pybe_coefficients((X, T.zero()), (X, T.zero()), (X, T.zero()), fake)


# ------------------------------------------------------ letter classification


def _classified_entries(tops):
    """Reference: classify the 27 letter differences of tops onto the span.

    Returns the (triple, span name, sign) entries of the differences
    that do not vanish, in triple order, asserting each claim at matrix
    level on the way.
    """
    diffs = {a + b + c: ybe._letter_difference(tops, a + b + c)
             for a in "ixy" for b in "ixy" for c in "ixy"}
    entries = []
    for triple, diff in diffs.items():
        if triple in ybe._NAMED:
            name, sign = ybe._NAMED[triple], 1
        elif triple in ybe._ELEMENTARY:
            name, sign = ybe._ELEMENTARY[triple]
            span = diffs[ybe._BASIS[name]]
            assert diff == (span if sign > 0 else (-1) * span), triple
        else:
            assert diff.is_zero(), triple
            continue
        entries.append((triple, name, sign))
    return tuple(entries)


def test_static_entries_are_the_classification_of_the_constant_projectors():
    assert ybe._ENTRIES == _classified_entries(TensorOps(SymbolTable([])))


def test_letter_claims_hold_exactly_for_honest_projectors():
    table = SymbolTable([])
    residuals = ybe._letter_claim_residuals(TensorOps(table))
    outside = [t for t in ybe._TRIPLES if t not in ybe._NAMED]
    assert list(residuals) == outside and len(outside) == 15
    assert all(value.is_zero() for value in residuals.values())
    fake = TensorOps(table, plus=_bump(s14_constant_projectors(table)["plus"]))
    residuals = ybe._letter_claim_residuals(fake)
    assert [t for t, value in residuals.items() if not value.is_zero()] == ["xix", "xiy", "yix"]


# ------------------------------------------------- hoisted letter differences


def _per_call_expansion(first, middle, last):
    """Reference: the expansion with all 27 differences classified in the caller's table."""
    table = first[0].table
    tops = TensorOps(table)
    entries = _classified_entries(tops)
    basis = {name: ybe._letter_difference(tops, triple) for name, triple in ybe._BASIS.items()}
    weights = [{"i": table.one(), "x": v, "y": w} for v, w in (first, middle, last)]
    totals = {name: table.zero() for name in ybe._BASIS}
    for (a, b, c), name, sign in entries:
        weight = weights[0][a] * weights[1][b] * weights[2][c]
        totals[name] = totals[name] + (weight if sign > 0 else -weight)
    coeffs = {}
    for target, (scale, terms) in ybe._REDUCTION.items():
        (head, _), *rest = terms
        collapsed = totals[head]
        for name, sign in rest:
            collapsed = collapsed + totals[name] if sign > 0 else collapsed - totals[name]
        coeffs[target] = totals[target] + scale * collapsed
    recomposed = sum((coeffs[name] * basis[name] for name in ybe._REDUCTION),
                     SquareMatrix.zeros(table, 8))
    assert recomposed == s14_pybe_residual(first, middle, last)
    return {"a1": coeffs["s1"], "a2": coeffs["s2"], "b1": coeffs["j1"], "b2": coeffs["j2"]}


_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _triplets(draw):
    """Three parameter pairs over 0-3 symbols; at most two values are rational."""
    table = SymbolTable(["a", "b", "c"][:draw(st.integers(0, 3))])
    symbols = [table.symbol(name) for name in table.names]
    rational = 0
    values = []
    for _ in range(6):
        value = table.scalar(draw(_SMALL)) + table.scalar(draw(_SMALL)) * table.i()
        if symbols and draw(st.booleans()):
            symbol = draw(st.sampled_from(symbols))
            value = value + draw(st.sampled_from([-2, -1, 1, 3])) * symbol ** draw(st.integers(1, 2))
            if rational < 2 and draw(st.booleans()):
                rational += 1
                value = value / (symbol + draw(st.sampled_from([-3, -1, 1, 2])))
        values.append(value)
    return (values[0], values[1]), (values[2], values[3]), (values[4], values[5])


@settings(max_examples=20)
@given(_triplets())
def test_hoisted_expansion_matches_the_per_call_route(triplet):
    got = expand_pybe_coefficients(*triplet)
    want = _per_call_expansion(*triplet)
    assert sorted(got) == sorted(want)
    for key in want:
        assert (got[key].num, got[key].den) == (want[key].num, want[key].den)


def test_default_projectors_build_only_the_span_per_call(monkeypatch):
    pairs = (X, T.zero()), (T.one(), Y), (X, Y)
    calls, built = count_difference_builds(monkeypatch)
    expand_pybe_coefficients(*pairs)
    assert sorted(calls) == sorted(built) == ["iyx", "xii", "xyi", "yii"]


def test_explicit_projectors_build_the_span_once_per_instance(monkeypatch):
    calls, built = count_difference_builds(monkeypatch)
    tops = TensorOps(T)
    pairs = (X, T.zero()), (T.one(), Y), (X, Y)
    first = expand_pybe_coefficients(*pairs, tops)
    assert (len(calls), len(built)) == (4, 4)
    assert sorted(built) == sorted(tops.diffs) == ["iyx", "xii", "xyi", "yii"]
    # the second call reads the 4 span matrices back from the memo
    second = expand_pybe_coefficients(*pairs, tops)
    assert (len(calls), len(built)) == (8, 4)
    assert first == second == expand_pybe_coefficients(*pairs)


def test_importing_the_module_builds_no_difference():
    script = "\n".join([
        "import sys",
        "calls = []",
        "def profile(frame, event, arg):",
        "    code = frame.f_code.co_name",
        "    if event == 'call' and code == 'identity' and frame.f_locals['n'] == 8:",
        "        calls.append(1)",
        "sys.setprofile(profile)",
        "import braidbax.ybe as ybe",
        "at_import = len(calls)",
        "from braidbax import SymbolTable",
        "x = SymbolTable(['x']).symbol('x')",
        "ybe.expand_pybe_coefficients((x, x), (x, x), (x, x))",
        "sys.setprofile(None)",
        "print(at_import, len(calls))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # the first expansion builds only the four span differences, in x's table
    assert proc.stdout.split() == ["0", "4"]
