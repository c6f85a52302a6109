"""Scalar composition laws underlying the parameterised families."""

from fractions import Fraction

import pytest

from braidbax import (
    NonSquare,
    PoleError,
    SymbolTable,
    a_eval_general,
    a_from_c,
    a_half_closed,
    a_law_residual,
    c_eval,
    c_from_a,
    c_law_residual,
    f_aux,
    reparametrize_check,
)

T = SymbolTable(["x", "y"])
X, Y = T.symbols("x", "y")
HALF = Fraction(1, 2)


def test_c_eval_values():
    assert c_eval(-2, X) == (1 / (X * X) - 1) / 2
    assert c_eval(0, X).is_zero()
    assert c_eval(3, T.scalar(2)) == T.scalar(Fraction(7, 2))
    with pytest.raises(TypeError):
        c_eval(True, X)
    with pytest.raises(TypeError):
        c_eval(1.5, X)


@pytest.mark.parametrize("p", [-4, -2, -1, 0, 1, 2, 3])
def test_c_law_holds_for_each_power(p):
    assert c_law_residual(p, X, Y).is_zero()


def test_f_aux_branches():
    # k^2 = 1/2 gives r = i; the lower branch takes -r
    r = T.i()
    assert f_aux(HALF, X) == 1 / X - X + r * (X + 1 / X)
    assert -f_aux(HALF, 1 / X) == 1 / X - X - r * (X + 1 / X)
    with pytest.raises(PoleError):
        f_aux(HALF, T.zero())


def test_a_general_against_closed_form():
    assert (a_eval_general(HALF, X) - a_half_closed(X)).is_zero()


def test_a_special_values():
    one, i = T.one(), T.i()
    assert a_eval_general(HALF, one).is_zero()
    assert a_half_closed(one).is_zero()
    want = -(one + i)
    assert a_eval_general(HALF, T.zero()) == want
    assert a_half_closed(T.zero()) == want


def test_lower_branch_is_upper_at_inverse_argument():
    # the cleared form with -r in place of r, at k^2 = 1/2 (r = i) and k^2 = 0 (r = 1)
    for k_squared, r in ((HALF, T.i()), (0, T.one())):
        lower = ((1 - r) - (1 + r) * X ** 2) / ((1 - r) * X ** 2 - (1 + r)) - 1
        assert a_eval_general(k_squared, 1 / X) == lower


def test_k_zero_and_quarter_degenerations():
    # k^2 = 0: the pair collapses to x^-2 - 1
    assert a_eval_general(0, X) == 1 / (X * X) - 1
    # k^2 = 1/4: the root vanishes and the value freezes
    assert a_eval_general(Fraction(1, 4), X) == T.scalar(-2)


def test_nonsquare_root_rejected():
    with pytest.raises(NonSquare):
        a_eval_general(Fraction(1, 3), X)


def test_a_law_symbolic():
    assert a_law_residual(HALF, X, Y).is_zero()
    assert a_law_residual(0, X, Y).is_zero()


def test_a_law_pole_when_denominator_vanishes():
    # at k^2 = 1/4 every value is -2, so 1 - k^2 a(x) a(y) = 0 identically
    with pytest.raises(PoleError):
        a_law_residual(Fraction(1, 4), X, Y)


def test_conversions_are_mutually_inverse():
    c = SymbolTable(["c"]).symbol("c")
    assert c_from_a(a_from_c(c)) == c
    a = SymbolTable(["a"]).symbol("a")
    assert a_from_c(c_from_a(a)) == a


def test_conversion_matches_second_printed_form():
    c = SymbolTable(["c"]).symbol("c")
    i = c.table.i()
    assert a_from_c(c) == (1 + (1 - i) * c) / (1 + (1 + i) * c) - 1


def test_a_composition_recovers_the_power_coefficient():
    # a(x) for the half case converts to the p = -2 coefficient exactly
    assert c_from_a(a_eval_general(HALF, X)) == c_eval(-2, X)


@pytest.mark.parametrize("p", [-4, -2, 0, 2])
def test_reparametrize_even_powers(p):
    assert reparametrize_check(p)


def test_reparametrize_rejects_odd_powers():
    with pytest.raises(ValueError):
        reparametrize_check(3)
