"""Grammar round-trips: whatever the field prints, the parser reads back."""

import pytest
from hypothesis import given

from braidbax import ParseError, SymbolTable, UnknownSymbol, parse

from conftest import TABLE, scalars


def test_atoms():
    table = SymbolTable(["x"])
    assert parse("42", table) == table.scalar(42)
    assert parse("i", table) == table.i()
    assert parse("x", table) == table.symbol("x")
    assert parse("(x)", table) == table.symbol("x")


def test_precedence():
    table = SymbolTable(["x"])
    x = table.symbol("x")
    assert parse("1 + 2*x^2", table) == 1 + 2 * x * x
    assert parse("2*x + 3*x", table) == 5 * x
    assert parse("1/2*x", table) == x / 2
    assert parse("6/2/3", table) == table.one()
    assert parse("-x^2", table) == -(x * x)
    assert parse("2 - -x", table) == 2 + x


def test_power_binds_left():
    table = SymbolTable([])
    assert parse("2^3^2", table) == table.scalar(64)


def test_negative_exponents():
    table = SymbolTable(["x"])
    x = table.symbol("x")
    assert parse("x^-1", table) == 1 / x
    assert parse("2*x^-2 + 1", table) == 2 / (x * x) + 1


def test_division_by_zero_is_a_pole():
    from braidbax import PoleError

    table = SymbolTable(["x"])
    with pytest.raises(PoleError):
        parse("1/(x - x)", table)


def test_parse_errors_carry_positions():
    table = SymbolTable(["x"])
    for text in ("", "2 +", "(x", "x )", "2 ** 3", "3..1"):
        with pytest.raises(ParseError) as info:
            parse(text, table)
        assert isinstance(info.value.position, int)
    with pytest.raises(UnknownSymbol):
        parse("z + 1", table)


def test_nesting_is_bounded():
    table = SymbolTable(["x"])
    assert parse("(" * 100 + "x" + ")" * 100, table) == table.symbol("x")
    assert parse("-" * 100 + "x", table) == table.symbol("x")
    for text in ("(" * 400 + "x" + ")" * 400, "-" * 1000 + "x", "(-" * 60 + "x" + ")" * 60):
        with pytest.raises(ParseError, match="nesting deeper than 100 levels"):
            parse(text, table)


def test_powers_of_sums_are_bounded():
    table = SymbolTable(["a", "x", "y"])
    a, x, y = table.symbols("a", "x", "y")
    # |exponent| times the base's largest total degree reaches 1000 exactly
    assert len(parse("(a+1)^1000", table).num) == 1001
    assert parse("(x*y+1)^500", table) == (x * y + 1) ** 500
    assert parse("(a^2+1)^(-500)", table) == 1 / (a * a + 1) ** 500
    assert parse("((a+1)^10)^50", table) == (a + 1) ** 500
    # one term over one term only scales exponents: no bound
    assert parse("x^20000", table) == x ** 20000
    assert parse("(2*x/y)^-3000", table) == (2 * x / y) ** -3000
    for text in ("(a+1)^1001", "(a^2+1)^(-501)", "((a+1)^40)^40", "(x*y+1)^501", "(x/(x+1))^1001"):
        with pytest.raises(ParseError, match="beyond the limit 1000"):
            parse(text, table)


def test_powers_of_one_term_are_bounded_by_coefficient_digits():
    table = SymbolTable(["x"])
    x, i = table.symbol("x"), table.i()
    # units and bare symbols never grow, whatever the exponent
    assert parse("i^99999", table) == -i
    assert parse("(-1)^100001", table) == table.scalar(-1)
    assert parse("(-i*x)^-20000", table) == 1 / x ** 20000
    assert parse("x^20000", table) == x ** 20000
    assert parse("x^99999999999", table).num == {table._pack((99999999999,)): (1, 0)}
    # 2^14284 has 4300 digits, 2^14285 one more
    assert parse("2^14284", table) == table.scalar(2 ** 14284)
    for text in ("2^14285", "99^2200", "(x/3)^-9100", "(1+i)^28600", "2^99999999999"):
        with pytest.raises(ParseError, match="more than 4300 coefficient digits"):
            parse(text, table)


def test_integer_literals_are_bounded():
    table = SymbolTable([])
    assert parse("9" * 4300, table) == table.scalar(10 ** 4300 - 1)
    with pytest.raises(ParseError, match="integer literal of 4301 digits, beyond the limit 4300"):
        parse("9" * 4301, table)
    with pytest.raises(ParseError, match="integer literal of 5000 digits"):
        parse("x^" + "1" * 5000, SymbolTable(["x"]))


def test_imaginary_unit_is_reserved():
    table = SymbolTable(["x"])
    assert parse("i*i", table) == table.scalar(-1)
    with pytest.raises(ParseError):
        parse("2i", table)  # juxtaposition is not a product
    with pytest.raises(ParseError):
        parse("2 3", table)


def test_printed_forms_reparse():
    table = SymbolTable(["q"])
    q = table.symbol("q")
    for value in (q - 1, -(q + 1), (q * q - 1) / (2 * q), table.i() * q, -table.i()):
        assert parse(str(value), table) == value


@given(scalars())
def test_round_trip_is_bit_exact(a):
    again = parse(str(a), TABLE)
    assert again == a
    assert str(again) == str(a)
