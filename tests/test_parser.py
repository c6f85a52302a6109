"""Grammar round-trips: whatever the field prints, the parser reads back."""

import pytest
from hypothesis import given

from braidbax import ParseError, SymbolTable, UnknownSymbol, parse

from conftest import TABLE, scalars


def test_atoms():
    table = SymbolTable(["x"])
    assert parse("42", table) == table.const(42)
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
    assert parse("2^3^2", table) == table.const(64)


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


def test_imaginary_unit_is_reserved():
    table = SymbolTable(["x"])
    assert parse("i*i", table) == table.const(-1)
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
