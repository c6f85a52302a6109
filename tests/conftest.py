"""Shared strategies and fixtures for the test suite.

The hypothesis profile pins derandomised, deadline-free runs: every
check here is exact algebra, so flaky timing is the only thing a
deadline could ever flag.
"""

import functools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st

from braidbax import SquareMatrix, SymbolTable
from braidbax.verify import run_all

settings.register_profile("exact", deadline=None, derandomize=True, max_examples=50)
settings.load_profile("exact")


TABLE = SymbolTable(["x", "y"])

_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def scalars(draw, names=("x", "y"), max_terms=3):
    """A random element of the scalar field over the shared table."""
    total = TABLE.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        term = TABLE.const(draw(_fractions)) + TABLE.const(draw(_fractions)) * TABLE.i()
        for name in names:
            term = term * TABLE.symbol(name) ** draw(st.integers(-2, 2))
        total = total + term
    return total


@st.composite
def nonzero_scalars(draw, names=("x", "y")):
    value = draw(scalars(names=names))
    return value if not value.is_zero() else value + TABLE.one()


@st.composite
def matrices(draw, n=2, names=("x",)):
    rows = [[draw(scalars(names=names, max_terms=2)) for _ in range(n)]
            for _ in range(n)]
    return SquareMatrix(TABLE, rows)


GOLDEN_PATH = Path(__file__).with_name("golden.json")


@functools.lru_cache(maxsize=None)
def golden() -> dict:
    """Recorded outputs of every verb and of verify-all; see test_golden.py."""
    return json.loads(GOLDEN_PATH.read_text())


def without_elapsed(value):
    """A report (or part of one) with every section timing removed."""
    if isinstance(value, dict):
        return {k: without_elapsed(v) for k, v in value.items() if k != "elapsed"}
    if isinstance(value, list):
        return [without_elapsed(v) for v in value]
    return value


@pytest.fixture(scope="session")
def clean_report():
    """One full verification run shared by every test that needs it."""
    return run_all(seed=0)
