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

from braidbax import SquareMatrix, SymbolTable, ybe
from braidbax.verify import run_all

settings.register_profile("exact", deadline=None, derandomize=True, max_examples=50)
settings.load_profile("exact")


TABLE = SymbolTable(["x", "y"])

_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def scalars(draw, names=("x", "y"), max_terms=3, table=TABLE):
    """A random Laurent polynomial over the table, the shared one by default."""
    total = table.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        term = table.scalar(draw(_fractions)) + table.scalar(draw(_fractions)) * table.i()
        for name in names:
            term = term * table.symbol(name) ** draw(st.integers(-2, 2))
        total = total + term
    return total


@st.composite
def nonzero_scalars(draw, names=("x", "y"), table=TABLE):
    value = draw(scalars(names=names, table=table))
    return value if not value.is_zero() else value + table.one()


@st.composite
def matrices(draw, n=2, names=("x",)):
    rows = [[draw(scalars(names=names, max_terms=2)) for _ in range(n)]
            for _ in range(n)]
    return SquareMatrix(TABLE, rows)


def to_sympy(value):
    """A Scalar as a sympy expression, read back from its printed form."""
    import sympy
    from sympy.parsing.sympy_parser import parse_expr

    names = {name: sympy.Symbol(name) for name in value.table.names}
    names["I"] = sympy.I
    return parse_expr(str(value).replace("^", "**").replace("i", "I"), local_dict=names)


def transpose(m):
    """The transpose of a matrix."""
    return SquareMatrix(m.table, list(zip(*m.rows)))


def find_section(report, name):
    """The one section of a report with the given name; ValueError unless there is one."""
    (found,) = [s for s in report.sections if s.name == name]
    return found


def expansion_by_plan(tops, first, middle, last):
    """The sum of sign * w_a * w'_b * w''_c * basis[name] over ybe._ENTRIES.

    The residual is multilinear in the three slots, so this test-side sum
    over the classified letter triples must equal it exactly.
    """
    table = tops.table
    basis = {name: ybe._letter_difference(tops, triple) for name, triple in ybe._BASIS.items()}
    weights = [{"i": table.one(), "x": v, "y": w} for v, w in (first, middle, last)]
    total = SquareMatrix.zeros(table, 8)
    for (a, b, c), name, sign in ybe._ENTRIES:
        total = total + (sign * weights[0][a] * weights[1][b] * weights[2][c]) * basis[name]
    return total


def count_difference_builds(monkeypatch):
    """Record each ybe._letter_difference call and each letter-difference build.

    Building a difference constructs one 8x8 identity, so each such
    construction counts as a build, filed under the triple being asked
    for (None when no _letter_difference call is under way).
    """
    calls, built, asking = [], [], [None]
    real_difference = ybe._letter_difference
    real_identity = SquareMatrix.identity.__func__

    def difference(tops, triple):
        calls.append(triple)
        asking.append(triple)
        try:
            return real_difference(tops, triple)
        finally:
            asking.pop()

    def identity(cls, table, n):
        if n == 8:
            built.append(asking[-1])
        return real_identity(cls, table, n)

    monkeypatch.setattr(ybe, "_letter_difference", difference)
    monkeypatch.setattr(SquareMatrix, "identity", classmethod(identity))
    return calls, built


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
