"""Quadratic coordinate-differential algebras built from projectors."""

import pytest

from braidbax import (
    ConsistencyFailure,
    DimensionMismatch,
    RelationSet,
    SingularMatrix,
    SquareMatrix,
    SymbolTable,
    mixed_rules_s03,
    mixed_rules_s14,
    s03_constant_projectors,
    s03_plane,
    s14_constant_projectors,
    s14_plane,
)
from braidbax.ncplane import _s03_generator_transform, _wz_relations

T = SymbolTable(["c"])
C = T.symbol("c")


def _rows(*tuples):
    return tuple(tuple(T.scalar(v) for v in row) for row in tuples)


# ------------------------------------------------------------------ assembly


def test_wz_build_accepts_orthogonal_projector_pairs():
    projectors = s03_constant_projectors(T)
    rel = _wz_relations(projectors["minus"], (2 * C) * projectors["plus"])
    eye = SquareMatrix.identity(T, 4)
    assert rel.mixed == (2 * C) * projectors["plus"] - eye
    assert len(rel.coordinates) == 2
    assert len(rel.differentials) == 2


def test_wz_build_role_swap_is_also_consistent():
    # the roles of the two s03 projectors can be exchanged
    projectors = s03_constant_projectors(T)
    rel = _wz_relations(projectors["plus"], C * projectors["minus"])
    assert len(rel.coordinates) == 2
    assert len(rel.differentials) == 2


def test_wz_build_rejects_projector_reuse():
    projectors = s03_constant_projectors(T)
    with pytest.raises(ConsistencyFailure) as info:
        _wz_relations(projectors["plus"], C * projectors["plus"])
    # the witness is the nonvanishing product itself
    assert info.value.witness == C * projectors["plus"]


# ------------------------------------------------------------------ s03 plane


def test_s03_plane_canonical_blocks():
    rel = s03_plane(C)
    assert rel.coordinates == _rows((1, -1, 0, 0), (0, 0, 1, 1))
    assert rel.differentials == _rows((1, 1, 0, 0), (0, 0, 1, -1))
    assert rel.mixed == mixed_rules_s03(C)


def test_s03_plane_coefficients_are_real():
    rel = s03_plane(C)
    for block in (rel.coordinates, rel.differentials, rel.mixed.rows):
        for row in block:
            for entry in row:
                assert entry.is_real()


def test_s03_plane_lines_symbolic():
    assert s03_plane(C).lines() == [
        "x1*x1 - x1*x2 = 0",
        "x2*x1 + x2*x2 = 0",
        "xi1*xi1 + xi1*xi2 = 0",
        "xi2*xi1 - xi2*xi2 = 0",
        "x1*xi1 = (c - 1)*xi1*x1 + c*xi1*x2",
        "x1*xi2 = c*xi1*x1 + (c - 1)*xi1*x2",
        "x2*xi1 = (c - 1)*xi2*x1 - c*xi2*x2",
        "x2*xi2 = -c*xi2*x1 + (c - 1)*xi2*x2",
    ]


def test_s03_plane_at_one_swaps_generators():
    assert s03_plane(T.one()).lines()[4:] == [
        "x1*xi1 = xi1*x2",
        "x1*xi2 = xi1*x1",
        "x2*xi1 = -xi2*x2",
        "x2*xi2 = -xi2*x1",
    ]


def test_s03_plane_degenerates_at_zero():
    rel = s03_plane(T.zero())
    assert rel.differentials == ()
    assert rel.mixed == (-1) * SquareMatrix.identity(T, 4)
    assert rel.lines()[2] == "x1*xi1 = -xi1*x1"


# ------------------------------------------------------------------ s14 plane


def test_s14_plane_canonical_blocks():
    table = SymbolTable(["kplus", "kzero"])
    kplus, kzero = table.symbols("kplus", "kzero")
    rel = s14_plane(kplus, kzero)
    one, zero = table.one(), table.zero()
    assert rel.coordinates == ((one, zero, zero, -one),)
    assert rel.differentials == (
        (one, zero, zero, one),
        (zero, one, zero, zero),
        (zero, zero, one, zero),
    )
    assert rel.mixed == mixed_rules_s14(kplus, kzero)


def test_s14_plane_lines_symbolic():
    table = SymbolTable(["kplus", "kzero"])
    kplus, kzero = table.symbols("kplus", "kzero")
    assert s14_plane(kplus, kzero).lines() == [
        "x1*x1 - x2*x2 = 0",
        "xi1*xi1 + xi2*xi2 = 0",
        "xi1*xi2 = 0",
        "xi2*xi1 = 0",
        "x1*xi1 = (kplus - 1)*xi1*x1 + kplus*xi2*x2",
        "x1*xi2 = (kzero - 1)*xi1*x2",
        "x2*xi1 = (kzero - 1)*xi2*x1",
        "x2*xi2 = kplus*xi1*x1 + (kplus - 1)*xi2*x2",
    ]


def test_s14_plane_unit_parameters_collapse_rules():
    table = SymbolTable([])
    rel = s14_plane(table.one(), table.one())
    assert rel.lines()[4:] == [
        "x1*xi1 = xi2*x2",
        "x1*xi2 = 0",
        "x2*xi1 = 0",
        "x2*xi2 = xi1*x1",
    ]


def test_s14_rules_come_straight_from_q():
    table = SymbolTable(["kplus", "kzero"])
    kplus, kzero = table.symbols("kplus", "kzero")
    projectors = s14_constant_projectors(table)
    eye = SquareMatrix.identity(table, 4)
    diff = (2 * kplus) * projectors["plus"] + kzero * projectors["zero"]
    assert diff - eye == mixed_rules_s14(kplus, kzero)
    assert _wz_relations(projectors["minus"], diff) == s14_plane(kplus, kzero)


# ------------------------------------------------------- generator transforms


def test_identity_transform_changes_nothing():
    projectors = s03_constant_projectors(T)
    coord, diff = projectors["minus"], (2 * C) * projectors["plus"]
    assert (_wz_relations(coord, diff, SquareMatrix.identity(T, 2))
            == _wz_relations(coord, diff))


def test_s03_transform_is_what_the_plane_uses():
    projectors = s03_constant_projectors(T)
    coord, diff = projectors["minus"], (2 * C) * projectors["plus"]
    assert _wz_relations(coord, diff, _s03_generator_transform(T)) == s03_plane(C)
    # in the raw generators the rule matrix is complex
    raw = _wz_relations(coord, diff)
    assert not all(e.is_real() for row in raw.mixed.rows for e in row)


def test_singular_or_missized_transforms_are_rejected():
    projectors = s03_constant_projectors(T)
    coord, diff = projectors["minus"], C * projectors["plus"]
    with pytest.raises(SingularMatrix):
        _wz_relations(coord, diff, SquareMatrix(T, [[1, 1], [1, 1]]))
    with pytest.raises(DimensionMismatch):
        _wz_relations(coord, diff, SquareMatrix.identity(T, 4))


# -------------------------------------------------------------- serialization


def test_relation_set_to_obj_round_trips_strings():
    rel = s03_plane(C)
    obj = rel.to_obj()
    assert sorted(obj) == ["coordinates", "differentials", "lines", "mixed"]
    assert obj["coordinates"] == [["1", "-1", "0", "0"], ["0", "0", "1", "1"]]
    assert obj["differentials"] == [["1", "1", "0", "0"], ["0", "0", "1", "-1"]]
    assert obj["mixed"][0] == ["c - 1", "c", "0", "0"]
    assert obj["lines"] == rel.lines()
    assert isinstance(rel, RelationSet)
