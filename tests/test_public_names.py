"""The package's public surface, one name a line, so any change to it shows in a diff."""

import inspect
import re
from pathlib import Path

import braidbax

PUBLIC_NAMES = [
    "BuiltinCase",
    "ConsistencyFailure",
    "DimensionMismatch",
    "IrreducibleOverSearchSpace",
    "NonSquare",
    "NotDiagonal",
    "ParseError",
    "PoleError",
    "RelationSet",
    "RepeatedRoots",
    "Report",
    "ResidualNotInSpan",
    "Scalar",
    "Section",
    "SingularMatrix",
    "SquareMatrix",
    "SymbolTable",
    "TensorOps",
    "UnivariatePoly",
    "UnknownSymbol",
    "a_eval_general",
    "a_from_c",
    "a_half_closed",
    "a_law_residual",
    "braid",
    "braid_ybe_residual",
    "builtin",
    "builtin_case",
    "c_eval",
    "c_from_a",
    "c_law_residual",
    "check_diagonalizer",
    "expand_pybe_coefficients",
    "f_aux",
    "find_roots",
    "lagrange_projectors",
    "matrix_from_obj",
    "matrix_to_obj",
    "minimal_polynomial",
    "mixed_rules_s03",
    "mixed_rules_s14",
    "parse",
    "power_reduction_residual",
    "pybe_coefficient_formulas",
    "reduction_identity_residuals",
    "reparametrize_check",
    "run_all",
    "s03_constant_projectors",
    "s03_plane",
    "s03_pybe_residual",
    "s03_reduction_residual",
    "s14_chain",
    "s14_constant_projectors",
    "s14_inverse_closed",
    "s14_member",
    "s14_member_q",
    "s14_plane",
    "s14_pybe_residual",
    "sqrt_scalar",
    "verify_frt_relations",
]


def test_public_names_are_pinned():
    assert sorted(braidbax.__all__) == PUBLIC_NAMES
    assert all(hasattr(braidbax, name) for name in PUBLIC_NAMES)


def test_every_public_function_is_named_by_another_module():
    # a public function only tests call is surface without a user;
    # classes and exceptions are exempt, and __init__ only re-exports
    sources = {path.stem: path.read_text()
               for path in Path(braidbax.__file__).parent.glob("*.py")}
    unused = []
    for name in braidbax.__all__:
        obj = getattr(braidbax, name)
        if inspect.isclass(obj):
            continue
        home = obj.__module__.rsplit(".", 1)[-1]
        if not any(re.search(rf"\b{name}\b", text)
                   for stem, text in sources.items() if stem not in (home, "__init__")):
            unused.append(name)
    assert unused == []
