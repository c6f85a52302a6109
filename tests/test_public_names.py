"""The package's public surface, one name a line, so any change to it shows in a diff."""

import ast
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


def _package_trees():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(Path(braidbax.__file__).parent.glob("*.py"))}


def _private_definitions(tree):
    """(name, node) for each module-level private function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _loaded_names(nodes):
    """The names that the nodes' subtrees read: bare names and attributes.
    An import binds its names through aliases, which are neither."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def _imports(tree):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


def test_every_private_definition_is_referenced():
    # a docstring mention is no reference: only AST names and attributes count;
    # an import into another module counts, and the test below checks it is used
    trees = _package_trees()
    imported = {(n.module, alias.name) for tree in trees.values() for n in _imports(tree)
                if isinstance(n, ast.ImportFrom) for alias in n.names}
    unreferenced = []
    for stem, tree in trees.items():
        for name, node in _private_definitions(tree):
            elsewhere = [n for n in tree.body if n is not node]
            if (stem, name) not in imported and name not in _loaded_names(elsewhere):
                unreferenced.append(f"{stem}.{name}")
    assert unreferenced == []


def test_every_import_is_used():
    # a star import binds no one name
    unused = []
    for stem, tree in _package_trees().items():
        used = _loaded_names([tree])
        for node in _imports(tree):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*" and bound not in used:
                    unused.append(f"{stem}: {bound}")
    assert unused == []
