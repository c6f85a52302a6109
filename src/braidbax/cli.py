"""Command-line front end: analyze, baxterize, ncplane, verify-all.

Targets are the two built-in cases (s03, s14) or, for analyze only, a
user matrix supplied as file:PATH in the JSON layout that matrix_to_obj
emits.  File targets are taken as already braided: they are analysed
exactly as given, with no permutation applied.

Everything is symbolic and exact, so a verdict is a theorem about the
given parameters, not a numerical spot check.  Exit codes: 0 all checks
hold, 1 at least one check failed, 2 usage error, 3 the input could not
be read or lies outside the searchable scalar domain.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Callable, List, Optional, Tuple

from .cases import builtin_case
from .funceq import c_law_residual, reparametrize_check
from .linalg import (
    SquareMatrix,
    _row_space,
    matrix_from_obj,
    matrix_to_obj,
    minimal_polynomial,
)
from .ncplane import (
    ConsistencyFailure,
    _published_blocks,
    mixed_rules_s03,
    mixed_rules_s14,
    s03_plane,
    s14_plane,
)
from .parser import MAX_EXPONENT, ParseError, parse
from .scalar import LIMIT_ERRORS, PoleError, SymbolTable, UnknownSymbol
from .spectral import (
    IrreducibleOverSearchSpace,
    RepeatedRoots,
    _recompose,
    find_roots,
    lagrange_projectors,
)
from .verify import FAULT_TARGETS, Check, CheckFailed, Report, Section, run_all, run_checks
from .ybe import (
    TensorOps,
    braid_ybe_residual,
    expand_pybe_coefficients,
    pybe_coefficient_formulas,
    s03_pybe_residual,
    s14_member_q,
    s14_pybe_residual,
    verify_frt_relations,
)

__all__ = ["main"]

# What each verb hands to main: header lines, extra JSON fields, the sections it ran.
Verb = Tuple[List[str], dict, Tuple[Section, ...]]


class InputError(Exception):
    """The input file or a parameter expression cannot be used."""


class UsageError(Exception):
    """A verb received an option combination it does not accept."""


_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# the plane relations print in these generators, so no parameter may take their names
_PLANE_GENERATORS = ("x1", "x2", "xi1", "xi2")

# the longest piece of an input that a one-line message quotes
_EXCERPT = 60


def _excerpt(text: str, show: Callable[[str], str] = repr) -> str:
    """show(text), or show() of its first _EXCERPT characters and its length."""
    if len(text) <= _EXCERPT:
        return show(text)
    return f"{show(text[:_EXCERPT])}... ({len(text)} characters)"


def _int_option(text: str) -> int:
    """int(text) for an integer option; a bad value is quoted as _excerpt does."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_excerpt(text)}") from None


def _parse_parameters(texts: List[str]) -> list:
    """Parse expressions over a shared table of their free identifiers."""
    names = sorted(
        {match.group(0) for text in texts for match in _IDENTIFIER.finditer(text)}
        - {"i"}
    )
    try:
        table = SymbolTable(names)
    except ValueError as exc:  # more names than MAX_SYMBOLS
        raise InputError(f"parameters name {exc}") from exc
    values = []
    for text in texts:
        try:
            values.append(parse(text, table))
        except (ParseError, UnknownSymbol, PoleError) as exc:
            raise InputError(f"cannot parse parameter {_excerpt(text)}: {exc}") from exc
    return values


def _os_error(action: str, path: str, exc: OSError) -> str:
    """The one-line message for an OSError on path."""
    if len(path) > _EXCERPT:
        # the OSError text repeats the path, so a long one (every path too
        # long for the system among them) is quoted once, in part
        return f"cannot {action} {_excerpt(path, str)}: {exc.strerror}"
    return f"cannot {action} {path}: {exc}"


def _load_matrix(path: str) -> SquareMatrix:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise InputError(_os_error("read", path, exc)) from exc
    except (ValueError, RecursionError) as exc:  # an int beyond the digit limit, deep nesting
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    try:
        matrix = matrix_from_obj(obj)
    except (KeyError, TypeError, ValueError, ParseError, UnknownSymbol, PoleError) as exc:
        raise InputError(f"{path} does not describe a matrix: {exc}") from exc
    if "t" in matrix.table.names:
        # the minimal polynomial prints in t, where a matrix symbol t would be ambiguous
        raise InputError(f"{path} does not describe a matrix: "
                         "symbol 't' is reserved for the minimal polynomial's variable")
    return matrix


def _target_kind(target: str) -> Tuple[str, str]:
    lowered = target.lower()
    if lowered in ("s03", "s14"):
        return "builtin", lowered
    if target.startswith("file:"):
        return "file", target[5:]
    raise UsageError(f"target must be s03, s14, or file:PATH, not {_excerpt(target)}")


def _claim(name: str, predicate: Callable[[], bool], detail: str) -> Check:
    """A check whose detail text is the same whether it holds or fails."""

    def run() -> str:
        if not predicate():
            raise CheckFailed(detail)
        return detail

    return name, run


def _matrix_lines(obj: dict) -> List[str]:
    return ["  [" + ", ".join(row) + "]" for row in obj["entries"]]


# ------------------------------------------------------------------ analyze


def _run_analyze(args) -> Verb:
    kind, name = _target_kind(args.target)
    if kind == "builtin":
        case = builtin_case(name)
        matrix = case.rhat
    else:
        case = None
        matrix = _load_matrix(name)

    poly = minimal_polynomial(matrix)
    try:
        roots = find_roots(poly)
    except IrreducibleOverSearchSpace as exc:
        raise InputError("spectrum not found: no searched root annihilates "
                         + _excerpt(str(exc.poly), str)) from exc
    try:
        ps = lagrange_projectors(matrix, roots)
    except (RepeatedRoots, ValueError) as exc:
        raise InputError("matrix is not diagonalisable this way: "
                         + _excerpt(str(exc), str)) from exc

    count = len(ps)
    resolution = f"spectral resolution into {count} orthogonal idempotent{'s' if count != 1 else ''}"
    checks = [
        ("projectors", lambda: resolution),
        _claim("spectral-recompose", lambda: _recompose(matrix, ps) == matrix,
               "eigenvalue-weighted projector sum restores the matrix"),
    ]
    if matrix.n == 4:
        checks.append(_claim("constant-ybe", lambda: braid_ybe_residual(matrix).is_zero(),
                             "braid relation residual on the triple tensor space"))
    else:
        skipped = f"skipped: braid relation needs a 4x4 matrix, this one is {matrix.n}x{matrix.n}"
        checks.append(("constant-ybe", lambda: skipped))
    if case is not None:
        checks.append(_claim(
            "published-data",
            lambda: (
                poly == case.min_poly
                and len(ps) == len(case.pairing)
                and all(
                    eig == want and proj == case.projectors[label]
                    for (eig, proj), (want, label) in zip(ps, case.pairing)
                )
            ),
            "minimal polynomial, eigenvalue order, and parameter-free projectors match the case constants",
        ))

    fields = {
        "target": args.target,
        "matrix": matrix_to_obj(matrix),
        "minimal_polynomial": str(poly),
        "eigenvalues": [str(eig) for eig, _ in ps],
        "projectors": [
            {"eigenvalue": str(eig), "matrix": matrix_to_obj(proj)}
            for eig, proj in ps
        ],
    }
    header = [f"analyze {args.target}", "matrix:", *_matrix_lines(fields["matrix"])]
    header.append(f"minimal polynomial: {fields['minimal_polynomial']}")
    header.append("eigenvalues: " + ", ".join(fields["eigenvalues"]))
    for item in fields["projectors"]:
        header.append(f"projector at {item['eigenvalue']}:")
        header.extend(_matrix_lines(item["matrix"]))
    return header, fields, run_checks(checks)


# ---------------------------------------------------------------- baxterize


def _run_baxterize(args) -> Verb:
    kind, name = _target_kind(args.target)
    if kind == "file":
        raise UsageError("baxterize works on the built-in cases only")
    if name == "s03":
        if args.triplet is not None:
            raise UsageError("--triplet applies to the s14 target only")
        return _baxterize_s03(args)
    if args.p is not None:
        raise UsageError("--p applies to the s03 target only")
    if args.triplet is not None:
        return _baxterize_s14_triplet(args.triplet)
    return _baxterize_s14_free()


def _baxterize_s03(args) -> Verb:
    p = -2 if args.p is None else args.p
    # the members' entries grow with |p|, and p = 10000 already takes seconds
    if abs(p) > MAX_EXPONENT:
        raise InputError(f"--p must lie in -{MAX_EXPONENT}..{MAX_EXPONENT}, "
                         f"not {_excerpt(str(p), str)}")
    x, y = SymbolTable(["x", "y"]).symbols("x", "y")
    checks = [
        _claim("parameterised-braid", lambda: s03_pybe_residual(p, x, y).is_zero(),
               f"triple-product residual at exponent {p}, symbolically in x and y"),
        _claim("coefficient-law", lambda: c_law_residual(p, x, y).is_zero(),
               "cx + cy + 2*cx*cy = cxy for the power-law coefficients"),
    ]
    if p % 2 == 0:
        checks.append(_claim(
            "reparametrised-branch", lambda: reparametrize_check(p),
            "square-root branch in the substituted variable recovers the same coefficients",
        ))
    return [f"baxterize s03 (p = {p})"], {"target": "s03", "p": p}, run_checks(checks)


def _baxterize_s14_triplet(triplet: str) -> Verb:
    texts = [piece.strip() for piece in triplet.split(",")]
    if len(texts) != 6:
        raise UsageError("--triplet needs six comma-separated expressions: v,w for each slot")
    values = _parse_parameters(texts)
    pairs = (values[0], values[1]), (values[2], values[3]), (values[4], values[5])
    coeffs = expand_pybe_coefficients(*pairs)
    closed = pybe_coefficient_formulas(*pairs)
    checks = [
        _claim("expansion-coefficients",
               lambda: all(coeffs[k] == closed[k] for k in coeffs),
               "expanded residual coefficients equal their closed forms"),
        _claim("residual-zero", lambda: all(c.is_zero() for c in coeffs.values()),
               "the three supplied members satisfy the parameterised braid equation"),
    ]
    fields = {
        "target": "s14",
        "triplet": [[str(v), str(w)] for v, w in pairs],
        "coefficients": {k: str(c) for k, c in coeffs.items()},
    }
    header = ["baxterize s14", "coefficients:"]
    header.extend(f"  {k} = {text}" for k, text in fields["coefficients"].items())
    return header, fields, run_checks(checks)


def _baxterize_s14_free() -> Verb:
    table = SymbolTable(["q", "v", "w", "vp", "wp", "vpp", "wpp"])
    q, v, w, vp, wp, vpp, wpp = table.symbols("q", "v", "w", "vp", "wp", "vpp", "wpp")
    two = table.scalar(2)
    pairs = (v, w), (vp, wp), (vpp, wpp)

    def formulas_match() -> bool:
        coeffs = expand_pybe_coefficients(*pairs)
        closed = pybe_coefficient_formulas(*pairs)
        return all(coeffs[k] == closed[k] for k in coeffs)

    checks = [
        _claim("triplet-free-braid",
               lambda: s14_pybe_residual(
                   (v, -two - v), (vp, -two - vp), (vpp, -two - vpp)).is_zero(),
               "three independent members with parameter pairs summing to -2 satisfy the braid equation"),
        _claim("coefficient-formulas", formulas_match,
               "expanded residual coefficients equal their closed forms in six free parameters"),
        _claim("exchange-relations",
               lambda: verify_frt_relations(TensorOps(table), s14_member_q(q)),
               "corner projectors intertwine the braided members across adjacent slots"),
    ]
    return ["baxterize s14"], {"target": "s14"}, run_checks(checks)


# ------------------------------------------------------------------ ncplane


def _run_ncplane(args) -> Verb:
    kind, name = _target_kind(args.target)
    if kind == "file":
        raise UsageError("ncplane works on the built-in cases only")
    if name == "s03":
        if args.kplus is not None or args.kzero is not None:
            raise UsageError("--kplus/--kzero apply to the s14 target only")
        (c,) = _parse_parameters(["c" if args.c is None else args.c])
        table = c.table
        builder = lambda: s03_plane(c)
        expected_mixed = mixed_rules_s03(c)
        parameters = {"c": str(c)}
    else:
        if args.c is not None:
            raise UsageError("--c applies to the s03 target only")
        kplus, kzero = _parse_parameters([
            "kplus" if args.kplus is None else args.kplus,
            "kzero" if args.kzero is None else args.kzero,
        ])
        table = kplus.table
        builder = lambda: s14_plane(kplus, kzero)
        expected_mixed = mixed_rules_s14(kplus, kzero)
        parameters = {"kplus": str(kplus), "kzero": str(kzero)}
    for generator in _PLANE_GENERATORS:
        if generator in table.names:
            raise InputError(f"symbol {generator!r} is reserved for the plane's generators")

    fields = {"target": name, "parameters": parameters}
    try:
        relations = builder()
    except ConsistencyFailure as exc:
        clash = f"defining operators clash: witness {exc.witness}"
        checks = [_claim("consistency", lambda: False, clash)]
        return [f"ncplane {name}"], fields, run_checks(checks)

    expected_coord, _ = _published_blocks(name, table)
    eye = SquareMatrix.identity(table, 4)
    checks = [
        ("consistency", lambda: "coordinate and differential operators are compatible"),
        _claim("coordinate-block", lambda: relations.coordinates == expected_coord,
               "coordinate relations match the published block"),
        _claim("differential-block",
               lambda: relations.differentials == _row_space(expected_mixed + eye),
               "differential relations match the published rewrite rules' annihilator"),
        _claim("rewrite-rules", lambda: relations.mixed == expected_mixed,
               "mixed coordinate-differential rules match the published matrix"),
    ]
    fields["relations"] = relations.to_obj()
    header = [f"ncplane {name} ({', '.join(f'{k} = {v}' for k, v in parameters.items())})"]
    header.append("relations:")
    header.extend("  " + text for text in relations.lines())
    return header, fields, run_checks(checks)


# --------------------------------------------------------------- verify-all


def _run_verify_all(args) -> Verb:
    sections = run_all(args.seed, args.inject_fault).sections
    return [f"verify-all (seed = {args.seed})"], {"target": None, "seed": args.seed}, sections


# ------------------------------------------------------------------ wiring


@functools.cache  # built on the first call to main, then kept: parse_args does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidbax",
        description="Exact symbolic analysis of the two exotic braid matrices "
                    "and their parameterised families.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="report rendering (default: text)")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write the report to PATH instead of stdout")

    p = sub.add_parser("analyze", help="spectral analysis of a braided matrix")
    p.add_argument("target", help="s03, s14, or file:PATH (already braided)")
    common(p)

    p = sub.add_parser("baxterize", help="parameterised braid-equation checks")
    p.add_argument("target", help="s03 or s14")
    p.add_argument("--p", type=_int_option, default=None,
                   help="power-family exponent for s03, in -1000..1000 (default: -2)")
    p.add_argument("--triplet", metavar="V,W,V2,W2,V3,W3", default=None,
                   help="six expressions giving explicit s14 parameter pairs")
    common(p)

    p = sub.add_parser("ncplane", help="derive quadratic plane relations")
    p.add_argument("target", help="s03 or s14")
    p.add_argument("--c", metavar="EXPR", default=None,
                   help="s03 differential coefficient (default: symbol c)")
    p.add_argument("--kplus", metavar="EXPR", default=None,
                   help="s14 corner coefficient (default: symbol kplus)")
    p.add_argument("--kzero", metavar="EXPR", default=None,
                   help="s14 middle coefficient (default: symbol kzero)")
    common(p)

    p = sub.add_parser("verify-all", help="run the complete verification suite")
    p.add_argument("--seed", type=_int_option, default=0,
                   help="seed for the randomised plumbing section (default: 0)")
    p.add_argument("--inject-fault", choices=FAULT_TARGETS, default=None,
                   help=argparse.SUPPRESS)
    common(p)

    return parser


_RUNNERS = {
    "analyze": _run_analyze,
    "baxterize": _run_baxterize,
    "ncplane": _run_ncplane,
    "verify-all": _run_verify_all,
}


def _emit(report: Report, args) -> None:
    if args.format == "json":
        payload = json.dumps(report.to_obj(), indent=2, sort_keys=True) + "\n"
    else:
        payload = "\n".join(report.lines()) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            raise UsageError(_os_error("write", args.out, exc)) from exc
    else:
        sys.stdout.write(payload)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        header, fields, sections = _RUNNERS[args.verb](args)
        report = Report(sections, {"verb": args.verb, **fields}, tuple(header))
        _emit(report, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (InputError, *LIMIT_ERRORS) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    return 0 if report.holds else 1


if __name__ == "__main__":
    sys.exit(main())
