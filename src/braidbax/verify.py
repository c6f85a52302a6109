"""End-to-end verification: every published claim, one section per theme.

A check is a (name, run) pair: run() returns its detail text or raises
CheckFailed.  run_checks times each check and turns it into a Section,
so a regression anywhere in the package surfaces as a named failure
rather than a stack trace.  A Report renders the sections as text or
JSON; the CLI verbs and run_all share both.  run_all executes nine
independent sections, each building its own symbol tables.

The fault argument deliberately corrupts one of the two built-in
matrices (and, for the second case, the projector constants used by the
tensor machinery).  It exists so tests can confirm that each section
really exercises the matrix it claims to: injecting a fault must flip
exactly the sections that depend on the corrupted case.
"""

from __future__ import annotations

import functools
import json
import random
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, List, Mapping, Optional, Tuple

from .cases import s03_constant_projectors, s14_case, s14_constant_projectors
from .linalg import (
    SquareMatrix,
    braid,
    builtin,
    matrix_from_obj,
    matrix_to_obj,
    minimal_polynomial,
)
from .ncplane import (
    _published_blocks,
    mixed_rules_s03,
    mixed_rules_s14,
    s03_plane,
    s14_plane,
)
from .parser import parse
from .scalar import Scalar, SymbolTable
from .spectral import check_diagonalizer, find_roots, lagrange_projectors
from .funceq import (
    a_eval_general,
    a_from_c,
    a_half_closed,
    a_law_residual,
    c_eval,
    c_from_a,
    c_law_residual,
    reparametrize_check,
)
from .ybe import (
    TensorOps,
    braid_ybe_residual,
    combination_basis,
    expand_pybe_coefficients,
    pybe_coefficient_formulas,
    reduction_identity_residuals,
    s03_pybe_residual,
    s03_reduction_residual,
    s14_chain,
    s14_inverse_closed,
    s14_member,
    s14_member_q,
    s14_pybe_residual,
    verify_frt_relations,
)

__all__ = ["Report", "Section", "run_all"]

FAULT_TARGETS = ("s03", "s14")


class CheckFailed(Exception):
    """A check found a concrete mismatch."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


Check = Tuple[str, Callable[[], str]]


@dataclass(frozen=True)
class Section:
    name: str
    holds: bool
    detail: str
    elapsed: float


def run_checks(checks: Iterable[Check]) -> Tuple[Section, ...]:
    """Run each check in order; failures become sections, never exceptions."""
    sections = []
    for name, run in checks:
        start = time.perf_counter()
        try:
            detail = run()
            holds = True
        except CheckFailed as exc:
            detail = str(exc)
            holds = False
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
            holds = False
        sections.append(Section(name, holds, detail, time.perf_counter() - start))
    return tuple(sections)


@dataclass(frozen=True)
class Report:
    """Sections of one run, with the header lines and extra JSON fields."""

    sections: Tuple[Section, ...]
    fields: Mapping[str, object] = field(default_factory=dict)
    header: Tuple[str, ...] = ()

    @property
    def seed(self) -> Optional[int]:
        return self.fields.get("seed")

    @property
    def holds(self) -> bool:
        return all(section.holds for section in self.sections)

    def section(self, name: str) -> Section:
        for section in self.sections:
            if section.name == name:
                return section
        raise KeyError(name)

    def to_obj(self) -> dict:
        return {
            **self.fields,
            "holds": self.holds,
            "sections": [dict(asdict(section), elapsed=round(section.elapsed, 3))
                         for section in self.sections],
        }

    def lines(self) -> List[str]:
        out = list(self.header)
        for section in self.sections:
            mark = "ok" if section.holds else "FAIL"
            out.append(f"[{mark:>4}] {section.name}: {section.detail}")
        out.append("overall: " + ("ok" if self.holds else "FAIL"))
        return out


# ------------------------------------------------------------ fault fixtures


def _bump_corner(m: SquareMatrix) -> SquareMatrix:
    rows = [list(row) for row in m.rows]
    rows[0][0] = rows[0][0] + m.table.one()
    return SquareMatrix(m.table, rows)


def _braid_for(name: str, table: SymbolTable, fault: Optional[str]) -> SquareMatrix:
    """Braided built-in for the case, corrupted when the fault matches."""
    r = builtin(name + "_r", table)
    if fault == name:
        r = _bump_corner(r)
    return braid(r)


def _s14_plus(table: SymbolTable, fault: Optional[str]) -> SquareMatrix:
    """The plus projector of the second case, corrupted when the fault matches."""
    plus = s14_constant_projectors(table)["plus"]
    return _bump_corner(plus) if fault == "s14" else plus


# ---------------------------------------------------------------- sections


def _sec_minimal_polynomials(seed: int, fault: Optional[str]) -> str:
    rhat = _braid_for("s03", SymbolTable([]), fault)
    poly = minimal_polynomial(rhat)
    _check(str(poly) == "t^2 - 2*t + 2", f"first case minimal polynomial is {poly}")
    rhat = _braid_for("s14", SymbolTable(["q"]), fault)
    poly = minimal_polynomial(rhat)
    _check(
        str(poly) == "t^3 - t^2 - q^2*t + q^2",
        f"second case minimal polynomial is {poly}",
    )
    return "t^2 - 2*t + 2 and t^3 - t^2 - q^2*t + q^2, as published"


def _sec_projector_suites(seed: int, fault: Optional[str]) -> str:
    table = SymbolTable([])
    rhat = _braid_for("s03", table, fault)
    eye = SquareMatrix.identity(table, 4)
    i = table.i()
    formula = s03_constant_projectors(table, rhat)
    plus, minus = formula["plus"], formula["minus"]
    literal = s03_constant_projectors(table)
    _check(plus == literal["plus"] and minus == literal["minus"],
           "first-case projector formulas drifted from their constants")
    _check(plus * plus == plus and minus * minus == minus,
           "first-case projectors are not idempotent")
    _check((plus * minus).is_zero() and (minus * plus).is_zero(),
           "first-case projectors are not orthogonal")
    _check(plus + minus == eye, "first-case projectors do not resolve the identity")
    one = table.one()
    _check((one - i) * plus + (one + i) * minus == rhat,
           "first-case spectral recomposition failed")

    case = s14_case()
    rhat = _braid_for("s14", case.table, fault)
    roots = find_roots(minimal_polynomial(rhat))
    ps = lagrange_projectors(rhat, roots)
    _check(len(ps.items) == 3, f"expected three projectors, found {len(ps.items)}")
    for (eig, proj), (want_eig, label) in zip(ps.items, case.pairing):
        _check(eig == want_eig, f"eigenvalue order drifted: {eig} vs {want_eig}")
        _check(proj == case.projectors[label],
               f"second-case projector {label!r} differs from its parameter-free constant")
    _check(ps.recompose() == rhat, "second-case spectral recomposition failed")
    return "both families idempotent, orthogonal, complete, and equal to their constants"


def _sec_constant_ybe(seed: int, fault: Optional[str]) -> str:
    rhat = _braid_for("s03", SymbolTable([]), fault)
    _check(braid_ybe_residual(rhat).is_zero(), "first braided matrix fails the braid relation")
    rhat = _braid_for("s14", SymbolTable(["q"]), fault)
    _check(braid_ybe_residual(rhat).is_zero(),
           "second braided matrix fails the braid relation symbolically in q")
    return "braid relation holds for both cases, the second symbolically in q"


def _sec_s03_baxterisation(seed: int, fault: Optional[str]) -> str:
    table = SymbolTable(["x", "y"])
    x, y = table.symbols("x", "y")
    rhat = _braid_for("s03", table, fault)
    for p in range(-4, 5):
        _check(s03_pybe_residual(p, x, y, rhat).is_zero(),
               f"power family fails the parameterised braid equation at p = {p}")
    free = SymbolTable(["cx", "cy", "cxy"])
    cx, cy, cxy = free.symbols("cx", "cy", "cxy")
    rhat_free = _braid_for("s03", free, fault)
    _check(s03_reduction_residual(cx, cy, cxy, rhat_free).is_zero(),
           "residual does not factor through the composition-law collapse")
    return "power family exact for p in -4..4; residual collapse exact in free coefficients"


def _sec_functional_equations(seed: int, fault: Optional[str]) -> str:
    table = SymbolTable(["x", "y"])
    x, y = table.symbols("x", "y")
    for p in (-2, 3):
        _check(c_law_residual(p, x, y).is_zero(),
               f"coefficient composition law fails at p = {p}")
    khalf = Fraction(1, 2)
    _check((a_eval_general(khalf, x) - a_half_closed(x)).is_zero(),
           "closed form for the half case differs from the general branch")
    _check(a_law_residual(khalf, x, y).is_zero(),
           "additive composition law fails symbolically in the half case")
    one = table.one()
    _check(a_eval_general(khalf, one).is_zero(), "normalisation a(1) = 0 fails")
    want = -(one + table.i())
    _check(a_eval_general(khalf, table.zero()) == want, "limit value a(0) drifted")
    c = SymbolTable(["c"]).symbol("c")
    _check(c_from_a(a_from_c(c)) == c, "parameter conversions fail to invert (c side)")
    a = SymbolTable(["a"]).symbol("a")
    _check(a_from_c(c_from_a(a)) == a, "parameter conversions fail to invert (a side)")
    _check(reparametrize_check(-2), "reparametrised branch misses the p = -2 coefficient")
    _check(c_eval(-2, x) == (1 / (x * x) - 1) / 2, "direct coefficient value drifted")
    return "coefficient and additive laws exact; conversions mutually inverse; p = -2 recovered"


def _sec_s14_combinations(seed: int, fault: Optional[str]) -> str:
    table = SymbolTable(["q", "v", "w", "vp", "wp", "vpp", "wpp"])
    plus = _s14_plus(table, fault)
    tops = TensorOps(table, plus)
    basis = combination_basis(tops)
    residuals = reduction_identity_residuals(basis)
    bad = sorted(name for name, res in residuals.items() if not res.is_zero())
    _check(not bad, f"reduction identities fail for {', '.join(bad)}")
    v, w, vp, wp, vpp, wpp = table.symbols("v", "w", "vp", "wp", "vpp", "wpp")
    coeffs = expand_pybe_coefficients((v, w), (vp, wp), (vpp, wpp), tops)
    closed = pybe_coefficient_formulas((v, w), (vp, wp), (vpp, wpp))
    for key in ("a1", "a2", "b1", "b2"):
        _check(coeffs[key] == closed[key], f"coefficient {key} differs from its closed form")
    two = table.const(2)
    constrained = s14_pybe_residual(
        (v, -two - v), (vp, -two - vp), (vpp, -two - vpp), plus
    )
    _check(constrained.is_zero(),
           "pair-sum constraint does not cancel the parameterised residual")
    zero = table.zero()
    chain_v = expand_pybe_coefficients(
        (v, zero), (s14_chain(v, vpp), zero), (vpp, zero), tops
    )
    _check(all(chain_v[key].is_zero() for key in ("a1", "a2", "b1", "b2")),
           "chained middle parameter fails to cancel the one-sided residual (plus side)")
    chain_w = expand_pybe_coefficients(
        (zero, w), (zero, s14_chain(w, wpp)), (zero, wpp), tops
    )
    _check(all(chain_w[key].is_zero() for key in ("a1", "a2", "b1", "b2")),
           "chained middle parameter fails to cancel the one-sided residual (minus side)")
    q = table.symbol("q")
    _check(verify_frt_relations(tops, s14_member_q(q)),
           "exchange relations fail for the one-parameter member")
    return "reductions, closed coefficients, constrained residual, chains, and exchange relations all exact"


def _sec_inverses_diagonalizers(seed: int, fault: Optional[str]) -> str:
    table = SymbolTable(["q", "v", "w"])
    q, v, w = table.symbols("q", "v", "w")
    eye = SquareMatrix.identity(table, 4)
    member = s14_member(v, w)
    inverse = s14_inverse_closed(v, w)
    _check(member * inverse == eye and inverse * member == eye,
           "closed inverse fails symbolically")
    rhat_q = _braid_for("s14", table, fault)
    _check(s14_member_q(q) == rhat_q,
           "one-parameter member does not reproduce the braided built-in")
    _check(rhat_q * s14_member_q(1 / q) == eye,
           "the q and 1/q members are not mutually inverse")
    diag = check_diagonalizer(builtin("s03_m_diag", table), rhat_q, 2)
    want = SquareMatrix(table, [
        [q, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -q],
    ])
    _check(diag == want, "real diagonalizer misses the q, 1, 1, -q spectrum")
    rhat03 = _braid_for("s03", table, fault)
    one, i = table.one(), table.i()
    diag = check_diagonalizer(builtin("s03_m_prime_unnorm", table), rhat03, 2)
    want = SquareMatrix(table, [
        [one - i, 0, 0, 0], [0, one - i, 0, 0], [0, 0, one + i, 0], [0, 0, 0, one + i],
    ])
    _check(diag == want, "complex diagonalizer misses the 1 -+ i spectrum")
    return "closed inverse, q to 1/q pairing, and both diagonalizer conjugations exact"


def _sec_noncommutative_planes(seed: int, fault: Optional[str]) -> str:
    # a plane whose operators clash raises ConsistencyFailure in wz_build
    table = SymbolTable(["c"])
    c = table.symbol("c")
    rel = s03_plane(c, _braid_for("s03", table, fault))
    _check(rel == s03_plane(c), "first plane drifted from its constant-projector derivation")
    coord, diff = _published_blocks("s03", table)
    _check(rel.coordinates == coord, "first-plane coordinate relations drifted")
    _check(rel.differentials == diff, "first-plane differential relations drifted")
    _check(rel.mixed == mixed_rules_s03(c), "first-plane rewrite rules drifted")
    flat = [entry for row in rel.coordinates for entry in row]
    flat += [entry for row in rel.differentials for entry in row]
    flat += [entry for row in rel.mixed.rows for entry in row]
    _check(all(entry.is_real() for entry in flat),
           "first-plane coefficients are not all real in the mixed generators")
    _check(len(rel.coordinates) == 2 and len(rel.differentials) == 2,
           "first-plane block ranks are not 2 and 2")

    t2 = SymbolTable(["kplus", "kzero"])
    kplus, kzero = t2.symbols("kplus", "kzero")
    rel2 = s14_plane(kplus, kzero, _s14_plus(t2, fault))
    _check(rel2 == s14_plane(kplus, kzero), "second plane drifted from its packaged derivation")
    coord, diff = _published_blocks("s14", t2)
    _check(rel2.coordinates == coord, "second-plane coordinate relations drifted")
    _check(rel2.differentials == diff, "second-plane differential relations drifted")
    _check(rel2.mixed == mixed_rules_s14(kplus, kzero), "second-plane rewrite rules drifted")
    _check(len(rel2.coordinates) == 1 and len(rel2.differentials) == 3,
           "second-plane block ranks are not 1 and 3")
    return "both planes consistent, blocks and rewrite rules exactly as displayed"


def _random_scalar(rng: random.Random, table: SymbolTable, names, terms: int = 3) -> Scalar:
    total = table.zero()
    for _ in range(rng.randint(1, terms)):
        coeff = table.const(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        coeff = coeff + table.const(Fraction(rng.randint(-6, 6), rng.randint(1, 4))) * table.i()
        mono = table.one()
        for name in names:
            mono = mono * table.symbol(name) ** rng.randint(-2, 2)
        total = total + coeff * mono
    return total


def _random_matrix(rng: random.Random, table: SymbolTable, names, n: int) -> SquareMatrix:
    return SquareMatrix(table, [
        [_random_scalar(rng, table, names, terms=2) for _ in range(n)]
        for _ in range(n)
    ])


def _sec_plumbing(seed: int, fault: Optional[str]) -> str:
    rng = random.Random(seed)
    table = SymbolTable(["x", "y"])
    names = ("x", "y")
    cases = 1000
    for index in range(cases):
        kind = index % 10
        if kind == 8:
            a = _random_matrix(rng, table, names[:1], 2)
            b = _random_matrix(rng, table, names[1:], 2)
            c = _random_matrix(rng, table, names[:1], 2)
            d = _random_matrix(rng, table, names[1:], 2)
            _check(a.kron(b) * c.kron(d) == (a * c).kron(b * d),
                   f"mixed-product rule failed on case {index}")
            continue
        if kind == 9:
            m = _random_matrix(rng, table, names, 2)
            obj = json.loads(json.dumps(matrix_to_obj(m)))
            _check(matrix_from_obj(obj, table) == m,
                   f"matrix serialisation failed to round-trip on case {index}")
            continue
        a = _random_scalar(rng, table, names)
        b = _random_scalar(rng, table, names)
        c = _random_scalar(rng, table, names)
        _check(a + b == b + a and a * b == b * a, f"commutativity failed on case {index}")
        _check((a + b) + c == a + (b + c), f"additive associativity failed on case {index}")
        _check((a * b) * c == a * (b * c), f"multiplicative associativity failed on case {index}")
        _check(a * (b + c) == a * b + a * c, f"distributivity failed on case {index}")
        _check((a - a).is_zero(), f"additive inverse failed on case {index}")
        if not b.is_zero():
            _check((a / b) * b == a, f"division failed on case {index}")
        _check((a * a.conjugate()).is_real(), f"norm realness failed on case {index}")
        parsed = parse(str(a), table)
        _check(parsed == a and str(parsed) == str(a),
               f"print/parse round-trip failed on case {index}")
    return f"{cases} randomised cases (field axioms, round-trips, tensor products), seed {seed}"


_SECTIONS: Tuple[Tuple[str, Callable[[int, Optional[str]], str]], ...] = (
    ("minimal-polynomials", _sec_minimal_polynomials),
    ("projector-suites", _sec_projector_suites),
    ("constant-ybe", _sec_constant_ybe),
    ("s03-baxterisation", _sec_s03_baxterisation),
    ("functional-equations", _sec_functional_equations),
    ("s14-combinations", _sec_s14_combinations),
    ("inverses-diagonalizers", _sec_inverses_diagonalizers),
    ("noncommutative-planes", _sec_noncommutative_planes),
    ("plumbing", _sec_plumbing),
)


def section_checks(seed: int = 0, fault: Optional[str] = None) -> List[Check]:
    """The nine sections as checks, over one seed and an optional fault."""
    if fault is not None and fault not in FAULT_TARGETS:
        raise ValueError(f"unknown fault target {fault!r}")
    return [(name, functools.partial(func, seed, fault)) for name, func in _SECTIONS]


def run_all(seed: int = 0, fault: Optional[str] = None) -> Report:
    """Run every section; failures become report entries, never exceptions."""
    return Report(run_checks(section_checks(seed, fault)), {"seed": seed})
