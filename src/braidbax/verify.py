"""End-to-end verification: every published claim, one section per theme.

A check is a (name, run) pair: run() returns its detail text or raises
CheckFailed.  _run_tasks times each check and turns it into a Section,
for run_checks in the process alone and for run_all over a pool, so a
regression anywhere in the package surfaces as a named failure rather
than a stack trace; an error of scalar.LIMIT_ERRORS (an input past a
scalar bound, not a failed check) propagates instead.  No built-in
reaches a limit: a run_all task that did would read "ended without a
result" in a forked child, and end the run in the process itself.  A
Report renders the sections as text or JSON; the CLI verbs and run_all
share both.  run_all executes nine independent sections, each building
its own symbol tables.

Both projector suites take one spectral path: lagrange_projectors over
the roots of the minimal polynomial (it checks idempotence, orthogonality,
completeness and the recomposition), then the case's constants.

The fault argument deliberately corrupts one of the two built-in
matrices (and, for the second case, the projector constants used by the
tensor machinery).  It exists so tests can confirm that each section
really exercises the matrix it claims to: injecting a fault must flip
exactly the sections that depend on the corrupted case.

run_all runs the nine sections as one pool of tasks over the CPUs the
process may use.  Every task is a check like any other: the plumbing
section's 1000 seeded cases split into contiguous chunks, one per CPU,
and the eight other sections are one task each.  Plumbing case `index`
of seed S draws its values from its own stream, random.Random("S/index"),
one int(random() * n) per integer drawn, so a seed's inputs do not
depend on the chunk layout.  A case forms each sum and product that
several of its identities name once, and checks every identity in
full.  A pipe holds one byte per task, the chunks first.  The process
and a forked child per extra CPU each take one task at a time until the
pipe is empty; a child answers on a pipe of its own, one JSON line per
task as soon as it ends, so a child that dies fails only the task it
was running.  The report does not depend on the CPU count: a section
holds when all its tasks do, its detail is that of its first failing
task in queue order (so the lowest failing plumbing case wins), and
its elapsed time runs from its first task's start to its last task's
end.  With one CPU, no fork or another live thread, the process takes
every task itself.
"""

from __future__ import annotations

import functools
import json
import os
import random
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, List, Mapping, Optional, Tuple

from .cases import builtin_case, s03_constant_projectors, s14_constant_projectors
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
from .scalar import LIMIT_ERRORS, Scalar, SymbolTable
from .spectral import check_diagonalizer, find_roots, lagrange_projectors
from .funceq import (
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
from .ybe import (
    TensorOps,
    _letter_claim_residuals,
    braid_ybe_residual,
    expand_pybe_coefficients,
    power_reduction_residual,
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


def _outcome(run: Callable[[], str]) -> Tuple[bool, str]:
    """Whether a check holds, with its detail text: on a failure the CheckFailed
    text, else the exception's type and text.  A limit error propagates."""
    try:
        return True, run()
    except LIMIT_ERRORS:
        raise
    except Exception as exc:
        return False, str(exc) if isinstance(exc, CheckFailed) else f"{type(exc).__name__}: {exc}"


def run_checks(checks: Iterable[Check]) -> Tuple[Section, ...]:
    """Run each check in order; failures become sections, never exceptions."""
    tasks = [(name, "check", run) for name, run in checks]
    return _run_tasks(tasks, 1, [name for name, _, _ in tasks])


@dataclass(frozen=True)
class Report:
    """Sections of one run, with the header lines and extra JSON fields."""

    sections: Tuple[Section, ...]
    fields: Mapping[str, object] = field(default_factory=dict)
    header: Tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return all(section.holds for section in self.sections)

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


def _sec_minimal_polynomials(fault: Optional[str]) -> str:
    published = []
    for name, ordinal in (("s03", "first"), ("s14", "second")):
        case = builtin_case(name)
        poly = minimal_polynomial(_braid_for(name, case.table, fault))
        _check(poly == case.min_poly, f"{ordinal} case minimal polynomial is {poly}")
        published.append(str(case.min_poly))
    return " and ".join(published) + ", as published"


def _sec_projector_suites(fault: Optional[str]) -> str:
    s03 = builtin_case("s03")
    formula = s03_constant_projectors(s03.table, _braid_for("s03", s03.table, fault))
    _check(formula == s03.projectors, "first-case projector formulas drifted from their constants")
    # lagrange_projectors itself checks idempotence, orthogonality, completeness
    # and the recomposition
    for name, ordinal, count in (("s03", "first", "two"), ("s14", "second", "three")):
        case = builtin_case(name)
        rhat = _braid_for(name, case.table, fault)
        ps = lagrange_projectors(rhat, find_roots(minimal_polynomial(rhat)))
        _check(len(ps) == len(case.pairing),
               f"expected {count} projectors, found {len(ps)}")
        for (eig, proj), (want_eig, label) in zip(ps, case.pairing):
            _check(eig == want_eig, f"eigenvalue order drifted: {eig} vs {want_eig}")
            _check(proj == case.projectors[label],
                   f"{ordinal}-case projector {label!r} differs from its parameter-free constant")
    return "both families idempotent, orthogonal, complete, and equal to their constants"


def _sec_constant_ybe(fault: Optional[str]) -> str:
    rhat = _braid_for("s03", SymbolTable([]), fault)
    _check(braid_ybe_residual(rhat).is_zero(), "first braided matrix fails the braid relation")
    rhat = _braid_for("s14", SymbolTable(["q"]), fault)
    _check(braid_ybe_residual(rhat).is_zero(),
           "second braided matrix fails the braid relation symbolically in q")
    free = SymbolTable(["q", "cx", "cy", "cxy"])
    cx, cy, cxy = free.symbols("cx", "cy", "cxy")
    rhat = _braid_for("s14", free, fault)
    _check(power_reduction_residual(rhat, cx, cy, cxy).is_zero(),
           "second braided matrix fails the first collapse stage in free coefficients")
    return "braid relation holds for both cases, the second symbolically in q"


def _sec_s03_baxterisation(fault: Optional[str]) -> str:
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
    _check(power_reduction_residual(rhat_free, cx, cy, cxy).is_zero(),
           "first collapse stage fails in free coefficients")
    return "power family exact for p in -4..4; residual collapse exact in free coefficients"


def _sec_functional_equations(fault: Optional[str]) -> str:
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
    _check(f_aux(khalf, x) / f_aux(khalf, 1 / x) - 1 == a_eval_general(khalf, x),
           "a(x) differs from f(x)/f(1/x) - 1 for the auxiliary function f")
    return "coefficient and additive laws exact; conversions mutually inverse; p = -2 recovered"


def _sec_s14_combinations(fault: Optional[str]) -> str:
    table = SymbolTable(["q", "v", "w", "vp", "wp", "vpp", "wpp"])
    plus = _s14_plus(table, fault)
    tops = TensorOps(table, plus)
    residuals = reduction_identity_residuals(tops)
    bad = sorted(name for name, res in residuals.items() if not res.is_zero())
    _check(not bad, f"reduction identities fail for {', '.join(bad)}")
    claims = _letter_claim_residuals(tops)
    off = [triple for triple, res in claims.items() if not res.is_zero()]
    _check(not off, f"letter differences off the span: {', '.join(off)}")
    v, w, vp, wp, vpp, wpp = table.symbols("v", "w", "vp", "wp", "vpp", "wpp")
    coeffs = expand_pybe_coefficients((v, w), (vp, wp), (vpp, wpp), tops)
    closed = pybe_coefficient_formulas((v, w), (vp, wp), (vpp, wpp))
    for key in coeffs:
        _check(coeffs[key] == closed[key], f"coefficient {key} differs from its closed form")
    two = table.scalar(2)
    constrained = s14_pybe_residual(
        (v, -two - v), (vp, -two - vp), (vpp, -two - vpp), plus
    )
    _check(constrained.is_zero(),
           "pair-sum constraint does not cancel the parameterised residual")
    zero = table.zero()
    chain_v = expand_pybe_coefficients(
        (v, zero), (s14_chain(v, vpp), zero), (vpp, zero), tops
    )
    _check(all(value.is_zero() for value in chain_v.values()),
           "chained middle parameter fails to cancel the one-sided residual (plus side)")
    chain_w = expand_pybe_coefficients(
        (zero, w), (zero, s14_chain(w, wpp)), (zero, wpp), tops
    )
    _check(all(value.is_zero() for value in chain_w.values()),
           "chained middle parameter fails to cancel the one-sided residual (minus side)")
    q = table.symbol("q")
    _check(verify_frt_relations(tops, s14_member_q(q)),
           "exchange relations fail for the one-parameter member")
    return "reductions, closed coefficients, constrained residual, chains, and exchange relations all exact"


def _sec_inverses_diagonalizers(fault: Optional[str]) -> str:
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
    diag = check_diagonalizer(builtin("s03_m_diag", table), rhat_q)
    want = SquareMatrix(table, [
        [q, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -q],
    ])
    _check(diag == want, "real diagonalizer misses the q, 1, 1, -q spectrum")
    rhat03 = _braid_for("s03", table, fault)
    one, i = table.one(), table.i()
    diag = check_diagonalizer(builtin("s03_m_prime_unnorm", table), rhat03)
    want = SquareMatrix(table, [
        [one - i, 0, 0, 0], [0, one - i, 0, 0], [0, 0, one + i, 0], [0, 0, 0, one + i],
    ])
    _check(diag == want, "complex diagonalizer misses the 1 -+ i spectrum")
    return "closed inverse, q to 1/q pairing, and both diagonalizer conjugations exact"


def _sec_noncommutative_planes(fault: Optional[str]) -> str:
    # a plane whose shifts clash raises ConsistencyFailure in ncplane._wz_relations
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

    t2 = SymbolTable(["kplus", "kzero"])
    kplus, kzero = t2.symbols("kplus", "kzero")
    rel2 = s14_plane(kplus, kzero, _s14_plus(t2, fault))
    _check(rel2 == s14_plane(kplus, kzero), "second plane drifted from its packaged derivation")
    coord, diff = _published_blocks("s14", t2)
    _check(rel2.coordinates == coord, "second-plane coordinate relations drifted")
    _check(rel2.differentials == diff, "second-plane differential relations drifted")
    _check(rel2.mixed == mixed_rules_s14(kplus, kzero), "second-plane rewrite rules drifted")
    return "both planes consistent, blocks and rewrite rules exactly as displayed"


def _random_scalar(rng: random.Random, table: SymbolTable, names, terms: int = 3) -> Scalar:
    """A sum of 1..terms random terms (p/q + r/s*i) * prod name^k.

    p, r lie in -6..6, q, s in 1..4 and each k in -2..2, drawn in that
    order per term, each as int(rng.random() * n) for a range of n
    integers.  The value is built as one polynomial over 12*prod name^2,
    which clears every q, s and negative k.
    """
    draw = rng.random
    positions = [table.index(name) for name in names]
    num = {}
    for _ in range(1 + int(draw() * terms)):
        re = (int(draw() * 13) - 6) * (12 // (1 + int(draw() * 4)))
        im = (int(draw() * 13) - 6) * (12 // (1 + int(draw() * 4)))
        exps = [0] * table.n
        for k in positions:
            exps[k] = int(draw() * 5)  # the exponent plus 2
        key = table._pack(exps)
        old_re, old_im = num.get(key, (0, 0))
        re, im = old_re + re, old_im + im
        if re or im:
            num[key] = (re, im)
        else:
            num.pop(key, None)
    den = table._pack([2 if k in positions else 0 for k in range(table.n)])
    return Scalar(table, num, {den: (12, 0)})


_PLUMBING_CASES = 1000


def _case_draws(rng: random.Random, table: SymbolTable, index: int) -> List[Scalar]:
    """The random scalars plumbing case `index` checks.

    Case kind 8 draws four 2x2 matrices, over x, y, x and y alone; kind 9
    one 2x2 matrix over x and y; every other kind three scalars over x
    and y.  Matrix entries have at most two terms and come row by row.
    """
    kind = index % 10
    if kind == 8:
        return [_random_scalar(rng, table, names, 2)
                for names in (("x",), ("y",), ("x",), ("y",)) for _ in range(4)]
    if kind == 9:
        return [_random_scalar(rng, table, ("x", "y"), 2) for _ in range(4)]
    return [_random_scalar(rng, table, ("x", "y"), 3) for _ in range(3)]


def _check_case(table: SymbolTable, index: int, values: List[Scalar]) -> None:
    kind = index % 10
    if kind == 8:
        a, b, c, d = (SquareMatrix(table, [values[k:k + 2], values[k + 2:k + 4]])
                      for k in (0, 4, 8, 12))
        _check(a.kron(b) * c.kron(d) == (a * c).kron(b * d),
               f"mixed-product rule failed on case {index}")
        return
    if kind == 9:
        m = SquareMatrix(table, [values[:2], values[2:]])
        obj = json.loads(json.dumps(matrix_to_obj(m)))
        _check(matrix_from_obj(obj, table) == m,
               f"matrix serialisation failed to round-trip on case {index}")
        return
    a, b, c = values
    # each enters more than one identity below: formed once, checked in each
    ab, a_plus_b, b_plus_c = a * b, a + b, b + c
    _check(a_plus_b == b + a and ab == b * a, f"commutativity failed on case {index}")
    _check(a_plus_b + c == a + b_plus_c, f"additive associativity failed on case {index}")
    _check(ab * c == a * (b * c), f"multiplicative associativity failed on case {index}")
    _check(a * b_plus_c == ab + a * c, f"distributivity failed on case {index}")
    _check((a - a).is_zero(), f"additive inverse failed on case {index}")
    if not b.is_zero():
        _check((a / b) * b == a, f"division failed on case {index}")
    _check((a * a.conjugate()).is_real(), f"norm realness failed on case {index}")
    text = str(a)
    parsed = parse(text, table)
    _check(parsed == a and str(parsed) == text,
           f"print/parse round-trip failed on case {index}")


def _check_cases(seed: int, lo: int, hi: int) -> str:
    """Check plumbing cases lo..hi-1 of the seed; raise at the first failure.

    Case `index` draws from its own stream, random.Random(f"{seed}/{index}"),
    so its inputs do not depend on which chunk checks it.
    """
    table = SymbolTable(["x", "y"])
    for index in range(lo, hi):
        _check_case(table, index, _case_draws(random.Random(f"{seed}/{index}"), table, index))
    return (f"{_PLUMBING_CASES} randomised cases (field axioms, round-trips, tensor products), "
            f"seed {seed}")


def _cpu_count() -> int:
    """The CPUs this process may run on, at most 10: one worker and one plumbing chunk each."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, 10)


_SECTIONS: Tuple[Tuple[str, Callable[[Optional[str]], str]], ...] = (
    ("minimal-polynomials", _sec_minimal_polynomials),
    ("projector-suites", _sec_projector_suites),
    ("constant-ybe", _sec_constant_ybe),
    ("s03-baxterisation", _sec_s03_baxterisation),
    ("functional-equations", _sec_functional_equations),
    ("s14-combinations", _sec_s14_combinations),
    ("inverses-diagonalizers", _sec_inverses_diagonalizers),
    ("noncommutative-planes", _sec_noncommutative_planes),
)


def _run_task(run: Callable[[], str]) -> list:
    """One task's [holds, detail, start, end]."""
    start = time.perf_counter()
    holds, detail = _outcome(run)
    return [holds, detail, start, time.perf_counter()]


def _take(queue: int, tasks: list, answer: Callable[[int, list], None]) -> None:
    """Take one task index at a time off the queue pipe until it is empty,
    answer(index, result) for each."""
    while True:
        byte = os.read(queue, 1)
        if not byte:
            return
        answer(byte[0], _run_task(tasks[byte[0]]))


def _fork_worker(queue: int, tasks: list) -> Tuple[int, int]:
    """A forked worker taking tasks off the queue; its pid and the pipe it answers on.

    The worker writes each result as one flushed JSON line [index, result]
    as soon as its task ends, and exits 0 once the queue is empty.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            with os.fdopen(write, "wb") as pipe:
                def answer(index: int, result: list) -> None:
                    pipe.write(json.dumps([index, result]).encode() + b"\n")
                    pipe.flush()

                _take(queue, tasks, answer)
            status = 0
        finally:
            # never return into the parent's code, nor flush its buffers
            os._exit(status)
    os.close(write)
    return pid, read


def _answers(pid: int, read: int, results: dict) -> int:
    """Read a worker's complete answer lines into results, reap it; its exit status."""
    with os.fdopen(read, "rb") as pipe:
        results.update(json.loads(line) for line in pipe if line.endswith(b"\n"))
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _pool(tasks: list, workers: int) -> Tuple[dict, int]:
    """Each task's result by index, and the exit status of the first child,
    in fork order, that exited nonzero (else 0).

    One worker is the process itself, taking the tasks in order.  Else a
    pipe holds one byte per task index, and the process and workers - 1
    forked children take one at a time until it is empty.  A task left
    without a result was running in a child that died.  Should the
    process raise, every child is killed and reaped.
    """
    if workers == 1:
        return {index: _run_task(run) for index, run in enumerate(tasks)}, 0
    queue, feed = os.pipe()
    os.write(feed, bytes(range(len(tasks))))
    os.close(feed)
    children, results = [], {}
    try:
        for _ in range(workers - 1):
            children.append(_fork_worker(queue, tasks))
        _take(queue, tasks, results.__setitem__)
    except BaseException:
        import signal

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(queue)
        codes = [_answers(pid, read, results) for pid, read in children]
    return results, next((code for code in codes if code), 0)


def _run_tasks(tasks: list, workers: int, names: Iterable[str]) -> Tuple[Section, ...]:
    """The named sections, in that order, of (section name, lost-task label,
    run) tasks run as one pool over workers processes.

    A section holds when all its tasks hold; its detail is the first
    failing task's in queue order, else the first task's.
    """
    results, code = _pool([run for _, _, run in tasks], workers)
    sections = []
    for name in names:
        mine = [index for index, task in enumerate(tasks) if task[0] == name]
        outcomes = [results[index][:2] if index in results else
                    (False, f"{tasks[index][1]} ended without a result (exit status {code})")
                    for index in mine]
        spans = [results[index][2:] for index in mine if index in results]
        elapsed = max(end for _, end in spans) - min(start for start, _ in spans) if spans else 0.0
        detail = next((detail for holds, detail in outcomes if not holds), outcomes[0][1])
        sections.append(Section(name, all(holds for holds, _ in outcomes), detail, elapsed))
    return tuple(sections)


def run_all(seed: int = 0, fault: Optional[str] = None) -> Report:
    """Run every section; failures become report entries, never exceptions.

    The queue holds one plumbing chunk per worker, then the eight other
    sections in order.  With one CPU, no fork or another live thread (a
    fork copies only the calling thread) the process takes every task.
    """
    import threading  # here, like signal in _pool, so that importing the package loads neither

    if fault is not None and fault not in FAULT_TARGETS:
        raise ValueError(f"unknown fault target {fault!r}")
    workers = _cpu_count()
    if not hasattr(os, "fork") or threading.active_count() > 1:
        workers = 1
    bounds = [_PLUMBING_CASES * k // workers for k in range(workers + 1)]
    tasks = [("plumbing", f"plumbing cases {lo}..{hi - 1}",
              functools.partial(_check_cases, seed, lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    tasks += [(name, "section", functools.partial(run, fault)) for name, run in _SECTIONS]
    names = [name for name, _ in _SECTIONS] + ["plumbing"]
    return Report(_run_tasks(tasks, workers, names), {"seed": seed})
