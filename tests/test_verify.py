"""End-to-end self-check harness: clean pass and fault injection."""

import fcntl
import os
import random
import struct
import termios
import time
from fractions import Fraction

import pytest

from braidbax import Report, SquareMatrix, SymbolTable, builtin_case, run_all, verify
from braidbax.verify import (
    FAULT_TARGETS,
    CheckFailed,
    _random_scalar,
)

from conftest import count_difference_builds, golden, find_section, without_elapsed

SECTION_ORDER = (
    "minimal-polynomials",
    "projector-suites",
    "constant-ybe",
    "s03-baxterisation",
    "functional-equations",
    "s14-combinations",
    "inverses-diagonalizers",
    "noncommutative-planes",
    "plumbing",
)


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test ends with no child process left, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_clean_run_passes_every_section(clean_report):
    assert isinstance(clean_report, Report)
    assert clean_report.holds
    assert tuple(s.name for s in clean_report.sections) == SECTION_ORDER
    for section in clean_report.sections:
        assert section.holds, f"{section.name}: {section.detail}"
        assert section.detail
        assert section.elapsed >= 0


def test_report_serialization_shape(clean_report):
    obj = clean_report.to_obj()
    assert obj["holds"] is True
    assert obj["seed"] == 0
    assert [s["name"] for s in obj["sections"]] == list(SECTION_ORDER)
    for entry in obj["sections"]:
        assert sorted(entry) == ["detail", "elapsed", "holds", "name"]
    text = clean_report.lines()
    assert len(text) == len(SECTION_ORDER) + 1
    assert all(line.startswith("[  ok]") for line in text[:-1])
    assert text[-1] == "overall: ok"
    assert text == golden()["verify"]["clean-lines"]
    assert without_elapsed(obj) == golden()["verify"]["clean-obj"]


def test_section_lookup(clean_report):
    assert find_section(clean_report, "plumbing").holds
    with pytest.raises(ValueError):
        find_section(clean_report, "nonexistent")


def test_injected_fault_hits_exactly_the_dependent_sections():
    report = run_all(seed=0, fault="s14")
    assert not report.holds
    failed = {s.name for s in report.sections if not s.holds}
    assert failed == {
        "minimal-polynomials",
        "projector-suites",
        "constant-ybe",
        "s14-combinations",
        "inverses-diagonalizers",
        "noncommutative-planes",
    }
    # sections that never touch the perturbed matrix stay green
    for name in ("s03-baxterisation", "functional-equations", "plumbing"):
        assert find_section(report, name).holds
    # failures carry a human-readable reason
    for section in report.sections:
        if not section.holds:
            assert section.detail
    assert report.lines()[-1] == "overall: FAIL"
    assert report.lines() == golden()["verify"]["fault-s14-lines"]
    assert without_elapsed(report.to_obj()) == golden()["verify"]["fault-s14-obj"]


def test_moved_claims_fail_the_sections_that_hold_them(monkeypatch):
    def failed_sections():
        monkeypatch.setattr(verify, "_cpu_count", lambda: 1)
        return {s.name: s.detail for s in run_all().sections if not s.holds}

    monkeypatch.setattr(verify, "f_aux", lambda k_squared, x: x)
    assert failed_sections() == {
        "functional-equations": "a(x) differs from f(x)/f(1/x) - 1 for the auxiliary function f",
    }
    monkeypatch.undo()
    monkeypatch.setattr(verify, "power_reduction_residual",
                        lambda b, cx, cy, cxy: SquareMatrix.identity(b.table, 8))
    assert failed_sections() == {
        "constant-ybe":
            "second braided matrix fails the first collapse stage in free coefficients",
        "s03-baxterisation": "first collapse stage fails in free coefficients",
    }
    monkeypatch.undo()
    monkeypatch.setattr(verify, "_letter_claim_residuals",
                        lambda t: {"xix": SquareMatrix.identity(t.table, 8)})
    assert failed_sections() == {
        "s14-combinations": "letter differences off the span: xix",
    }


def test_s14_section_builds_each_letter_difference_once(monkeypatch):
    _, built = count_difference_builds(monkeypatch)
    monkeypatch.setattr(verify, "_cpu_count", lambda: 1)
    assert find_section(run_all(), "s14-combinations").holds
    assert len(built) == 27
    assert sorted(built) == sorted(a + b + c for a in "ixy" for b in "ixy" for c in "ixy")


def test_projector_suites_take_the_spectral_path_for_both_cases(monkeypatch):
    seen = []
    real = verify.lagrange_projectors

    def recorder(a, roots):
        seen.append(a)
        return real(a, roots)

    monkeypatch.setattr(verify, "lagrange_projectors", recorder)
    monkeypatch.setattr(verify, "_cpu_count", lambda: 1)
    section = find_section(run_all(), "projector-suites")
    assert section.holds, section.detail
    assert seen == [builtin_case("s03").rhat, builtin_case("s14").rhat]


def _golden_projector_detail(fault):
    if fault == "s03":
        sections = golden()["verify"]["cli-fault-s03-json"]["stdout"]["sections"]
    else:
        sections = golden()["verify"]["fault-s14-obj"]["sections"]
    (detail,) = [s["detail"] for s in sections if s["name"] == "projector-suites"]
    return detail


@pytest.mark.parametrize("fault", FAULT_TARGETS)
def test_projector_suites_fail_under_each_fault_with_the_golden_detail(fault):
    section = find_section(run_all(0, fault), "projector-suites")
    assert not section.holds
    assert section.detail == _golden_projector_detail(fault)


def test_unknown_fault_target_is_rejected():
    with pytest.raises(ValueError):
        run_all(fault="s99")


def _pool_report(monkeypatch, workers, seed=0, fault=None):
    """run_all over the given worker count; every child reaped after it."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(verify, "_cpu_count", lambda: workers)
    monkeypatch.setattr(os, "fork", fork)
    try:
        report = run_all(seed, fault)
    finally:
        monkeypatch.setattr(os, "fork", real_fork)
    assert len(forks) == workers - 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return report


def _outcomes(report):
    return [(s.name, s.holds, s.detail) for s in report.sections]


def _parent_waits_until(monkeypatch, remaining):
    """The process takes no task while more than `remaining` are left on the queue.

    So the children take the tasks first in the queue, whatever the
    timing; after 10 s the process goes ahead anyway.
    """
    parent, real_take = os.getpid(), verify._take

    def take(queue, *args):
        deadline = time.monotonic() + 10
        while os.getpid() == parent and time.monotonic() < deadline:
            (left,) = struct.unpack("i", fcntl.ioctl(queue, termios.FIONREAD, b"\0" * 4))
            if left <= remaining:
                break
            time.sleep(0.001)
        return real_take(queue, *args)

    monkeypatch.setattr(verify, "_take", take)


def _record_claims(monkeypatch, path, after=lambda taken: None):
    """Append "pid index" to path for each task any worker takes, then call after().

    after(taken) gets the indices this worker has taken so far.
    """
    real_take = verify._take

    def take(queue, tasks, claim=lambda index: None):
        taken = []

        def record(index):
            claim(index)
            taken.append(index)
            fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, b"%d %d\n" % (os.getpid(), index))
            finally:
                os.close(fd)
            after(taken)

        return real_take(queue, tasks, record)

    monkeypatch.setattr(verify, "_take", take)


def _claims(path):
    """{pid: [task index, ...]} from the lines _record_claims wrote."""
    claims = {}
    for line in path.read_text().splitlines():
        pid, index = map(int, line.split())
        claims.setdefault(pid, []).append(index)
    return claims


def _fail_plumbing_at(monkeypatch, failures):
    """Replace each plumbing case's check: failures[index](index) runs there, nothing elsewhere."""
    def check(table, index, values):
        if index in failures:
            failures[index](index)

    monkeypatch.setattr(verify, "_check_case", check)


def _check_failed(index):
    raise CheckFailed(f"commutativity failed on case {index}")


def _zero_division(index):
    raise ZeroDivisionError("division by zero")


def _record_cases(monkeypatch):
    """The (index, printed values) of each plumbing case checked from now on."""
    seen = []
    monkeypatch.setattr(verify, "_check_case",
                        lambda table, index, values: seen.append((index, list(map(str, values)))))
    return seen


def test_a_chunk_checks_the_cases_a_one_chunk_run_gives_it(monkeypatch):
    seen = _record_cases(monkeypatch)
    success = "1000 randomised cases (field axioms, round-trips, tensor products), seed 5"
    assert verify._check_cases(5, 0, 1000) == success
    whole = seen[:]
    seen.clear()
    for lo, hi in ((0, 333), (333, 667), (667, 1000)):
        assert verify._check_cases(5, lo, hi) == success
    assert [index for index, _ in whole] == list(range(1000))
    assert seen == whole


def test_each_seed_draws_its_own_cases(monkeypatch):
    seen = _record_cases(monkeypatch)
    seeds = (0, 1, -1, 10 ** 50)
    for seed in seeds:
        verify._check_cases(seed, 0, 1)
    assert [index for index, _ in seen] == [0] * len(seeds)
    assert len({tuple(values) for _, values in seen}) == len(seeds)


@pytest.mark.parametrize("seed", [0, 1, 2, -1])
def test_plumbing_report_does_not_depend_on_the_chunk_count(seed, monkeypatch):
    seen = {tuple(_outcomes(_pool_report(monkeypatch, workers, seed))) for workers in (1, 2, 4)}
    assert len(seen) == 1
    (outcomes,) = seen
    assert [name for name, _, _ in outcomes] == list(SECTION_ORDER)
    assert all(holds for _, holds, _ in outcomes)
    assert outcomes[-1] == (
        "plumbing", True,
        f"1000 randomised cases (field axioms, round-trips, tensor products), seed {seed}",
    )


@pytest.mark.parametrize("fault", FAULT_TARGETS)
def test_a_faulty_report_does_not_depend_on_the_worker_count(fault, monkeypatch):
    if fault == "s03":
        want = golden()["verify"]["cli-fault-s03-json"]["stdout"]["sections"]
    else:
        want = golden()["verify"]["fault-s14-obj"]["sections"]
    want = [(s["name"], s["holds"], s["detail"]) for s in want]
    for workers in (1, 2, 4):
        assert _outcomes(_pool_report(monkeypatch, workers, 0, fault)) == want, workers


def test_a_section_that_raises_in_a_child_reads_as_in_one_process(monkeypatch):
    def raise_zero_division(rhat):
        raise ZeroDivisionError("division by zero")

    _fail_plumbing_at(monkeypatch, {})
    monkeypatch.setattr(verify, "braid_ybe_residual", raise_zero_division)
    one = _outcomes(_pool_report(monkeypatch, 1))
    assert one[2] == ("constant-ybe", False, "ZeroDivisionError: division by zero")
    assert sum(not holds for _, holds, _ in one) == 1
    _parent_waits_until(monkeypatch, 0)
    for workers in (2, 4):
        assert _outcomes(_pool_report(monkeypatch, workers)) == one, workers


@pytest.mark.parametrize("fail, detail", [
    (_check_failed, "commutativity failed on case 777"),
    (_zero_division, "ZeroDivisionError: division by zero"),
])
def test_a_failure_in_a_child_chunk_reads_as_in_one_chunk(fail, detail, monkeypatch):
    _fail_plumbing_at(monkeypatch, {777: fail})
    section = find_section(_pool_report(monkeypatch, 1), "plumbing")
    assert (section.holds, section.detail) == (False, detail)
    _parent_waits_until(monkeypatch, 0)
    for workers in (2, 4):
        section = find_section(_pool_report(monkeypatch, workers), "plumbing")
        assert (section.holds, section.detail) == (False, detail), workers


def test_the_lowest_failing_case_wins_across_chunks(monkeypatch):
    _fail_plumbing_at(monkeypatch, {index: _check_failed for index in (950, 800, 300)})
    for workers in (1, 2, 4):
        section = find_section(_pool_report(monkeypatch, workers), "plumbing")
        assert (section.holds, section.detail) == (False, "commutativity failed on case 300")


def test_a_child_that_exits_without_a_result_fails_the_section(monkeypatch):
    parent = os.getpid()

    def leave(index):
        if os.getpid() != parent:
            os._exit(3)

    _fail_plumbing_at(monkeypatch, {700: leave})
    # the one child takes both chunks and dies in the second: both are lost
    _parent_waits_until(monkeypatch, len(SECTION_ORDER) - 1)
    report = _pool_report(monkeypatch, 2)
    assert [s.name for s in report.sections if not s.holds] == ["plumbing"]
    section = find_section(report, "plumbing")
    assert section.detail == "plumbing cases 0..499 ended without a result (exit status 3)"


@pytest.mark.parametrize("workers", (2, 4))
def test_a_child_that_exits_fails_exactly_the_tasks_it_took(workers, monkeypatch, tmp_path):
    """Each child leaves by os._exit(3) on taking its second task, which it never runs."""
    parent, path = os.getpid(), tmp_path / "claims"

    def after(taken):
        if os.getpid() != parent and len(taken) == 2:
            os._exit(3)

    _fail_plumbing_at(monkeypatch, {})
    clean = _outcomes(_pool_report(monkeypatch, 1))
    _record_claims(monkeypatch, path, after)
    report = _pool_report(monkeypatch, workers)
    lost = sorted(index for pid, taken in _claims(path).items() if pid != parent
                  for index in taken)
    chunks = [(1000 * k // workers, 1000 * (k + 1) // workers - 1) for k in range(workers)]
    want = []
    for index, (name, holds, detail) in enumerate(clean[:-1], workers):
        if index in lost:
            holds, detail = False, "section ended without a result (exit status 3)"
        want.append((name, holds, detail))
    lost_chunks = [chunks[index] for index in lost if index < workers]
    if lost_chunks:
        lo, hi = lost_chunks[0]
        want.append(("plumbing", False,
                     f"plumbing cases {lo}..{hi} ended without a result (exit status 3)"))
    else:
        want.append(clean[-1])
    assert _outcomes(report) == want


def test_children_are_reaped_when_the_parent_chunk_raises(monkeypatch):
    class Interrupt(BaseException):
        pass

    parent = os.getpid()

    def run(task):
        if os.getpid() == parent:
            raise Interrupt
        time.sleep(60)  # a child still busy: only the kill ends it in time

    monkeypatch.setattr(verify, "_run_task", run)
    start = time.monotonic()
    with pytest.raises(Interrupt):
        _pool_report(monkeypatch, 4)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _random_scalar_by_arithmetic(rng, table, names, terms=3):
    # the plumbing inputs built term by term through the field operations,
    # each integer in lo..hi drawn as lo + int(rng.random() * (hi - lo + 1)):
    # the reference that the direct one-polynomial builder must reproduce
    def pick(lo, hi):
        return lo + int(rng.random() * (hi - lo + 1))

    total = table.zero()
    for _ in range(pick(1, terms)):
        coeff = table.scalar(Fraction(pick(-6, 6), pick(1, 4)))
        coeff = coeff + table.scalar(Fraction(pick(-6, 6), pick(1, 4))) * table.i()
        mono = table.one()
        for name in names:
            mono = mono * table.symbol(name) ** pick(-2, 2)
        total = total + coeff * mono
    return total


@pytest.mark.parametrize("names", [("x", "y"), ("x",), ("y",)])
def test_random_scalar_matches_the_arithmetic_build(names):
    table = SymbolTable(["x", "y"])
    for seed in range(300):
        direct, reference = random.Random(seed), random.Random(seed)
        for terms in (3, 2):
            got = _random_scalar(direct, table, names, terms)
            want = _random_scalar_by_arithmetic(reference, table, names, terms)
            assert (got.num, got.den) == (want.num, want.den), (seed, terms)
        assert direct.getstate() == reference.getstate()
