"""End-to-end self-check harness: clean pass and fault injection."""

import random
from fractions import Fraction

import pytest

from braidbax import Report, SquareMatrix, SymbolTable, builtin_case, run_all, verify
from braidbax.verify import FAULT_TARGETS, _random_scalar, run_checks, section_checks

from conftest import count_difference_builds, golden, without_elapsed

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
    assert clean_report.section("plumbing").holds
    with pytest.raises(KeyError):
        clean_report.section("nonexistent")


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
        assert report.section(name).holds
    # failures carry a human-readable reason
    for section in report.sections:
        if not section.holds:
            assert section.detail
    assert report.lines()[-1] == "overall: FAIL"
    assert report.lines() == golden()["verify"]["fault-s14-lines"]
    assert without_elapsed(report.to_obj()) == golden()["verify"]["fault-s14-obj"]


def test_moved_claims_fail_the_sections_that_hold_them(monkeypatch):
    def failed_sections():
        checks = [check for check in section_checks() if check[0] != "plumbing"]
        return {s.name: s.detail for s in run_checks(checks) if not s.holds}

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
    assert verify._sec_s14_combinations(0, None)
    assert len(built) == 27
    assert sorted(built) == sorted(a + b + c for a in "ixy" for b in "ixy" for c in "ixy")


def test_projector_suites_take_the_spectral_path_for_both_cases(monkeypatch):
    seen = []
    real = verify.lagrange_projectors

    def recorder(a, roots):
        seen.append(a)
        return real(a, roots)

    monkeypatch.setattr(verify, "lagrange_projectors", recorder)
    (section,) = run_checks([c for c in section_checks() if c[0] == "projector-suites"])
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
    (section,) = run_checks([c for c in section_checks(0, fault) if c[0] == "projector-suites"])
    assert not section.holds
    assert section.detail == _golden_projector_detail(fault)


def test_unknown_fault_target_is_rejected():
    with pytest.raises(ValueError):
        run_all(fault="s99")


def _random_scalar_by_arithmetic(rng, table, names, terms=3):
    # the plumbing inputs built term by term through the field operations:
    # the reference that the direct one-polynomial builder must reproduce
    total = table.zero()
    for _ in range(rng.randint(1, terms)):
        coeff = table.scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        coeff = coeff + table.scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 4))) * table.i()
        mono = table.one()
        for name in names:
            mono = mono * table.symbol(name) ** rng.randint(-2, 2)
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
