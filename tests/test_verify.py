"""End-to-end self-check harness: clean pass and fault injection."""

import pytest

from braidbax import Report, run_all

from conftest import golden, without_elapsed

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


def test_unknown_fault_target_is_rejected():
    with pytest.raises(ValueError):
        run_all(fault="s99")
