"""Command-line interface: exit codes, text output, JSON reports."""

import contextlib
import io
import json
import re
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, strategies as st

from braidbax import SymbolTable, builtin_case, matrix_from_obj
from braidbax import cli
from braidbax.cli import main
from braidbax.scalar import MAX_GCD_DEGREE

from conftest import golden, without_elapsed

MATRIX_SCHEMA = {
    "type": "object",
    "required": ["n", "symbols", "entries"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "symbols": {"type": "array", "items": {"type": "string"}},
        "entries": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "string"}},
        },
    },
}

ANALYZE_SCHEMA = {
    "type": "object",
    "required": [
        "verb", "target", "holds", "matrix",
        "minimal_polynomial", "eigenvalues", "projectors", "sections",
    ],
    "properties": {
        "verb": {"const": "analyze"},
        "holds": {"type": "boolean"},
        "matrix": MATRIX_SCHEMA,
        "minimal_polynomial": {"type": "string"},
        "eigenvalues": {"type": "array", "items": {"type": "string"}},
        "projectors": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["eigenvalue", "matrix"],
                "properties": {
                    "eigenvalue": {"type": "string"},
                    "matrix": MATRIX_SCHEMA,
                },
            },
        },
        "sections": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "holds", "detail"],
            },
        },
    },
}

VERIFY_SCHEMA = {
    "type": "object",
    "required": ["verb", "holds", "seed", "sections"],
    "properties": {
        "verb": {"const": "verify-all"},
        "holds": {"type": "boolean"},
        "seed": {"type": "integer"},
        "sections": {
            "type": "array",
            "minItems": 9,
            "maxItems": 9,
            "items": {
                "type": "object",
                "required": ["name", "holds", "detail", "elapsed"],
            },
        },
    },
}


def _write_matrix(path, n, symbols, entries):
    path.write_text(json.dumps({"n": n, "symbols": symbols, "entries": entries}))
    return str(path)


# ------------------------------------------------------------------- analyze


def test_analyze_builtin_text(capsys):
    assert main(["analyze", "s03"]) == 0
    out = capsys.readouterr().out
    assert "minimal polynomial: t^2 - 2*t + 2" in out
    assert "[  ok] published-data" in out
    assert out.rstrip().endswith("overall: ok")


def test_analyze_builtin_json_matches_the_case_data(capsys):
    assert main(["analyze", "s14", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, ANALYZE_SCHEMA)
    assert report["holds"] is True
    assert report["minimal_polynomial"] == "t^3 - t^2 - q^2*t + q^2"
    assert sorted(report["eigenvalues"]) == sorted(["-q", "1", "q"])
    # the matrix in the report re-parses to the built-in braid matrix
    case = builtin_case("s14")
    assert matrix_from_obj(report["matrix"], case.table) == case.rhat


def test_analyze_accepts_a_matrix_file(tmp_path, capsys):
    target = _write_matrix(tmp_path / "m.json", 2, [], [["1", "0"], ["0", "1"]])
    assert main(["analyze", f"file:{target}"]) == 0
    out = capsys.readouterr().out
    assert "minimal polynomial: t - 1" in out
    assert "projector at 1:" in out
    assert "skipped: braid relation needs a 4x4 matrix" in out


def test_matrix_files_are_bounded_in_dimension(tmp_path, capsys):
    identity = [["1" if r == c else "0" for c in range(16)] for r in range(16)]
    target = _write_matrix(tmp_path / "m16.json", 16, [], identity)
    assert main(["analyze", f"file:{target}"]) == 0
    assert "minimal polynomial: t - 1" in capsys.readouterr().out
    # rejected before any entry is read: these would not parse
    target = _write_matrix(tmp_path / "m17.json", 17, [], [["1 +"] * 17] * 17)
    assert main(["analyze", f"file:{target}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"input error: {target} does not describe a matrix: "
        "matrix dimension 17 is beyond the limit 16"]


def test_analyze_symbolic_file(tmp_path, capsys):
    target = _write_matrix(
        tmp_path / "m.json", 2, ["u"], [["0", "u"], ["-u", "0"]]
    )
    assert main(["analyze", f"file:{target}"]) == 0
    out = capsys.readouterr().out
    assert "i*u" in out


def test_analyze_missing_spectrum_is_an_input_error(tmp_path, capsys):
    target = _write_matrix(tmp_path / "m.json", 2, [], [["0", "1"], ["2", "0"]])
    assert main(["analyze", f"file:{target}"]) == 3
    err = capsys.readouterr().err
    assert "input error: spectrum not found" in err
    assert "t^2 - 2" in err


def test_analyze_repeated_roots_is_an_input_error(tmp_path, capsys):
    target = _write_matrix(tmp_path / "m.json", 2, ["u"], [["1", "u"], ["0", "1"]])
    assert main(["analyze", f"file:{target}"]) == 3
    assert "not diagonalisable" in capsys.readouterr().err


def test_analyze_rejects_broken_files(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["analyze", f"file:{missing}"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", f"file:{bad}"]) == 3
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"n": 2, "symbols": []}))
    assert main(["analyze", f"file:{malformed}"]) == 3
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    assert main(["analyze", f"file:{binary}"]) == 3
    boolean = tmp_path / "boolean.json"
    boolean.write_text(json.dumps({"n": True, "symbols": [], "entries": [["5"]]}))
    assert main(["analyze", f"file:{boolean}"]) == 3
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        f"input error: {boolean} does not describe a matrix: "
        "matrix dimension must be a positive integer")
    numeric = _write_matrix(tmp_path / "numeric.json", 1, [], [[5]])
    assert main(["analyze", f"file:{numeric}"]) == 3
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        f"input error: {numeric} does not describe a matrix: matrix entries must be strings")
    pole = _write_matrix(tmp_path / "pole.json", 2, [], [["1/0", "0"], ["0", "1"]])
    assert main(["analyze", f"file:{pole}"]) == 3
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"input error: {pole} does not describe a matrix: division by zero"
    reserved = _write_matrix(tmp_path / "reserved.json", 2, ["t"], [["t", "0"], ["0", "2*t"]])
    assert main(["analyze", f"file:{reserved}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"input error: {reserved} does not describe a matrix: "
        "symbol 't' is reserved for the minimal polynomial's variable"]


def test_out_flag_writes_the_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["analyze", "s03", "--format", "json", "--out", str(out_path)])
    assert code == 0
    capsys.readouterr()
    report = json.loads(out_path.read_text())
    jsonschema.validate(report, ANALYZE_SCHEMA)


def test_out_flag_to_an_unwritable_path_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # a relative path, short enough to be quoted whole
    monkeypatch.chdir(tmp_path)
    out_path = "missing/report.json"
    assert main(["analyze", "s03", "--out", out_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot write {out_path}: ")
    assert err.count("\n") == 1


# ----------------------------------------------------------------- baxterize


def test_baxterize_s03_default_power(capsys):
    assert main(["baxterize", "s03"]) == 0
    out = capsys.readouterr().out
    assert "(p = -2)" in out
    assert "[  ok] parameterised-braid" in out
    assert "[  ok] coefficient-law" in out
    assert "[  ok] reparametrised-branch" in out


def test_baxterize_s03_odd_power_skips_the_branch_check(capsys):
    assert main(["baxterize", "s03", "--p", "3"]) == 0
    out = capsys.readouterr().out
    assert "reparametrised" not in out
    assert "overall: ok" in out


@pytest.mark.parametrize("p", [1001, -1001])
def test_baxterize_s03_exponent_beyond_the_limit_is_an_input_error(p, capsys):
    assert main(["baxterize", "s03", f"--p={p}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: --p must lie in -1000..1000, not {p}\n"


@pytest.mark.parametrize("p", [1000, -1000])
def test_baxterize_s03_exponent_at_the_limit_still_runs(p, capsys):
    assert main(["baxterize", "s03", f"--p={p}"]) == 0
    assert "overall: ok" in capsys.readouterr().out


def test_baxterize_s14_default(capsys):
    assert main(["baxterize", "s14"]) == 0
    out = capsys.readouterr().out
    assert "[  ok] triplet-free-braid" in out
    assert "[  ok] coefficient-formulas" in out
    assert "[  ok] exchange-relations" in out


def test_baxterize_s14_constrained_triplet(capsys):
    code = main([
        "baxterize", "s14",
        "--triplet", "v,-2-v,vp,-2-vp,vpp,-2-vpp",
        "--format", "json",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["holds"] is True
    assert set(report["coefficients"].values()) == {"0"}


def test_baxterize_s14_unconstrained_triplet_fails(capsys):
    code = main(["baxterize", "s14", "--triplet", "1,0,1,0,1,0", "--format", "json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["holds"] is False
    assert report["coefficients"]["a1"] == "9/4"
    assert report["triplet"] == [["1", "0"], ["1", "0"], ["1", "0"]]


# ------------------------------------------------------------------- ncplane


def test_ncplane_s03_symbolic(capsys):
    assert main(["ncplane", "s03"]) == 0
    out = capsys.readouterr().out
    assert "x1*xi1 = (c - 1)*xi1*x1 + c*xi1*x2" in out
    assert "[  ok] rewrite-rules" in out


def test_ncplane_s03_degenerate_parameter(capsys):
    assert main(["ncplane", "s03", "--c", "0"]) == 0
    assert "x1*xi1 = -xi1*x1" in capsys.readouterr().out


def test_ncplane_s14_numeric(capsys):
    assert main(["ncplane", "s14", "--kplus", "1", "--kzero", "1"]) == 0
    out = capsys.readouterr().out
    assert "x1*xi1 = xi2*x2" in out


def test_ncplane_s14_two_symbol_pivots_print_as_one(capsys):
    # each echelon row is divided by its pivot; with two symbols that
    # quotient is P/P for a non-monomial P and must still print as 1
    assert main(["ncplane", "s14", "--kplus=(a+b)/(a-b)", "--kzero=a/(b+1)"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:6] == ["  x1*x1 - x2*x2 = 0", "  xi1*xi1 + xi2*xi2 = 0",
                          "  xi1*xi2 = 0", "  xi2*xi1 = 0"]


def test_ncplane_bad_parameter_expression(capsys):
    assert main(["ncplane", "s03", "--c", "2 +"]) == 3
    assert "input error" in capsys.readouterr().err
    assert main(["ncplane", "s03", "--c", "(" * 400 + "1" + ")" * 400]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "nesting deeper than 100 levels" in err


@pytest.mark.parametrize("argv, name", [
    (["ncplane", "s03", "--c=x1"], "x1"),
    (["ncplane", "s03", "--c=2*xi1 + c"], "xi1"),
    (["ncplane", "s14", "--kplus=x2"], "x2"),
    (["ncplane", "s14", "--kplus=1", "--kzero=xi2/2"], "xi2"),
])
def test_ncplane_parameters_named_like_generators_are_input_errors(argv, name, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"input error: symbol {name!r} is reserved for the plane's generators"]


@pytest.mark.parametrize("text, degree", [("(a+1)^1001", 1001), ("((a+1)^40)^40", 1600)])
def test_ncplane_power_beyond_the_limit_is_an_input_error(text, degree, capsys):
    assert main(["ncplane", "s03", f"--c={text}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"input error: cannot parse parameter {text!r}: power of a sum reaches total "
        f"degree {degree}, beyond the limit 1000 (at position {text.rindex('^') + 1})"]


def test_analyze_file_power_beyond_the_limit_is_an_input_error(tmp_path, capsys):
    target = _write_matrix(tmp_path / "power.json", 2, ["x"], [["(x+1)^1001", "0"], ["0", "1"]])
    assert main(["analyze", f"file:{target}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"input error: {target} does not describe a matrix: power of a sum reaches "
        "total degree 1001, beyond the limit 1000 (at position 6)"]


def test_a_limit_reached_inside_a_check_is_an_input_error(tmp_path, capsys):
    # the spectrum stays under the exponent bound; the braid residual's
    # triple products pass it, inside the constant-ybe check
    big = "x^659706976666"
    target = _write_matrix(tmp_path / "limit.json", 4, ["x"], [
        ["0", big, "0", "0"], ["1", "0", "0", "0"], ["0", "0", "0", big], ["0", "0", "1", "0"]])
    assert main(["analyze", f"file:{target}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "input error: exponent of x beyond the limit 1099511627775"]


@pytest.mark.parametrize("entries, prefix", [
    # the minimal polynomial t^2 - (a+1)^300 has 22 KB of text
    ([["0", "(a+1)^300"], ["1", "0"]], "spectrum not found: no searched root annihilates "),
    # a Jordan block repeats a long eigenvalue
    ([["(a+1)^40", "1"], ["0", "(a+1)^40"]], "matrix is not diagonalisable this way: "),
])
def test_a_long_value_in_an_analyze_message_is_quoted_in_part(entries, prefix, tmp_path, capsys):
    target = _write_matrix(tmp_path / "long.json", 2, ["a"], entries)
    assert main(["analyze", f"file:{target}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("input error: " + prefix)
    assert re.search(r"\.\.\. \(\d+ characters\)$", line)
    assert len(captured.err.encode()) < 400


@pytest.mark.parametrize("symbols, entry, reason", [
    ([], "z", "unknown symbol 'z'"),
    ([], "z" * 5000, f"unknown symbol {'z' * 60!r}... (5000 characters)"),
    (["a" * 4999 + "-"], "1", f"symbol name '{'a' * 47}... (5035 characters)"),
], ids=["unknown", "long-unknown", "long-invalid"])
def test_a_matrix_file_symbol_is_quoted_in_part(symbols, entry, reason, tmp_path, capsys):
    target = _write_matrix(tmp_path / "m.json", 1, symbols, [[entry]])
    assert main(["analyze", f"file:{target}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"input error: {target} does not describe a matrix: {reason}"]
    assert len(captured.err.encode()) < 400


def test_exponents_beyond_the_key_bound_are_input_errors(capsys):
    # a one-term power scales its exponents, each up to 2^40 - 1
    assert main(["ncplane", "s03", "--c=a^99999999999"]) == 0
    capsys.readouterr()
    assert main(["ncplane", "s03", "--c=(a^99999999999)^99999999999"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "input error: exponent of a beyond the limit 1099511627775"]


def test_a_one_symbol_gcd_beyond_the_degree_bound_is_an_input_error(tmp_path, capsys):
    # every exponent passes the key bound; the gcd would step through 10^11 degrees
    assert main(["ncplane", "s03", "--c=(a^99999999999+1)/(a+1)"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "input error: quotient of degree 99999999999 in a, beyond the gcd limit "
        f"{MAX_GCD_DEGREE}"]
    target = _write_matrix(tmp_path / "m.json", 1, ["a"],
                           [[f"(a^{MAX_GCD_DEGREE + 1} - 1)/(a - 1)"]])
    assert main(["analyze", f"file:{target}"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"input error: quotient of degree {MAX_GCD_DEGREE + 1} in a, beyond the gcd limit "
        f"{MAX_GCD_DEGREE}"]


def test_parameters_may_name_at_most_a_hundred_symbols(capsys):
    names = [f"a{k}" for k in range(101)]
    assert main(["ncplane", "s03", "--c=" + "+".join(names[:-1])]) == 0
    capsys.readouterr()
    assert main(["ncplane", "s03", "--c=" + "+".join(names)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "input error: parameters name 101 symbols, beyond the limit 100"]


def test_a_matrix_file_may_name_at_most_a_hundred_symbols(tmp_path, capsys):
    names = [f"a{k}" for k in range(101)]
    target = _write_matrix(tmp_path / "wide.json", 1, names[:-1], [["1"]])
    assert main(["analyze", f"file:{target}"]) == 0
    capsys.readouterr()
    target = _write_matrix(tmp_path / "wider.json", 1, names, [["1"]])
    assert main(["analyze", f"file:{target}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"input error: {target} does not describe a matrix: 101 symbols, beyond the limit 100"]


_HUGE = [
    (["ncplane", "s03", "--c=99^2200"],
     "input error: cannot parse parameter '99^2200': power of a single term reaches "
     "more than 4300 coefficient digits (at position 3)"),
    (["ncplane", "s03", "--c=2^99999999999"],
     "input error: cannot parse parameter '2^99999999999': power of a single term "
     "reaches more than 4300 coefficient digits (at position 2)"),
    (["baxterize", "s14", "--triplet=2^20000,0,1,0,1,0"],
     "input error: cannot parse parameter '2^20000': power of a single term reaches "
     "more than 4300 coefficient digits (at position 2)"),
    (["ncplane", "s03", "--c=(99^1200)*(99^1200)"],
     "input error: value too long to print: it has an integer of more than 4300 digits"),
    (["ncplane", "s03", "--c=" + "9" * 5000],
     f"input error: cannot parse parameter '{'9' * 60}'... (5000 characters): integer "
     "literal of 5000 digits, beyond the limit 4300 (at position 0)"),
]


@pytest.mark.parametrize("argv, message", _HUGE)
def test_huge_coefficients_are_input_errors(argv, message, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


def test_analyze_file_huge_coefficient_is_an_input_error(tmp_path, capsys):
    target = _write_matrix(tmp_path / "huge.json", 1, [], [["7^6000"]])
    assert main(["analyze", f"file:{target}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"input error: {target} does not describe a matrix: power of a single term "
        "reaches more than 4300 coefficient digits (at position 2)"]


def test_matrix_file_with_a_huge_json_int_is_an_input_error(tmp_path, capsys):
    target = tmp_path / "huge.json"
    target.write_text('{"n": ' + "1" * 5000 + ', "symbols": [], "entries": [["1"]]}')
    assert main(["analyze", f"file:{target}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"input error: {target} is not valid JSON: Exceeds the limit")


@pytest.mark.parametrize("text", [
    "[" * 100000 + "]" * 100000,
    '{"n": 1, "symbols": [], "entries": ' + "[" * 50000 + "]" * 50000 + "}",
])
def test_deeply_nested_json_is_an_input_error(text, tmp_path, capsys):
    target = tmp_path / "deep.json"
    target.write_text(text)
    assert main(["analyze", f"file:{target}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"input error: {target} is not valid JSON: maximum recursion depth")


@pytest.mark.parametrize("argv, message", [
    (["ncplane", "s03", "--c=" + "9" * 1000],
     f"input error: cannot parse parameter '{'9' * 60}'... (1000 characters): integer "
     "literal of 1000 digits, beyond the limit 640 (at position 0)"),
    (["ncplane", "s03", "--c=99^400"],
     "input error: cannot parse parameter '99^400': power of a single term reaches "
     "more than 640 coefficient digits (at position 3)"),
])
def test_digit_bounds_follow_a_lower_interpreter_limit(argv, message, capsys):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert main(argv) == 3
    finally:
        sys.set_int_max_str_digits(saved)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


@pytest.mark.parametrize("argv, code", [
    (["ncplane", "s03", "--c=" + "9" * 5000], 3),
    (["baxterize", "s14", "--triplet=" + "9" * 5000 + ",0,1,0,1,0"], 3),
    (["baxterize", "s03", "--p=" + "9" * 4000], 3),
    (["analyze", "z" * 5000], 2),
    (["analyze", "file:" + "a" * 5000], 3),
    (["analyze", "file:" + "a/" * 2000], 3),
    (["analyze", "s03", "--out", "a" * 5000], 2),
    (["analyze", "s03", "--out", "a/" * 2000], 2),
])
def test_long_inputs_are_quoted_in_part(argv, code, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert len(line) < 200
    assert "(4000 characters)" in line or "(5000 characters)" in line


@pytest.mark.parametrize("prefix, option, long_value", [
    (["baxterize", "s03"], "--p", "9" * 5000),
    (["verify-all"], "--seed", "x" * 5000),
], ids=["p", "seed"])
def test_integer_options_are_quoted_in_part(prefix, option, long_value, monkeypatch, capsys):
    assert main([*prefix, f"{option}={long_value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err) < 400
    assert captured.err.splitlines()[-1].endswith(
        f"argument {option}: invalid int value: {long_value[:60]!r}... (5000 characters)")
    # a short bad value keeps the line argparse writes for type=int
    assert main([*prefix, f"{option}=12x"]) == 2
    ours = capsys.readouterr().err
    monkeypatch.setattr(cli, "_int_option", int)
    assert main([*prefix, f"{option}=12x"]) == 2
    assert ours == capsys.readouterr().err
    assert ours.endswith(f"argument {option}: invalid int value: '12x'\n")


# ----------------------------------------------------------------- verify-all


def test_verify_all_fault_injection_json(capsys):
    code = main(["verify-all", "--inject-fault", "s03", "--format", "json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, VERIFY_SCHEMA)
    failed = [s["name"] for s in report["sections"] if not s["holds"]]
    assert failed == [
        "minimal-polynomials",
        "projector-suites",
        "constant-ybe",
        "s03-baxterisation",
        "inverses-diagonalizers",
        "noncommutative-planes",
    ]
    recorded = golden()["verify"]["cli-fault-s03-json"]
    assert (code, without_elapsed(report)) == (recorded["code"], recorded["stdout"])


# -------------------------------------------------------------------- errors


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "s99"],
        ["baxterize", "file:whatever.json"],
        ["baxterize", "s03", "--triplet", "1,0,1,0,1,0"],
        ["baxterize", "s14", "--p", "2"],
        ["baxterize", "s14", "--triplet", "1,2,3"],
        ["ncplane", "file:whatever.json"],
        ["ncplane", "s03", "--kplus", "1"],
        ["ncplane", "s14", "--c", "1"],
    ],
)
def test_usage_errors_exit_two(argv, capsys):
    assert main(argv) == 2
    assert "usage error" in capsys.readouterr().err


def test_argparse_failures_exit_two(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_one_process_answers_each_call_as_a_fresh_parser_does(capsys):
    # main keeps its argument parser; no call may see what an earlier one parsed
    calls = [["analyze", "s03", "--format", "json"], ["analyze", "s03"],
             ["baxterize", "s03", "--p=3"], ["baxterize", "s03"],
             ["ncplane", "s03", "--c=2", "--format", "json"], ["ncplane", "s03"],
             ["baxterize", "s03", "--p=x"], ["analyze", "s14", "--out"],
             ["analyze", "s03", "--format", "json"]]

    def outcome(argv):
        code = main(argv)
        captured = capsys.readouterr()
        # a section's elapsed time is the one field two runs may differ in
        return code, re.sub(r'"elapsed": [0-9.e-]+', '"elapsed": 0', captured.out), captured.err

    kept = [outcome(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert kept == fresh
    assert [code for code, _, _ in kept] == [0, 0, 0, 0, 0, 0, 2, 2, 0]


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "braidbax", "analyze", "s03", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["verb"] == "analyze"


def test_builtin_tables_are_fresh_per_invocation(capsys):
    # q appears in the s14 report symbols, never in the s03 one
    assert main(["analyze", "s03", "--format", "json"]) == 0
    s03 = json.loads(capsys.readouterr().out)
    assert main(["analyze", "s14", "--format", "json"]) == 0
    s14 = json.loads(capsys.readouterr().out)
    assert s03["matrix"]["symbols"] == []
    assert s14["matrix"]["symbols"] == ["q"]
    # the s14 projector entries themselves stay parameter-free
    for item in s14["projectors"]:
        for row in item["matrix"]["entries"]:
            assert all("q" not in entry for entry in row)


# ---------------------------------------------------------------------- fuzz
#
# Parameter texts drawn from the grammar's tokens and a few stray
# characters, and small matrix files of such entries: whatever the input,
# main returns 0..3, raises nothing, and a rejection is one stderr line.
# Structured texts raise only atoms to a power, and a token soup has at
# most six pieces, so every input runs in milliseconds.

_PIECES = ("0", "1", "2", "7", "i", "a", "b", "t", "x1", "+", "-", "*", "/", "^",
           "(", ")", " ", ",", "@", "é", "٣", "9" * 30)
_ATOMS = st.sampled_from(["0", "1", "2", "7", "i", "a", "b", "9" * 30])
_ATOMS |= st.tuples(_ATOMS, st.sampled_from(["0", "2", "7", "-1"])).map("^".join)
_fuzz_texts = st.recursive(_ATOMS, lambda sub: st.one_of(
    st.tuples(sub, st.sampled_from(["+", "-", "*", "/"]), sub).map("".join),
    sub.map("({})".format),
    sub.map("-{}".format)), max_leaves=4) | st.lists(st.sampled_from(_PIECES),
                                                     max_size=6).map("".join)


@st.composite
def _fuzz_argvs(draw, directory):
    verb = draw(st.sampled_from(["ncplane", "baxterize", "analyze"]))
    if verb == "analyze":
        n = draw(st.integers(1, 4))
        obj = {"n": n,
               "symbols": draw(st.sampled_from([[], ["a"], ["a", "b"], ["b", "a"], ["a", "a"],
                                                ["t"], ["i"], ["x1"]])),
               "entries": draw(st.lists(st.lists(_fuzz_texts, min_size=n, max_size=n),
                                        min_size=n, max_size=n))}
        path = directory / f"fuzz{draw(st.integers(0, 9))}.json"
        path.write_text(json.dumps(obj))
        return ["analyze", f"file:{path}"]
    argv = [verb, draw(st.sampled_from(["s03", "s14"]))]
    options = ["--triplet"] if verb == "baxterize" else ["--c", "--kplus", "--kzero"]
    for option in draw(st.lists(st.sampled_from(options), max_size=2, unique=True)):
        if option == "--triplet":
            argv.append("--triplet=" + ",".join(draw(st.lists(_fuzz_texts, min_size=1,
                                                              max_size=6))))
        else:
            argv.append(f"{option}={draw(_fuzz_texts)}")
    return argv


@pytest.fixture(scope="module")
def fuzz_directory(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(data=st.data())
def test_main_ends_every_input_in_an_exit_code(fuzz_directory, data):
    argv = data.draw(_fuzz_argvs(fuzz_directory))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv
