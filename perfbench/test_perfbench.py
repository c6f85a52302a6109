"""Smoke self-test of the benchmark: a few ops per workload, the oracle, the output.

    python3 -m pytest -q perfbench/test_perfbench.py

The oracle must accept the program's real answers and reject altered
ones; a short run of each mode must print every metric BENCHMARK.json
names, with its unit, on the last line.
"""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from exact import GQ, evaluate  # noqa: E402
from workloads import OK, POINTS, UNDECIDED, WRONG, WORKLOADS, closed_forms  # noqa: E402
from braidbax.cli import main  # noqa: E402


def _run(op):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(list(op.argv))
    return rc, out.getvalue(), err.getvalue()


def _altered(stdout: str, edit) -> str:
    report = json.loads(stdout)
    edit(report)
    return json.dumps(report)


def test_evaluator_follows_the_grammar():
    point = {"q": GQ(2), "a": GQ(3)}
    assert evaluate("-q^2", point) == GQ(-4)
    assert evaluate("2^3^2", point) == GQ(64)
    assert evaluate("q^-1 + q^(-2)", point) == GQ(3, 0) / 4
    assert evaluate("(1/2 - 3*i)*(a - 1)/(a + 1)", point) == GQ(1, -6) / 4
    assert evaluate("(a^2 - 1)/(a - 1)", point) == GQ(4)


def test_pair_sum_triplets_have_vanishing_closed_forms():
    ops = WORKLOADS["parameter-sweep"](3, 22, "")
    sums = [op for op in ops if op.kind.endswith("-sum")]
    assert sums
    for op in sums:
        texts = op.argv[2][len("--triplet="):].split(",")
        for point in POINTS:
            values = closed_forms(*(evaluate(t, point) for t in texts))
            assert all(v.is_zero() for v in values.values())


def test_analyze_files_oracle(tmp_path):
    ops = WORKLOADS["analyze-files"](5, 12, str(tmp_path))
    outcomes = set()
    for op in ops:
        rc, out, err = _run(op)
        outcome, reason = op.judge(rc, out, err)
        assert outcome in (OK, UNDECIDED), (op.argv, reason)
        outcomes.add(outcome)
        if outcome == OK:
            def swap(report):
                report["eigenvalues"][0] = "0"
            assert op.judge(rc, _altered(out, swap), err)[0] == WRONG
            assert op.judge(1, out, err)[0] == WRONG
        else:
            assert op.judge(3, "", "input error: cannot read file")[0] == WRONG
    assert OK in outcomes


def test_parameter_sweep_oracle():
    ops = WORKLOADS["parameter-sweep"](7, 12, "")
    assert len({op.kind for op in ops}) == 12
    for op in ops:
        rc, out, err = _run(op)
        outcome, reason = op.judge(rc, out, err)
        assert outcome == OK, (op.argv, reason)
        assert op.judge(1 - rc if rc in (0, 1) else 0, out, err)[0] == WRONG
        report = json.loads(out)
        if "coefficients" in report:
            def bump(report):
                report["coefficients"]["a1"] += " + 1"
            assert op.judge(rc, _altered(out, bump), err)[0] == WRONG
        if "relations" in report:
            def shift(report):
                report["relations"]["mixed"][0][0] += " + 1"
            assert op.judge(rc, _altered(out, shift), err)[0] == WRONG


def test_verify_all_oracle():
    (op,) = WORKLOADS["verify-all"](0, 1, "")
    rc, out, err = _run(op)
    assert op.judge(rc, out, err) == (OK, "")

    def fail_one(report):
        report["sections"][-1]["holds"] = False
    assert op.judge(rc, _altered(out, fail_one), err)[0] == WRONG


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_names_every_metric_with_its_unit(trace, group):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "parameter-sweep",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[group]
    }
    if trace:
        share = result["metrics"]["trace.self_sum_share"]["value"]
        assert 0.95 < share <= 1.0


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze-files",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
