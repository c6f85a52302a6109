"""End-to-end and per-layer benchmark of the braidbax command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout: the program is imported from
./src, never from an installed copy.  One closed-loop client in one
thread calls braidbax.cli.main(argv) in process, op after op, in the
order the seed fixes, and judges every result with the oracle in
workloads.py.  It stops before an op whose kind has so far taken longer
than the time left, so a run ends near --seconds without cutting an op.

--trace 0 prints the end-to-end metrics; --trace 1 runs each op twice,
untraced and then traced (tracing.py), and prints the per-layer metrics
and the tracing overhead.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it is a JSON record of the run (Python version, CPU count, git
revision, seed, set-up times and every op's latency and outcome), which
is also appended to .bench_work/results.jsonl.  --workload all runs each
workload in its own process and prints one row per workload.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracing import ARITHMETIC, LAYERS, Tracer
from workloads import OK, UNDECIDED, VERIFY_SECTIONS, WORKLOADS, WRONG

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".bench_work"
PACKAGE = "braidbax"

# Inputs generated per run.  A run cycles through its pool only if the
# program gets many times faster than at the first measurement.
POOL = {"verify-all": 64, "analyze-files": 600, "parameter-sweep": 1200}
SETUP_REPEATS = 3
RAISED = "raised"


@dataclass
class Sample:
    kind: str
    elapsed: float
    outcome: str
    reason: str
    stdout: str


# ------------------------------------------------------------------ set-up


def _set_up(workload: str, seed: int, workdir: Path):
    """Import the program afresh and generate the inputs; time both parts."""
    start = perf_counter()
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(PACKAGE + ".cli")
    imported = perf_counter()
    ops = WORKLOADS[workload](seed, POOL[workload], str(workdir))
    done = perf_counter()
    return cli, ops, imported - start, done - imported


def _revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            path = ROOT / ".git" / ref
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return text
    except OSError:
        return "unknown (not a git checkout)"


# --------------------------------------------------------------- execution


def _execute(main, op) -> Sample:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(list(op.argv))
    except Exception as exc:  # a crash fails this op; the run goes on
        elapsed = perf_counter() - start
        return Sample(op.kind, elapsed, RAISED, f"{type(exc).__name__}: {exc}", out.getvalue())
    elapsed = perf_counter() - start
    outcome, reason = op.judge(rc, out.getvalue(), err.getvalue())
    return Sample(op.kind, elapsed, outcome, reason, out.getvalue())


def _closed_loop(ops, seconds: float, run_one) -> list:
    """Run ops in order until the next one is expected to end past the deadline.

    The expectation is the median duration of earlier ops of the same
    kind; the first op always runs.
    """
    deadline = perf_counter() + seconds
    durations = defaultdict(list)
    results = []
    k = 0
    while True:
        op = ops[k % len(ops)]
        if results:
            remaining = deadline - perf_counter()
            past = durations[op.kind]
            if remaining <= 0 or (past and statistics.median(past) > remaining):
                break
        start = perf_counter()
        results.append(run_one(op))
        durations[op.kind].append(perf_counter() - start)
        k += 1
    return results


# ----------------------------------------------------------------- metrics


def _percentile_with_tail(values: list, share: float, tail: int = 10):
    """Nearest-rank percentile, or None when fewer than tail values lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(share * len(ordered))
    if len(ordered) - rank < tail:
        return None
    return ordered[rank - 1]


def _end_to_end(samples: list, setup: list) -> dict:
    latencies = [s.elapsed for s in samples]
    return {
        "setup_s": statistics.median(setup),
        "verdicts_per_s": len(samples) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "decided_share": sum(s.outcome == OK for s in samples) / len(samples),
    }


def _section_times(samples: list) -> dict:
    """verify-all section times reported by the program, summed over ops."""
    totals = dict.fromkeys(VERIFY_SECTIONS, 0.0)
    for sample in samples:
        if sample.kind != "verify-all" or sample.outcome != OK:
            continue
        for section in json.loads(sample.stdout)["sections"]:
            totals[section["name"]] += section["elapsed"]
    return totals


def _per_layer(tracer: Tracer, pairs: list) -> dict:
    n = len(pairs)
    traced = sum(t.elapsed for _, t in pairs)
    untraced = sum(u.elapsed for u, _ in pairs)
    self_total = sum(tracer.self_time(layer) for layer in LAYERS)
    scalar_methods = {f"Scalar.{name}" for name in ARITHMETIC}
    matmul = {"SquareMatrix.__mul__", "SquareMatrix.__rmul__"}
    residuals = {name for (layer, name) in tracer.calls
                 if layer == "ybe" and name.endswith(("_residual", "_residuals"))}
    metrics = {f"{layer}.self_s": tracer.self_time(layer) / n for layer in LAYERS}
    metrics.update({
        "scalar.ops": tracer.count("scalar", scalar_methods) / n,
        "scalar.constructions": tracer.count("scalar", {"Scalar.__init__"}) / n,
        "scalar.eq_calls": tracer.count("scalar", {"Scalar.__eq__"}) / n,
        "scalar.max_terms": tracer.max_terms,
        "scalar.max_coeff_bits": tracer.max_coeff_bits,
        "parser.calls": tracer.count("parser", {"parse"}) / n,
        "linalg.matmul_calls": tracer.count("linalg", matmul) / n,
        "linalg.matmul_self_s": tracer.self_time("linalg", matmul) / n,
        "linalg.kron_self_s": tracer.self_time("linalg", {"SquareMatrix.kron"}) / n,
        "linalg.minpoly_self_s": tracer.self_time("linalg", {"minimal_polynomial"}) / n,
        "linalg.rref_self_s": tracer.self_time("linalg", {"rref", "SquareMatrix.inverse"}) / n,
        "linalg.json_self_s": tracer.self_time("linalg", {"matrix_to_obj", "matrix_from_obj"}) / n,
        "spectral.find_roots_self_s": tracer.self_time("spectral", {"find_roots"}) / n,
        "spectral.projectors_self_s": tracer.self_time("spectral", {"lagrange_projectors"}) / n,
        "spectral.undecided": tracer.raised("spectral", {"find_roots", "lagrange_projectors"}) / n,
        "ybe.residual_self_s": tracer.self_time("ybe", residuals) / n,
        "ybe.expand_self_s": tracer.self_time("ybe", {"expand_pybe_coefficients"}) / n,
        "ybe.frt_self_s": tracer.self_time("ybe", {"verify_frt_relations"}) / n,
        "cli.output_bytes": sum(len(t.stdout.encode()) for _, t in pairs) / n,
        "trace.op_s": traced / n,
        "trace.overhead_s": (traced - untraced) / n,
        "trace.self_sum_share": self_total / traced,
    })
    for name, total in _section_times([u for u, _ in pairs]).items():
        metrics[f"verify.section.{name}_s"] = total / n
    return metrics


_UNITS = {
    "setup_s": "s", "verdicts_per_s": "1/s", "latency_p50_ms": "ms", "peak_rss_mb": "MB",
    "decided_share": "share",
    "scalar.max_terms": "terms", "scalar.max_coeff_bits": "bits",
    "cli.output_bytes": "bytes/op", "trace.self_sum_share": "share",
}


def unit(name: str) -> str:
    """The unit of a metric; per-layer times and counts are per op."""
    return _UNITS.get(name, "s/op" if name.endswith("_s") else "count/op")


def _listed(trace: bool) -> list:
    """Names of the metrics BENCHMARK.json lists for this mode.

    The traced run computes more than it lists: the row line also shows
    the layers and checks some workloads never call, whose value is a
    constant 0 there.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


# -------------------------------------------------------------------- main


def _run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SOURCE / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    workdir = WORK / f"{workload}-{seed}"
    setup, parts = [], []

    def set_up():
        start = perf_counter()
        cli, ops, import_s, inputs_s = _set_up(workload, seed, workdir)
        setup.append(perf_counter() - start)
        parts.append((import_s, inputs_s))
        return cli, ops

    for _ in range(SETUP_REPEATS):
        cli, ops = set_up()
    if not Path(cli.__file__).resolve().is_relative_to(SOURCE.resolve()):
        print(f"error: imported {cli.__file__}, not the checkout's sources", file=sys.stderr)
        return 2

    if trace:
        tracer = Tracer(PACKAGE)

        def run_pair(op):
            untraced = _execute(cli.main, op)
            tracer.install()
            try:
                traced = _execute(cli.main, op)
            finally:
                tracer.uninstall()
            if traced.outcome != untraced.outcome:
                traced.outcome = WRONG
                traced.reason = f"tracing changed the outcome from {untraced.outcome}"
            return untraced, traced

        pairs = _closed_loop(ops, seconds, run_pair)
        samples = [t for _, t in pairs]
        metrics = _per_layer(tracer, pairs)
    else:
        samples = _closed_loop(ops, seconds, lambda op: _execute(cli.main, op))
        # set up again after the loop too: the host's speed drifts over
        # seconds, and set-ups at both ends of the run see more of it
        for _ in range(SETUP_REPEATS):
            set_up()
        metrics = _end_to_end(samples, setup)
    shutil.rmtree(workdir, ignore_errors=True)

    # An op fails when it raised or its answer differs from the oracle's.
    # An input the program declines as undecided is not a failed op: it
    # lowers decided_share and counts in failed_share instead.
    wrong = [s for s in samples if s.outcome in (WRONG, RAISED)]
    latencies = [s.elapsed for s in samples]
    p90 = _percentile_with_tail(latencies, 0.9)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "nproc": os.cpu_count(), "revision": _revision(),
        "distinct_inputs": min(len(ops), len(samples)), "pool": len(ops),
        "setup_s": setup, "setup_import_s": [a for a, _ in parts],
        "setup_inputs_s": [b for _, b in parts],
        "failed_share": sum(s.outcome != OK for s in samples) / len(samples),
        "undecided_share": sum(s.outcome == UNDECIDED for s in samples) / len(samples),
        "latency_p90_ms": None if p90 is None else p90 * 1000,
        "wrong": [[s.kind, s.outcome, s.reason] for s in wrong[:20]],
        "ops": [[s.kind, s.elapsed, s.outcome] for s in samples],
        "metrics": metrics,
    }
    WORK.mkdir(exist_ok=True)
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")

    cells = [f"{name}={value:.6g} {unit(name)}" for name, value in metrics.items()]
    if not trace:
        cells.insert(3, f"latency_p90_ms={p90 * 1000:.6g} ms" if p90 is not None else
                     f"latency_p90_ms=omitted ({len(samples)} samples, fewer than 10 beyond p90)")
        cells.insert(4, f"failed_share={record['failed_share']:.4g} share "
                        f"(undecided {record['undecided_share']:.4g}, n={len(samples)})")
    print(f"row {workload}: " + "  ".join(cells))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(samples),
        "failed": len(wrong),
        "metrics": {name: {"value": metrics[name], "unit": unit(name)} for name in _listed(trace)},
    }))
    return 0


def _run_all(seed: int, seconds: float, trace: bool) -> int:
    rows, results = [], {}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        rows += [line for line in lines if line.startswith("row ")]
        results[workload] = json.loads(lines[-1])
    print("\n".join(rows))
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args.seed, args.seconds, bool(args.trace))
    return _run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
