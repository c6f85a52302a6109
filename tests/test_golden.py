"""Every CLI verb against its recorded output, text and JSON alike.

golden.json holds, per command line, the exit code, the stdout and the
first stderr line of cli.main.  JSON reports are stored parsed, with the
per-section `elapsed` timings removed, since those are the one field that
differs between runs.  File targets live in the directory INPUTS, named
relative to a temporary working directory and recorded as {dir}; a short
relative name keeps every path far below the 60 characters past which
the command line quotes a path in part, wherever the temporary
directory lies.

The same file holds the verify-all outputs, which test_verify.py and
test_cli.py compare inside the tests that already pay for a full run.

Regenerate only for an intended output change, from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from braidbax.cli import main

from conftest import GOLDEN_PATH, golden, without_elapsed

FILES = {
    "skew.json": json.dumps({"n": 2, "symbols": ["u"], "entries": [["0", "u"], ["-u", "0"]]}),
    "irrational.json": json.dumps({"n": 2, "symbols": [], "entries": [["0", "1"], ["2", "0"]]}),
    "jordan.json": json.dumps({"n": 2, "symbols": ["u"], "entries": [["1", "u"], ["0", "1"]]}),
    "bad.json": "{not json",
    "malformed.json": json.dumps({"n": 2, "symbols": []}),
}

COMMANDS = (
    "analyze s03",
    "analyze s14",
    "analyze file:{dir}/skew.json",
    "baxterize s03",
    "baxterize s03 --p=3",
    "baxterize s03 --p=-4",
    "baxterize s14",
    "baxterize s14 --triplet=v,-2-v,vp,-2-vp,vpp,-2-vpp",
    "baxterize s14 --triplet=1,0,1,0,1,0",
    "baxterize s14 --triplet=a,b,c,a*b,b/c,(a+1)/(b-2)",
    "baxterize s14 --triplet=a*b,c,a-b,b*c,(a+b)/(a-b),c^2",
    "ncplane s03",
    "ncplane s03 --c=0",
    "ncplane s14",
    "ncplane s14 --kplus=1 --kzero=1",
    # input errors
    "analyze file:{dir}/irrational.json",
    "analyze file:{dir}/jordan.json",
    "analyze file:{dir}/nope.json",
    "analyze file:{dir}/bad.json",
    "analyze file:{dir}/malformed.json",
    "ncplane s03 --c='2 +'",
    # usage errors
    "analyze s99",
    "baxterize file:whatever.json",
    "baxterize s03 --triplet=1,0,1,0,1,0",
    "baxterize s14 --p=2",
    "baxterize s14 --triplet=1,2,3",
    "ncplane file:whatever.json",
    "ncplane s03 --kplus=1",
    "ncplane s14 --c=1",
)

INPUTS = Path("golden-inputs")


def write_inputs(base: Path) -> None:
    """The files of FILES, written to INPUTS under base."""
    (base / INPUTS).mkdir()
    for name, text in FILES.items():
        (base / INPUTS / name).write_text(text)


def run_command(command: str, fmt: str, workdir: Path) -> dict:
    """Exit code, stdout and first stderr line, with workdir shown as {dir}."""
    argv = shlex.split(command.replace("{dir}", str(workdir))) + ["--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    stdout = out.getvalue().replace(str(workdir), "{dir}")
    if fmt == "json" and stdout:
        report = json.loads(stdout)
        assert stdout == json.dumps(report, indent=2, sort_keys=True) + "\n"
        stdout = without_elapsed(report)
    stderr = err.getvalue().replace(str(workdir), "{dir}").splitlines()
    return {"code": code, "stdout": stdout, "stderr": stderr[0] if stderr else ""}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    base = tmp_path_factory.mktemp("golden")
    write_inputs(base)
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(base)
        yield INPUTS


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_matches_golden(command, fmt, workdir):
    key = f"{command} --format {fmt}"
    assert run_command(command, fmt, workdir) == golden()["cli"][key]


def _record() -> dict:
    from braidbax.verify import run_all

    cli = {}
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        write_inputs(Path(tmp))
        patch.chdir(tmp)
        for command in COMMANDS:
            for fmt in ("text", "json"):
                cli[f"{command} --format {fmt}"] = run_command(command, fmt, INPUTS)
        injected = run_command("verify-all --inject-fault s03", "json", INPUTS)
    clean = run_all(seed=0)
    fault = run_all(seed=0, fault="s14")
    verify = {
        "clean-lines": clean.lines(),
        "clean-obj": without_elapsed(clean.to_obj()),
        "fault-s14-lines": fault.lines(),
        "fault-s14-obj": without_elapsed(fault.to_obj()),
        "cli-fault-s03-json": injected,
    }
    return {"cli": cli, "verify": verify}


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
