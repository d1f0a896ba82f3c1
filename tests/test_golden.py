"""Recorded command outputs, replayed byte for byte.

Each file in tests/golden/ holds one command line of `ehres` or of a script
under scripts/, with the stdout, stderr and exit code it produced.  To add a
case, record it from the current code:

    PYTHONPATH=src python tests/test_golden.py NAME ehres check triangle --depth 2
    PYTHONPATH=src python tests/test_golden.py NAME scripts/run_certificates.py --depth 2
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ehresmann import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(argv):
    """(exit code, stdout, stderr) of one command line."""
    if argv[0] == "ehres":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv[1:])
        return code, out.getvalue(), err.getvalue()
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def record(name, argv):
    code, out, err = run(argv)
    case = {"argv": argv, "exit": code, "stdout": out, "stderr": err}
    (GOLDEN / f"{name}.json").write_text(json.dumps(case, indent=1) + "\n")


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_golden(path):
    case = json.loads(path.read_text())
    code, out, err = run(case["argv"])
    assert out == case["stdout"]
    assert err == case["stderr"]
    assert code == case["exit"]


if __name__ == "__main__":
    record(sys.argv[1], sys.argv[2:])
