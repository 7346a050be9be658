"""``python -m ctmcbisim`` runs the command-line interface in a fresh
interpreter, with the exit codes of ``cli.main``."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "ctmcbisim", *argv], capture_output=True, text=True, env=env, timeout=120
    )


def test_a_command_exits_0_with_its_output():
    res = _run("pareto", "--theta", "0.1", "--q", "1", "--t", "1")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[0] == "eps,delta,bound,within"


def test_no_command_exits_2():
    res = _run()
    assert res.returncode == 2
    assert "required: command" in res.stderr
