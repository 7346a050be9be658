"""Numeric inputs are checked where they enter: CLI options at parse time,
truncation tolerances in the library, and the Poisson truncation depth
before anything is allocated."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ctmcbisim import exact_diff_curve, fixtures, make_ctmc, markov_curve, save_model
from ctmcbisim.cli import main
from ctmcbisim.transient import MAX_TERMS

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def branch_path(tmp_path):
    p = tmp_path / "branch.json"
    save_model(fixtures.branch_merge_chain(), str(p))
    return str(p)


def _run(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


# ---------------------------------------------------------------- CLI options


@pytest.mark.parametrize(
    "argv, option",
    [
        (["simulate", "--t", "nan", "--paths", "10"], "--t"),
        (["simulate", "--t", "-1", "--paths", "10"], "--t"),
        (["check-bisim", "--delta", "-1"], "--delta"),
        (["check-bisim", "--eps", "-0.5"], "--eps"),
        (["pair-uniformize", "--model-b", "b.json", "--delta", "nan"], "--delta"),
        (["bounds", "--delta", "-0.1"], "--delta"),
        (["reward-reach", "--bound", "1", "--eps", "nan"], "--eps"),
        *[
            ([cmd, *extra, "--tol", tol], "--tol")
            for cmd, extra in [
                ("bounds", ["--delta", "0.1"]),
                ("reward-reach", ["--bound", "1"]),
                ("pn", []),
                ("spectral-report", []),
            ]
            for tol in ("0", "-1", "nan", "abc")
        ],
    ],
)
def test_bad_numeric_option_exits_2_before_any_work(capsys, argv, option):
    # the model file does not exist: a parse that let the value through
    # would fail on loading it instead
    rc, out, err = _run(capsys, [argv[0], "-m", "/no/such/model.json", *argv[1:]])
    assert rc == 2
    assert out == ""
    assert f"argument {option}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["pareto", "--theta", "0.1", "--q", "1", "--t", "nan"], "--t"),
        (["pareto", "--theta", "0.1", "--q", "nan", "--t", "1"], "--q"),
        (["pareto", "--theta", "nan", "--q", "1", "--t", "1"], "--theta"),
        (["pareto", "--theta", "1", "--q", "1", "--t", "1"], "--theta"),
        (["pareto", "--theta", "0.1", "--q", "1", "--t", "1", "--samples", "-2"], "--samples"),
        (["pn", "-m", "/no/such/model.json", "--steps", "-3"], "--steps"),
        (["simulate", "-m", "/no/such/model.json", "--t", "1", "--confidence", "2"], "--confidence"),
        (["simulate", "-m", "/no/such/model.json", "--t", "1", "--confidence", "0"], "--confidence"),
        (["simulate", "-m", "/no/such/model.json", "--t", "1", "--seed", "-1"], "--seed"),
        (["bounds", "-m", "/no/such/model.json", "--delta", "0.1", "--tmax", "nan"], "--tmax"),
        (["bounds", "-m", "/no/such/model.json", "--delta", "0.1", "--steps", "0"], "--steps"),
        (["check-bisim", "-m", "/no/such/model.json", "--eps", "inf"], "--eps"),
        (["reward-reach", "-m", "/no/such/model.json", "--bound", "nan"], "--bound"),
    ],
)
def test_bad_option_exits_2_naming_it(capsys, argv, option):
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert f"argument {option}: must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("q, t", [("1", "nan"), ("1e200", "1e200")])
def test_pareto_prints_no_nan_rows(capsys, q, t):
    # q * t overflowing to inf made every bound NaN as well
    rc, out, _ = _run(capsys, ["pareto", "--theta", "0.1", "--q", q, "--t", t])
    assert (rc, out) == (2, "")


@pytest.mark.parametrize("cmd", ["check-bisim", "pair-uniformize", "simulate"])
def test_tol_only_on_the_subcommands_that_read_it(capsys, branch_path, cmd):
    extra = {"check-bisim": [], "pair-uniformize": ["--model-b", branch_path, "--delta", "0.1"],
             "simulate": ["--t", "1"]}[cmd]
    rc, _, err = _run(capsys, [cmd, "-m", branch_path, *extra, "--tol", "1e-6"])
    assert rc == 2
    assert "unrecognized arguments: --tol" in err


def test_simulate_accepts_zero_horizon(capsys, branch_path):
    rc, out, _ = _run(capsys, ["simulate", "-m", branch_path, "--t", "0", "--paths", "10"])
    assert rc == 0
    assert '"estimate": 0.0' in out


def test_spectral_report_passes_tol_to_decompose(capsys, branch_path):
    # the branch-merge matrix reconstructs to ~5e-16: fine at the default
    # tolerance, a numerical failure at 1e-30
    assert _run(capsys, ["spectral-report", "-m", branch_path])[0] == 0
    rc, _, err = _run(capsys, ["spectral-report", "-m", branch_path, "--tol", "1e-30"])
    assert rc == 3
    assert err.startswith("DecompositionUnstable:")


# ---------------------------------------------------------------- library tol


@pytest.mark.parametrize("curve", [exact_diff_curve, markov_curve])
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_curves_reject_nonpositive_tol(curve, tol):
    M = fixtures.branch_merge_chain()
    with pytest.raises(ValueError, match="tol must be positive"):
        curve(M, 0.1, [1.0, 2.0], tol)


def test_bounds_cli_with_zero_tol_exits_2(capsys, branch_path):
    rc, _, err = _run(capsys, ["bounds", "-m", branch_path, "--delta", "0.1", "--tol", "0", "--steps", "2"])
    assert rc == 2
    assert "argument --tol" in err


# ---------------------------------------------------------------- Poisson depth


def _run_capped(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a child whose address space is capped at 1 GiB, so a
    multi-GiB allocation fails in the child instead of loading the machine."""
    prologue = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", prologue + code], capture_output=True, text=True, env=env, timeout=120
    )


def test_poisson_weights_past_the_cap_raise_before_allocating():
    res = _run_capped(
        "from ctmcbisim.transient import MAX_TERMS, poisson_weights\n"
        "for mu in (float(MAX_TERMS), 1e9, 1e15):\n"
        "    try:\n"
        "        poisson_weights(mu, 1e-9)\n"
        "    except ValueError as e:\n"
        "        print(e)\n"
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert len(lines) == 3
    assert all(f"more than {MAX_TERMS} terms" in line for line in lines)


def test_reward_reach_with_tiny_reward_exits_2(tmp_path):
    # reward 1e-9 on a rate-1 state: the clock-rescaled rate is 1e9, so the
    # budget 1 asks for Poisson(1e9) weights
    p = tmp_path / "tiny_reward.json"
    M = make_ctmc(
        [("s0", (), 1.0, 1e-9), ("g", ("g",), 1.0, 1.0)],
        [("s0", "g", 1.0), ("g", "g", 1.0)],
        initial="s0",
        goal=("g",),
    )
    save_model(M, str(p))
    res = _run_capped(
        "import sys\nfrom ctmcbisim.cli import main\n"
        f"sys.exit(main(['reward-reach', '-m', {str(p)!r}, '--bound', '1']))\n"
    )
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("ValueError: Poisson(")
    assert "Traceback" not in res.stderr
