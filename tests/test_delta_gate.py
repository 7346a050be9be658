"""Every caller's delta passes one gate, ``erlang.rate_factor``: a negative
or NaN delta and an ``e^delta`` that overflows are a ``ValueError`` (exit 2
on the command line, with no traceback).  The Erlang-N chain length is
capped at ``MAX_TERMS`` before anything is allocated."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ctmcbisim import (
    acyclic_exact,
    combined_bound,
    diag_bound,
    erlang_N_bound,
    exact_diff_curve,
    fixtures,
    jordan_bound,
    markov_curve,
    normalize_goal,
    pareto_region,
    prune_unreachable,
    save_model,
    spectral_curve,
    uniformization_bound,
    uniformize_pair,
)
from ctmcbisim.bisim import PairRelation
from ctmcbisim.cli import main
from ctmcbisim.erlang import erlang_N, rate_factor
from ctmcbisim.transient import MAX_TERMS

SRC = str(Path(__file__).resolve().parents[1] / "src")


# ---------------------------------------------------------------- the gate


@pytest.mark.parametrize("delta", [-1.0, -1e-300, math.nan, -math.inf])
def test_rate_factor_rejects_negative_and_nan(delta):
    with pytest.raises(ValueError, match="^delta must be nonnegative$"):
        rate_factor(delta)


@pytest.mark.parametrize("delta", [710.0, 1e308, math.inf])
def test_rate_factor_rejects_overflow_naming_delta(delta):
    with pytest.raises(ValueError, match=re.escape(f"delta={delta!r}")):
        rate_factor(delta)


@pytest.mark.parametrize("delta", [0.0, 0.1, 709.0])
def test_rate_factor_is_exp(delta):
    assert rate_factor(delta) == math.exp(delta)


def _norm(M):
    return normalize_goal(prune_unreachable(M))


@pytest.mark.parametrize("delta", [-0.5, math.nan, 800.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda d: exact_diff_curve(_norm(fixtures.branch_merge_chain()), d, [1.0]),
        lambda d: markov_curve(_norm(fixtures.branch_merge_chain()), d, [1.0]),
        lambda d: erlang_N_bound(1.0, d),
        lambda d: acyclic_exact(fixtures.branch_merge_chain(), d, 1.0),
        lambda d: diag_bound(fixtures.two_state_loop(0.3), d, [1.0]),
        lambda d: jordan_bound(fixtures.defective_chain(), d, [1.0]),
        lambda d: spectral_curve(fixtures.defective_chain(), d, [1.0]),
        lambda d: combined_bound(fixtures.defective_chain(), d, [1.0]),
        lambda d: pareto_region(0.1, 2.0, 3.0).eps_max(d),
        lambda d: pareto_region(0.1, 2.0, 3.0).contains(0.0, d),
        lambda d: uniformization_bound(0.0, d, 1.0, 1.0),
    ],
)
def test_every_bound_route_gates_delta(call, delta):
    with pytest.raises(ValueError, match="delta"):
        call(delta)


def test_uniformize_pair_gates_delta():
    M = fixtures.two_state_loop(0.3)
    R = PairRelation.from_off_diagonal([], 2 * M.n, 0.0, 0.0)
    for delta in (-0.5, 800.0):
        with pytest.raises(ValueError, match="delta"):
            uniformize_pair(M, M, R, delta)


# ---------------------------------------------------------------- the CLI


@pytest.fixture
def paths(tmp_path):
    out = {}
    for name, M in [("branch", fixtures.branch_merge_chain()), ("tandem", fixtures.rewarded_tandem())]:
        out[name] = str(tmp_path / f"{name}.json")
        save_model(M, out[name])
    return out


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "-m", "{branch}", "--delta", "1e308", "--steps", "2"],
        ["pair-uniformize", "-m", "{branch}", "--model-b", "{branch}", "--delta", "1e308"],
        ["reward-reach", "-m", "{tandem}", "--bound", "1", "--delta", "800"],
    ],
)
def test_cli_overflowing_delta_exits_2(capsys, paths, argv):
    rc = main([a.format(**paths) for a in argv])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("ValueError: delta=") and "overflows" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------- Erlang-N cap


def test_erlang_N_cap_names_max_terms():
    assert erlang_N(1e6, 0.1) == math.ceil((math.exp(0.1) - 1.0) * 1e6 / 0.1)
    for t, delta in [(1e8, 0.1), (1e308, 5.0)]:
        with pytest.raises(ValueError, match=f"MAX_TERMS={MAX_TERMS} "):
            erlang_N(t, delta)


def _run_capped(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a child whose address space is capped at 1 GiB, so a
    multi-GiB allocation fails in the child instead of loading the machine."""
    prologue = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", prologue + code], capture_output=True, text=True, env=env, timeout=120
    )


def test_erlang_N_past_the_cap_exits_2_before_allocating(paths):
    runs = [
        ("0.1", "1e8", "erlangN"),
        ("5", "1e308", "erlangN"),
        ("5", "1e308", "combined"),
    ]
    code = "from ctmcbisim.cli import main\n"
    for delta, tmax, which in runs:
        argv = ["bounds", "-m", paths["branch"], "--delta", delta, "--tmax", tmax, "--steps", "1", "--which", which]
        code += f"print(main({argv!r}))\n"
    res = _run_capped(code)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["2"] * len(runs)
    lines = res.stderr.splitlines()
    assert len(lines) == len(runs)
    assert all(line.startswith("ValueError: ") and f"MAX_TERMS={MAX_TERMS}" in line for line in lines)


def test_erlang_N_below_the_cap_keeps_its_output(capsys, paths):
    rc = main(["bounds", "-m", paths["branch"], "--delta", "0.1", "--tmax", "1e6", "--steps", "1", "--which", "erlangN"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert out == "t,erlangN\n0,0\n1000000,0.99999999920039984\n"
