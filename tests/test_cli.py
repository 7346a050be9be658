"""Drive the command-line interface in process and pin down its contract:
exit codes, column layouts, JSON report shapes, and determinism."""

import json
import math

import pytest

from ctmcbisim import (
    PairRelation,
    direct_sum,
    epsilon_delta_bisim,
    fixtures,
    make_ctmc,
    save_model,
    scale,
)
from ctmcbisim.bisim import relation_to_dict
from ctmcbisim.cli import main

from helpers import read_curve


# ------------------------------------------------------------ model files


@pytest.fixture
def branch_path(tmp_path):
    p = tmp_path / "branch.json"
    save_model(fixtures.branch_merge_chain(), str(p))
    return str(p)


@pytest.fixture
def loop_pair_paths(tmp_path):
    """Same loop twice, the second one sped up by e^0.15: the embedded jump
    probabilities agree exactly, only the rate condition can fail."""
    a = fixtures.two_state_loop(0.3)
    b = scale(a, math.exp(0.15))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_model(a, str(pa))
    save_model(b, str(pb))
    return str(pa), str(pb)


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ------------------------------------------------------------ check-bisim


def test_check_bisim_single_model_is_reflexively_related(capsys, branch_path):
    rc, out, _ = _run(capsys, ["check-bisim", "-m", branch_path])
    report = json.loads(out)
    assert rc == 0
    assert report["related"] is True
    assert report["initial_pair"] == ["s0", "s0"]
    assert report["eps"] == 0.0 and report["delta"] == 0.0


def test_check_bisim_rejects_rate_gap_and_explains(capsys, loop_pair_paths):
    pa, pb = loop_pair_paths
    rc, out, _ = _run(
        capsys,
        ["check-bisim", "--model-a", pa, "--model-b", pb,
         "--delta", "0.1", "--explain"],
    )
    report = json.loads(out)
    assert rc == 1
    assert report["related"] is False
    # ids collide between the two copies, so the second block gets ~b suffixes
    assert report["initial_pair"] == ["s", "s~b"]
    assert report["explain"]["condition"] == "delta"
    assert report["explain"]["detail"].endswith("0.15")


def test_check_bisim_accepts_once_delta_covers_the_gap(capsys, loop_pair_paths):
    pa, pb = loop_pair_paths
    rc, out, _ = _run(
        capsys, ["check-bisim", "-m", pa, "--model-b", pb, "--delta", "0.2"]
    )
    assert rc == 0
    assert json.loads(out)["related"] is True


# ------------------------------------------------------------ bounds


def test_bounds_default_columns_and_determinism(capsys, branch_path):
    argv = ["bounds", "-m", branch_path, "--delta", "0.1",
            "--tmax", "4", "--steps", "8"]
    rc, out1, _ = _run(capsys, argv)
    rc2, out2, _ = _run(capsys, argv)
    assert rc == rc2 == 0
    assert out1 == out2  # byte-identical reruns
    lines = out1.strip().splitlines()
    assert lines[0] == "t,exact,erlangN,spectral"
    assert len(lines) == 10  # header + steps+1 grid points
    for line in lines[1:]:
        t, exact, erlN, spec = map(float, line.split(","))
        assert 0.0 <= exact <= erlN + 1e-9
        assert exact <= spec + 1e-9


def test_bounds_which_unif_single_column(capsys, branch_path):
    rc, out, _ = _run(
        capsys,
        ["bounds", "-m", branch_path, "--delta", "0.1", "--eps", "0.05",
         "--tmax", "2", "--steps", "4", "--which", "unif"],
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,unif"
    # q = 1 on this fixture, so the column is the closed form directly
    for line in lines[1:]:
        t, u = map(float, line.split(","))
        expect = 1.0 - math.exp(-t * (math.exp(0.1) * 1.05 - 1.0))
        assert u == pytest.approx(expect, abs=1e-12)


def test_bounds_markov_column_goes_blank_with_a_note(capsys, tmp_path):
    # the two-sink chain reaches fail with probability 1/2, so expected
    # hitting steps diverge and the markov column is not applicable
    p = tmp_path / "sink.json"
    save_model(fixtures.multi_sink_chain(), str(p))
    rc, out, err = _run(
        capsys,
        ["bounds", "-m", str(p), "--delta", "0.1", "--tmax", "4",
         "--steps", "4", "--which", "exact,markov"],
    )
    assert rc == 0
    assert "note: column 'markov' not applicable" in err
    curve = read_curve(out)
    assert all(math.isnan(v) for v in curve["markov"])
    assert all(not math.isnan(v) for v in curve["exact"])


def test_bounds_json_format_turns_nan_into_null(capsys, tmp_path):
    p = tmp_path / "sink.json"
    save_model(fixtures.multi_sink_chain(), str(p))
    rc, out, _ = _run(
        capsys,
        ["bounds", "-m", str(p), "--delta", "0.1", "--tmax", "1",
         "--steps", "2", "--which", "markov", "--format", "json"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["t"] == [0.0, 0.5, 1.0]
    assert doc["markov"] == [None, None, None]


def test_bounds_out_file_round_trips(capsys, tmp_path, branch_path):
    dest = tmp_path / "curve.csv"
    rc, out, _ = _run(
        capsys,
        ["bounds", "-m", branch_path, "--delta", "0.1", "--tmax", "3",
         "--steps", "6", "--out", str(dest)],
    )
    assert rc == 0
    assert out == ""  # everything went to the file
    curve = read_curve(dest.read_text())
    assert list(curve["t"]) == pytest.approx([0.5 * k for k in range(7)])


def test_bounds_spectral_column_on_acyclic_chain(capsys, tmp_path):
    # acyclic chains take the exact finite-sum route instead of an
    # eigenvalue envelope, and that column must still dominate exact
    p = tmp_path / "erl.json"
    save_model(fixtures.erlang_chain(4), str(p))
    rc, out, err = _run(
        capsys,
        ["bounds", "-m", str(p), "--delta", "0.1", "--tmax", "5",
         "--steps", "5", "--which", "exact,spectral"],
    )
    assert rc == 0
    assert err == ""
    curve = read_curve(out)
    for e, s in zip(curve["exact"], curve["spectral"]):
        assert e <= s + 1e-9


def test_bounds_rejects_unknown_column(capsys, branch_path):
    rc, _, err = _run(
        capsys, ["bounds", "-m", branch_path, "--delta", "0.1", "--which", "bogus"]
    )
    assert rc == 2
    assert "bogus" in err


# ------------------------------------------------------------ pareto


def test_pareto_frontier_endpoints(capsys):
    rc, out, _ = _run(
        capsys,
        ["pareto", "--theta", "0.1", "--q", "1", "--t", "1", "--samples", "5"],
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eps,delta,bound,within"
    assert len(lines) == 6
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    # pure-eps endpoint at delta = 0, pure-delta endpoint at eps = 0,
    # every sampled point sits on the budget exactly
    assert rows[0][0] == pytest.approx(-math.log(0.9), abs=1e-15)
    assert rows[0][1] == 0.0
    assert rows[-1][0] == 0.0
    assert rows[-1][1] == pytest.approx(math.log(1.0 - math.log(0.9)), abs=1e-15)
    for eps, delta, bound, within in rows:
        assert bound == pytest.approx(0.1, abs=1e-12)
        assert within == 1.0


def test_pareto_theta_zero_collapses_to_origin(capsys):
    rc, out, _ = _run(capsys, ["pareto", "--theta", "0", "--q", "2", "--t", "5"])
    assert rc == 0
    assert out.strip().splitlines() == ["eps,delta,bound,within", "0,0,0,1"]


def test_pareto_json_format(capsys):
    rc, out, _ = _run(
        capsys,
        ["pareto", "--theta", "0.2", "--q", "1", "--t", "2",
         "--samples", "3", "--format", "json"],
    )
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 3
    assert all(r["within"] is True for r in rows)
    assert rows[0]["delta"] == 0.0 and rows[-1]["eps"] == 0.0


# ------------------------------------------------------------ reward-reach


def test_reward_reach_value_only(capsys, tmp_path):
    p = tmp_path / "tandem.json"
    save_model(fixtures.rewarded_tandem(), str(p))
    rc, out, _ = _run(capsys, ["reward-reach", "-m", str(p), "--bound", "2.0"])
    report = json.loads(out)
    assert rc == 0
    assert report["budget"] == 2.0
    assert report["value"] == pytest.approx(0.2795202105148014, abs=1e-8)
    assert "q_hat" not in report and "bound" not in report


def test_reward_reach_with_tolerance_bound(capsys, tmp_path):
    p = tmp_path / "tandem.json"
    save_model(fixtures.rewarded_tandem(), str(p))
    rc, out, _ = _run(
        capsys,
        ["reward-reach", "-m", str(p), "--bound", "2.0",
         "--eps", "0.1", "--delta", "0.05"],
    )
    report = json.loads(out)
    assert rc == 0
    # slow stage: rate 2 over reward 1/2 dominates the reward-rescaled clock
    assert report["q_hat"] == pytest.approx(4.0)
    expect = 1.0 - math.exp(-4.0 * 2.0 * (math.exp(0.05) * 1.1 - 1.0))
    assert report["bound"] == pytest.approx(expect, abs=1e-15)
    assert report["bound"] == pytest.approx(0.7138346957112972, abs=1e-12)


# ------------------------------------------------------------ pair-uniformize


def _scaled_branch_pair(tmp_path, delta=0.1):
    a = fixtures.branch_merge_chain()
    b = scale(a, math.exp(delta))
    pa, pb = tmp_path / "m.json", tmp_path / "n.json"
    save_model(a, str(pa))
    save_model(b, str(pb))
    return a, b, str(pa), str(pb)


def test_pair_uniformize_reports_exact_rate_ratio(capsys, tmp_path):
    _, _, pa, pb = _scaled_branch_pair(tmp_path)
    rc, out, _ = _run(
        capsys, ["pair-uniformize", "-m", pa, "--model-b", pb, "--delta", "0.1"]
    )
    report = json.loads(out)
    assert rc == 0
    assert report["q_m"] == pytest.approx(1.0)
    assert report["rate_ratio"] == pytest.approx(math.exp(0.1), abs=1e-15)
    for side in ("model_a", "model_b"):
        rates = {st["exit_rate"] for st in report[side]["states"]}
        assert len(rates) == 1  # uniform output chains
    assert "ordering_warning" not in report


def test_pair_uniformize_accepts_relation_file(capsys, tmp_path):
    a, b, pa, pb = _scaled_branch_pair(tmp_path)
    joint = direct_sum(a, b)
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps(relation_to_dict(epsilon_delta_bisim(joint, 0.0, 0.1), joint)))
    rc, out, _ = _run(
        capsys,
        ["pair-uniformize", "-m", pa, "--model-b", pb,
         "--delta", "0.1", "--relation", str(rel)],
    )
    report = json.loads(out)
    assert rc == 0
    assert report["q_n"] == pytest.approx(math.exp(0.1), abs=1e-15)
    assert ["s0", "s0~b"] in report["relation"]["pairs"]


def test_pair_uniformize_rejects_relation_that_fails_recheck(capsys, tmp_path, loop_pair_paths):
    # pairing the two loop starts claims a (0, 0.1) relation, but their exit
    # rates differ by a factor e^0.15 -- the verifier must throw it out
    pa, pb = loop_pair_paths
    a, b = fixtures.two_state_loop(0.3), scale(fixtures.two_state_loop(0.3), math.exp(0.15))
    joint = direct_sum(a, b)
    bogus = PairRelation.from_off_diagonal([(0, 2)], joint.n, 0.0, 0.1)
    rel = tmp_path / "bogus.json"
    rel.write_text(json.dumps(relation_to_dict(bogus, joint)))
    rc, out, err = _run(
        capsys,
        ["pair-uniformize", "-m", pa, "--model-b", pb,
         "--delta", "0.1", "--relation", str(rel)],
    )
    assert rc == 1
    assert out == ""
    assert "NotZeroDeltaBisim" in err


# ------------------------------------------------------------ spectral-report / pn


def test_spectral_report_shape(capsys, branch_path):
    rc, out, _ = _run(capsys, ["spectral-report", "-m", branch_path])
    report = json.loads(out)
    assert rc == 0
    assert set(report) == {
        "kind", "states", "absorbing_multiplicity", "second_modulus",
        "residual", "eigenvalues", "blocks",
    }
    assert report["kind"] == "diag"
    assert report["states"] == ["s0", "s1", "s2", "g"]
    assert report["second_modulus"] == pytest.approx(0.5, abs=1e-12)


def test_spectral_report_numerical_failure_exits_3(capsys, tmp_path):
    # one eigenvalue with algebraic multiplicity 54: far past the staircase
    # size gate, so the decomposition must refuse rather than hand back junk
    n = 54
    states = [(f"s{i}", ("a",), 1.0) for i in range(n)] + [("g", ("g",), 1.0)]
    transitions = [("g", "g", 1.0)]
    for i in range(n):
        transitions.append((f"s{i}", f"s{i}", 0.5))
        transitions.append((f"s{i}", f"s{i + 1}" if i + 1 < n else "g", 0.5))
    p = tmp_path / "big.json"
    save_model(make_ctmc(states, transitions, initial="s0", goal=("g",)), str(p))
    rc, out, err = _run(capsys, ["spectral-report", "-m", str(p)])
    assert rc == 3
    assert out == ""
    assert "DecompositionUnstable" in err


def test_pn_table_matches_oracle(capsys, branch_path):
    rc, out, _ = _run(capsys, ["pn", "-m", branch_path, "--steps", "6"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,formula,oracle,abs_err"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [float(r[2]) for r in rows] == pytest.approx(
        [0.0, 0.375, 0.28125, 0.1640625, 0.087890625, 0.04541015625]
    )
    assert all(float(r[3]) < 1e-12 for r in rows)


def test_pn_json_format(capsys, branch_path):
    rc, out, _ = _run(
        capsys, ["pn", "-m", branch_path, "--steps", "4", "--format", "json"]
    )
    rows = json.loads(out)
    assert rc == 0
    assert [r["n"] for r in rows] == [1, 2, 3, 4]
    assert all(abs(r["formula"] - r["oracle"]) == r["abs_err"] for r in rows)


# ------------------------------------------------------------ simulate


def test_simulate_is_deterministic_under_a_seed(capsys, branch_path):
    argv = ["simulate", "-m", branch_path, "--t", "2.0",
            "--paths", "4000", "--seed", "7"]
    rc1, out1, _ = _run(capsys, argv)
    rc2, out2, _ = _run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["paths"] == 4000 and report["seed"] == 7
    assert report["hits"] == 1357
    assert report["estimate"] == report["hits"] / report["paths"]
    assert report["ci_low"] <= report["estimate"] <= report["ci_high"]


def test_simulate_jump_budget_exhaustion_exits_3(capsys, tmp_path, monkeypatch):
    # a three-state cycle at rate 1e7 makes ~1e7 jumps per path by t = 1;
    # the budget is lowered here only to keep the run short
    import functools

    from ctmcbisim import cli
    from ctmcbisim.transient import simulate_paths

    states = [("a", (), 1e7), ("b", (), 1e7), ("c", (), 1e7), ("g", ("g",), 1e7)]
    transitions = [("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0 - 1e-9),
                   ("c", "g", 1e-9), ("g", "g", 1.0)]
    p = tmp_path / "cycle.json"
    save_model(make_ctmc(states, transitions, initial="a", goal=("g",)), str(p))
    monkeypatch.setattr(cli, "simulate_paths", functools.partial(simulate_paths, max_jumps=500))
    rc, out, err = _run(capsys, ["simulate", "-m", str(p), "--t", "1", "--paths", "10"])
    assert rc == 3
    assert out == ""
    assert err.startswith("JumpBudgetExceeded:")
    assert "Traceback" not in err


# ------------------------------------------------------------ exit code 2


def test_missing_model_file_exits_2(capsys):
    rc, _, err = _run(capsys, ["bounds", "-m", "/no/such/file.json", "--delta", "0.1"])
    assert rc == 2
    assert err != ""


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_malformed_model_json_exits_2(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{this is not json")
    rc, _, err = _run(capsys, ["spectral-report", "-m", str(p)])
    assert rc == 2


def test_reward_reach_zero_reward_goal_exits_2_naming_the_state(capsys, tmp_path):
    p = tmp_path / "loop.json"
    M = make_ctmc(
        [("s", (), 1.0, 1.0), ("g", ("g",), 1.0, 0.0)],
        [("s", "g", 1.0), ("g", "s", 1.0)],
        initial="s",
        goal=("g",),
    )
    save_model(M, str(p))
    rc, out, err = _run(capsys, ["reward-reach", "-m", str(p), "--bound", "1.0"])
    assert rc == 2
    assert out == ""
    assert err.startswith("ZeroReward:") and "state 1 has zero reward" in err


def test_bounds_names_an_unknown_column_before_reading_the_model(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{this is not json")
    rc, out, err = _run(capsys, ["bounds", "-m", str(p), "--delta", "0.1", "--which", "exact,bogus"])
    assert rc == 2
    assert out == ""
    assert "unknown bound column(s) ['bogus']" in err
    assert "JSONDecode" not in err
