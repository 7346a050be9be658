"""Every goal analysis reads the normal form: the Erlang curves and
reward-bounded reachability too.

``exact_diff_curve`` and ``markov_curve`` open with ``erlang._prepare``, as
the spectral routes do, and ``reward_reach`` evaluates the normal form of
the chain as seen from its start state.  So a goal that is not absorbing,
several goal states and unreachable states give the answer of the normal
form instead of a truncation failure, a ``NoGoalState`` or the probability
of *being in* the goal.
"""

import json
import math

import numpy as np
import pytest

from ctmcbisim import exact_diff_curve, fixtures, make_ctmc, markov_curve, reward_reach, rewards, save_model
from ctmcbisim.cli import main
from ctmcbisim.errors import ZeroReward
from ctmcbisim.model import _normal_form
from ctmcbisim.transient import diff_curve

from test_grid_sharing import _count_calls

GRID = [0.5, 1.0, 2.0, 5.0]


def _returning_goal():
    """s -> {a 1/2, g 1/2}, a -> {s 0.3, g 0.7} and g -> s: the goal is left again."""
    return make_ctmc(
        [("s", (), 1.0), ("a", (), 1.0), ("g", ("g",), 1.0)],
        [("s", "a", 0.5), ("s", "g", 0.5), ("a", "s", 0.3), ("a", "g", 0.7), ("g", "s", 1.0)],
        initial="s",
        goal=("g",),
    )


def _two_goals():
    """s -> {a 1/2, g1 1/4, g2 1/4}, a -> {s 1/2, g1 1/4, g2 1/4}; both goals absorbing."""
    return make_ctmc(
        [("s", (), 1.0), ("a", (), 1.0), ("g1", ("g",), 1.0), ("g2", ("g",), 1.0)],
        [
            ("s", "a", 0.5), ("s", "g1", 0.25), ("s", "g2", 0.25),
            ("a", "s", 0.5), ("a", "g1", 0.25), ("a", "g2", 0.25),
            ("g1", "g1", 1.0), ("g2", "g2", 1.0),
        ],
        initial="s",
        goal=("g1", "g2"),
    )


def _ping_pong():
    """s <-> g at rate 1, reward 1 on both."""
    return make_ctmc(
        [("s", (), 1.0, 1.0), ("g", ("g",), 1.0, 1.0)],
        [("s", "g", 1.0), ("g", "s", 1.0)],
        initial="s",
        goal=("g",),
    )


def _cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------- Erlang curves


def test_exact_curve_of_a_returning_goal_is_that_of_its_normal_form():
    M = _returning_goal()
    got = exact_diff_curve(M, 0.1, GRID)
    assert np.allclose(got, diff_curve(_normal_form(M), math.exp(0.1), GRID), rtol=0.0, atol=1e-8)
    assert np.round(got, 4).tolist() == [0.0216, 0.0338, 0.0384, 0.0147]


def test_two_goal_chain_gets_both_erlang_curves():
    M = _two_goals()
    exact = exact_diff_curve(M, 0.1, GRID)
    assert np.allclose(exact, diff_curve(_normal_form(M), math.exp(0.1), GRID), rtol=0.0, atol=1e-8)
    assert np.all(markov_curve(M, 0.1, GRID) >= exact)


# ---------------------------------------------------------------- reward reach


def test_reward_reach_of_a_returning_goal_is_reaching_it(capsys, tmp_path):
    p = tmp_path / "ping_pong.json"
    save_model(_ping_pong(), str(p))
    rc, out, _ = _cli(capsys, ["reward-reach", "-m", str(p), "--bound", "5"])
    assert rc == 0
    value = json.loads(out)["value"]
    assert abs(value - (1.0 - math.exp(-5.0))) <= 1e-9
    rc, out, _ = _cli(capsys, ["simulate", "-m", str(p), "--t", "5", "--paths", "4000"])
    sim = json.loads(out)
    assert rc == 0 and sim["ci_low"] <= value <= sim["ci_high"]


def test_a_start_in_the_goal_set_is_reached_at_once(capsys, tmp_path):
    M = _ping_pong()
    assert reward_reach(M, "g", 2.0) == 1.0
    p = tmp_path / "ping_pong.json"
    save_model(M, str(p))
    rc, out, _ = _cli(capsys, ["reward-reach", "-m", str(p), "--bound", "2", "--state", "g", "--eps", "0.1"])
    assert rc == 0
    assert json.loads(out) == {"budget": 2.0, "value": 1.0, "q_hat": 0.0, "bound": 0.0}


def test_zero_reward_goal_and_start_are_named_by_their_index_in_the_chain():
    # g is absorbing here, so the normal form does not move it
    absorbing = make_ctmc(
        [("s", (), 1.0, 1.0), ("z", (), 1.0, 0.0), ("g", ("g",), 1.0, 0.0)],
        [("s", "z", 1.0), ("z", "g", 1.0), ("g", "g", 1.0)],
        initial="s",
        goal=("g",),
    )
    with pytest.raises(ZeroReward, match="state 2 has zero reward"):
        reward_reach(absorbing, None, 1.0)
    M = make_ctmc(
        [("s", (), 1.0, 1.0), ("z", (), 1.0, 0.0), ("g", ("g",), 1.0, 1.0)],
        [("s", "z", 1.0), ("z", "g", 1.0), ("g", "g", 1.0)],
        initial="s",
        goal=("g",),
    )
    with pytest.raises(ZeroReward, match="state 1 has zero reward"):
        reward_reach(M, "z", 1.0)


def test_reward_reach_command_rescales_the_clock_once(capsys, monkeypatch, tmp_path):
    p = tmp_path / "tandem.json"
    save_model(fixtures.rewarded_tandem(), str(p))
    eliminations = _count_calls(monkeypatch, rewards, "eliminate_zero_reward_states")
    rescalings = _count_calls(monkeypatch, rewards, "hat_transform")
    rc, out, _ = _cli(capsys, ["reward-reach", "-m", str(p), "--bound", "2", "--eps", "0.1", "--delta", "0.05"])
    assert rc == 0
    assert len(eliminations) == 1 and len(rescalings) == 1
    # the slow stage, rate 2 over reward 1/2, sets the rescaled chain's largest rate
    assert json.loads(out)["q_hat"] == 4.0
