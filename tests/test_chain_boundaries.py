"""One chain type with immutable arrays, validated at load, and a Poisson
truncation that fails cleanly instead of doubling without bound."""

import json

import numpy as np
import pytest

from ctmcbisim import Ctmc, direct_sum, embedded_dtmc, fixtures, load_model, save_model, uniformize
from ctmcbisim.bisim import relation_from_dict
from ctmcbisim.cli import main
from ctmcbisim.errors import NonpositiveRate, RowSumError
from ctmcbisim.transient import poisson_weights

# ---------------------------------------------------------------- Poisson truncation


@pytest.mark.parametrize("mu, tol", [(200.0, 1e-14), (50.0, 1e-15)])
def test_poisson_weights_below_rounding_error_raises(mu, tol):
    # the summed weights stall just under 1 - tol in double precision
    with pytest.raises(ValueError, match="larger tolerance"):
        poisson_weights(mu, tol)


def test_reward_reach_tolerance_below_rounding_error_exits_2(capsys, tmp_path):
    # the clock-rescaled tandem runs at rate 4, so budget 50 gives mu = 200
    p = tmp_path / "tandem.json"
    save_model(fixtures.rewarded_tandem(), str(p))
    rc = main(["reward-reach", "-m", str(p), "--bound", "50", "--tol", "1e-14"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("ValueError:")
    assert "Traceback" not in err


# ---------------------------------------------------------------- validation at load


def _write_invalid_model(path):
    path.write_text(json.dumps({
        "states": [
            {"id": "a", "labels": [], "exit_rate": -1.0},
            {"id": "g", "labels": ["g"], "exit_rate": 1.0},
        ],
        "transitions": [
            {"from": "a", "to": "g", "prob": 0.7},
            {"from": "g", "to": "g", "prob": 1.0},
        ],
        "initial": "a",
        "goal": ["g"],
    }))


def test_load_model_validates(tmp_path):
    p = tmp_path / "bad.json"
    _write_invalid_model(p)
    with pytest.raises(RowSumError) as info:
        load_model(str(p))
    assert [type(e) for e in info.value.all_violations] == [RowSumError, NonpositiveRate]


@pytest.mark.parametrize("argv", [
    ["simulate", "--t", "1", "--paths", "100"],
    ["check-bisim", "--eps", "0.1"],
])
def test_cli_rejects_invalid_model_file(capsys, tmp_path, argv):
    p = tmp_path / "bad.json"
    _write_invalid_model(p)
    rc = main([argv[0], "-m", str(p), *argv[1:]])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("RowSumError:")
    assert "Traceback" not in err


def _write_goal_needing_normalization(path, labeled):
    # the single goal has an outgoing transition and, when unlabeled, shares
    # its (empty) label set with the other states; normalize_goal repairs both
    states = [
        {"id": "s0", "labels": ["a"] if labeled else [], "exit_rate": 2.0},
        {"id": "s1", "labels": ["a"] if labeled else [], "exit_rate": 2.0},
        {"id": "g", "labels": ["a"] if labeled else [], "exit_rate": 2.0},
    ]
    path.write_text(json.dumps({
        "states": states,
        "transitions": [
            {"from": "s0", "to": "s1", "prob": 0.6},
            {"from": "s0", "to": "g", "prob": 0.4},
            {"from": "s1", "to": "g", "prob": 1.0},
            {"from": "g", "to": "s0", "prob": 0.5},
            {"from": "g", "to": "g", "prob": 0.5},
        ],
        "initial": "s0",
        "goal": ["g"],
    }))


@pytest.mark.parametrize("labeled", [True, False])
@pytest.mark.parametrize("argv", [
    ["bounds", "--delta", "0.1", "--tmax", "2", "--steps", "4"],
    ["pn", "--steps", "5"],
    ["spectral-report"],
])
def test_cli_normalizes_goal_it_loads(capsys, tmp_path, argv, labeled):
    p = tmp_path / "goal.json"
    _write_goal_needing_normalization(p, labeled)
    M = load_model(str(p))  # only row sums, probabilities and rates are checked
    assert M.goal == (2,) and M.P[2, 0] == 0.5
    rc = main([argv[0], "-m", str(p), *argv[1:]])
    out, err = capsys.readouterr()
    assert rc == 0, err
    assert out


# ---------------------------------------------------------------- relation files


@pytest.mark.parametrize("pairs", [[[True, 0]], [[0, 1]], [1], [["s0"]], [["s0", "s1", "s2"]], ["s0s1"]])
def test_relation_pairs_must_name_two_state_ids(pairs):
    M = fixtures.rewarded_tandem()
    with pytest.raises(ValueError, match="not a pair of state ids"):
        relation_from_dict({"pairs": pairs}, M)


def test_pair_uniformize_rejects_malformed_relation_file(capsys, tmp_path):
    a, r = tmp_path / "a.json", tmp_path / "rel.json"
    save_model(fixtures.rewarded_tandem(), str(a))
    r.write_text(json.dumps({"pairs": [1]}))
    rc = main(["pair-uniformize", "-m", str(a), "--model-b", str(a), "--delta", "0.1", "--relation", str(r)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("ValueError:")
    assert "Traceback" not in err


def test_relation_file_names_states_by_id():
    M = fixtures.rewarded_tandem()
    J = direct_sum(M, M)
    R = relation_from_dict({"pairs": [[J.ids[0], J.ids[M.n]]], "delta": 0.1}, J)
    assert (0, M.n) in R and R.delta == 0.1


# ---------------------------------------------------------------- one chain type


def test_arrays_are_read_only_views():
    P = np.array([[0.0, 1.0], [0.0, 1.0]])
    E = np.array([1.0, 2.0])
    rewards = np.array([1.0, 0.5])
    M = Ctmc(ids=("a", "g"), labels=((), ("g",)), P=P, E=E, initial=0, goal=(1,), rewards=rewards)
    for name, given in (("P", P), ("E", E), ("rewards", rewards)):
        stored = getattr(M, name)
        assert np.shares_memory(stored, given)  # not copied
        with pytest.raises(ValueError):
            stored[0] = 0.25
    assert P.flags.writeable  # the caller's arrays are left as they were
    assert M.P[0, 1] == 1.0 and M.E[0] == 1.0 and M.rewards[0] == 1.0


def test_uniformize_returns_chain_with_rewards():
    M = fixtures.rewarded_tandem()
    U = uniformize(M, 5.0)
    assert isinstance(U, Ctmc)
    assert np.array_equal(U.E, np.full(M.n, 5.0))
    assert np.array_equal(U.rewards, M.rewards)
    assert (U.ids, U.labels, U.initial, U.goal, U.fail) == (M.ids, M.labels, M.initial, M.goal, M.fail)


def test_embedded_chain_has_unit_rates_and_no_rewards():
    M = fixtures.rewarded_tandem()
    D = embedded_dtmc(M)
    assert isinstance(D, Ctmc)
    assert np.array_equal(D.P, M.P)
    assert np.array_equal(D.E, np.ones(M.n))
    assert D.rewards is None


def test_index_by_id_or_position():
    M = fixtures.rewarded_tandem()
    assert [M.index(s) for s in M.ids] == list(range(M.n))
    assert M.index(2) == 2 and M.index(np.int64(3)) == 3
    for bad in ("nope", M.n, -1, 1.0, ["s0"], True, False):
        with pytest.raises(KeyError, match="unknown state id"):
            M.index(bad)
