import math

import numpy as np
import pytest

from ctmcbisim import (
    eliminate_zero_reward_states,
    epsilon_delta_bisim,
    fixtures,
    hat_transform,
    make_ctmc,
    reward_bound,
    reward_reach,
    simulate_paths,
    timed_reach,
    uniformization_bound,
)
from ctmcbisim.errors import AbsorbingState, ZeroReward, ZeroRewardCycle

from helpers import random_rewarded_chain


def unit_reward_copy(M):
    return make_ctmc(
        [(M.ids[i], M.labels[i], float(M.E[i]), 1.0) for i in range(M.n)],
        [
            (M.ids[i], M.ids[j], float(M.P[i, j]))
            for i in range(M.n)
            for j in range(M.n)
            if M.P[i, j] > 0
        ],
        initial=M.ids[M.initial],
        goal=tuple(M.ids[g] for g in M.goal),
        fail=tuple(M.ids[f] for f in M.fail),
    )


# ---------------------------------------------------------------- elimination


def test_eliminate_tandem_splice():
    M = fixtures.rewarded_tandem()
    out = eliminate_zero_reward_states(M)
    assert "z" not in out.ids
    assert out.ids == ("s0", "s1", "g", "f")
    s0, s1, g, f = range(4)
    # s0's mass through z (0.5, all of it onward to s1) lands on s1
    assert out.P[s0, s1] == pytest.approx(0.75, abs=1e-15)
    assert out.P[s0, f] == pytest.approx(0.25, abs=1e-15)
    assert out.E[s0] == M.E[M.index("s0")]  # predecessors keep their clocks
    # the fail sink is exempt from elimination and carries the sentinel
    assert out.rewards[f] == 1.0
    assert np.all(out.rewards > 0.0)
    assert np.allclose(out.P.sum(axis=1), 1.0, atol=1e-12)


def test_eliminate_no_zero_states_only_rewrites_fail():
    M = fixtures.rewarded_tandem()
    once = eliminate_zero_reward_states(M)
    again = eliminate_zero_reward_states(once)
    assert again.ids == once.ids
    assert np.array_equal(again.P, once.P)
    assert np.array_equal(again.rewards, once.rewards)


def test_eliminate_rejects_zero_reward_cycle():
    M = make_ctmc(
        [("a", (), 1.0, 1.0), ("z1", (), 1.0, 0.0), ("z2", (), 1.0, 0.0), ("g", ("g",), 1.0, 1.0)],
        [
            ("a", "z1", 1.0),
            ("z1", "z2", 0.5), ("z1", "g", 0.5),
            ("z2", "z1", 0.5), ("z2", "g", 0.5),
            ("g", "g", 1.0),
        ],
        initial="a",
        goal=("g",),
    )
    with pytest.raises(ZeroRewardCycle):
        eliminate_zero_reward_states(M)


def test_eliminate_rejects_zero_reward_initial():
    M = make_ctmc(
        [("a", (), 1.0, 0.0), ("g", ("g",), 1.0, 1.0)],
        [("a", "g", 1.0), ("g", "g", 1.0)],
        initial="a",
        goal=("g",),
    )
    with pytest.raises(ZeroReward):
        eliminate_zero_reward_states(M)


def test_eliminate_chain_of_zeros():
    # z1 -> z2 both zero-reward: mass flows straight through to the end
    M = make_ctmc(
        [
            ("a", (), 1.0, 2.0),
            ("z1", (), 3.0, 0.0),
            ("z2", (), 5.0, 0.0),
            ("g", ("g",), 1.0, 1.0),
        ],
        [
            ("a", "z1", 0.5), ("a", "g", 0.5),
            ("z1", "z2", 1.0),
            ("z2", "g", 1.0),
            ("g", "g", 1.0),
        ],
        initial="a",
        goal=("g",),
    )
    out = eliminate_zero_reward_states(M)
    assert out.ids == ("a", "g")
    assert out.P[0, 1] == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------- hat transform


def test_hat_rescales_rates_entrywise():
    M = eliminate_zero_reward_states(fixtures.rewarded_tandem())
    H = hat_transform(M)
    assert np.array_equal(H.P, M.P)
    assert np.allclose(H.E, M.E / M.rewards, atol=0.0)
    assert H.rewards is None


def test_hat_rejects_zero_reward():
    M = fixtures.rewarded_tandem()
    with pytest.raises(ZeroReward):
        hat_transform(M)


def test_hat_preserves_relations_under_equal_rewards():
    # twins with equal rewards: dividing rates by the same number moves
    # both endpoints of every |ln E - ln E'| gap identically
    M = make_ctmc(
        [("a1", ("a",), 1.0, 2.0), ("a2", ("a",), 1.1, 2.0), ("g", ("g",), 1.0, 0.5)],
        [
            ("a1", "a1", 0.5), ("a1", "g", 0.5),
            ("a2", "a2", 0.5), ("a2", "g", 0.5),
            ("g", "g", 1.0),
        ],
        initial="a1",
        goal=("g",),
    )
    before = epsilon_delta_bisim(M, 0.0, 0.2).pairs
    after = epsilon_delta_bisim(hat_transform(M), 0.0, 0.2).pairs
    assert before == after
    assert (0, 1) in before


# ---------------------------------------------------------------- reward reach

# budget -> probability frozen from a matrix-exponential run on the
# hand-built clock-rescaled tandem chain
TANDEM_REF = [
    (0.5, 0.05503254617200006),
    (2.0, 0.2795202105148014),
    (5.0, 0.45074903141589284),
]


@pytest.mark.parametrize("r,expect", TANDEM_REF)
def test_reward_reach_tandem_frozen(r, expect):
    M = fixtures.rewarded_tandem()
    assert reward_reach(M, None, r, tol=1e-12) == pytest.approx(expect, abs=1e-10)


def test_reward_reach_zero_budget_and_validation():
    M = fixtures.rewarded_tandem()
    assert reward_reach(M, None, 0.0) == 0.0
    with pytest.raises(ValueError):
        reward_reach(M, None, -1.0)
    with pytest.raises(ZeroReward):
        reward_reach(M, "z", 1.0)  # start state was eliminated


def test_unit_rewards_reduce_to_timed_reach():
    M = unit_reward_copy(fixtures.branch_merge_chain())
    for r in (0.5, 2.0, 10.0):
        assert reward_reach(M, None, r, tol=1e-12) == pytest.approx(
            timed_reach(fixtures.branch_merge_chain(), None, r, tol=1e-12), abs=1e-12
        )


def test_reward_reach_state_order_invariant():
    # same chain written with its states permuted: the pipeline must not
    # depend on the elimination order
    M = fixtures.rewarded_tandem()
    order = ["s1", "z", "f", "s0", "g"]
    perm = make_ctmc(
        [
            (sid, M.labels[M.index(sid)], float(M.E[M.index(sid)]), float(M.rewards[M.index(sid)]))
            for sid in order
        ],
        [
            (a, b, float(M.P[M.index(a), M.index(b)]))
            for a in order
            for b in order
            if M.P[M.index(a), M.index(b)] > 0
        ],
        initial="s0",
        goal=("g",),
        fail=("f",),
    )
    for r in (0.5, 2.0, 5.0):
        assert reward_reach(perm, None, r, tol=1e-11) == pytest.approx(
            reward_reach(M, None, r, tol=1e-11), abs=1e-9
        )


def test_reward_reach_monte_carlo_agreement():
    M = fixtures.rewarded_tandem()
    r = 2.0
    truth = reward_reach(M, None, r, tol=1e-11)
    sim = simulate_paths(M, 100_000, r, seed=11, budget_weights=M.rewards, confidence=0.99)
    assert sim.contains(truth)


def test_random_rewarded_chains_pipeline():
    for seed in (0, 1, 2):
        M = random_rewarded_chain(np.random.default_rng(seed))
        r = 1.5
        truth = reward_reach(M, None, r, tol=1e-10)
        sim = simulate_paths(M, 60_000, r, seed=seed, budget_weights=M.rewards, confidence=0.99)
        assert sim.contains(truth), (seed, truth, sim)


# ---------------------------------------------------------------- bound


def test_reward_bound_is_uniformization_bound_on_hat_rate():
    M = fixtures.rewarded_tandem()
    q_hat = hat_transform(eliminate_zero_reward_states(M)).max_rate()
    assert q_hat == pytest.approx(4.0, abs=1e-12)  # slow stage: rate 2 over reward 1/2
    for eps, delta, r in [(0.1, 0.0, 1.0), (0.0, 0.2, 2.0), (0.05, 0.05, 0.3)]:
        assert reward_bound(eps, delta, q_hat, r) == uniformization_bound(
            eps, delta, q_hat, r
        )


def _zero_reward_goal_loop():
    """``s`` (reward 1) and the goal ``g`` (reward 0), with ``s -> g`` and
    ``g -> s``: the goal is zero-reward and not absorbing."""
    return make_ctmc(
        [("s", (), 1.0, 1.0), ("g", ("g",), 1.0, 0.0)],
        [("s", "g", 1.0), ("g", "s", 1.0)],
        initial="s",
        goal=("g",),
    )


def test_zero_reward_goal_that_is_not_absorbing_raises_zero_reward():
    M = _zero_reward_goal_loop()
    with pytest.raises(ZeroReward) as info:
        eliminate_zero_reward_states(M)
    assert info.value.state == M.index("g")
    with pytest.raises(ZeroReward):
        reward_reach(M, None, 1.0)
