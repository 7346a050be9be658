"""The argument checks that no other test reaches, each with its message:
the relation and partition checks, the shape checks of ``Ctmc``, negative
reward rates, and the step formulas on the wrong factorization or step."""

import re
from dataclasses import replace

import numpy as np
import pytest

from ctmcbisim import (
    Ctmc,
    PairRelation,
    Partition,
    compose,
    decompose,
    eliminate_zero_reward_states,
    fixtures,
    hat_transform,
    normalize_goal,
    pn_diag,
    pn_jordan,
    reward_reach,
)
from ctmcbisim.errors import WrongKind
from ctmcbisim.spectral import as_jordan


def _raises(error, message):
    return pytest.raises(error, match=f"^{re.escape(message)}$")


def test_compose_needs_one_state_count():
    R1 = PairRelation.from_off_diagonal(set(), 2, 0.0, 0.0)
    R2 = PairRelation.from_off_diagonal(set(), 3, 0.0, 0.0)
    with _raises(ValueError, "relations live on different state counts"):
        compose(R1, R2)


@pytest.mark.parametrize("blocks", [({1}, {2}), ({0}, {2}), ({0, 1}, {3})], ids=["no-0", "gap", "past-n"])
def test_partition_blocks_cover_a_range_from_zero(blocks):
    with _raises(ValueError, "blocks do not cover a 0..n-1 state range"):
        Partition(tuple(map(frozenset, blocks)))


_LOOP = fixtures.two_state_loop(0.3)  # two states, P and E well formed
_SHAPES = {
    "P": (dict(P=np.eye(3)), "P has shape (3, 3), expected (2, 2)"),
    "E": (dict(E=np.ones(3)), "E has shape (3,), expected (2,)"),
    "labels": (dict(labels=((),)), "labels/ids length mismatch"),
    "initial": (dict(initial=2), "initial index 2 out of range"),
    "negative initial": (dict(initial=-1), "initial index -1 out of range"),
    "rewards": (dict(rewards=np.ones(3)), "rewards length mismatch"),
}


@pytest.mark.parametrize("case", sorted(_SHAPES))
def test_ctmc_checks_its_shapes(case):
    fields, message = _SHAPES[case]
    with _raises(ValueError, message):
        replace(_LOOP, **fields)


@pytest.mark.parametrize(
    "analysis",
    [eliminate_zero_reward_states, hat_transform, lambda M: reward_reach(M, None, 1.0)],
    ids=["eliminate", "hat", "reward_reach"],
)
def test_reward_rates_must_be_nonnegative(analysis):
    M = fixtures.rewarded_tandem()
    rewards = M.rewards.copy()
    rewards[0] = -0.5
    with _raises(ValueError, "reward rates must be nonnegative"):
        analysis(replace(M, rewards=rewards))


def _factorizations():
    sd = decompose(normalize_goal(fixtures.branch_merge_chain()).P)
    assert sd.kind == "diag"
    return sd, as_jordan(sd)


def test_step_formulas_need_their_factorization():
    diag, jordan = _factorizations()
    with _raises(WrongKind, "pn_diag needs a diagonal factorization"):
        pn_diag(jordan, 1)
    with _raises(WrongKind, "pn_jordan needs a block factorization"):
        pn_jordan(diag, 1)


@pytest.mark.parametrize("k", [0, -1])
def test_step_formulas_count_steps_from_one(k):
    diag, jordan = _factorizations()
    with _raises(ValueError, "steps are 1-based"):
        pn_diag(diag, k)
    with _raises(ValueError, "steps are 1-based"):
        pn_jordan(jordan, k)
