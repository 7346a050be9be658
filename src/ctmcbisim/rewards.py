"""Reward-bounded reachability by rescaling the clock.

A state with reward rate ``rho(s)`` spends its budget ``rho(s)`` times
faster than its clock runs, so reward-bounded reachability is plain
time-bounded reachability once every exit rate is divided by the local
reward rate.  Zero-reward states consume no budget at all; they are
removed beforehand by short-circuiting their rows (their sojourns are
invisible to the budget), which is well-defined exactly when the
zero-reward states do not form a cycle.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import graph
from .erlang import uniformization_bound
from .errors import AbsorbingState, ZeroReward, ZeroRewardCycle
from .model import Ctmc, _absorbing_states, _normal_form, restrict
from .transient import timed_reach


def _require_rewards(M: Ctmc) -> np.ndarray:
    if M.rewards is None:
        raise ValueError("chain carries no reward rates")
    if np.any(M.rewards < 0.0):
        raise ValueError("reward rates must be nonnegative")
    return M.rewards


def _drop_self_loop(P: np.ndarray, E: np.ndarray, z: int) -> None:
    """Thin the self-loop of state z in place: waiting out a geometric
    number of sojourns is the same exponential as one sojourn at the
    thinned rate, so the row is renormalized and the exit rate scaled by
    the removed mass."""
    loop = float(P[z, z])
    P[z] = P[z] / (1.0 - loop)
    P[z, z] = 0.0
    E[z] = E[z] * (1.0 - loop)


def eliminate_zero_reward_states(M: Ctmc) -> Ctmc:
    """Short-circuit every zero-reward state out of the chain.

    Fail states are exempt: they never charge the budget anyway, so they
    stay and are given the sentinel reward 1 in the result (which keeps the
    downstream clock rescaling total).  Eliminating the initial state, a
    goal state or an absorbing state is impossible and raises; so do
    zero-reward cycles.
    Processing is one state at a time in ascending index order: remove the
    self-loop, then splice the row into every predecessor.
    """
    rewards = _require_rewards(M).copy()
    fail_set = set(M.fail)
    zs = [s for s in range(M.n) if rewards[s] == 0.0 and s not in fail_set]
    for f in fail_set:
        if rewards[f] == 0.0:
            rewards[f] = 1.0
    if not zs:
        return replace(M, rewards=rewards)
    if M.initial in zs:
        raise ZeroReward(M.initial)
    cycle = graph.find_cycle(M.succ, np.isin(np.arange(M.n), zs), self_loops=False)
    if cycle is not None:
        raise ZeroRewardCycle(f"zero-reward states {cycle[0]} and {cycle[1]} lie on a cycle")

    P = M.P.copy()
    E = M.E.copy()
    for z in zs:
        if _absorbing_states(P)[z]:
            raise AbsorbingState(f"state {M.ids[z]} is absorbing with zero reward")
        if P[z, z] > 0.0:
            _drop_self_loop(P, E, z)
        col = P[:, z].copy()
        col[z] = 0.0
        hit = np.flatnonzero(col > 0.0)
        if hit.size:
            P[hit] += col[hit, None] * P[z]
            P[hit, z] = 0.0

    lost = [g for g in M.goal if g in zs]
    if lost:  # a zero-reward goal cannot be spliced away
        raise ZeroReward(lost[0])
    gone = set(zs)
    keep = [s for s in range(M.n) if s not in gone]
    return restrict(replace(M, P=P, E=E, rewards=rewards, rate_exprs=None), keep)


def hat_transform(M: Ctmc) -> Ctmc:
    """Divide every exit rate by the local reward rate.

    On the resulting chain, the clock *is* the accumulated reward, so a
    reward budget becomes a plain time horizon.  Every state must carry a
    strictly positive reward."""
    rewards = _require_rewards(M)
    for s in range(M.n):
        if rewards[s] == 0.0:
            raise ZeroReward(s)
    with np.errstate(over="ignore"):  # timed_reach rejects a rate that overflows to inf
        E = M.E / rewards
    return replace(M, E=E, rewards=None, rate_exprs=None)


def _clock_chain(M: Ctmc, s: int | str | None) -> Ctmc | None:
    """The chain :func:`reward_reach` reads: M's normal form seen from s, zero-reward
    states eliminated, clock rescaled; None for a goal state s.  A zero-reward goal,
    or start outside the fail states, raises :class:`ZeroReward` with its index in M."""
    rewards = _require_rewards(M)
    start = M.initial if s is None else M.index(s)
    zero = [x for x in (*M.goal, start) if rewards[x] == 0.0 and x not in M.fail]
    if zero:
        raise ZeroReward(zero[0])
    if start in M.goal:
        return None
    return hat_transform(eliminate_zero_reward_states(_normal_form(replace(M, initial=start))))


def _budget_reach(chain: Ctmc | None, r: float, tol: float) -> float:
    return 1.0 if chain is None else timed_reach(chain, None, r, tol)


def reward_reach(M: Ctmc, s: int | str | None, r: float, tol: float = 1e-9) -> float:
    """Probability of reaching the goal before spending reward budget r.

    Pipeline: the normal form seen from s, its zero-reward states eliminated,
    its clock rescaled by the reward rates, timed reachability at r (1.0 from a goal)."""
    if r < 0.0:
        raise ValueError("the reward budget must be nonnegative")
    return _budget_reach(_clock_chain(M, s), r, tol)


def reward_bound(eps: float, delta: float, q_hat: float, r: float) -> float:
    """Reward-budget analogue of the time-uniform bound: states related up
    to (eps, delta) on the clock-rescaled chain differ in reward-bounded
    reachability by at most ``1 - e^{-q_hat r (e^delta (1+eps) - 1)}``."""
    return uniformization_bound(eps, delta, q_hat, r)
