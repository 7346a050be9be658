"""The verifier and the relation closure against the code they replaced.

``is_bisimulation``, ``compose`` and ``reflexive_symmetric_closure`` below
are the previous implementations, verbatim: a verifier that checks labels,
rates and flows pair by pair and then rewards, and a composition closed by
its own helper.  The library now screens labels, rates and rewards on
arrays, walks the pairs before the first label or rate failure through the
fixpoint's flow loop, and closes every relation in
``PairRelation.from_off_diagonal``.  It must report the same
``RelationCheck`` and build the same relations.  It must solve the same
flows in the same order, which a wrapper around ``_max_flow`` records,
except those of the pairs that ``bisim._decide`` passes with no flow; each
such pair must pass its exact flow in both orientations.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import replace
from typing import Iterable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import bisim, direct_sum
from ctmcbisim.bisim import (
    DELTA_SLACK,
    FLOW_ETA,
    PairRelation,
    RelationCheck,
    _max_flow,
    _related_mass,
    _row,
    _threshold,
)
from ctmcbisim.model import Ctmc

from helpers import (
    adjacency,
    random_bisimilar_pair,
    random_dag_chain,
    random_labeled_chain,
    random_rewarded_chain,
    random_stable_chain,
    random_uniform_chain,
)

# --------------------------------------------------------------------------
# oracle: the previous verifier and closure, verbatim
# --------------------------------------------------------------------------


def reflexive_symmetric_closure(pairs: Iterable[tuple[int, int]], n: int) -> frozenset[tuple[int, int]]:
    out = {(s, s) for s in range(n)}
    for s, t in pairs:
        out.add((s, t))
        out.add((t, s))
    return frozenset(out)


def compose(R1: PairRelation, R2: PairRelation) -> PairRelation:
    """Relational composition with summed tolerances (then made
    reflexive-symmetric), the witness behind additivity of (eps, delta)."""
    if R1.n != R2.n:
        raise ValueError("relations live on different state counts")
    adj1, adj2 = adjacency(R1), adjacency(R2)
    pairs = {(s, u) for s in range(R1.n) for u in set().union(*(adj2[t] for t in adj1[s]))}
    return PairRelation(
        n=R1.n,
        pairs=reflexive_symmetric_closure(pairs, R1.n),
        eps=R1.eps + R2.eps,
        delta=R1.delta + R2.delta,
    )


def is_bisimulation(M: Ctmc, R: PairRelation, eta: float = FLOW_ETA) -> RelationCheck:
    """Verify label equality, the rate condition, the flow condition and,
    when the chain has rewards, reward equality for every pair; reports
    the first failure.  Rewards are checked after the other conditions
    have passed for every pair."""
    if R.n != M.n:
        raise ValueError("relation size does not match the chain")
    lnE = np.log(M.E)
    labels = M.label_sets
    rows = [_row(M, s) for s in range(M.n)]
    threshold = _threshold(R.eps, eta)
    pairs = R.off_diagonal()
    for s, t in pairs:
        if labels[s] != labels[t]:
            return RelationCheck(False, (s, t), "label", f"{labels[s]} != {labels[t]}")
        gap = abs(lnE[s] - lnE[t])
        if gap > R.delta + DELTA_SLACK:
            return RelationCheck(False, (s, t), "delta", f"|ln E(s) - ln E(t)| = {gap:.12g}")
        for a, b in ((s, t), (t, s)):
            f = _max_flow(rows[a], rows[b], R.matrix, threshold, stop=True)
            if f.value < f.target:
                return RelationCheck(
                    False,
                    (a, b),
                    "eps",
                    f"max related mass {_related_mass(f):.12g} < 1 - eps",
                )
    if M.rewards is not None:
        rewards = M.rewards.tolist()
        for s, t in pairs:
            if rewards[s] != rewards[t]:
                return RelationCheck(False, (s, t), "reward", f"{rewards[s]!r} != {rewards[t]!r}")
    return RelationCheck(True)


# --------------------------------------------------------------------------
# recording the flows
# --------------------------------------------------------------------------


class _Tagged(tuple):
    """A ``_row`` result that remembers its state."""

    state: int


def _checked(verify, M: Ctmc, R: PairRelation, eta: float) -> tuple[RelationCheck, list[tuple[int, int, bool]]]:
    """``verify(M, R, eta)`` and the ``(s, t, stop)`` of each ``_max_flow``
    call it made, in order."""
    calls: list[tuple[int, int, bool]] = []
    row, max_flow = bisim._row, bisim._max_flow

    def tagged_row(M: Ctmc, s: int) -> _Tagged:
        out = _Tagged(row(M, s))
        out.state = s
        return out

    def recording(row_s, row_t, related, threshold, stop=False):
        calls.append((row_s.state, row_t.state, stop))
        return max_flow(row_s, row_t, related, threshold, stop=stop)

    with pytest.MonkeyPatch.context() as mp:
        for module in (bisim, sys.modules[__name__]):
            mp.setattr(module, "_row", tagged_row)
            mp.setattr(module, "_max_flow", recording)
        check = verify(M, R, eta)
    return check, calls


def _assert_same_check(M: Ctmc, R: PairRelation, eta: float = FLOW_ETA) -> RelationCheck:
    """The same ``RelationCheck``, and the oracle's flows less those of the
    pairs that ``_decide`` passes, each of which passes both exact flows."""
    new, new_calls = _checked(bisim.is_bisimulation, M, R, eta)
    old, old_calls = _checked(is_bisimulation, M, R, eta)
    assert (new.ok, new.pair, new.condition, new.detail) == (old.ok, old.pair, old.condition, old.detail)
    threshold = _threshold(R.eps, eta)
    pairs = np.argwhere(np.triu(R.matrix, 1))
    passed = {tuple(p) for p in pairs[bisim._decide(M, R.matrix, bisim._tables(M, threshold), pairs)[0]].tolist()}
    assert new_calls == [(a, b, stop) for a, b, stop in old_calls if (min(a, b), max(a, b)) not in passed]
    skipped = {(min(a, b), max(a, b)) for a, b, _ in old_calls} & passed
    for s, t in skipped:
        for a, b in ((s, t), (t, s)):
            f = _max_flow(_row(M, a), _row(M, b), R.matrix, threshold)
            assert f.value >= f.target, (a, b)
    return new


def _assert_same_closure(pairs: set[tuple[int, int]], n: int, eps: float, delta: float) -> None:
    assert PairRelation.from_off_diagonal(pairs, n, eps, delta).pairs == reflexive_symmetric_closure(pairs, n)


# --------------------------------------------------------------------------
# chains and relations
# --------------------------------------------------------------------------


def _bisimilar_sum(rng: np.random.Generator) -> Ctmc:
    M, N = random_bisimilar_pair(rng, 0.1, 0.1)
    return direct_sum(M, N)


GENERATORS = (
    random_uniform_chain,
    random_dag_chain,
    random_stable_chain,
    random_labeled_chain,
    _bisimilar_sum,
    random_rewarded_chain,
)
_EPS = (0.0, 0.05, 0.1, 0.25)
_DELTA = (0.0, 0.1, 0.5, 1.0)


def _relations(M: Ctmc, eps: float, delta: float, rng: np.random.Generator) -> list[PairRelation]:
    """The fixpoint; it with one and with two more pairs; two random
    symmetric subsets of all pairs; the initial relation, at its own delta
    and at half of it; and on a rewarded chain, the fixpoint of the chain
    without its rewards, which only the reward check can fail."""
    fixpoint = bisim.epsilon_delta_bisim(M, eps, delta)
    outside = [(s, t) for s in range(M.n) for t in range(s + 1, M.n) if (s, t) not in fixpoint]
    out = [fixpoint]
    for k in (1, 2):
        if len(outside) >= k:
            extra = {outside[i] for i in rng.choice(len(outside), size=k, replace=False).tolist()}
            out.append(PairRelation.from_off_diagonal(set(fixpoint.off_diagonal()) | extra, M.n, eps, delta))
    for p in (0.2, 0.6):
        subset = {(s, t) for s in range(M.n) for t in range(s + 1, M.n) if rng.random() < p}
        out.append(PairRelation.from_off_diagonal(subset, M.n, eps, delta))
    initial = {(s, t) for s, t in np.argwhere(bisim._initial_related(M, delta)).tolist() if s < t}
    for d in (delta, delta / 2):
        out.append(PairRelation.from_off_diagonal(initial, M.n, eps, d))
    if M.rewards is not None:
        out.append(bisim.epsilon_delta_bisim(replace(M, rewards=None), eps, delta))
    return out


# --------------------------------------------------------------------------
# tests
# --------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    gen=st.sampled_from(GENERATORS),
    seed=st.integers(0, 2**32 - 1),
    eps=st.sampled_from(_EPS),
    delta=st.sampled_from(_DELTA),
    eta=st.sampled_from((FLOW_ETA, 0.0)),
)
def test_verifier_matches_the_oracle(gen, seed, eps, delta, eta):
    rng = np.random.default_rng(seed)
    M = gen(rng)
    for R in _relations(M, eps, delta, rng):
        _assert_same_check(M, R, eta)


def test_every_condition_fails_first_somewhere():
    seen = set()
    for seed in range(6):
        for gen, (eps, delta) in itertools.product(GENERATORS, zip(_EPS, _DELTA)):
            rng = np.random.default_rng(seed)
            M = gen(rng)
            for R in _relations(M, eps, delta, rng):
                seen.add(_assert_same_check(M, R).condition)
    assert seen == {None, "label", "delta", "eps", "reward"}


@settings(max_examples=60, deadline=None)
@given(
    gen=st.sampled_from(GENERATORS),
    seed=st.integers(0, 2**32 - 1),
    eps=st.sampled_from(_EPS),
    delta=st.sampled_from(_DELTA),
)
def test_compose_and_closure_match_the_oracle(gen, seed, eps, delta):
    rng = np.random.default_rng(seed)
    M = gen(rng)
    relations = _relations(M, eps, delta, rng)
    for R1 in relations:
        _assert_same_closure(set(R1.off_diagonal()), M.n, eps, delta)
        for R2 in relations[:3]:
            new, old = bisim.compose(R1, R2), compose(R1, R2)
            assert (new.n, new.pairs, new.eps, new.delta) == (old.n, old.pairs, old.eps, old.delta)


@pytest.mark.parametrize("pairs", [set(), {(0, 0)}, {(2, 1), (1, 2)}, {(0, 3), (1, 2)}])
def test_closure_of_small_pair_sets(pairs):
    _assert_same_closure(pairs, 4, 0.0, 0.0)


def test_closure_rejects_a_pair_out_of_range_like_the_oracle():
    with pytest.raises(ValueError) as new:
        PairRelation.from_off_diagonal({(0, 5)}, 3, 0.0, 0.0)
    with pytest.raises(ValueError) as old:
        PairRelation(n=3, pairs=reflexive_symmetric_closure({(0, 5)}, 3), eps=0.0, delta=0.0)
    assert str(new.value) == str(old.value)
