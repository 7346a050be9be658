"""The chain transformations against the implementations they replaced.

``normalize_goal`` builds its jump matrix by numpy indexing, and
``prune_unreachable`` and ``eliminate_zero_reward_states`` end in
``model.restrict``; the reward transformations that keep the state space
are ``dataclasses.replace`` edits.  The functions below are the earlier
implementations, copied verbatim (they fill ``P`` entry by entry and list
every ``Ctmc`` field by hand).  On hypothesis-drawn chains with multi-goal
sets, dead states, initial states that cannot reach the goal and
zero-reward states with self-loops, the library must return the same
chain or raise the same error.

``validate`` is kept the same way and must raise the same error with the
same further violations.  One family puts the goal's self-loop at the
absorbing threshold, where the oracles test a goal with
``abs(P[g, g] - 1) <= ROW_SUM_TOL`` and the library with the sampler's
rule ``P[g, g] >= 1 - ABSORBING_EPS``; the two agree on every self-loop
up to 1 + 1e-12.  Above it, and for a NaN self-loop, ``validate`` differs
by one "not absorbing" violation, always after the first one.
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import Iterable

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import Ctmc, graph, model, rewards
from ctmcbisim.errors import (
    AbsorbingState,
    CtmcError,
    EmptyGoalSet,
    NonAbsorbingGoal,
    NonFiniteValue,
    NonpositiveRate,
    RowSumError,
    ZeroReward,
    ZeroRewardCycle,
)
from ctmcbisim.model import ABSORBING_EPS, ROW_SUM_TOL, _fresh_atom, _fresh_id
from ctmcbisim.rewards import _require_rewards

from helpers import (
    random_bisimilar_pair,
    random_dag_chain,
    random_labeled_chain,
    random_rewarded_chain,
    random_stable_chain,
    random_uniform_chain,
)

# ---------------------------------------------------------------- oracles


class NonzeroReward(CtmcError):
    """Raised by the oracle ``remove_zero_reward_self_loop`` on a state with a reward."""


def normalize_goal(M: Ctmc, goals: Iterable[int | str] | None = None) -> Ctmc:
    """Merge the goal set into one absorbing, uniquely labeled state and all
    states that cannot reach it into one absorbing fail state.

    The output uses the canonical ordering the spectral formulas assume:
    initial state first, surviving transient states in original order,
    then the fail state (if any), then the goal state last.  Timed
    reachability of the goal set is preserved.  A chain that is already
    in this form is returned unchanged.
    """
    G = {M.index(g) for g in (goals if goals is not None else M.goal)}
    if not G:
        raise EmptyGoalSet("goal set is empty")
    if M.initial in G:
        raise ValueError("the initial state may not be a goal state")

    can_reach = graph.reach(M.pred, G)
    dead = [s for s in range(M.n) if s not in G and s not in can_reach]

    # Fast path: already normalized.
    if len(G) == 1 and not dead:
        (g,) = G
        lg = M.label_sets[g]
        unique = all(M.label_sets[s] != lg for s in range(M.n) if s != g)
        if (
            abs(M.P[g, g] - 1.0) <= ROW_SUM_TOL
            and unique
            and g == M.n - 1
            and M.initial == 0
            and M.goal == (g,)
        ):
            return M

    transient = [s for s in range(M.n) if s not in G and s not in dead]
    transient.sort()
    if M.initial in transient:
        transient.remove(M.initial)
        transient.insert(0, M.initial)

    order = list(transient)
    fail_idx = None
    if dead:
        fail_idx = len(order)
        order.append(-1)  # placeholder for the merged fail state
    goal_idx = len(order)
    order.append(-2)  # placeholder for the merged goal state

    used_atoms = {a for s in transient for a in M.labels[s]}
    used_ids = {M.ids[s] for s in transient}
    single_goal = len(G) == 1 and all(
        M.label_sets[next(iter(G))] != M.label_sets[s] for s in transient + dead
    )
    if single_goal:
        (g0,) = G
        goal_label = M.labels[g0]
        goal_id = M.ids[g0] if M.ids[g0] not in used_ids else _fresh_id(M.ids[g0], used_ids)
    else:
        goal_label = (_fresh_atom("goal", used_atoms),)
        goal_id = _fresh_id("goal", used_ids)
    used_atoms |= set(goal_label)
    used_ids.add(goal_id)
    fail_label = (_fresh_atom("fail", used_atoms),)
    fail_id = _fresh_id("fail", used_ids)

    m = len(order)
    P = np.zeros((m, m))
    E = np.empty(m)
    ids: list[str] = []
    labels: list[tuple[str, ...]] = []
    rewards = np.empty(m) if M.rewards is not None else None

    for new_i, old in enumerate(order):
        if old >= 0:
            ids.append(M.ids[old])
            labels.append(M.labels[old])
            E[new_i] = M.E[old]
            if rewards is not None:
                rewards[new_i] = M.rewards[old]
            for new_j, tgt in enumerate(order):
                if tgt >= 0:
                    P[new_i, new_j] = M.P[old, tgt]
            if dead:
                P[new_i, fail_idx] = float(M.P[old, dead].sum())
            P[new_i, goal_idx] = float(M.P[old, sorted(G)].sum())
        elif old == -1:
            ids.append(fail_id)
            labels.append(fail_label)
            E[new_i] = float(max(M.E[d] for d in dead))
            if rewards is not None:
                rewards[new_i] = float(max(M.rewards[d] for d in dead))
            P[new_i, new_i] = 1.0
        else:
            ids.append(goal_id)
            labels.append(goal_label)
            E[new_i] = float(max(M.E[g] for g in G))
            if rewards is not None:
                rewards[new_i] = float(max(M.rewards[g] for g in G))
            P[new_i, new_i] = 1.0

    new_initial = 0 if M.initial in transient else (fail_idx if fail_idx is not None else goal_idx)
    return Ctmc(
        ids=tuple(ids),
        labels=tuple(labels),
        P=P,
        E=E,
        initial=new_initial,
        goal=(goal_idx,),
        fail=(fail_idx,) if fail_idx is not None else (),
        rewards=rewards,
    )


def validate(model: Ctmc, renormalize: bool = False) -> Ctmc:
    """Check the chain invariants and return the (possibly renormalized) chain.

    Raises the first violation found, with all further violations listed
    in ``err.all_violations``.  Row sums must be 1 within 1e-12, rates
    strictly positive, all probabilities in [0, 1], and no probability,
    rate or reward NaN or infinite; a singleton goal or fail state must be
    absorbing and carry a label set no other state has.
    """
    if renormalize:
        sums = model.P.sum(axis=1)
        if np.any(sums <= 0):
            raise RowSumError(int(np.argmax(sums <= 0)), float(sums.min()))
        model = replace(model, P=model.P / sums[:, None])

    violations: list[CtmcError] = []
    for name in ("P", "E", "rewards"):
        a = getattr(model, name)
        if a is not None and not np.isfinite(a).all():
            at = tuple(np.argwhere(~np.isfinite(a))[0])
            where = ",".join(map(str, at))
            violations.append(NonFiniteValue(f"{name}[{where}]={float(a[at])!r} is not finite"))
    sums = model.P.sum(axis=1)
    for s in range(model.n):
        if abs(sums[s] - 1.0) > ROW_SUM_TOL:
            violations.append(RowSumError(s, float(sums[s])))
    if np.any(model.P < 0.0) or np.any(model.P > 1.0 + 1e-15):
        bad = np.argwhere((model.P < 0.0) | (model.P > 1.0 + 1e-15))[0]
        violations.append(
            CtmcError(f"probability P[{bad[0]},{bad[1]}]={model.P[bad[0], bad[1]]!r} outside [0,1]")
        )
    for s in range(model.n):
        if not model.E[s] > 0.0:
            violations.append(NonpositiveRate(s))

    for name, members in (("goal", model.goal), ("fail", model.fail)):
        if len(members) == 1:
            g = members[0]
            if abs(model.P[g, g] - 1.0) > ROW_SUM_TOL:
                violations.append(NonAbsorbingGoal(f"{name} state {model.ids[g]!r} is not absorbing"))
            lg = model.label_sets[g]
            for s in range(model.n):
                if s != g and model.label_sets[s] == lg:
                    violations.append(
                        NonAbsorbingGoal(
                            f"{name} state {model.ids[g]!r} shares its label set with {model.ids[s]!r}"
                        )
                    )
                    break

    if violations:
        err = violations[0]
        err.all_violations = violations  # type: ignore[attr-defined]
        if len(violations) > 1:
            err.args = (f"{err.args[0] if err.args else err}; plus {len(violations) - 1} more violation(s)",)
        raise err
    return model


def prune_unreachable(M: Ctmc) -> Ctmc:
    """Drop states unreachable from the initial state (explicit, never automatic)."""
    seen = graph.reach(M.succ, [M.initial])
    if len(seen) == M.n:
        return M
    keep = sorted(seen)
    remap = {old: new for new, old in enumerate(keep)}
    return Ctmc(
        ids=tuple(M.ids[s] for s in keep),
        labels=tuple(M.labels[s] for s in keep),
        P=M.P[np.ix_(keep, keep)].copy(),
        E=M.E[keep].copy(),
        initial=remap[M.initial],
        goal=tuple(remap[g] for g in M.goal if g in remap),
        fail=tuple(remap[f] for f in M.fail if f in remap),
        rewards=M.rewards[keep].copy() if M.rewards is not None else None,
        rate_exprs=tuple(M.rate_exprs[s] for s in keep) if M.rate_exprs is not None else None,
    )


def remove_zero_reward_self_loop(M: Ctmc, s: int | str) -> Ctmc:
    """Drop the self-loop of zero-reward state s, preserving the law.

    Waiting out a geometric number of sojourns is the same exponential as
    one sojourn at the thinned rate, so the row is renormalized and the
    exit rate scaled by the removed mass.  No-op when there is no loop.
    """
    rewards = _require_rewards(M)
    idx = M.index(s)
    if rewards[idx] != 0.0:
        raise NonzeroReward(f"state {M.ids[idx]} has reward {rewards[idx]}")
    loop = float(M.P[idx, idx])
    if loop == 0.0:
        return M
    if loop >= 1.0 - ABSORBING_EPS:
        raise AbsorbingState(f"state {M.ids[idx]} cannot leave its self-loop")
    P = M.P.copy()
    P[idx] = P[idx] / (1.0 - loop)
    P[idx, idx] = 0.0
    E = M.E.copy()
    E[idx] = E[idx] * (1.0 - loop)
    return Ctmc(
        ids=M.ids,
        labels=M.labels,
        P=P,
        E=E,
        initial=M.initial,
        goal=M.goal,
        fail=M.fail,
        rewards=M.rewards,
        rate_exprs=None,
    )


def eliminate_zero_reward_states(M: Ctmc) -> Ctmc:
    """Short-circuit every zero-reward state out of the chain.

    Fail states are exempt: they never charge the budget anyway, so they
    stay and are given the sentinel reward 1 in the result (which keeps the
    downstream clock rescaling total).  Eliminating the initial state or an
    absorbing state is impossible and raises; so do zero-reward cycles.
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
        return Ctmc(
            ids=M.ids, labels=M.labels, P=M.P, E=M.E, initial=M.initial,
            goal=M.goal, fail=M.fail, rewards=rewards, rate_exprs=M.rate_exprs,
        )
    if M.initial in zs:
        raise ZeroReward(M.initial)
    cycle = graph.find_cycle(M.succ, np.isin(np.arange(M.n), zs), self_loops=False)
    if cycle is not None:
        raise ZeroRewardCycle(f"zero-reward states {cycle[0]} and {cycle[1]} lie on a cycle")

    P = M.P.copy()
    E = M.E.copy()
    for z in zs:
        loop = float(P[z, z])
        if loop >= 1.0 - ABSORBING_EPS:
            raise AbsorbingState(f"state {M.ids[z]} is absorbing with zero reward")
        if loop > 0.0:
            P[z] = P[z] / (1.0 - loop)
            P[z, z] = 0.0
            E[z] = E[z] * (1.0 - loop)
        col = P[:, z].copy()
        col[z] = 0.0
        hit = np.flatnonzero(col > 0.0)
        if hit.size:
            P[hit] += col[hit, None] * P[z]
            P[hit, z] = 0.0

    keep = [s for s in range(M.n) if s not in set(zs)]
    remap = {old: new for new, old in enumerate(keep)}
    return Ctmc(
        ids=tuple(M.ids[s] for s in keep),
        labels=tuple(M.labels[s] for s in keep),
        P=P[np.ix_(keep, keep)].copy(),
        E=E[keep].copy(),
        initial=remap[M.initial],
        goal=tuple(remap[g] for g in M.goal),
        fail=tuple(remap[f] for f in M.fail),
        rewards=rewards[keep].copy(),
        rate_exprs=None,
    )


def hat_transform(M: Ctmc) -> Ctmc:
    """Divide every exit rate by the local reward rate.

    On the resulting chain, the clock *is* the accumulated reward, so a
    reward budget becomes a plain time horizon.  Every state must carry a
    strictly positive reward."""
    rewards = _require_rewards(M)
    for s in range(M.n):
        if rewards[s] == 0.0:
            raise ZeroReward(s)
    return Ctmc(
        ids=M.ids,
        labels=M.labels,
        P=M.P,
        E=M.E / rewards,
        initial=M.initial,
        goal=M.goal,
        fail=M.fail,
        rewards=None,
        rate_exprs=None,
    )


# ---------------------------------------------------------------- chains

_IDS = ("goal", "fail", "goal1", "fail1")
_LABELS = ((), ("a",), ("b",), ("a", "b"), ("goal",), ("fail",))


def _surgery_chain(rng: np.random.Generator, n_max: int = 9) -> Ctmc:
    """Sparse chain with absorbing non-goal states (so dead states are
    common), colliding labels and ids that clash with the fresh names,
    a goal set of one to three states (sometimes holding the initial
    state) and, usually, rewards with zeros.  In about half the chains
    the zero-reward rows only move forward, so elimination succeeds."""
    n = int(rng.integers(2, n_max + 1))
    rewards = None
    if rng.random() < 0.8:
        rewards = rng.choice((0.0, 0.0, 0.5, 1.0, 2.0), size=n)
    forward = rng.random() < 0.5
    P = np.zeros((n, n))
    for i in range(n):
        if rng.random() < 0.2:
            P[i, i] = 1.0
            continue
        w = rng.integers(0, 4, size=n) * (rng.random(n) < 0.5)
        if forward and rewards is not None and rewards[i] == 0.0:
            w[:i] = 0
            w[(i + 1) % n] += 1
        if w.sum() == 0:
            w[int(rng.integers(n))] = 1
        P[i] = w / w.sum()
    pool = [f"s{i}" for i in range(n)] + list(_IDS)
    ids = tuple(rng.permutation(pool)[:n].tolist())
    initial = int(rng.integers(n))
    if forward and rewards is not None:
        rewards[initial] = 1.0
    others = [s for s in range(n) if s != initial or rng.random() < 0.1]
    goal = rng.choice(others, size=min(len(others), int(rng.integers(1, 4))), replace=False)
    rest = [s for s in range(n) if s not in goal]
    fail = rng.choice(rest, size=min(len(rest), int(rng.integers(0, 3))), replace=False)
    exprs = None
    if rng.random() < 0.3:
        exprs = tuple("exp(0)" if rng.random() < 0.5 else None for _ in range(n))
    return Ctmc(
        ids=ids,
        labels=tuple(_LABELS[int(k)] for k in rng.integers(0, len(_LABELS), size=n)),
        P=P,
        E=rng.choice((0.5, 1.0, 2.0, 4.0), size=n),
        initial=initial,
        goal=tuple(int(g) for g in goal),
        fail=tuple(int(f) for f in fail),
        rewards=rewards,
        rate_exprs=exprs,
    )


def _wide_chain(rng: np.random.Generator) -> Ctmc:
    """Up to 60 states, a third to a half of them goal states and a few
    absorbing dead ends: merged blocks long enough for numpy's pairwise
    summation to differ from a running sum, were the summation order
    to change."""
    n = int(rng.integers(20, 61))
    P = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
    P[:, 0] += 1e-3
    for d in rng.choice(np.arange(1, n), size=3, replace=False):
        P[d] = 0.0
        P[d, d] = 1.0
    P /= P.sum(axis=1, keepdims=True)
    goal = rng.choice(np.arange(1, n), size=int(rng.integers(n // 3, n // 2)), replace=False)
    return Ctmc(
        ids=tuple(f"s{i}" for i in range(n)),
        labels=((),) * n,
        P=P,
        E=rng.random(n) + 0.5,
        initial=0,
        goal=tuple(int(g) for g in goal),
        rewards=rng.random(n),
    )


#: goal self-loops at the absorbing threshold: 1, the double below it, the
#: double that 1 - 1e-12 rounds to, the double below that, and 1 - 1e-9
EDGE_LOOPS = (1.0, np.nextafter(1.0, 0.0), 0.999999999999, np.nextafter(0.999999999999, 0.0), 1.0 - 1e-9)


def _twin(rng: np.random.Generator, labels: list, s: int, side: str) -> None:
    """Give a state before or after ``s`` (``side``) the label set of ``s``."""
    pool = range(s) if side == "before" else range(s + 1, len(labels))
    if side != "none" and pool:
        labels[int(rng.choice(pool))] = labels[s]


def _edge_goal_chain(rng: np.random.Generator) -> Ctmc:
    """One goal state whose self-loop is drawn from ``EDGE_LOOPS``, leaking
    the rest to another state.  The goal is last or not, the initial
    state first or not, the goal and a singleton fail state have a label
    twin before them, after them or none, and dead states (absorbing
    non-goal states), zero rewards and rate expressions come and go, so
    that each condition of ``normalize_goal``'s fast path holds in some
    chains and fails in others."""
    n = int(rng.integers(3, 8))
    g = n - 1 if rng.random() < 0.5 else int(rng.integers(n))
    others = [s for s in range(n) if s != g]
    initial = 0 if g != 0 and rng.random() < 0.5 else int(rng.choice(others))
    dead = [s for s in others if s != initial and rng.random() < 0.2]
    P = np.zeros((n, n))
    for s in others:
        if s in dead:
            P[s, s] = 1.0
            continue
        w = rng.integers(0, 3, size=n) * (rng.random(n) < 0.5)
        w[g] += 1  # every live state reaches the goal
        P[s] = w / w.sum()
    loop = EDGE_LOOPS[int(rng.integers(len(EDGE_LOOPS)))]
    P[g, g] = loop
    P[g, int(rng.choice(others))] = 1.0 - loop
    labels = [(("a",), ("b",), ())[int(k)] for k in rng.integers(0, 3, size=n)]
    labels[g] = ("goal",)
    _twin(rng, labels, g, rng.choice(("none", "none", "before", "after")))
    fail = ()
    if rng.random() < 0.5:
        f = int(rng.choice(dead or others))
        fail = (f,)
        labels[f] = ("fail",)
        _twin(rng, labels, f, rng.choice(("none", "before", "after")))
    rewards = rng.choice((0.0, 0.5, 1.0), size=n) if rng.random() < 0.7 else None
    exprs = None
    if rng.random() < 0.3:
        exprs = tuple("exp(0)" if rng.random() < 0.5 else None for _ in range(n))
    pool = [f"s{i}" for i in range(n)] + list(_IDS)
    return Ctmc(
        ids=tuple(rng.permutation(pool)[:n].tolist()),
        labels=tuple(labels),
        P=P,
        E=rng.choice((0.5, 1.0, 2.0), size=n),
        initial=initial,
        goal=(g,),
        fail=fail,
        rewards=rewards,
        rate_exprs=exprs,
    )


FAMILIES = {
    "edge": _edge_goal_chain,
    "surgery": _surgery_chain,
    "wide": _wide_chain,
    "uniform": random_uniform_chain,
    "dag": random_dag_chain,
    "stable": random_stable_chain,
    "labeled": lambda rng: random_labeled_chain(rng, n=int(rng.integers(2, 9))),
    "bisimilar": lambda rng: random_bisimilar_pair(rng, 0.1, 0.1)[1],
    "rewarded": random_rewarded_chain,
}

seeds = st.integers(0, 2**32 - 1)
families = st.sampled_from(sorted(FAMILIES))


def _run(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # compared with the oracle's error below
        return e


def _assert_same(new, old):
    if isinstance(old, Exception) or isinstance(new, Exception):
        assert (type(new), str(new)) == (type(old), str(old))
        return
    for name in ("P", "E", "rewards"):
        a, b = getattr(new, name), getattr(old, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in ("ids", "labels", "initial", "goal", "fail", "rate_exprs"):
        assert getattr(new, name) == getattr(old, name), name


def _violations(err: Exception) -> list[tuple[type, str]]:
    """Type and message of each violation; the oracle ``validate`` prints
    an entry outside [0, 1] as ``np.float64(x)``, the library as ``x``."""
    return [
        (type(v), re.sub(r"np\.float64\((.*?)\)", r"\1", str(v)))
        for v in getattr(err, "all_violations", [err])
    ]


def _then(fn, first):
    """``fn`` applied to ``first``'s chain, or ``first``'s error."""
    return first if isinstance(first, Exception) else _run(fn, first)


# ---------------------------------------------------------------- tests


@settings(max_examples=300, deadline=None)
@given(family=families, seed=seeds, data=st.data())
def test_normalize_goal_matches_oracle(family, seed, data):
    M = FAMILIES[family](np.random.default_rng(seed))
    goals = data.draw(
        st.none()
        | st.lists(st.integers(0, M.n - 1), max_size=4)
        | st.lists(st.sampled_from(M.ids), max_size=4)
    )
    if goals is not None:
        M = replace(M, goal=tuple(M.index(g) for g in goals))
    new, old = _run(model.normalize_goal, M), _run(normalize_goal, M)
    _assert_same(new, old)
    # a second pass meets the already-normalized fast path
    _assert_same(_then(model.normalize_goal, new), _then(normalize_goal, old))


@settings(max_examples=300, deadline=None)
@given(family=families, seed=seeds)
def test_prune_unreachable_matches_oracle(family, seed):
    M = FAMILIES[family](np.random.default_rng(seed))
    new, old = _run(model.prune_unreachable, M), _run(prune_unreachable, M)
    _assert_same(new, old)
    _assert_same(_then(model.normalize_goal, new), _then(normalize_goal, old))


@settings(max_examples=300, deadline=None)
@given(family=families, seed=seeds)
def test_reward_transformations_match_oracle(family, seed):
    M = FAMILIES[family](np.random.default_rng(seed))
    new, old = _run(rewards.eliminate_zero_reward_states, M), _run(eliminate_zero_reward_states, M)
    if isinstance(old, KeyError):
        # the oracle's remap has no entry for a zero-reward goal; the
        # library names that state with ZeroReward instead
        assert old.args[0] in M.goal and M.rewards[old.args[0]] == 0.0
        old = ZeroReward(old.args[0])
    _assert_same(new, old)
    _assert_same(_then(rewards.hat_transform, new), _then(hat_transform, old))
    _assert_same(_run(rewards.hat_transform, M), _run(hat_transform, M))


@settings(max_examples=300, deadline=None)
@given(family=families, seed=seeds)
def test_normalize_goal_keeps_its_input_when_the_oracle_does(family, seed):
    M = FAMILIES[family](np.random.default_rng(seed))
    first = _run(normalize_goal, M)
    for N in (M, first):  # the oracle's output is in normal form
        if not isinstance(N, Exception):
            new, old = _run(model.normalize_goal, N), _run(normalize_goal, N)
            assert (new is N) == (old is N)


@settings(max_examples=300, deadline=None)
@given(family=families, seed=seeds)
def test_validate_matches_oracle(family, seed):
    M = FAMILIES[family](np.random.default_rng(seed))
    new, old = _run(model.validate, M), _run(validate, M)
    _assert_same(new, old)
    if isinstance(old, Exception):
        assert _violations(new) == _violations(old)


#: goal self-loops where the two absorbing tests part: the double that
#: 1 + 1e-12 rounds to and larger values, and NaN
ABOVE_EDGE = (1.0 + 1e-12, np.nextafter(1.0 + 1e-12, 2.0), 1.0 + 1e-9, 1.5, np.inf, np.nan)


@settings(max_examples=200, deadline=None)
@given(seed=seeds, loop=st.sampled_from(ABOVE_EDGE), on_fail=st.booleans())
def test_validate_differs_from_oracle_only_above_the_edge(seed, loop, on_fail):
    M = _edge_goal_chain(np.random.default_rng(seed))
    name, s = ("fail", M.fail[0]) if on_fail and M.fail else ("goal", M.goal[0])
    P = M.P.copy()
    P[s, s] = loop
    M = replace(M, P=P)
    new, old = _run(model.validate, M), _run(validate, M)
    assert isinstance(new, CtmcError) and isinstance(old, CtmcError)
    extra = (NonAbsorbingGoal, f"{name} state {M.ids[s]!r} is not absorbing")
    # the oracle calls a self-loop above 1 + 1e-12 not absorbing, the library a NaN one
    more, fewer = (new, old) if np.isnan(loop) else (old, new)
    assert extra in _violations(more)[1:] and extra not in _violations(fewer)
    assert [v for v in _violations(more)[1:] if v != extra] == _violations(fewer)[1:]
    # the first violation is the same; only its count of further ones differs
    assert type(new) is type(old)
    assert str(new).split("; plus")[0] == str(old).split("; plus")[0]


def test_edge_family_reaches_every_case():
    """Each absorbing edge self-loop meets both sides of the normal form's
    fast path, and each edge self-loop the absorbing test of reward
    elimination on a zero-reward goal."""
    seen = set()
    for seed in range(400):
        M = _edge_goal_chain(np.random.default_rng(seed))
        g = M.goal[0]
        loop = float(M.P[g, g])
        N = normalize_goal(M)
        seen.add((loop, "kept" if N is M else "rebuilt"))
        seen |= {("initial first", M.initial == 0), ("goal last", g == M.n - 1)}
        seen |= {("dead states", bool(N.fail)), ("rate expressions", M.rate_exprs is not None)}
        if M.rewards is not None and M.rewards[g] == 0.0:
            absorbing = isinstance(_run(remove_zero_reward_self_loop, M, g), AbsorbingState)
            seen.add((loop, "absorbing" if absorbing else "leaves its loop"))
        twins = [s for s in range(M.n) if s != g and M.labels[s] == M.labels[g]]
        seen.add(("goal twin", "before" if twins and twins[0] < g else "after" if twins else "none"))
        if M.fail:
            f = M.fail[0]
            twins = [s for s in range(M.n) if s != f and M.labels[s] == M.labels[f]]
            seen.add(("fail twin", "before" if twins and twins[0] < f else "after" if twins else "none"))
    # the first three self-loops are absorbing, the last two are not
    absorbing, leaking = [float(v) for v in EDGE_LOOPS[:3]], [float(v) for v in EDGE_LOOPS[3:]]
    expected = {(v, side) for v in absorbing for side in ("kept", "rebuilt", "absorbing")}
    expected |= {(v, side) for v in leaking for side in ("rebuilt", "leaves its loop")}
    expected |= {(who, side) for who in ("goal twin", "fail twin") for side in ("before", "after", "none")}
    expected |= {(what, b) for what in ("initial first", "goal last", "dead states", "rate expressions")
                 for b in (False, True)}
    assert seen == expected


def test_families_reach_every_case():
    """The drawn chains do exercise what the oracles are compared on."""
    seen = set()
    for seed in range(200):
        M = _surgery_chain(np.random.default_rng(seed))
        if M.initial in M.goal:
            continue
        N = normalize_goal(M)
        seen.add("multi-goal" if len(M.goal) > 1 else "one goal")
        seen.add("dead states" if N.fail else "no dead state")
        if N.fail and N.initial == N.fail[0]:
            seen.add("initial cannot reach the goal")
        if M.rewards is not None and any(M.rewards[s] == 0.0 and 0.0 < M.P[s, s] < 1.0 for s in range(M.n)):
            try:
                eliminate_zero_reward_states(M)
                seen.add("zero-reward self-loop eliminated")
            except Exception:
                pass
    assert seen == {
        "multi-goal", "one goal", "dead states", "no dead state",
        "initial cannot reach the goal", "zero-reward self-loop eliminated",
    }
