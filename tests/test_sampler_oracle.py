"""``simulate_paths`` against the sampler it replaced.

The library draws each next state from a guide table over each row's
positive entries, with an expected O(1) scan per path and jump
(``transient._guide_table`` and ``transient._next_states``); the sampler
below draws it as ``(cum[s] < u[:, None]).sum(axis=1)``, with a paths x n
temporary per jump.  It is kept verbatim apart from an ``_oracle`` suffix
on its name.  Both make the same random calls in the same order, so every
seeded ``SimulationResult`` must be equal, and ``JumpBudgetExceeded`` must
be raised at the same jump.

``simulate_paths_stuck_pass`` further down is the library's loop from
before a path stopped on the jump that reaches an absorbing state; it
makes the same random calls too, and differs only where its extra pass
over such paths ran past the jump budget.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import graph, make_ctmc, validate
from ctmcbisim.errors import JumpBudgetExceeded
from ctmcbisim.model import ABSORBING_EPS, Ctmc, _absorbing_states
from ctmcbisim.transient import (
    SimulationResult,
    _check_horizon,
    _guide_table,
    _next_states,
    _wilson,
    simulate_paths,
)

from helpers import (
    random_bisimilar_pair,
    random_dag_chain,
    random_labeled_chain,
    random_rewarded_chain,
    random_stable_chain,
    random_uniform_chain,
)

# ---------------------------------------------------------------- oracle


def simulate_paths_oracle(
    M: Ctmc,
    n: int,
    horizon: float,
    seed: int,
    budget_weights: np.ndarray | None = None,
    confidence: float = 0.95,
    max_jumps: int = 100_000,
) -> SimulationResult:
    """Seeded Monte Carlo estimate of reaching g within the horizon.

    With ``budget_weights`` w the clock advances by ``w[s] * sojourn``
    instead of the sojourn itself, which turns the same sampler into a
    reward-accumulation estimator (weights = per-state reward rates).
    All paths are advanced in lockstep as vector operations.
    """
    if n < 1:
        raise ValueError(f"need at least one path, got {n}")
    g = M.goal_state()
    rng = np.random.default_rng(seed)
    weights = np.ones(M.n) if budget_weights is None else np.asarray(budget_weights, dtype=float)
    cum = np.cumsum(M.P, axis=1)
    absorbing = np.diag(M.P) >= 1.0 - ABSORBING_EPS

    state = np.full(n, M.initial)
    clock = np.zeros(n)
    hit = np.zeros(n, dtype=bool)
    active = np.ones(n, dtype=bool)
    if M.initial == g:
        hit[:] = True
        active[:] = False

    jumps = 0
    while active.any():
        jumps += 1
        if jumps > max_jumps:
            raise JumpBudgetExceeded(max_jumps)
        idx = np.flatnonzero(active)
        s = state[idx]
        stuck = absorbing[s]
        if stuck.any():
            active[idx[stuck]] = False
            idx = idx[~stuck]
            s = s[~stuck]
            if idx.size == 0:
                continue
        sojourn = rng.exponential(1.0, idx.size) / M.E[s]
        clock[idx] += weights[s] * sojourn
        expired = clock[idx] > horizon
        if expired.any():
            active[idx[expired]] = False
            idx = idx[~expired]
            s = s[~expired]
            if idx.size == 0:
                continue
        u = rng.random(idx.size)
        nxt = (cum[s] < u[:, None]).sum(axis=1)
        nxt = np.minimum(nxt, M.n - 1 - np.argmax(M.P[s, ::-1] > 0.0, axis=1))
        state[idx] = nxt
        arrived = nxt == g
        if arrived.any():
            hit[idx[arrived]] = True
            active[idx[arrived]] = False

    hits = int(hit.sum())
    low, high = _wilson(hits, n, confidence)
    return SimulationResult(
        estimate=hits / n, ci_low=low, ci_high=high, hits=hits, paths=n, confidence=confidence
    )


def _same(M: Ctmc, paths: int, horizon: float, seed: int, **kwargs) -> SimulationResult:
    got = simulate_paths(M, paths, horizon, seed, **kwargs)
    assert got == simulate_paths_oracle(M, paths, horizon, seed, **kwargs)
    return got


_SEEDS = st.integers(0, 2**32 - 1)
_HORIZONS = st.sampled_from((0.0, 0.3, 1.0, 2.5, 7.0, 40.0))

# ---------------------------------------------------------------- random chains


@settings(max_examples=40, deadline=None)
@given(
    chain=st.integers(0, 3_000),
    kind=st.sampled_from(("uniform", "dag", "labeled")),
    seed=_SEEDS,
    horizon=_HORIZONS,
    paths=st.sampled_from((1, 7, 500)),
)
def test_same_result_on_helper_chains(chain, kind, seed, horizon, paths):
    rng = np.random.default_rng(chain)
    M = {"uniform": random_uniform_chain, "dag": random_dag_chain, "labeled": random_labeled_chain}[kind](rng)
    _same(M, paths, horizon, seed, confidence=0.9)


@settings(max_examples=30, deadline=None)
@given(chain=st.integers(0, 3_000), seed=_SEEDS, horizon=_HORIZONS)
def test_same_result_with_reward_budget(chain, seed, horizon):
    # the fail sink of a rewarded chain is an absorbing non-goal state
    M = random_rewarded_chain(np.random.default_rng(chain))
    _same(M, 500, horizon, seed, budget_weights=M.rewards, confidence=0.99)


@settings(max_examples=30, deadline=None)
@given(
    chain=st.integers(0, 3_000),
    dead=st.lists(st.booleans(), min_size=12, max_size=12),
    seed=_SEEDS,
    horizon=_HORIZONS,
)
def test_same_result_with_dead_ends(chain, dead, seed, horizon):
    M = random_uniform_chain(np.random.default_rng(chain), n_max=12)
    P = M.P.copy()
    for s in range(1, M.n - 1):
        if dead[s]:
            P[s] = np.eye(M.n)[s]
    _same(validate(replace(M, P=P)), 500, horizon, seed)


# ---------------------------------------------------------------- edge cases


@settings(max_examples=10, deadline=None)
@given(seed=_SEEDS, leak=st.sampled_from((1e-13, ABSORBING_EPS, 4.0 * ABSORBING_EPS)))
def test_same_result_at_nearly_absorbing_states(seed, leak):
    M = make_ctmc(
        [("s", (), 1.0), ("a", ("a",), 1.0), ("b", (), 1.0), ("g", ("g",), 1.0)],
        [("s", "a", 0.5), ("s", "b", 0.5), ("a", "a", 1.0 - leak), ("a", "g", leak),
         ("b", "g", 1.0), ("g", "g", 1.0)],
        initial="s",
        goal=("g",),
    )
    _same(M, 400, 30.0, seed)


@settings(max_examples=10, deadline=None)
@given(chain=st.integers(0, 3_000), seed=_SEEDS, horizon=_HORIZONS)
def test_same_result_when_starting_in_the_goal(chain, seed, horizon):
    M = random_uniform_chain(np.random.default_rng(chain))
    res = _same(replace(M, initial=M.goal_state()), 50, horizon, seed)
    assert res.hits == 50


@settings(max_examples=10, deadline=None)
@given(chain=st.integers(0, 3_000), seed=_SEEDS)
def test_same_result_at_horizon_zero(chain, seed):
    M = random_uniform_chain(np.random.default_rng(chain))
    assert _same(M, 300, 0.0, seed).hits == 0


@settings(max_examples=10, deadline=None)
@given(seed=_SEEDS, max_jumps=st.integers(1, 6))
def test_same_jump_budget_error(seed, max_jumps):
    M = make_ctmc(
        [("a", (), 1.0), ("b", (), 1.0), ("g", ("g",), 1.0)],
        [("a", "b", 1.0), ("b", "a", 0.999), ("b", "g", 0.001), ("g", "g", 1.0)],
        initial="a",
        goal=("g",),
    )
    errors = []
    for sampler in (simulate_paths, simulate_paths_oracle):
        with pytest.raises(JumpBudgetExceeded) as info:
            sampler(M, 200, 1e6, seed, max_jumps=max_jumps)
        errors.append((str(info.value), info.value.max_jumps))
    assert errors[0] == errors[1]


# ---------------------------------------------------------------- the draw itself


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.sampled_from((0, 0, 0, 1, 2, 5)), min_size=5, max_size=5).filter(any),
        min_size=1,
        max_size=6,
    ),
    picks=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4), st.sampled_from("eabrz")), min_size=1, max_size=40),
    short=st.booleans(),
)
def test_next_states_counts_the_entries_below_u(rows, picks, short):
    P = np.array([np.array(w, dtype=float) / sum(w) for w in rows])
    if short:
        # the last entry of a row can round below the largest u
        P[0] *= 1.0 - 2.0**-40
    cum = np.cumsum(P, axis=1)
    s = np.array([row % len(rows) for row, _, _ in picks])
    u = []
    for k, (_, col, how) in zip(s, picks):
        at = cum[k, col]
        u.append({
            "e": at,  # equal to an entry, repeated across zero-probability columns
            "a": np.nextafter(at, 2.0),
            "b": np.nextafter(at, -1.0),
            "r": np.nextafter(cum[k, -1], 2.0),  # above the last entry
            "z": 0.0,
        }[how])
    u = np.array(u)
    count = (cum[s] < u[:, None]).sum(axis=1)
    first = np.argmax(P > 0.0, axis=1)
    last = P.shape[1] - 1 - np.argmax(P[:, ::-1] > 0.0, axis=1)
    want = np.clip(count, first[s], last[s])
    assert np.array_equal(_next_states(_guide_table(P, graph.csr(P)), s, u), want)


@settings(max_examples=40, deadline=None)
@given(chain=st.integers(0, 3_000), kind=st.sampled_from(("uniform", "dag", "labeled")))
def test_guide_counts_the_entries_below_each_bucket(chain, kind):
    rng = np.random.default_rng(chain)
    M = {"uniform": random_uniform_chain, "dag": random_dag_chain, "labeled": random_labeled_chain}[kind](rng)
    c, cols, base, buckets, guide = _guide_table(M.P, M.succ)
    indptr, _ = M.succ
    assert np.array_equal(cols, M.succ[1]) and len(guide) == base[-1] < 2 * len(cols) + M.n
    for s in range(M.n):
        row = np.cumsum(M.P[s])[M.P[s] > 0.0]
        deg = len(row)
        assert buckets[s] >= deg and (buckets[s] == 1 or buckets[s] < 2 * deg)
        assert np.array_equal(c[indptr[s] : indptr[s + 1]], np.r_[row[:-1], np.inf])
        below = [min((row < k / buckets[s]).sum(), deg - 1) for k in range(buckets[s])]
        assert np.array_equal(guide[base[s] : base[s + 1]] - indptr[s], below)


# ---------------------------------------------------------------- rows the helper chains never produce


_REAL_RNG = np.random.default_rng


class _TopDrawsEvery:
    """Stands in for ``np.random.default_rng``: the seeded generator, except
    that every third uniform draw is replaced by the largest float below 1,
    above the rounded sum of a short row."""

    def __init__(self, seed):
        self.rng = _REAL_RNG(seed)

    def exponential(self, scale, size):
        return self.rng.exponential(scale, size)

    def random(self, size):
        u = self.rng.random(size)
        u[::3] = np.nextafter(1.0, 0.0)
        return u


def _chain(P: np.ndarray) -> Ctmc:
    """Rate-1 chain on ``P`` with the last state as its goal, validated."""
    n = len(P)
    return validate(Ctmc(
        ids=tuple(f"s{i}" for i in range(n - 1)) + ("g",),
        labels=((),) * (n - 1) + (("g",),),
        P=P,
        E=np.ones(n),
        initial=0,
        goal=(n - 1,),
    ))


@settings(max_examples=8, deadline=None)
@given(chain=st.integers(0, 3_000), seed=_SEEDS)
def test_same_result_on_skewed_rows(chain, seed):
    # one heavy entry and 300 entries of 1e-6 per row: in the row's table of
    # 512 buckets, those before the heavy one share the first bucket and
    # those after it the last
    rng = np.random.default_rng(chain)
    n, tiny = 400, 300
    P = np.zeros((n, n))
    for i in range(n - 1):
        heavy = rng.integers(n)
        P[i, rng.choice(np.delete(np.arange(n), heavy), tiny, replace=False)] = 1e-6
        P[i, heavy] = 1.0 - tiny * 1e-6
    P[n - 1, n - 1] = 1.0
    _same(_chain(P), 2_000, 40.0, seed)


@settings(max_examples=8, deadline=None)
@given(chain=st.integers(0, 3_000), seed=_SEEDS)
def test_same_result_on_two_successor_rows_of_a_long_chain(chain, seed):
    # each row: i -> i+1 and i -> one random state, with long runs of zero
    # columns between them
    rng = np.random.default_rng(chain)
    n = 1_200
    P = np.zeros((n, n))
    for i in range(n - 1):
        far = rng.choice(np.delete(np.arange(n), i + 1))
        P[i, i + 1] = rng.choice((0.25, 0.5, 0.875))
        P[i, far] = 1.0 - P[i, i + 1]
    P[n - 1, n - 1] = 1.0
    _same(_chain(P), 500, 60.0, seed)


@settings(max_examples=10, deadline=None)
@given(chain=st.integers(0, 3_000), seed=_SEEDS, single=st.booleans())
def test_same_result_when_draws_land_above_short_rows(chain, seed, single):
    # every transient row sums to below 1 in floating point, and every third
    # draw lies above that sum; with ``single`` some rows have one successor,
    # a table of one bucket
    M = random_uniform_chain(np.random.default_rng(chain), n=30)
    P = M.P.copy()
    if single:
        P[1:-1:2] = np.eye(M.n)[2::2]
    P[:-1] *= 1.0 - 2.0**-40
    M = validate(replace(M, P=P))
    assert np.all(np.cumsum(M.P[:-1], axis=1)[:, -1] < np.nextafter(1.0, 0.0))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(np.random, "default_rng", _TopDrawsEvery)
        _same(M, 300, 10.0, seed)


@settings(max_examples=10, deadline=None)
@given(chain=st.integers(0, 3_000), seed=_SEEDS)
def test_same_result_on_single_successor_rows(chain, seed):
    # a random half of the transient rows jump to one state, which makes
    # their tables one bucket long
    rng = np.random.default_rng(chain)
    M = random_uniform_chain(rng, n=40)
    P = M.P.copy()
    for i in np.flatnonzero(rng.random(M.n - 1) < 0.5):
        P[i] = np.eye(M.n)[rng.integers(i + 1, M.n)]
    M = validate(replace(M, P=P))
    assert 1 in np.diff(M.succ[0])[:-1]
    _same(M, 500, 7.0, seed)


# ---------------------------------------------------------------- paths that stop on absorption


def simulate_paths_stuck_pass(
    M: Ctmc,
    n: int,
    horizon: float,
    seed: int,
    budget_weights: np.ndarray | None = None,
    confidence: float = 0.95,
    max_jumps: int = 100_000,
) -> SimulationResult:
    """``simulate_paths`` as it was while a path that jumped into an
    absorbing non-goal state stayed active for one more loop pass, which
    only found it stuck and counted against ``max_jumps``; kept verbatim
    apart from its name and this docstring."""
    for name, value, least in (("n", n, 1), ("seed", seed, 0), ("max_jumps", max_jumps, 1)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError(
                f"{name} must be an integer >= {least}, got {value!r}"
                + ("; need at least one path" if name == "n" else "")
            )
    _check_horizon(horizon)
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    weights = np.ones(M.n) if budget_weights is None else np.asarray(budget_weights, dtype=float)
    if weights.shape != (M.n,) or not np.all(np.isfinite(weights) & (weights >= 0.0)):
        raise ValueError(
            f"budget_weights must be {M.n} finite nonnegative numbers, got shape {weights.shape}"
        )
    g = M.goal_state()
    rng = np.random.default_rng(seed)
    table = _guide_table(M.P, M.succ)
    absorbing = _absorbing_states(M.P)

    state = np.full(n, M.initial)
    clock = np.zeros(n)
    hit = np.zeros(n, dtype=bool)
    active = np.ones(n, dtype=bool)
    if M.initial == g:
        hit[:] = True
        active[:] = False

    jumps = 0
    while active.any():
        jumps += 1
        if jumps > max_jumps:
            raise JumpBudgetExceeded(max_jumps)
        idx = np.flatnonzero(active)
        s = state[idx]
        stuck = absorbing[s]
        if stuck.any():
            active[idx[stuck]] = False
            idx = idx[~stuck]
            s = s[~stuck]
            if idx.size == 0:
                continue
        sojourn = rng.exponential(1.0, idx.size) / M.E[s]
        clock[idx] += weights[s] * sojourn
        expired = clock[idx] > horizon
        if expired.any():
            active[idx[expired]] = False
            idx = idx[~expired]
            s = s[~expired]
            if idx.size == 0:
                continue
        u = rng.random(idx.size)
        nxt = _next_states(table, s, u)
        state[idx] = nxt
        arrived = nxt == g
        if arrived.any():
            hit[idx[arrived]] = True
            active[idx[arrived]] = False

    hits = int(hit.sum())
    low, high = _wilson(hits, n, confidence)
    return SimulationResult(
        estimate=hits / n, ci_low=low, ci_high=high, hits=hits, paths=n, confidence=confidence
    )


def _outcome(sampler, M: Ctmc, paths: int, horizon: float, seed: int, **kwargs):
    try:
        return sampler(M, paths, horizon, seed, **kwargs)
    except JumpBudgetExceeded as exc:
        return ("JumpBudgetExceeded", str(exc), exc.max_jumps)


def _same_unless_stuck(M: Ctmc, paths: int, horizon: float, seed: int, max_jumps: int, **kwargs):
    """The same ``SimulationResult`` or error as the stuck-pass sampler,
    except where that sampler ran out of budget only on its stuck pass: then
    one more jump of budget lets it finish with this result, so every path
    still active after ``max_jumps`` jumps sat in an absorbing state."""
    got = _outcome(simulate_paths, M, paths, horizon, seed, max_jumps=max_jumps, **kwargs)
    want = _outcome(simulate_paths_stuck_pass, M, paths, horizon, seed, max_jumps=max_jumps, **kwargs)
    if isinstance(got, SimulationResult) and isinstance(want, tuple):
        want = simulate_paths_stuck_pass(M, paths, horizon, seed, max_jumps=max_jumps + 1, **kwargs)
    assert got == want
    return got


def _with_fail(M: Ctmc, rng: np.random.Generator) -> Ctmc:
    """``M`` with an absorbing ``fail`` state that takes half the mass of a
    random half of its transient rows (at least one)."""
    n, g = M.n, M.goal_state()
    P = np.zeros((n + 1, n + 1))
    P[:n, :n] = M.P
    P[n, n] = 1.0
    rows = [s for s in range(n) if s != g and (rng.random() < 0.5 or s == M.initial)]
    P[rows] /= 2.0
    P[rows, n] += 0.5
    return validate(replace(
        M, ids=M.ids + ("fail",), labels=M.labels + (("fail",),), P=P, E=np.append(M.E, 1.0),
        fail=(n,), rewards=None, rate_exprs=None,
    ))


def _absorbing_initial(M: Ctmc, rng: np.random.Generator) -> Ctmc:
    P = M.P.copy()
    P[M.initial] = np.eye(M.n)[M.initial]
    return validate(replace(M, P=P))


def _initial_goal(M: Ctmc, rng: np.random.Generator) -> Ctmc:
    return replace(M, initial=M.goal_state())


_GENERATORS = {
    "uniform": random_uniform_chain,
    "dag": random_dag_chain,
    "stable": random_stable_chain,
    "labeled": random_labeled_chain,
    "bisimilar": lambda rng: random_bisimilar_pair(rng, 0.1, 0.2)[1],
    "rewarded": random_rewarded_chain,
}
_CHANGES = {"none": lambda M, rng: M, "fail": _with_fail, "absorbing": _absorbing_initial, "goal": _initial_goal}


@settings(max_examples=80, deadline=None)
@given(
    chain=st.integers(0, 3_000),
    kind=st.sampled_from(sorted(_GENERATORS)),
    change=st.sampled_from(sorted(_CHANGES)),
    seed=_SEEDS,
    horizon=_HORIZONS,
    paths=st.sampled_from((1, 7, 300)),
)
def test_same_result_as_the_stuck_pass_sampler(chain, kind, change, seed, horizon, paths):
    rng = np.random.default_rng(chain)
    M = _CHANGES[change](_GENERATORS[kind](rng), rng)
    weights = M.rewards if M.rewards is not None else rng.choice((0.0, 0.5, 1.0, 2.0), M.n)
    for max_jumps in (3, 50, 100_000):
        for budget in (None, weights):
            _same_unless_stuck(M, paths, horizon, seed, max_jumps, budget_weights=budget)


def test_a_jump_into_an_absorbing_state_is_the_last_one_counted():
    # s -> f with f absorbing: one jump, then the path has stopped
    M = make_ctmc(
        [("s", (), 1.0), ("f", ("f",), 1.0), ("g", ("g",), 1.0)],
        [("s", "f", 1.0), ("f", "f", 1.0), ("g", "g", 1.0)],
        initial="s",
        goal=("g",),
        fail=("f",),
    )
    res = simulate_paths(M, 100, 1e6, 0, max_jumps=1)
    assert (res.hits, res.estimate) == (0, 0.0)
    with pytest.raises(JumpBudgetExceeded):
        simulate_paths_stuck_pass(M, 100, 1e6, 0, max_jumps=1)
    assert _same_unless_stuck(M, 100, 1e6, 0, 1) == res
    # s -> g: the same single jump, which reaches the goal
    M = make_ctmc(
        [("s", (), 1.0), ("g", ("g",), 1.0)], [("s", "g", 1.0), ("g", "g", 1.0)], initial="s", goal=("g",)
    )
    assert simulate_paths(M, 100, 1e6, 0, max_jumps=1).hits == 100
