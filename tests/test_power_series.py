"""The uniformization series against the loops it replaced.

Every ``v @ P`` loop of ``transient`` now reads one generator of the
vectors ``e_start P^k``, and a time grid shares one run of the series:
``timed_reach_curve`` and ``diff_curve`` uniformize once per chain and sum
each t's Poisson weights against one goal-entry series.  The functions
below are the earlier implementations, copied verbatim (one series per
time point, a hand-rolled loop per function); on hypothesis-drawn chains
from every ``helpers`` generator the library must return the same bits or
raise the same error.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import (
    Ctmc,
    PairRelation,
    fixtures,
    normalize_goal,
    pairuniform,
    prune_unreachable,
    scale,
    transient,
    uniformize,
)
from ctmcbisim.errors import CtmcError, NonUniformRates
from ctmcbisim.pairuniform import ORDERING_GRID, uniformize_pair
from ctmcbisim.transient import HitStepDistribution, TransientQuery, poisson_weights, reach_prob

from helpers import (
    random_bisimilar_pair,
    random_dag_chain,
    random_labeled_chain,
    random_rewarded_chain,
    random_stable_chain,
    random_uniform_chain,
)

# ---------------------------------------------------------------- oracles


def transient_distribution(M: Ctmc, query: TransientQuery) -> np.ndarray:
    """State distribution at the query horizon, truncation error < tol."""
    start = M.initial if query.start is None else query.start
    q = M.max_rate()
    D = uniformize(M, q)
    w = poisson_weights(q * query.horizon, query.truncation_error)
    v = np.zeros(M.n)
    v[start] = 1.0
    acc = w[0] * v
    for k in range(1, len(w)):
        v = v @ D.P
        acc = acc + w[k] * v
    return acc


def timed_reach(M: Ctmc, s: int | str | None, t: float, tol: float = 1e-9) -> float:
    """Probability of sitting in the goal state at time t (= reaching it
    by t, since the goal is absorbing)."""
    g = M.goal_state()
    start = M.initial if s is None else M.index(s)
    pi = transient_distribution(M, TransientQuery(start=start, horizon=t, truncation_error=tol))
    return float(pi[g])


def timed_reach_curve(M: Ctmc, t_grid: Sequence[float], tol: float = 1e-9) -> np.ndarray:
    return np.array([timed_reach(M, None, float(t), tol) for t in t_grid])


def step_reach(D: Ctmc, s: int | str | None, k: int) -> float:
    """``(P^k)[s, g]`` by iterated vector-matrix products."""
    g = D.goal_state()
    start = D.initial if s is None else D.index(s)
    v = np.zeros(D.P.shape[0])
    v[start] = 1.0
    for _ in range(k):
        v = v @ D.P
    return float(v[g])


def hit_exact_steps(M: Ctmc, K: int) -> HitStepDistribution:
    """p_n = (P^n - P^{n-1})[init, g] for n = 1..K (g absorbing)."""
    g = M.goal_state()
    n_states = M.P.shape[0]
    v = np.zeros(n_states)
    v[M.initial] = 1.0
    prev = float(v[g])
    probs = np.empty(K)
    for n in range(1, K + 1):
        v = v @ M.P
        cur = float(v[g])
        probs[n - 1] = max(0.0, cur - prev)
        prev = cur
    return HitStepDistribution(probs=probs, reach=reach_prob(M))


def diff_curve(M: Ctmc, c: float, t_grid: Sequence[float], tol: float = 1e-9) -> np.ndarray:
    """Ground-truth |Pr^{cM}(reach g by t) - Pr^M(reach g by t)| per grid point.

    Requires a uniform-rate, goal-normalized chain; the accelerated
    chain is ``scale(M, c)``.
    """
    if not M.is_uniform():
        raise NonUniformRates("diff_curve requires a uniform-rate chain")
    if c < 1.0:
        raise ValueError("acceleration factor must be >= 1")
    M.goal_state()
    if c == 1.0:
        return np.zeros(len(t_grid))
    Mc = scale(M, c)
    out = np.empty(len(t_grid))
    for i, t in enumerate(t_grid):
        out[i] = abs(timed_reach(Mc, None, float(t), tol) - timed_reach(M, None, float(t), tol))
    return out


def _reach_curve(M: Ctmc, ts) -> list[float] | None:
    """Goal-reaching probabilities on a small grid, or None when the chain
    has no usable goal marking.  A goal that cannot be reached from the
    initial state is read through the two-state normal form, whose curve
    is 0.0 at every t; the earlier code gave None there."""
    try:
        pruned = prune_unreachable(M)
        if M.goal and not pruned.goal:
            return [0.0 for _ in ts]
        Mn = normalize_goal(pruned)
        return [timed_reach(Mn, None, float(t)) for t in ts]
    except (CtmcError, ValueError):
        return None


# ---------------------------------------------------------------- comparison


def _outcome(fn, *args):
    """("ok", dtype, shape, bytes) of the result, or ("err", type, message)."""
    try:
        value = fn(*args)
    except Exception as e:  # noqa: BLE001 - the exception is the outcome
        return ("err", type(e), str(e))
    if value is None:
        return ("ok", None)
    if isinstance(value, HitStepDistribution):
        return ("ok", _outcome(lambda: value.probs), value.reach)
    a = np.asarray(value)
    return ("ok", a.dtype, a.shape, a.tobytes())


def _same(old, new, *args):
    assert _outcome(new, *args) == _outcome(old, *args)


# ---------------------------------------------------------------- strategies


def _pair_m(rng):
    return random_bisimilar_pair(rng, 0.1, 0.2)[0]


def _pair_n(rng):
    return random_bisimilar_pair(rng, 0.1, 0.2)[1]


def _labeled(rng):
    return random_labeled_chain(rng, n=int(rng.integers(3, 9)))


def _moved_goal(rng):
    """A uniform chain whose goal is any state, often a transient one, so
    the goal entry of e_s P^k can fall as k grows."""
    M = random_uniform_chain(rng)
    return replace(M, goal=(int(rng.integers(0, M.n)),))


GENERATORS = (
    random_uniform_chain,
    random_dag_chain,
    random_stable_chain,
    _labeled,
    random_rewarded_chain,
    _pair_m,
    _pair_n,
    _moved_goal,
)

chains = st.builds(
    lambda gen, seed: gen(np.random.default_rng(seed)),
    st.sampled_from(GENERATORS),
    st.integers(0, 2**32 - 1),
)
times = st.one_of(
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0, 30.0, 120.0]),
    st.floats(0.0, 40.0),
)
grids = st.lists(times, max_size=7)
bad_grids = st.lists(st.one_of(times, st.sampled_from([-1.0, math.nan, math.inf])), min_size=1, max_size=4)
tols = st.sampled_from([1e-9, 1e-3, 1e-6, 1e-12])
starts = st.one_of(st.none(), st.integers(0, 100))


def _start(M, pick, by_id):
    """None, or a state given by position or by id."""
    if pick is None:
        return None
    i = pick % M.n
    return M.ids[i] if by_id else i


# ---------------------------------------------------------------- oracle tests


@settings(max_examples=120, deadline=None)
@given(chains, grids, tols)
def test_timed_reach_curve_matches_per_t_series(M, grid, tol):
    _same(timed_reach_curve, transient.timed_reach_curve, M, grid, tol)


@settings(max_examples=60, deadline=None)
@given(chains, bad_grids, tols)
def test_timed_reach_curve_rejects_bad_times_like_per_t_series(M, grid, tol):
    _same(timed_reach_curve, transient.timed_reach_curve, M, grid, tol)


@settings(max_examples=120, deadline=None)
@given(chains, times, tols, starts, st.booleans())
def test_timed_reach_matches(M, t, tol, pick, by_id):
    _same(timed_reach, transient.timed_reach, M, _start(M, pick, by_id), t, tol)


@settings(max_examples=80, deadline=None)
@given(chains, times, tols, starts)
def test_transient_distribution_matches(M, t, tol, pick):
    query = TransientQuery(start=_start(M, pick, by_id=False), horizon=t, truncation_error=tol)
    _same(transient_distribution, transient.transient_distribution, M, query)


@settings(max_examples=100, deadline=None)
@given(chains, st.integers(0, 80), starts, st.booleans(), st.booleans())
def test_step_reach_matches(M, k, pick, by_id, uniformized):
    D = uniformize(M) if uniformized else M
    _same(step_reach, transient.step_reach, D, _start(M, pick, by_id), k)


@settings(max_examples=100, deadline=None)
@given(chains, st.one_of(st.integers(0, 80), st.sampled_from([0, 1, 500])), st.booleans())
def test_hit_exact_steps_matches(M, K, normalized):
    if normalized:
        try:
            M = normalize_goal(prune_unreachable(M))
        except (CtmcError, ValueError):
            pass  # e.g. the goal is unreachable: compare on M itself
    _same(hit_exact_steps, transient.hit_exact_steps, M, K)


@settings(max_examples=150, deadline=None)
@given(chains, st.sampled_from([1.0, math.exp(0.1), 2.0, 0.5]), st.one_of(grids, bad_grids), tols)
def test_diff_curve_matches(M, c, grid, tol):
    # the helpers' uniform-rate chains take the series path, the others raise
    _same(diff_curve, transient.diff_curve, M, c, grid, tol)


@settings(max_examples=60, deadline=None)
@given(chains, st.one_of(grids, st.just(list(ORDERING_GRID))))
def test_pairuniform_reach_curve_matches(M, grid):
    _same(_reach_curve, pairuniform._reach_curve, M, grid)


def test_empty_grid_needs_no_goal():
    M = random_uniform_chain(np.random.default_rng(3))
    no_goal = Ctmc(ids=M.ids, labels=M.labels, P=M.P, E=M.E, initial=M.initial)
    for fn in (timed_reach_curve, transient.timed_reach_curve):
        out = fn(no_goal, [])
        assert out.dtype == np.float64 and out.shape == (0,)


def test_negative_step_counts():
    # the oracle step_reach read k < 0 as k = 0, and the oracle
    # hit_exact_steps raised for K = -1, which now gives no steps
    M = random_uniform_chain(np.random.default_rng(5))
    with pytest.raises(ValueError):
        transient.step_reach(M, None, -1)
    with pytest.raises(ValueError):
        transient.hit_exact_steps(M, -2)
    assert transient.hit_exact_steps(M, -1).probs.shape == (0,)


# ---------------------------------------------------------------- count gate


@pytest.fixture
def uniformize_calls(monkeypatch):
    calls = []
    real = transient.uniformize

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(transient, "uniformize", counting)
    return calls


def test_timed_reach_curve_uniformizes_once(uniformize_calls):
    M = random_uniform_chain(np.random.default_rng(11), n=12)
    grid = np.linspace(0.0, 30.0, 61)
    transient.timed_reach_curve(M, grid)
    assert len(uniformize_calls) == 1


def test_diff_curve_uniformizes_twice(uniformize_calls):
    M = random_uniform_chain(np.random.default_rng(12), n=12)
    transient.diff_curve(M, math.exp(0.1), np.linspace(0.0, 30.0, 61))
    assert len(uniformize_calls) == 2


def test_uniformize_pair_makes_four_curve_calls(monkeypatch, uniformize_calls):
    curves = []
    real = pairuniform.timed_reach_curve

    def counting(M, ts, *args):
        curves.append(tuple(ts))
        return real(M, ts, *args)

    monkeypatch.setattr(pairuniform, "timed_reach_curve", counting)
    delta = 0.1
    M = fixtures.branch_merge_chain()
    N = scale(M, math.exp(delta))
    R = PairRelation.from_off_diagonal({(i, M.n + i) for i in range(M.n)}, 2 * M.n, 0.0, delta)
    uniformize_pair(M, N, R, delta)
    assert curves == [tuple(ORDERING_GRID)] * 4
    assert len(uniformize_calls) == 4
