"""Whole-grid bound curves against the per-time-point loops they replace.

``exact_diff_curve``, ``markov_curve`` and ``spectral_curve`` compute every
quantity that does not depend on t once per grid.  The oracles below are
the one-time-point implementations they replaced, kept as they were; the
curves must reproduce their doubles exactly (``np.array_equal``), not
approximately.  The same holds for the shared ``lgamma`` table behind the
Poisson weights.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import (
    acyclic_exact,
    combined_bound,
    decompose,
    diag_bound,
    exact_diff_curve,
    exact_diff_series,
    fixtures,
    is_embedded_acyclic,
    jordan_bound,
    markov_bound,
    markov_curve,
    normalize_goal,
    prune_unreachable,
    save_model,
    spectral_curve,
)
from ctmcbisim import transient
from ctmcbisim.cli import main
from ctmcbisim.erlang import _uniform_rate, erlang_diff_prefix
from ctmcbisim.errors import CtmcError, NotApplicable
from ctmcbisim.transient import expected_hit_steps, hit_exact_steps, log_factorials, poisson_weights, reach_prob

from helpers import random_dag_chain, random_uniform_chain

# ---------------------------------------------------------------- oracles


def _poisson_cdf_prefix_oracle(mu, kmax):
    if kmax < 0:
        return np.empty(0)
    if mu == 0.0:
        return np.ones(kmax + 1)
    ks = np.arange(kmax + 1, dtype=float)
    lgam = np.array([math.lgamma(k + 1.0) for k in range(kmax + 1)])
    pmf = np.exp(-mu + ks * math.log(mu) - lgam)
    return np.minimum(np.cumsum(pmf), 1.0)


def _poisson_weights_oracle(mu, tol):
    if mu == 0.0:
        return np.ones(1)
    K = int(math.ceil(mu + 10.0 * math.sqrt(mu + 1.0) + 30.0))
    log_mu = math.log(mu)
    while True:
        lgam = np.array([math.lgamma(k + 1.0) for k in range(K + 1)])
        w = np.exp(-mu + np.arange(K + 1) * log_mu - lgam)
        cum = np.cumsum(w)
        if cum[-1] >= 1.0 - tol:
            stop = int(np.searchsorted(cum, 1.0 - tol)) + 1
            return w[:stop]
        K *= 2


def _erlang_diff_prefix_oracle(c, t, n_max):
    out = np.zeros(n_max + 1)
    if t == 0.0 or c == 1.0 or n_max == 0:
        return out
    cdf_slow = _poisson_cdf_prefix_oracle(t, n_max - 1)
    cdf_fast = _poisson_cdf_prefix_oracle(c * t, n_max - 1)
    out[1:] = np.maximum(0.0, cdf_slow - cdf_fast)
    return out


def _exact_diff_series_oracle(M, delta, t, tol=1e-9):
    r = _uniform_rate(M)
    M.goal_state()
    if delta == 0.0 or t == 0.0:
        return 0.0
    c = math.exp(delta)
    teff = r * t
    total_reach = reach_prob(M)
    K = 64
    while True:
        hits = hit_exact_steps(M, K)
        remaining = total_reach - float(hits.probs.sum())
        if remaining < tol or K > 1 << 22:
            diffs = _erlang_diff_prefix_oracle(c, teff, K)
            return float(np.dot(hits.probs, diffs[1:]))
        K *= 2


def _markov_bound_oracle(M, delta, t, tol=1e-9):
    r = _uniform_rate(M)
    M.goal_state()
    ex = expected_hit_steps(M)
    if math.isinf(ex):
        raise NotApplicable("expected hitting steps are infinite (fail state reachable)")
    if delta == 0.0 or t == 0.0:
        return 0.0
    c = math.exp(delta)
    teff = r * t
    total = teff * (c - 1.0)
    K = 256
    while True:
        diffs = _erlang_diff_prefix_oracle(c, teff, K)
        partial = float(np.dot(diffs[1:], 1.0 / np.arange(1.0, K + 1.0)))
        tail = max(0.0, total - float(diffs[1:].sum())) / (K + 1.0)
        if ex * tail < tol or K > 1 << 22:
            return min(1.0, ex * (partial + tail))
        K *= 2


def _spectral_curve_oracle(Mn, delta, grid, tol):
    """The command line's per-time acyclic loop and its diag/Jordan dispatch."""
    if is_embedded_acyclic(Mn):
        return np.array([acyclic_exact(Mn, delta, float(t)) for t in grid])
    sd = decompose(Mn.P, tol=tol)
    if sd.kind == "diag":
        return diag_bound(Mn, delta, grid, tol=tol)
    return jordan_bound(Mn, delta, grid, tol=tol)


# ---------------------------------------------------------------- strategies

seeds = st.integers(0, 2**32 - 1)
deltas = st.sampled_from([0.0, 0.01, 0.1, 0.5])
# long horizons make the markov truncation point K differ between grid times
grids = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0), st.floats(0.0, 200.0)), min_size=1, max_size=6)


def _chain(seed, dag):
    rng = np.random.default_rng(seed)
    M = random_dag_chain(rng) if dag else random_uniform_chain(rng)
    return normalize_goal(prune_unreachable(M))


# ---------------------------------------------------------------- curves vs oracles


@settings(max_examples=60, deadline=None)
@given(seed=seeds, dag=st.booleans(), delta=deltas, grid=grids)
def test_exact_diff_curve_matches_per_time_oracle(seed, dag, delta, grid):
    Mn = _chain(seed, dag)
    expect = np.array([_exact_diff_series_oracle(Mn, delta, t) for t in grid])
    assert np.array_equal(exact_diff_curve(Mn, delta, grid), expect)
    assert exact_diff_series(Mn, delta, grid[-1]) == expect[-1]


@settings(max_examples=60, deadline=None)
@given(seed=seeds, dag=st.booleans(), delta=deltas, grid=grids)
def test_markov_curve_matches_per_time_oracle(seed, dag, delta, grid):
    Mn = _chain(seed, dag)
    expect = np.array([_markov_bound_oracle(Mn, delta, t) for t in grid])
    assert np.array_equal(markov_curve(Mn, delta, grid), expect)
    assert markov_bound(Mn, delta, grid[-1]) == expect[-1]


@pytest.mark.parametrize("seed", range(6))
def test_markov_curve_descending_long_grid(seed):
    # a long horizon first needs a larger K than the short ones after it;
    # each grid time must still start its own search from K = 256
    Mn = normalize_goal(prune_unreachable(random_uniform_chain(np.random.default_rng(seed), rates=(1.0,))))
    grid = [200.0, 150.0, 100.0, 50.0, 20.0, 10.0, 3.0, 1.0, 0.0]
    expect = np.array([_markov_bound_oracle(Mn, 0.1, t) for t in grid])
    assert np.array_equal(markov_curve(Mn, 0.1, grid), expect)


def test_markov_curve_not_applicable_like_oracle():
    Mn = normalize_goal(prune_unreachable(fixtures.multi_sink_chain()))
    with pytest.raises(NotApplicable):
        _markov_bound_oracle(Mn, 0.1, 1.0)
    with pytest.raises(NotApplicable):
        markov_curve(Mn, 0.1, [0.0, 1.0])


@settings(max_examples=60, deadline=None)
@given(seed=seeds, dag=st.booleans(), delta=deltas, grid=grids)
def test_spectral_curve_matches_per_time_oracle(seed, dag, delta, grid):
    Mn = _chain(seed, dag)
    try:
        expect = _spectral_curve_oracle(Mn, delta, grid, 1e-9)
    except CtmcError as exc:
        with pytest.raises(type(exc)):
            spectral_curve(Mn, delta, grid)
        return
    assert np.array_equal(spectral_curve(Mn, delta, grid), expect)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, dag=st.booleans(), delta=deltas, grid=grids)
def test_combined_bound_with_shared_spectral_curve(seed, dag, delta, grid):
    Mn = _chain(seed, dag)
    try:
        spec = spectral_curve(Mn, delta, grid)
    except CtmcError:
        return
    assert np.array_equal(combined_bound(Mn, delta, grid, spectral=lambda: spec), combined_bound(Mn, delta, grid))


# ---------------------------------------------------------------- lgamma table


@settings(max_examples=30, deadline=None)
@given(
    queries=st.lists(
        st.tuples(st.floats(0.0, 400.0), st.integers(-1, 900), st.sampled_from([1e-6, 1e-9, 1e-10])),
        min_size=1,
        max_size=5,
    )
)
def test_log_factorial_table_matches_lgamma_before_and_after_growth(queries):
    saved = transient._LOG_FACTORIALS
    transient._LOG_FACTORIALS = saved[:1]  # restart from the one-entry table
    try:
        for _ in range(2):  # the second round reads a table grown by the first
            for mu, kmax, tol in queries:
                assert np.array_equal(erlang_diff_prefix(2.0, mu, kmax + 1), _erlang_diff_prefix_oracle(2.0, mu, kmax + 1))
                assert np.array_equal(poisson_weights(mu, tol), _poisson_weights_oracle(mu, tol))
    finally:
        transient._LOG_FACTORIALS = saved


def test_log_factorial_table_is_read_only():
    table = log_factorials(10)
    assert table[5] == math.lgamma(6.0)
    with pytest.raises(ValueError):
        table[0] = 1.0


# ---------------------------------------------------------------- count gate


def _count_calls(monkeypatch, home, name):
    """Wrap ``home.name`` in every ctmcbisim namespace that holds it; the
    returned list collects each call's positional arguments."""
    orig = getattr(home, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "ctmcbisim":
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


@pytest.mark.parametrize("chain", ["branch", "queue"])
def test_bounds_computes_t_independent_work_once(chain, monkeypatch, tmp_path, capsys):
    from ctmcbisim import spectral

    M = fixtures.branch_merge_chain() if chain == "branch" else fixtures.overflow_queue(0.75)
    path = tmp_path / "model.json"
    save_model(M, str(path))
    ex_calls = _count_calls(monkeypatch, transient, "expected_hit_steps")
    dec_calls = _count_calls(monkeypatch, spectral, "decompose")
    hit_calls = _count_calls(monkeypatch, transient, "hit_exact_steps")
    rc = main(["bounds", "-m", str(path), "--delta", "0.1", "--tmax", "30", "--steps", "60",
               "--which", "exact,unif,erlangN,markov,spectral,combined"])
    capsys.readouterr()
    assert rc == 0
    assert len(ex_calls) == 1
    assert len(dec_calls) == 1
    K = max(args[1] for args in hit_calls)
    assert len(hit_calls) <= math.ceil(math.log2(K / 64)) + 1
