import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import (
    diff_curve,
    expected_hit_steps,
    fixtures,
    hit_exact_steps,
    make_ctmc,
    normalize_goal,
    reach_prob,
    simulate_paths,
    timed_reach,
    timed_reach_curve,
)
from ctmcbisim.errors import CtmcError, JumpBudgetExceeded, NonUniformRates
from ctmcbisim.transient import poisson_weights

from helpers import random_uniform_chain

# Reference values computed once with a matrix-exponential oracle
# (expm of the generator); the library itself never calls expm.
EXPM_REACH = [
    ("branch", 0.5, 0.038176208367729794),
    ("branch", 1.0, 0.12514112634412916),
    ("branch", 3.0, 0.5414079686784404),
    ("branch", 10.0, 0.9808923277430392),
    ("queue075", 1.0, 0.008168793598025637),
    ("queue075", 5.0, 0.43340689648561237),
    ("queue075", 20.0, 0.9884346324675589),
    ("queue13", 5.0, 0.04984949107409825),
    ("defective", 1.0, 0.24183667535920825),
    ("defective", 4.0, 0.7293294335267752),
    ("demoM", 1.0, 0.41476327264792645),
    ("demoM", 5.0, 0.9509754664677398),
    ("demoNnorm", 1.0, 0.3975717415197863),
    ("demoNnorm", 5.0, 0.7020438302122086),
    ("perturbed", 2.0, 0.05514788642914096),
    ("service1", 0.3, 0.10185278269095673),
    ("service2", 0.3, 0.09767256401049365),
    ("service3", 0.3, 0.010500761971951642),
]


def _named_chain(name):
    if name == "branch":
        return fixtures.branch_merge_chain()
    if name == "queue075":
        return fixtures.overflow_queue(0.75)
    if name == "queue13":
        return fixtures.overflow_queue(1 / 3)
    if name == "defective":
        return fixtures.defective_chain()
    if name == "demoM":
        return fixtures.bisimilar_demo_pair(0.2, 0.3)[0]
    if name == "demoNnorm":
        return normalize_goal(fixtures.bisimilar_demo_pair(0.2, 0.3)[1])
    if name == "perturbed":
        return fixtures.perturbed_loop_chain(0.25, 0.5)
    return fixtures.service_chains()[int(name[-1]) - 1]


@pytest.mark.parametrize("name,t,expect", EXPM_REACH)
def test_timed_reach_against_expm_oracle(name, t, expect):
    M = _named_chain(name)
    assert timed_reach(M, None, t, tol=1e-12) == pytest.approx(expect, abs=5e-12)


def test_timed_reach_two_state_loop_closed_form():
    # jumping at rate r and escaping with probability 1-p per jump is an
    # exponential escape at the thinned rate r*(1-p)
    for p, rate, t in [(0.5, 1.0, 1.0), (0.9, 2.0, 3.0), (0.0, 1.0, 0.7)]:
        M = fixtures.two_state_loop(p, rate)
        expect = 1.0 - math.exp(-rate * (1.0 - p) * t)
        assert timed_reach(M, None, t, tol=1e-12) == pytest.approx(expect, abs=1e-11)


def test_timed_reach_erlang_cdf():
    for n, t in [(1, 1.0), (3, 2.5), (5, 4.0)]:
        M = fixtures.erlang_chain(n)
        head = sum(t**k / math.factorial(k) for k in range(n))
        expect = 1.0 - math.exp(-t) * head
        assert timed_reach(M, None, t, tol=1e-12) == pytest.approx(expect, abs=1e-11)


def test_timed_reach_curve_monotone():
    M = fixtures.overflow_queue(0.5)
    grid = np.linspace(0.0, 12.0, 25)
    curve = timed_reach_curve(M, grid, tol=1e-10)
    assert curve[0] == 0.0
    assert np.all(np.diff(curve) >= -1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5_000), t=st.floats(0.0, 20.0))
def test_timed_reach_in_unit_interval(seed, t):
    M = random_uniform_chain(np.random.default_rng(seed))
    v = timed_reach(M, None, t, tol=1e-9)
    assert -1e-12 <= v <= 1.0 + 1e-12


# ---------------------------------------------------------------- poisson


def test_poisson_weights_mass_certificate():
    for mu in (0.3, 1.0, 7.5, 120.0, 4000.0):
        for tol in (1e-6, 1e-12):
            w = poisson_weights(mu, tol)
            assert w.sum() >= 1.0 - tol
            assert np.all(w >= 0.0)


def test_poisson_weights_match_direct_terms():
    mu = 2.5
    w = poisson_weights(mu, 1e-12)
    direct = [math.exp(-mu) * mu**k / math.factorial(k) for k in range(len(w))]
    assert np.allclose(w, direct, rtol=1e-13, atol=0.0)


def test_poisson_weights_degenerate():
    assert poisson_weights(0.0, 1e-9).tolist() == [1.0]
    with pytest.raises(ValueError):
        poisson_weights(-1.0, 1e-9)


def test_transient_query_validation():
    # every grid time and the truncation error are checked before the series
    M = fixtures.branch_merge_chain()
    with pytest.raises(ValueError, match="^horizon must be finite and nonnegative, got -1.0$"):
        timed_reach(M, None, -1.0)
    with pytest.raises(ValueError, match="^horizon must be finite and nonnegative, got inf$"):
        timed_reach_curve(M, [1.0, 2.0, math.inf])
    with pytest.raises(ValueError, match="^tol must be positive and below 1, got tol=0.0$"):
        timed_reach(M, None, 1.0, tol=0.0)


# ---------------------------------------------------------------- embedded steps


def test_hit_exact_steps_branch_values():
    d = hit_exact_steps(fixtures.branch_merge_chain(), 5)
    assert d.p(1) == 0.0
    assert d.p(2) == pytest.approx(0.375, abs=1e-15)
    assert d.p(3) == pytest.approx(0.28125, abs=1e-15)
    assert d.p(4) == pytest.approx(0.1640625, abs=1e-15)
    assert d.p(5) == pytest.approx(0.087890625, abs=1e-15)
    assert d.reach == pytest.approx(1.0, abs=1e-12)
    assert d.p(100) == 0.0  # beyond the computed horizon


def test_hit_exact_steps_point_mass_and_geometric():
    d = hit_exact_steps(fixtures.erlang_chain(4), 8)
    assert d.p(4) == 1.0
    assert sum(d.p(n) for n in range(1, 9) if n != 4) == 0.0

    p = 0.6
    d = hit_exact_steps(fixtures.two_state_loop(p), 12)
    for n in range(1, 13):
        assert d.p(n) == pytest.approx((1 - p) * p ** (n - 1), abs=1e-15)


def _enumerate_first_hits(M, K):
    """Exhaustive path-space oracle: sum path probabilities grouped by the
    first step that lands in g."""
    g = M.goal_state()
    out = np.zeros(K)

    def walk(s, step, prob):
        if step > K or prob == 0.0:
            return
        for sp in range(M.n):
            q = prob * M.P[s, sp]
            if q == 0.0:
                continue
            if sp == g:
                out[step - 1] += q
            else:
                walk(sp, step + 1, q)

    walk(M.initial, 1, 1.0)
    return out


@pytest.mark.parametrize(
    "M",
    [
        fixtures.branch_merge_chain(),
        fixtures.defective_chain(),
        fixtures.two_state_loop(0.3),
        fixtures.multi_sink_chain(),
        fixtures.overflow_queue(0.4),
    ],
    ids=["branch", "defective", "loop", "multisink", "queue"],
)
def test_hit_exact_steps_vs_path_enumeration(M):
    d = hit_exact_steps(M, 6)
    brute = _enumerate_first_hits(M, 6)
    assert np.allclose(d.probs, brute, atol=1e-14)


def test_hit_steps_tail_accounts_for_reach():
    M = fixtures.two_state_loop(0.5)
    d = hit_exact_steps(M, 40)
    assert d.reach == pytest.approx(1.0, abs=1e-12)
    assert d.tail_mass == pytest.approx(0.5**40, rel=1e-9)

    d = hit_exact_steps(fixtures.multi_sink_chain(), 30)
    assert d.reach == pytest.approx(0.5, abs=1e-12)
    assert d.probs.sum() == pytest.approx(0.5, abs=1e-12)
    assert d.tail_mass <= 1e-12


def test_expected_hit_steps():
    assert expected_hit_steps(fixtures.erlang_chain(6)) == pytest.approx(6.0, abs=1e-12)
    assert expected_hit_steps(fixtures.two_state_loop(0.5)) == pytest.approx(2.0, abs=1e-12)
    assert math.isinf(expected_hit_steps(fixtures.multi_sink_chain()))
    # cross-check by the truncated series sum n*p_n
    M = fixtures.branch_merge_chain()
    d = hit_exact_steps(M, 200)
    series = sum(n * d.p(n) for n in range(1, 201))
    assert expected_hit_steps(M) == pytest.approx(series, abs=1e-9)


def test_reach_prob_values():
    assert reach_prob(fixtures.multi_sink_chain()) == pytest.approx(0.5, abs=1e-13)
    assert reach_prob(fixtures.erlang_chain(3)) == pytest.approx(1.0, abs=1e-13)
    s1, _, s3 = (
        fixtures.service_chains()[0],
        fixtures.service_chains()[1],
        fixtures.service_chains()[2],
    )
    # s0 -> s1 w.p. 1/2, then g w.p. 1/2 or back w.p. 1/2: x = (1/2)(1/2)(1+x) -> 1/3
    assert reach_prob(s1) == pytest.approx(1.0 / 3.0, abs=1e-12)
    # variant 3: s1 -> g w.p. 1/21, back w.p. 20/21
    x = 0.5 * (1 / 21) / (1 - 0.5 * 20 / 21)
    assert reach_prob(s3) == pytest.approx(x, abs=1e-12)


# ---------------------------------------------------------------- diff curve


def test_diff_curve_trivial_and_exponential():
    M = fixtures.erlang_chain(1)
    grid = np.linspace(0.0, 6.0, 13)
    assert np.all(diff_curve(M, 1.0, grid) == 0.0)
    c = 1.7
    expect = np.exp(-grid) - np.exp(-c * grid)
    assert np.allclose(diff_curve(M, c, grid, tol=1e-12), expect, atol=1e-11)


def test_diff_curve_requires_uniform_rates():
    with pytest.raises(NonUniformRates):
        diff_curve(fixtures.rewarded_tandem(), 1.5, [1.0])
    with pytest.raises(ValueError):
        diff_curve(fixtures.erlang_chain(1), 0.5, [1.0])


def test_diff_curve_nonnegative_and_vanishes_at_zero():
    M = fixtures.branch_merge_chain()
    grid = np.linspace(0.0, 20.0, 21)
    d = diff_curve(M, math.exp(0.1), grid)
    assert d[0] == 0.0
    assert np.all(d >= 0.0)


# ---------------------------------------------------------------- simulation


def test_simulate_deterministic_under_seed():
    M = fixtures.overflow_queue(0.5)
    a = simulate_paths(M, 5_000, 4.0, seed=123)
    b = simulate_paths(M, 5_000, 4.0, seed=123)
    assert a == b
    c = simulate_paths(M, 5_000, 4.0, seed=124)
    assert c.hits != a.hits or c.estimate == a.estimate


def test_simulate_a_subnormal_rate_without_a_warning():
    # the sojourn on "slow" overflows to inf, the right value, and that path
    # never reaches the goal; numpy's overflow warning must not leak
    M = make_ctmc(
        [("start", (), 1.0), ("slow", (), 1e-310), ("goal", ("goal",), 1.0)],
        [("start", "slow", 0.5), ("start", "goal", 0.5), ("slow", "goal", 1.0), ("goal", "goal", 1.0)],
        "start",
        goal=["goal"],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = simulate_paths(M, 1_000, 50.0, seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert simulate_paths(M, 1_000, 50.0, seed=7) == want
    assert 0 < want.hits < 1_000 and want.contains(0.5)


def test_simulate_jump_budget_raises_a_library_error():
    # every path is still running on the loop's transient state after 50 jumps
    M = fixtures.two_state_loop(0.999)
    with pytest.raises(JumpBudgetExceeded) as info:
        simulate_paths(M, 100, 1e6, seed=0, max_jumps=50)
    assert isinstance(info.value, CtmcError)
    assert info.value.max_jumps == 50


def test_simulate_zero_horizon():
    r = simulate_paths(fixtures.erlang_chain(2), 1_000, 0.0, seed=0)
    assert r.estimate == 0.0 and r.hits == 0


def test_simulate_exponential_benchmark():
    r = simulate_paths(fixtures.erlang_chain(1), 100_000, 1.0, seed=42)
    assert r.contains(1.0 - math.exp(-1.0))
    assert r.ci_high - r.ci_low < 0.01


def test_simulate_matches_transient_analysis():
    M = fixtures.overflow_queue(0.5)
    truth = timed_reach(M, None, 5.0, tol=1e-10)
    r = simulate_paths(M, 50_000, 5.0, seed=7)
    assert r.contains(truth)


def test_simulate_coverage_statistics():
    # ~95% of seeded runs should cover the true value; allow slack for the
    # finitely many trials (99.9%-ile of Binomial(60, 0.95) misses)
    M = fixtures.two_state_loop(0.4)
    truth = timed_reach(M, None, 1.5, tol=1e-11)
    covered = sum(
        simulate_paths(M, 2_000, 1.5, seed=s, confidence=0.95).contains(truth)
        for s in range(60)
    )
    assert covered >= 51


def test_simulate_budget_weights_mean_spend():
    # with weights = 1 on every state the budget clock is the time clock
    M = fixtures.rewarded_tandem()
    a = simulate_paths(M, 20_000, 3.0, seed=5)
    b = simulate_paths(M, 20_000, 3.0, seed=5, budget_weights=np.ones(M.n))
    assert a == b


def test_simulate_memory_does_not_grow_with_paths_times_states():
    # a paths x n temporary per jump would be 2e4 * 400 * 8 B = 64 MB
    M = random_uniform_chain(np.random.default_rng(0), n=400)
    tracemalloc.start()
    try:
        res = simulate_paths(M, 20_000, 10.0, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.hits > 0
    assert peak < 16 * 2**20


def test_wilson_interval_sane():
    r = simulate_paths(fixtures.erlang_chain(1), 500, 50.0, seed=3)
    # essentially every path reaches by t=50; interval must stay in [0,1]
    assert r.estimate >= 0.99
    assert 0.0 <= r.ci_low <= r.estimate <= r.ci_high <= 1.0
