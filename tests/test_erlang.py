import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import (
    ParetoRegion,
    diff_curve,
    erlang_N,
    erlang_N_bound,
    erlang_diff,
    erlang_diff_prefix,
    exact_diff_series,
    fixtures,
    markov_bound,
    normalize_goal,
    pareto_region,
    uniformization_bound,
)
from ctmcbisim.errors import NonUniformRates, NotApplicable

# 40-digit-arithmetic reference values for the Erlang hitting-time gap
# (frozen from a one-off high-precision run; the library stays in doubles).
ERLANG_DIFF_REF = [
    (1, 1.2, 0.7, 0.06487478036232981),
    (3, 1.1051709180756477, 2.5, 0.06547576535300886),  # c = e^0.1
    (10, 1.05, 8.0, 0.05070456098635726),
    (4, 2.0, 1.0, 0.12388838262529914),
    (25, 1.010050167084168, 30.0, 0.012458454969914332),  # c = e^0.01
]


@pytest.mark.parametrize("n,c,t,expect", ERLANG_DIFF_REF)
def test_erlang_diff_frozen_values(n, c, t, expect):
    assert erlang_diff(n, c, t) == pytest.approx(expect, abs=2e-15)


def test_erlang_diff_degenerate_and_errors():
    assert erlang_diff(0, 1.5, 2.0) == 0.0
    assert erlang_diff(3, 1.0, 2.0) == 0.0
    assert erlang_diff(3, 1.5, 0.0) == 0.0
    with pytest.raises(ValueError):
        erlang_diff(-1, 1.5, 1.0)
    with pytest.raises(ValueError):
        erlang_diff(2, 0.9, 1.0)
    with pytest.raises(ValueError):
        erlang_diff(2, 1.5, -1.0)


def test_erlang_diff_n1_closed_form():
    for c, t in [(1.3, 0.5), (2.0, 1.7), (1.01, 9.0)]:
        assert erlang_diff(1, c, t) == pytest.approx(
            math.exp(-t) - math.exp(-c * t), abs=1e-15
        )


def test_erlang_diff_prefix_consistent():
    c, t = 1.25, 3.0
    pre = erlang_diff_prefix(c, t, 12)
    assert pre[0] == 0.0
    for n in range(13):
        assert pre[n] == erlang_diff(n, c, t)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 40),
    c=st.floats(1.0, 3.0),
    t=st.floats(0.0, 50.0),
)
def test_erlang_diff_in_unit_interval(n, c, t):
    v = erlang_diff(n, c, t)
    assert 0.0 <= v <= 1.0


def test_erlang_diff_sums_to_identity():
    # sum over all chain lengths of the gap equals t*(c-1); the markov
    # truncation certificate rests on this identity
    c, t = 1.2, 2.0
    total = erlang_diff_prefix(c, t, 4000).sum()
    assert total == pytest.approx(t * (c - 1.0), abs=1e-12)


# ---------------------------------------------------------------- uniformization bound


def test_uniformization_bound_specializations():
    q, t = 2.0, 1.5
    assert uniformization_bound(0.0, 0.0, q, t) == 0.0
    eps = 0.3
    assert uniformization_bound(eps, 0.0, q, t) == pytest.approx(
        1.0 - math.exp(-q * t * eps), abs=1e-15
    )
    delta = 0.2
    assert uniformization_bound(0.0, delta, q, t) == pytest.approx(
        1.0 - math.exp(-q * t * (math.exp(delta) - 1.0)), abs=1e-15
    )
    with pytest.raises(ValueError):
        uniformization_bound(-0.1, 0.0, q, t)


@settings(max_examples=40, deadline=None)
@given(
    eps=st.floats(0.0, 1.0),
    delta=st.floats(0.0, 1.0),
    q=st.floats(0.1, 10.0),
    t=st.floats(0.0, 10.0),
)
def test_uniformization_bound_monotone(eps, delta, q, t):
    v = uniformization_bound(eps, delta, q, t)
    assert 0.0 <= v < 1.0 or v == pytest.approx(1.0)
    assert uniformization_bound(eps + 0.1, delta, q, t) >= v
    assert uniformization_bound(eps, delta + 0.1, q, t) >= v


# ---------------------------------------------------------------- pareto region


def test_pareto_endpoints_q1_t1_theta01():
    reg = pareto_region(0.1, 1.0, 1.0)
    assert reg.eps_max(0.0) == pytest.approx(-math.log(0.9), abs=1e-15)
    assert reg.delta_max(0.0) == pytest.approx(math.log(1.0 - math.log(0.9)), abs=1e-15)
    # every frontier point hits the budget exactly
    for eps, delta in reg.frontier(9):
        assert uniformization_bound(eps, delta, 1.0, 1.0) == pytest.approx(0.1, abs=1e-12)
        assert reg.contains(eps, delta)
        assert not reg.contains(eps + 1e-6, delta)


def test_pareto_theta_zero_single_point():
    reg = pareto_region(0.0, 2.0, 3.0)
    assert reg.budget == 1.0
    assert reg.eps_max(0.0) == 0.0
    assert reg.delta_max(0.0) == 0.0
    assert reg.frontier(5) == [(0.0, 0.0)] * 5
    assert reg.contains(0.0, 0.0)
    assert not reg.contains(0.01, 0.0)


def test_pareto_validation():
    with pytest.raises(ValueError):
        ParetoRegion(theta=1.0, q=1.0, t=1.0)
    with pytest.raises(ValueError):
        ParetoRegion(theta=0.5, q=1.0, t=0.0)
    with pytest.raises(ValueError):
        pareto_region(0.5, 1.0, 1.0).frontier(1)


@settings(max_examples=40, deadline=None)
@given(
    theta=st.floats(0.0, 0.99),
    q=st.floats(0.1, 5.0),
    t=st.floats(0.1, 20.0),
    delta=st.floats(0.0, 1.0),
)
def test_pareto_contains_iff_bound_within(theta, q, t, delta):
    reg = pareto_region(theta, q, t)
    eps = reg.eps_max(delta)
    if reg.contains(eps, delta):
        assert uniformization_bound(eps, delta, q, t) <= theta + 1e-9


# ---------------------------------------------------------------- erlang-N bound


def test_erlang_N_hand_values():
    assert erlang_N(30.0, 0.1) == 32  # ceil(31.55...)
    assert erlang_N(1.0, 1.0) == 2  # ceil(e - 1)
    assert erlang_N(10.0, 0.01) == math.ceil((math.exp(0.01) - 1.0) * 10.0 / 0.01)
    with pytest.raises(NotApplicable):
        erlang_N(1.0, 0.0)
    for fn in (erlang_N, erlang_N_bound):
        with pytest.raises(ValueError, match="^t must be nonnegative, got -1.0$"):
            fn(-1.0, 0.1)


@pytest.mark.parametrize("delta", [0.0, 0.1])
@pytest.mark.parametrize("t", [-1.0, math.nan])
def test_erlang_N_bound_rejects_a_bad_time_at_every_delta(t, delta):
    # at delta 0 the gap is 0 for every valid time, but not for a bad one
    with pytest.raises(ValueError, match=f"t(=| must be nonnegative, got ){t!r}"):
        erlang_N_bound(t, delta)


def test_erlang_N_bound_is_diff_at_N():
    t, delta = 7.0, 0.2
    expect = erlang_diff(erlang_N(t, delta), math.exp(delta), t)
    assert erlang_N_bound(t, delta) == expect
    assert erlang_N_bound(t, 0.0) == 0.0
    assert erlang_N_bound(0.0, 0.3) == 0.0


# ---------------------------------------------------------------- exact series


def test_exact_series_point_mass_chains():
    # the length-n line hits at step n with probability one, so the series
    # collapses to a single erlang_diff term
    delta, t = 0.2, 2.5
    M = fixtures.erlang_chain(3)
    assert exact_diff_series(M, delta, t) == pytest.approx(
        erlang_diff(3, math.exp(delta), t), abs=1e-12
    )
    # non-unit uniform rate r folds into the effective horizon r*t
    M2 = fixtures.erlang_chain(3, rate=2.0)
    assert exact_diff_series(M2, delta, t) == pytest.approx(
        erlang_diff(3, math.exp(delta), 2.0 * t), abs=1e-12
    )


def test_exact_series_matches_ground_truth():
    M = fixtures.branch_merge_chain()
    delta = 0.1
    grid = [0.5, 2.0, 5.0, 12.0]
    truth = diff_curve(M, math.exp(delta), grid, tol=1e-10)
    for t, want in zip(grid, truth):
        assert exact_diff_series(M, delta, t, tol=1e-9) == pytest.approx(want, abs=1e-6)


def test_exact_series_degenerate_and_errors():
    M = fixtures.branch_merge_chain()
    assert exact_diff_series(M, 0.0, 5.0) == 0.0
    assert exact_diff_series(M, 0.3, 0.0) == 0.0
    with pytest.raises(NonUniformRates):
        exact_diff_series(fixtures.rewarded_tandem(), 0.1, 1.0)


def test_exact_series_partial_reach():
    # chains that may never reach g: series still converges, certified by
    # the vanishing remaining hit mass
    Mn = normalize_goal(fixtures.multi_sink_chain())
    v = exact_diff_series(Mn, 0.1, 3.0, tol=1e-10)
    truth = diff_curve(Mn, math.exp(0.1), [3.0], tol=1e-11)[0]
    assert v == pytest.approx(truth, abs=1e-8)


# ---------------------------------------------------------------- markov bound


def test_markov_dominates_exact():
    M = fixtures.branch_merge_chain()
    for delta in (0.05, 0.1, 0.3):
        for t in (0.5, 2.0, 10.0):
            mk = markov_bound(M, delta, t)
            ex = exact_diff_series(M, delta, t)
            assert mk >= ex - 1e-9


def test_markov_not_applicable_when_steps_infinite():
    Mn = normalize_goal(fixtures.multi_sink_chain())
    with pytest.raises(NotApplicable):
        markov_bound(Mn, 0.1, 1.0)


def test_markov_clamped_at_one():
    assert markov_bound(fixtures.two_state_loop(0.9), 1.0, 10.0) == 1.0


def test_markov_degenerate():
    M = fixtures.two_state_loop(0.5)
    assert markov_bound(M, 0.0, 4.0) == 0.0
    assert markov_bound(M, 0.2, 0.0) == 0.0
