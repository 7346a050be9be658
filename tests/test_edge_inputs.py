"""Library routines at the edge of their domain.

- A NaN or negative tolerance, rate or horizon is rejected, not turned
  into a NaN result or a vacuous True.
- A time-uniform bound with a zero factor in its exponent is 0.0, even
  when the other factor is infinite.
- A uniform draw above the rounded sum of a jump-matrix row goes to that
  row's last positive column, and a draw of 0.0 to its first positive
  column, never to a state the row cannot reach.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from ctmcbisim import Partition, check_quasi_lumpability, fixtures, make_ctmc, pareto_region, uniformization_bound
from ctmcbisim.rewards import reward_bound
from ctmcbisim.transient import simulate_paths

from test_sampler_oracle import simulate_paths_oracle

# ---------------------------------------------------------------- input checks


@pytest.mark.parametrize("tau", [math.nan, -0.01])
def test_quasi_lumpability_rejects_a_bad_tau(tau):
    M, blocks = fixtures.quasi_lumpable_gap_chain(0.2, 0.3, 0.05)
    with pytest.raises(ValueError, match="tau"):
        check_quasi_lumpability(M, Partition(blocks=blocks), tau)


@pytest.mark.parametrize("q, t", [(-1.0, -2.0), (-1e-3, -5.0)])
def test_pareto_region_needs_a_positive_finite_q_and_t(q, t):
    with pytest.raises(ValueError, match="q and t"):
        pareto_region(0.1, q, t)


@pytest.mark.parametrize("at", range(3))
@pytest.mark.parametrize("bound", [uniformization_bound, reward_bound])
def test_time_uniform_bounds_reject_nan(bound, at):
    # eps, q and t; delta is checked by rate_factor
    args = [0.1, 0.2, 1.0, 1.0]
    args[(0, 2, 3)[at]] = math.nan
    with pytest.raises(ValueError, match="nonnegative"):
        bound(*args)


@pytest.mark.parametrize(
    "eps, delta, q, t",
    [(math.inf, 0.0, 1.0, 0.0), (0.1, 0.0, math.inf, 0.0), (0.0, 0.0, math.inf, 1.0)],
)
def test_a_zero_factor_of_the_exponent_gives_a_zero_bound(eps, delta, q, t):
    # q t, or e^delta (1 + eps) - 1, is 0 while the other factor is infinite
    assert uniformization_bound(eps, delta, q, t) == 0.0


def test_finite_bounds_keep_their_bits():
    def old(eps, delta, q, t):
        return 1.0 - math.exp(-q * t * (math.exp(delta) * (1.0 + eps) - 1.0))

    grid = [0.0, 1e-300, 1e-9, 0.05, 0.1, 1.0, 3.7, 1e3, 1e300]
    for eps in grid:
        for delta in [0.0, 1e-12, 0.1, 1.0, 50.0]:
            for q in grid:
                for t in grid:
                    got, want = uniformization_bound(eps, delta, q, t), old(eps, delta, q, t)
                    if math.isnan(want):  # one factor is 0, the other overflowed
                        assert got == 0.0 and 0.0 in (q * t, math.exp(delta) * (1.0 + eps) - 1.0)
                    else:
                        assert got.hex() == want.hex(), (eps, delta, q, t)


# ---------------------------------------------------------------- the draw


class _TopDraws:
    """Stands in for ``np.random.default_rng``: every sojourn is 0.5 and
    every uniform draw is ``1 - 5e-14``."""

    def __init__(self, seed):
        pass

    def exponential(self, scale, size):
        return np.full(size, 0.5 * scale)

    def random(self, size):
        return np.full(size, 1.0 - 5e-14)


def test_a_draw_above_the_row_sum_stays_in_the_row(monkeypatch):
    # row "a" sums to 1 - 1e-13, below the draw, and has no entry for "g"
    M = make_ctmc(
        [("a", (), 1.0), ("b", (), 1.0), ("g", ("g",), 1.0)],
        [("a", "a", 0.5), ("a", "b", 0.5 - 1e-13), ("b", "b", 1.0), ("g", "g", 1.0)],
        initial="a",
        goal=("g",),
    )
    assert np.cumsum(M.P[0])[-1] < 1.0 - 5e-14
    monkeypatch.setattr(np.random, "default_rng", _TopDraws)
    res = simulate_paths(M, 5, 10.0, 0)
    # every path jumps to the absorbing "b" and stops there
    assert res.hits == 0
    assert res == simulate_paths_oracle(M, 5, 10.0, 0)


class _ZeroDraws(_TopDraws):
    """As ``_TopDraws``, but every uniform draw is 0.0."""

    def random(self, size):
        return np.zeros(size)


def test_a_zero_draw_stays_in_the_row(monkeypatch):
    # the goal is state 0, which "a" cannot reach
    M = make_ctmc(
        [("g", ("g",), 1.0), ("a", (), 1.0), ("b", (), 1.0)],
        [("g", "g", 1.0), ("a", "b", 1.0), ("b", "b", 1.0)],
        initial="a",
        goal=("g",),
    )
    assert M.goal_state() == 0
    monkeypatch.setattr(np.random, "default_rng", _ZeroDraws)
    res = simulate_paths(M, 3, 10.0, 0)
    assert res.hits == 0
