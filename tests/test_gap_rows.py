"""The Erlang-gap table of a whole grid against the one-time gap it replaced.

``erlang._gap_rows(c, ts, n_max)`` yields ``erlang_diff_prefix(c, t,
n_max)`` for every t of a grid from one table of Poisson pmf exponents,
cut at the first doubled width past which every term is exactly 0.0.  The
oracle below is the one-time gap as it was before the table, two Poisson
CDFs over the whole series length, copied verbatim; every row must give
its bytes.  A memory gate checks that no table of all rows at full length
is built, and no block budget changes a bit of a row or a curve.
"""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import graph, time_grid
from ctmcbisim.erlang import _erlang_N_curve, _gap_rows, erlang_N, gap_curve, markov_curve
from ctmcbisim.transient import _poisson_pmf

from helpers import random_uniform_chain

# ---------------------------------------------------------------- oracle


def _poisson_cdf_prefix(mu: float, kmax: int) -> np.ndarray:
    """``out[k] = Pr(Poisson(mu) <= k)`` for k = 0..kmax."""
    if kmax < 0:
        return np.empty(0)
    if mu == 0.0:
        return np.ones(kmax + 1)
    return np.minimum(np.cumsum(_poisson_pmf(mu, kmax)), 1.0)


def erlang_diff_prefix(c: float, t: float, n_max: int) -> np.ndarray:
    """``out[n] = erlang_diff(n, c, t)`` for n = 0..n_max (vectorized).

    ``t = inf``, the infinite horizon of the bound curves, gives NaN past
    ``out[0]`` unless ``c == 1``; the spectral routes clamp it to 1."""
    if not 1.0 <= c < math.inf:
        raise ValueError(f"c (the acceleration factor) must be a finite number >= 1, got {c!r}")
    if not t >= 0.0:
        raise ValueError(f"t must be a number >= 0, got {t!r}")
    out = np.zeros(n_max + 1)
    if t == 0.0 or c == 1.0 or n_max == 0:
        return out
    cdf_slow = _poisson_cdf_prefix(t, n_max - 1)
    cdf_fast = _poisson_cdf_prefix(c * t, n_max - 1)
    out[1:] = np.maximum(0.0, cdf_slow - cdf_fast)
    return out


# ---------------------------------------------------------------- byte equality


def _same_rows(c, ts, n_max):
    with np.errstate(invalid="ignore"):
        rows = list(_gap_rows(c, ts, n_max))
        want = [erlang_diff_prefix(c, t, n_max) for t in ts]
    assert len(rows) == len(ts)
    for t, got, row in zip(ts, rows, want):
        assert got.tobytes() == row.tobytes(), f"c={c!r}, t={t!r}, n_max={n_max}"


FACTORS = [1.0, math.exp(0.01), math.exp(0.1), math.exp(0.5), math.exp(5.0)]
times = st.one_of(st.sampled_from([0.0, 1e-300, 1e-9, 2000.0, math.inf]), st.floats(0.5, 1e4))


@settings(max_examples=60, deadline=None)
@given(
    c=st.sampled_from(FACTORS),
    ts=st.lists(times, min_size=1, max_size=6),
    n_max=st.one_of(st.sampled_from([0, 1, 255, 256, 257]), st.integers(0, 5000)),
)
def test_every_row_has_the_bytes_of_the_one_time_gap(c, ts, n_max):
    _same_rows(c, ts, n_max)


def test_an_exponent_of_minus_800_is_exactly_zero():
    assert np.exp(-800.0) == 0.0


@pytest.mark.parametrize("c", FACTORS[1:])
def test_a_long_horizon_is_cut_past_its_mode(c):
    # Poisson(2000) has exponents <= -800 from column 0 to 255 already: a
    # cut that does not wait for the mode would fill the row with ~0
    _same_rows(c, [2000.0], 5000)
    _same_rows(c, [0.5, 2000.0], 5000)


@pytest.mark.parametrize("c, t", zip(FACTORS[1:], [7.5, 7.5, 3.3, 2.0]))
def test_the_tail_repeats_the_last_gap(c, t):
    # the two CDFs settle on different roundings of 1, so the gap past the
    # cut is that last difference, not 0
    row = erlang_diff_prefix(c, t, 5000)
    assert row[-1] != 0.0
    _same_rows(c, [t], 5000)


def test_a_grid_of_long_rows_is_built_in_blocks():
    # the cut width is 16384 here, so the table is built a few rows at a time
    ts = [float(t) for t in np.linspace(0.0, 1e4, 41)]
    _same_rows(math.exp(0.1), ts, 40000)


@pytest.mark.parametrize(
    "ts", [[float(t) for t in np.linspace(0.0, 2e4, 41)], [1e5, 10.0, 5e4, 0.0, 3.0]], ids=["ascending", "mixed"]
)
def test_the_erlang_N_grid_reads_each_length_from_the_one_time_gap(ts):
    # long and short chains alike: the long ones get tables of their own
    delta = 0.1
    want = [0.0 if t == 0.0 else erlang_diff_prefix(math.exp(delta), t, erlang_N(t, delta))[-1] for t in ts]
    assert _erlang_N_curve(ts, delta).tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------- block budget


@settings(max_examples=30, deadline=None)
@given(
    delta=st.sampled_from([0.01, 0.1, 0.5]),
    ts=st.lists(st.one_of(st.sampled_from([0.0, 1e-9]), st.floats(0.5, 300.0)), min_size=1, max_size=8),
    n_max=st.integers(1, 3000),
    seed=st.integers(0, 1_000),
)
def test_no_block_budget_changes_a_bit(delta, ts, n_max, seed):
    # a budget of 1 or 3 cells puts each row of a table, and each time of
    # the Erlang-N grid, in a block of its own
    c, M = math.exp(delta), random_uniform_chain(np.random.default_rng(seed))
    calls = {
        "_gap_rows": lambda: np.array(list(_gap_rows(c, ts, n_max))),
        "gap_curve": lambda: gap_curve(c, 1.5, ts, [(0.5, np.full(n_max, 1.0 / n_max))], 0.25),
        "_erlang_N_curve": lambda: _erlang_N_curve(ts, delta),
        "markov_curve": lambda: markov_curve(M, delta, ts),
    }
    for name, call in calls.items():
        got = []
        for cells in (1, 3, 1 << 16):
            with mock.patch.object(graph, "BLOCK_CELLS", cells):
                got.append(call().tobytes())
        assert got[0] == got[1] == got[2] == call().tobytes(), name


# ---------------------------------------------------------------- memory


def test_a_full_length_weight_vector_builds_no_table_of_all_rows():
    n = 1 << 22
    w = np.full(n, 1.0 / n)
    grid = time_grid(30.0, 4)
    tracemalloc.start()
    try:
        gap_curve(math.exp(0.1), 1.0, grid, [(1.0, w)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * n
