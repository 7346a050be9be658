"""The class-mass filter of the relation fixpoint, against the flow check alone.

``_sweeps_oracle`` is the fixpoint loop without the filter, verbatim: every
candidate pair goes to the exact flow kernel.  With the filter each sweep
must check and drop the same pairs, in the same order, and end in the same
relation; every pair the filter rejects must fail its flow in both
orientations; and a pair whose class-mass bound equals the threshold
exactly must reach the kernel and be kept.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import bisim, direct_sum, epsilon_delta_bisim, graph
from ctmcbisim.bisim import FLOW_ETA, _max_flow, _row, _threshold
from ctmcbisim.model import Ctmc

from helpers import random_bisimilar_pair, random_labeled_chain, random_rewarded_chain, random_uniform_chain
from test_flow_kernel import replicated_blocks

# --------------------------------------------------------------------------
# oracle: the fixpoint loop before the filter, verbatim
# --------------------------------------------------------------------------


def _as_matrix(related: list[set[int]]) -> np.ndarray:
    """The boolean matrix of per-state related sets."""
    out = np.zeros((len(related), len(related)), dtype=bool)
    for s, ts in enumerate(related):
        out[s, list(ts)] = True
    return out


def _as_sets(related: np.ndarray) -> list[set[int]]:
    """The per-state related sets of a boolean matrix."""
    return [set(np.flatnonzero(row).tolist()) for row in related]


def _sweeps_oracle(M: Ctmc, related: list[set[int]], eps: float, eta: float):
    """Shrink ``related`` (per-state related sets) in place to the greatest
    fixpoint, one sweep at a time, and yield each sweep's checked and
    dropped pairs ``s < t``.

    A sweep checks its pairs against the relation as of its start and
    then drops the ones failing in either orientation.  The first sweep
    checks every pair; a later one only the pairs ``(s, t)`` with a pair
    ``(a, b)`` dropped by the sweep before, ``a`` a successor of ``s`` and
    ``b`` one of ``t``: no other pair's network has changed.
    """
    rows = [_row(M, s) for s in range(M.n)]
    threshold = _threshold(eps, eta)
    indptr, indices = M.pred
    pred = [indices[indptr[v] : indptr[v + 1]].tolist() for v in range(M.n)]

    def passes(start: np.ndarray, s: int, t: int) -> bool:
        f = _max_flow(rows[s], rows[t], start, threshold, stop=True)
        return f.value >= f.target

    todo = [(s, t) for s in range(M.n) for t in sorted(related[s]) if s < t]
    while todo:
        start = _as_matrix(related)  # the relation as of the sweep's start
        drop = [(s, t) for s, t in todo if not (passes(start, s, t) and passes(start, t, s))]
        for s, t in drop:
            related[s].discard(t)
            related[t].discard(s)
        yield todo, drop
        # hit[a]: the states with a successor b such that (a, b) was dropped
        hit: dict[int, set[int]] = {}
        for a, b in drop:
            hit.setdefault(a, set()).update(pred[b])
        todo = sorted(
            {(min(s, t), max(s, t)) for a, ts in hit.items() for s in pred[a] for t in ts & related[s] if s != t}
        )


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def _assert_same_fixpoint(M: Ctmc, eps: float, delta: float, eta: float = FLOW_ETA) -> tuple[int, int]:
    """Run the fixpoint with and without the filter and compare them sweep
    by sweep; check that every pair the filter rejects fails its flow in
    both orientations.  Returns (pairs rejected, pairs dropped)."""
    related = bisim._initial_related(M, delta)
    expected = _as_sets(related)
    want = list(_sweeps_oracle(M, expected, eps, eta))
    rows = [_row(M, s) for s in range(M.n)]
    threshold = _threshold(eps, eta)
    cut = bisim._mass_cutoff(threshold, M.n)
    got = []
    rejected = 0
    sweeps = bisim._sweeps(M, related, eps, eta)
    while True:
        start = related.copy()  # the relation the sweep checks against
        try:
            checked_rows, dropped_rows = next(sweeps)
        except StopIteration:
            break
        checked = [tuple(p) for p in checked_rows.tolist()]
        dropped = [tuple(p) for p in dropped_rows.tolist()]
        got.append((checked, dropped))
        rejects = bisim._mass_rejects(bisim._edges(M), start, checked_rows, cut)
        for (s, t), out in zip(checked, rejects.tolist()):
            if out:
                rejected += 1
                assert (s, t) in dropped
                for a, b in ((s, t), (t, s)):
                    f = _max_flow(rows[a], rows[b], start, threshold)
                    assert f.value < f.target, (a, b)
    assert got == want
    assert np.array_equal(related, _as_matrix(expected))
    return rejected, sum(len(d) for _, d in want)


def _floats_summing_to(x: Fraction) -> list[float]:
    """Positive floats whose exact sum is ``x`` (greedy: each part is the
    largest float not above what is left)."""
    parts = []
    while x > 0:
        f = float(x)
        if Fraction(f) > x:
            f = math.nextafter(f, 0.0)
        parts.append(f)
        x -= Fraction(f)
    return parts


def _threshold_chain(eps: float, eta: float, below: Fraction = Fraction(0)) -> Ctmc:
    """Two states s, t (0 and 1) whose class-mass bound is exactly the flow
    threshold ``1 - eps - eta`` less ``below``.

    s jumps to a1 with probability 1; t puts the threshold's mass (less
    ``below``) on absorbing copies a1, a2, ... of one label and the rest on
    absorbing copies c1, c2, ... of another, each probability one float and
    every row summing to 1 exactly.  The a-states are related to each
    other, so the flow from s to t moves exactly the class-mass bound.
    """
    inside = _floats_summing_to(1 - Fraction(eps) - Fraction(eta) - below)
    outside = _floats_summing_to(Fraction(eps) + Fraction(eta) + below)
    a = list(range(2, 2 + len(inside)))
    c = list(range(2 + len(a), 2 + len(a) + len(outside)))
    n = 2 + len(a) + len(c)
    P = np.zeros((n, n))
    P[0, a[0]] = 1.0
    P[1, a] = inside
    P[1, c] = outside
    for v in a + c:
        P[v, v] = 1.0
    labels = (("x",), ("x",)) + (("y",),) * len(a) + (("z",),) * len(c)
    return Ctmc(ids=tuple(f"v{i}" for i in range(n)), labels=labels, P=P, E=np.ones(n), initial=0)


def _ladder_chain(levels: int) -> Ctmc:
    """Two paths s_0 -> ... -> s_L and t_0 -> ... -> t_L of one label that
    end in absorbing states of two other labels: (s_L, t_L) fails in the
    first sweep, (s_k, t_k) only in sweep L - k + 1, once its successors
    have been separated."""
    n = 2 * (levels + 1) + 2
    P = np.zeros((n, n))
    for k in range(levels):
        P[k, k + 1] = 1.0
        P[levels + 1 + k, levels + 2 + k] = 1.0
    P[levels, n - 2] = P[2 * levels + 1, n - 1] = P[n - 2, n - 2] = P[n - 1, n - 1] = 1.0
    labels = (("x",),) * (n - 2) + (("p",), ("q",))
    return Ctmc(ids=tuple(f"v{i}" for i in range(n)), labels=labels, P=P, E=np.ones(n), initial=0)


EPS = st.sampled_from((0.0, 0.05, 0.1, 0.25))
DELTA = st.sampled_from((0.0, 0.1, 0.25))


# --------------------------------------------------------------------------
# equal sweeps on generated chains
# --------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 9), eps=EPS, delta=DELTA)
def test_labeled_chains_sweep_like_the_oracle(seed, n, eps, delta):
    _assert_same_fixpoint(random_labeled_chain(np.random.default_rng(seed), n), eps, delta)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), eps=EPS, delta=DELTA)
def test_bisimilar_pairs_sweep_like_the_oracle(seed, eps, delta):
    M, N = random_bisimilar_pair(np.random.default_rng(seed), eps, delta)
    _assert_same_fixpoint(direct_sum(M, N), eps, delta)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), eps=EPS)
def test_uniform_chains_sweep_like_the_oracle(seed, eps):
    _assert_same_fixpoint(random_uniform_chain(np.random.default_rng(seed), n_max=8), eps, 0.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), eps=EPS, delta=DELTA)
def test_rewarded_chains_sweep_like_the_oracle(seed, eps, delta):
    _assert_same_fixpoint(random_rewarded_chain(np.random.default_rng(seed)), eps, delta)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("eps", [0.0, 0.05, 0.1, 0.25])
def test_replicated_block_chains_sweep_like_the_oracle(seed, eps):
    M = replicated_blocks(np.random.default_rng(seed), 8, 4, 0.1, 0.1)
    rejected, dropped = _assert_same_fixpoint(M, eps, 0.1)
    # the filter is not idle: it takes most of the drops from the kernel
    assert rejected >= 0.8 * dropped


def test_small_chunks_sweep_like_the_oracle(monkeypatch):
    monkeypatch.setattr(graph, "BLOCK_CELLS", 3)
    for seed in range(2):
        M = replicated_blocks(np.random.default_rng(seed), 6, 3, 0.1, 0.1)
        for eps in (0.0, 0.1):
            rejected, _ = _assert_same_fixpoint(M, eps, 0.1)
            assert rejected > 0


@pytest.mark.parametrize("levels", [1, 2, 4])
def test_drops_that_wait_for_a_successor_sweep_like_the_oracle(levels):
    # a filter that bounded by the classes at the end of a sweep would drop
    # (s_k, t_k) one sweep early
    M = _ladder_chain(levels)
    for eps in (0.0, 0.25):
        _assert_same_fixpoint(M, eps, 0.0)
    sweeps = list(bisim._sweeps(M, bisim._initial_related(M, 0.0), 0.0, FLOW_ETA))
    t0 = levels + 1
    assert [[tuple(p) for p in d.tolist() if p[1] - p[0] == t0] for _, d in sweeps] == [
        [(k, t0 + k)] for k in range(levels, -1, -1)
    ]


# --------------------------------------------------------------------------
# the threshold itself
# --------------------------------------------------------------------------


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.1, 0.25])
@pytest.mark.parametrize("eta, at", [(0.0, 0.0), (FLOW_ETA, FLOW_ETA), (FLOW_ETA, 0.0)])
def test_a_bound_at_the_threshold_reaches_the_kernel(eps, eta, at):
    # the class-mass bound of (s, t) is exactly 1 - eps - at: the threshold
    # when at == eta, and eta above it when at == 0
    M = _threshold_chain(eps, at)
    related = bisim._initial_related(M, 0.0)
    threshold = _threshold(eps, eta)
    inside = [v for v in range(2, M.n) if M.labels[v] == ("y",)]
    bound = min(Fraction(1), sum(map(Fraction, M.P[1, inside].tolist())))
    assert bound == 1 - Fraction(eps) - Fraction(at)
    # the flow moves the whole bound and passes
    f = _max_flow(_row(M, 0), _row(M, 1), related, threshold)
    assert Fraction(f.value, 1 << f.exp) == bound
    assert f.value >= f.target
    assert (f.value == f.target) == (at == eta)
    cut = bisim._mass_cutoff(threshold, M.n)
    assert not bisim._mass_rejects(bisim._edges(M), related, np.array([[0, 1]]), cut)[0]
    _assert_same_fixpoint(M, eps, 0.0, eta)
    assert (0, 1) in epsilon_delta_bisim(M, eps, 0.0, eta)


@pytest.mark.parametrize("eps", [0.0, 0.1, 0.25])
@pytest.mark.parametrize("eta", [0.0, FLOW_ETA])
@pytest.mark.parametrize("below", [Fraction(1, 1 << 70), Fraction(1, 1 << 52)])
def test_a_bound_just_below_the_threshold_is_dropped(eps, eta, below):
    M = _threshold_chain(eps, eta, below)
    _assert_same_fixpoint(M, eps, 0.0, eta)
    assert (0, 1) not in epsilon_delta_bisim(M, eps, 0.0, eta)


def test_cutoff_is_the_threshold_less_the_derived_margin():
    u = Fraction(1, 1 << 53)
    for eps, eta, n in [(0.0, 0.0, 1), (0.1, FLOW_ETA, 301), (0.25, 0.0, 3001), (0.05, FLOW_ETA, 10**6)]:
        thr, exp = _threshold(eps, eta)
        gamma = 2 * n * u / (1 - 2 * n * u)
        exact = Fraction(thr, 1 << exp) * (1 - gamma)
        cut = bisim._mass_cutoff((thr, exp), n)
        # the largest float at or below thr * (1 - gamma_2n)
        assert Fraction(cut) <= exact < Fraction(math.nextafter(cut, math.inf))
    # no threshold above zero: nothing to reject
    assert bisim._mass_cutoff(_threshold(1.0, FLOW_ETA), 10) == 0.0
    assert bisim._mass_cutoff(_threshold(1.0, 0.0), 10) == 0.0
