"""The Erlang-weighted gap kernel against the per-time loops it replaced.

``erlang.gap_curve`` evaluates ``sum_n w_n * erlang_diff(n, c, r t) + tail``
for the exact series and the acyclic, diagonal and Jordan routes.  The
oracles below are those routes as they were before the kernel, each with its
own loop over t, kept verbatim; the routes must reproduce their bytes.  A
direct test pins the kernel's own summation order on more segments than any
route uses.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import exact_diff_curve, fixtures, make_ctmc, normalize_goal, prune_unreachable
from ctmcbisim import spectral
from ctmcbisim.erlang import _uniform_rate, erlang_diff_prefix, gap_curve, rate_factor
from ctmcbisim.errors import AcyclicChain, CtmcError, SpectralGapZero
from ctmcbisim.spectral import SpectralData, _absorbing_states, as_jordan, decompose, pn_jordan
from ctmcbisim.transient import MAX_TERMS, hit_exact_steps, reach_prob

from helpers import random_dag_chain, random_uniform_chain

# ---------------------------------------------------------------- oracles


def _exact_diff_curve_oracle(M, delta, t_grid, tol=1e-9):
    r = _uniform_rate(M)
    M.goal_state()
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    ts = [float(t) for t in t_grid]
    out = np.zeros(len(ts))
    if delta == 0.0 or not any(ts):
        return out
    c = math.exp(delta)
    total_reach = reach_prob(M)
    K = 64
    while True:
        hits = hit_exact_steps(M, K)
        remaining = total_reach - float(hits.probs.sum())
        if remaining < tol or K > MAX_TERMS:
            break
        K *= 2
    for i, t in enumerate(ts):
        if t != 0.0:
            out[i] = float(np.dot(hits.probs, erlang_diff_prefix(c, r * t, K)[1:]))
    return out


def _acyclic_values_oracle(Mn, rate, delta, t_grid):
    c = math.exp(delta)
    L = int(Mn.n - np.sum(_absorbing_states(Mn.P)))
    if L == 0:
        return np.zeros(len(t_grid))
    hs = hit_exact_steps(Mn, L)
    return np.array(
        [float(np.dot(hs.probs, erlang_diff_prefix(c, rate * float(t), L)[1:])) for t in t_grid]
    )


def _diag_bound_from_oracle(sd: SpectralData, rate, delta, t_grid, tol):
    n, a_p = sd.n, sd.a_p
    trans = n - a_p
    if trans == 0:
        return np.zeros(len(t_grid))
    lam = sd.lam
    if lam >= 1.0 - 1e-12:
        raise SpectralGapZero(f"second eigenvalue modulus {lam} leaves no decay margin")
    g = n - 1
    coefs = sd.S[0, a_p:] * sd.S_inv[a_p:, g] * (sd.eigenvalues[a_p:] - 1.0)
    C = float(np.max(np.abs(coefs)))
    c = math.exp(delta)

    K = 64
    while trans * C * lam**K / (1.0 - lam) >= tol and K < MAX_TERMS:
        K *= 2
    tail = trans * C * lam**K / (1.0 - lam)
    pows = lam ** np.arange(K)
    out = np.empty(len(t_grid))
    for i, t in enumerate(t_grid):
        diffs = erlang_diff_prefix(c, rate * float(t), K)
        out[i] = min(1.0, trans * C * float(pows @ diffs[1:]) + tail)
    return out


def _jordan_bound_from_oracle(sd: SpectralData, rate, delta, t_grid, tol):
    regular = [(mu, size) for mu, size in sd.blocks if mu != 0.0 and mu != 1.0]
    if not regular:
        raise AcyclicChain("every transient eigenvalue vanishes; the gap is a finite sum")
    lam = max(abs(mu) for mu, _ in regular)
    if lam >= 1.0 - 1e-12:
        raise SpectralGapZero(f"second eigenvalue modulus {lam} leaves no decay margin")
    r_reg = max(size for _, size in regular)
    R = max(size for _, size in sd.blocks)
    g = sd.n - 1

    C = 0.0
    off = 0
    for mu, size in sd.blocks:
        if mu != 0.0 and mu != 1.0:
            star = max(abs(mu), abs(1.0 - mu))
            for k in range(1, size + 1):
                for j in range(k, size + 1):
                    C += abs(sd.S[0, off + k - 1] * sd.S_inv[off + j - 1, g]) * star
        off += size

    # exact head through step R (covers the nilpotent blocks entirely),
    # eigenvalue envelope C * k^{r-1} lam^{k-r} beyond it
    head = np.array([max(0.0, pn_jordan(sd, k)) for k in range(1, R + 1)])
    log_lam = math.log(lam)

    def envelope(k: float) -> float:
        return math.exp((r_reg - 1) * math.log(k) + (k - r_reg) * log_lam)

    K = max(2 * R + 2, 256)
    while True:
        rho = lam * ((K + 2) / (K + 1)) ** (r_reg - 1)
        if rho < 1.0:
            tail = C * envelope(K + 1) / (1.0 - rho)
            if tail < tol or K >= MAX_TERMS:
                break
        K *= 2
    ks = np.arange(R + 1, K + 1, dtype=float)
    envs = np.exp((r_reg - 1) * np.log(ks) + (ks - r_reg) * log_lam)

    c = math.exp(delta)
    out = np.empty(len(t_grid))
    for i, t in enumerate(t_grid):
        diffs = erlang_diff_prefix(c, rate * float(t), K)
        value = float(head @ diffs[1 : R + 1]) + C * float(envs @ diffs[R + 1 :]) + tail
        out[i] = min(1.0, value)
    return out


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()


def _same_outcome(new, old):
    """Run both; equal bytes, or the same exception type and message."""
    try:
        want = old()
    except CtmcError as exc:
        with pytest.raises(type(exc)) as info:
            new()
        assert str(info.value) == str(exc)
        return
    _same_bytes(new(), want)


# ---------------------------------------------------------------- strategies

seeds = st.integers(0, 2**32 - 1)
deltas = st.sampled_from([0.0, 0.01, 0.1, 0.5])
tols = st.sampled_from([1e-9, 1e-6, 1e-12])
times = st.one_of(st.just(0.0), st.floats(0.0, 5.0), st.floats(0.0, 400.0))
# unsorted, with repeats and t = 0 drawn often
grids = st.lists(times, min_size=1, max_size=5).flatmap(lambda g: st.permutations(g + g[: len(g) // 2 + 1]))
# an infinite horizon turns every Erlang gap into NaN; only the clamp at 1
# of the diagonal and Jordan routes turns that back into a number
spectral_grids = st.one_of(grids, grids.map(lambda g: g + [math.inf]))


@st.composite
def jordan_pair_chains(draw):
    """An initial state fanning out into two-state Jordan cells
    (a -> a, b; b -> b) that share one loop weight per cell, then the goal."""
    pairs = draw(st.integers(1, 4))
    fan = draw(st.lists(st.integers(1, 4), min_size=pairs, max_size=pairs))
    loops = draw(st.lists(st.integers(1, 15), min_size=pairs, max_size=pairs))
    rate = draw(st.sampled_from([1.0, 2.0, 0.5]))
    states = [("s0", (), rate)]
    trans = []
    for k, (f, lam) in enumerate(zip(fan, loops)):
        a, b, p = f"a{k}", f"b{k}", lam / 16
        states += [(a, (), rate), (b, (), rate)]
        trans += [("s0", a, f / sum(fan)), (a, a, p), (a, b, (1 - p) / 2), (a, "g", (1 - p) / 2)]
        trans += [(b, b, p), (b, "g", 1 - p)]
    states.append(("g", ("g",), rate))
    trans.append(("g", "g", 1.0))
    return make_ctmc(states, trans, initial="s0", goal=("g",))


def _norm(M):
    return normalize_goal(prune_unreachable(M))


@st.composite
def chains(draw):
    kind = draw(st.sampled_from(["uniform", "dag", "jordan", "defective"]))
    if kind == "jordan":
        return _norm(draw(jordan_pair_chains()))
    if kind == "defective":
        return _norm(fixtures.defective_chain())
    rng = np.random.default_rng(draw(seeds))
    return _norm(random_dag_chain(rng) if kind == "dag" else random_uniform_chain(rng))


# ---------------------------------------------------------------- routes vs oracles


@settings(max_examples=80, deadline=None)
@given(Mn=chains(), delta=deltas, grid=spectral_grids, tol=tols)
def test_exact_route_matches_per_time_loop(Mn, delta, grid, tol):
    with np.errstate(invalid="ignore"):
        _same_bytes(exact_diff_curve(Mn, delta, grid, tol), _exact_diff_curve_oracle(Mn, delta, grid, tol))


@settings(max_examples=80, deadline=None)
@given(Mn=chains(), delta=deltas, grid=spectral_grids)
def test_acyclic_route_matches_per_time_loop(Mn, delta, grid):
    rate = _uniform_rate(Mn)
    with np.errstate(invalid="ignore"):
        _same_bytes(
            spectral._acyclic_values(Mn, rate, rate_factor(delta), grid),
            _acyclic_values_oracle(Mn, rate, delta, grid),
        )


@settings(max_examples=80, deadline=None)
@given(Mn=chains(), delta=deltas, grid=spectral_grids, tol=tols)
def test_diag_and_jordan_routes_match_per_time_loops(Mn, delta, grid, tol):
    try:
        sd = decompose(Mn.P)
    except CtmcError:
        return
    rate, c = _uniform_rate(Mn), rate_factor(delta)
    with np.errstate(invalid="ignore"):
        if sd.kind == "diag":
            _same_outcome(
                lambda: spectral._diag_bound_from(sd, rate, c, grid, tol),
                lambda: _diag_bound_from_oracle(sd, rate, delta, grid, tol),
            )
        sdj = as_jordan(sd)
        _same_outcome(
            lambda: spectral._jordan_bound_from(sdj, rate, c, grid, tol),
            lambda: _jordan_bound_from_oracle(sdj, rate, delta, grid, tol),
        )


def test_infinite_horizon_clamps_to_one():
    Mn = _norm(fixtures.defective_chain())
    sd = decompose(Mn.P)
    with np.errstate(invalid="ignore"):
        got = spectral._jordan_bound_from(sd, 1.0, rate_factor(0.1), [math.inf, 1.0], 1e-9)
    assert got[0] == 1.0 and 0.0 < got[1] < 1.0


# ---------------------------------------------------------------- the kernel itself


def _gap_curve_reference(c, rate, t_grid, segments, tail):
    out = []
    for t in t_grid:
        n_max = sum(len(w) for _, w in segments)
        diffs = erlang_diff_prefix(c, rate * float(t), n_max)
        value, lo = 0.0, 1
        for scale, w in segments:
            value = value + scale * float(w @ diffs[lo : lo + len(w)])
            lo += len(w)
        out.append(value + tail)
    return np.array(out, dtype=float)


weights = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12).map(np.array)


@settings(max_examples=150, deadline=None)
@given(
    delta=deltas,
    rate=st.sampled_from([1.0, 2.0, 0.5]),
    grid=grids,
    segments=st.lists(st.tuples(st.floats(0.0, 1e3), weights), min_size=1, max_size=4),
    tail=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)
def test_gap_curve_sums_segments_left_to_right_then_the_tail(delta, rate, grid, segments, tail):
    c = rate_factor(delta)
    _same_bytes(gap_curve(c, rate, grid, segments, tail), _gap_curve_reference(c, rate, grid, segments, tail))


def test_gap_curve_order_shows_in_the_bits():
    # a sum that rounds differently when its segments are added right to
    # left, or when the tail comes first
    c, tail = rate_factor(0.5), 0.1
    segments = [(1.0, np.array([0.1])), (10.0, np.array([0.1, 0.3])), (3.0, np.array([0.1, 0.1, 0.2]))]
    got = gap_curve(c, 1.0, [3.0], segments, tail)
    _same_bytes(got, _gap_curve_reference(c, 1.0, [3.0], segments, tail))
    diffs = erlang_diff_prefix(c, 3.0, 6)
    p0, p1, p2 = (s * float(w @ diffs[lo:hi]) for (s, w), lo, hi in zip(segments, [1, 2, 4], [2, 4, 7]))
    assert got[0] == p0 + p1 + p2 + tail
    assert got[0] != p2 + p1 + p0 + tail
    assert got[0] != tail + p0 + p1 + p2
