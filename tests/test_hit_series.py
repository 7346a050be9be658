"""One hit-step series per curve: ``hit_exact_steps`` with a ``tol``.

``exact_diff_curve`` used to call ``hit_exact_steps(Mn, K)`` afresh at
each length K of ``_lengths(64, MAX_TERMS)``, every call running the
series from step 0 and solving ``reach_prob`` again.  Now one call with
the stopping rule extends a single series from length to length and
solves once.  The functions below are that restart loop and the earlier
``hit_exact_steps``, copied as they were; on the ``helpers`` chains and on
slow loops the library must give their bytes, their ``reach`` and
``tail_mass``, and their ``TruncationLimit`` under a small ``MAX_TERMS``.
"""

from __future__ import annotations

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import erlang, fixtures, save_model, transient
from ctmcbisim.cli import main
from ctmcbisim.erlang import _prepare, gap_curve
from ctmcbisim.errors import TruncationLimit
from ctmcbisim.model import _normal_form
from ctmcbisim.transient import HitStepDistribution, _check_tol, _lengths, hit_exact_steps

from helpers import random_dag_chain, random_labeled_chain, random_rewarded_chain, random_uniform_chain

# ---------------------------------------------------------------- oracles


def hit_exact_steps_restarting(M, K):
    """p_n = (P^n - P^{n-1})[init, g] for n = 1..K on the chain as given (g absorbing)."""
    g = M.goal_state()
    x = np.array([v[g] for v in itertools.islice(transient._powers(M.P, M.initial), K + 1)])
    return HitStepDistribution(probs=np.maximum(np.diff(x), 0.0), reach=transient.reach_prob(M))


def stopping_restarting(M, K, tol):
    """The restart loop's hit-step distribution: the first length of
    ``_lengths(64, K)`` whose tail is below ``tol``, else K."""
    for L in _lengths(64, K):
        hits = hit_exact_steps_restarting(M, L)
        if hits.tail_mass < tol:
            break
    return hits


def exact_diff_curve_restarting(M, delta, t_grid, tol=1e-9):
    c, Mn, r = _prepare(M, delta)
    _check_tol(tol)
    ts = [float(t) for t in t_grid]
    if delta == 0.0 or not any(ts):
        return np.zeros(len(ts))
    for K in _lengths(64, erlang.MAX_TERMS):
        hits = hit_exact_steps_restarting(Mn, K)
        if hits.tail_mass < tol:
            return gap_curve(c, r, ts, [(1.0, hits.probs)])
    raise TruncationLimit(
        f"hit mass {hits.tail_mass:g} is still >= tol={tol!r} after {K} steps (MAX_TERMS={erlang.MAX_TERMS})"
    )


# ---------------------------------------------------------------- chains

FAMILIES = {
    "uniform": random_uniform_chain,
    "dag": random_dag_chain,
    "labeled": random_labeled_chain,
    "rewarded": random_rewarded_chain,
}
LOOPS = (0.5, 0.9, 0.99, 0.999)
TOLS = (1e-3, 1e-9, 1e-14)
GRID = [0.0, 0.5, 3.0, 40.0]


@st.composite
def chains(draw):
    """A ``helpers`` chain or a slow two-state loop, whose series needs up
    to about 3e4 steps at tol 1e-9."""
    if draw(st.booleans()):
        return fixtures.two_state_loop(draw(st.sampled_from(LOOPS)))
    family = draw(st.sampled_from(sorted(FAMILIES)))
    return FAMILIES[family](np.random.default_rng(draw(st.integers(0, 10_000))))


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return out.dtype, out.tobytes()


def _same_hits(got, want):
    assert got.probs.dtype == want.probs.dtype and got.probs.tobytes() == want.probs.tobytes()
    assert got.reach == want.reach
    assert got.tail_mass == want.tail_mass


# ---------------------------------------------------------------- equal bits


@settings(max_examples=60, deadline=None)
@given(M=chains(), K=st.sampled_from((0, 1, 63, 64, 65, 100, 1000, 5000)), tol=st.sampled_from(TOLS))
def test_one_series_gives_the_restart_loops_bits(M, K, tol):
    Mn = _normal_form(M)
    _same_hits(hit_exact_steps(Mn, K, tol), stopping_restarting(Mn, K, tol))
    _same_hits(hit_exact_steps(Mn, K), hit_exact_steps_restarting(Mn, K))


@settings(max_examples=40, deadline=None)
@given(M=chains(), delta=st.sampled_from((0.0, 0.1, 0.7)), tol=st.sampled_from(TOLS))
def test_exact_curve_has_the_restart_loops_bytes(M, delta, tol):
    # a loop's tail may stay above 1e-14 in double precision: cap the
    # series at 2^16 rather than 2^22 steps, so it raises sooner
    with mock.patch.object(erlang, "MAX_TERMS", 1 << 16):
        assert _outcome(erlang.exact_diff_curve, M, delta, GRID, tol) == _outcome(
            exact_diff_curve_restarting, M, delta, GRID, tol
        )


@settings(max_examples=30, deadline=None)
@given(M=chains(), cap=st.sampled_from((1, 64, 100, 1000)))
def test_a_small_cap_raises_the_restart_loops_error(M, cap):
    with mock.patch.object(erlang, "MAX_TERMS", cap):
        assert _outcome(erlang.exact_diff_curve, M, 0.1, GRID) == _outcome(exact_diff_curve_restarting, M, 0.1, GRID)


def test_the_cap_error_names_the_cap(monkeypatch):
    monkeypatch.setattr(erlang, "MAX_TERMS", 1000)
    with pytest.raises(TruncationLimit, match=r"is still >= tol=1e-09 after 1000 steps \(MAX_TERMS=1000\)$"):
        erlang.exact_diff_curve(fixtures.two_state_loop(0.999), 0.1, GRID)


@pytest.mark.parametrize("L", [64, 128, 256])
def test_a_tail_equal_to_tol_goes_on_to_the_next_length(L):
    # the rule is tail_mass < tol: a tail that equals tol is not enough
    M = _normal_form(fixtures.two_state_loop(0.9))
    tol = hit_exact_steps_restarting(M, L).tail_mass
    assert 0.0 < tol < 1.0
    hits = hit_exact_steps(M, 1 << 12, tol)
    assert len(hits.probs) == 2 * L
    _same_hits(hits, stopping_restarting(M, 1 << 12, tol))


# ---------------------------------------------------------------- work counts


def _counting(monkeypatch):
    """Log ``"v"`` for each vector ``transient._powers`` hands out and
    ``"reach"`` for each ``reach_prob`` call."""
    events = []
    powers, reach_prob = transient._powers, transient.reach_prob

    def counted_powers(P, start):
        for v in powers(P, start):
            events.append("v")
            yield v

    def counted_reach(M):
        events.append("reach")
        return reach_prob(M)

    monkeypatch.setattr(transient, "_powers", counted_powers)
    monkeypatch.setattr(transient, "reach_prob", counted_reach)
    return events


@pytest.mark.parametrize("p", LOOPS)
def test_one_series_and_one_solve(p, monkeypatch):
    M = _normal_form(fixtures.two_state_loop(p))
    K = len(stopping_restarting(M, transient.MAX_TERMS, 1e-9).probs)
    events = _counting(monkeypatch)
    hits = hit_exact_steps(M, transient.MAX_TERMS, 1e-9)
    assert len(hits.probs) == K
    # the solve comes after the first length's 65 vectors, as in the
    # restart loop's first call, and once
    assert events == ["v"] * 65 + ["reach"] + ["v"] * (K - 64)


@pytest.mark.parametrize("p", [0.5, 0.999])
def test_the_exact_column_runs_one_series(p, monkeypatch, tmp_path, capsys):
    M = fixtures.two_state_loop(p)
    K = len(stopping_restarting(_normal_form(M), transient.MAX_TERMS, 1e-9).probs)
    assert K == (64 if p == 0.5 else 32768)
    path = str(tmp_path / "loop.json")
    save_model(M, path)
    events = _counting(monkeypatch)
    rc = main(["bounds", "-m", path, "--delta", "0.1", "--tmax", "30", "--steps", "60",
               "--which", "exact,unif,erlangN,markov,spectral,combined"])
    capsys.readouterr()
    assert rc == 0
    # the loop's transient part has a cycle, so no other column takes a power
    assert events.count("v") <= K + 1
    assert events.count("reach") == 1


def test_the_tol_is_checked_before_the_series(monkeypatch):
    events = _counting(monkeypatch)
    for tol in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="^tol must be positive"):
            hit_exact_steps(_normal_form(fixtures.two_state_loop(0.5)), 64, tol)
    assert events == []
