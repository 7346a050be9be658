"""The pair deciders of the relation fixpoint, against the exact flow kernel.

``bisim._decide`` passes or fails a pair with no flow: by its least cut,
enumerated over the subsets of its successors, when both rows have at most
``ENUM_DEGREE`` successors, and else by its diagonal coupling, which only
passes.  Every pass must be a pass of the exact flow (``_max_flow`` with no
early stop) in both orientations, and every fail must fall short in one.
A value exactly at the threshold must stay undecided, and so reach the
kernel.  The fixpoint must sweep like ``_sweeps_oracle``, the loop that
sends every pair to the kernel, with the temporaries cut to single pairs
too.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctmcbisim import bisim, graph
from ctmcbisim.bisim import ENUM_DEGREE, FLOW_ETA, _max_flow, _row, _threshold
from ctmcbisim.model import Ctmc

from test_class_mass_filter import _assert_same_fixpoint, _floats_summing_to, _threshold_chain

# --------------------------------------------------------------------------
# chains
# --------------------------------------------------------------------------


def _drawn_chain(seed: int, n: int, dyadic: bool) -> Ctmc:
    """``n`` states of two labels at rate 1, each row with 1 to 5 successors
    (at most ``n``), some rows copies of an earlier one.  Dyadic rows are
    sixteenths summing to 1 exactly; the others are random floats divided by
    their sum."""
    rng = np.random.default_rng(seed)
    P = np.zeros((n, n))
    for s in range(n):
        if s and rng.random() < 0.3:
            P[s] = P[rng.integers(0, s)]
            continue
        d = int(rng.integers(1, min(5, n) + 1))
        succ = rng.choice(n, size=d, replace=False)
        if dyadic:
            cuts = np.sort(rng.choice(np.arange(1, 16), size=d - 1, replace=False))
            P[s, succ] = np.diff(np.concatenate(([0], cuts, [16]))) / 16
        else:
            w = rng.random(d) + 0.05
            P[s, succ] = w / w.sum()
    labels = tuple(("ab"[int(x)],) for x in rng.integers(0, 2, size=n))
    return Ctmc(ids=tuple(f"v{i}" for i in range(n)), labels=labels, P=P, E=np.ones(n), initial=0)


def _shared_mass_chain(v: Fraction, degree: int) -> Ctmc:
    """States s and t (0 and 1) of one label whose diagonal mass, least cut
    and flow in both orientations are all exactly ``v``.

    Both put the same floats, summing to ``v``, on absorbing states of the
    label ``y``; s puts the rest on states of the label ``z`` and t on
    states of the label ``w``, which relate to nothing they meet.  The
    largest shared part is halved (exactly) until each row has at least
    ``degree`` successors."""
    shared, rest = _floats_summing_to(v), _floats_summing_to(1 - v)
    while len(shared) + len(rest) < degree:
        shared.sort()
        shared[-1:] = [shared[-1] / 2] * 2
    a = list(range(2, 2 + len(shared)))
    c = list(range(2 + len(a), 2 + len(a) + len(rest)))
    d = list(range(2 + len(a) + len(c), 2 + len(a) + 2 * len(c)))
    n = 2 + len(a) + len(c) + len(d)
    P = np.zeros((n, n))
    P[0, a] = P[1, a] = shared
    P[0, c] = P[1, d] = rest
    for u in a + c + d:
        P[u, u] = 1.0
    labels = (("x",), ("x",)) + (("y",),) * len(a) + (("z",),) * len(c) + (("w",),) * len(d)
    return Ctmc(ids=tuple(f"v{i}" for i in range(n)), labels=labels, P=P, E=np.ones(n), initial=0)


def _random_relation(rng: np.random.Generator, n: int, reflexive: bool = True) -> np.ndarray:
    """A symmetric boolean matrix with about half its pairs, and with all of
    its diagonal when ``reflexive``."""
    m = rng.random((n, n)) < 0.5
    return m | m.T | np.eye(n, dtype=bool) if reflexive else m | m.T


def _exact_passes(M: Ctmc, related: np.ndarray, threshold: tuple[int, int], a: int, b: int) -> bool:
    f = _max_flow(_row(M, a), _row(M, b), related, threshold)
    return f.value >= f.target


def _assert_sound(M: Ctmc, related: np.ndarray, threshold: tuple[int, int]) -> tuple[int, int]:
    """Decide every pair ``s < t`` and check each decision against the exact
    flows; returns (passes, fails)."""
    pairs = np.argwhere(np.triu(np.ones((M.n, M.n), dtype=bool), 1))
    passes, fails = bisim._decide(M, related, bisim._tables(M, threshold), pairs)
    assert not (passes & fails).any()
    for (s, t), ok, bad in zip(pairs.tolist(), passes.tolist(), fails.tolist()):
        if ok:
            assert _exact_passes(M, related, threshold, s, t) and _exact_passes(M, related, threshold, t, s)
        if bad:
            assert not (_exact_passes(M, related, threshold, s, t) and _exact_passes(M, related, threshold, t, s))
    return int(passes.sum()), int(fails.sum())


EPS = st.sampled_from((0.0, 0.1, 0.125, 0.25, 0.3, 0.5))
ETA = st.sampled_from((0.0, FLOW_ETA))

# --------------------------------------------------------------------------
# every decision is the exact one
# --------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9), dyadic=st.booleans(), eps=EPS, eta=ETA)
def test_every_decision_matches_the_exact_flows(seed, n, dyadic, eps, eta):
    M = _drawn_chain(seed, n, dyadic)
    threshold = _threshold(eps, eta)
    _assert_sound(M, bisim._initial_related(M, 0.0), threshold)
    rng = np.random.default_rng(seed)
    _assert_sound(M, _random_relation(rng, n), threshold)
    # the cut enumeration reads a missing diagonal entry like any other, and the diagonal passes nothing
    _assert_sound(M, _random_relation(rng, n, reflexive=False), threshold)


def test_both_deciders_pass_and_enumeration_fails_on_drawn_chains():
    # the deciders are not idle: across fixed seeds each route decides pairs
    routes = {"enumerated": [0, 0], "diagonal": [0, 0]}
    for seed in range(40):
        M = _drawn_chain(seed, 9, bool(seed % 2))
        related = _random_relation(np.random.default_rng(seed), M.n)
        deg = np.diff(M.succ[0])
        pairs = np.argwhere(np.triu(np.ones((M.n, M.n), dtype=bool), 1))
        passes, fails = bisim._decide(M, related, bisim._tables(M, _threshold(0.25, FLOW_ETA)), pairs)
        low = (deg[pairs[:, 0]] <= ENUM_DEGREE) & (deg[pairs[:, 1]] <= ENUM_DEGREE)
        for route, where in (("enumerated", low), ("diagonal", ~low)):
            routes[route][0] += int(passes[where].sum())
            routes[route][1] += int(fails[where].sum())
    assert routes["enumerated"][0] > 0 and routes["enumerated"][1] > 0
    assert routes["diagonal"][0] > 0 and routes["diagonal"][1] == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9), dyadic=st.booleans(), eps=EPS, eta=ETA)
def test_drawn_chains_sweep_like_the_oracle(seed, n, dyadic, eps, eta):
    _assert_same_fixpoint(_drawn_chain(seed, n, dyadic), eps, 0.0, eta)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9), dyadic=st.booleans(), eps=EPS)
def test_single_pair_chunks_sweep_like_the_oracle(seed, n, dyadic, eps):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "BLOCK_CELLS", 3)
        _assert_same_fixpoint(_drawn_chain(seed, n, dyadic), eps, 0.0)


# --------------------------------------------------------------------------
# values at the threshold and a few ulps from it
# --------------------------------------------------------------------------

NEAR = [(0.1, 0.0), (0.25, FLOW_ETA), (0.05, FLOW_ETA), (0.5, 0.0)]


@pytest.mark.parametrize("eps, eta", NEAR)
@pytest.mark.parametrize("ulps", [-4, -3, -2, -1, 0, 1, 2, 3, 4, -(1 << 20), 1 << 20])
@pytest.mark.parametrize("degree", [2, ENUM_DEGREE + 2])
def test_a_value_near_the_threshold(eps, eta, ulps, degree):
    thr = 1 - Fraction(eps) - Fraction(eta)
    v = thr + ulps * Fraction(math.ulp(float(thr)))
    M = _shared_mass_chain(v, degree)
    threshold = _threshold(eps, eta)
    assert Fraction(threshold[0], 1 << threshold[1]) == thr
    related = bisim._initial_related(M, 0.0)
    deg = np.diff(M.succ[0])[:2].tolist()
    enumerated = max(deg) <= ENUM_DEGREE
    assert enumerated == (degree <= ENUM_DEGREE)
    # the diagonal mass and the exact flows in both orientations are all v
    assert sum(Fraction(min(p, q)) for p, q in zip(M.P[0].tolist(), M.P[1].tolist())) == v
    for a, b in ((0, 1), (1, 0)):
        f = _max_flow(_row(M, a), _row(M, b), related, threshold)
        assert Fraction(f.value, 1 << f.exp) == v
    (passed,), (failed,) = bisim._decide(M, related, bisim._tables(M, threshold), np.array([[0, 1]]))
    assert not passed or v >= thr
    assert not failed or v < thr
    if abs(ulps) <= 4:  # inside the rounding margin: left to the kernel
        assert not passed and not failed
    else:  # far outside it: decided, except that the diagonal never fails
        assert passed == (v > thr) and failed == (v < thr and enumerated)
    _assert_same_fixpoint(M, eps, 0.0, eta)


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.1, 0.25])
@pytest.mark.parametrize("eta", [0.0, FLOW_ETA])
def test_the_class_mass_threshold_chains_still_reach_the_kernel(eps, eta):
    # their pair (0, 1) carries exactly the threshold in both orientations
    M = _threshold_chain(eps, eta)
    solved = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bisim, "_max_flow", lambda *args, **kw: solved.append(1) or _max_flow(*args, **kw))
        R = bisim.epsilon_delta_bisim(M, eps, 0.0, eta)
    assert solved and (0, 1) in R


# --------------------------------------------------------------------------
# the cutoffs
# --------------------------------------------------------------------------


@pytest.mark.parametrize("eps, eta", [(0.0, 0.0), (0.1, FLOW_ETA), (0.25, 0.0), (0.05, FLOW_ETA), (0.999, 0.0)])
@pytest.mark.parametrize("m", [2 * ENUM_DEGREE, 1, 301, 3001, 10**6])
def test_cutoffs_are_the_threshold_and_the_derived_margin(eps, eta, m):
    _assert_cutoffs(eps, eta, m)


@settings(max_examples=400, deadline=None)
@given(
    eps=st.floats(0.0, 1.0),
    eta=st.one_of(st.just(0.0), st.just(FLOW_ETA), st.floats(0.0, 1.0)),
    m=st.integers(1, 10**6),
)
def test_cutoffs_on_drawn_thresholds(eps, eta, m):
    assume(_threshold(eps, eta)[0] > 0)  # the cutoffs of a threshold at or below 0 are checked below
    _assert_cutoffs(eps, eta, m)


def _assert_cutoffs(eps, eta, m):
    """The cutoffs of ``1 - eps - eta`` at gamma_m, against their exact
    values in ``Fraction`` arithmetic."""
    u = Fraction(1, 1 << 53)
    thr, exp = _threshold(eps, eta)
    gamma = m * u / (1 - m * u)
    low, high = Fraction(thr, 1 << exp) * (1 - gamma), Fraction(thr, 1 << exp) * (1 + gamma)
    below, above = bisim._cutoff((thr, exp), m), bisim._cutoff((thr, exp), m, above=True)
    # the largest float at or below thr (1 - gamma_m), the smallest at or above thr (1 + gamma_m)
    assert Fraction(below) <= low < Fraction(math.nextafter(below, math.inf))
    assert Fraction(math.nextafter(above, -math.inf)) < high <= Fraction(above)
    # the class-mass cutoff is the lower cutoff at gamma_2n
    assert bisim._mass_cutoff((thr, exp), m) == bisim._cutoff((thr, exp), 2 * m)


def test_no_threshold_above_zero_passes_everything_and_fails_nothing():
    for threshold in (_threshold(1.0, FLOW_ETA), _threshold(1.0, 0.0), _threshold(2.0, 0.0)):
        assert bisim._cutoff(threshold, 8) == bisim._cutoff(threshold, 8, above=True) == 0.0
