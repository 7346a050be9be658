"""``uniformize_pair`` against the code it replaced.

The oracle below is the previous version, kept verbatim apart from an
``_oracle`` suffix on its names: it rebuilds the relation from its
off-diagonal pairs, walks the frozenset blocks of ``R0.classes()`` to set
each class's rate, and checks the slow <= original <= fast order one grid
time at a time.  The library must give chains with the same bytes, equal
rates and relation, the same error, and the same
``OrderingAssumptionViolated`` warning (whether it fires, at which time
and with which message).
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import PairRelation, direct_sum, epsilon_delta_bisim, fixtures, make_ctmc, scale, uniformize_pair
from ctmcbisim.bisim import is_bisimulation
from ctmcbisim.erlang import rate_factor
from ctmcbisim.errors import CtmcError, NotTransitive, NotZeroDeltaBisim, OrderingAssumptionViolated
from ctmcbisim.model import Ctmc, normalize_goal, prune_unreachable, uniformize
from ctmcbisim.pairuniform import ORDERING_GRID, ORDERING_TOL, PairUniformResult
from ctmcbisim.transient import timed_reach_curve

from helpers import random_bisimilar_pair, random_labeled_chain, random_uniform_chain

# --------------------------------------------------------------------------
# oracle: the previous code, verbatim
# --------------------------------------------------------------------------


def _reach_curve_oracle(M: Ctmc, ts) -> np.ndarray | None:
    """Goal-reaching probabilities on a small grid, or None when the chain
    has no usable goal marking."""
    try:
        return timed_reach_curve(normalize_goal(prune_unreachable(M)), ts)
    except (CtmcError, ValueError):
        return None


def uniformize_pair_oracle(M: Ctmc, N: Ctmc, R: PairRelation, delta: float) -> PairUniformResult:
    ed = rate_factor(delta)
    nm, nn = M.n, N.n
    if R.n != nm + nn:
        raise ValueError(f"relation covers {R.n} states, the pair has {nm + nn}")
    if not R.is_transitive():
        raise NotTransitive("class-wise rate surgery needs a transitive relation")

    D = direct_sum(M, N)
    R0 = PairRelation.from_off_diagonal(R.off_diagonal(), R.n, 0.0, delta)
    check = is_bisimulation(D, R0)
    if not check:
        raise NotZeroDeltaBisim(
            f"pair {check.pair} fails the {check.condition} condition: {check.detail}"
        )

    E_m = np.array(M.E, dtype=float)
    E_n = np.array(N.E, dtype=float)
    for block in R0.classes().blocks:
        m_side = [i for i in block if i < nm]
        n_side = [i - nm for i in block if i >= nm]
        if m_side:
            e_min = min(float(M.E[i]) for i in m_side)
        else:
            # Class living entirely in N: leave those rates in place (up to
            # the slow-down to the class minimum on N's own side).
            e_min = min(float(N.E[j]) for j in n_side) / ed
        for i in m_side:
            E_m[i] = e_min
        for j in n_side:
            E_n[j] = e_min * ed

    # One shared base rate so the ratio of the two uniformization rates is
    # e^delta by construction, not by cancellation.
    q_m = max(float(E_m.max()), float(E_n.max()) / ed)
    q_n = q_m * ed

    Mu = uniformize(replace(M, E=E_m), q_m)
    Nu = uniformize(replace(N, E=E_n), q_n)

    recheck = is_bisimulation(direct_sum(Mu, Nu), R0)
    if not recheck:
        raise NotZeroDeltaBisim(
            f"relation broke during uniformization at pair {recheck.pair}"
            f" ({recheck.condition}: {recheck.detail})"
        )

    curves = [_reach_curve_oracle(X, ORDERING_GRID) for X in (Mu, M, N, Nu)]
    if all(c is not None for c in curves):
        lo_m, orig_m, orig_n, hi_n = curves
        for k in range(len(ORDERING_GRID)):
            ordered = (
                lo_m[k] <= orig_m[k] + ORDERING_TOL
                and orig_m[k] <= orig_n[k] + ORDERING_TOL
                and orig_n[k] <= hi_n[k] + ORDERING_TOL
            )
            if not ordered:
                warnings.warn(
                    f"reachability values at t={ORDERING_GRID[k]} are not in the"
                    " assumed slow<=original<=fast order; the transformed pair is"
                    " returned unchecked",
                    OrderingAssumptionViolated,
                    stacklevel=2,
                )
                break

    return PairUniformResult(m_uniform=Mu, n_uniform=Nu, q_m=q_m, q_n=q_n, relation=R0)


# --------------------------------------------------------------------------
# comparison
# --------------------------------------------------------------------------


def _outcome(fn, M, N, R, delta):
    """``(result or error, warnings)`` of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(M, N, R, delta)
        except Exception as e:  # compared with the oracle's error below
            out = e
    return out, [(w.category, str(w.message)) for w in caught]


def _assert_same_chain(a: Ctmc, b: Ctmc) -> None:
    for name in ("P", "E"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    for name in ("ids", "labels", "initial", "goal", "fail", "rate_exprs"):
        assert getattr(a, name) == getattr(b, name), name
    assert (a.rewards is None) == (b.rewards is None)


def _assert_same(M, N, R, delta) -> str:
    """Compare the library with the oracle; returns what happened."""
    (new, new_w), (old, old_w) = _outcome(uniformize_pair, M, N, R, delta), _outcome(
        uniformize_pair_oracle, M, N, R, delta
    )
    assert new_w == old_w
    if isinstance(old, Exception) or isinstance(new, Exception):
        assert (type(new), str(new)) == (type(old), str(old))
        return type(old).__name__
    assert (new.q_m, new.q_n) == (old.q_m, old.q_n)
    assert new.relation == old.relation
    _assert_same_chain(new.m_uniform, old.m_uniform)
    _assert_same_chain(new.n_uniform, old.n_uniform)
    return "warned" if old_w else "ordered"


# --------------------------------------------------------------------------
# pairs
# --------------------------------------------------------------------------

DELTAS = (0.05, 0.1, math.log(1.3))


def _decoys(rng: np.random.Generator) -> Ctmc:
    """Unreachable absorbing states with labels no other state has: after a
    direct sum they form classes that live in one chain only."""
    k = int(rng.integers(1, 3))
    return make_ctmc(
        [(f"d{i}", (f"d{i}",), float(rng.choice((0.5, 1.5, 3.0)))) for i in range(k)],
        [(f"d{i}", f"d{i}", 1.0) for i in range(k)],
        initial="d0",
    )


def _pair(rng: np.random.Generator, delta: float) -> tuple[Ctmc, Ctmc]:
    """A chain and a copy with every rate scaled within e^{+-delta/2} or
    e^{+-delta} (then two copies of one rate class may fall out of each
    other's reach), either of which may carry decoy states."""
    kind = int(rng.integers(3))
    if kind == 0:
        return random_bisimilar_pair(rng, 0.0, delta)
    M = random_labeled_chain(rng, n=int(rng.integers(3, 7))) if kind == 1 else random_uniform_chain(rng, n_max=6)
    spread = float(rng.choice((0.5, 1.0))) * delta
    N = replace(M, E=M.E * np.exp(rng.uniform(-spread, spread, size=M.n)))
    if rng.random() < 0.4:
        N = direct_sum(N, _decoys(rng))
    if rng.random() < 0.2:
        M = direct_sum(M, _decoys(rng))
    return M, N


def _relation(rng: np.random.Generator, M: Ctmc, N: Ctmc, delta: float) -> PairRelation:
    """The copy pairing (with one random pair more), the greatest (0, delta)
    relation or its transitive closure; all but the copy pairing may fail
    to be transitive or a bisimulation."""
    kind = int(rng.integers(4))
    if kind < 2:
        pairs = [(i, M.n + i) for i in range(min(M.n, N.n))]
        extra = [tuple(rng.integers(0, M.n + N.n, size=2).tolist())] if kind else []
        return PairRelation.from_off_diagonal(pairs + extra, M.n + N.n, 0.0, delta)
    R = epsilon_delta_bisim(direct_sum(M, N), 0.0, delta)
    return R if kind == 2 else R.transitive_closure()


def _drawn(seed: int):
    rng = np.random.default_rng(seed)
    delta = float(rng.choice(DELTAS))
    M, N = _pair(rng, delta)
    if rng.random() < 0.25:
        M, N = N, M  # the faster chain first: the order check warns
    return M, N, _relation(rng, M, N, delta), delta


def _fixture_pairs():
    delta = math.log(1.3)
    branch = fixtures.branch_merge_chain()
    copy = PairRelation.from_off_diagonal([(i, branch.n + i) for i in range(branch.n)], 2 * branch.n, 0.0, 0.1)
    yield branch, scale(branch, math.exp(0.1)), copy, 0.1
    yield scale(branch, math.exp(0.1)), branch, copy, 0.1

    def build(r1, r2):
        return make_ctmc(
            [("a1", ("a",), r1), ("a2", ("a",), r2), ("g", ("g",), 1.0)],
            [("a1", "a1", 0.5), ("a1", "g", 0.5), ("a2", "a2", 0.5), ("a2", "g", 0.5), ("g", "g", 1.0)],
            initial="a1",
            goal=("g",),
        )

    mixed = PairRelation.from_off_diagonal({(0, 1), (0, 3), (0, 4), (2, 5)}, 6, 0.0, delta).transitive_closure()
    yield build(1.0, 1.2), build(1.1, 1.2 / 1.05), mixed, delta

    decoy = make_ctmc(
        [("s", ("a",), 1.2), ("d", ("d",), 2.0), ("g", ("g",), 1.0)],
        [("s", "s", 0.5), ("s", "g", 0.5), ("d", "d", 1.0), ("g", "g", 1.0)],
        initial="s",
        goal=("g",),
    )
    yield fixtures.two_state_loop(0.5), decoy, PairRelation.from_off_diagonal({(0, 2), (1, 4)}, 5, 0.0, delta), delta

    for eps in (0.0, 0.2):
        M, N = fixtures.bisimilar_demo_pair(eps, 0.3)
        R = PairRelation.from_off_diagonal({(0, 3), (1, 3), (0, 1), (2, 5)}, 6, 0.0, 0.3).transitive_closure()
        yield M, N, R, 0.3

    goalless = [
        make_ctmc([("a", ("a",), ra), ("b", ("b",), rb)], [("a", "b", 1.0), ("b", "b", 1.0)], initial="a")
        for ra, rb in ((1.0, 2.0), (1.1, 2.1))
    ]
    yield *goalless, PairRelation.from_off_diagonal({(0, 2), (1, 3)}, 4, 0.0, 0.2), 0.2


# --------------------------------------------------------------------------
# tests
# --------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_uniformize_pair_matches_oracle(seed):
    _assert_same(*_drawn(seed))


@pytest.mark.parametrize("case", list(_fixture_pairs()))
def test_fixture_pairs_match_oracle(case):
    _assert_same(*case)


def test_drawn_pairs_reach_every_case():
    """The drawn pairs do exercise what the oracle is compared on."""
    seen = {_assert_same(*_drawn(seed)) for seed in range(150)}
    assert {"ordered", "warned", "NotTransitive"} <= seen
    assert {_assert_same(*case) for case in _fixture_pairs()} == {"ordered", "warned", "NotZeroDeltaBisim"}
