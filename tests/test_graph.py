"""The shared graph walks against the hand-rolled traversals they replaced.

``graph.reach`` and ``graph.find_cycle`` took over six walks of the jump
graph: backward reachability in ``normalize_goal``, forward reachability
in ``prune_unreachable``, ``expected_hit_steps`` and ``reach_prob``, the
acyclicity test of the spectral route and the zero-reward cycle check.
The oracles below are those walks as they were; on generated chains the
new module must return the same sets and the same verdicts.  ``graph.blocks``,
the one walk of every blocked array pass, must cover its range in order in
steps of the block budget.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import Ctmc, graph, is_embedded_acyclic
from ctmcbisim.errors import ZeroRewardCycle
from ctmcbisim.model import ABSORBING_EPS

from helpers import random_dag_chain, random_labeled_chain, random_rewarded_chain, random_uniform_chain

# ---------------------------------------------------------------- oracles


def _reach_set_oracle(P, targets):
    """model._reach_set: states that can reach ``targets``."""
    n = P.shape[0]
    preds = [[] for _ in range(n)]
    rows, cols = np.nonzero(P > 0.0)
    for i, j in zip(rows, cols):
        preds[j].append(int(i))
    seen = set(targets)
    stack = list(targets)
    while stack:
        v = stack.pop()
        for u in preds[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def _prune_seen_oracle(M):
    """The walk inside prune_unreachable: states reachable from the initial one."""
    seen = {M.initial}
    stack = [M.initial]
    while stack:
        v = stack.pop()
        for u in np.flatnonzero(M.P[v] > 0.0):
            u = int(u)
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def _reachable_from_oracle(P, start):
    """transient._reachable_from."""
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in np.flatnonzero(P[v] > 0.0):
            u = int(u)
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def _can_reach_oracle(P, target):
    """transient._can_reach."""
    n = P.shape[0]
    preds = [[] for _ in range(n)]
    rows, cols = np.nonzero(P > 0.0)
    for i, j in zip(rows, cols):
        preds[j].append(int(i))
    seen = {target}
    stack = [target]
    while stack:
        v = stack.pop()
        for u in preds[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def _is_embedded_acyclic_oracle(M):
    """spectral.is_embedded_acyclic: a positive self-loop counts as a cycle."""
    P = M.P
    absorbing = np.diag(P) >= 1.0 - ABSORBING_EPS
    n = P.shape[0]
    color = [0] * n
    for root in range(n):
        if absorbing[root] or color[root]:
            continue
        stack = [(root, iter(np.flatnonzero(P[root] > 0.0)))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for u in it:
                u = int(u)
                if absorbing[u]:
                    continue
                if color[u] == 1:
                    return False
                if color[u] == 0:
                    color[u] = 1
                    stack.append((u, iter(np.flatnonzero(P[u] > 0.0))))
                    advanced = True
                    break
            if not advanced:
                color[v] = 2
                stack.pop()
    return True


def _zero_cycle_check_oracle(P, zset):
    """rewards._zero_cycle_check: self-loops do not count."""
    color = {z: 0 for z in zset}
    for root in zset:
        if color[root]:
            continue
        stack = [(root, iter(np.flatnonzero(P[root] > 0.0)))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for u in it:
                u = int(u)
                if u == v or u not in zset:
                    continue
                if color[u] == 1:
                    raise ZeroRewardCycle(f"zero-reward states {v} and {u} lie on a cycle")
                if color[u] == 0:
                    color[u] = 1
                    stack.append((u, iter(np.flatnonzero(P[u] > 0.0))))
                    advanced = True
                    break
            if not advanced:
                color[v] = 2
                stack.pop()


def _has_zero_cycle_oracle(P, zset):
    try:
        _zero_cycle_check_oracle(P, zset)
    except ZeroRewardCycle:
        return True
    return False


# ---------------------------------------------------------------- chains


def _sparse_chain(rng, n_max=9):
    """Sparse random jump graph: some absorbing states, the rest with one to
    three successors anywhere (self-loops, back edges, dead ends)."""
    n = int(rng.integers(1, n_max + 1))
    P = np.zeros((n, n))
    for i in range(n):
        if rng.random() < 0.2:
            P[i, i] = 1.0
        else:
            succ = rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)), replace=False)
            P[i, succ] = 1.0 / len(succ)
    return Ctmc(
        ids=tuple(f"s{i}" for i in range(n)),
        labels=tuple(() for _ in range(n)),
        P=P,
        E=np.ones(n),
        initial=int(rng.integers(0, n)),
    )


FAMILIES = {
    "uniform": random_uniform_chain,
    "dag": random_dag_chain,
    "labeled": lambda rng: random_labeled_chain(rng, n=int(rng.integers(2, 9))),
    "rewarded": random_rewarded_chain,
    "sparse": _sparse_chain,
}

seeds = st.integers(0, 2**32 - 1)
families = st.sampled_from(sorted(FAMILIES))


def _chain(family, seed):
    return FAMILIES[family](np.random.default_rng(seed))


def _subset(data, n):
    return data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))


# ---------------------------------------------------------------- reach


@settings(max_examples=150, deadline=None)
@given(family=families, seed=seeds)
def test_csr_lists_positive_entries_in_order(family, seed):
    M = _chain(family, seed)
    for index, A in ((M.succ, M.P), (M.pred, M.P.T)):
        indptr, indices = index
        for v in range(M.n):
            assert np.array_equal(indices[indptr[v] : indptr[v + 1]], np.flatnonzero(A[v] > 0.0))


@settings(max_examples=150, deadline=None)
@given(family=families, seed=seeds)
def test_reach_matches_single_source_walks(family, seed):
    M = _chain(family, seed)
    assert graph.reach(M.succ, [M.initial]) == _prune_seen_oracle(M)
    for s in range(M.n):
        assert graph.reach(M.succ, [s]) == _reachable_from_oracle(M.P, s)
        assert graph.reach(M.pred, [s]) == _can_reach_oracle(M.P, s)


@settings(max_examples=150, deadline=None)
@given(family=families, seed=seeds, data=st.data())
def test_reach_matches_backward_set_walk(family, seed, data):
    M = _chain(family, seed)
    targets = _subset(data, M.n)
    assert graph.reach(M.pred, targets) == _reach_set_oracle(M.P, set(targets))


# ---------------------------------------------------------------- cycles


def _assert_closes_cycle(M, inside, edge, self_loops):
    v, u = edge
    assert M.P[v, u] > 0.0 and inside[v] and inside[u]
    assert self_loops or u != v
    # u leads back to v inside the mask
    sub = np.where(inside[:, None] & inside[None, :], M.P, 0.0)
    assert v in graph.reach(graph.csr(sub), [u])


@settings(max_examples=200, deadline=None)
@given(family=families, seed=seeds)
def test_find_cycle_matches_acyclicity_walk(family, seed):
    M = _chain(family, seed)
    transient = np.diag(M.P) < 1.0 - ABSORBING_EPS
    edge = graph.find_cycle(M.succ, transient)
    expect = _is_embedded_acyclic_oracle(M)
    assert (edge is None) == expect
    assert is_embedded_acyclic(M) == expect
    if edge is not None:
        _assert_closes_cycle(M, transient, edge, self_loops=True)


@settings(max_examples=200, deadline=None)
@given(family=families, seed=seeds, data=st.data())
def test_find_cycle_matches_zero_reward_walk(family, seed, data):
    M = _chain(family, seed)
    zset = _subset(data, M.n)
    inside = np.zeros(M.n, dtype=bool)
    inside[zset] = True
    edge = graph.find_cycle(M.succ, inside, self_loops=False)
    assert (edge is not None) == _has_zero_cycle_oracle(M.P, set(zset))
    if edge is not None:
        _assert_closes_cycle(M, inside, edge, self_loops=False)


def test_self_loop_flag():
    P = np.array([[0.5, 0.5], [0.0, 1.0]])
    index = graph.csr(P)
    assert graph.find_cycle(index, [True, False]) == (0, 0)
    assert graph.find_cycle(index, [True, False], self_loops=False) is None



# ---------------------------------------------------------------- blocks


@settings(max_examples=200, deadline=None)
@given(count=st.integers(0, 2000), width=st.integers(1, 1 << 18), cells=st.sampled_from((1, 3, 1 << 16)))
def test_blocks_cover_the_range_in_steps_of_the_budget(count, width, cells):
    with mock.patch.object(graph, "BLOCK_CELLS", cells):
        got = list(graph.blocks(count, width))
    step = max(1, cells // width)
    assert got == [slice(start, min(start + step, count)) for start in range(0, count, step)]
    assert [i for b in got for i in range(count)[b]] == list(range(count))


def test_blocks_at_the_edges_of_the_budget():
    cells = graph.BLOCK_CELLS
    assert list(graph.blocks(0, 1)) == []
    assert list(graph.blocks(3, cells + 1)) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert list(graph.blocks(5, cells // 2)) == [slice(0, 2), slice(2, 4), slice(4, 5)]
    assert list(graph.blocks(cells + 1, 1)) == [slice(0, cells), slice(cells, cells + 1)]
