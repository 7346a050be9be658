"""Reachability, connected components and cycle search on the positive
entries of a matrix.

Graphs are given as a compressed sparse row index ``(indptr, indices)``:
the neighbours of ``v`` are ``indices[indptr[v]:indptr[v + 1]]``, in
ascending order.  A chain builds this index once for its jump graph
(``Ctmc.succ``) and once for the reversed graph (``Ctmc.pred``, which also
gives the relation fixpoint its worklist).  A relation is an n x n boolean
matrix, and ``csr`` of it is the relation's graph.  ``components`` returns
a label array, the package's one form of a grouping of states: it gives
the classes of each sweep's class-mass bound and of ``bisim.PairRelation``
and the clusters of nearby eigenvalues in ``spectral.decompose``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

Index = tuple[np.ndarray, np.ndarray]


def csr(A: np.ndarray) -> Index:
    """Read-only index of the entries of the square matrix ``A`` that are > 0."""
    positive = A > 0.0
    indices = np.flatnonzero(positive)
    indices %= A.shape[1]  # flat position -> column
    indptr = np.zeros(A.shape[0] + 1, dtype=np.intp)
    np.cumsum(positive.sum(axis=1), out=indptr[1:])
    indptr.flags.writeable = False
    indices.flags.writeable = False
    return indptr, indices


def reach(index: Index, sources: Iterable[int]) -> set[int]:
    """Vertices reachable from ``sources`` (the sources included)."""
    indptr, indices = index
    seen = np.zeros(len(indptr) - 1, dtype=bool)
    frontier = [int(s) for s in sources]
    seen[frontier] = True
    while frontier:
        nxt = np.concatenate([indices[indptr[v] : indptr[v + 1]] for v in frontier])
        nxt = np.unique(nxt[~seen[nxt]])
        seen[nxt] = True
        frontier = nxt.tolist()
    return set(np.flatnonzero(seen).tolist())


def components(index: Index) -> np.ndarray:
    """Connected components of a symmetric graph as labels numbered by
    smallest vertex: min-label propagation with pointer jumping, over one
    int32 gather of the labels per round while n < 2**31."""
    indptr, indices = index
    n = len(indptr) - 1
    label = np.arange(n, dtype=np.int32 if n < 2**31 else np.int64)
    rows = np.flatnonzero(indptr[1:] > indptr[:-1])  # the vertices with a neighbour
    while len(rows):
        low = label.copy()
        low[rows] = np.minimum(label[rows], np.minimum.reduceat(label[indices], indptr[rows]))
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    return (np.cumsum(label == np.arange(n)) - 1)[label]


def find_cycle(index: Index, inside: np.ndarray, self_loops: bool = True) -> tuple[int, int] | None:
    """An edge ``(v, u)`` that closes a cycle among the vertices where the
    boolean mask ``inside`` holds, or None when they induce no cycle.

    Depth-first search from each inside vertex in ascending order; with
    ``self_loops=False`` an edge ``v -> v`` does not count as a cycle.
    """
    indptr, indices = index
    inside = np.asarray(inside, dtype=bool).tolist()
    state = [0] * len(inside)  # 0 unvisited, 1 on the current path, 2 done

    def out_edges(v: int):
        return iter(indices[indptr[v] : indptr[v + 1]].tolist())

    for root in range(len(inside)):
        if not inside[root] or state[root]:
            continue
        state[root] = 1
        stack = [(root, out_edges(root))]
        while stack:
            v, edges = stack[-1]
            for u in edges:
                if not inside[u] or (u == v and not self_loops):
                    continue
                if state[u] == 1:
                    return v, u
                if state[u] == 0:
                    state[u] = 1
                    stack.append((u, out_edges(u)))
                    break
            else:
                state[v] = 2
                stack.pop()
    return None
