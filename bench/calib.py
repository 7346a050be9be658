"""Machine-speed probe for normalising timings.

On a 2-vCPU Xeon virtual machine shared with other tenants, the same code
ran up to 1.7x slower for tens of seconds at a time, which is more than the
regressions the benchmark must catch.  ``kernel()`` times a fixed piece of
work of the same two kinds the library does: an Edmonds-Karp max-flow over
``Fraction`` capacities (pure-Python dict and rational arithmetic, like the
relation fixpoint) and dense mat-vecs (like the uniformization series).  It
does not call the library, so a change to the library never changes it.
Scaling a pass's times by the kernel's median time during that pass cancels
most of the drift: on that machine it halved the run-to-run spread of all
three kinds of job.
"""

from __future__ import annotations

import time
from collections import deque
from fractions import Fraction

import numpy as np

_rng = np.random.default_rng(20250515)
_SIDE = 14
_EDGES = [(i, _SIDE + j) for i in range(_SIDE) for j in range(_SIDE) if _rng.random() < 0.5]
_MATRIX = _rng.random((600, 600))
_MATRIX /= _MATRIX.sum(axis=1, keepdims=True)


def _max_flow() -> Fraction:
    source, sink = 2 * _SIDE, 2 * _SIDE + 1
    cap: dict[int, dict[int, Fraction]] = {v: {} for v in range(2 * _SIDE + 2)}

    def add(u: int, v: int, c: Fraction) -> None:
        cap[u][v] = cap[u].get(v, Fraction(0)) + c
        cap[v].setdefault(u, Fraction(0))

    for i in range(_SIDE):
        add(source, i, Fraction(1, _SIDE))
        add(_SIDE + i, sink, Fraction(1, _SIDE))
    for u, v in _EDGES:
        add(u, v, Fraction(2))
    flow = Fraction(0)
    while True:
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, c in cap[u].items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        path = []
        v = sink
        while v != source:
            path.append((parent[v], v))
            v = parent[v]
        b = min(cap[u][v] for u, v in path)
        for u, v in path:
            cap[u][v] -= b
            cap[v][u] += b
        flow += b


def kernel() -> float:
    """Seconds the fixed probe work takes right now (about 15 ms)."""
    t0 = time.perf_counter()
    for _ in range(3):
        _max_flow()
    v = np.ones(_MATRIX.shape[0])
    for _ in range(40):
        v = v @ _MATRIX
    return time.perf_counter() - t0
