"""Shared generators for the test-suite.

All randomness is drawn from caller-provided ``numpy.random.Generator``
instances so every test is reproducible from its stated seed.  Jump
probabilities are built from small integer weights (k/total with total
<= 24), which keeps row sums exact enough for validation and makes
coincidences (equal rows, hence nontrivial bisimulations) common.
"""

from __future__ import annotations

import io
import math

import numpy as np

from ctmcbisim import Ctmc, direct_sum, epsilon_delta_bisim, validate
from ctmcbisim.errors import CtmcError
from ctmcbisim.spectral import decompose


def adjacency(R) -> tuple[frozenset[int], ...]:
    """``adjacency(R)[s]`` is the set of states that ``R`` relates to ``s``."""
    return tuple(frozenset(np.flatnonzero(row).tolist()) for row in R.matrix)


def read_curve(text: str) -> np.ndarray:
    """The CSV of ``BoundCurve.to_csv`` as a structured array with one
    field per column (``t`` first); an empty cell reads as NaN."""
    return np.genfromtxt(io.StringIO(text), delimiter=",", names=True, ndmin=1)


def _weights_to_row(w: np.ndarray) -> np.ndarray:
    total = int(w.sum())
    return w / total


def random_uniform_chain(
    rng: np.random.Generator,
    n: int | None = None,
    n_max: int = 8,
    rates: tuple[float, ...] = (1.0, 2.0, 0.5),
) -> Ctmc:
    """Uniform-rate chain with an absorbing goal reachable from everywhere.

    A forward edge i -> i+1 (ending at the goal) is always present, so the
    goal is reachable from every transient state and the chain has a
    single absorbing state after normalization.
    """
    if n is None:
        n = int(rng.integers(3, n_max + 1))
    g = n - 1
    P = np.zeros((n, n))
    for i in range(g):
        w = rng.integers(0, 4, size=n)
        w[i + 1] += 1
        P[i] = _weights_to_row(w)
    P[g, g] = 1.0
    rate = float(rng.choice(rates))
    return validate(
        Ctmc(
            ids=tuple(f"s{i}" for i in range(g)) + ("g",),
            labels=tuple(() for _ in range(g)) + (("g",),),
            P=P,
            E=np.full(n, rate),
            initial=0,
            goal=(g,),
        )
    )


def random_dag_chain(
    rng: np.random.Generator,
    n_max: int = 8,
    rates: tuple[float, ...] = (1.0, 2.0, 0.5),
) -> Ctmc:
    """Uniform-rate chain whose transient jump graph is a DAG: every row
    only moves forward (always including i -> i+1), so the goal is hit
    within n - 1 steps."""
    n = int(rng.integers(2, n_max + 1))
    g = n - 1
    P = np.zeros((n, n))
    for i in range(g):
        w = rng.integers(0, 4, size=n)
        w[: i + 1] = 0
        w[i + 1] += 1
        P[i] = _weights_to_row(w)
    P[g, g] = 1.0
    rate = float(rng.choice(rates))
    return validate(
        Ctmc(
            ids=tuple(f"s{i}" for i in range(g)) + ("g",),
            labels=tuple(() for _ in range(g)) + (("g",),),
            P=P,
            E=np.full(n, rate),
            initial=0,
            goal=(g,),
        )
    )


def random_stable_chain(rng: np.random.Generator, n_max: int = 8) -> Ctmc:
    """A uniform chain whose normalized jump matrix decomposes cleanly."""
    while True:
        M = random_uniform_chain(rng, n_max=n_max)
        try:
            decompose(M.P)
        except CtmcError:
            continue
        return M


def random_labeled_chain(rng: np.random.Generator, n: int = 6) -> Ctmc:
    """Small chain with few labels, few distinct rates, and rows drawn from
    a 3-row pool, so nontrivial exact bisimulations are frequent."""
    g = n - 1
    pool = [rng.integers(0, 3, size=n) + np.eye(n, dtype=int)[min(i + 1, g)] for i in range(3)]
    P = np.zeros((n, n))
    for i in range(g):
        w = pool[int(rng.integers(0, 3))].copy()
        if w[:g].sum() == 0 and w[g] == 0:
            w[g] = 1
        P[i] = _weights_to_row(w)
    P[g, g] = 1.0
    rates = np.array([float(rng.choice((1.0, 2.0))) for _ in range(g)] + [1.0])
    labels = tuple((rng.choice(("a", "b")),) for _ in range(g)) + (("g",),)
    return validate(
        Ctmc(
            ids=tuple(f"s{i}" for i in range(g)) + ("g",),
            labels=labels,
            P=P,
            E=rates,
            initial=0,
            goal=(g,),
        )
    )


def random_bisimilar_pair(
    rng: np.random.Generator, eps: float, delta: float, n_max: int = 5
) -> tuple[Ctmc, Ctmc]:
    """(M, N) built so the state-copy pairing is an (eps, delta)-bisimulation.

    N scales every exit rate by a factor within e^{+-delta/2} and moves at
    most eps/2 of probability mass per row between existing successors, so
    each copied pair passes the flow check with the diagonal coupling.
    """
    n = int(rng.integers(3, n_max + 1))
    M = random_uniform_chain(rng, n=n)
    P = M.P.copy()
    g = n - 1
    shift = eps / 2.0
    for i in range(g):
        succ = np.flatnonzero(P[i] > shift)
        if len(succ) >= 2:
            a, b = rng.choice(succ, size=2, replace=False)
            P[i, a] -= shift
            P[i, b] += shift
    factors = np.exp(rng.uniform(-delta / 2.0, delta / 2.0, size=n))
    N = Ctmc(
        ids=M.ids,
        labels=M.labels,
        P=P,
        E=M.E * factors,
        initial=M.initial,
        goal=M.goal,
        fail=M.fail,
    )
    return M, validate(N)


def pairing_relation(M: Ctmc, N: Ctmc, eps: float, delta: float):
    """Greatest (eps, delta) relation on M (+) N; initial copies related by
    construction for pairs from random_bisimilar_pair."""
    return epsilon_delta_bisim(direct_sum(M, N), eps, delta)


def random_rewarded_chain(rng: np.random.Generator, n_max: int = 6) -> Ctmc:
    """Rewarded chain: goal and fail sinks, rewards from {0, 0.5, 1, 2},
    zero rewards only on non-initial transient states arranged so that no
    two zero-reward states form a cycle (forward edges only between them)."""
    n = int(rng.integers(4, n_max + 1))
    g, f = n - 1, n - 2
    rewards = np.array([float(rng.choice((0.5, 1.0, 2.0))) for _ in range(n)])
    rewards[f] = 0.0
    # zero rewards on a sparse subset of non-initial transient states
    for i in range(1, n - 2):
        if rng.random() < 0.3:
            rewards[i] = 0.0
    P = np.zeros((n, n))
    for i in range(n - 2):
        w = rng.integers(0, 4, size=n)
        if rewards[i] == 0.0:
            # zero-reward rows only keep self/forward mass, so zero-reward
            # states can never close a cycle among themselves
            w[:i] = 0
            w[i] = min(w[i], 2)
        w[i + 1] += 1
        P[i] = _weights_to_row(w)
    P[g, g] = 1.0
    P[f, f] = 1.0
    E = np.array([float(rng.choice((0.5, 1.0, 2.0, 4.0))) for _ in range(n)])
    return validate(
        Ctmc(
            ids=tuple(f"s{i}" for i in range(n - 2)) + ("f", "g"),
            labels=tuple(() for _ in range(n - 2)) + (("f",), ("g",)),
            P=P,
            E=E,
            initial=0,
            goal=(g,),
            fail=(f,),
            rewards=rewards,
        )
    )
