"""Seeded input generators and the benchmark's own model-file writer.

Every generator takes a ``numpy.random.Generator`` and returns a plain
``dict`` of chain fields (``ids``, ``labels``, ``P``, ``E``, ``initial``,
``goal``, ``fail``, ``rewards``); the harness turns it into a library chain
or writes it as a model file.  Only numpy and the standard library are used.
"""

from __future__ import annotations

import json

import numpy as np


def _chain(ids, labels, P, E, *, goal, fail=(), rewards=None) -> dict:
    return {
        "ids": tuple(ids),
        "labels": tuple(tuple(l) for l in labels),
        "P": P,
        "E": np.asarray(E, dtype=float),
        "initial": 0,
        "goal": tuple(goal),
        "fail": tuple(fail),
        "rewards": rewards,
    }


def _weights_to_row(w: np.ndarray) -> np.ndarray:
    return w / int(w.sum())


def _balanced(rng: np.random.Generator, count: int, k: int) -> np.ndarray:
    """``count`` draws from ``range(k)`` with every value used equally often
    (up to one), in random order."""
    return rng.permutation(np.arange(count) % k)


def dense_labeled(rng: np.random.Generator, n: int) -> dict:
    """Labelled chain whose rows come from a 3-row pool, with two labels and
    two rates, after the test-suite's ``random_labeled_chain``: exact
    bisimulations are common and every candidate pair needs one large flow.

    Three changes keep the cost the same from seed to seed.  Pool row,
    label and rate are drawn balanced rather than independently, so the
    number of candidate pairs is fixed; so are the weights 0, 1, 2 within
    each pool row, which fixes the size of every flow network.  Pool row k also carries extra
    weight on the states of (label, rate) class k, so rows of different
    pool rows differ by more than eps = 0.1 in class mass and fail their
    first flow check: the fixpoint always ends after two sweeps.
    """
    g = n - 1
    group = _balanced(rng, g, 12)  # (pool row, label, rate) in equal shares
    pool_of, cls = group % 3, group // 3
    pool = []
    for k in range(3):
        w = _balanced(rng, n, 3) + np.eye(n, dtype=int)[min(k + 1, g)]
        w[:g][cls == k] += 3
        pool.append(w)
    P = np.zeros((n, n))
    for i in range(g):
        P[i] = _weights_to_row(pool[int(pool_of[i])])
    P[g, g] = 1.0
    rates = [(1.0, 2.0)[int(c) % 2] for c in cls] + [1.0]
    labels = [(("a", "b")[int(c) // 2],) for c in cls] + [("g",)]
    return _chain([f"s{i}" for i in range(g)] + ["g"], labels, P, rates, goal=(g,))


BLOCK = 10  # near-copies per block of a replicated-block chain


def replicated_blocks(rng: np.random.Generator, blocks: int, eps: float, delta: float) -> dict:
    """``blocks`` blocks of ``BLOCK`` near-copies plus a goal (n = 10k + 1).

    Every copy of block b jumps to one random copy in each of three target
    blocks (b + 1, or the goal for the last block, is always one of them),
    with the block's base probabilities moved by at most eps/4 and the
    block's base rate scaled within e^(+-delta/2).  Two copies of one block
    therefore differ by at most eps/2 in jump mass and e^delta in rate, so
    the within-block relation is an (eps, delta)-bisimulation by
    construction.  Labels and rates are shared widely, so most candidate
    pairs across blocks exist and then fail their flow check.
    """
    n = blocks * BLOCK + 1
    g = n - 1
    P = np.zeros((n, n))
    E = np.empty(n)
    labels: list[tuple[str, ...]] = []
    block_rates = _balanced(rng, blocks, 3)
    block_labels = [("a",) if b % 3 else ("b",) for b in range(blocks)] + [("g",)]
    for b in range(blocks):
        nxt = b + 1
        # one target with another label than block b + 1; copies move mass
        # between these two, so their label masses differ and, at eps = 0,
        # every pair of distinct rows fails its first flow check
        others = [c for c in range(blocks) if c != nxt]
        unlike = [c for c in others if block_labels[c] != block_labels[nxt]]
        first = int(rng.choice(unlike))
        second = int(rng.choice([c for c in others if c != first]))
        targets = [nxt, first, second]
        base = rng.dirichlet(np.ones(3)) * 0.7 + 0.1  # every entry >= 0.1 > eps/4
        base /= base.sum()
        rate = (1.0, 1.05, 2.0)[int(block_rates[b])]
        label = block_labels[b]
        for c in range(BLOCK):
            s = b * BLOCK + c
            row = base.copy()
            i, j = rng.permutation(2)  # move mass between the two unlike-labelled targets
            shift = rng.uniform(0.0, eps / 4.0)
            row[i] -= shift
            row[j] += shift
            for tb, p in zip(targets, row):
                dst = g if tb == blocks else tb * BLOCK + int(rng.integers(0, BLOCK))
                P[s, dst] += p
            E[s] = rate * float(np.exp(rng.uniform(-delta / 2.0, delta / 2.0)))
            labels.append(label)
    P[g, g] = 1.0
    E[g] = 1.0
    labels.append(block_labels[blocks])
    ids = [f"b{b}c{c}" for b in range(blocks) for c in range(BLOCK)] + ["g"]
    return _chain(ids, labels, P, E, goal=(g,))


def planted_pairs(blocks: int) -> list[tuple[int, int]]:
    """Off-diagonal pairs (s < t) of the within-block relation."""
    return [
        (b * BLOCK + i, b * BLOCK + j)
        for b in range(blocks)
        for i in range(BLOCK)
        for j in range(i + 1, BLOCK)
    ]


def perturbed_rates(rng: np.random.Generator, chain: dict, delta: float) -> dict:
    """Copy of ``chain`` with every exit rate scaled within e^(+-delta/2)."""
    out = dict(chain)
    out["E"] = chain["E"] * np.exp(rng.uniform(-delta / 2.0, delta / 2.0, size=len(chain["E"])))
    return out


def uniform_dense(rng: np.random.Generator, n: int) -> dict:
    """Rate-1 chain with dense random rows and a forward edge i -> i+1, so
    the goal is reachable from every state."""
    g = n - 1
    P = np.zeros((n, n))
    for i in range(g):
        w = rng.integers(0, 4, size=n)
        w[i + 1] += 1
        P[i] = _weights_to_row(w)
    P[g, g] = 1.0
    return _chain([f"s{i}" for i in range(g)] + ["g"], [()] * g + [("g",)], P, np.ones(n), goal=(g,))


def random_dag(rng: np.random.Generator, n: int) -> dict:
    """Rate-1 chain whose transient jump graph is acyclic: every row jumps
    only forward, always including i -> i+1."""
    g = n - 1
    P = np.zeros((n, n))
    for i in range(g):
        w = np.zeros(n, dtype=int)
        w[i + 1 :] = rng.integers(0, 4, size=n - i - 1) * (rng.random(n - i - 1) < 0.2)
        w[i + 1] += 1
        P[i] = _weights_to_row(w)
    P[g, g] = 1.0
    return _chain([f"s{i}" for i in range(g)] + ["g"], [()] * g + [("g",)], P, np.ones(n), goal=(g,))


def jordan_pairs(rng: np.random.Generator, pairs: int) -> dict:
    """Rate-1 defective chain: an initial state fanning out into ``pairs``
    two-state Jordan cells (a -> a, b; b -> b) with distinct loop weights,
    then the goal (n = 2 * pairs + 2)."""
    n = 2 * pairs + 2
    g = n - 1
    P = np.zeros((n, n))
    P[0, 1 : 2 * pairs + 1 : 2] = rng.dirichlet(np.ones(pairs))
    loops = 0.2 + 0.6 * (np.arange(pairs) + rng.random(pairs) * 0.5) / pairs
    for k, lam in enumerate(loops):
        a, b = 2 * k + 1, 2 * k + 2
        P[a, a] = lam
        P[a, b] = (1.0 - lam) / 2.0
        P[a, g] = 1.0 - lam - P[a, b]
        P[b, b] = lam
        P[b, g] = 1.0 - lam
    P[g, g] = 1.0
    ids = ["s0"] + [f"{x}{k}" for k in range(pairs) for x in ("a", "b")] + ["g"]
    return _chain(ids, [()] * (n - 1) + [("g",)], P, np.ones(n), goal=(g,))


def rewarded(rng: np.random.Generator, n: int) -> dict:
    """Rewarded chain with goal and fail sinks; zero rewards sit on a sparse
    set of transient states whose rows only jump to themselves or forward,
    so zero-reward states never close a cycle."""
    g, f = n - 1, n - 2
    rewards = np.array([float(rng.choice((0.5, 1.0, 2.0))) for _ in range(n)])
    rewards[f] = 0.0
    for i in range(1, n - 2):
        if rng.random() < 0.3:
            rewards[i] = 0.0
    P = np.zeros((n, n))
    for i in range(n - 2):
        w = rng.integers(0, 4, size=n)
        if rewards[i] == 0.0:
            w[:i] = 0
            w[i] = min(w[i], 2)
        w[i + 1] += 1
        P[i] = _weights_to_row(w)
    P[g, g] = 1.0
    P[f, f] = 1.0
    E = [float(rng.choice((0.5, 1.0, 2.0, 4.0))) for _ in range(n)]
    ids = [f"s{i}" for i in range(n - 2)] + ["f", "g"]
    labels = [()] * (n - 2) + [("f",), ("g",)]
    return _chain(ids, labels, P, E, goal=(g,), fail=(f,), rewards=rewards)


def write_model(chain: dict, path: str) -> None:
    """Write ``chain`` in the library's JSON model-file format.

    Floats go through ``repr`` (as ``json`` does), so they round-trip
    exactly.  Transitions are written row by row, so a large dense chain
    never exists as one big list of dicts.
    """
    ids = chain["ids"]
    rewards = chain["rewards"]
    states = []
    for i, sid in enumerate(ids):
        st = {"id": sid, "labels": list(chain["labels"][i]), "exit_rate": float(chain["E"][i])}
        if rewards is not None:
            st["reward"] = float(rewards[i])
        states.append(st)
    head = {"states": states, "initial": ids[chain["initial"]]}
    if chain["goal"]:
        head["goal"] = [ids[s] for s in chain["goal"]]
    if chain["fail"]:
        head["fail"] = [ids[s] for s in chain["fail"]]
    P = chain["P"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head, separators=(",", ":"))[:-1] + ',"transitions":[')
        sep = ""
        for i, src in enumerate(ids):
            frm = '{"from":' + json.dumps(src) + ',"to":'
            for j in np.flatnonzero(P[i] > 0.0).tolist():
                fh.write(f'{sep}{frm}{json.dumps(ids[j])},"prob":{float(P[i, j])!r}}}')
                sep = ","
        fh.write("]}")
