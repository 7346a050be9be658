"""Scaling ladder for the relation fixpoint (``epsilon_delta_bisim``) and
the verifier (``is_bisimulation``).

Usage, from the root of a checkout:

    python3 tools/scale_relate.py --checkout PATH --label NAME [--out FILE]

Times ``epsilon_delta_bisim`` from the ``src/`` of the checkout at PATH on
two seeded chain families of ``bench/gen.py``:

* ``sparse``: ``replicated_blocks`` at eps 0.1, delta 0.1 and n = 301,
  1001, 3001;
* ``dense``: ``dense_labeled`` at eps 0.1, delta 0 and n = 50, 100, 200.

The families ``verify-sparse`` and ``verify-dense`` take the same chains,
compute the fixpoint untimed and time ``is_bisimulation`` on it.

The family ``classes`` times the fixpoint on the chains of
:func:`classes_chain` at eps 0.9, delta 0 and n = 500, 1000, 2000, whose
relations hold large classes; ``compose-classes`` takes the same chains,
computes the fixpoint untimed and times ``compose(R, R)``.

Each rung records the number of related pairs and a digest of the
relation (on a compose rung, of the composed one), and on a verify rung
also of the ``RelationCheck``.  FILE
defaults to ``BENCH_relate.json``; runs, skips and the digest check are
those of ``tools/ladder.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import numpy as np

import ladder

SEED = 0
FAMILIES = {
    # family: (rungs, eps, delta)
    "sparse": ((301, 1001, 3001), 0.1, 0.1),
    "dense": ((50, 100, 200), 0.1, 0.0),
}
FAMILIES.update({f"verify-{family}": spec for family, spec in FAMILIES.items()})
FAMILIES["classes"] = FAMILIES["compose-classes"] = ((500, 1000, 2000), 0.9, 0.0)


def classes_chain(rng, n: int) -> dict:
    """``n`` states labelled ``a`` and ``b`` in turn, all at rate 1, each
    jumping to 1 to 4 distinct random states with random probabilities.  At
    eps 0.9 a pair needs only 0.1 of its mass on related successors, so the
    greatest relation keeps most pairs of one label: two large classes."""
    P = np.zeros((n, n))
    for s in range(n):
        succ = rng.choice(n, size=rng.integers(1, 5), replace=False)
        w = rng.random(len(succ))
        P[s, succ] = w / w.sum()
    return {"ids": tuple(f"s{s}" for s in range(n)), "labels": tuple(("ab"[s % 2],) for s in range(n)),
            "P": P, "E": np.ones(n), "initial": 0, "goal": (), "fail": ()}


def child(src: str, family: str, n: int) -> dict:
    """One timed fixpoint, or one fixpoint and its timed verification or composition, in
    this process; returns its record."""
    sys.path[:0] = [src, ladder.BENCH]
    import gen
    from ctmcbisim import Ctmc, compose, epsilon_delta_bisim, is_bisimulation, validate

    rng = np.random.default_rng(SEED)
    _, eps, delta = FAMILIES[family]
    chains = family.removeprefix("verify-").removeprefix("compose-")
    if chains == "classes":
        d = classes_chain(rng, n)
    else:
        d = gen.replicated_blocks(rng, n // gen.BLOCK, eps, delta) if chains == "sparse" else gen.dense_labeled(rng, n)
    M = validate(Ctmc(**d))
    start = time.perf_counter()
    R = epsilon_delta_bisim(M, eps, delta)
    seconds = time.perf_counter() - start
    result = off = R.off_diagonal()
    if family == "compose-classes":
        start = time.perf_counter()
        C = compose(R, R)
        seconds = time.perf_counter() - start
        result = off = C.off_diagonal()
    elif family != chains:
        start = time.perf_counter()
        check = is_bisimulation(M, R)
        seconds = time.perf_counter() - start
        result = [check.ok, check.pair, check.condition, check.detail, off]
    return {
        "seconds": seconds,
        "max_rss_mb": ladder.max_rss_mb(),
        "related_pairs": len(off),
        "digest": hashlib.sha256(json.dumps(result).encode()).hexdigest()[:16],
    }


if __name__ == "__main__":
    ladder.main(__file__, child, {family: rungs for family, (rungs, _, _) in FAMILIES.items()},
                f"tools/scale_relate.py: epsilon_delta_bisim, is_bisimulation and compose, seed {SEED}", "BENCH_relate.json", "relation")
