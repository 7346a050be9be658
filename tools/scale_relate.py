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

Each rung records the number of related pairs and a digest of the
relation, and on a verify rung also of the ``RelationCheck``.  FILE
defaults to ``BENCH_relate.json``; runs, skips and the digest check are
those of ``tools/ladder.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import ladder

SEED = 0
FAMILIES = {
    # family: (rungs, eps, delta)
    "sparse": ((301, 1001, 3001), 0.1, 0.1),
    "dense": ((50, 100, 200), 0.1, 0.0),
}
FAMILIES.update({f"verify-{family}": spec for family, spec in FAMILIES.items()})


def child(src: str, family: str, n: int) -> dict:
    """One timed fixpoint, or one fixpoint and its timed verification, in
    this process; returns its record."""
    sys.path[:0] = [src, ladder.BENCH]
    import numpy as np

    import gen
    from ctmcbisim import Ctmc, epsilon_delta_bisim, is_bisimulation, validate

    rng = np.random.default_rng(SEED)
    _, eps, delta = FAMILIES[family]
    chains = family.removeprefix("verify-")
    d = gen.replicated_blocks(rng, n // gen.BLOCK, eps, delta) if chains == "sparse" else gen.dense_labeled(rng, n)
    M = validate(Ctmc(**d))
    start = time.perf_counter()
    R = epsilon_delta_bisim(M, eps, delta)
    seconds = time.perf_counter() - start
    result = off = R.off_diagonal()
    if family != chains:
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
                f"tools/scale_relate.py: epsilon_delta_bisim and is_bisimulation, seed {SEED}", "BENCH_relate.json", "relation")
