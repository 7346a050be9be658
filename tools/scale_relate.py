"""Scaling ladder for the relation fixpoint (``epsilon_delta_bisim``).

Usage, from the root of a checkout:

    python3 tools/scale_relate.py --checkout PATH --label NAME [--out FILE]

Times ``epsilon_delta_bisim`` from the ``src/`` of the checkout at PATH on
two seeded chain families of ``bench/gen.py``:

* ``sparse``: ``replicated_blocks`` at eps 0.1, delta 0.1 and n = 301,
  1001, 3001;
* ``dense``: ``dense_labeled`` at eps 0.1, delta 0 and n = 50, 100, 200.

Each rung records the number of related pairs and a digest of the
relation.  FILE defaults to ``BENCH_relate.json``; runs, skips and the
digest check are those of ``tools/ladder.py``.
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


def child(src: str, family: str, n: int) -> dict:
    """One timed fixpoint in this process; returns its record."""
    sys.path[:0] = [src, ladder.BENCH]
    import numpy as np

    import gen
    from ctmcbisim import Ctmc, epsilon_delta_bisim, validate

    rng = np.random.default_rng(SEED)
    _, eps, delta = FAMILIES[family]
    d = gen.replicated_blocks(rng, n // gen.BLOCK, eps, delta) if family == "sparse" else gen.dense_labeled(rng, n)
    M = validate(Ctmc(**d))
    start = time.perf_counter()
    R = epsilon_delta_bisim(M, eps, delta)
    seconds = time.perf_counter() - start
    off = R.off_diagonal()
    return {
        "seconds": seconds,
        "max_rss_mb": ladder.max_rss_mb(),
        "related_pairs": len(off),
        "digest": hashlib.sha256(json.dumps(off).encode()).hexdigest()[:16],
    }


if __name__ == "__main__":
    ladder.main(__file__, child, {family: rungs for family, (rungs, _, _) in FAMILIES.items()},
                f"tools/scale_relate.py: epsilon_delta_bisim, seed {SEED}", "BENCH_relate.json", "relation")
