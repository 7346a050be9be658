"""Scaling ladder for strong bisimulation (``strong_bisim``).

Usage, from the root of a checkout:

    python3 tools/scale_strong.py --checkout PATH --label NAME [--out FILE]

Times ``strong_bisim`` from the ``src/`` of the checkout at PATH on two
seeded chain families of ``bench/gen.py``:

* ``sparse``: ``replicated_blocks`` at eps 0.1, delta 0.1 and n = 301,
  1001, 3001;
* ``dense``: ``dense_labeled`` at n = 50, 200.

Each rung records the number of blocks and a digest of the blocks, each
as its ascending state list, in the partition's order.  FILE defaults to
``BENCH_strong.json``; runs, skips and the digest check are those of
``tools/ladder.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import ladder

SEED = 0
FAMILIES = {"sparse": (301, 1001, 3001), "dense": (50, 200)}


def child(src: str, family: str, n: int) -> dict:
    """One timed ``strong_bisim`` call in this process; returns its record."""
    sys.path[:0] = [src, ladder.BENCH]
    import numpy as np

    import gen
    from ctmcbisim import Ctmc, strong_bisim, validate

    rng = np.random.default_rng(SEED)
    d = gen.replicated_blocks(rng, n // gen.BLOCK, 0.1, 0.1) if family == "sparse" else gen.dense_labeled(rng, n)
    M = validate(Ctmc(**d))
    start = time.perf_counter()
    part = strong_bisim(M)
    seconds = time.perf_counter() - start
    blocks = [sorted(b) for b in part.blocks]
    return {
        "seconds": seconds,
        "max_rss_mb": ladder.max_rss_mb(),
        "blocks": len(blocks),
        "digest": hashlib.sha256(json.dumps(blocks).encode()).hexdigest()[:16],
    }


if __name__ == "__main__":
    ladder.main(__file__, child, FAMILIES, f"tools/scale_strong.py: strong_bisim, seed {SEED}",
                "BENCH_strong.json", "blocks")
