"""Scaling ladder for model files (``load_model`` and ``save_model``).

Usage, from the root of a checkout:

    python3 tools/scale_load.py --checkout PATH --label NAME [--out FILE]

Both families take ``bench/gen.py``'s ``uniform_dense`` chain at n = 200,
800 and 1600 (seed ``SEED``) and time the ``src/`` of the checkout at
PATH:

* ``load``: ``load_model`` of a file that ``gen.write_model`` writes,
  untimed, into a temporary directory;
* ``save``: ``save_model`` of the validated chain into a temporary
  directory.

Each rung records the number of transitions and a digest of
``model_to_dict`` of the result: of the loaded chain, or of the saved file
read back.  FILE defaults to ``BENCH_load.json``; runs, skips and the
digest check are those of ``tools/ladder.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import time

import ladder

SEED = 0
FAMILIES = {"load": (200, 800, 1600), "save": (200, 800, 1600)}


def child(src: str, family: str, n: int) -> dict:
    """One timed ``load_model`` or ``save_model`` call in this process;
    returns its record."""
    sys.path[:0] = [src, ladder.BENCH]
    import numpy as np

    import gen
    from ctmcbisim import Ctmc, load_model, save_model, validate
    from ctmcbisim.model import model_to_dict

    chain = gen.uniform_dense(np.random.default_rng(SEED), n)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        if family == "load":
            gen.write_model(chain, path)
            start = time.perf_counter()
            M = load_model(path)
            seconds = time.perf_counter() - start
            result = model_to_dict(M)
        else:
            M = validate(Ctmc(**chain))
            start = time.perf_counter()
            save_model(M, path)
            seconds = time.perf_counter() - start
            with open(path, encoding="utf-8") as fh:
                result = json.load(fh)
    return {
        "seconds": seconds,
        "max_rss_mb": ladder.max_rss_mb(),
        "transitions": len(result["transitions"]),
        "digest": hashlib.sha256(json.dumps(result).encode()).hexdigest()[:16],
    }


if __name__ == "__main__":
    ladder.main(__file__, child, FAMILIES,
                f"tools/scale_load.py: load_model and save_model on uniform_dense, seed {SEED}",
                "BENCH_load.json", "model_to_dict")
