"""Scaling ladder for model files (``load_model`` and ``save_model``).

Usage, from the root of a checkout:

    python3 tools/scale_load.py --checkout PATH --label NAME [--out FILE]

The families take ``bench/gen.py``'s ``uniform_dense`` chain at n = 200,
800 and 1600 (seed ``SEED``) and time the ``src/`` of the checkout at
PATH:

* ``load``: ``load_model`` of a file that ``gen.write_model`` writes,
  untimed, into a temporary directory;
* ``build``: ``model_from_dict`` of that file's document, parsed untimed,
  so the chain builder is timed without the JSON parser;
* ``save``: ``save_model`` of the validated chain into a temporary
  directory.

Each rung records the number of transitions and a digest of
``model_to_dict`` of the result: of the loaded or built chain, or of the
saved file read back.  FILE defaults to ``BENCH_load.json``; runs, skips and the
digest check are those of ``tools/ladder.py``.
"""

from __future__ import annotations

import json
import os
import tempfile

import ladder

SEED = 0
FAMILIES = {"load": (200, 800, 1600), "build": (200, 800, 1600), "save": (200, 800, 1600)}


def setup(family: str, n: int):
    """The ``load_model``, ``model_from_dict`` or ``save_model`` call of
    one rung, on a file in a temporary directory that its description
    removes."""
    import numpy as np

    import gen
    from ctmcbisim import Ctmc, load_model, save_model, validate
    from ctmcbisim.model import model_from_dict, model_to_dict

    chain = gen.uniform_dense(np.random.default_rng(SEED), n)
    tmp = tempfile.TemporaryDirectory()
    path = os.path.join(tmp.name, "model.json")

    def described(result: dict) -> tuple[dict, dict]:
        tmp.cleanup()
        return {"transitions": len(result["transitions"])}, result

    if family == "load":
        gen.write_model(chain, path)
        return lambda: load_model(path), lambda M: described(model_to_dict(M))
    if family == "build":
        gen.write_model(chain, path)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return lambda: model_from_dict(doc), lambda M: described(model_to_dict(M))
    M = validate(Ctmc(**chain))

    def read_back(_) -> tuple[dict, dict]:
        with open(path, encoding="utf-8") as fh:
            saved = json.load(fh)
        return described(saved)

    return lambda: save_model(M, path), read_back


if __name__ == "__main__":
    ladder.main(__file__, setup, FAMILIES,
                f"tools/scale_load.py: load_model and save_model on uniform_dense, seed {SEED}",
                "BENCH_load.json", "model_to_dict")
