"""Scaling ladder for model files (``load_model`` and ``save_model``) and
the model writer's largest CLI caller, ``pair-uniformize``.

Usage, from the root of a checkout:

    python3 tools/scale_load.py --checkout PATH --label NAME [--out FILE]

The families take ``bench/gen.py``'s ``uniform_dense`` chain at n = 200,
800 and 1600 (seed ``SEED``) and time the ``src/`` of the checkout at
PATH:

* ``load``: ``load_model`` of a file that ``gen.write_model`` writes,
  untimed, into a temporary directory (states, initial, goal and fail,
  then the transitions);
* ``loadsaved``: ``load_model`` of the file that ``save_model`` writes,
  untimed, for the validated chain (indented, the transitions before
  ``initial``);
* ``build``: ``model_from_dict`` of that file's document, parsed untimed,
  so the chain builder is timed without the JSON parser;
* ``save``: ``save_model`` of the validated chain into a temporary
  directory.

Each of these rungs records the number of transitions and a digest of
``model_to_dict`` of the result: of the loaded or built chain, or of the
saved file read back.  The family

* ``report`` runs ``cli.main(["pair-uniformize", ...])`` with ``--delta
  0.2`` and ``--out`` on a pair of files that ``gen.write_model`` writes,
  untimed: a ``gen.replicated_blocks`` chain of n = 61, 301 and 1001
  states (eps 0.1, delta 0.1) and its ``gen.perturbed_rates`` copy, as
  bench ``relate`` runs the command; it records the length of the report
  text and digests that text.

FILE defaults to ``BENCH_load.json``; runs, skips and the digest check are
those of ``tools/ladder.py``.
"""

from __future__ import annotations

import json
import os
import tempfile

import ladder

SEED = 0
FAMILIES = {"load": (200, 800, 1600), "loadsaved": (200, 800, 1600), "build": (200, 800, 1600),
            "save": (200, 800, 1600), "report": (61, 301, 1001)}


def setup(family: str, n: int):
    """The ``load_model``, ``model_from_dict``, ``save_model`` or
    ``pair-uniformize`` call of one rung, on files in a temporary directory
    that its description removes."""
    import numpy as np

    import gen
    from ctmcbisim import Ctmc, cli, load_model, save_model, validate
    from ctmcbisim.model import model_from_dict, model_to_dict

    rng = np.random.default_rng(SEED)
    tmp = tempfile.TemporaryDirectory()
    path = os.path.join(tmp.name, "model.json")
    if family == "report":
        a = gen.replicated_blocks(rng, (n - 1) // 10, 0.1, 0.1)
        paths = [os.path.join(tmp.name, f"{side}.json") for side in "ab"]
        gen.write_model(a, paths[0])
        gen.write_model(gen.perturbed_rates(rng, a, 0.1), paths[1])
        argv = ["pair-uniformize", "-m", paths[0], "--model-b", paths[1], "--delta", "0.2", "--out", path]

        def read_report(code: int) -> tuple[dict, str]:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            tmp.cleanup()
            return {"exit": code, "chars": len(text)}, text

        return lambda: cli.main(argv), read_report
    chain = gen.uniform_dense(rng, n)

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
    if family == "loadsaved":
        save_model(M, path)
        return lambda: load_model(path), lambda M: described(model_to_dict(M))

    def read_back(_) -> tuple[dict, dict]:
        with open(path, encoding="utf-8") as fh:
            saved = json.load(fh)
        return described(saved)

    return lambda: save_model(M, path), read_back


if __name__ == "__main__":
    ladder.main(__file__, setup, FAMILIES,
                "tools/scale_load.py: load_model and save_model on uniform_dense, "
                f"pair-uniformize on replicated_blocks, seed {SEED}",
                "BENCH_load.json", "model_to_dict or report text")
