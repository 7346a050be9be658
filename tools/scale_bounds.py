"""Scaling ladder for the bound curves.

Usage, from the root of a checkout:

    python3 tools/scale_bounds.py --checkout PATH --label NAME [--out FILE]

Times the ``src/`` of the checkout at PATH at delta ``DELTA`` over
``time_grid(TMAX, STEPS)`` (the grid of the ``bounds`` command's defaults)
on the chains of ``bench/gen.py``'s ``uniform_dense`` at n = 60, 120 and
240 (seed ``SEED``):

* ``exact``: ``exact_diff_curve``; the time covers the whole call: the
  normal form, the hit-step series and the gap sums.  The rung records the
  curve's largest value, and the digest covers the whole curve.
* ``columns``: the ``bounds`` command with all six columns through
  ``cli.main``, on a model file that ``gen.write_model`` writes, untimed,
  into a temporary directory.  The time covers loading the file and
  printing the CSV; the rung records its number of lines, and the digest
  covers the CSV text.

FILE defaults to ``BENCH_bounds.json``; runs, skips and the digest check
are those of ``tools/ladder.py``.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile

import ladder

SEED = 0
DELTA = 0.1
TMAX, STEPS = 30.0, 60
COLUMNS = "exact,unif,erlangN,markov,spectral,combined"
FAMILIES = {"exact": (60, 120, 240), "columns": (60, 120, 240)}


def setup(family: str, n: int):
    """The ``exact_diff_curve`` call or the ``bounds`` command of one rung."""
    import numpy as np

    import gen
    from ctmcbisim import Ctmc, cli, exact_diff_curve, time_grid, validate

    chain = gen.uniform_dense(np.random.default_rng(SEED), n)
    if family == "exact":
        M = validate(Ctmc(**chain))
        grid = time_grid(TMAX, STEPS)
        return lambda: exact_diff_curve(M, DELTA, grid), lambda curve: ({"max_gap": float(curve.max())}, curve.tolist())
    tmp = tempfile.TemporaryDirectory()
    path = os.path.join(tmp.name, "model.json")
    gen.write_model(chain, path)
    argv = ["bounds", "-m", path, "--delta", str(DELTA), "--tmax", str(TMAX), "--steps", str(STEPS), "--which", COLUMNS]

    def run() -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if cli.main(argv) != 0:
                raise RuntimeError(f"bounds exited non-zero on n={n}")
        return out.getvalue()

    def described(text: str) -> tuple[dict, str]:
        tmp.cleanup()
        return {"lines": text.count("\n")}, text

    return run, described


if __name__ == "__main__":
    ladder.main(__file__, setup, FAMILIES,
                f"tools/scale_bounds.py: exact_diff_curve and bounds --which {COLUMNS} through cli.main,"
                f" delta {DELTA:g}, time_grid({TMAX:g}, {STEPS}), uniform_dense, seed {SEED}",
                "BENCH_bounds.json", "curve or CSV")
