"""Scaling ladder for the exact bound curve (``exact_diff_curve``).

Usage, from the root of a checkout:

    python3 tools/scale_bounds.py --checkout PATH --label NAME [--out FILE]

Times ``exact_diff_curve`` from the ``src/`` of the checkout at PATH at
delta ``DELTA`` over ``time_grid(TMAX, STEPS)`` (the grid of the ``bounds``
command's defaults) on the chains of ``bench/gen.py``'s ``uniform_dense``
at n = 60, 120 and 240 (seed ``SEED``).  The time covers the whole call:
the normal form, the hit-step series and the gap sums.  Each rung records
the curve's largest value and a digest of the whole curve.  FILE defaults
to ``BENCH_bounds.json``; runs, skips and the digest check are those of
``tools/ladder.py``.
"""

from __future__ import annotations

import ladder

SEED = 0
DELTA = 0.1
TMAX, STEPS = 30.0, 60
FAMILIES = {"exact": (60, 120, 240)}


def setup(family: str, n: int):
    """The ``exact_diff_curve`` call of one rung."""
    import numpy as np

    import gen
    from ctmcbisim import Ctmc, exact_diff_curve, time_grid, validate

    M = validate(Ctmc(**gen.uniform_dense(np.random.default_rng(SEED), n)))
    grid = time_grid(TMAX, STEPS)
    return lambda: exact_diff_curve(M, DELTA, grid), lambda curve: ({"max_gap": float(curve.max())}, curve.tolist())


if __name__ == "__main__":
    ladder.main(__file__, setup, FAMILIES,
                f"tools/scale_bounds.py: exact_diff_curve, delta {DELTA:g}, time_grid({TMAX:g}, {STEPS}),"
                f" uniform_dense, seed {SEED}", "BENCH_bounds.json", "curve")
