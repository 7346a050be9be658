"""Scaling ladder for the seeded sampler (``simulate_paths``).

Usage, from the root of a checkout:

    python3 tools/scale_simulate.py --checkout PATH --label NAME [--out FILE]

Times ``simulate_paths`` from the ``src/`` of the checkout at PATH with
``PATHS`` paths up to t = ``HORIZON`` and seed ``SEED`` on the chains of
``bench/gen.py``'s ``uniform_dense`` at n = 200, 800 and 1600 (the chain
drawn from the same seed).  The time covers the whole call, the build of
its draw table included.  Each rung records the number of hits and a
digest of the whole ``SimulationResult``.  FILE defaults to
``BENCH_simulate.json``; runs, skips and the digest check are those of
``tools/ladder.py``.
"""

from __future__ import annotations

import dataclasses

import ladder

SEED = 0
PATHS = 100_000
HORIZON = 10.0
FAMILIES = {"uniform": (200, 800, 1600)}


def setup(family: str, n: int):
    """The ``simulate_paths`` call of one rung."""
    import numpy as np

    import gen
    from ctmcbisim import Ctmc, simulate_paths, validate

    M = validate(Ctmc(**gen.uniform_dense(np.random.default_rng(SEED), n)))
    return lambda: simulate_paths(M, PATHS, HORIZON, SEED), lambda res: ({"hits": res.hits}, dataclasses.asdict(res))


if __name__ == "__main__":
    ladder.main(__file__, setup, FAMILIES,
                f"tools/scale_simulate.py: simulate_paths, {PATHS} paths, t = {HORIZON:g}, seed {SEED}",
                "BENCH_simulate.json", "hits")
