"""Scaling ladder for the seeded sampler (``simulate_paths``).

Usage, from the root of a checkout:

    python3 tools/scale_simulate.py --checkout PATH --label NAME [--out FILE]

Times ``simulate_paths`` from the ``src/`` of the checkout at PATH with
``PATHS`` paths and seed ``SEED`` at n = 200, 800 and 1600 on two
families of chains:

* ``uniform``: ``bench/gen.py``'s ``uniform_dense`` (the chain drawn from
  the same seed), up to t = ``HORIZON``;
* ``tail``: s0 jumps to the goal with probability 0.99 and otherwise into
  a ring of n - 2 states, each of which leaves the ring for the goal with
  probability 1/n; every rate is 1, and the horizon is 2n.  Most paths
  stop on their first jump, and the rest run for about n jumps, so the
  rounds of a call far outnumber the paths that each of them advances.

The time covers the whole call, the build of its draw table included.
Each rung records the number of hits and a digest of the whole
``SimulationResult``.  FILE defaults to ``BENCH_simulate.json``; runs,
skips and the digest check are those of ``tools/ladder.py``.
"""

from __future__ import annotations

import dataclasses

import ladder

SEED = 0
PATHS = 100_000
HORIZON = 10.0
FAMILIES = {"uniform": (200, 800, 1600), "tail": (200, 800, 1600)}


def tail_chain(n: int):
    """The ``tail`` chain of n states: s0, the ring r1 ... r(n-2), and g."""
    from ctmcbisim import make_ctmc

    ring = [f"r{i}" for i in range(1, n - 1)]
    transitions = [("s0", "g", 0.99), ("s0", ring[0], 0.01), ("g", "g", 1.0)]
    for i, r in enumerate(ring):
        transitions += [(r, ring[(i + 1) % len(ring)], 1.0 - 1.0 / n), (r, "g", 1.0 / n)]
    states = [(s, (), 1.0) for s in ["s0", *ring]] + [("g", ("g",), 1.0)]
    return make_ctmc(states, transitions, "s0", goal=["g"])


def setup(family: str, n: int):
    """The ``simulate_paths`` call of one rung."""
    import numpy as np

    import gen
    from ctmcbisim import Ctmc, simulate_paths, validate

    if family == "tail":
        M, horizon = tail_chain(n), 2.0 * n
    else:
        M, horizon = validate(Ctmc(**gen.uniform_dense(np.random.default_rng(SEED), n))), HORIZON
    return lambda: simulate_paths(M, PATHS, horizon, SEED), lambda res: ({"hits": res.hits}, dataclasses.asdict(res))


if __name__ == "__main__":
    ladder.main(__file__, setup, FAMILIES,
                f"tools/scale_simulate.py: simulate_paths, {PATHS} paths, t = {HORIZON:g} (uniform) or 2n (tail), seed {SEED}",
                "BENCH_simulate.json", "hits")
