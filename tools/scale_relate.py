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

The family ``classes`` times the fixpoint on the chains of
:func:`classes_chain` at eps 0.9, delta 0 and n = 500, 1000, 2000, whose
relations hold large classes; ``compose-classes`` takes the same chains,
computes the fixpoint untimed and times ``compose(R, R)``.

The family ``cross`` times the fixpoint at eps 0.1, delta 0.1 on the
direct sum of ``dense_labeled`` at n = 50, 100, 200 and its
:func:`cross_copy`: the pairs across the two chains are the only ones of
this ladder that reach the exact flow kernel.

Each rung records the number of related pairs and a digest of the
relation (on a compose rung, of the composed one), and on a verify rung
also of the ``RelationCheck``.  FILE
defaults to ``BENCH_relate.json``; runs, skips and the digest check are
those of ``tools/ladder.py``.
"""

from __future__ import annotations

import numpy as np

import ladder

SEED = 0
FAMILIES = {"sparse": (301, 1001, 3001), "dense": (50, 100, 200)}
FAMILIES.update({f"verify-{family}": rungs for family, rungs in FAMILIES.items()})
FAMILIES["classes"] = FAMILIES["compose-classes"] = (500, 1000, 2000)
FAMILIES["cross"] = (50, 100, 200)
#: (eps, delta) of each chain family
TOLERANCES = {"sparse": (0.1, 0.1), "dense": (0.1, 0.0), "classes": (0.9, 0.0), "cross": (0.1, 0.1)}


def classes_chain(rng, n: int) -> dict:
    """``n`` states labelled ``a`` and ``b`` in turn, all at rate 1, each
    jumping to 1 to 4 distinct random states with random probabilities.  At
    eps 0.9 a pair needs only 0.1 of its mass on related successors, so the
    greatest relation keeps most pairs of one label: two large classes."""
    P = np.zeros((n, n))
    for s in range(n):
        succ = rng.choice(n, size=rng.integers(1, 5), replace=False)
        w = rng.random(len(succ))
        P[s, succ] = w / w.sum()
    return {"ids": tuple(f"s{s}" for s in range(n)), "labels": tuple(("ab"[s % 2],) for s in range(n)),
            "P": P, "E": np.ones(n), "initial": 0, "goal": (), "fail": ()}


def cross_copy(rng, d: dict) -> dict:
    """A copy of the chain ``d`` whose jump probabilities are each scaled by
    ``1 + 0.05 U(0, 1)`` and renormalised, with rates 1.02 times as large
    and ids ``b{i}``.  In the direct sum of ``d`` and its copy, a pair
    across the two halves shares no successor, so no diagonal coupling
    passes it, and a pair of ``dense_labeled`` rows has too many successors
    for the cut enumeration: every such pair goes to the exact flow kernel."""
    P = d["P"] * (1 + 0.05 * rng.random(d["P"].shape))
    return {**d, "ids": tuple(f"b{i}" for i in range(len(d["ids"]))), "P": P / P.sum(axis=1, keepdims=True),
            "E": d["E"] * 1.02}


def setup(family: str, n: int):
    """The timed fixpoint of one rung, or its untimed fixpoint and the timed
    verification or composition."""
    import gen
    from ctmcbisim import Ctmc, compose, direct_sum, epsilon_delta_bisim, is_bisimulation, validate

    rng = np.random.default_rng(SEED)
    chains = family.removeprefix("verify-").removeprefix("compose-")
    eps, delta = TOLERANCES[chains]
    if chains == "classes":
        d = classes_chain(rng, n)
    else:
        d = gen.replicated_blocks(rng, n // gen.BLOCK, eps, delta) if chains == "sparse" else gen.dense_labeled(rng, n)
    M = validate(Ctmc(**d))
    if chains == "cross":
        M = validate(direct_sum(M, Ctmc(**cross_copy(rng, d))))
    if family == chains:
        return lambda: epsilon_delta_bisim(M, eps, delta), _related
    R = epsilon_delta_bisim(M, eps, delta)
    if family == "compose-classes":
        return lambda: compose(R, R), _related

    def described(check) -> tuple[dict, list]:
        off = R.off_diagonal()
        return {"related_pairs": len(off)}, [check.ok, check.pair, check.condition, check.detail, off]

    return lambda: is_bisimulation(M, R), described


def _related(R) -> tuple[dict, list]:
    off = R.off_diagonal()
    return {"related_pairs": len(off)}, off


if __name__ == "__main__":
    ladder.main(__file__, setup, FAMILIES,
                f"tools/scale_relate.py: epsilon_delta_bisim, is_bisimulation and compose, seed {SEED}", "BENCH_relate.json", "relation")
