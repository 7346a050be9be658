"""``model_to_dict`` writes what the plain n x n walk over P writes.

The writer reads the positive entries of P with one ``np.nonzero`` pass;
the walk below, kept as the reference, visits every entry in row-major
order.  The two must give the same JSON text: the same transitions, in the
same order, with the same floats."""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import fixtures
from ctmcbisim.model import model_from_dict, model_to_dict, uniformize

from helpers import random_labeled_chain, random_rewarded_chain, random_uniform_chain


def _walk_transitions(M) -> list[dict]:
    return [
        {"from": M.ids[i], "to": M.ids[j], "prob": float(M.P[i, j])}
        for i in range(M.n)
        for j in range(M.n)
        if M.P[i, j] > 0.0
    ]


def _same_as_walk(M) -> None:
    d = model_to_dict(M)
    assert json.dumps(d["transitions"]) == json.dumps(_walk_transitions(M))
    assert json.dumps(model_to_dict(model_from_dict(d))) == json.dumps(d)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(("labeled", "rewarded", "uniform")))
def test_writer_matches_the_walk(seed, kind):
    rng = np.random.default_rng(seed)
    M = {
        "labeled": random_labeled_chain,
        "rewarded": random_rewarded_chain,
        "uniform": random_uniform_chain,
    }[kind](rng)
    _same_as_walk(M)
    _same_as_walk(uniformize(M, 1.7 * M.max_rate()))


def test_writer_on_fixtures():
    for M in (fixtures.multi_sink_chain(), fixtures.rewarded_tandem(), fixtures.perturbed_loop_chain(0.1, 0.2)):
        _same_as_walk(M)
