"""``make_ctmc`` builds P in one array pass.

The transitions stream once into a typed buffer of flat cells and one of
probabilities, and ``np.bincount`` sums them into P.  The loop below is
the builder's earlier one, ``P[idx[frm], idx[to]] += float(p)`` on a zero
matrix; P must have its dtype and bytes on repeated and shuffled entries,
signed zeros, NaN and infinities included, and on no entries at all.
Validation is switched off here, so that P can be compared whatever its
rows sum to; ``tests/test_chain_builder.py`` compares whole chains and
errors.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import model


def _old_matrix(ids, transitions) -> np.ndarray:
    idx = {sid: i for i, sid in enumerate(ids)}
    P = np.zeros((len(ids), len(ids)))
    # a sum that overflows to inf or meets inf - inf gives the value bincount gives, silently
    with np.errstate(over="ignore", invalid="ignore"):
        for frm, to, p in transitions:
            P[idx[frm], idx[to]] += float(p)
    return P


def _built(ids, transitions, monkeypatch) -> np.ndarray:
    monkeypatch.setattr(model, "validate", lambda M, renormalize=False: M)
    states = [(sid, (), 1.0) for sid in ids]
    return model.make_ctmc(states, transitions, ids[0]).P


def _assert_same(P, Q):
    assert P.dtype == Q.dtype == np.float64 and P.shape == Q.shape
    assert P.tobytes() == Q.tobytes()


PROBS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((0.0, -0.0, 0.1, 0.2, 0.7, 1.0, 1e-300, 5e-324)),
    st.integers(-3, 3),
)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 5),
    entries=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), PROBS), max_size=30),
    data=st.data(),
)
def test_repeated_and_shuffled_entries_keep_the_loops_bytes(n, entries, data):
    ids = [f"s{i}" for i in range(n)]
    transitions = [(ids[i % n], ids[j % n], p) for i, j, p in entries]
    transitions += data.draw(st.lists(st.sampled_from(transitions), max_size=10)) if transitions else []
    transitions = data.draw(st.permutations(transitions))
    with pytest.MonkeyPatch.context() as mp:
        _assert_same(_built(ids, transitions, mp), _old_matrix(ids, transitions))


@pytest.mark.parametrize("n", [1, 3])
def test_no_entries_give_a_float_zero_matrix(n, monkeypatch):
    # np.bincount counts in int64 when it has no weights to add
    ids = [f"s{i}" for i in range(n)]
    _assert_same(_built(ids, [], monkeypatch), np.zeros((n, n)))
    _assert_same(_built(ids, iter(()), monkeypatch), np.zeros((n, n)))


def test_an_entry_added_in_order_rounds_as_the_loop_does(monkeypatch):
    # 1e16 + 1 + 1 rounds to 1e16 one addition at a time, but the sum of
    # the ones first would be 1e16 + 2
    transitions = [("a", "b", 1e16), ("a", "b", 1.0), ("a", "b", 1.0), ("a", "b", -1e16)]
    P = _built(["a", "b"], transitions, monkeypatch)
    _assert_same(P, _old_matrix(["a", "b"], transitions))
    assert P[0, 1] == 0.0 and math.fsum(p for *_, p in transitions) == 2.0
