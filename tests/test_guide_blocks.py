"""The sampler's guide table is built a block of rows at a time, in int32.

``_guide_table`` below is the earlier builder, copied verbatim apart from
an ``_oracle`` suffix: one pass over the whole of P, with a dense cumsum
and an int64 ``bincount`` key and guide.  The library's blocked build must
return the same ``c``, ``cols``, ``base`` and ``buckets`` bytes and the
same guide values, held as int32, whatever the block size; and the seeded
sampler must return the same results.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import graph, simulate_paths, transient

from helpers import random_dag_chain, random_labeled_chain, random_uniform_chain

_BELOW_ONE = np.nextafter(1.0, 0.0)
BLOCKS = (1, 2, 5, 17, 1 << 16)


def _guide_table_oracle(P: np.ndarray, succ: graph.Index) -> tuple[np.ndarray, ...]:
    indptr, cols = succ
    deg = np.diff(indptr)
    # over positive columns these are the bits of the dense row's cumsum
    # (adding 0.0 is exact and cumsum is sequential)
    c = np.cumsum(P, axis=1)[P > 0.0]
    # every draw that passes the row's other entries picks its last column,
    # whether or not it lies above the row's rounded sum
    c[indptr[1:] - 1] = np.inf
    buckets = np.left_shift(np.intp(1), np.frexp(deg - 1)[1])
    base = np.zeros(len(deg) + 1, dtype=np.intp)
    np.cumsum(buckets, out=base[1:])
    # an entry of row s counts as below k / B_s from table slot base[s] + k
    # on, k = floor(c * B_s) + 1 (exact, B_s being a power of two), and from
    # base[s + 1] on when c >= 1 (the inf too), where clamping c to the float
    # below 1.0 makes k = B_s; the entries of earlier rows all count from
    # base[s] on, so the count at slot t is the index guide[t] asks for
    key = np.minimum(c, _BELOW_ONE)
    key *= np.repeat(buckets, deg)
    key = key.astype(np.intp)
    key += np.repeat(base[:-1] + 1, deg)
    guide = np.bincount(key, minlength=base[-1] + 1)[:-1]
    del key
    np.cumsum(guide, out=guide)
    return c, cols, base, buckets, guide


FAMILIES = {"uniform": random_uniform_chain, "dag": random_dag_chain, "labeled": random_labeled_chain}


def _chain(kind: str, seed: int):
    return FAMILIES[kind](np.random.default_rng(seed))


@pytest.mark.parametrize("cells", BLOCKS)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 3_000), kind=st.sampled_from(sorted(FAMILIES)))
def test_blocks_build_the_one_pass_table(cells, seed, kind):
    M = _chain(kind, seed)
    with mock.patch.object(graph, "BLOCK_CELLS", cells):
        got = transient._guide_table(M.P, M.succ)
    want = _guide_table_oracle(M.P, M.succ)
    for a, b in zip(got[:4], want[:4]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got[4].dtype == np.int32 and np.array_equal(got[4], want[4])


@pytest.mark.parametrize("cells", (1, 3))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 3_000), kind=st.sampled_from(sorted(FAMILIES)))
def test_blocks_keep_the_seeded_results(cells, seed, kind):
    M = _chain(kind, seed)
    want = simulate_paths(M, 500, 3.0, seed)
    with mock.patch.object(graph, "BLOCK_CELLS", cells):
        assert simulate_paths(M, 500, 3.0, seed) == want
