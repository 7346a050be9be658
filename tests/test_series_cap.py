"""One truncation rule for the bound series.

Every truncated bound series (the exact and Markov Erlang series, the
diagonal geometric tail and the Jordan envelope) tries the lengths
``transient._lengths`` gives, up to its module's ``MAX_TERMS``, and never
one past it.  A Jordan envelope whose ratio test certifies no tail by the
cap raises ``TruncationLimit``.  The diagonal and Jordan routes decompose
within the caller's ``tol``, as ``spectral_curve`` does.
"""

from __future__ import annotations

from unittest import mock

import pytest

from ctmcbisim import fixtures, make_ctmc, spectral
from ctmcbisim.errors import DecompositionUnstable, TruncationLimit
from ctmcbisim.transient import _lengths

from test_shared_rules import _calls

# ---------------------------------------------------------------- the schedule


@pytest.mark.parametrize("cap", [1, 2, 63, 64, 100, 3000, 2**22])
@pytest.mark.parametrize("first", [1, 64, 256, 300])
def test_lengths_ascend_from_first_to_the_cap(first, cap):
    lengths = _lengths(first, cap)
    assert all(a < b for a, b in zip(lengths, lengths[1:]))
    assert lengths[0] == min(first, cap)
    assert lengths[-1] == cap
    assert lengths[1:-1] == [first << j for j in range(1, len(lengths) - 1)]


# ---------------------------------------------------------------- the spectral caps


def _jordan_cell():
    """The transient jump block is one 2x2 Jordan cell at 0.9999, so the
    envelope's ratio test finds no tail below K = 10^4."""
    return make_ctmc(
        [("s0", (), 1.0), ("s1", (), 1.0), ("g", ("g",), 1.0)],
        [("s0", "s0", 0.9999), ("s0", "s1", 5e-5), ("s0", "g", 5e-5),
         ("s1", "s1", 0.9999), ("s1", "g", 1e-4), ("g", "g", 1.0)],
        initial="s0",
        goal=("g",),
    )


@pytest.mark.parametrize("cap", [256, 1000, 1024])
@pytest.mark.parametrize("route", [spectral.diag_bound, spectral.jordan_bound])
def test_spectral_series_stop_at_the_cap(route, cap):
    # loop mode 0.999: the tail drops below 1e-9 only after about 2e4 terms
    M = fixtures.two_state_loop(0.999)
    with mock.patch.object(spectral, "MAX_TERMS", cap):
        terms = _calls("_gap_rows", lambda: route(M, 0.1, [1.0, 50.0]), 2)
    assert terms == [cap]


@pytest.mark.parametrize("cap", [256, 1000, 1024])
def test_jordan_route_raises_when_no_tail_is_certified_by_the_cap(cap):
    def run():
        with pytest.raises(TruncationLimit, match=f"after {cap} steps"):
            spectral.jordan_bound(_jordan_cell(), 0.1, [1.0, 50.0])

    with mock.patch.object(spectral, "MAX_TERMS", cap):
        assert _calls("_gap_rows", run, 2) == []


def test_default_cap_keeps_the_doubled_lengths():
    # 256, 512, ...: the ratio test certifies a tail from 16384 on, and that
    # tail falls below 1e-9 at 524288
    terms = _calls("_gap_rows", lambda: spectral.jordan_bound(_jordan_cell(), 0.1, [1.0]), 2)
    assert terms == [524288]


# ---------------------------------------------------------------- one tolerance


@pytest.mark.parametrize(
    "route, chain",
    [(spectral.diag_bound, fixtures.branch_merge_chain), (spectral.jordan_bound, fixtures.defective_chain)],
)
def test_spectral_routes_decompose_within_tol(route, chain):
    for call in (spectral.spectral_curve, route):
        with pytest.raises(DecompositionUnstable):
            call(chain(), 0.1, [1.0], tol=1e-17)
