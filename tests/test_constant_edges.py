"""Where the package's fixed slacks sit.

Three checks allow a fixed 1e-12 on top of their limit:
``check_quasi_lumpability`` on the rate gap over ``tau``,
``ParetoRegion.contains`` on the budget, and ``Ctmc.is_uniform`` on the
relative spread of the exit rates.  Each is probed just inside the slack
and 1e-11 past it.  The inside probes sit a rounding step below the edge,
so the float error of the probe itself cannot decide the outcome."""

import pytest

from ctmcbisim import make_ctmc
from ctmcbisim.bisim import Partition, check_quasi_lumpability
from ctmcbisim.erlang import pareto_region

INSIDE = 1e-12 - 1e-15
OUTSIDE = 1e-11


def _leaky_pair(leak: float):
    """States a and b in one block: a goes to the goal, b returns to itself
    with probability ``leak``, so their rates into each block differ by
    ``leak``."""
    M = make_ctmc(
        [("a", ("x",), 1.0), ("b", ("x",), 1.0), ("g", ("g",), 1.0)],
        [("a", "g", 1.0), ("b", "b", leak), ("b", "g", 1.0 - leak), ("g", "g", 1.0)],
        initial="a",
        goal=("g",),
    )
    return M, Partition((frozenset({0, 1}), frozenset({2})))


@pytest.mark.parametrize("tau", [0.25, 0.5])
def test_quasi_lumpability_slack(tau):
    assert check_quasi_lumpability(*_leaky_pair(tau), tau)
    assert check_quasi_lumpability(*_leaky_pair(tau + INSIDE), tau)
    assert not check_quasi_lumpability(*_leaky_pair(tau + OUTSIDE), tau)


@pytest.mark.parametrize("theta, q, t", [(0.1, 2.0, 3.0), (0.5, 1.0, 10.0)])
def test_pareto_contains_slack(theta, q, t):
    region = pareto_region(theta, q, t)
    edge = region.budget - 1.0  # the largest admissible eps at delta = 0
    assert region.contains(edge, 0.0)
    assert region.contains(edge + INSIDE, 0.0)
    assert not region.contains(edge + OUTSIDE, 0.0)


def _two_rates(r: float, spread: float):
    return make_ctmc(
        [("a", (), r), ("g", ("g",), r * (1.0 + spread))],
        [("a", "g", 1.0), ("g", "g", 1.0)],
        initial="a",
        goal=("g",),
    )


@pytest.mark.parametrize("r", [1.0, 3.0, 250.0])
def test_is_uniform_relative_spread(r):
    assert _two_rates(r, 0.0).is_uniform()
    assert _two_rates(r, INSIDE).is_uniform()
    assert not _two_rates(r, OUTSIDE).is_uniform()


def test_is_uniform_is_absolute_below_rate_one():
    # below rate 1 the 1e-12 applies to the rates themselves
    assert _two_rates(0.5, 2 * INSIDE).is_uniform()
    assert not _two_rates(0.5, 2 * OUTSIDE).is_uniform()
