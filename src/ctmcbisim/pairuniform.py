"""Joint uniformization of a rate-tolerant chain pair.

Given two chains whose states are matched by a *transitive* relation that
tolerates only an ``e^delta`` rate ratio (no probability slack), the pair
can be reshaped into two uniform chains whose rates differ by exactly that
factor: each related class is slowed to the smallest first-chain rate it
contains, the second chain is pinned at ``e^delta`` times that, and both
are then uniformized at rates with the same exact ratio.  The relation
survives the surgery, and the reachability gap of the original pair is
bracketed by the gap of the transformed one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bisim import PairRelation, is_bisimulation
from .erlang import rate_factor
from .errors import CtmcError, NotTransitive, NotZeroDeltaBisim, OrderingAssumptionViolated
from .model import Ctmc, _normal_form, direct_sum, uniformize
from .transient import timed_reach_curve

ORDERING_GRID = (0.5, 1.0, 2.0, 5.0)
ORDERING_TOL = 1e-9


@dataclass(frozen=True)
class PairUniformResult:
    """The two uniform chains plus the rates and relation that tie them.

    Iterating yields ``(m_uniform, n_uniform)`` so the result unpacks like
    a plain pair.
    """

    m_uniform: Ctmc
    n_uniform: Ctmc
    q_m: float
    q_n: float
    relation: PairRelation

    def __iter__(self):
        return iter((self.m_uniform, self.n_uniform))


def _reach_curve(M: Ctmc, ts) -> np.ndarray | None:
    """Goal-reaching probabilities on a small grid, or None when the chain
    has no usable goal marking."""
    try:
        return timed_reach_curve(_normal_form(M), ts)
    except (CtmcError, ValueError):
        return None


def uniformize_pair(M: Ctmc, N: Ctmc, R: PairRelation, delta: float) -> PairUniformResult:
    """Reshape (M, N) into uniform chains at rates ``q`` and ``q * e^delta``.

    R must be a transitive relation over the direct sum of M and N that
    holds with probability slack 0 and rate slack delta; it is re-verified
    on the transformed pair before returning.  When the expected ordering
    of reachability values (slowed M below M below N below sped-up N) does
    not hold on a spot-check grid, an :class:`OrderingAssumptionViolated`
    warning is emitted and the result is still returned.
    """
    ed = rate_factor(delta)
    nm, nn = M.n, N.n
    if R.n != nm + nn:
        raise ValueError(f"relation covers {R.n} states, the pair has {nm + nn}")
    if not R.is_transitive():
        raise NotTransitive("class-wise rate surgery needs a transitive relation")

    D = direct_sum(M, N)
    R0 = R.classes().as_relation(0.0, delta)
    check = is_bisimulation(D, R0)
    if not check:
        raise NotZeroDeltaBisim(
            f"pair {check.pair} fails the {check.condition} condition: {check.detail}"
        )

    # R is transitive, so the components it labels are the classes of R0.
    # Each class takes its smallest first-chain rate; a class living
    # entirely in N keeps the smallest of its own rates, slowed down by e^delta.
    label = R._label
    lowest = np.full((2, label.max() + 1), np.inf)
    np.minimum.at(lowest[0], label[:nm], M.E)
    np.minimum.at(lowest[1], label[nm:], N.E)
    e_min = np.where(lowest[0] < np.inf, lowest[0], lowest[1] / ed)
    E_m, E_n = e_min[label[:nm]], e_min[label[nm:]] * ed

    # One shared base rate so the ratio of the two uniformization rates is
    # e^delta by construction, not by cancellation.
    q_m = max(float(E_m.max()), float(E_n.max()) / ed)
    q_n = q_m * ed

    Mu = uniformize(replace(M, E=E_m), q_m)
    Nu = uniformize(replace(N, E=E_n), q_n)

    recheck = is_bisimulation(direct_sum(Mu, Nu), R0)
    if not recheck:
        raise NotZeroDeltaBisim(
            f"relation broke during uniformization at pair {recheck.pair}"
            f" ({recheck.condition}: {recheck.detail})"
        )

    curves = [_reach_curve(X, ORDERING_GRID) for X in (Mu, M, N, Nu)]
    if all(c is not None for c in curves):
        C = np.stack(curves)  # rows: slowed M, M, N, sped-up N
        ordered = np.all(C[:-1] <= C[1:] + ORDERING_TOL, axis=0)
        if not ordered.all():
            warnings.warn(
                f"reachability values at t={ORDERING_GRID[int(np.argmin(ordered))]} are not in the"
                " assumed slow<=original<=fast order; the transformed pair is"
                " returned unchecked",
                OrderingAssumptionViolated,
                stacklevel=2,
            )

    return PairUniformResult(m_uniform=Mu, n_uniform=Nu, q_m=q_m, q_n=q_n, relation=R0)
