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
from .model import Ctmc, direct_sum, normalize_goal, prune_unreachable, uniformize
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
        return timed_reach_curve(normalize_goal(prune_unreachable(M)), ts)
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
    R0 = PairRelation.from_off_diagonal(R.off_diagonal(), R.n, 0.0, delta)
    check = is_bisimulation(D, R0)
    if not check:
        raise NotZeroDeltaBisim(
            f"pair {check.pair} fails the {check.condition} condition: {check.detail}"
        )

    E_m = np.array(M.E, dtype=float)
    E_n = np.array(N.E, dtype=float)
    for block in R0.classes().blocks:
        m_side = [i for i in block if i < nm]
        n_side = [i - nm for i in block if i >= nm]
        if m_side:
            e_min = min(float(M.E[i]) for i in m_side)
        else:
            # Class living entirely in N: leave those rates in place (up to
            # the slow-down to the class minimum on N's own side).
            e_min = min(float(N.E[j]) for j in n_side) / ed
        for i in m_side:
            E_m[i] = e_min
        for j in n_side:
            E_n[j] = e_min * ed

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
        lo_m, orig_m, orig_n, hi_n = curves
        for k in range(len(ORDERING_GRID)):
            ordered = (
                lo_m[k] <= orig_m[k] + ORDERING_TOL
                and orig_m[k] <= orig_n[k] + ORDERING_TOL
                and orig_n[k] <= hi_n[k] + ORDERING_TOL
            )
            if not ordered:
                warnings.warn(
                    f"reachability values at t={ORDERING_GRID[k]} are not in the"
                    " assumed slow<=original<=fast order; the transformed pair is"
                    " returned unchecked",
                    OrderingAssumptionViolated,
                    stacklevel=2,
                )
                break

    return PairUniformResult(m_uniform=Mu, n_uniform=Nu, q_m=q_m, q_n=q_n, relation=R0)
