"""Small named chains used by the demos and the test-suite.

Every builder returns a fresh :class:`~ctmcbisim.model.Ctmc`.  The chains
are deliberately tiny: each exists to exercise one feature (a known
relation, a known spectrum, a known closed-form reachability curve), and
the docstrings state the property that makes the chain useful.
"""

from __future__ import annotations

import math

from .model import Ctmc, make_ctmc


def erlang_chain(n: int, rate: float = 1.0) -> Ctmc:
    """A straight line of ``n`` transient states ending in the goal.

    The hitting time is Erlang(n, rate); the hitting-step distribution is
    the point mass on step ``n``.
    """
    if n < 1:
        raise ValueError("need at least one transient state")
    states = [(f"s{i}", ("a",), rate) for i in range(n)] + [("g", ("g",), rate)]
    transitions = [(f"s{i}", f"s{i + 1}" if i + 1 < n else "g", 1.0) for i in range(n)]
    transitions.append(("g", "g", 1.0))
    return make_ctmc(states, transitions, initial="s0", goal=("g",))


def two_state_loop(p: float, rate: float = 1.0) -> Ctmc:
    """One self-looping state draining into the goal with probability 1-p
    per jump.  Hitting steps are geometric; the jump matrix restricted to
    the transient part is the 1x1 matrix (p)."""
    if not 0.0 <= p < 1.0:
        raise ValueError("loop probability must lie in [0, 1)")
    return make_ctmc(
        [("s", ("a",), rate), ("g", ("g",), rate)],
        [("s", "s", p), ("s", "g", 1.0 - p), ("g", "g", 1.0)],
        initial="s",
        goal=("g",),
    )


def branch_merge_chain() -> Ctmc:
    """Four states, uniform rate 1: a fork whose branches merge into the
    goal.  The jump matrix is diagonalizable with eigenvalues
    1, 1/2, 1/4, 0 and slowest transient mode 1/2."""
    return make_ctmc(
        [("s0", (), 1.0), ("s1", (), 1.0), ("s2", (), 1.0), ("g", ("g",), 1.0)],
        [
            ("s0", "s0", 0.25), ("s0", "s1", 0.25), ("s0", "s2", 0.5),
            ("s1", "s1", 0.5), ("s1", "g", 0.5),
            ("s2", "s1", 0.5), ("s2", "g", 0.5),
            ("g", "g", 1.0),
        ],
        initial="s0",
        goal=("g",),
    )


def defective_chain() -> Ctmc:
    """Three states whose transient jump block is a single 2x2 Jordan cell
    at 1/2 -- not diagonalizable, so it forces the Jordan-form analysis."""
    return make_ctmc(
        [("s0", (), 1.0), ("s1", (), 1.0), ("g", ("g",), 1.0)],
        [
            ("s0", "s0", 0.5), ("s0", "s1", 0.25), ("s0", "g", 0.25),
            ("s1", "s1", 0.5), ("s1", "g", 0.5),
            ("g", "g", 1.0),
        ],
        initial="s0",
        goal=("g",),
    )


def parallel_erlang(lengths: tuple[int, ...]) -> Ctmc:
    """A uniform split into several disjoint lines of the given lengths,
    all ending in one shared goal, every exit rate 1.  The transient jump block is nilpotent
    with one Jordan cell per line, so the hitting-step distribution mixes
    point masses at 1 + length_i."""
    if not lengths or any(l < 1 for l in lengths):
        raise ValueError("need nonempty positive lengths")
    k = len(lengths)
    states = [("s0", ("a",), 1.0)]
    transitions = []
    for b, length in enumerate(lengths):
        for i in range(length):
            states.append((f"b{b}_{i}", ("a",), 1.0))
        transitions.append(("s0", f"b{b}_0", 1.0 / k))
        for i in range(length - 1):
            transitions.append((f"b{b}_{i}", f"b{b}_{i + 1}", 1.0))
        transitions.append((f"b{b}_{length - 1}", "g", 1.0))
    states.append(("g", ("g",), 1.0))
    transitions.append(("g", "g", 1.0))
    return make_ctmc(states, transitions, initial="s0", goal=("g",))


def multi_sink_chain() -> Ctmc:
    """Two transient states feeding one goal and two differently-labeled
    failure sinks.  Normalizing the goal merges the sinks, leaving two
    absorbing states, which exercises the multi-absorbing bookkeeping of
    the spectral routines."""
    return make_ctmc(
        [
            ("s0", (), 1.0), ("s1", (), 1.0),
            ("f1", ("x",), 1.0), ("f2", ("y",), 1.0), ("g", ("g",), 1.0),
        ],
        [
            ("s0", "s1", 1 / 3), ("s0", "f1", 1 / 3), ("s0", "g", 1 / 3),
            ("s1", "f2", 0.5), ("s1", "g", 0.5),
            ("f1", "f1", 1.0), ("f2", "f2", 1.0), ("g", "g", 1.0),
        ],
        initial="s0",
        goal=("g",),
        fail=("f1", "f2"),
    )


def escape_pair_chain(eps: float, q: float = 1.0) -> Ctmc:
    """One state escaping to the goal with probability ``eps`` per jump
    next to a twin that never escapes.

    The two a-states are (eps, 0)-bisimilar, and the difference of their
    reachability curves is exactly ``1 - exp(-q*t*eps)`` -- the worst case
    the uniformization bound allows, so the bound is tight here.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    return make_ctmc(
        [("s", ("a",), q), ("sp", ("a",), q), ("g", ("b",), q)],
        [
            ("s", "g", eps), ("s", "s", 1.0 - eps),
            ("sp", "sp", 1.0),
            ("g", "g", 1.0),
        ],
        initial="s",
        goal=("g",),
    )


def perturbed_loop_chain(eps: float, delta: float) -> Ctmc:
    """Five looping states over one goal whose rates sit at various points
    of the e^{+-delta} band and whose loop probabilities are nudged by
    eps-sized amounts.  Which pairs are (eps', delta')-bisimilar flips as
    eps' and delta' sweep past the built-in perturbations, so this is the
    standard family for exercising the relation computation."""
    if not 0.0 <= eps <= 5 / 6:
        raise ValueError("eps must lie in [0, 5/6]")
    ed = math.exp(delta)
    return make_ctmc(
        [
            ("s0", ("a",), 1.0),
            ("s1", ("a",), 1.0 / ed),
            ("s2", ("a",), ed),
            ("s3", ("a",), math.exp(delta / 2)),
            ("s4", ("a",), math.exp(-3 * delta / 2)),
            ("g", ("b",), 1.0),
        ],
        [
            ("s0", "s1", 1 / 6), ("s0", "s3", 1 / 3), ("s0", "s2", 1 / 2),
            ("s1", "s1", 1.0 - eps), ("s1", "g", eps),
            ("s2", "s2", 5 / 6 - eps), ("s2", "s1", 1 / 6 + eps),
            ("s3", "s3", 5 / 6), ("s3", "s4", 1 / 6),
            ("s4", "s4", 1.0 - eps / 2), ("s4", "s3", eps / 2),
            ("g", "g", 1.0),
        ],
        initial="s0",
        goal=("g",),
    )


def bisimilar_demo_pair(eps: float, delta: float) -> tuple[Ctmc, Ctmc]:
    """A two-chain pair that is (eps, delta)-bisimilar by construction:
    all a-states are mutually related, as are the b-states.  The second
    chain adds an eps-reachable trap state with a fresh label, so the
    relation is not a function and the interpolated-chain construction has
    real work to do."""
    if not 0.0 <= eps <= 0.5:
        raise ValueError("eps must lie in [0, 1/2]")
    ed, eh = math.exp(delta), math.exp(delta / 2)
    M = make_ctmc(
        [("s0", ("a",), 1.0), ("s1", ("a",), ed), ("s2", ("b",), eh)],
        [
            ("s0", "s1", 0.5), ("s0", "s2", 0.5),
            ("s1", "s1", 0.5), ("s1", "s2", 0.5),
            ("s2", "s2", 1.0),
        ],
        initial="s0",
        goal=("s2",),
    )
    N = make_ctmc(
        [("t0", ("a",), eh), ("t1", ("c",), 1.0 / ed), ("t2", ("b",), 1.0 / eh)],
        [
            ("t0", "t1", eps), ("t0", "t0", 0.5 - eps), ("t0", "t2", 0.5),
            ("t1", "t1", 1.0),
            ("t2", "t1", eps), ("t2", "t2", 1.0 - eps),
        ],
        initial="t0",
        goal=("t2",),
    )
    return M, N


def overflow_queue(tau: float) -> Ctmc:
    """A capacity-3 queue with uniform exit rate 1: arrivals win a jump
    with probability ``tau``, services with ``1 - tau``, and a fourth
    arrival overflows into the absorbing full state (the goal).  Smaller
    ``tau`` means more service/arrival churn before the overflow, pushing
    the slowest transient mode toward 1 -- the regime where
    truncation-based bounds degrade (mode 0.73 at tau=3/4 versus 0.98 at
    tau=1/3)."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    mu = 1.0 - tau
    return make_ctmc(
        [
            ("q0", (), 1.0), ("q1", (), 1.0), ("q2", (), 1.0), ("q3", (), 1.0),
            ("full", ("full",), 1.0),
        ],
        [
            ("q0", "q1", 1.0),
            ("q1", "q0", mu), ("q1", "q2", tau),
            ("q2", "q1", mu), ("q2", "q3", tau),
            ("q3", "q2", mu), ("q3", "full", tau),
            ("full", "full", 1.0),
        ],
        initial="q0",
        goal=("full",),
    )


def service_chains() -> tuple[Ctmc, Ctmc, Ctmc]:
    """Three variants of a two-state service loop over goal/fail sinks.

    The second variant raises the failure rate of s0 from 10 to 11 (a
    small rate change, tiny effect on the reachability curve); the third
    keeps all exit rates within 5% of the first but redistributes s1's
    jump probability from 1/2 to 1/21 toward the goal (a huge effect).
    Together they show why rate-difference notions of similarity mislead
    and probability/rate changes must be tracked separately.
    """

    def build(r_s0_fail: float, r_s1_goal: float, r_s1_back: float) -> Ctmc:
        e0 = 10.0 + r_s0_fail
        e1 = r_s1_goal + r_s1_back
        return make_ctmc(
            [
                ("s0", (), e0), ("s1", (), e1),
                ("f", ("fail",), 1.0), ("g", ("goal",), 1.0),
            ],
            [
                ("s0", "s1", 10.0 / e0), ("s0", "f", r_s0_fail / e0),
                ("s1", "g", r_s1_goal / e1), ("s1", "s0", r_s1_back / e1),
                ("f", "f", 1.0), ("g", "g", 1.0),
            ],
            initial="s0",
            goal=("g",),
            fail=("f",),
        )

    return (
        build(10.0, 1.0, 1.0),
        build(11.0, 1.0, 1.0),
        build(10.0, 0.1, 2.0),
    )


def quasi_lumpable_gap_chain(
    eps: float, delta: float, tau: float
) -> tuple[Ctmc, tuple[frozenset[int], ...]]:
    """A chain plus a partition that is exactly tau-quasi-lumpable while
    its only nontrivial block fails both the probability and the rate
    condition of an (eps, delta)-bisimulation.

    State s jumps straight to the goal; its partner sp spreads rate tau
    over n uniquely-labeled decoy sinks, with n chosen just large enough
    that the decoy mass exceeds what eps allows and sp's exit rate
    exceeds e^delta.
    """
    if not 0.0 < eps < 1.0 or tau <= 0.0 or delta < 0.0:
        raise ValueError("need eps in (0,1), tau > 0, delta >= 0")
    n = math.floor(max(eps * (tau + 1.0) / (tau * (1.0 - eps)), math.exp(delta) / tau - 1.0)) + 1
    e_sp = 1.0 + (n + 1) * tau
    states = [("s", ("a",), 1.0), ("sp", ("a",), e_sp), ("g", ("g",), 1.0)]
    transitions = [("s", "g", 1.0), ("sp", "g", (1.0 + tau) / e_sp), ("g", "g", 1.0)]
    for i in range(n):
        states.append((f"d{i}", (f"d{i}",), 1.0))
        transitions.append(("sp", f"d{i}", tau / e_sp))
        transitions.append((f"d{i}", f"d{i}", 1.0))
    M = make_ctmc(states, transitions, initial="s", goal=("g",))
    blocks = (frozenset({0, 1}), frozenset({2})) + tuple(
        frozenset({3 + i}) for i in range(n)
    )
    return M, blocks


def rewarded_tandem() -> Ctmc:
    """A three-stage line with a skippable zero-reward hop and distinct
    reward rates per stage; the budget question 'reach the end before
    spending r' has no closed form but is easy to simulate."""
    return make_ctmc(
        [
            ("s0", (), 1.0, 2.0),
            ("z", (), 4.0, 0.0),
            ("s1", (), 2.0, 0.5),
            ("g", ("g",), 1.0, 1.0),
            ("f", ("f",), 1.0, 0.0),
        ],
        [
            ("s0", "z", 0.5), ("s0", "s1", 0.25), ("s0", "f", 0.25),
            ("z", "z", 0.2), ("z", "s1", 0.8),
            ("s1", "s1", 0.25), ("s1", "g", 0.5), ("s1", "f", 0.25),
            ("g", "g", 1.0), ("f", "f", 1.0),
        ],
        initial="s0",
        goal=("g",),
        fail=("f",),
    )
