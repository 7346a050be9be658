"""Strong bisimulation, quasi-lumpability, connected components and the
split construction against the code they replaced.

The oracles below are the previous versions, kept verbatim apart from an
``_oracle`` suffix on their names: ``strong_bisim`` with per-round
signature dicts and an ``fsum`` over every member of every block for
every state, ``check_quasi_lumpability`` with the same sums,
``graph.components`` as sorted vertex lists built with one ``reach`` per
component, and ``split_construction`` with its per-entry loops.  The
library must give equal partitions with their blocks in the same order,
the same verdicts, the same components and byte-identical split chains.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import bisim, graph
from ctmcbisim.bisim import (
    PairRelation,
    Partition,
    SplitResult,
    SplitWitness,
    check_quasi_lumpability,
    epsilon_delta_bisim,
    extract_coupling,
    strong_bisim,
)
from ctmcbisim.errors import NotBisimilar
from ctmcbisim.model import Ctmc, direct_sum

from helpers import (
    random_bisimilar_pair,
    random_labeled_chain,
    random_rewarded_chain,
    random_uniform_chain,
)

# --------------------------------------------------------------------------
# oracles: the previous code, verbatim
# --------------------------------------------------------------------------


def strong_bisim_oracle(M: Ctmc) -> Partition:
    """Coarsest partition with equal labels, exit rates, rewards (when
    present), and block-transition probabilities; plain signature
    refinement."""
    labels = M.label_sets

    def base_sig(s: int):
        rw = float(M.rewards[s]) if M.rewards is not None else None
        return (labels[s], float(M.E[s]), rw)

    sig = {s: base_sig(s) for s in range(M.n)}
    while True:
        groups: dict = {}
        for s in range(M.n):
            groups.setdefault(sig[s], []).append(s)
        blocks = sorted(groups.values(), key=lambda b: b[0])
        block_of = {}
        for i, b in enumerate(blocks):
            for s in b:
                block_of[s] = i
        new_sig = {}
        for s in range(M.n):
            probs = tuple(math.fsum(float(M.P[s, m]) for m in sorted(b)) for b in blocks)
            new_sig[s] = (block_of[s], probs)
        next_groups: dict = {}
        for s in range(M.n):
            next_groups.setdefault(new_sig[s], []).append(s)
        if len(next_groups) == len(groups):
            return Partition(blocks=tuple(frozenset(b) for b in blocks))
        sig = new_sig


def check_quasi_lumpability_oracle(M: Ctmc, partition: Partition, tau: float) -> bool:
    """Same-block states' rates into every block must differ by at most tau
    (plus 1e-12 of slack)."""
    if partition.n != M.n:
        raise ValueError("partition does not cover the chain")
    if not tau >= 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau!r}")
    for block in partition.blocks:
        members = sorted(block)
        for target in partition.blocks:
            tgt = sorted(target)
            rates = [float(M.E[s]) * math.fsum(float(M.P[s, m]) for m in tgt) for s in members]
            if max(rates) - min(rates) > tau + 1e-12:
                return False
    return True


def components_oracle(index: graph.Index) -> list[list[int]]:
    """Connected components of a symmetric graph: each a sorted vertex
    list, the list ordered by smallest vertex."""
    done = np.zeros(len(index[0]) - 1, dtype=bool)
    out = []
    for v in range(len(done)):
        if not done[v]:
            members = sorted(graph.reach(index, [v]))
            done[members] = True
            out.append(members)
    return out


def split_construction_oracle(M: Ctmc, N: Ctmc, eps: float, delta: float) -> SplitResult:
    """Factor a related pair into a probability step and a rate step.

    Both outputs live on the product state space with N's labels and
    share one transition function: coupling-weighted moves where the
    component states are related, independent products elsewhere.  The
    first output keeps M's exit rates on related product states, the
    second always uses N's, so that
    M ~(eps,0) M' ~(0,delta) N' ~(0,0) N — the three witness relations
    are returned and re-checkable with :func:`is_bisimulation`.
    """
    joint = direct_sum(M, N)
    R = epsilon_delta_bisim(joint, eps, delta)
    off = M.n
    if (M.initial, N.initial + off) not in R.pairs:
        raise NotBisimilar(f"initial states are not ({eps},{delta})-related")

    nM, nN = M.n, N.n
    n_prod = nM * nN

    def pid(s: int, t: int) -> int:
        return s * nN + t

    ids = tuple(f"{M.ids[s]}&{N.ids[t]}" for s in range(nM) for t in range(nN))
    labels = tuple(N.labels[t] for _ in range(nM) for t in range(nN))
    P = np.zeros((n_prod, n_prod))
    E_m = np.empty(n_prod)
    E_n = np.empty(n_prod)
    related_prod: set[int] = set()

    for s in range(nM):
        for t in range(nN):
            p = pid(s, t)
            E_n[p] = N.E[t]
            if (s, t + off) in R.pairs:
                related_prod.add(p)
                E_m[p] = M.E[s]
                cpl = extract_coupling(joint, R, s, t + off, eps)
                for i, sp in enumerate(cpl.succ_source):
                    for j, tq in enumerate(cpl.succ_target):
                        w = cpl.weights[i, j]
                        if w > 0.0:
                            P[p, pid(sp, tq - off)] += float(M.P[s, sp]) * w
            else:
                E_m[p] = N.E[t]
                for sp in np.flatnonzero(M.P[s] > 0.0):
                    for tq in np.flatnonzero(N.P[t] > 0.0):
                        P[p, pid(int(sp), int(tq))] = float(M.P[s, sp]) * float(N.P[t, tq])

    goal = tuple(pid(s, t) for s in range(nM) for t in N.goal)
    fail = tuple(pid(s, t) for s in range(nM) for t in N.fail)
    initial = pid(M.initial, N.initial)
    m_prime = Ctmc(ids=ids, labels=labels, P=P, E=E_m, initial=initial, goal=goal, fail=fail)
    n_prime = Ctmc(ids=ids, labels=labels, P=P.copy(), E=E_n, initial=initial, goal=goal, fail=fail)

    sum1 = direct_sum(M, m_prime)
    r1 = PairRelation.from_off_diagonal(
        {(s, nM + p) for p in related_prod for s in (p // nN,)},
        n=nM + n_prod,
        eps=eps,
        delta=0.0,
    )
    sum2 = direct_sum(m_prime, n_prime)
    r2 = PairRelation.from_off_diagonal(
        {(p, n_prod + p) for p in range(n_prod)}, n=2 * n_prod, eps=0.0, delta=delta
    )
    sum3 = direct_sum(n_prime, N)
    r3 = PairRelation.from_off_diagonal(
        {(pid(s, t), n_prod + t) for s in range(nM) for t in range(nN)},
        n=n_prod + nN,
        eps=0.0,
        delta=0.0,
    )
    return SplitResult(
        m_prime=m_prime,
        n_prime=n_prime,
        relation=R,
        witnesses=(
            SplitWitness("probability-step", sum1, r1),
            SplitWitness("rate-step", sum2, r2),
            SplitWitness("projection", sum3, r3),
        ),
    )


# --------------------------------------------------------------------------
# chains
# --------------------------------------------------------------------------


def replicated(rng: np.random.Generator, M: Ctmc, copies: int) -> Ctmc:
    """``copies`` copies of every state of ``M``.  Each copy of ``s``
    splits every ``P(s, s')`` among the copies of ``s'`` in random
    small-integer shares, so the copies of a state are strongly bisimilar
    exactly when the float shares of their rows add up to the same block
    masses; a random copy may get its exit rate doubled."""
    n = M.n * copies
    P = np.zeros((n, n))
    for s in range(M.n):
        for i in range(copies):
            for sp in np.flatnonzero(M.P[s]).tolist():
                w = rng.integers(0, 3, size=copies)
                w[rng.integers(copies)] += 1
                P[s * copies + i, sp * copies : (sp + 1) * copies] = M.P[s, sp] * w / w.sum()
    E = np.repeat(M.E, copies)
    if rng.random() < 0.3:
        E[rng.integers(n)] *= 2.0
    return Ctmc(
        ids=tuple(f"{sid}.{i}" for sid in M.ids for i in range(copies)),
        labels=tuple(label for label in M.labels for _ in range(copies)),
        P=P,
        E=E,
        initial=M.initial * copies,
        rewards=None if M.rewards is None else np.repeat(M.rewards, copies),
    )


@st.composite
def chains(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["rewarded", "labeled", "uniform"]))
    if kind == "rewarded":
        M = random_rewarded_chain(rng)
    elif kind == "labeled":
        M = random_labeled_chain(rng, int(rng.integers(3, 9)))
    else:
        M = random_uniform_chain(rng)
    copies = draw(st.sampled_from([1, 1, 2, 3]))
    return M if copies == 1 else replicated(rng, M, copies)


def _same_partition(got: Partition, want: Partition) -> None:
    assert got == want
    assert [list(b) for b in got.blocks] == [list(b) for b in want.blocks]
    assert [got.block_of(s) for s in range(got.n)] == [want.block_of(s) for s in range(want.n)]


def _random_partition(rng: np.random.Generator, n: int) -> Partition:
    label = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
    blocks = [frozenset(np.flatnonzero(label == c).tolist()) for c in range(n)]
    return Partition(blocks=tuple(b for b in blocks if b))


def _worst_gap(M: Ctmc, partition: Partition) -> float:
    """The largest rate gap that the quasi-lumpability oracle compares."""
    gap = 0.0
    for block in partition.blocks:
        for target in partition.blocks:
            rates = [float(M.E[s]) * math.fsum(float(M.P[s, m]) for m in sorted(target)) for s in sorted(block)]
            gap = max(gap, max(rates) - min(rates))
    return gap


def _edge_taus(gap: float) -> list[float]:
    """tau values that put ``gap`` at ``tau + 1e-12`` and one step either side."""
    tau = max(gap - 1e-12, 0.0)
    return [t for t in (math.nextafter(tau, -math.inf), tau, math.nextafter(tau, math.inf)) if t >= 0.0]


# --------------------------------------------------------------------------
# strong bisimulation and quasi-lumpability
# --------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(M=chains())
def test_strong_bisim_matches_the_oracle(M):
    _same_partition(strong_bisim(M), strong_bisim_oracle(M))


@settings(max_examples=200, deadline=None)
@given(M=chains(), seed=st.integers(0, 2**32 - 1))
def test_quasi_lumpability_matches_the_oracle(M, seed):
    rng = np.random.default_rng(seed)
    for part in (strong_bisim_oracle(M), _random_partition(rng, M.n)):
        for tau in [0.0, 0.1, 1.0, *_edge_taus(_worst_gap(M, part))]:
            assert check_quasi_lumpability(M, part, tau) == check_quasi_lumpability_oracle(M, part, tau)


def _chain(rows: dict[int, dict[int, float]], labels: str, rates=None) -> Ctmc:
    """States labelled by the letters of ``labels``; a state without a row is absorbing."""
    n = len(labels)
    P = np.zeros((n, n))
    for s in range(n):
        for t, p in rows.get(s, {s: 1.0}).items():
            P[s, t] = p
    E = np.ones(n) if rates is None else np.array(rates, dtype=float)
    return Ctmc(ids=tuple(f"s{i}" for i in range(n)), labels=tuple((l,) for l in labels), P=P, E=E, initial=0)


def test_point_one_plus_point_two_is_not_point_three():
    # s0 puts 0.1 + 0.2 on the block {s2, s3, s4}, s1 puts 0.3 on it
    M = _chain({0: {2: 0.1, 3: 0.2, 5: 0.7}, 1: {4: 0.3, 5: 0.7}, 2: {5: 1.0}, 3: {5: 1.0}, 4: {5: 1.0}}, "aabbbg")
    assert math.fsum([0.1, 0.2]) != 0.3
    part = strong_bisim(M)
    _same_partition(part, strong_bisim_oracle(M))
    assert part.block_of(0) != part.block_of(1)
    assert part.block_of(2) == part.block_of(3) == part.block_of(4)


def test_ten_tenths_are_one():
    # s0 spreads ten 0.1 over the block {s2, ..., s11}, s1 puts 1.0 on s2:
    # the exact sums are equal although the float running sum is not
    assert sum([0.1] * 10) != 1.0 and math.fsum([0.1] * 10) == 1.0
    M = _chain({0: {t: 0.1 for t in range(2, 12)}, 1: {2: 1.0}}, "aa" + "b" * 10)
    part = strong_bisim(M)
    _same_partition(part, strong_bisim_oracle(M))
    assert part.block_of(0) == part.block_of(1)


@pytest.mark.parametrize("leak", [0.25, 0.1, 1 / 3, 0.3, 0.7])
@pytest.mark.parametrize("rate", [1.0, 3.0, 0.1])
def test_quasi_lumpability_at_the_slack_edge(leak, rate):
    # s1 leaks back into the block {s0, s1}, so the rates of s0 and s1 into
    # the goal block differ by about rate * leak
    M = _chain({0: {2: 1.0}, 1: {1: leak, 2: 1.0 - leak}}, "aag", rates=[rate, rate, 1.0])
    part = Partition((frozenset({0, 1}), frozenset({2})))
    gap = _worst_gap(M, part)
    taus = [gap - 1e-11, *_edge_taus(gap), gap]
    verdicts = [check_quasi_lumpability(M, part, tau) for tau in taus]
    assert verdicts == [check_quasi_lumpability_oracle(M, part, tau) for tau in taus]
    assert verdicts[0] is False and verdicts[-1] is True


# --------------------------------------------------------------------------
# components and the split construction
# --------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80), density=st.sampled_from([0.0, 0.01, 0.05, 0.3]))
def test_components_match_the_list_form(seed, n, density):
    rng = np.random.default_rng(seed)
    A = rng.random((n, n)) < density
    A = A | A.T | np.eye(n, dtype=bool) * (rng.random() < 0.5)
    index = graph.csr(A)
    label = graph.components(index)
    want = components_oracle(index)
    assert [np.flatnonzero(label == c).tolist() for c in range(len(want))] == want
    assert label.max() == len(want) - 1


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    tolerances=st.sampled_from([(0.0, 0.0), (0.1, 0.1), (0.25, 0.05), (0.5, 0.5)]),
)
def test_split_construction_matches_the_loops(seed, tolerances):
    eps, delta = tolerances
    M, N = random_bisimilar_pair(np.random.default_rng(seed), eps, delta, n_max=5)
    new, old = bisim.split_construction(M, N, eps, delta), split_construction_oracle(M, N, eps, delta)
    assert new.relation.pairs == old.relation.pairs
    for a, b in ((new.m_prime, old.m_prime), (new.n_prime, old.n_prime)):
        assert a.P.tobytes() == b.P.tobytes() and a.E.tobytes() == b.E.tobytes()
        assert (a.ids, a.labels, a.initial, a.goal, a.fail) == (b.ids, b.labels, b.initial, b.goal, b.fail)
    for a, b in zip(new.witnesses, old.witnesses):
        assert a.name == b.name and a.relation == b.relation
        assert a.chain.P.tobytes() == b.chain.P.tobytes() and a.chain.E.tobytes() == b.chain.E.tobytes()
