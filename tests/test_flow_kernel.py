"""The exact integer max-flow kernel against the exact rational one it
replaced.

The oracle below is the previous implementation, kept verbatim: a
``Fraction`` Edmonds–Karp (``_max_flow``/``_pair_flow``) under the relation
fixpoint, the verifier, ``pair_flow_value`` and ``extract_coupling``.  Every
result of the library must equal the oracle's exactly: the relations, the
``RelationCheck`` fields with their detail text, the flow floats, the
coupling weights to the bit and the split-construction arrays.
"""

import tracemalloc
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import bisim, direct_sum, fixtures
from ctmcbisim.bisim import (
    DELTA_SLACK,
    FLOW_ETA,
    Coupling,
    PairRelation,
    RelationCheck,
)
from ctmcbisim.errors import PairNotRelated
from ctmcbisim.model import Ctmc

from helpers import (
    random_bisimilar_pair,
    random_labeled_chain,
    random_rewarded_chain,
    random_uniform_chain,
)

# --------------------------------------------------------------------------
# oracle: the exact rational flow code, verbatim
# --------------------------------------------------------------------------

_F0 = Fraction(0)
_F1 = Fraction(1)
_UNBOUNDED = Fraction(2)  # any s-t flow is <= 1, so capacity 2 never binds


def _max_flow(adj: dict[int, dict[int, Fraction]], source: int, sink: int) -> tuple[Fraction, dict]:
    """Edmonds–Karp; returns (value, flow per original edge)."""
    res: dict[int, dict[int, Fraction]] = {u: dict(nb) for u, nb in adj.items()}
    for u, nb in adj.items():
        for v in nb:
            res.setdefault(v, {}).setdefault(u, _F0)
    res.setdefault(source, {})
    res.setdefault(sink, {})
    total = _F0
    while True:
        parent: dict[int, int] = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, c in res[u].items():
                if v not in parent and c > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            break
        path = [sink]
        while path[-1] != source:
            path.append(parent[path[-1]])
        path.reverse()
        aug = min(res[path[i]][path[i + 1]] for i in range(len(path) - 1))
        for i in range(len(path) - 1):
            u, v = path[i], path[i + 1]
            res[u][v] -= aug
            res[v][u] += aug
        total += aug
    flows = {
        (u, v): cap - res[u][v] for u, nb in adj.items() for v, cap in nb.items() if cap > res[u][v]
    }
    return total, flows


def _pair_flow(
    P: np.ndarray, related: frozenset[tuple[int, int]] | set[tuple[int, int]], s: int, t: int
):
    """Transportation network for the pair (s, t); returns
    (flow value, per-edge flows, successor lists)."""
    succ_s = [int(a) for a in np.flatnonzero(P[s] > 0.0)]
    succ_t = [int(b) for b in np.flatnonzero(P[t] > 0.0)]
    src, snk = 0, 1
    node_s = {a: 2 + i for i, a in enumerate(succ_s)}
    node_t = {b: 2 + len(succ_s) + j for j, b in enumerate(succ_t)}
    adj: dict[int, dict[int, Fraction]] = {src: {}}
    for a, u in node_s.items():
        adj[src][u] = Fraction(float(P[s, a]))
        row = adj.setdefault(u, {})
        for b, v in node_t.items():
            if (a, b) in related:
                row[v] = _UNBOUNDED
    for b, v in node_t.items():
        adj.setdefault(v, {})[snk] = Fraction(float(P[t, b]))
    value, flows = _max_flow(adj, src, snk)
    edge_flow = {
        (a, b): flows.get((node_s[a], node_t[b]), _F0)
        for a in succ_s
        for b in succ_t
        if (a, b) in related
    }
    return value, edge_flow, succ_s, succ_t


def pair_flow_value(D: Ctmc, R: PairRelation, s: int, t: int) -> float:
    """The maximum mass placeable on related successor pairs (exactly
    ``1 - (smallest feasible eps)`` by LP duality)."""
    value, _, _, _ = _pair_flow(D.P, R.pairs, s, t)
    return float(value)



def extract_coupling(
    D: Ctmc, R: PairRelation, s: int, t: int, eps: float, eta: float = FLOW_ETA
) -> Coupling:
    """Max-flow transport on related pairs, completed to exact marginals
    by northwest-corner filling of the leftover supplies/demands."""
    value, edge_flow, succ_s, succ_t = _pair_flow(D.P, R.pairs, s, t)
    if value < _F1 - Fraction(float(eps)) - Fraction(float(eta)):
        raise PairNotRelated(
            f"flow {float(value):.12g} < 1 - eps for pair ({s},{t}); cannot extract a coupling"
        )
    P = D.P
    mass = {(a, b): f for (a, b), f in edge_flow.items() if f > 0}
    supply = {a: Fraction(float(P[s, a])) for a in succ_s}
    demand = {b: Fraction(float(P[t, b])) for b in succ_t}
    for (a, b), f in mass.items():
        supply[a] -= f
        demand[b] -= f
    j = 0
    last = len(succ_t) - 1
    for a in succ_s:
        while supply[a] > 0:
            if j > last:
                # the two rows rarely sum to exactly one in exact arithmetic,
                # so the leftovers can differ by an ulp; park the excess on
                # the final column, where it vanishes in the float weights
                mass[(a, succ_t[last])] = mass.get((a, succ_t[last]), _F0) + supply[a]
                supply[a] = _F0
                break
            b = succ_t[j]
            take = min(supply[a], demand[b])
            if take > 0:
                mass[(a, b)] = mass.get((a, b), _F0) + take
                supply[a] -= take
                demand[b] -= take
            if demand[b] == 0 and supply[a] > 0:
                j += 1
            elif supply[a] == 0:
                break
    weights = np.zeros((len(succ_s), len(succ_t)))
    for i, a in enumerate(succ_s):
        cap = Fraction(float(P[s, a]))
        for k, b in enumerate(succ_t):
            f = mass.get((a, b), _F0)
            if f > 0:
                weights[i, k] = float(f / cap)
    return Coupling(
        source=s,
        target=t,
        succ_source=tuple(succ_s),
        succ_target=tuple(succ_t),
        weights=weights,
        related_mass=float(value),
    )


def _initial_pairs(M: Ctmc, delta: float) -> set[tuple[int, int]]:
    lnE = np.log(M.E)
    labels = M.label_sets
    rel: set[tuple[int, int]] = set()
    for s in range(M.n):
        for t in range(M.n):
            if labels[s] != labels[t]:
                continue
            if abs(lnE[s] - lnE[t]) > delta + DELTA_SLACK:
                continue
            if M.rewards is not None and M.rewards[s] != M.rewards[t]:
                continue
            rel.add((s, t))
    return rel


def epsilon_delta_bisim(M: Ctmc, eps: float, delta: float, eta: float = FLOW_ETA) -> PairRelation:
    """Greatest fixpoint: start from the label/rate-compatible pairs and
    delete pairs failing the flow condition in either orientation until
    stable.  Deletions are batched per sweep: every check in a sweep runs
    against the relation as of the sweep's start.
    """
    rel = _initial_pairs(M, delta)
    threshold = _F1 - Fraction(float(eps)) - Fraction(float(eta))
    while True:
        frozen = frozenset(rel)
        drop = [
            (s, t)
            for (s, t) in sorted(frozen)
            if s < t
            and (
                _pair_flow(M.P, frozen, s, t)[0] < threshold
                or _pair_flow(M.P, frozen, t, s)[0] < threshold
            )
        ]
        if not drop:
            break
        for s, t in drop:
            rel.discard((s, t))
            rel.discard((t, s))
    return PairRelation(n=M.n, pairs=frozenset(rel), eps=eps, delta=delta)



def is_bisimulation(M: Ctmc, R: PairRelation, eta: float = FLOW_ETA) -> RelationCheck:
    """Verify label equality, the rate condition, and the flow condition
    for every pair; reports the first failure."""
    if R.n != M.n:
        raise ValueError("relation size does not match the chain")
    lnE = np.log(M.E)
    labels = M.label_sets
    threshold = _F1 - Fraction(float(R.eps)) - Fraction(float(eta))
    for s, t in sorted(R.pairs):
        if s >= t:
            continue
        if labels[s] != labels[t]:
            return RelationCheck(False, (s, t), "label", f"{labels[s]} != {labels[t]}")
        gap = abs(lnE[s] - lnE[t])
        if gap > R.delta + DELTA_SLACK:
            return RelationCheck(False, (s, t), "delta", f"|ln E(s) - ln E(t)| = {gap:.12g}")
        for a, b in ((s, t), (t, s)):
            value = _pair_flow(M.P, R.pairs, a, b)[0]
            if value < threshold:
                return RelationCheck(
                    False,
                    (a, b),
                    "eps",
                    f"max related mass {float(value):.12g} < 1 - eps",
                )
    return RelationCheck(True)


# --------------------------------------------------------------------------
# comparison
# --------------------------------------------------------------------------


def _coupling_or_error(fn, *args):
    try:
        return fn(*args)
    except PairNotRelated as e:
        return e


def _assert_same_coupling(new, old):
    if isinstance(old, PairNotRelated):
        assert isinstance(new, PairNotRelated) and str(new) == str(old)
        return
    assert isinstance(new, Coupling), new
    assert (new.source, new.target, new.succ_source, new.succ_target) == (
        old.source,
        old.target,
        old.succ_source,
        old.succ_target,
    )
    assert new.weights.shape == old.weights.shape
    assert new.weights.tobytes() == old.weights.tobytes()
    assert new.related_mass == old.related_mass


def _assert_same_results(M: Ctmc, eps: float, delta: float, eta: float = FLOW_ETA) -> PairRelation:
    """Fixpoint, verification, flow values and couplings agree with the
    oracle, on the fixpoint and on the (mostly failing) candidate relation."""
    R = bisim.epsilon_delta_bisim(M, eps, delta, eta)
    assert R.pairs == epsilon_delta_bisim(M, eps, delta, eta).pairs
    start = PairRelation(n=M.n, pairs=frozenset(_initial_pairs(M, delta)), eps=eps, delta=delta)
    for rel in (R, start):
        assert bisim.is_bisimulation(M, rel, eta) == is_bisimulation(M, rel, eta)
        for s, t in sorted(rel.pairs):
            assert bisim.extract_coupling(M, rel, s, t, 1.0).related_mass == pair_flow_value(M, rel, s, t)
            _assert_same_coupling(
                _coupling_or_error(bisim.extract_coupling, M, rel, s, t, eps, eta),
                _coupling_or_error(extract_coupling, M, rel, s, t, eps, eta),
            )
    return R


_TOLERANCES = st.sampled_from((0.0, 0.05, 0.1, 0.25, 0.5))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 9), eps=_TOLERANCES, delta=_TOLERANCES)
def test_labeled_chains_match_the_oracle(seed, n, eps, delta):
    _assert_same_results(random_labeled_chain(np.random.default_rng(seed), n), eps, delta)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), eps=_TOLERANCES, delta=_TOLERANCES)
def test_bisimilar_pairs_match_the_oracle(seed, eps, delta):
    M, N = random_bisimilar_pair(np.random.default_rng(seed), eps, delta)
    _assert_same_results(direct_sum(M, N), eps, delta)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), eps=_TOLERANCES)
def test_uniform_chains_match_the_oracle(seed, eps):
    _assert_same_results(random_uniform_chain(np.random.default_rng(seed), n_max=7), eps, 0.0)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), eps=_TOLERANCES, delta=_TOLERANCES)
def test_rewarded_chains_match_the_oracle(seed, eps, delta):
    _assert_same_results(random_rewarded_chain(np.random.default_rng(seed)), eps, delta)


def replicated_blocks(rng: np.random.Generator, blocks: int, copies: int, eps: float, delta: float) -> Ctmc:
    """``blocks`` blocks of ``copies`` near-copies plus a goal: each copy
    jumps to one random copy in each of three target blocks (the next block
    among them) with the block's probabilities moved by at most eps/4, and
    its rate scaled within e^(+-delta/2)."""
    n = blocks * copies + 1
    g = n - 1
    P = np.zeros((n, n))
    E = np.ones(n)
    labels = []
    for b in range(blocks):
        targets = [b + 1, *rng.choice(blocks, size=2, replace=False).tolist()]
        base = (rng.integers(1, 4, size=3) / 8.0) + 0.1
        base /= base.sum()
        rate = (1.0, 2.0)[b % 2]
        for c in range(copies):
            row = base.copy()
            shift = rng.uniform(0.0, eps / 4.0)
            row[0] -= shift
            row[1] += shift
            s = b * copies + c
            for tb, p in zip(targets, row):
                P[s, g if tb == blocks else tb * copies + int(rng.integers(copies))] += p
            E[s] = rate * float(np.exp(rng.uniform(-delta / 2.0, delta / 2.0)))
            labels.append(("ab"[(b // 2) % 2],))
    P[g, g] = 1.0
    labels.append(("g",))
    return Ctmc(ids=tuple(f"s{i}" for i in range(n)), labels=tuple(labels), P=P, E=E, initial=0, goal=(g,))


@pytest.mark.parametrize("seed", range(4))
def test_sparse_block_chains_match_the_oracle(seed):
    M = replicated_blocks(np.random.default_rng(seed), 4, 4, 0.1, 0.1)
    for eps in (0.0, 0.1):
        _assert_same_results(M, eps, 0.1)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), eps=_TOLERANCES, delta=_TOLERANCES)
def test_split_construction_matches_the_oracle(seed, eps, delta):
    M, N = random_bisimilar_pair(np.random.default_rng(seed), eps, delta, n_max=4)
    new = bisim.split_construction(M, N, eps, delta)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bisim, "epsilon_delta_bisim", epsilon_delta_bisim)
        mp.setattr(bisim, "extract_coupling", extract_coupling)
        old = bisim.split_construction(M, N, eps, delta)
    assert new.relation.pairs == old.relation.pairs
    for a, b in ((new.m_prime, old.m_prime), (new.n_prime, old.n_prime)):
        assert a.P.tobytes() == b.P.tobytes()
        assert a.E.tobytes() == b.E.tobytes()
    for a, b in zip(new.witnesses, old.witnesses):
        assert a.relation.pairs == b.relation.pairs
        assert a.chain.P.tobytes() == b.chain.P.tobytes()


# --------------------------------------------------------------------------
# boundary cases
# --------------------------------------------------------------------------


def _chain(rows: dict[int, dict[int, float]], labels: str, rates=None) -> Ctmc:
    n = len(labels)
    P = np.zeros((n, n))
    for s, row in rows.items():
        for t, p in row.items():
            P[s, t] = p
    for s in range(n):
        if s not in rows:
            P[s, s] = 1.0
    E = np.ones(n) if rates is None else np.array(rates, dtype=float)
    return Ctmc(
        ids=tuple(f"s{i}" for i in range(n)), labels=tuple((l,) for l in labels), P=P, E=E, initial=0
    )


# s0 and s1 share 0.75 of their mass on s2; the rest goes to two sinks of
# different labels, so the related mass of the pair is exactly 0.75
THREE_QUARTERS = _chain({0: {2: 0.75, 3: 0.25}, 1: {2: 0.75, 4: 0.25}}, "aabcd")


@pytest.mark.parametrize("eps, related", [(0.25, True), (float(np.nextafter(0.25, 0.0)), False)])
def test_related_mass_exactly_at_one_minus_eps(eps, related):
    R = _assert_same_results(THREE_QUARTERS, eps, 0.0, eta=0.0)
    assert ((0, 1) in R) is related
    probe = PairRelation.from_off_diagonal({(0, 1)}, THREE_QUARTERS.n, eps, 0.0)
    check = bisim.is_bisimulation(THREE_QUARTERS, probe, eta=0.0)
    assert check == is_bisimulation(THREE_QUARTERS, probe, eta=0.0)
    assert check.ok is related
    if not related:
        assert check.detail == "max related mass 0.75 < 1 - eps"
    assert bisim.extract_coupling(THREE_QUARTERS, probe, 0, 1, 1.0).related_mass == 0.75


@pytest.mark.parametrize("eps", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("eta", [0.0, FLOW_ETA])
def test_tolerance_at_least_one_relates_every_candidate_pair(eps, eta):
    M = random_labeled_chain(np.random.default_rng(7), 8)
    R = _assert_same_results(M, eps, 0.0, eta)
    assert R.pairs == frozenset(_initial_pairs(M, 0.0))


def test_subnormal_probabilities():
    tiny = 5e-324
    M = _chain({0: {2: 0.5, 3: 0.5, 4: tiny}, 1: {2: 0.5, 3: tiny, 4: 0.5}, 5: {3: 1.0 - 2**-53, 4: 2**-53}}, "aabbca")
    for eps in (0.0, 0.25, 0.5, 1.0):
        _assert_same_results(M, eps, 0.0, eta=0.0)
        _assert_same_results(M, eps, 0.0)
    R = PairRelation.from_off_diagonal({(0, 1), (0, 5), (2, 3)}, M.n, 0.5, 0.0)
    for s in (0, 1, 5):
        for t in (0, 1, 5):
            assert bisim.extract_coupling(M, R, s, t, 1.0).related_mass == pair_flow_value(M, R, s, t)
            _assert_same_coupling(
                _coupling_or_error(bisim.extract_coupling, M, R, s, t, 0.5, 0.0),
                _coupling_or_error(extract_coupling, M, R, s, t, 0.5, 0.0),
            )


def test_fixture_chains_match_the_oracle():
    for M, eps, delta in [
        (fixtures.perturbed_loop_chain(0.25, 0.5), 0.25, 0.5),
        (fixtures.escape_pair_chain(0.3), 0.3, 0.0),
    ]:
        _assert_same_results(M, eps, delta)


# --------------------------------------------------------------------------
# the worklist
# --------------------------------------------------------------------------


@pytest.mark.parametrize("eps, seed", [(0.1, 0), (0.1, 1), (0.0, 1)])
def test_worklist_rechecks_only_pairs_with_a_dropped_successor_pair(eps, seed):
    M = replicated_blocks(np.random.default_rng(seed), 8, 4, 0.1, 0.1)
    succ = [set(np.flatnonzero(M.P[s] > 0.0).tolist()) for s in range(M.n)]
    related = bisim._initial_related(M, 0.1)
    initial = related.copy()
    sweeps = [
        ([tuple(p) for p in c.tolist()], [tuple(p) for p in d.tolist()])
        for c, d in bisim._sweeps(M, related, eps, FLOW_ETA)
    ]
    assert len(sweeps) >= 2
    first, _ = sweeps[0]
    assert first == sorted((s, t) for s, t in np.argwhere(initial).tolist() if s < t)
    remaining = set(first)
    rechecked = resweep = 0
    for (_, dropped), (checked, _) in zip(sweeps, sweeps[1:]):
        remaining -= set(dropped)
        lost = {p for s, t in dropped for p in ((s, t), (t, s))}
        touched = {
            (s, t)
            for s, t in remaining
            if any((a, b) in lost for a in succ[s] for b in succ[t])
        }
        # every re-checked pair lost a successor pair, and every such pair is re-checked
        assert set(checked) == touched
        rechecked += len(checked)
        resweep += len(remaining)
    assert rechecked < resweep
    final = frozenset(map(tuple, np.argwhere(related).tolist()))
    assert final == epsilon_delta_bisim(M, eps, 0.1).pairs


def test_fixpoint_peak_memory():
    # n = 401 with 19,800 candidate pairs: the relation is one n x n boolean
    # matrix; per-state Python sets of it peaked above 10 MiB
    M = replicated_blocks(np.random.default_rng(0), 100, 4, 0.1, 0.1)
    tracemalloc.start()
    try:
        bisim.epsilon_delta_bisim(M, 0.1, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
