"""Approximate bisimulation relations for labeled Markov chains.

The additive successor-probability condition ``P(s, A) <= P(t, R(A)) + eps``
is decided through its transportation reformulation: a maximum flow from
the successors of ``s`` to the successors of ``t`` along related pairs,
which must carry at least ``1 - eps`` mass.  Flows run over exact
rationals (every float is one), so boundary instances where the optimum
equals ``1 - eps`` exactly cannot flap; a tolerance ``eta`` absorbs only
the rounding already present in the inputs.

Included: pair checks and witness couplings, the greatest-fixpoint
relation at (eps, delta), strong bisimulation by partition refinement,
quasi-lumpability, and the product ("split") construction that factors a
related pair of chains into a probability-only and a rate-only step.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import NotBisimilar, PairNotRelated
from .model import Ctmc, _expect, _number, direct_sum

FLOW_ETA = 1e-9
DELTA_SLACK = 1e-12

_F0 = Fraction(0)
_F1 = Fraction(1)
_UNBOUNDED = Fraction(2)  # any s-t flow is <= 1, so capacity 2 never binds


# --------------------------------------------------------------------------
# relations and partitions
# --------------------------------------------------------------------------


def reflexive_symmetric_closure(pairs: Iterable[tuple[int, int]], n: int) -> frozenset[tuple[int, int]]:
    out = {(s, s) for s in range(n)}
    for s, t in pairs:
        out.add((s, t))
        out.add((t, s))
    return frozenset(out)


@dataclass(frozen=True)
class PairRelation:
    """Reflexive symmetric relation on state indices with its tolerances."""

    n: int
    pairs: frozenset[tuple[int, int]]
    eps: float
    delta: float

    def __post_init__(self):
        for s in range(self.n):
            if (s, s) not in self.pairs:
                raise ValueError(f"relation is not reflexive: missing ({s},{s})")
        for s, t in self.pairs:
            if (t, s) not in self.pairs:
                raise ValueError(f"relation is not symmetric: ({s},{t}) without ({t},{s})")
            if not (0 <= s < self.n and 0 <= t < self.n):
                raise ValueError(f"pair ({s},{t}) out of range")

    @classmethod
    def from_off_diagonal(
        cls, pairs: Iterable[tuple[int, int]], n: int, eps: float, delta: float
    ) -> "PairRelation":
        return cls(n=n, pairs=reflexive_symmetric_closure(pairs, n), eps=eps, delta=delta)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self.pairs

    def related_to(self, s: int) -> frozenset[int]:
        return frozenset(t for (a, t) in self.pairs if a == s)

    def off_diagonal(self) -> list[tuple[int, int]]:
        return sorted((s, t) for (s, t) in self.pairs if s < t)

    def is_transitive(self) -> bool:
        related = {s: set() for s in range(self.n)}
        for s, t in self.pairs:
            related[s].add(t)
        return all(related[t] <= related[s] for s in range(self.n) for t in related[s])

    def transitive_closure(self) -> "PairRelation":
        related = {s: {t for (a, t) in self.pairs if a == s} for s in range(self.n)}
        changed = True
        while changed:
            changed = False
            for s in range(self.n):
                grown = set().union(*(related[t] for t in related[s]))
                if not grown <= related[s]:
                    related[s] |= grown
                    changed = True
        pairs = frozenset((s, t) for s in range(self.n) for t in related[s])
        return PairRelation(n=self.n, pairs=pairs, eps=self.eps, delta=self.delta)

    def classes(self) -> "Partition":
        """Equivalence classes; the relation must be transitive."""
        if not self.is_transitive():
            raise ValueError("relation is not transitive; no well-defined classes")
        seen: set[int] = set()
        blocks = []
        for s in range(self.n):
            if s in seen:
                continue
            cls_ = frozenset(self.related_to(s))
            seen |= cls_
            blocks.append(cls_)
        return Partition(blocks=tuple(blocks))


@dataclass(frozen=True)
class Partition:
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for b in self.blocks:
            if seen & b:
                raise ValueError("blocks are not disjoint")
            seen |= b
        if seen != set(range(len(seen))) or not seen:
            raise ValueError("blocks do not cover a 0..n-1 state range")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    def block_of(self, s: int) -> int:
        for i, b in enumerate(self.blocks):
            if s in b:
                return i
        raise KeyError(s)

    def as_relation(self, eps: float = 0.0, delta: float = 0.0) -> PairRelation:
        pairs = frozenset((s, t) for b in self.blocks for s in b for t in b)
        return PairRelation(n=self.n, pairs=pairs, eps=eps, delta=delta)


def compose(R1: PairRelation, R2: PairRelation) -> PairRelation:
    """Relational composition with summed tolerances (then made
    reflexive-symmetric), the witness behind additivity of (eps, delta)."""
    if R1.n != R2.n:
        raise ValueError("relations live on different state counts")
    r2 = {s: R2.related_to(s) for s in range(R2.n)}
    pairs = {(s, u) for (s, t) in R1.pairs for u in r2[t]}
    return PairRelation(
        n=R1.n,
        pairs=reflexive_symmetric_closure(pairs, R1.n),
        eps=R1.eps + R2.eps,
        delta=R1.delta + R2.delta,
    )


# --------------------------------------------------------------------------
# max-flow machinery (exact rationals)
# --------------------------------------------------------------------------


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


# --------------------------------------------------------------------------
# couplings
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Coupling:
    """Transport plan from Succ(source) to Succ(target).

    ``weights[i, j]`` is the fraction of ``P(source, succ_source[i])``
    shipped to ``succ_target[j]``; every row sums to 1, the
    target-marginal is exact, and at least ``1 - eps`` of the total mass
    rides on related pairs.
    """

    source: int
    target: int
    succ_source: tuple[int, ...]
    succ_target: tuple[int, ...]
    weights: np.ndarray
    related_mass: float

    def target_marginal(self, P: np.ndarray) -> np.ndarray:
        supply = P[self.source, list(self.succ_source)]
        return supply @ self.weights

    def mass_on(self, P: np.ndarray, related: frozenset[tuple[int, int]]) -> float:
        total = 0.0
        for i, a in enumerate(self.succ_source):
            for j, b in enumerate(self.succ_target):
                if (a, b) in related:
                    total += float(P[self.source, a]) * float(self.weights[i, j])
        return total


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


# --------------------------------------------------------------------------
# relation computation / verification
# --------------------------------------------------------------------------


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


@dataclass(frozen=True)
class RelationCheck:
    ok: bool
    pair: tuple[int, int] | None = None
    condition: str | None = None  # "label" | "delta" | "eps"
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


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


def strong_bisim(M: Ctmc) -> Partition:
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


def check_quasi_lumpability(M: Ctmc, partition: Partition, tau: float, slack: float = 1e-12) -> bool:
    """Same-block states' rates into every block must differ by at most tau."""
    if partition.n != M.n:
        raise ValueError("partition does not cover the chain")
    for block in partition.blocks:
        members = sorted(block)
        for target in partition.blocks:
            tgt = sorted(target)
            rates = [float(M.E[s]) * math.fsum(float(M.P[s, m]) for m in tgt) for s in members]
            if max(rates) - min(rates) > tau + slack:
                return False
    return True


# --------------------------------------------------------------------------
# split construction
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitWitness:
    name: str
    chain: Ctmc
    relation: PairRelation


@dataclass(frozen=True)
class SplitResult:
    m_prime: Ctmc
    n_prime: Ctmc
    relation: PairRelation  # the (eps, delta) relation on M + N that drove the construction
    witnesses: tuple[SplitWitness, SplitWitness, SplitWitness]

    def __iter__(self):
        yield self.m_prime
        yield self.n_prime


def split_construction(M: Ctmc, N: Ctmc, eps: float, delta: float) -> SplitResult:
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
# relation serialization
# --------------------------------------------------------------------------


def relation_to_dict(R: PairRelation, chain: Ctmc) -> dict:
    pairs = [[chain.ids[s], chain.ids[t]] for s, t in R.off_diagonal()]
    return {"pairs": pairs, "eps": R.eps, "delta": R.delta}


def relation_from_dict(d: dict, chain: Ctmc) -> PairRelation:
    pairs = set()
    for pair in _expect(_expect(d, dict, "relation").get("pairs", []), list, "pairs"):
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(s, str) for s in pair)):
            raise ValueError(f"relation pair {pair!r} is not a pair of state ids")
        pairs.add((chain.index(pair[0]), chain.index(pair[1])))
    eps, delta = _number(d.get("eps", 0.0), "eps"), _number(d.get("delta", 0.0), "delta")
    return PairRelation.from_off_diagonal(pairs, n=len(chain.ids), eps=eps, delta=delta)


def save_relation(R: PairRelation, chain: Ctmc, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(relation_to_dict(R, chain), fh, indent=2)
        fh.write("\n")


def load_relation(path: str, chain: Ctmc) -> PairRelation:
    with open(path, "r", encoding="utf-8") as fh:
        return relation_from_dict(json.load(fh), chain)
