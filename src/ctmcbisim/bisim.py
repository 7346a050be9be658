"""Approximate bisimulation relations for labeled Markov chains.

The additive successor-probability condition ``P(s, A) <= P(t, R(A)) + eps``
is decided through its transportation reformulation: a maximum flow from
the successors of ``s`` to the successors of ``t`` along related pairs,
which must carry at least ``1 - eps`` mass.  Flows run over exact
power-of-two-scaled integers (every float is a dyadic rational), so
boundary instances where the optimum equals ``1 - eps`` exactly cannot
flap; a tolerance ``eta`` absorbs only the rounding already present in
the inputs.

The greatest fixpoint first bounds every candidate pair in numpy.  Let Q
be the connected components of the relation R at a sweep's start: an
equivalence containing R, so a flow along R moves mass only within the
classes of Q, and no flow exceeds ``sum_C min(P(s, C), P(t, C))`` (the
class-wise lifting of Jonsson & Larsen, LICS 1991; the flow form of the
check is Baier, Engelen & Majster-Cederbaum, JCSS 2000).  A pair whose
bound is below the threshold fails its flow check in both orientations,
and is dropped with no flow solved.  The float bound is used only when it
clears the exact threshold by a margin that covers its rounding (see
``_mass_cutoff``); the pairs near the threshold go to the exact flow, so
every sweep drops the same pairs as without the bound.

Included: pair checks and witness couplings, the greatest-fixpoint
relation at (eps, delta), strong bisimulation (a label array refined by
block masses read from the successor lists) and quasi-lumpability from
the same masses, and the product ("split") construction that factors a
related pair of chains into a probability-only and a rate-only step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from . import graph
from .errors import NotBisimilar, PairNotRelated
from .model import Ctmc, _expect, _number, direct_sum

FLOW_ETA = 1e-9
DELTA_SLACK = 1e-12
#: most cells of one float temporary of the rate test and of the class-mass bound
FILTER_CELLS = 1 << 16


# --------------------------------------------------------------------------
# relations and partitions
# --------------------------------------------------------------------------


def _check_tolerances(eps: float, delta: float) -> None:
    """ValueError naming ``eps`` or ``delta`` unless it is finite and >= 0."""
    for name, value in (("eps", eps), ("delta", delta)):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


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
        _check_tolerances(self.eps, self.delta)
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

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        """``adjacency[s]`` is the set of states related to ``s``."""
        related: list[set[int]] = [set() for _ in range(self.n)]
        for s, t in self.pairs:
            related[s].add(t)
        return tuple(frozenset(r) for r in related)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Read-only boolean matrix: ``matrix[s, t]`` holds when ``(s, t)`` is related."""
        related = np.zeros((self.n, self.n), dtype=bool)
        related[tuple(zip(*self.pairs))] = True
        related.flags.writeable = False
        return related

    def related_to(self, s: int) -> frozenset[int]:
        return self.adjacency[s]

    def off_diagonal(self) -> list[tuple[int, int]]:
        return sorted((s, t) for (s, t) in self.pairs if s < t)

    @cached_property
    def _label(self) -> np.ndarray:
        """The connected components of the relation's graph as a label array."""
        return graph.components(graph.csr(self.matrix))

    def is_transitive(self) -> bool:
        # related pairs lie within components, so: is each component a clique?
        return int(self.matrix.sum()) == int((np.bincount(self._label) ** 2).sum())

    def transitive_closure(self) -> "PairRelation":
        return _partition(self._label).as_relation(self.eps, self.delta)

    def classes(self) -> "Partition":
        """Equivalence classes; the relation must be transitive."""
        if not self.is_transitive():
            raise ValueError("relation is not transitive; no well-defined classes")
        return _partition(self._label)


@dataclass(frozen=True)
class Partition:
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        for i, b in enumerate(self.blocks):
            if not b:
                raise ValueError(f"block {i} is empty")
        label = {s: i for i, b in enumerate(self.blocks) for s in b}
        if len(label) < sum(map(len, self.blocks)):
            raise ValueError("blocks are not disjoint")
        if not label or set(label) != set(range(len(label))):
            raise ValueError("blocks do not cover a 0..n-1 state range")
        # the state -> block index read by n, block_of and check_quasi_lumpability
        object.__setattr__(self, "_label", np.array([label[s] for s in range(len(label))]))

    @property
    def n(self) -> int:
        return len(self._label)

    def block_of(self, s: int) -> int:
        if s not in range(self.n):
            raise KeyError(s)
        return int(self._label[int(s)])

    def as_relation(self, eps: float = 0.0, delta: float = 0.0) -> PairRelation:
        pairs = frozenset((s, t) for b in self.blocks for s in b for t in b)
        return PairRelation(n=self.n, pairs=pairs, eps=eps, delta=delta)


def _partition(label: np.ndarray) -> Partition:
    """The partition whose block ``c``, built from an ascending list, holds the states labelled ``c``."""
    return Partition(blocks=tuple(frozenset(np.flatnonzero(label == c).tolist()) for c in range(label.max() + 1)))


def compose(R1: PairRelation, R2: PairRelation) -> PairRelation:
    """Relational composition with summed tolerances (then made
    reflexive-symmetric), the witness behind additivity of (eps, delta)."""
    if R1.n != R2.n:
        raise ValueError("relations live on different state counts")
    adj1, adj2 = R1.adjacency, R2.adjacency
    pairs = {(s, u) for s in range(R1.n) for u in set().union(*(adj2[t] for t in adj1[s]))}
    return PairRelation(
        n=R1.n,
        pairs=reflexive_symmetric_closure(pairs, R1.n),
        eps=R1.eps + R2.eps,
        delta=R1.delta + R2.delta,
    )


# --------------------------------------------------------------------------
# max-flow kernel (exact, power-of-two-scaled integers)
# --------------------------------------------------------------------------
#
# Every float is a dyadic rational m / 2**k.  Scaling a pair's two rows and
# its threshold by the largest of their denominators turns the pair network
# into an integer one with the same cuts, so the verdicts are the exact
# rational ones.  The numbers are Python ints (a subnormal entry needs the
# scale 2**1074), and int / int true division rounds correctly, so every
# float read off a flow is the one the rational value rounds to.

#: a state's successors in ascending order, the jump probabilities to them
#: as integers over 2**exp, and exp
_Row = tuple[list[int], list[int], int]


def _row(M: Ctmc, s: int) -> _Row:
    indptr, indices = M.succ
    succ = indices[indptr[s] : indptr[s + 1]].tolist()
    ratios = [p.as_integer_ratio() for p in M.P[s, succ].tolist()]
    exp = max((d.bit_length() for _, d in ratios), default=1) - 1
    return succ, [n << (exp + 1 - d.bit_length()) for n, d in ratios], exp


def _threshold(eps: float, eta: float) -> tuple[int, int]:
    """``1 - eps - eta`` exactly, as a numerator over 2**exp, and exp."""
    (en, ed), (hn, hd) = float(eps).as_integer_ratio(), float(eta).as_integer_ratio()
    d = max(ed, hd)
    return d - en * (d // ed) - hn * (d // hd), d.bit_length() - 1


class _Flow(NamedTuple):
    """A flow on the network of one pair; every amount is over 2**exp."""

    value: int
    target: int  # the threshold
    exp: int
    flow: list[dict[int, int]]  # flow[i][j] from succ_s[i] to related succ_t[j]
    supply: list[int]  # unused supply of each succ_s[i]
    demand: list[int]  # unmet demand of each succ_t[j]


def _max_flow(
    row_s: _Row, row_t: _Row, related: np.ndarray, threshold: tuple[int, int], stop: bool = False
) -> _Flow:
    """Edmonds–Karp on the transportation network of a pair: source ->
    ``succ_s[i]`` (capacity its probability) -> related ``succ_t[j]``
    (unbounded) -> sink (capacity its probability).

    ``related`` is the boolean relation matrix.  Each
    breadth-first search queues the ``succ_s`` nodes with supply left, in
    order, then scans a ``succ_s`` node's edges in ``succ_t`` order and a
    ``succ_t`` node's sink edge before its reverse edges; the edge flows
    are those of the rational Edmonds–Karp kept in
    ``tests/test_flow_kernel.py``.  With ``stop`` the search ends once the
    value reaches the threshold: the value is then exact only below it.
    """
    (succ_s, cap_s, exp_s), (succ_t, cap_t, exp_t) = row_s, row_t
    thr, exp_thr = threshold
    exp = max(exp_s, exp_t, exp_thr)
    target = thr << (exp - exp_thr)
    supply = [c << (exp - exp_s) for c in cap_s]
    demand = [c << (exp - exp_t) for c in cap_t]
    unbounded = 2 << exp  # any flow is <= 1, so capacity 2 never binds
    m = len(succ_s)
    # nbr[i]: the columns j with succ_s[i] related to succ_t[j], in order
    nbr: list[list[int]] = [[] for _ in succ_s]
    ii, jj = related.take(succ_s, axis=0).take(succ_t, axis=1).nonzero()
    for i, j in zip(ii.tolist(), jj.tolist()):
        nbr[i].append(j)
    flow = [dict.fromkeys(js, 0) for js in nbr]
    total = 0
    # The search finds the paths source -> i -> j -> sink first, in this
    # order, and supplies and demands only fall, so one pass takes them all.
    for i, js in enumerate(nbr):
        for j in js:
            if demand[j]:
                x = min(supply[i], demand[j], unbounded)
                flow[i][j] = x
                supply[i] -= x
                demand[j] -= x
                total += x
                if not supply[i]:
                    break
    if stop and total >= target:
        return _Flow(total, target, exp, flow, supply, demand)
    rev: list[list[int]] = [[] for _ in succ_t]
    for i, js in enumerate(nbr):
        for j in js:
            rev[j].append(i)
    while not (stop and total >= target):
        # nodes 0..m-1 stand for succ_s, m + j for succ_t[j]; prev[i] is -1
        # for a node reached from the source
        prev: list[int | None] = [None] * (m + len(succ_t))
        queue = [i for i in range(m) if supply[i] > 0]
        for i in queue:
            prev[i] = -1
        end = -1
        for u in queue:  # grows while it is walked
            if u < m:
                fu = flow[u]
                for j in nbr[u]:
                    if prev[m + j] is None and fu[j] < unbounded:
                        prev[m + j] = u
                        queue.append(m + j)
            elif demand[u - m] > 0:
                end = u - m
                break
            else:
                j = u - m
                for i in rev[j]:
                    if prev[i] is None and flow[i][j] > 0:
                        prev[i] = u
                        queue.append(i)
        if end < 0:
            break
        # walk back from the sink: forward edges (i, j), and reverse edges
        # that cancel flow on (i, j)
        forward, back = [], []
        aug, j = demand[end], end
        while True:
            i = prev[m + j]
            forward.append((i, j))
            aug = min(aug, unbounded - flow[i][j])
            if prev[i] < 0:
                aug = min(aug, supply[i])
                break
            j = prev[i] - m
            back.append((i, j))
            aug = min(aug, flow[i][j])
        supply[i] -= aug
        demand[end] -= aug
        for i, j in forward:
            flow[i][j] += aug
        for i, j in back:
            flow[i][j] -= aug
        total += aug
    return _Flow(total, target, exp, flow, supply, demand)


def _related_mass(f: _Flow) -> float:
    return f.value / (1 << f.exp)


def pair_flow_value(D: Ctmc, R: PairRelation, s: int, t: int) -> float:
    """The maximum mass placeable on related successor pairs (exactly
    ``1 - (smallest feasible eps)`` by LP duality)."""
    return _related_mass(_max_flow(_row(D, s), _row(D, t), R.matrix, (0, 0)))


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
    row_s, row_t = _row(D, s), _row(D, t)
    f = _max_flow(row_s, row_t, R.matrix, _threshold(eps, eta))
    if f.value < f.target:
        raise PairNotRelated(
            f"flow {_related_mass(f):.12g} < 1 - eps for pair ({s},{t}); cannot extract a coupling"
        )
    (succ_s, cap_s, exp_s), (succ_t, _, _) = row_s, row_t
    mass = {(i, j): x for i, fi in enumerate(f.flow) for j, x in fi.items() if x > 0}
    supply, demand = f.supply, f.demand
    j = 0
    last = len(succ_t) - 1
    for i in range(len(succ_s)):
        while supply[i] > 0:
            if j > last:
                # the two rows rarely sum to exactly one in exact arithmetic,
                # so the leftovers can differ by an ulp; park the excess on
                # the final column, where it vanishes in the float weights
                mass[(i, last)] = mass.get((i, last), 0) + supply[i]
                supply[i] = 0
                break
            take = min(supply[i], demand[j])
            if take > 0:
                mass[(i, j)] = mass.get((i, j), 0) + take
                supply[i] -= take
                demand[j] -= take
            if demand[j] == 0 and supply[i] > 0:
                j += 1
            elif supply[i] == 0:
                break
    weights = np.zeros((len(succ_s), len(succ_t)))
    for (i, j), x in mass.items():
        weights[i, j] = x / (cap_s[i] << (f.exp - exp_s))
    return Coupling(
        source=s,
        target=t,
        succ_source=tuple(succ_s),
        succ_target=tuple(succ_t),
        weights=weights,
        related_mass=_related_mass(f),
    )


# --------------------------------------------------------------------------
# relation computation / verification
# --------------------------------------------------------------------------


def _initial_related(M: Ctmc, delta: float) -> np.ndarray:
    """The boolean matrix of the pairs of states with the same labels and
    rewards and exit rates within a factor e^delta."""
    lnE = np.log(M.E)
    codes = {ls: k for k, ls in enumerate(set(M.label_sets))}
    label = np.array([codes[ls] for ls in M.label_sets])
    ok = label[:, None] == label[None, :]
    # the rate test by blocks of rows, with no n x n float temporary; a NaN
    # rate gap is not > delta, so it separates no pair (as in is_bisimulation)
    step = max(1, FILTER_CELLS // M.n)
    for i in range(0, M.n, step):
        ok[i : i + step] &= ~(np.abs(lnE[i : i + step, None] - lnE) > delta + DELTA_SLACK)
    if M.rewards is not None:
        ok &= M.rewards[:, None] == M.rewards[None, :]
    return ok


def _mass_cutoff(threshold: tuple[int, int], n: int) -> float:
    """The largest float ``c`` with ``c <= thr * (1 - gamma_2n)``, where
    ``thr`` is the exact ``threshold`` and ``gamma_m = m u / (1 - m u)``
    with ``u = 2**-53`` (0.0 when ``thr <= 0``, where every pair passes).

    A computed class-mass bound below ``c`` proves an exact bound below
    ``thr``.  Write ``c_C`` for the exact ``P(s, C)``.  Its float ``P @
    onehot`` sums n terms, each product with 0 or 1 exact, so in any
    summation order ``(1 - gamma_{n-1}) c_C <= fl(c_C)``; ``min`` keeps
    that, and the float sum of the k <= n class minima loses at most
    another factor ``1 - gamma_{k-1}``.  So the float bound is at least
    ``(1 - gamma_{n-1}) (1 - gamma_{k-1}) >= 1 - gamma_2n`` times the exact
    one, and the margin ``thr - c`` is ``thr * gamma_2n`` plus the rounding
    of ``c`` down to a float.
    """
    thr, exp = threshold
    if thr <= 0:
        return 0.0
    mu = Fraction(2 * n, 1 << 53)
    exact = Fraction(thr, 1 << exp) * (1 - 2 * mu) / (1 - mu)
    cut = float(exact)  # correctly rounded
    return cut if Fraction(cut) <= exact else math.nextafter(cut, 0.0)


def _mass_rejects(P: np.ndarray, related: np.ndarray, todo: np.ndarray, cut: float) -> np.ndarray:
    """For each pair of ``todo``, whether its class-mass bound over the
    connected components of ``related`` is below ``cut``: such a pair
    fails its flow check in both orientations.  The pairs x classes
    temporaries hold at most ``FILTER_CELLS`` cells each."""
    label = graph.components(graph.csr(related))
    onehot = (label[:, None] == np.arange(label.max() + 1)).astype(float)
    mass = P @ onehot
    out = np.empty(len(todo), dtype=bool)
    step = max(1, FILTER_CELLS // onehot.shape[1])
    for i in range(0, len(todo), step):
        s, t = todo[i : i + step].T
        out[i : i + step] = np.minimum(mass[s], mass[t]).sum(axis=1) < cut
    return out


def _into_preds(pred: graph.Index, X: np.ndarray) -> np.ndarray:
    """Row ``v`` of the result: the union of the rows ``X[a]`` over the successors ``a`` of ``v``."""
    indptr, indices = pred
    out = np.zeros(X.shape, dtype=bool)
    for a in np.flatnonzero(X.any(axis=1)).tolist():
        out[indices[indptr[a] : indptr[a + 1]]] |= X[a]
    return out


def _sweeps(M: Ctmc, related: np.ndarray, eps: float, eta: float):
    """Shrink the boolean relation matrix ``related`` in place to the
    greatest fixpoint, one sweep at a time, and yield each sweep's checked
    and dropped pairs ``s < t`` as ``(k, 2)`` arrays in row-major order.

    A sweep checks its pairs against the relation as of its start and
    then drops the ones failing in either orientation.  The first sweep
    checks every pair; a later one only the pairs ``(s, t)`` with a pair
    ``(a, b)`` dropped by the sweep before, ``a`` a successor of ``s`` and
    ``b`` one of ``t``: no other pair's network has changed.

    Before any flow, a sweep bounds its pairs by class mass over the
    components of the relation as of its start (``_mass_rejects``).  Any
    flow along the relation stays within those classes, so a pair whose
    float bound is below ``_mass_cutoff`` (the exact threshold less a
    margin for the rounding of the bound) fails both orientations, and it
    is dropped with no flow solved.  Every other pair gets the exact flow
    check, so each sweep checks and drops the same pairs as with the flow
    check alone.
    """
    rows = [_row(M, s) for s in range(M.n)]
    threshold = _threshold(eps, eta)
    cut = _mass_cutoff(threshold, M.n)

    def passes(s: int, t: int) -> bool:
        f = _max_flow(rows[s], rows[t], related, threshold, stop=True)
        return f.value >= f.target

    todo = np.argwhere(np.triu(related, 1))
    while len(todo):
        fails = _mass_rejects(M.P, related, todo, cut)
        kept = np.flatnonzero(~fails)
        for i, (s, t) in zip(kept.tolist(), todo[kept].tolist()):
            fails[i] = not (passes(s, t) and passes(t, s))
        drop = todo[fails]
        related[drop[:, 0], drop[:, 1]] = related[drop[:, 1], drop[:, 0]] = False
        yield todo, drop
        dropped = np.zeros_like(related)
        dropped[drop[:, 0], drop[:, 1]] = True
        # touched[s, t]: s -> b and t -> a for a pair (a, b) just dropped
        touched = _into_preds(M.pred, _into_preds(M.pred, dropped).T)
        todo = np.argwhere(np.triu((touched | touched.T) & related, 1))


def epsilon_delta_bisim(M: Ctmc, eps: float, delta: float, eta: float = FLOW_ETA) -> PairRelation:
    """Greatest fixpoint: start from the label/rate-compatible pairs and
    delete pairs failing the flow condition in either orientation until
    stable.  Deletions are batched per sweep: every check in a sweep runs
    against the relation as of the sweep's start.
    """
    _check_tolerances(eps, delta)
    related = _initial_related(M, delta)
    for _ in _sweeps(M, related, eps, eta):
        pass
    return PairRelation(n=M.n, pairs=frozenset(map(tuple, np.argwhere(related).tolist())), eps=eps, delta=delta)


@dataclass(frozen=True)
class RelationCheck:
    ok: bool
    pair: tuple[int, int] | None = None
    condition: str | None = None  # "label" | "delta" | "eps" | "reward"
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def is_bisimulation(M: Ctmc, R: PairRelation, eta: float = FLOW_ETA) -> RelationCheck:
    """Verify label equality, the rate condition, the flow condition and,
    when the chain has rewards, reward equality for every pair; reports
    the first failure.  Rewards are checked after the other conditions
    have passed for every pair."""
    if R.n != M.n:
        raise ValueError("relation size does not match the chain")
    lnE = np.log(M.E)
    labels = M.label_sets
    rows = [_row(M, s) for s in range(M.n)]
    threshold = _threshold(R.eps, eta)
    pairs = R.off_diagonal()
    for s, t in pairs:
        if labels[s] != labels[t]:
            return RelationCheck(False, (s, t), "label", f"{labels[s]} != {labels[t]}")
        gap = abs(lnE[s] - lnE[t])
        if gap > R.delta + DELTA_SLACK:
            return RelationCheck(False, (s, t), "delta", f"|ln E(s) - ln E(t)| = {gap:.12g}")
        for a, b in ((s, t), (t, s)):
            f = _max_flow(rows[a], rows[b], R.matrix, threshold, stop=True)
            if f.value < f.target:
                return RelationCheck(
                    False,
                    (a, b),
                    "eps",
                    f"max related mass {_related_mass(f):.12g} < 1 - eps",
                )
    if M.rewards is not None:
        rewards = M.rewards.tolist()
        for s, t in pairs:
            if rewards[s] != rewards[t]:
                return RelationCheck(False, (s, t), "reward", f"{rewards[s]!r} != {rewards[t]!r}")
    return RelationCheck(True)


def _first_seen(keys: Iterable) -> np.ndarray:
    """Label array numbering the distinct keys by first occurrence."""
    codes: dict = {}
    return np.array([codes.setdefault(key, len(codes)) for key in keys])


def _block_masses(M: Ctmc, label: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The states ``s``, blocks ``b`` and masses ``P(s, b) > 0`` by state and
    block, each the ``math.fsum`` of the entries of ``M.succ`` of ``s`` in ``b``."""
    indptr, indices = M.succ
    src = np.repeat(np.arange(M.n), np.diff(indptr))
    key = src * M.n + label[indices]
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    p = M.P[src[order], indices[order]].tolist()
    mass = [math.fsum(p[a:b]) for a, b in zip(starts.tolist(), [*starts[1:].tolist(), len(p)])]
    return key[starts] // M.n, key[starts] % M.n, np.array(mass)


def strong_bisim(M: Ctmc) -> Partition:
    """Coarsest partition with equal labels, exit rates, rewards (when
    present), and block-transition probabilities; signature refinement of
    a label array, each state's signature its block and its sorted
    ``(block, mass)`` pairs from ``_block_masses``."""
    rewards = M.rewards.tolist() if M.rewards is not None else [None] * M.n
    label = _first_seen(zip(M.label_sets, M.E.tolist(), rewards))
    while True:
        src, blk, mass = _block_masses(M, label)
        ends = np.searchsorted(src, np.arange(M.n + 1)).tolist()
        pairs = list(zip(blk.tolist(), mass.tolist()))
        new = _first_seen((b, tuple(pairs[ends[s] : ends[s + 1]])) for s, b in enumerate(label.tolist()))
        if new.max() == label.max():
            return _partition(label)
        label = new


def check_quasi_lumpability(M: Ctmc, partition: Partition, tau: float) -> bool:
    """Same-block states' rates into every block must differ by at most tau
    (plus 1e-12 of slack); the rates are ``E[s]`` times the masses of
    ``_block_masses``."""
    if partition.n != M.n:
        raise ValueError("partition does not cover the chain")
    if not tau >= 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau!r}")
    label = partition._label
    src, blk, mass = _block_masses(M, label)
    rates = np.zeros((M.n, len(partition.blocks)))
    rates[src, blk] = M.E[src] * mass
    return not any(np.any(np.ptp(rates[label == c], axis=0) > tau + 1e-12) for c in range(len(partition.blocks)))


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
    related = R.matrix[:nM, off:]
    # independent moves: P[pid(s, t), pid(sp, tq)] = M.P[s, sp] * N.P[t, tq]
    P = np.multiply.outer(M.P, N.P).transpose(0, 2, 1, 3).reshape(n_prod, n_prod)
    for s, t in np.argwhere(related).tolist():
        # a coupling covers succ(s) x succ(t), the support of the independent row
        cpl = extract_coupling(joint, R, s, t + off, eps)
        sp, tq = np.array(cpl.succ_source), np.subtract(cpl.succ_target, off)
        P[pid(s, t), pid(sp[:, None], tq)] = M.P[s, sp][:, None] * cpl.weights
    E_m = np.where(related, M.E[:, None], N.E).ravel()

    goal = tuple(pid(s, t) for s in range(nM) for t in N.goal)
    fail = tuple(pid(s, t) for s in range(nM) for t in N.fail)
    initial = pid(M.initial, N.initial)
    m_prime = Ctmc(ids=ids, labels=labels, P=P, E=E_m, initial=initial, goal=goal, fail=fail)
    n_prime = Ctmc(ids=ids, labels=labels, P=P.copy(), E=np.tile(N.E, nM), initial=initial, goal=goal, fail=fail)

    sum1 = direct_sum(M, m_prime)
    r1 = PairRelation.from_off_diagonal(
        {(s, nM + pid(s, t)) for s, t in np.argwhere(related).tolist()},
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
