"""Approximate bisimulation relations for labeled Markov chains.

The additive successor-probability condition ``P(s, A) <= P(t, R(A)) + eps``
is decided through its transportation reformulation: a maximum flow from
the successors of ``s`` to the successors of ``t`` along related pairs,
which must carry at least ``1 - eps`` mass.  Flows run over exact
power-of-two-scaled integers (every float is a dyadic rational), so
boundary instances where the optimum equals ``1 - eps`` exactly cannot
flap; a tolerance ``eta`` absorbs only the rounding already present in
the inputs.

The greatest fixpoint decides most candidate pairs in numpy, against the
relation R at a sweep's start, by four routes:

1. class-mass reject.  Let Q be the connected components of R: an
   equivalence containing R, so a flow along R moves mass only within the
   classes of Q, and no flow exceeds ``sum_C min(P(s, C), P(t, C))`` (the
   class-wise lifting of Jonsson & Larsen, LICS 1991; the flow form of the
   check is Baier, Engelen & Majster-Cederbaum, JCSS 2000).  A pair whose
   bound is below the threshold fails its flow check in both orientations.
2. cut enumeration.  When both rows have at most ``ENUM_DEGREE``
   successors, the flow's value is its least cut, found by trying every
   subset of the successors of ``s`` (max-flow min-cut; Gale, Pacific J.
   Math. 1957), so the pair passes or fails with no flow.
3. diagonal pass.  R is reflexive, so shipping ``min(P(s, j), P(t, j))``
   from j to j is a flow in both orientations (the maximal coupling;
   Lindvall, 1992); a pair whose diagonal mass clears the threshold passes.
4. the exact flow kernel, for the pairs that the first three leave.

A float value is used only when it clears the exact threshold by a margin
that covers its rounding (see ``_cutoff``); the pairs near the threshold
go to the exact flow, so every sweep drops the same pairs as the kernel
alone.  The verifier skips the pairs that routes 2 and 3 pass.

Included: pair checks and witness couplings, the greatest-fixpoint
relation at (eps, delta), strong bisimulation (a label array refined by
block masses read from the successor lists) and quasi-lumpability from
the same masses, and the product ("split") construction that factors a
related pair of chains into a probability-only and a rate-only step.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import FrozenInstanceError, dataclass
from functools import cache, cached_property, partial
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import graph
from .errors import NotBisimilar, PairNotRelated
from .model import Ctmc, _expect, _number, direct_sum

FLOW_ETA = 1e-9
DELTA_SLACK = 1e-12
#: most successors of each row of a pair whose flow ``_decide`` reads off its cuts
ENUM_DEGREE = 4
#: ``_SUBSETS[a, i]``: 1 when subset a of a padded row holds its i-th entry, that is bit i of a
_SUBSETS = np.arange(1 << ENUM_DEGREE)[:, None] >> np.arange(ENUM_DEGREE) & 1


# --------------------------------------------------------------------------
# relations and partitions
# --------------------------------------------------------------------------


def _check_tolerances(eps: float, delta: float) -> None:
    """ValueError naming ``eps`` or ``delta`` unless it is finite and >= 0."""
    for name, value in (("eps", eps), ("delta", delta)):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


def _pair_matrix(pairs: Iterable[tuple[int, int]], n: int) -> np.ndarray:
    """The n x n boolean matrix holding ``pairs``.  ValueError naming a pair with an entry not an int or a
    numpy integer (a ``bool`` is neither), else the smallest pair out of ``range(n)``, smaller entry first."""
    rows = list(pairs)
    # the entries as two lists, read straight off the pairs: numpy is slow to build arrays of small tuples
    if set(map(type, rows)) <= {tuple, list} and set(map(len, rows)) <= {2}:
        cols = [list(map(operator.itemgetter(i), rows)) for i in (0, 1)]
    else:  # numpy's own error for a pair that is not two entries
        cols = np.array(rows, dtype=object).reshape(len(rows), 2).T.tolist()
    if odd := {k for k in set(map(type, cols[0] + cols[1])) if k is bool or not issubclass(k, (int, np.integer))}:
        bad = next(p for p in zip(*cols) if odd.intersection(map(type, p)))
        raise ValueError(f"pair {tuple(bad)} has an entry that is not an integer")
    try:  # every entry is an integer: compare and index in C
        a = np.array(cols, dtype=np.intp).T
    except OverflowError:  # an entry past intp, so out of range: compared as Python ints
        a = np.array(cols, dtype=object).T
    out = ((a < 0) | (a >= n)).any(axis=1)
    if out.any():
        s, t = min(sorted(p) for p in a[out].tolist())
        raise ValueError(f"pair ({s},{t}) out of range")
    m = np.zeros((n, n), dtype=bool)
    m[tuple(a.T)] = True
    return m


def _index_pairs(m: np.ndarray) -> Iterable[tuple[int, int]]:
    """The ``(s, t)`` with ``m[s, t]`` set, in row-major order, from two flat
    lists of ints rather than one list per pair."""
    s, t = np.nonzero(m)
    return zip(s.tolist(), t.tolist())


class PairRelation:
    """Reflexive symmetric relation with its tolerances, held as its read-only n x n boolean ``matrix``."""

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]], eps: float, delta: float):
        _check_tolerances(eps, delta)
        self.__dict__.update(vars(PairRelation._of(_pair_matrix(pairs, n), eps, delta)))

    @classmethod
    def _of(cls, m: np.ndarray, eps: float, delta: float) -> "PairRelation":
        """The relation whose matrix is ``m``, taken over: the one check every route to a relation ends in."""
        _check_tolerances(eps, delta)
        if not m.diagonal().all():
            s = int(np.argmin(m.diagonal()))
            raise ValueError(f"relation is not reflexive: missing ({s},{s})")
        if not (m == m.T).all():
            s, t = np.argwhere(m > m.T)[0].tolist()
            raise ValueError(f"relation is not symmetric: ({s},{t}) without ({t},{s})")
        m.flags.writeable = False
        R = object.__new__(cls)
        R.__dict__.update(n=len(m), matrix=m, eps=eps, delta=delta)
        return R

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        same = isinstance(other, PairRelation) and (self.eps, self.delta) == (other.eps, other.delta)
        return same and np.array_equal(self.matrix, other.matrix)

    @classmethod
    def from_off_diagonal(cls, pairs: Iterable[tuple[int, int]], n: int, eps: float, delta: float) -> "PairRelation":
        """The reflexive symmetric closure of ``pairs`` on ``n`` states."""
        _check_tolerances(eps, delta)
        m = _pair_matrix(pairs, n)
        return cls._of(m | m.T | np.eye(n, dtype=bool), eps, delta)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        s, t = map(operator.index, pair)
        return 0 <= s < self.n and 0 <= t < self.n and bool(self.matrix[s, t])

    @cached_property
    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(_index_pairs(self.matrix))

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        """``adjacency[s]`` is the set of states related to ``s``."""
        return tuple(frozenset(np.flatnonzero(row).tolist()) for row in self.matrix)

    def off_diagonal(self) -> list[tuple[int, int]]:
        return list(_index_pairs(np.triu(self.matrix, 1)))

    @cached_property
    def _label(self) -> np.ndarray:
        """The connected components of the relation's graph as a label array."""
        return graph.components(graph.csr(self.matrix))

    def is_transitive(self) -> bool:
        # related pairs lie within components, so: is each component a clique?
        return int(self.matrix.sum()) == int((np.bincount(self._label) ** 2).sum())

    def transitive_closure(self) -> "PairRelation":
        return PairRelation._of(self._label[:, None] == self._label, self.eps, self.delta)

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
        return PairRelation._of(self._label[:, None] == self._label, eps, delta)


def _partition(label: np.ndarray) -> Partition:
    """The partition whose block ``c``, built from an ascending list, holds the states labelled ``c``."""
    return Partition(blocks=tuple(frozenset(np.flatnonzero(label == c).tolist()) for c in range(label.max() + 1)))


def compose(R1: PairRelation, R2: PairRelation) -> PairRelation:
    """Relational composition with summed tolerances (then made symmetric), the witness behind
    additivity of (eps, delta): a boolean product, summed in float32 so no count wraps."""
    if R1.n != R2.n:
        raise ValueError("relations live on different state counts")
    m = R1.matrix.astype(np.float32) @ R2.matrix.astype(np.float32) > 0
    return PairRelation._of(m | m.T, R1.eps + R2.eps, R1.delta + R2.delta)


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
    (no capacity: its flow never passes that of ``succ_s[i]``) -> sink
    (capacity its probability).

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
                x = min(supply[i], demand[j])
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
                for j in nbr[u]:
                    if prev[m + j] is None:
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
    label = _first_seen(M.label_sets)
    ok = label[:, None] == label[None, :]
    # the rate test by blocks of rows, with no n x n float temporary; a NaN
    # rate gap is not > delta, so it separates no pair (as in is_bisimulation)
    for b in graph.blocks(M.n, M.n):
        ok[b] &= ~(np.abs(lnE[b, None] - lnE) > delta + DELTA_SLACK)
    if M.rewards is not None:
        ok &= M.rewards[:, None] == M.rewards[None, :]
    return ok


def _cutoff(threshold: tuple[int, int], m: int, above: bool = False) -> float:
    """The largest float ``<= thr * (1 - gamma_m)``, or with ``above`` the
    smallest float ``>= thr * (1 + gamma_m)``, where ``thr`` is the exact
    ``threshold`` and ``gamma_m = m u / (1 - m u)`` with ``u = 2**-53``
    (0.0 when ``thr <= 0``, where every pair passes: no float mass is below
    it, and every one is at or above it).

    A float sum of m or fewer nonnegative floats, in any order, lies within
    a factor ``1 +- gamma_m`` of the exact sum.  So a float mass below the
    cutoff proves an exact mass below ``thr``, and a float mass at or above
    the ``above`` cutoff an exact mass at or above it.
    """
    thr, exp = threshold
    if thr <= 0:
        return 0.0
    # the exact cutoff is num / den; an int / int quotient is correctly rounded
    num = thr * ((1 << 53) if above else (1 << 53) - 2 * m)
    den = ((1 << 53) - m) << exp
    cut = num / den
    a, b = cut.as_integer_ratio()
    if above:
        return cut if a * den >= num * b else math.nextafter(cut, math.inf)
    return cut if a * den <= num * b else math.nextafter(cut, 0.0)


def _mass_cutoff(threshold: tuple[int, int], n: int) -> float:
    """The cutoff of the class-mass bound: ``_cutoff`` at ``gamma_2n``.

    A computed class-mass bound below it proves an exact bound below
    ``thr``.  Write ``c_C`` for the exact ``P(s, C)``.  Its float, the sum
    of the probabilities of the entries of ``M.succ`` of s that lie in C,
    adds at most n exact terms, so in any summation order ``(1 -
    gamma_{n-1}) c_C <= fl(c_C)``; ``min`` keeps that, and the float sum of
    the k <= n class minima loses at most another factor ``1 -
    gamma_{k-1}``.  So the float bound is at least ``(1 - gamma_{n-1}) (1 -
    gamma_{k-1}) >= 1 - gamma_2n`` times the exact one, and the margin is
    ``thr * gamma_2n`` plus the rounding of the cutoff down to a float.
    """
    return _cutoff(threshold, 2 * n)


#: the source state, the target state and the probability of each entry of
#: ``Ctmc.succ``, in its order
_Edges = tuple[np.ndarray, np.ndarray, np.ndarray]


def _edges(M: Ctmc) -> _Edges:
    indptr, indices = M.succ
    src = np.repeat(np.arange(M.n), np.diff(indptr))
    return src, indices, M.P[src, indices]


class _Tables(NamedTuple):
    """What every sweep of one fixpoint decides its pairs with.  None of
    it depends on the relation, so ``_tables`` builds it once per
    fixpoint and once per verification."""

    edges: _Edges
    small: np.ndarray  # the states with at most ENUM_DEGREE successors
    succ: np.ndarray  # (n, D): each state's first D successors, padded with state 0
    prob: np.ndarray  # (n, D): the probabilities to them, padded with 0
    mass: float  # _mass_cutoff
    below: float  # _cutoff at gamma_2D: a least cut below it fails
    above: float  # _cutoff at gamma_2D, above: least cuts at or above it pass
    diagonal: float  # _cutoff at gamma_n, above: a diagonal mass at or above it passes


def _tables(M: Ctmc, threshold: tuple[int, int]) -> _Tables:
    """The ``_Tables`` of the chain ``M`` at the exact ``threshold``."""
    D = ENUM_DEGREE
    src, dst, p = edges = _edges(M)
    indptr = M.succ[0]
    col = np.arange(len(dst)) - indptr[src]
    first = col < D
    succ, prob = np.zeros((M.n, D), dtype=np.intp), np.zeros((M.n, D))
    succ[src[first], col[first]] = dst[first]
    prob[src[first], col[first]] = p[first]
    return _Tables(
        edges,
        np.diff(indptr) <= D,
        succ,
        prob,
        _mass_cutoff(threshold, M.n),
        _cutoff(threshold, 2 * D),
        _cutoff(threshold, 2 * D, above=True),
        _cutoff(threshold, M.n, above=True),
    )


def _mass_rejects(edges: _Edges, related: np.ndarray, todo: np.ndarray, cut: float) -> np.ndarray:
    """For each pair of ``todo``, whether its class-mass bound over the
    connected components of ``related`` is below ``cut``: such a pair
    fails its flow check in both orientations.

    The (n, classes) table of the masses ``P(s, C)`` is one ``np.bincount``
    over ``edges``, which sums each mass in the order of ``Ctmc.succ``.
    The pairs x classes temporaries hold at most ``graph.BLOCK_CELLS``
    cells each."""
    src, dst, p = edges
    label = graph.components(graph.csr(related))
    k = int(label.max()) + 1
    mass = np.bincount(src * k + label[dst], weights=p, minlength=len(related) * k).reshape(-1, k)
    out = np.empty(len(todo), dtype=bool)
    for b in graph.blocks(len(todo), k):
        s, t = todo[b].T
        out[b] = np.minimum(mass[s], mass[t]).sum(axis=1) < cut
    return out


def _decide(M: Ctmc, related: np.ndarray, T: _Tables, pairs: np.ndarray):
    """Boolean arrays ``(passes, fails)`` over the ``(k, 2)`` array
    ``pairs``: a pass clears the exact threshold of the tables ``T`` in
    both orientations at the boolean relation matrix ``related``; a fail
    falls short of it in at least one.  The rest are left to the flow
    kernel.

    * A pair whose rows both have at most ``ENUM_DEGREE = D`` successors
      gets its exact value in each orientation from its min cut (Gale,
      Pacific J. Math. 1957): the least, over the subsets A of
      ``succ(s)``, of ``P(s, succ(s) \\ A) + P(t, N_R(A))``, where
      ``N_R(A)`` holds the successors of ``t`` related to a state of A.
      The rows are padded to D entries of probability 0, which change no
      cut's least value.  Each float cut sums at most 2D probabilities,
      each masked exactly, so the float least cut is within a factor ``1
      +- gamma_2D`` of the exact one (a least float cut is at most the
      float of an exact least cut, and at least ``1 - gamma_2D`` times
      some exact cut).  It passes at or above ``T.above`` in both
      orientations, and fails below ``T.below`` in either.
    * Any other pair passes when its diagonal mass ``sum_j min(P(s, j),
      P(t, j))`` is at or above ``T.diagonal``: with R reflexive, shipping
      ``min(P(s, j), P(t, j))`` from j to j is a flow in both orientations
      (the maximal coupling; Lindvall, 1992), and its float sum of n terms
      is at most ``1 + gamma_n`` times the exact one.  Such a pair never
      fails here, and none passes unless ``related`` is reflexive.

    Every pairs x subsets and pairs x states temporary holds at most
    ``graph.BLOCK_CELLS`` cells (at least one pair's).
    """
    s, t = pairs.T
    low = T.small[s] & T.small[t]
    passes, fails = np.zeros(len(pairs), dtype=bool), np.zeros(len(pairs), dtype=bool)
    for chunk in graph.blocks(len(pairs), len(_SUBSETS)):
        k = chunk.start + np.flatnonzero(low[chunk])
        a, b = s[k], t[k]
        rel = related[T.succ[a][:, :, None], T.succ[b][:, None, :]]
        st = _least_cut(T.prob[a], T.prob[b], rel)
        ts = _least_cut(T.prob[b], T.prob[a], rel.transpose(0, 2, 1))
        passes[k] = (st >= T.above) & (ts >= T.above)
        fails[k] = (st < T.below) | (ts < T.below)
    if related.diagonal().all():  # else the diagonal coupling may ship along an unrelated pair
        diag = np.flatnonzero(~low)
        for chunk in graph.blocks(len(diag), M.n):
            k = diag[chunk]
            passes[k] = np.minimum(M.P[s[k]], M.P[t[k]]).sum(axis=1) >= T.diagonal
    return passes, fails


def _least_cut(p: np.ndarray, q: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """Per pair, the float least cut ``min_A p(~A) + q(N(A))`` over the
    subsets A of ``_SUBSETS``, where ``p`` and ``q`` are ``(k, D)`` padded
    rows and ``rel[:, i, j]`` relates the i-th entry of ``p`` to the j-th
    of ``q``.  Subsets are bit masks: ``~A`` is column ``2**D - 1 - A``,
    and ``N(A)`` is the union of the masks ``rel[:, i]`` over i in A."""
    mass_p, mass_q = p @ _SUBSETS.T, q @ _SUBSETS.T  # the float mass of every subset
    bits = rel @ (1 << np.arange(p.shape[1]))
    nbr = np.zeros(mass_q.shape, dtype=bits.dtype)
    for i in range(p.shape[1]):
        nbr |= _SUBSETS[:, i] * bits[:, i, None]
    return (mass_p[:, ::-1] + np.take_along_axis(mass_q, nbr, axis=1)).min(axis=1)


def _into_preds(pred: graph.Index, X: np.ndarray) -> np.ndarray:
    """Row ``v`` of the result: the union of the rows ``X[a]`` over the successors ``a`` of ``v``."""
    indptr, indices = pred
    out = np.zeros(X.shape, dtype=bool)
    for a in np.flatnonzero(X.any(axis=1)).tolist():
        out[indices[indptr[a] : indptr[a + 1]]] |= X[a]
    return out


def _touched_pairs(pred: graph.Index, related: np.ndarray, drop: np.ndarray) -> np.ndarray:
    """``_pairs`` of ``related`` at the pairs ``(s, t)`` with ``s -> b`` and
    ``t -> a`` for a pair ``(a, b)`` of ``drop``.  Each pass frees the
    n x n matrix it read before the next one runs."""
    X = np.zeros_like(related)
    X[drop[:, 0], drop[:, 1]] = True
    X = _into_preds(pred, X)  # X[t, b]: t -> a for a pair (a, b) of drop
    X = np.ascontiguousarray(X.T)  # the next pass reads its rows
    return _pairs(related, _into_preds(pred, X))


def _pairs(related: np.ndarray, touched: np.ndarray | None = None) -> np.ndarray:
    """The pairs ``s < t`` of the boolean matrix ``related``, with
    ``touched`` only those where it or its transpose holds, as a ``(k, 2)``
    array in row-major order, of int32 while n < 2**31.  They are listed a
    block of rows at a time, each from the columns at or right of the
    block's first diagonal cell, so no temporary holds n x n cells."""
    n = len(related)
    dtype = np.int32 if n < 2**31 else np.intp
    parts = [np.empty((0, 2), dtype)]
    for b in graph.blocks(n, n):
        x = related[b, b.start :]
        if touched is not None:
            x = x & (touched[b, b.start :] | touched[b.start :, b].T)
        s, t = np.divmod(np.flatnonzero(x), x.shape[1])
        upper = t > s
        part = np.empty((np.count_nonzero(upper), 2), dtype)
        part[:, 0], part[:, 1] = s[upper], t[upper]
        part += b.start
        parts.append(part)
    return np.concatenate(parts)


def _flow_failures(row: Callable[[int], _Row], related: np.ndarray, threshold: tuple[int, int], pairs: np.ndarray):
    """Check each pair ``(s, t)`` of the ``(k, 2)`` array ``pairs`` in
    order, ``(s, t)`` and then ``(t, s)``, and yield ``(i, (a, b), f)`` for
    each pair ``i`` whose flow ``f`` in orientation ``(a, b)`` falls short
    of the threshold."""
    for i, (s, t) in enumerate(pairs.tolist()):
        for a, b in ((s, t), (t, s)):
            f = _max_flow(row(a), row(b), related, threshold, stop=True)
            if f.value < f.target:
                yield i, (a, b), f
                break


def _sweeps(M: Ctmc, related: np.ndarray, eps: float, eta: float):
    """Shrink the boolean relation matrix ``related`` in place to the
    greatest fixpoint, one sweep at a time, and yield each sweep's checked
    and dropped pairs ``s < t`` as ``(k, 2)`` arrays in row-major order.

    A sweep checks its pairs against the relation as of its start and
    then drops the ones failing in either orientation.  The first sweep
    checks every pair; a later one only the pairs ``(s, t)`` with a pair
    ``(a, b)`` dropped by the sweep before, ``a`` a successor of ``s`` and
    ``b`` one of ``t``: no other pair's network has changed.

    Each pair takes the first of four routes that decides it, all against
    the relation as of the sweep's start:

    1. class-mass reject (``_mass_rejects``): any flow along the relation
       stays within its connected components, so a pair whose float bound,
       its class masses summed over ``Ctmc.succ``, is below
       ``_mass_cutoff`` (the exact threshold less a margin for the rounding
       of the bound) fails both orientations and is dropped;
    2. cut enumeration (``_decide``): a pair whose rows both have at most
       ``ENUM_DEGREE`` successors passes or is dropped on its least cut in
       each orientation, when that clears the threshold by the rounding
       margin of ``_cutoff`` on the right side;
    3. diagonal pass (``_decide``): any other pair passes when its
       diagonal coupling carries the threshold by that margin;
    4. the exact flow kernel (``_flow_failures``) for every pair left,
       whose rows are built only when first needed.

    Routes 1-3 decide only what the exact flows decide, so each sweep
    checks and drops the same pairs as with the flow check alone.

    What does not depend on the relation (the edge list, the padded
    successor tables and the cutoffs, ``_tables``) is built once, before
    the first sweep.  The pairs are int32 arrays while n < 2**31, listed a
    block of rows at a time (``_pairs``), and a sweep that drops nothing
    ends the fixpoint with no further bookkeeping.
    """
    row = cache(partial(_row, M))
    threshold = _threshold(eps, eta)
    T = _tables(M, threshold)
    todo = _pairs(related)
    while len(todo):
        fails = _mass_rejects(T.edges, related, todo, T.mass)
        kept = np.flatnonzero(~fails)
        passes, decided = _decide(M, related, T, todo[kept])
        fails[kept] = decided
        rest = kept[~(passes | decided)]
        for i, _, _ in _flow_failures(row, related, threshold, todo[rest]):
            fails[rest[i]] = True
        drop = todo[fails]
        related[drop[:, 0], drop[:, 1]] = related[drop[:, 1], drop[:, 0]] = False
        yield todo, drop
        if not len(drop):
            return
        todo = _touched_pairs(M.pred, related, drop)


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
    return PairRelation._of(related, eps, delta)


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
    have passed for every pair.  Labels, rates and rewards are screened
    on arrays; flows run only for the pairs before the first label or
    rate failure that ``_decide`` does not pass."""
    if R.n != M.n:
        raise ValueError("relation size does not match the chain")
    pairs = _pairs(R.matrix)  # R.off_diagonal(), in order
    s, t = pairs.T
    labels, label, lnE = M.label_sets, _first_seen(M.label_sets), np.log(M.E)
    # a NaN rate gap is not > delta, so it fails no pair
    bad = np.flatnonzero((label[s] != label[t]) | (np.abs(lnE[s] - lnE[t]) > R.delta + DELTA_SLACK))
    stop = int(bad[0]) if len(bad) else len(pairs)
    threshold = _threshold(R.eps, eta)
    passes, _ = _decide(M, R.matrix, _tables(M, threshold), pairs[:stop])
    for _, pair, f in _flow_failures(cache(partial(_row, M)), R.matrix, threshold, pairs[:stop][~passes]):
        return RelationCheck(False, pair, "eps", f"max related mass {_related_mass(f):.12g} < 1 - eps")
    if len(bad):
        a, b = pairs[stop].tolist()
        if labels[a] != labels[b]:
            return RelationCheck(False, (a, b), "label", f"{labels[a]} != {labels[b]}")
        return RelationCheck(False, (a, b), "delta", f"|ln E(s) - ln E(t)| = {abs(lnE[a] - lnE[b]):.12g}")
    differ = np.flatnonzero(M.rewards[s] != M.rewards[t]) if M.rewards is not None else []
    if len(differ):
        a, b = pairs[differ[0]].tolist()
        rewards = M.rewards.tolist()
        return RelationCheck(False, (a, b), "reward", f"{rewards[a]!r} != {rewards[b]!r}")
    return RelationCheck(True)


def _first_seen(keys: Iterable) -> np.ndarray:
    """Label array numbering the distinct keys by first occurrence."""
    codes: dict = {}
    return np.array([codes.setdefault(key, len(codes)) for key in keys])


def _block_masses(M: Ctmc, label: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The states ``s``, blocks ``b`` and masses ``P(s, b) > 0`` by state and
    block, each the ``math.fsum`` of the entries of ``M.succ`` of ``s`` in ``b``."""
    src, dst, p = _edges(M)
    key = src * M.n + label[dst]
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    p = p[order].tolist()
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
    if (M.initial, N.initial + off) not in R:
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

    # each witness relation joins state a of the first chain of its direct sum to
    # state b of the second where link[a, b]: s to pid(s, t) for related s and t,
    # then p to p, then pid(s, t) to t
    r1 = _joined((np.eye(nM, dtype=bool)[:, :, None] & related[:, None]).reshape(nM, n_prod), eps, 0.0)
    r2 = _joined(np.eye(n_prod, dtype=bool), 0.0, delta)
    r3 = _joined(np.tile(np.eye(nN, dtype=bool), (nM, 1)), 0.0, 0.0)
    return SplitResult(
        m_prime=m_prime,
        n_prime=n_prime,
        relation=R,
        witnesses=(
            SplitWitness("probability-step", direct_sum(M, m_prime), r1),
            SplitWitness("rate-step", direct_sum(m_prime, n_prime), r2),
            SplitWitness("projection", direct_sum(n_prime, N), r3),
        ),
    )


def _joined(link: np.ndarray, eps: float, delta: float) -> PairRelation:
    """The relation on a direct sum joining state ``a`` of its first chain to
    state ``b`` of its second wherever ``link[a, b]``."""
    a, b = link.shape
    return PairRelation._of(np.block([[np.eye(a, dtype=bool), link], [link.T, np.eye(b, dtype=bool)]]), eps, delta)


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


def load_relation(path: str, chain: Ctmc) -> PairRelation:
    with open(path, "r", encoding="utf-8") as fh:
        return relation_from_dict(json.load(fh), chain)
