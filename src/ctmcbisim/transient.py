"""Exact transient analysis via uniformization.

The workhorse is the subordinated-Poisson series
``pi_t = sum_k e^{-qt} (qt)^k / k! * init * Pbar^k`` with right
truncation once the accumulated Poisson mass reaches ``1 - tol``.  One
generator, ``_powers``, yields ``init * Pbar^k`` for every series here,
and a time grid shares one run of it.  On top of it: timed
reachability, exact-step hitting probabilities ``p_n``, expected
hitting steps, ground-truth acceleration-error curves, and a
seeded Monte Carlo cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterator, Sequence

import numpy as np

from . import graph
from .errors import JumpBudgetExceeded, NonUniformRates
from .model import Ctmc, _absorbing_states, scale, uniformize

#: truncation-depth cap shared by the series of the package (Poisson
#: weights, hit-step distributions, the Erlang and spectral tails)
MAX_TERMS = 1 << 22


def _lengths(first: int, cap: int) -> list[int]:
    """The lengths a truncated series tries, shortest first: ``first``,
    ``2 first``, ``4 first``, ... below ``cap``, then ``cap`` itself."""
    return sorted({min(first << j, cap) for j in range(cap.bit_length() + 1)})


def _check_horizon(horizon: float) -> None:
    if not 0.0 <= horizon < math.inf:
        raise ValueError(f"horizon must be finite and nonnegative, got {horizon!r}")


def _check_tol(tol: float) -> None:
    """The one range of a truncation or reconstruction tolerance: (0, 1).
    Every series and decomposition of the package reads it before its
    first term, the ``--tol`` option of the CLI included."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be positive and below 1, got tol={tol!r}")


# ln k! for k = 0..len-1.  Growing replaces the whole array and never writes
# to the old one, so slices handed out stay valid; two callers growing it at
# once only repeat work, since every table holds the same values.
_LOG_FACTORIALS = np.zeros(1)
_LOG_FACTORIALS.flags.writeable = False


def log_factorials(kmax: int) -> np.ndarray:
    """Read-only ``out[k] = lgamma(k + 1)`` for k = 0..kmax.

    Served from one module-level table that grows geometrically, so the
    Poisson weights of many horizons share the ``math.lgamma`` calls.
    """
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if kmax >= len(table):
        size = max(kmax + 1, 2 * len(table))
        grown = np.empty(size)
        grown[: len(table)] = table
        grown[len(table) :] = [math.lgamma(k + 1.0) for k in range(len(table), size)]
        grown.flags.writeable = False
        _LOG_FACTORIALS = table = grown
    return table[: kmax + 1]


def _log_pmf(k, mu, log_mu):
    """``k ln(mu) + -mu - lgamma(k+1)``, the Poisson(mu) pmf's exponent at k, broadcast."""
    return k * log_mu + -mu - log_factorials(np.max(k))[k]


def _poisson_pmf(mu: float, K: int) -> np.ndarray:
    """``exp(k ln(mu) + -mu - lgamma(k+1))`` for k = 0..K (mu > 0)."""
    return np.exp(_log_pmf(np.arange(K + 1), mu, math.log(mu)))


def poisson_weights(mu: float, tol: float) -> np.ndarray:
    """Poisson(mu) weights for k = 0..K with total mass >= 1 - tol.

    Computed per-term through ``exp(-mu + k*ln(mu) - lgamma(k+1))`` so
    large ``mu`` neither overflows nor loses the mass near the mode.
    Raises ValueError when ``tol`` is below the rounding error of the
    summed weights, so that no K reaches ``1 - tol``, and before
    allocating once K would pass ``MAX_TERMS``.
    """
    _check_tol(tol)
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"mu must be finite and nonnegative, got {mu!r}")
    if mu == 0.0:
        return np.ones(1)
    K = int(math.ceil(mu + 10.0 * math.sqrt(mu + 1.0) + 30.0))
    last = None
    while True:
        if K > MAX_TERMS:
            raise ValueError(
                f"Poisson({mu!r}) weights for tol={tol!r} need more than {MAX_TERMS} terms"
            )
        w = _poisson_pmf(mu, K)
        cum = np.cumsum(w)
        if cum[-1] >= 1.0 - tol:
            stop = int(np.searchsorted(cum, 1.0 - tol)) + 1
            return w[:stop]
        # past the mode the terms only shrink: once a doubling adds nothing
        # to the rounded sum, no larger K will either
        if cum[-1] == last:
            raise ValueError(
                f"Poisson({mu!r}) weights sum to {float(cum[-1])!r} in double precision,"
                f" short of 1 - tol for tol={tol!r}; use a larger tolerance"
            )
        last = cum[-1]
        K *= 2


def _powers(P: np.ndarray, start: int) -> Iterator[np.ndarray]:
    """``e_start P^k`` for k = 0, 1, 2, ..., one vector-matrix product per step."""
    v = np.zeros(P.shape[0])
    v[start] = 1.0
    while True:
        yield v
        v = v @ P


def _timed_curve(M: Ctmc, s: int | str | None, t_grid: Sequence[float], tol: float) -> np.ndarray:
    """Pr(in the goal state at t) from s at every grid time.

    One goal series, as deep as the largest t needs, serves the grid, and
    each t sums its weights over it in index order, which gives the bits of
    a series run for that t alone."""
    ts = [float(t) for t in t_grid]
    if not ts:
        return np.empty(0)
    g = M.goal_state()
    start = M.initial if s is None else M.index(s)
    q = M.max_rate()
    for t in ts:
        _check_horizon(t)
    _check_tol(tol)
    weights = [poisson_weights(q * t, tol) for t in ts]
    series = itertools.islice(_powers(uniformize(M, q).P, start), max(map(len, weights)))
    x = np.array([v[g] for v in series])
    return np.array([np.cumsum(w * x[: len(w)])[-1] for w in weights])


def timed_reach(M: Ctmc, s: int | str | None, t: float, tol: float = 1e-9) -> float:
    """Probability of sitting in the goal state at time t on the chain as
    given (= reaching it by t, since the goal must be absorbing)."""
    return float(_timed_curve(M, s, [t], tol)[0])


def timed_reach_curve(M: Ctmc, t_grid: Sequence[float], tol: float = 1e-9) -> np.ndarray:
    return _timed_curve(M, None, t_grid, tol)


def _absorption_solve(M: Ctmc, T: list[int], b: np.ndarray) -> float:
    """``x[initial]`` for ``(I - P[T, T]) x = b``; ``T`` is sorted and holds
    the initial state."""
    x = np.linalg.solve(np.eye(len(T)) - M.P[np.ix_(T, T)], b)
    return float(x[T.index(M.initial)])


def reach_prob(M: Ctmc) -> float:
    """Probability of ever reaching the absorbing goal of the chain as given."""
    g = M.goal_state()
    if M.initial == g:
        return 1.0
    can = graph.reach(M.pred, [g])
    if M.initial not in can:
        return 0.0
    T = sorted(can - {g})
    return _absorption_solve(M, T, M.P[T, g])


@dataclass(frozen=True)
class HitStepDistribution:
    """First-hit step probabilities p_1..p_K plus the certified remainder.

    ``tail_mass`` is the hit probability not yet accounted for:
    Pr(ever reach g) - sum(probs).
    """

    probs: np.ndarray
    reach: float

    @property
    def tail_mass(self) -> float:
        return max(0.0, self.reach - float(self.probs.sum()))

    def p(self, n: int) -> float:
        if n < 1:
            raise ValueError("steps are 1-based")
        return float(self.probs[n - 1]) if n <= len(self.probs) else 0.0


def hit_exact_steps(M: Ctmc, K: int, tol: float | None = None) -> HitStepDistribution:
    """p_n = (P^n - P^{n-1})[init, g] for n = 1..K on the chain as given (g absorbing).

    With ``tol`` the series stops early: it tries the lengths L of
    ``_lengths(64, K)`` in turn and returns p_1..p_L at the first L whose
    ``tail_mass`` is below ``tol``, and p_1..p_K when none is.  One run of
    ``_powers`` is extended from length to length and ``reach_prob`` is
    solved once, after the first length, so every L gives the bits of a
    call with K = L, in at most K vector-matrix products.
    """
    if tol is not None:
        _check_tol(tol)
    g = M.goal_state()
    series = _powers(M.P, M.initial)
    x = np.empty(0)
    reach = None
    for L in _lengths(64, K) if tol is not None else [K]:
        more = L + 1 - len(x)
        x = np.concatenate([x, np.fromiter((v[g] for v in itertools.islice(series, more)), float, more)])
        if reach is None:
            reach = reach_prob(M)
        hits = HitStepDistribution(probs=np.maximum(np.diff(x), 0.0), reach=reach)
        if tol is not None and hits.tail_mass < tol:
            break
    return hits


def expected_hit_steps(M: Ctmc) -> float:
    """Expected number of embedded steps to absorb in g on the chain as given
    (g absorbing); ``inf`` as soon as a state reachable from the initial one cannot reach g."""
    g = M.goal_state()
    reachable = graph.reach(M.succ, [M.initial])
    can = graph.reach(M.pred, [g])
    if not reachable <= can:
        return math.inf
    T = sorted(reachable - {g})
    if not T:
        return 0.0
    return _absorption_solve(M, T, np.ones(len(T)))


def diff_curve(M: Ctmc, c: float, t_grid: Sequence[float], tol: float = 1e-9) -> np.ndarray:
    """Ground-truth |Pr^{cM}(reach g by t) - Pr^M(reach g by t)| per grid point.

    Reads the chain as given, which must have uniform rates and an
    absorbing goal; the accelerated chain is ``scale(M, c)``.
    """
    if not M.is_uniform():
        raise NonUniformRates("diff_curve requires a uniform-rate chain")
    if c < 1.0:
        raise ValueError("acceleration factor must be >= 1")
    M.goal_state()
    if c == 1.0:
        return np.zeros(len(t_grid))
    return np.abs(timed_reach_curve(scale(M, c), t_grid, tol) - timed_reach_curve(M, t_grid, tol))


@dataclass(frozen=True)
class SimulationResult:
    estimate: float
    ci_low: float
    ci_high: float
    hits: int
    paths: int
    confidence: float

    def contains(self, p: float) -> bool:
        return self.ci_low <= p <= self.ci_high


def _wilson(hits: int, n: int, confidence: float) -> tuple[float, float]:
    """Wilson score interval of ``hits / n``; an end is exactly 0 or 1 when hits is 0 or n."""
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = hits / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    return (max(0.0, center - half) if hits else 0.0), (min(1.0, center + half) if hits < n else 1.0)


#: the largest float below 1.0
_BELOW_ONE = np.nextafter(1.0, 0.0)


def _guide_table(P: np.ndarray, succ: graph.Index) -> tuple[np.ndarray, ...]:
    """Guide table for drawing a next state from every row of ``P``
    (indexed search: Chen & Asau, AIIE Trans. 1974).

    Returns ``(c, cols, base, buckets, guide)``.  ``cols`` is ``succ``'s
    list of positive columns, row after row, and ``c`` holds the values of
    ``np.cumsum(P, axis=1)`` at them, except that the last entry of each
    row is ``inf``.  ``buckets[s]`` is the smallest power of two ``B_s`` >=
    the row's count of positive entries, and ``guide[base[s] + k]`` (k <
    B_s) is the index in ``c`` of the row's first entry that is not below
    ``k / B_s``; it is int32 when those indexes fit.  Every array holds
    O(nnz) entries, and the build holds temporaries of one block of
    ``graph.BLOCK_CELLS`` cells of P at a time.
    """
    indptr, cols = succ
    deg = np.diff(indptr)
    buckets = np.left_shift(np.intp(1), np.frexp(deg - 1)[1])
    base = np.zeros(len(deg) + 1, dtype=np.intp)
    np.cumsum(buckets, out=base[1:])
    c = np.empty(len(cols))
    guide = np.empty(base[-1], dtype=np.int32 if len(cols) < 2**31 else np.intp)
    for b in graph.blocks(len(deg), len(deg)):
        r0, r1 = b.start, b.stop
        block = P[b]
        lo = indptr[r0]
        # over positive columns these are the bits of the dense row's cumsum
        # (adding 0.0 is exact and cumsum is sequential)
        cb = c[lo : indptr[r1]]
        cb[:] = np.cumsum(block, axis=1)[block > 0.0]
        # every draw that passes the row's other entries picks its last
        # column, whether or not it lies above the row's rounded sum
        cb[indptr[r0 + 1 : r1 + 1] - 1 - lo] = np.inf
        # an entry of row s counts as below k / B_s from table slot base[s] + k
        # on, k = floor(c * B_s) + 1 (exact, B_s being a power of two), and
        # from base[s + 1] on when c >= 1 (the inf too), where clamping c to
        # the float below 1.0 makes k = B_s; the entries of earlier rows all
        # count from base[s] on, so the count at slot t is the index guide[t]
        # asks for.  The block's slots count from its first, base[r0], after
        # the lo entries of earlier blocks
        key = np.minimum(cb, _BELOW_ONE)
        key *= np.repeat(buckets[r0:r1], deg[r0:r1])
        key = key.astype(np.intp)
        key += np.repeat(base[r0:r1] + 1 - base[r0], deg[r0:r1])
        slots = guide[base[r0] : base[r1]]
        counts = np.bincount(key, minlength=len(slots) + 1)[:-1]
        counts[0] += lo
        np.cumsum(counts, out=slots)
    return c, cols, base, buckets, guide


def _next_states(table: tuple[np.ndarray, ...], s: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each path i, the column that the draw ``u[i]`` picks in row
    ``s[i]`` of the chain of ``table`` (from ``_guide_table``).

    That is the column of ``clip(#{j : cum[s, j] < u}, first[s], last[s])``
    for the dense cumulative row ``cum[s]``: the first positive column whose
    ``cum`` is not below ``u``, the last positive one when there is none (a
    draw above the row's rounded sum), and the first when ``u`` is 0.0.
    The bucket ``k = floor(min(u, _BELOW_ONE) * B_s)`` is exact and below
    ``B_s`` for every ``u >= 0`` (a generator's draw is below 1 already),
    and every entry before ``guide[base[s] + k]`` is below ``k / B_s <= u``,
    so the draw starts there and scans forward, one vectorised round per
    step, while the entry is below ``u``; the ``inf`` at the row's end stops
    every scan.  For a uniform ``u`` a scan passes at most
    ``1 + nnz_s / B_s <= 2`` entries in expectation.
    """
    c, cols, base, buckets, guide = table
    # as intp, since every later index with an int32 array converts it again
    pos = guide[base[s] + (np.minimum(u, _BELOW_ONE) * buckets[s]).astype(np.intp)].astype(np.intp)
    scan = np.flatnonzero(c[pos] < u)
    while scan.size:
        pos[scan] += 1
        scan = scan[c[pos[scan]] < u[scan]]
    return cols[pos]


def simulate_paths(
    M: Ctmc,
    n: int,
    horizon: float,
    seed: int,
    budget_weights: np.ndarray | None = None,
    confidence: float = 0.95,
    max_jumps: int = 100_000,
) -> SimulationResult:
    """Seeded Monte Carlo estimate of reaching g within the horizon.

    With ``budget_weights`` w the clock advances by ``w[s] * sojourn``
    instead of the sojourn itself, which turns the same sampler into a
    reward-accumulation estimator (weights = per-state reward rates).
    Each round advances only the running paths, in path order, as vector
    operations, so its work is O(running paths).  Each next state is drawn
    exactly from a guide table built once per call (``_guide_table``,
    O(nnz) memory): expected O(1) work per path and jump, and the same
    column as a scan of the dense cumulative row.  A path stops on the
    jump that reaches the goal or an absorbing state, and when its clock
    passes the horizon.  Raises
    :class:`JumpBudgetExceeded` when a path is still running after
    ``max_jumps`` jumps, and ValueError, before any random draw, for a bad
    ``n``, ``seed``, ``max_jumps``, ``horizon``, ``confidence`` or
    ``budget_weights``.
    """
    for name, value, least in (("n", n, 1), ("seed", seed, 0), ("max_jumps", max_jumps, 1)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError(
                f"{name} must be an integer >= {least}, got {value!r}"
                + ("; need at least one path" if name == "n" else "")
            )
    _check_horizon(horizon)
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    weights = np.ones(M.n) if budget_weights is None else np.asarray(budget_weights, dtype=float)
    if weights.shape != (M.n,) or not np.all(np.isfinite(weights) & (weights >= 0.0)):
        raise ValueError(
            f"budget_weights must be {M.n} finite nonnegative numbers, got shape {weights.shape}"
        )
    g = M.goal_state()
    rng = np.random.default_rng(seed)
    table = _guide_table(M.P, M.succ)
    # a path stops on the jump that reaches the goal or an absorbing state
    stops = _absorbing_states(M.P)
    stops[g] = True

    # the running paths only, in path order, so every round draws as many
    # numbers as there are running paths
    s = np.full(0 if stops[M.initial] else n, M.initial)
    clock = np.zeros(s.size)
    hits = n if M.initial == g else 0
    jumps = 0
    while s.size:
        jumps += 1
        if jumps > max_jumps:
            raise JumpBudgetExceeded(max_jumps)
        with np.errstate(over="ignore"):  # a subnormal rate's sojourn is rightly inf
            sojourn = rng.exponential(1.0, s.size) / M.E[s]
        clock += weights[s] * sojourn
        keep = ~(clock > horizon)
        s, clock = s[keep], clock[keep]
        # a zero-size draw leaves the generator as it was
        nxt = _next_states(table, s, rng.random(s.size))
        hits += int(np.count_nonzero(nxt == g))
        go = ~stops[nxt]
        s, clock = nxt[go], clock[go]

    low, high = _wilson(hits, n, confidence)
    return SimulationResult(
        estimate=hits / n, ci_low=low, ci_high=high, hits=hits, paths=n, confidence=confidence
    )
