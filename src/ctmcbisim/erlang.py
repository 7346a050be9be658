"""Closed-form acceleration-error formulas and the non-spectral bounds.

``erlang_diff(n, c, t)`` is the exact reachability gap between a
length-n rate-1 chain and its c-fold acceleration; it equals the
difference of two Poisson CDFs, which is how it is evaluated (no bare
factorials).  ``gap_curve`` sums such gaps against step weights over a
time grid: the exact series here and the acyclic, diagonal and Jordan
routes in :mod:`spectral` only build their weights.  The gaps of a whole
grid come from one table, ``_gap_rows``, cut where the Poisson terms are
exactly 0; ``erlang_diff_prefix`` is its one-row case.  ``rate_factor`` is
the one gate a caller's delta passes: it checks delta and returns
``e^delta``.  On top of them: the uniformization bound, the Pareto
tolerance region, the Erlang-N bound, the exact p_n-weighted series,
and the expected-steps (Markov-inequality) bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import graph
from .errors import NonUniformRates, NotApplicable, TruncationLimit
from .model import Ctmc, _normal_form
from .transient import MAX_TERMS, _check_tol, _lengths, _log_pmf, expected_hit_steps, hit_exact_steps


# exp() of a float64 exponent below about -745.13 is exactly 0.0; -800 leaves
# a margin far wider than the rounding of any pmf exponent
_ZERO_EXPONENT = -800.0


def _means(c: float, ts: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The Poisson means ``(t, c t)`` of each t, one row each, and their ``math.log``."""
    mus = np.array([(t, c * t) for t in ts], dtype=float).reshape(-1, 2)
    return mus, np.array([math.log(mu) for mu in mus.ravel()]).reshape(mus.shape)


def _cut_width(mus: np.ndarray, logs: np.ndarray, n_max: int) -> int:
    """The narrowest width ``256 * 2^j`` (at most ``n_max``) whose last
    column lies past the mode of every Poisson mean of ``mus`` and has an
    exponent at or below ``_ZERO_EXPONENT`` for each."""
    for w in _lengths(256, n_max)[:-1]:
        if w - 1 > mus.max(initial=0.0) and (_log_pmf(w - 1, mus, logs) <= _ZERO_EXPONENT).all():
            return w
    return n_max


def _gap_table(mus: np.ndarray, logs: np.ndarray, w: int) -> np.ndarray:
    """``max(0, Pr(Poisson(t) <= k) - Pr(Poisson(c t) <= k))`` for k < w,
    one row per row of :func:`_means`.  The pmf terms are the ``exp`` of
    :func:`transient._log_pmf`, as in :func:`transient._poisson_pmf`, so
    every cell has its bits."""
    e = _log_pmf(np.arange(w), mus[:, :, None], logs[:, :, None])
    cdf = np.minimum(np.cumsum(np.exp(e, out=e), axis=2, out=e), 1.0, out=e)
    gap = cdf[:, 0] - cdf[:, 1]
    return np.maximum(0.0, gap, out=gap)


def _gap_rows(c: float, ts: Sequence[float], n_max: int) -> Iterator[np.ndarray]:
    """``erlang_diff_prefix(c, t, n_max)`` for each t of ``ts``, in order.

    The Poisson laws of mean t and c t of every row with a finite c t form
    one table of width ``_cut_width``.  Past that width every pmf exponent
    only falls, below ``_ZERO_EXPONENT``, so every further pmf term is
    exactly 0.0: each CDF keeps its last value, and so does the gap, which
    fills the row out to ``n_max``.  The table is built in blocks of at
    most ``graph.BLOCK_CELLS`` cells and each row is yielded on its own, so no
    table of all rows at full length is ever held.  A row whose c t is
    infinite (t = inf) is computed alone at full width; it is NaN past
    ``out[0]``, as the spectral routes expect.
    """
    if not 1.0 <= c < math.inf:
        raise ValueError(f"c (the acceleration factor) must be a finite number >= 1, got {c!r}")
    for t in ts:
        if not t >= 0.0:
            raise ValueError(f"t must be a number >= 0, got {t!r}")
    if c == 1.0 or n_max <= 0:
        yield from (np.zeros(n_max + 1) for _ in ts)
        return
    mus, logs = _means(c, [t for t in ts if t != 0.0 and c * t < math.inf])
    w = _cut_width(mus, logs, n_max)
    rows = itertools.chain.from_iterable(_gap_table(mus[b], logs[b], w) for b in graph.blocks(len(mus), 2 * w))
    for t in ts:
        out = np.zeros(n_max + 1)
        if t != 0.0:
            row = next(rows) if c * t < math.inf else _gap_table(*_means(c, [t]), n_max)[0]
            out[1 : len(row) + 1] = row
            out[len(row) + 1 :] = row[-1]
        yield out


def erlang_diff_prefix(c: float, t: float, n_max: int) -> np.ndarray:
    """``out[n] = erlang_diff(n, c, t)`` for n = 0..n_max (vectorized).

    ``t = inf``, the infinite horizon of the bound curves, gives NaN past
    ``out[0]`` unless ``c == 1``; the spectral routes clamp it to 1."""
    return next(_gap_rows(c, [t], n_max))


def gap_curve(c: float, rate: float, t_grid, segments, tail: float = 0.0) -> np.ndarray:
    """``sum_n w_n * erlang_diff(n, c, rate*t) + tail`` at every grid time.

    ``segments`` lists ``(scale, w)`` pairs whose weight vectors cover
    n = 1, 2, ... in order.  Each adds ``scale * (w @ gaps)`` over its
    stretch of n, left to right, and ``tail`` is added last.  The gaps of
    all grid times come from one :func:`_gap_rows` table.
    """
    cuts = list(itertools.accumulate((len(w) for _, w in segments), initial=1))
    out = np.empty(len(t_grid))
    for i, diffs in enumerate(_gap_rows(c, [rate * float(t) for t in t_grid], cuts[-1] - 1)):
        parts = (scale * float(w @ diffs[lo:hi]) for (scale, w), lo, hi in zip(segments, cuts, cuts[1:]))
        out[i] = sum(parts) + tail
    return out


def rate_factor(delta: float) -> float:
    """``e^delta`` for a nonnegative delta whose e^delta is finite."""
    if not delta >= 0.0:
        raise ValueError("delta must be nonnegative")
    try:
        c = math.exp(delta)
    except OverflowError:
        c = math.inf
    if c == math.inf:
        raise ValueError(f"delta={delta!r} is too large: e^delta overflows")
    return c


def _gap_index(n: int, t: float) -> int:
    """``n``, once ``n`` and ``t`` are valid arguments of :func:`erlang_diff`."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be a finite number >= 0, got {t!r}")
    return n


def erlang_diff(n: int, c: float, t: float) -> float:
    """Exact gap for the length-n chain: sum_{k<n} t^k/k! (e^-t - c^k e^-ct)."""
    return float(erlang_diff_prefix(c, t, _gap_index(n, t))[n])


def _product(*factors: float) -> float:
    """The product of nonnegative factors, 0.0 when one is 0 even if another
    is infinite.  Mantissas and exponents are multiplied apart, so no
    partial product rounds to 0 or inf where the whole does not."""
    if 0.0 in factors:
        return 0.0
    mantissa, exponent = 1.0, 0
    for x in factors:
        m, e = math.frexp(x)
        mantissa, exponent = mantissa * m, exponent + e
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.inf


def uniformization_bound(eps: float, delta: float, q: float, t: float) -> float:
    """Time-uniform bound 1 - e^{-q t (e^delta (1+eps) - 1)}; 0.0 when q t
    or e^delta (1+eps) - 1 is 0, even if the other factor is infinite.

    The exponent is summed as ``q t expm1(delta) + q t eps e^delta`` and
    the bound taken by ``expm1``, so that a small eps or exponent keeps its
    digits."""
    if not (eps >= 0.0 and q >= 0.0 and t >= 0.0) or delta < 0.0:
        raise ValueError("eps, delta, q, t must all be nonnegative")
    c = rate_factor(delta)
    x = _product(q, t, math.expm1(delta)) + _product(q, t, eps, c)
    return -math.expm1(-x) if x else 0.0


@dataclass(frozen=True)
class ParetoRegion:
    """Tolerance pairs (eps, delta) whose uniformization bound stays <= theta.

    The frontier is governed by the budget ratio
    ``B = (q t - ln(1-theta)) / (q t)``: a pair is admissible iff
    ``e^delta (1 + eps) <= B``.
    """

    theta: float
    q: float
    t: float

    def __post_init__(self):
        if not (0.0 <= self.theta < 1.0):
            raise ValueError("theta must lie in [0, 1)")
        if not (0.0 < self.q < math.inf and 0.0 < self.t < math.inf):
            raise ValueError("q and t must each be positive and finite")
        if not 0.0 < self.q * self.t < math.inf:
            raise ValueError("q*t must be positive and finite")

    @property
    def budget(self) -> float:
        qt = self.q * self.t
        return (qt - math.log(1.0 - self.theta)) / qt

    def eps_max(self, delta: float) -> float:
        return max(0.0, self.budget / rate_factor(delta) - 1.0)

    def delta_max(self, eps: float) -> float:
        ratio = self.budget / (1.0 + eps)
        return max(0.0, math.log(ratio)) if ratio > 0.0 else 0.0

    def contains(self, eps: float, delta: float) -> bool:
        """Admissible, with a relative slack of 1e-12 on the budget (which is
        at least 1), so that every :meth:`frontier` point passes whatever
        the size of the budget."""
        return rate_factor(delta) * (1.0 + eps) <= self.budget * (1.0 + 1e-12)

    def frontier(self, samples: int) -> list[tuple[float, float]]:
        """(eps, delta) pairs along the boundary, delta sweeping 0..delta_max(0)."""
        if samples < 2:
            raise ValueError("need at least 2 samples")
        dmax = self.delta_max(0.0)
        deltas = np.linspace(0.0, dmax, samples)
        return [(self.eps_max(float(d)), float(d)) for d in deltas]


def pareto_region(theta: float, q: float, t: float) -> ParetoRegion:
    return ParetoRegion(theta=theta, q=q, t=t)


def erlang_N(t: float, delta: float) -> int:
    if delta <= 0.0:
        raise NotApplicable("the Erlang-N bound needs delta > 0")
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    length = (rate_factor(delta) - 1.0) * t / delta
    if not length <= MAX_TERMS:
        raise ValueError(
            f"the Erlang-N chain for t={t!r}, delta={delta!r} needs more than MAX_TERMS={MAX_TERMS} states"
        )
    return int(math.ceil(length))


def erlang_N_bound(t: float, delta: float) -> float:
    """Worst-case chain-length bound: erlang_diff at N = ceil((e^d - 1) t / d).

    At delta = 0 the gap is identically zero, and 0 is returned.
    """
    return float(_erlang_N_curve([t], delta)[0])


def _erlang_N_curve(ts: list[float], delta: float) -> np.ndarray:
    """:func:`erlang_N_bound` at every time of ``ts``.

    The chain length N of a time lies below the mode of its fast Poisson
    law, so no table is cut before N.  Consecutive times share one
    :func:`_gap_rows` table as long as it stays within ``graph.BLOCK_CELLS``
    cells at the width of their largest N; a time whose N alone passes
    that gets a table of its own width."""
    c = rate_factor(delta)
    if delta == 0.0:
        for t in ts:
            if not t >= 0.0:
                raise ValueError(f"t must be nonnegative, got {t!r}")
        return np.zeros(len(ts))
    ns = [0 if t == 0.0 else _gap_index(erlang_N(t, delta), t) for t in ts]
    out = np.zeros(len(ts))
    i = 0
    while i < len(ts):
        j, width = i + 1, ns[i]
        while j < len(ts) and 2 * (j + 1 - i) * max(width, ns[j]) <= graph.BLOCK_CELLS:
            j, width = j + 1, max(width, ns[j])
        out[i:j] = [row[n] for n, row in zip(ns[i:j], _gap_rows(c, ts[i:j], width))]
        i = j
    return out


def _uniform_rate(M: Ctmc) -> float:
    if not M.is_uniform():
        raise NonUniformRates("this bound requires a uniform-rate chain")
    return float(M.E[0])


def _prepare(M: Ctmc, delta: float) -> tuple[float, Ctmc, float]:
    """The prologue of every Erlang and spectral curve: ``e^delta``, the normal form, its rate."""
    c = rate_factor(delta)
    Mn = _normal_form(M)
    return c, Mn, _uniform_rate(Mn)


def exact_diff_curve(M: Ctmc, delta: float, t_grid: Sequence[float], tol: float = 1e-9) -> np.ndarray:
    """sum_n p_n * erlang_diff(n, e^delta, t') at every grid time, truncated
    once the hit mass not yet summed drops below tol (each remaining term is
    <= that mass).  Raises :class:`TruncationLimit` when that mass is still
    >= tol after ``MAX_TERMS`` steps.

    The p_n, hit-step probabilities of the normal form, do not depend on t,
    so one call of :func:`hit_exact_steps` with the stopping rule ``tol``
    computes them for the whole grid: a single series, checked at 64, 128,
    ... steps up to ``MAX_TERMS``.  General uniform rate r is handled by
    evaluating at t' = r*t.
    """
    c, Mn, r = _prepare(M, delta)
    _check_tol(tol)
    ts = [float(t) for t in t_grid]
    if delta == 0.0 or not any(ts):
        return np.zeros(len(ts))
    hits = hit_exact_steps(Mn, MAX_TERMS, tol)
    if hits.tail_mass < tol:
        return gap_curve(c, r, ts, [(1.0, hits.probs)])
    raise TruncationLimit(
        f"hit mass {hits.tail_mass:g} is still >= tol={tol!r} after {MAX_TERMS} steps (MAX_TERMS={MAX_TERMS})"
    )


def exact_diff_series(M: Ctmc, delta: float, t: float, tol: float = 1e-9) -> float:
    """:func:`exact_diff_curve` at the single time t."""
    return float(exact_diff_curve(M, delta, [t], tol)[0])


def markov_curve(M: Ctmc, delta: float, t_grid: Sequence[float], tol: float = 1e-9) -> np.ndarray:
    """E(steps) * sum_n (1/n) erlang_diff(n, e^delta, t'), clamped at 1, at
    every grid time, E(steps) being that of the normal form.

    The truncation remainder is certified through the exact identity
    sum_{n>=1} erlang_diff(n, c, t') = t' (c - 1): the tail satisfies
    sum_{n>K} (1/n) diff_n <= (t'(c-1) - sum_{n<=K} diff_n) / (K+1)
    and is *added* to the partial sum so the result stays an upper bound.
    The expected step count is computed once; the truncation point K
    depends on t and is found per grid time.
    """
    c, Mn, r = _prepare(M, delta)
    _check_tol(tol)
    ex = expected_hit_steps(Mn)
    if math.isinf(ex):
        raise NotApplicable("expected hitting steps are infinite (fail state reachable)")
    ts = [float(t) for t in t_grid]
    out = np.zeros(len(ts))
    if delta == 0.0:
        return out
    # the first length serves the whole grid from one table; a time whose
    # tail it leaves too large tries the longer lengths one at a time
    first, *longer = _lengths(256, MAX_TERMS)
    teffs = [r * t for t in ts]
    for i, (t, teff, diffs) in enumerate(zip(ts, teffs, _gap_rows(c, teffs, first))):
        if t == 0.0:
            continue
        total = teff * (c - 1.0)
        for K in (first, *longer):
            if K != first:
                diffs = erlang_diff_prefix(c, teff, K)
            partial = float(np.dot(diffs[1:], 1.0 / np.arange(1.0, K + 1.0)))
            tail = max(0.0, total - float(diffs[1:].sum())) / (K + 1.0)
            if ex * tail < tol:
                break
        out[i] = min(1.0, ex * (partial + tail))
    return out


def markov_bound(M: Ctmc, delta: float, t: float) -> float:
    """:func:`markov_curve` at the single time t."""
    return float(markov_curve(M, delta, [t])[0])
