"""Eigenstructure of absorbing jump chains and the rate-gap bounds built on it.

The jump matrix of a goal-normalized chain is decomposed as ``S J S^-1``
(diagonal when possible, block upper-bidiagonal otherwise).  From the
decomposition we read off the first-hit step probabilities in closed form
and turn the dominant eigenvalue into reachability-gap bounds that decay
to zero for large horizons, unlike the worst-case chain-length bound.

All decompositions are verified by reconstruction: if ``max |S J S^-1 - P|``
exceeds the tolerance the result is rejected rather than returned.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .bisim import _joined, split_construction
from .erlang import _erlang_N_curve, _prepare, gap_curve, uniformization_bound
from .errors import (
    AcyclicChain,
    DecompositionFallbackWarning,
    DecompositionUnstable,
    ModulusOneNotOne,
    NotAcyclic,
    NumericalFailure,
    SpectralGapZero,
    TruncationLimit,
    WrongKind,
)
from . import graph
from .model import Ctmc, _absorbing_states, _normal_form
from .pairuniform import uniformize_pair
from .transient import MAX_TERMS, _check_tol, _lengths, hit_exact_steps

#: eigenvalues closer than this are treated as one (defective) eigenvalue
CLUSTER_TOL = 1e-7
#: any eigenvalue of modulus >= 1 - MOD_ONE_TOL must be the eigenvalue 1
MOD_ONE_TOL = 1e-6
#: eigenvector matrices worse-conditioned than this go down the Jordan path
COND_GATE = 1e8
#: the staircase construction is only attempted up to this state count
JORDAN_MAX_N = 50
#: relative singular-value cutoff when measuring kernel dimensions
RANK_TOL = 1e-8
#: largest imaginary part tolerated in a (real) step probability
IMAG_TOL = 1e-9


@dataclass(frozen=True)
class SpectralData:
    """A verified ``P = S J S^-1`` factorization.

    ``blocks`` lists ``(eigenvalue, size)`` in column order; for
    ``kind == "diag"`` every size is 1 and J is the diagonal of
    ``eigenvalues``.  ``a_p`` is the multiplicity of the eigenvalue 1
    (equals the number of absorbing states), and those columns come first.
    """

    kind: str  # "diag" | "jordan"
    S: np.ndarray
    S_inv: np.ndarray
    eigenvalues: np.ndarray
    blocks: tuple[tuple[complex, int], ...]
    a_p: int
    residual: float

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def lam(self) -> float:
        """Modulus of the largest eigenvalue other than 1 (0 if none)."""
        if self.a_p >= self.n:
            return 0.0
        return float(abs(self.eigenvalues[self.a_p]))


def _eig_sort_key(ev: complex):
    return (-abs(ev), cmath.phase(ev))


def _project_out(w: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    """``w`` minus its components along the orthonormal ``basis``."""
    for _ in range(2):  # two Gram-Schmidt passes
        for b in basis:
            w = w - (b.conj() @ w) * b
    return w


def _orthonormalize(vectors: list[np.ndarray]) -> list[np.ndarray]:
    basis: list[np.ndarray] = []
    for v in vectors:
        w = _project_out(np.asarray(v, dtype=complex), basis)
        norm = float(np.linalg.norm(w))
        if norm > 1e-10:
            basis.append(w / norm)
    return basis


def _pick_complement(cands: np.ndarray, existing: list[np.ndarray], need: int, tol: float) -> list[np.ndarray]:
    """Greedily select `need` candidate columns independent of `existing`."""
    basis = _orthonormalize(existing)
    picked: list[np.ndarray] = []
    for _ in range(need):
        best, best_norm = None, 0.0
        for j in range(cands.shape[1]):
            w = _project_out(cands[:, j].astype(complex), basis)
            norm = float(np.linalg.norm(w))
            if norm > best_norm:
                best_norm, best = norm, w
        if best is None or best_norm < 1e-8:
            raise DecompositionUnstable(math.inf, tol)
        v = best / best_norm
        basis.append(v)
        picked.append(v)
    return picked


def _cluster_chains(P: np.ndarray, mu: complex, mult: int, tol: float) -> list[tuple[int, list[np.ndarray]]]:
    """Generalized eigenvector chains for one eigenvalue, longest first.

    Kernel dimensions of ``(P - mu I)^k``, read with the kernels from one
    SVD per power, fix the block sizes; top vectors are chosen per level to
    complement the lower kernel plus the images of the longer chains, then
    each chain is read off as ``A^{l-1} v, ..., A v, v`` (eigenvector
    first).
    """
    n = P.shape[0]
    A = P.astype(complex) - mu * np.eye(n)
    powers = [np.eye(n, dtype=complex)]
    kernels: list[np.ndarray | None] = [None]
    dims = [0]
    while dims[-1] < mult:
        powers.append(powers[-1] @ A)
        _, s, vh = np.linalg.svd(powers[-1])
        rank = int(np.sum(s > RANK_TOL * max(1.0, float(s[0]))))
        dk = min(n - rank, mult)
        if dk <= dims[-1]:
            raise DecompositionUnstable(math.inf, tol)
        dims.append(dk)
        kernels.append(vh[rank:].conj().T)
    depth = len(dims) - 1
    at_least = [dims[k] - dims[k - 1] for k in range(1, depth + 1)]
    if any(at_least[i] < at_least[i + 1] for i in range(depth - 1)):
        raise DecompositionUnstable(math.inf, tol)
    exactly = [
        at_least[k] - (at_least[k + 1] if k + 1 < depth else 0) for k in range(depth)
    ]

    tops: list[tuple[int, np.ndarray]] = []
    for k in range(depth, 0, -1):
        need = exactly[k - 1]
        if need == 0:
            continue
        existing: list[np.ndarray] = []
        if k >= 2:
            existing.extend(kernels[k - 1].T)
        existing.extend(powers[l - k] @ v for l, v in tops)  # longer chains, at this level
        tops.extend((k, v) for v in _pick_complement(kernels[k], existing, need, tol))

    chains = []
    for length, v in sorted(tops, key=lambda lv: -lv[0]):
        cols = [powers[length - 1 - i] @ v for i in range(length)]
        scale = max(float(np.linalg.norm(c)) for c in cols)
        chains.append((length, [c / scale for c in cols]))
    return chains


def decompose(P: np.ndarray, tol: float = 1e-9) -> SpectralData:
    """Verified eigendecomposition of a jump matrix.

    Tries the plain eigenbasis first; if it is ill-conditioned or fails to
    reconstruct P, falls back to the full block form.  Raises
    :class:`ModulusOneNotOne` when the modulus-one eigenvalues are not all
    the eigenvalue 1 with multiplicity equal to the number of absorbing
    states (absorption would not be almost sure), and
    :class:`DecompositionUnstable` when no factorization reconstructs P
    within ``tol``.
    """
    _check_tol(tol)
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    if P.shape != (n, n):
        raise ValueError("P must be square")
    absorbing = int(np.sum(_absorbing_states(P)))

    evals, evecs = np.linalg.eig(P)
    big = np.abs(evals) >= 1.0 - MOD_ONE_TOL
    if np.any(np.abs(evals[big] - 1.0) > MOD_ONE_TOL):
        worst = evals[big][np.argmax(np.abs(evals[big] - 1.0))]
        raise ModulusOneNotOne(f"eigenvalue {worst} has modulus ~1 but is not ~1")
    a_p = int(np.sum(big))
    if a_p != absorbing:
        raise ModulusOneNotOne(
            f"eigenvalue 1 has multiplicity {a_p} but the chain has {absorbing}"
            " absorbing states"
        )
    evals = evals.copy()
    evals[big] = 1.0

    order = sorted(range(n), key=lambda i: _eig_sort_key(evals[i]))
    evs = evals[order]
    V = evecs[:, order]
    if np.linalg.cond(V) <= COND_GATE:
        try:
            V_inv = np.linalg.inv(V)
        except np.linalg.LinAlgError:
            V_inv = None
        if V_inv is not None:
            residual = float(np.max(np.abs((V * evs) @ V_inv - P)))
            if residual <= tol:
                return SpectralData(
                    kind="diag",
                    S=V,
                    S_inv=V_inv,
                    eigenvalues=evs,
                    blocks=tuple((complex(ev), 1) for ev in evs),
                    a_p=a_p,
                    residual=residual,
                )

    # ---------------------------------------------------------- Jordan path
    if n > JORDAN_MAX_N:
        raise DecompositionUnstable(math.inf, tol)

    # cluster nearby eigenvalues; snap the 1- and 0-clusters exactly
    near = np.abs(evals[:, None] - evals[None, :]) <= CLUSTER_TOL
    clusters: list[tuple[complex, int]] = []
    label = graph.components(graph.csr(near))
    for vals in (evals[label == c] for c in range(label.max() + 1)):
        if np.any(np.abs(vals - 1.0) <= MOD_ONE_TOL):
            rep = 1.0 + 0.0j
        elif np.all(np.abs(vals) <= CLUSTER_TOL):
            rep = 0.0 + 0.0j
        else:
            rep = complex(np.mean(vals))
        clusters.append((rep, len(vals)))
    clusters.sort(key=lambda c: (c[0] != 1.0,) + _eig_sort_key(c[0]))

    cols: list[np.ndarray] = []
    blocks: list[tuple[complex, int]] = []
    for mu, mult in clusters:
        chains = _cluster_chains(P, mu, mult, tol)
        if mu == 1.0 and any(length > 1 for length, _ in chains):
            raise ModulusOneNotOne("the eigenvalue 1 is defective")
        for length, chain_cols in chains:
            cols.extend(chain_cols)
            blocks.append((mu, length))

    S = np.column_stack(cols)
    try:
        S_inv = np.linalg.inv(S)
    except np.linalg.LinAlgError:
        raise DecompositionUnstable(math.inf, tol) from None
    # eigenvalues on the diagonal, ones on the superdiagonal inside each block
    mus, sizes = zip(*blocks)
    eigenvalues = np.repeat(np.array(mus), sizes)
    J = np.diag(eigenvalues)
    block_of = np.repeat(np.arange(len(blocks)), sizes)
    inner = np.flatnonzero(block_of[1:] == block_of[:-1])
    J[inner, inner + 1] = 1.0
    residual = float(np.max(np.abs(S @ J @ S_inv - P)))
    if residual > tol:
        raise DecompositionUnstable(residual, tol)
    return SpectralData(
        kind="jordan",
        S=S,
        S_inv=S_inv,
        eigenvalues=eigenvalues,
        blocks=tuple(blocks),
        a_p=a_p,
        residual=residual,
    )


def as_jordan(sd: SpectralData) -> SpectralData:
    """View a diagonal factorization as a (size-1 blocks) block form."""
    if sd.kind == "jordan":
        return sd
    return replace(sd, kind="jordan")


# --------------------------------------------------------------------------
# closed-form step probabilities
# --------------------------------------------------------------------------


def _real_part(value: complex) -> float:
    if abs(value.imag) > IMAG_TOL:
        raise DecompositionUnstable(abs(value.imag), IMAG_TOL)
    return float(value.real)


def _diag_coefs(sd: SpectralData) -> np.ndarray:
    """Per transient eigenvalue lam, ``S[0, i] S^-1[i, n-1] (lam - 1)``: its
    weight in the step probabilities from row 0 into the goal column."""
    a_p = sd.a_p
    return sd.S[0, a_p:] * sd.S_inv[a_p:, sd.n - 1] * (sd.eigenvalues[a_p:] - 1.0)


def pn_diag(sd: SpectralData, k: int) -> float:
    """p_k: probability of first entering the goal column (the last) from
    row 0 at step k exactly, read from a diagonal factorization."""
    if sd.kind != "diag":
        raise WrongKind("pn_diag needs a diagonal factorization")
    if k < 1:
        raise ValueError("steps are 1-based")
    lams = sd.eigenvalues[sd.a_p:]
    return _real_part(complex(np.sum(_diag_coefs(sd) * lams ** (k - 1))))


def pn_jordan(sd: SpectralData, N: int) -> float:
    """p_N, from row 0 into the goal column (the last), from a block
    factorization (handles defective matrices).

    Blocks at the eigenvalue 1 contribute nothing; blocks at 0 contribute
    through the shifted difference of their nilpotent powers; every other
    block contributes binomially weighted powers of its eigenvalue.
    """
    if sd.kind != "jordan":
        raise WrongKind("pn_jordan needs a block factorization")
    if N < 1:
        raise ValueError("steps are 1-based")
    g = sd.n - 1
    total = 0.0 + 0.0j
    off = 0
    for mu, size in sd.blocks:
        if mu == 1.0:
            off += size
            continue
        if mu == 0.0:
            # (Z^N - Z^{N-1}) of the nilpotent shift: two staggered diagonals.
            for j in range(0, size - N + 1):
                coef = (sd.S[0, off + j - 1] if j >= 1 else 0.0) - sd.S[0, off + j]
                total += coef * sd.S_inv[off + N - 1 + j, g]
            off += size
            continue
        for m in range(0, min(N, size - 1) + 1):
            if m == N:
                c = 1.0 + 0.0j
            else:
                c = mu ** (N - 1 - m) * (mu * math.comb(N, m) - math.comb(N - 1, m))
            inner = 0.0 + 0.0j
            for a in range(0, size - m):
                inner += sd.S[0, off + a] * sd.S_inv[off + a + m, g]
            total += c * inner
        off += size
    return _real_part(total)


# --------------------------------------------------------------------------
# bounds
# --------------------------------------------------------------------------


def is_embedded_acyclic(M: Ctmc) -> bool:
    """True when the transient part of the jump graph has no cycle (a
    positive self-loop counts as one)."""
    return graph.find_cycle(M.succ, ~_absorbing_states(M.P)) is None


def _acyclic_values(Mn: Ctmc, rate: float, c: float, t_grid) -> np.ndarray:
    L = int(Mn.n - np.sum(_absorbing_states(Mn.P)))
    if L == 0:
        return np.zeros(len(t_grid))
    return gap_curve(c, rate, t_grid, [(1.0, hit_exact_steps(Mn, L).probs)])


def acyclic_exact(M: Ctmc, delta: float, t: float) -> float:
    """Exact reachability gap against the ``e^delta``-accelerated copy for a
    chain whose transient jump graph is a DAG: the hit-step distribution has
    finite support, so the series is a finite sum with no truncation."""
    c, Mn, rate = _prepare(M, delta)
    if not is_embedded_acyclic(Mn):
        raise NotAcyclic("the transient jump graph has a cycle")
    return float(_acyclic_values(Mn, rate, c, [t])[0])


def _diag_bound_from(sd: SpectralData, rate: float, c: float, t_grid, tol: float) -> np.ndarray:
    trans = sd.n - sd.a_p
    if trans == 0:
        return np.zeros(len(t_grid))
    lam = sd.lam
    if lam >= 1.0 - 1e-12:
        raise SpectralGapZero(f"second eigenvalue modulus {lam} leaves no decay margin")
    C = float(np.max(np.abs(_diag_coefs(sd))))

    for K in _lengths(64, MAX_TERMS):
        tail = trans * C * lam**K / (1.0 - lam)
        if tail < tol:
            break
    return np.fmin(1.0, gap_curve(c, rate, t_grid, [(trans * C, lam ** np.arange(K))], tail))


def _jordan_bound_from(sd: SpectralData, rate: float, c: float, t_grid, tol: float) -> np.ndarray:
    regular = [(mu, size) for mu, size in sd.blocks if mu != 0.0 and mu != 1.0]
    if not regular:
        raise AcyclicChain("every transient eigenvalue vanishes; the gap is a finite sum")
    lam = max(abs(mu) for mu, _ in regular)
    if lam >= 1.0 - 1e-12:
        raise SpectralGapZero(f"second eigenvalue modulus {lam} leaves no decay margin")
    r_reg = max(size for _, size in regular)
    R = max(size for _, size in sd.blocks)
    g = sd.n - 1

    C = 0.0
    off = 0
    for mu, size in sd.blocks:
        if mu != 0.0 and mu != 1.0:
            star = max(abs(mu), abs(1.0 - mu))
            for k in range(1, size + 1):
                for j in range(k, size + 1):
                    C += abs(sd.S[0, off + k - 1] * sd.S_inv[off + j - 1, g]) * star
        off += size

    # exact head through step R (covers the nilpotent blocks entirely),
    # eigenvalue envelope C * k^{r-1} lam^{k-r} beyond it
    head = np.array([max(0.0, pn_jordan(sd, k)) for k in range(1, R + 1)])
    log_lam = math.log(lam)
    for K in _lengths(max(2 * R + 2, 256), MAX_TERMS):
        rho = lam * ((K + 2) / (K + 1)) ** (r_reg - 1)
        envelope = math.exp((r_reg - 1) * math.log(K + 1) + (K + 1 - r_reg) * log_lam)
        tail = C * envelope / (1.0 - rho) if rho < 1.0 else math.inf
        if tail < tol:
            break
    if tail == math.inf:
        raise TruncationLimit(f"the envelope ratio {rho:g} is still >= 1 after {K} steps (MAX_TERMS={MAX_TERMS})")
    ks = np.arange(R + 1, K + 1, dtype=float)
    envs = np.exp((r_reg - 1) * np.log(ks) + (ks - r_reg) * log_lam)
    return np.fmin(1.0, gap_curve(c, rate, t_grid, [(1.0, head), (C, envs)], tail))


def diag_bound(M: Ctmc, delta: float, t_grid, tol: float = 1e-9) -> np.ndarray:
    """Gap bound from the diagonal factorization (within ``tol``): per grid
    time, ``(n - a_P) C sum_k lam^{k-1} erlang_diff(k, e^delta, r t)`` plus a
    certified geometric tail (added, so the result stays an upper bound)."""
    c, Mn, rate = _prepare(M, delta)
    sd = decompose(Mn.P, tol)
    if sd.kind != "diag":
        raise WrongKind("the jump matrix is not diagonalizable")
    return _diag_bound_from(sd, rate, c, t_grid, tol)


def jordan_bound(M: Ctmc, delta: float, t_grid, tol: float = 1e-9) -> np.ndarray:
    """Gap bound from the block factorization (within ``tol``): exact step
    probabilities up to the largest block size, then a ``C k^{r-1} lam^{k-r}``
    envelope with a certified ratio-test tail (added).  Raises
    :class:`TruncationLimit` when no tail is certified by ``MAX_TERMS`` steps."""
    c, Mn, rate = _prepare(M, delta)
    sd = as_jordan(decompose(Mn.P, tol))
    return _jordan_bound_from(sd, rate, c, t_grid, tol)


def _spectral_from(c: float, Mn: Ctmc, rate: float, t_grid, tol: float) -> np.ndarray:
    """:func:`spectral_curve` on the triple that ``_prepare`` returns; ``tol``
    is checked on the acyclic route too, which never decomposes."""
    _check_tol(tol)
    if is_embedded_acyclic(Mn):
        return _acyclic_values(Mn, rate, c, t_grid)
    sd = decompose(Mn.P, tol=tol)
    bound_from = _diag_bound_from if sd.kind == "diag" else _jordan_bound_from
    return bound_from(sd, rate, c, t_grid, tol)


def spectral_curve(M: Ctmc, delta: float, t_grid, tol: float = 1e-9) -> np.ndarray:
    """The spectral route over the whole grid: the exact finite sum for
    acyclic chains, the diagonal bound when P diagonalizes, and the block
    bound otherwise.  Delta and the uniform rate are checked first, then P
    is decomposed (within ``tol``) at most once."""
    return _spectral_from(*_prepare(M, delta), t_grid, tol)


def combined_bound(
    M: Ctmc,
    delta: float,
    t_grid,
    tol: float = 1e-9,
    spectral: Callable[[], np.ndarray] | None = None,
) -> np.ndarray:
    """Pointwise best of the chain-length bound and the spectral route
    (:func:`spectral_curve`); if the decomposition fails it degrades (with a
    :class:`DecompositionFallbackWarning`) to the chain-length bound alone.

    A caller that already needs the spectral curve for the same arguments
    can pass ``spectral``, a zero-argument callable returning it (or
    raising what :func:`spectral_curve` raised), to avoid a second
    decomposition.
    """
    c, Mn, rate = _prepare(M, delta)
    base = _erlang_N_curve([rate * float(t) for t in t_grid], delta)
    try:
        spec = _spectral_from(c, Mn, rate, t_grid, tol) if spectral is None else spectral()
    except NumericalFailure as exc:
        warnings.warn(
            f"spectral bound unavailable ({exc}); falling back to the"
            " chain-length bound",
            DecompositionFallbackWarning,
            stacklevel=2,
        )
        spec = None
    out = base if spec is None else np.minimum(base, spec)
    return np.clip(out, 0.0, 1.0)


def spectral_report(M: Ctmc, tol: float = 1e-9) -> dict:
    """Decomposition summary of the goal-normalized jump matrix, decomposed
    within ``tol``."""
    Mn = _normal_form(M)
    sd = decompose(Mn.P, tol=tol)
    return {
        "kind": sd.kind,
        "states": list(Mn.ids),
        "absorbing_multiplicity": sd.a_p,
        "second_modulus": sd.lam,
        "residual": sd.residual,
        "eigenvalues": [[float(ev.real), float(ev.imag)] for ev in sd.eigenvalues],
        "blocks": [
            {"eigenvalue": [float(mu.real), float(mu.imag)], "size": size}
            for mu, size in sd.blocks
        ],
    }


def triangle_bound_eps_delta(M: Ctmc, N: Ctmc, eps: float, delta: float, t_grid) -> np.ndarray:
    """Gap bound between two (eps, delta)-related chains by splitting the
    tolerances: route through the intermediate product chains (probability
    step first, then the pure rate step), bound the rate step with the
    combined spectral/chain-length machinery on the jointly uniformized
    product, and charge the probability step to the time-uniform bound.
    """
    res = split_construction(M, N, eps, delta)
    m_mid, n_mid = res.m_prime, res.n_prime
    q_eps = max(M.max_rate(), m_mid.max_rate())

    m_norm, n_norm = _normal_form(m_mid), _normal_form(n_mid)
    if m_norm.ids != n_norm.ids:
        raise RuntimeError("product chains diverged during normalization")
    identity = _joined(np.eye(m_norm.n, dtype=bool), 0.0, delta)
    pair = uniformize_pair(m_norm, n_norm, identity, delta)
    core = combined_bound(pair.m_uniform, delta, t_grid)
    unif = np.array([uniformization_bound(eps, 0.0, q_eps, float(t)) for t in t_grid])
    return np.minimum(1.0, core + unif)
