"""The Jordan path of ``decompose`` and the relation closure against the
code they replaced.

``decompose`` groups nearby eigenvalues with ``graph.components``, reads
each kernel dimension and kernel basis from one SVD per matrix power, runs
one Gram-Schmidt helper and builds J with numpy;
``PairRelation.transitive_closure`` and ``classes`` read the components of
the relation's graph.  The oracles below are the previous versions, kept
verbatim apart from an ``_oracle`` suffix on their names.  Every
``SpectralData`` field must keep its bytes and dtype, or the same exception
type and message must be raised; the label array of ``graph.components``
is checked against a union-find.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import fixtures, graph, normalize_goal, prune_unreachable
from ctmcbisim.bisim import PairRelation, Partition
from ctmcbisim.errors import DecompositionUnstable, ModulusOneNotOne
from ctmcbisim.model import ABSORBING_EPS, Ctmc
from ctmcbisim.spectral import (
    CLUSTER_TOL,
    COND_GATE,
    JORDAN_MAX_N,
    MOD_ONE_TOL,
    RANK_TOL,
    SpectralData,
    _eig_sort_key,
    _orthonormalize,
    _pick_complement,
    decompose,
)

from helpers import adjacency, random_dag_chain, random_uniform_chain

# ---------------------------------------------------------------- oracles


def _rank_oracle(A: np.ndarray) -> int:
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0:
        return 0
    return int(np.sum(s > RANK_TOL * max(1.0, float(s[0]))))


def _kernel_basis_oracle(A: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the (numerical) kernel of A."""
    u, s, vh = np.linalg.svd(A)
    rank = int(np.sum(s > RANK_TOL * max(1.0, float(s[0])))) if s.size else 0
    return vh[rank:].conj().T


def _orthonormalize_oracle(vectors: list[np.ndarray]) -> list[np.ndarray]:
    basis: list[np.ndarray] = []
    for v in vectors:
        w = np.asarray(v, dtype=complex).copy()
        for _ in range(2):  # two Gram-Schmidt passes
            for b in basis:
                w = w - (b.conj() @ w) * b
        norm = float(np.linalg.norm(w))
        if norm > 1e-10:
            basis.append(w / norm)
    return basis


def _pick_complement_oracle(cands: np.ndarray, existing: list[np.ndarray], need: int, tol: float) -> list[np.ndarray]:
    """Greedily select `need` candidate columns independent of `existing`."""
    basis = _orthonormalize_oracle(existing)
    picked: list[np.ndarray] = []
    for _ in range(need):
        best, best_norm = None, 0.0
        for j in range(cands.shape[1]):
            w = cands[:, j].astype(complex)
            for _ in range(2):
                for b in basis:
                    w = w - (b.conj() @ w) * b
            norm = float(np.linalg.norm(w))
            if norm > best_norm:
                best_norm, best = norm, w
        if best is None or best_norm < 1e-8:
            raise DecompositionUnstable(math.inf, tol)
        v = best / best_norm
        basis.append(v)
        picked.append(v)
    return picked


def _cluster_chains_oracle(P: np.ndarray, mu: complex, mult: int, tol: float) -> list[tuple[int, list[np.ndarray]]]:
    """Generalized eigenvector chains for one eigenvalue, longest first.

    Kernel dimensions of ``(P - mu I)^k`` fix the block sizes; top vectors
    are chosen per level to complement the lower kernel plus the images of
    the longer chains, then each chain is read off as
    ``A^{l-1} v, ..., A v, v`` (eigenvector first).
    """
    n = P.shape[0]
    A = P.astype(complex) - mu * np.eye(n)
    powers = [np.eye(n, dtype=complex)]
    dims = [0]
    while dims[-1] < mult:
        powers.append(powers[-1] @ A)
        dk = min(n - _rank_oracle(powers[-1]), mult)
        if dk <= dims[-1]:
            raise DecompositionUnstable(math.inf, tol)
        dims.append(dk)
    depth = len(dims) - 1
    at_least = [dims[k] - dims[k - 1] for k in range(1, depth + 1)]
    if any(at_least[i] < at_least[i + 1] for i in range(depth - 1)):
        raise DecompositionUnstable(math.inf, tol)
    exactly = [
        at_least[k] - (at_least[k + 1] if k + 1 < depth else 0) for k in range(depth)
    ]
    kernels = [None] + [_kernel_basis_oracle(powers[k]) for k in range(1, depth + 1)]

    tops: list[tuple[int, np.ndarray]] = []
    for k in range(depth, 0, -1):
        need = exactly[k - 1]
        if need == 0:
            continue
        existing: list[np.ndarray] = []
        if k >= 2:
            existing.extend(kernels[k - 1].T)
        existing.extend(powers[l - k] @ v for l, v in tops)  # longer chains, at this level
        tops.extend((k, v) for v in _pick_complement_oracle(kernels[k], existing, need, tol))

    chains = []
    for length, v in sorted(tops, key=lambda lv: -lv[0]):
        cols = [powers[length - 1 - i] @ v for i in range(length)]
        scale = max(float(np.linalg.norm(c)) for c in cols)
        chains.append((length, [c / scale for c in cols]))
    return chains


def _decompose_oracle(P: np.ndarray | Ctmc, tol: float = 1e-9) -> SpectralData:
    """Verified eigendecomposition of a jump matrix.

    Tries the plain eigenbasis first; if it is ill-conditioned or fails to
    reconstruct P, falls back to the full block form.  Raises
    :class:`ModulusOneNotOne` when the modulus-one eigenvalues are not all
    the eigenvalue 1 with multiplicity equal to the number of absorbing
    states (absorption would not be almost sure), and
    :class:`DecompositionUnstable` when no factorization reconstructs P
    within ``tol``.
    """
    if isinstance(P, Ctmc):
        P = P.P
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    if P.shape != (n, n):
        raise ValueError("P must be square")
    absorbing = int(np.sum(np.diag(P) >= 1.0 - ABSORBING_EPS))

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
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(evals[i] - evals[j]) <= CLUSTER_TOL:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    clusters: list[tuple[complex, int]] = []
    for members in groups.values():
        vals = evals[members]
        if np.any(np.abs(vals - 1.0) <= MOD_ONE_TOL):
            rep = 1.0 + 0.0j
        elif np.all(np.abs(vals) <= CLUSTER_TOL):
            rep = 0.0 + 0.0j
        else:
            rep = complex(np.mean(vals))
        clusters.append((rep, len(members)))
    clusters.sort(key=lambda c: (c[0] != 1.0,) + _eig_sort_key(c[0]))

    cols: list[np.ndarray] = []
    blocks: list[tuple[complex, int]] = []
    eigenvalues: list[complex] = []
    for mu, mult in clusters:
        chains = _cluster_chains_oracle(P, mu, mult, tol)
        if mu == 1.0 and any(length > 1 for length, _ in chains):
            raise ModulusOneNotOne("the eigenvalue 1 is defective")
        for length, chain_cols in chains:
            cols.extend(chain_cols)
            blocks.append((mu, length))
            eigenvalues.extend([mu] * length)

    S = np.column_stack(cols)
    try:
        S_inv = np.linalg.inv(S)
    except np.linalg.LinAlgError:
        raise DecompositionUnstable(math.inf, tol) from None
    J = np.zeros((n, n), dtype=complex)
    off = 0
    for mu, size in blocks:
        for i in range(size):
            J[off + i, off + i] = mu
            if i + 1 < size:
                J[off + i, off + i + 1] = 1.0
        off += size
    residual = float(np.max(np.abs(S @ J @ S_inv - P)))
    if residual > tol:
        raise DecompositionUnstable(residual, tol)
    return SpectralData(
        kind="jordan",
        S=S,
        S_inv=S_inv,
        eigenvalues=np.array(eigenvalues),
        blocks=tuple(blocks),
        a_p=a_p,
        residual=residual,
    )



def _transitive_closure_oracle(self) -> "PairRelation":
    related = [set(r) for r in adjacency(self)]
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

def _classes_oracle(self) -> "Partition":
    """Equivalence classes; the relation must be transitive."""
    if not self.is_transitive():
        raise ValueError("relation is not transitive; no well-defined classes")
    seen: set[int] = set()
    blocks = []
    for s in range(self.n):
        if s in seen:
            continue
        cls_ = adjacency(self)[s]
        seen |= cls_
        blocks.append(cls_)
    return Partition(blocks=tuple(blocks))


def _components_oracle(A):
    """Union-find over the positive entries of a symmetric matrix, grouped
    by root in order of each group's smallest vertex."""
    n = A.shape[0]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(A > 0.0)):
        parent[find(int(i))] = find(int(j))
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


# ---------------------------------------------------------------- comparison


def _same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _same_decomposition(P, tol=1e-9):
    """Equal ``SpectralData`` bytes, or the same exception; returns the kind
    (None when both raised)."""
    try:
        want = _decompose_oracle(P, tol)
    except Exception as exc:
        with pytest.raises(type(exc)) as info:
            decompose(P, tol)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return None
    got = decompose(P, tol)
    assert (got.kind, got.a_p) == (want.kind, want.a_p)
    for name in ("S", "S_inv", "eigenvalues"):
        _same_array(getattr(got, name), getattr(want, name))
    assert repr(got.blocks) == repr(want.blocks)
    assert type(got.residual) is float and got.residual.hex() == want.residual.hex()
    return got.kind


# ---------------------------------------------------------------- chains


def _gen_jordan_pairs(rng, pairs):
    """``bench/gen.jordan_pairs``: an initial state fanning out into
    two-state Jordan cells with distinct loop weights, then the goal."""
    n = 2 * pairs + 2
    g = n - 1
    P = np.zeros((n, n))
    P[0, 1 : 2 * pairs + 1 : 2] = rng.dirichlet(np.ones(pairs))
    loops = 0.2 + 0.6 * (np.arange(pairs) + rng.random(pairs) * 0.5) / pairs
    for k, lam in enumerate(loops):
        a, b = 2 * k + 1, 2 * k + 2
        P[a, a] = lam
        P[a, b] = (1.0 - lam) / 2.0
        P[a, g] = 1.0 - lam - P[a, b]
        P[b, b] = lam
        P[b, g] = 1.0 - lam
    P[g, g] = 1.0
    return P


def _shared_loop_pairs(loops, fan):
    """Two-state Jordan cells whose loop weights repeat across cells, so one
    eigenvalue carries several blocks."""
    pairs = len(loops)
    n = 2 * pairs + 2
    g = n - 1
    P = np.zeros((n, n))
    P[0, 1 : 2 * pairs + 1 : 2] = np.array(fan) / sum(fan)
    for k, lam in enumerate(loops):
        a, b = 2 * k + 1, 2 * k + 2
        P[a, a] = P[b, b] = lam
        P[a, b] = P[a, g] = (1.0 - lam) / 2.0
        P[b, g] = 1.0 - lam
    P[g, g] = 1.0
    return P


def _norm(M):
    return normalize_goal(prune_unreachable(M)).P


seeds = st.integers(0, 2**32 - 1)
tols = st.sampled_from([1e-9, 1e-6, 1e-12])
lengths = st.lists(st.integers(1, 4), min_size=1, max_size=5)


@st.composite
def jump_matrices(draw):
    kind = draw(st.sampled_from(["gen", "gen_large", "shared", "erlang", "erlang_large", "fixture", "uniform", "dag"]))
    rng = np.random.default_rng(draw(seeds))
    if kind == "gen":
        return _gen_jordan_pairs(rng, draw(st.integers(1, 24)))
    if kind == "gen_large":  # n > JORDAN_MAX_N
        return _gen_jordan_pairs(rng, draw(st.integers(25, 30)))
    if kind == "shared":
        loops = draw(st.lists(st.sampled_from([0.25, 0.5, 0.625, 0.75]), min_size=1, max_size=6))
        fan = draw(st.lists(st.integers(1, 4), min_size=len(loops), max_size=len(loops)))
        return _shared_loop_pairs(loops, fan)
    if kind == "erlang":
        return _norm(fixtures.parallel_erlang(tuple(draw(lengths))))
    if kind == "erlang_large":  # n > JORDAN_MAX_N, nilpotent
        return _norm(fixtures.parallel_erlang((13, 13, 13, 13)))
    if kind == "fixture":
        M = draw(st.sampled_from([fixtures.defective_chain(), fixtures.multi_sink_chain()]))
        return draw(st.sampled_from([M.P, _norm(M)]))
    if kind == "uniform":
        return _norm(random_uniform_chain(rng, n_max=12))
    return _norm(random_dag_chain(rng))


# ---------------------------------------------------------------- decompose


@settings(max_examples=150, deadline=None)
@given(P=jump_matrices(), tol=tols)
def test_decompose_matches_the_previous_jordan_path(P, tol):
    _same_decomposition(P, tol)


@pytest.mark.parametrize(
    "P, kind",
    [
        (fixtures.defective_chain().P, "jordan"),
        (_norm(fixtures.defective_chain()), "jordan"),
        (_norm(fixtures.multi_sink_chain()), "jordan"),
        (_norm(fixtures.parallel_erlang((2, 2))), "jordan"),
        (_norm(fixtures.parallel_erlang((1, 3, 3, 2, 3))), "jordan"),
        (_shared_loop_pairs([0.5, 0.25, 0.5, 0.5], [1, 2, 3, 1]), "jordan"),
        (_gen_jordan_pairs(np.random.default_rng(0), 3), "jordan"),
        (_gen_jordan_pairs(np.random.default_rng(7), 19), "jordan"),
        (_gen_jordan_pairs(np.random.default_rng(0), 25), None),
        (_norm(fixtures.parallel_erlang((13, 13, 13, 13))), None),
        (fixtures.branch_merge_chain().P, "diag"),
    ],
    ids=["defective", "defective-norm", "multi-sink", "erlang-2-2", "erlang-1-3-3-2-3",
         "shared-loops", "gen-3", "gen-19", "gen-25", "erlang-large", "branch-merge"],
)
def test_decompose_on_pinned_chains(P, kind):
    """Defective, nilpotent, repeated and oversized inputs take the routes
    named here, so the hypothesis test above is not only diagonal cases."""
    assert _same_decomposition(P) == kind


def test_oversized_chains_are_rejected_before_the_jordan_path():
    P = _gen_jordan_pairs(np.random.default_rng(0), 25)
    assert P.shape[0] > JORDAN_MAX_N
    with pytest.raises(DecompositionUnstable):
        decompose(P)


def _complex_vectors(rng, count, n):
    return [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(1, 8), count=st.integers(0, 10), need=st.integers(1, 4))
def test_gram_schmidt_steps_match(seed, n, count, need):
    rng = np.random.default_rng(seed)
    vectors = _complex_vectors(rng, count, n)
    if count >= 2:  # a dependent vector, dropped by both
        vectors.append(vectors[0] + 2 * vectors[1])
    for got, want in zip(_orthonormalize(vectors), _orthonormalize_oracle(vectors), strict=True):
        _same_array(got, want)

    cands = rng.standard_normal((n, need + 2)).astype(complex)
    existing = vectors[: max(0, n - need)]
    try:
        want = _pick_complement_oracle(cands, existing, need, 1e-9)
    except DecompositionUnstable as exc:
        with pytest.raises(DecompositionUnstable, match=re.escape(str(exc))):
            _pick_complement(cands, existing, need, 1e-9)
        return
    for got, w in zip(_pick_complement(cands, existing, need, 1e-9), want, strict=True):
        _same_array(got, w)


# ---------------------------------------------------------------- graph.components


@st.composite
def symmetric_graphs(draw):
    n = draw(st.integers(1, 120))
    density = draw(st.sampled_from([0.0, 0.005, 0.02, 0.05, 0.3]))
    rng = np.random.default_rng(draw(seeds))
    A = rng.random((n, n)) < density
    A = A | A.T
    if draw(st.booleans()):
        np.fill_diagonal(A, True)
    return A


@settings(max_examples=150, deadline=None)
@given(A=symmetric_graphs())
def test_components_match_union_find(A):
    label = graph.components(graph.csr(A))
    want = np.empty(len(A), dtype=int)
    for c, block in enumerate(_components_oracle(A)):
        want[block] = c
    assert label.dtype.kind == "i"
    assert label.tolist() == want.tolist()


def test_components_of_the_empty_graph():
    assert graph.components(graph.csr(np.zeros((0, 0)))).tolist() == []


# ---------------------------------------------------------------- relations


@st.composite
def relations(draw):
    n = draw(st.integers(1, 25))
    rng = np.random.default_rng(draw(seeds))
    if draw(st.booleans()):  # a partition, so classes() succeeds
        labels = rng.integers(0, draw(st.integers(1, n)), size=n)
        pairs = [(s, t) for s in range(n) for t in range(s + 1, n) if labels[s] == labels[t]]
    else:
        count = draw(st.integers(0, 2 * n))
        pairs = [tuple(int(x) for x in rng.integers(0, n, size=2)) for _ in range(count)]
    return PairRelation.from_off_diagonal(pairs, n, draw(st.sampled_from([0.0, 0.1])), 0.0)


@settings(max_examples=300, deadline=None)
@given(R=relations())
def test_closure_and_classes_match(R):
    got, want = R.transitive_closure(), _transitive_closure_oracle(R)
    assert got == want and got.pairs == want.pairs
    try:
        want_classes = _classes_oracle(R)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            R.classes()
        assert str(info.value) == str(exc)
        want_classes = None
    if want_classes is not None:
        got_classes = R.classes()
        assert got_classes == want_classes
        assert [sorted(b) for b in got_classes.blocks] == [sorted(b) for b in want_classes.blocks]
    assert got.classes() == _classes_oracle(want)


def test_classes_reject_a_relation_that_is_not_transitive():
    R = PairRelation.from_off_diagonal([(0, 1), (1, 2)], 3, 0.0, 0.0)
    with pytest.raises(ValueError, match="not transitive"):
        R.classes()
