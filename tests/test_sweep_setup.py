"""What the relation fixpoint builds once, and the class-mass bound it sums
over the successor index.

``bisim._tables`` holds the edge list, the padded successor tables and the
four cutoffs, none of which depends on the relation: one
``epsilon_delta_bisim`` or ``is_bisimulation`` call builds them once and
every sweep reads the same tables, however many sweeps it runs.

``bisim._mass_rejects`` sums each class mass ``P(s, C)`` over ``M.succ``.
Against the exact bound ``sum_C min(P(s, C), P(t, C))`` over the connected
components of the relation, computed with ``fractions.Fraction``, a pair
it rejects must have an exact bound below the threshold, and a pair whose
exact bound is below the cutoff by more than the rounding of a float bound
must be rejected.  The rows hold probabilities of very different sizes, so
that a float sum in CSR order can round below its exact value, and the
threshold is often the exact bound of one of the pairs.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctmcbisim import bisim, epsilon_delta_bisim, is_bisimulation
from ctmcbisim.bisim import FLOW_ETA, _threshold
from ctmcbisim.model import Ctmc

from helpers import random_labeled_chain
from test_class_mass_filter import _ladder_chain

# --------------------------------------------------------------------------
# built once per fixpoint
# --------------------------------------------------------------------------


def _spy(monkeypatch) -> tuple[list, list, list]:
    """Record the calls of ``_tables`` and ``_cutoff`` and the tables that
    each ``_decide`` call reads."""
    built, cutoffs, read = [], [], []
    tables, cutoff, decide = bisim._tables, bisim._cutoff, bisim._decide

    def spied_tables(*args):
        built.append(tables(*args))
        return built[-1]

    def spied_cutoff(*args, **kwargs):
        cutoffs.append(args)
        return cutoff(*args, **kwargs)

    def spied_decide(M, related, T, pairs):
        read.append(T)
        return decide(M, related, T, pairs)

    monkeypatch.setattr(bisim, "_tables", spied_tables)
    monkeypatch.setattr(bisim, "_cutoff", spied_cutoff)
    monkeypatch.setattr(bisim, "_decide", spied_decide)
    return built, cutoffs, read


def test_one_fixpoint_builds_its_tables_and_cutoffs_once(monkeypatch):
    M = _ladder_chain(4)
    built, cutoffs, read = _spy(monkeypatch)
    sweeps = list(bisim._sweeps(M, bisim._initial_related(M, 0.0), 0.0, FLOW_ETA))
    assert len(sweeps) == 5
    assert (len(built), len(cutoffs), len(read)) == (1, 4, 5)
    assert all(T is built[0] for T in read)
    for call in (lambda: epsilon_delta_bisim(M, 0.0, 0.0), lambda: epsilon_delta_bisim(M, 0.25, 0.0)):
        for log in (built, cutoffs, read):
            log.clear()
        call()
        assert (len(built), len(cutoffs)) == (1, 4)
        assert len(read) > 1 and all(T is built[0] for T in read)


def test_one_verification_builds_its_tables_and_cutoffs_once(monkeypatch):
    M = random_labeled_chain(np.random.default_rng(3), 9)
    R = epsilon_delta_bisim(M, 0.1, 0.1)
    built, cutoffs, read = _spy(monkeypatch)
    assert is_bisimulation(M, R)
    assert (len(built), len(cutoffs), len(read)) == (1, 4, 1)


# --------------------------------------------------------------------------
# the class-mass bound against its exact value
# --------------------------------------------------------------------------

#: probabilities of very different sizes: 2**-55 and 3 * 2**-56 vanish when
#: added to 0.5 one at a time, and not when added to each other first
ATOMS = (0.5, 0.25, 0.125, 0.1, 0.2, 2.0**-55, 3 * 2.0**-56)


def _classes(related: np.ndarray) -> list[int]:
    """The connected components of ``related``, by a union-find of its own."""
    parent = list(range(len(related)))

    def root(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    for s, t in zip(*np.nonzero(related)):
        parent[root(int(s))] = root(int(t))
    return [root(v) for v in range(len(related))]


def _exact_bounds(M: Ctmc, related: np.ndarray, pairs: list[tuple[int, int]]) -> list[Fraction]:
    """``sum_C min(P(s, C), P(t, C))`` of each pair, exactly, with each
    ``P(s, C)`` summed over the entries of ``M.succ``."""
    label = _classes(related)
    indptr, indices = M.succ
    mass = [{} for _ in range(M.n)]
    for s in range(M.n):
        for j in indices[indptr[s] : indptr[s + 1]].tolist():
            mass[s][label[j]] = mass[s].get(label[j], Fraction(0)) + Fraction(M.P[s, j])
    return [sum((min(m, mass[t].get(c, Fraction(0))) for c, m in mass[s].items()), Fraction(0)) for s, t in pairs]


@st.composite
def drawn_cases(draw):
    """A chain whose rows draw their entries from ``ATOMS`` on random
    columns (a row need not sum to 1: the bound reads only the entries), a
    reflexive symmetric relation, and a threshold: the exact bound of a
    drawn pair, or ``1 - eps - eta``."""
    n = draw(st.integers(2, 7))
    P = np.zeros((n, n))
    for s in range(n):
        cols = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
        P[s, cols] = draw(st.lists(st.sampled_from(ATOMS), min_size=len(cols), max_size=len(cols)))
    related = np.eye(n, dtype=bool)
    related[np.triu_indices(n, 1)] = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    related |= related.T
    at = draw(st.none() | st.integers(0, n * (n - 1) // 2 - 1))
    eps = draw(st.sampled_from((0.0, 0.1, 0.25, 0.5)))
    return P, related, at, eps


def _chain(P: np.ndarray) -> Ctmc:
    n = len(P)
    return Ctmc(ids=tuple(f"v{i}" for i in range(n)), labels=((),) * n, P=P, E=np.ones(n), initial=0)


# s = 0 puts 0.5 and then four quarter-ulps of it on class {2..6}: the float
# sum in CSR order is 0.5, the exact one 0.5 + 2**-53; t = 1 puts all its
# mass there, and the threshold is that exact bound
_ROUNDING = np.zeros((7, 7))
_ROUNDING[0, 2:6] = [0.5, 2.0**-55, 2.0**-55, 2.0**-55]
_ROUNDING[0, 6] = 2.0**-55
_ROUNDING[1, 2] = 1.0
_ROUNDING_RELATED = np.eye(7, dtype=bool)
_ROUNDING_RELATED[2:, 2:] = True


@settings(max_examples=300, deadline=None)
@given(case=drawn_cases())
@example(case=(_ROUNDING, _ROUNDING_RELATED, 0, 0.0))
def test_a_rejected_pair_has_an_exact_bound_below_the_threshold(case):
    P, related, at, eps = case
    M = _chain(P)
    n = M.n
    pairs = [(s, t) for s in range(n) for t in range(s + 1, n)]
    exact = _exact_bounds(M, related, pairs)
    if at is None:
        threshold = _threshold(eps, FLOW_ETA)
    else:  # the exact bound of pair ``at``, as a numerator over 2**exp
        threshold = (exact[at].numerator, exact[at].denominator.bit_length() - 1)
    thr = Fraction(threshold[0], 1 << threshold[1])
    cut = bisim._mass_cutoff(threshold, n)
    rejects = bisim._mass_rejects(bisim._edges(M), related, np.array(pairs), cut).tolist()
    # a float bound is at most 1 + gamma_2n times the exact one
    u = Fraction(1, 1 << 53)
    gamma = 2 * n * u / (1 - 2 * n * u)
    for pair, bound, rejected in zip(pairs, exact, rejects):
        if rejected:
            assert bound < thr, (pair, bound, thr)
        else:
            assert bound * (1 + gamma) >= Fraction(cut), (pair, bound, cut)
