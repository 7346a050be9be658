"""``PairRelation`` as its boolean matrix, against the frozenset class it replaced.

``OldPairRelation`` below is the previous ``PairRelation``, verbatim: it
stored a frozenset of pairs and rebuilt the matrix from it.  The library
now stores the read-only n x n boolean matrix and reads ``pairs``,
``adjacency`` and ``off_diagonal`` off it.  On hypothesis-drawn pair sets
both must agree on every view, reject the same invalid inputs, and agree
on membership; pair entries that are not integers are now rejected on
every route.  A source gate keeps the frozenset view for callers outside
the package: no module under ``src/`` reads an attribute named ``pairs``.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctmcbisim import compose, graph
from ctmcbisim.bisim import PairRelation, Partition, _check_tolerances, _partition

# --------------------------------------------------------------------------
# oracle: the previous PairRelation, verbatim
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OldPairRelation:
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
    ) -> "OldPairRelation":
        """The reflexive symmetric closure of ``pairs`` on ``n`` states."""
        closed = {(s, s) for s in range(n)}
        for s, t in pairs:
            closed.add((s, t))
            closed.add((t, s))
        return cls(n=n, pairs=frozenset(closed), eps=eps, delta=delta)

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


def old_as_relation(p: Partition, eps: float = 0.0, delta: float = 0.0) -> OldPairRelation:
    """The previous ``Partition.as_relation``, verbatim but for the class it builds."""
    pairs = frozenset((s, t) for b in p.blocks for s in b for t in b)
    return OldPairRelation(n=p.n, pairs=pairs, eps=eps, delta=delta)


# --------------------------------------------------------------------------
# drawn inputs
# --------------------------------------------------------------------------


@st.composite
def pair_sets(draw):
    """``(n, off, eps, delta)``: up to 25 states and a set of pairs within them."""
    n = draw(st.integers(1, 25))
    state = st.integers(0, n - 1)
    off = draw(st.sets(st.tuples(state, state), max_size=3 * n))
    return n, off, draw(st.sampled_from((0.0, 0.1, 2.5))), draw(st.sampled_from((0.0, 0.3)))


def closure(off: Iterable[tuple[int, int]], n: int) -> frozenset[tuple[int, int]]:
    return frozenset({(s, s) for s in range(n)} | {p for s, t in off for p in ((s, t), (t, s))})


def _raised(build) -> str | None:
    """The message of the ValueError ``build()`` raises, or None when it returns."""
    try:
        build()
    except ValueError as e:
        return str(e)
    return None


def _int_pairs(pairs) -> bool:
    return all(type(s) is int and type(t) is int for s, t in pairs)


# --------------------------------------------------------------------------
# valid input: every view agrees
# --------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(case=pair_sets())
def test_views_match_the_frozenset_class(case):
    n, off, eps, delta = case
    old = OldPairRelation.from_off_diagonal(off, n, eps, delta)
    built = PairRelation(n, closure(off, n), eps, delta)
    closed = PairRelation.from_off_diagonal(off, n, eps, delta)
    by_keyword = PairRelation(n=n, pairs=old.pairs, eps=eps, delta=delta)
    for new in (built, closed, by_keyword):
        assert (new.n, new.eps, new.delta) == (old.n, old.eps, old.delta)
        assert isinstance(new.pairs, frozenset) and new.pairs == old.pairs and _int_pairs(new.pairs)
        got = new.off_diagonal()
        assert type(got) is list and got == old.off_diagonal() and _int_pairs(got)
        assert new.adjacency == old.adjacency
        assert all(new.related_to(s) == old.related_to(s) for s in range(n))
        assert new.matrix.dtype == bool and np.array_equal(new.matrix, old.matrix)
        assert new.is_transitive() == old.is_transitive()
        assert new.transitive_closure() == old.transitive_closure()
        assert new == built and not new != built


@settings(max_examples=100, deadline=None)
@given(a=pair_sets(), b=pair_sets())
def test_equality_matches_the_frozenset_class(a, b):
    olds = [OldPairRelation.from_off_diagonal(off, n, eps, delta) for n, off, eps, delta in (a, b)]
    news = [PairRelation.from_off_diagonal(off, n, eps, delta) for n, off, eps, delta in (a, b)]
    assert (news[0] == news[1]) == (olds[0] == olds[1])
    # same pairs, other tolerances
    n, off, eps, delta = a
    assert news[0] != PairRelation.from_off_diagonal(off, n, eps + 1.0, delta)
    assert news[0] != PairRelation.from_off_diagonal(off, n, eps, delta + 1.0)
    assert news[0] != old_as_relation(_partition(np.arange(n)))  # not a PairRelation


@settings(max_examples=200, deadline=None)
@given(case=pair_sets(), data=st.data())
def test_membership_matches_the_frozenset_class(case, data):
    n, off, eps, delta = case
    old = OldPairRelation.from_off_diagonal(off, n, eps, delta)
    new = PairRelation.from_off_diagonal(off, n, eps, delta)
    entry = st.integers(-3, n + 2) | st.sampled_from([np.int64(0), np.int32(n - 1), np.uint8(min(n, 255))])
    for pair in data.draw(st.lists(st.tuples(entry, entry), max_size=20)):
        assert (pair in new) == (pair in old)
    for pair in ((0, -1), (-1, 0), (-1, -1), (n, n), (0, n), (n - 1, -n)):
        assert pair not in new


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 25), data=st.data())
def test_partition_relation_matches_the_set_comprehension(n, data):
    label = np.array(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
    p = _partition(np.unique(label, return_inverse=True)[1].reshape(-1))
    eps, delta = data.draw(st.sampled_from(((0.0, 0.0), (0.2, 0.7))))
    new, old = p.as_relation(eps, delta), old_as_relation(p, eps, delta)
    assert new.pairs == old.pairs and (new.n, new.eps, new.delta) == (old.n, old.eps, old.delta)
    assert set(new.classes().blocks) == set(p.blocks)


# --------------------------------------------------------------------------
# invalid input: both reject it
# --------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(case=pair_sets(), data=st.data())
def test_a_missing_diagonal_entry_gives_the_same_message(case, data):
    n, off, eps, delta = case
    pairs = set(closure(off, n))
    for s in data.draw(st.sets(st.integers(0, n - 1), min_size=1)):
        pairs.discard((s, s))
    old = _raised(lambda: OldPairRelation(n=n, pairs=frozenset(pairs), eps=eps, delta=delta))
    new = _raised(lambda: PairRelation(n, pairs, eps, delta))
    assert old is not None and old.startswith("relation is not reflexive") and new == old


@settings(max_examples=200, deadline=None)
@given(case=pair_sets(), data=st.data())
def test_a_one_sided_pair_is_rejected_by_both(case, data):
    n, off, eps, delta = case
    pairs = set(closure(off, n))
    candidates = sorted(p for p in pairs if p[0] != p[1]) or [(0, n - 1)] * (n > 1)
    assume(candidates)
    keep = data.draw(st.sampled_from(candidates))
    pairs = (pairs | {keep}) - {keep[::-1]}
    old = _raised(lambda: OldPairRelation(n=n, pairs=frozenset(pairs), eps=eps, delta=delta))
    new = _raised(lambda: PairRelation(n, pairs, eps, delta))
    assert old is not None and new is not None and new.startswith("relation is not symmetric")


@settings(max_examples=200, deadline=None)
@given(case=pair_sets(), data=st.data())
def test_an_out_of_range_pair_is_rejected_by_both(case, data):
    n, off, eps, delta = case
    inside, outside = st.integers(0, n - 1), st.integers(-4, -1) | st.integers(n, n + 4)
    bad = data.draw(st.tuples(inside, outside) | st.tuples(outside, inside) | st.tuples(outside, outside))
    both = data.draw(st.booleans())
    pairs = set(closure(off, n)) | {bad} | ({bad[::-1]} if both else set())
    old = _raised(lambda: OldPairRelation(n=n, pairs=frozenset(pairs), eps=eps, delta=delta))
    new = _raised(lambda: PairRelation(n, pairs, eps, delta))
    assert old is not None
    closed = _raised(lambda: PairRelation.from_off_diagonal(off | {bad}, n, eps, delta))
    # the message names the same pair on both routes, smaller entry first
    assert closed == new == f"pair ({min(bad)},{max(bad)}) out of range"


NOT_INTEGERS = [(0.5, 1), (1, 0.5), (True, 2), (2, False), ("1", 2), (np.bool_(True), 1), (1.0, 2), (None, 1)]


@pytest.mark.parametrize("pair", NOT_INTEGERS, ids=repr)
def test_an_entry_that_is_not_an_integer_is_rejected_naming_its_pair(pair):
    want = f"pair {pair!r} has an entry that is not an integer"
    with pytest.raises(ValueError) as closed:
        PairRelation.from_off_diagonal({pair}, 3, 0.0, 0.0)
    with pytest.raises(ValueError) as built:
        PairRelation(3, [(0, 0), (1, 1), (2, 2), pair], 0.0, 0.0)
    assert str(closed.value) == str(built.value) == want


@pytest.mark.parametrize("kind", [int, np.int8, np.int64, np.uint16])
def test_numpy_integers_are_integers(kind):
    R = PairRelation.from_off_diagonal({(kind(0), kind(2))}, 3, 0.0, 0.0)
    S = PairRelation(3, {(kind(s), kind(t)) for s, t in R.pairs}, 0.0, 0.0)
    assert R == S and R.off_diagonal() == [(0, 2)] and _int_pairs(S.pairs)


@pytest.mark.parametrize("pair", [(0, -1), (-1, 0), (-3, -3), (0, 3), (2**70, 0)], ids=repr)
def test_a_negative_or_large_entry_is_out_of_range_on_both_routes(pair):
    want = f"pair ({min(pair)},{max(pair)}) out of range"
    with pytest.raises(ValueError, match=r"out of range") as closed:
        PairRelation.from_off_diagonal({pair}, 3, 0.0, 0.0)
    with pytest.raises(ValueError, match=r"out of range") as built:
        PairRelation(3, {(0, 0), (1, 1), (2, 2), pair, pair[::-1]}, 0.0, 0.0)
    assert str(closed.value) == str(built.value) == want


def test_a_one_sided_out_of_range_pair_is_out_of_range():
    # range is checked before symmetry: the frozenset class called this "not symmetric"
    with pytest.raises(ValueError, match=r"^pair \(0,5\) out of range$"):
        PairRelation(3, {(0, 0), (1, 1), (2, 2), (0, 5)}, 0.0, 0.0)


def test_a_pair_without_two_entries_is_rejected():
    for pairs in ([(0, 1, 2)], [(0,), (1,)], [(0, 1), (1, 2, 0)]):
        with pytest.raises(ValueError):
            PairRelation.from_off_diagonal(pairs, 3, 0.0, 0.0)


# --------------------------------------------------------------------------
# frozenness and compose
# --------------------------------------------------------------------------


def test_a_relation_is_frozen():
    R = PairRelation.from_off_diagonal({(0, 1)}, 3, 0.1, 0.2)
    for name, value in (("n", 4), ("eps", 0.0), ("delta", 0.0), ("matrix", np.eye(3, dtype=bool)), ("pairs", set())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(R, name, value)
    with pytest.raises(ValueError):
        R.matrix[0, 2] = True
    assert (0, 2) not in R and R.off_diagonal() == [(0, 1)]


def test_compose_counts_past_255_witnesses():
    # 0 and 1 are related through each of 256 middle states and to nothing
    # else: a uint8 boolean product counts 256 witnesses as 0 and drops (0, 1)
    mid = range(2, 258)
    R = PairRelation.from_off_diagonal([(0, c) for c in mid] + [(c, 1) for c in mid], 258, 0.0, 0.0)
    C = compose(R, R)
    assert (0, 1) in C and (1, 0) in C
    adj = R.adjacency
    want = {(s, u) for s in range(R.n) for t in adj[s] for u in adj[t]}
    assert C.pairs == frozenset(want)


# --------------------------------------------------------------------------
# gate: the frozenset view is for callers outside the package
# --------------------------------------------------------------------------

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ctmcbisim"


def test_no_module_of_the_package_reads_pairs():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "pairs" and isinstance(node.ctx, ast.Load):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
