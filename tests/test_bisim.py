import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import (
    PairRelation,
    Partition,
    check_quasi_lumpability,
    compose,
    direct_sum,
    epsilon_delta_bisim,
    extract_coupling,
    fixtures,
    is_bisimulation,
    load_relation,
    make_ctmc,
    save_relation,
    split_construction,
    strong_bisim,
)
from ctmcbisim.bisim import pair_flow_value
from ctmcbisim.errors import NotBisimilar, PairNotRelated

from helpers import random_labeled_chain

# ---------------------------------------------------------------- relations


def test_pair_relation_closure_and_queries():
    R = PairRelation.from_off_diagonal({(0, 2), (1, 3)}, n=4, eps=0.1, delta=0.2)
    assert (0, 2) in R and (2, 0) in R
    assert all((i, i) in R for i in range(4))
    assert (0, 1) not in R
    assert R.related_to(0) == frozenset({0, 2})
    assert set(R.off_diagonal()) == {(0, 2), (1, 3)}


def test_pair_relation_transitivity():
    R = PairRelation.from_off_diagonal({(0, 1), (1, 2)}, n=3, eps=0.0, delta=0.0)
    assert not R.is_transitive()
    Rt = R.transitive_closure()
    assert Rt.is_transitive()
    assert (0, 2) in Rt
    assert Rt.classes().blocks == (frozenset({0, 1, 2}),)


def test_partition_round_trip():
    part = Partition(blocks=(frozenset({0, 2}), frozenset({1}), frozenset({3})))
    assert part.n == 4
    assert part.block_of(2) == 0
    R = part.as_relation(eps=0.3, delta=0.1)
    assert (0, 2) in R and (1, 3) not in R
    assert R.eps == 0.3 and R.delta == 0.1
    assert R.is_transitive()


def test_partition_rejects_overlap():
    with pytest.raises(ValueError):
        Partition(blocks=(frozenset({0, 1}), frozenset({1, 2})))


def test_partition_rejects_an_empty_block():
    with pytest.raises(ValueError, match="block 1 is empty"):
        Partition((frozenset({0}), frozenset(), frozenset({1})))


def test_compose_adds_tolerances():
    R1 = PairRelation.from_off_diagonal({(0, 1)}, n=3, eps=0.1, delta=0.05)
    R2 = PairRelation.from_off_diagonal({(1, 2)}, n=3, eps=0.2, delta=0.1)
    R = compose(R1, R2)
    assert R.eps == pytest.approx(0.3)
    assert R.delta == pytest.approx(0.15)
    assert (0, 2) in R  # 0 ~ 1 ~ 2
    assert (0, 1) not in R.pairs or (0, 1) in R.pairs  # composition, not union
    # identity pairs survive composition
    assert (0, 0) in R


# ---------------------------------------------------------------- flow / couplings


def test_pair_flow_identical_rows_is_one():
    M = fixtures.escape_pair_chain(0.3)
    R = PairRelation.from_off_diagonal(set(), n=M.n, eps=0.0, delta=0.0)
    assert pair_flow_value(M, R, 0, 0) == 1.0


def test_pair_flow_escape_chain():
    M = fixtures.escape_pair_chain(0.3)
    R = PairRelation.from_off_diagonal({(0, 1)}, n=M.n, eps=0.3, delta=0.0)
    # only the self-loop mass can ride a related pair: 1 - eps exactly,
    # in both orientations (the transport is capped by either marginal)
    assert pair_flow_value(M, R, 0, 1) == pytest.approx(0.7, abs=1e-15)
    assert pair_flow_value(M, R, 1, 0) == pytest.approx(0.7, abs=1e-15)


def test_extract_coupling_exact_marginals():
    M = fixtures.perturbed_loop_chain(0.25, 0.5)
    R = epsilon_delta_bisim(M, 0.25, 0.5)
    assert (0, 2) in R
    cpl = extract_coupling(M, R, 0, 2, 0.25)
    assert cpl.weights.shape == (len(cpl.succ_source), len(cpl.succ_target))
    assert np.allclose(cpl.weights.sum(axis=1), 1.0, atol=1e-12)
    marg = cpl.target_marginal(M.P)
    assert np.allclose(marg, M.P[2, list(cpl.succ_target)], atol=1e-12)
    assert cpl.related_mass >= 1.0 - 0.25 - 1e-9
    assert cpl.mass_on(M.P, R.pairs) == pytest.approx(cpl.related_mass, abs=1e-12)


def test_extract_coupling_unrelated_pair_raises():
    M = fixtures.escape_pair_chain(0.5)
    R = PairRelation.from_off_diagonal({(0, 1)}, n=M.n, eps=0.1, delta=0.0)
    with pytest.raises(PairNotRelated):
        extract_coupling(M, R, 0, 1, 0.1)


# ---------------------------------------------------------------- the fixpoint


def _off(R):
    return set(R.off_diagonal())


def test_loop_family_relation_frozen():
    M = fixtures.perturbed_loop_chain(0.25, 0.5)
    R = epsilon_delta_bisim(M, 0.25, 0.5)
    assert _off(R) == {(0, 2), (0, 3), (1, 4), (2, 3)}


def test_loop_family_sweep():
    M = fixtures.perturbed_loop_chain(0.25, 0.5)
    base = _off(epsilon_delta_bisim(M, 0.25, 0.5))
    # raising eps through 1/2 changes nothing: the missing pairs are
    # blocked by mass that only moves at much coarser tolerances
    assert _off(epsilon_delta_bisim(M, 0.49, 0.5)) == base
    assert _off(epsilon_delta_bisim(M, 0.51, 0.5)) == base
    assert (0, 1) not in _off(epsilon_delta_bisim(M, 0.6, 0.5))
    assert (0, 1) in _off(epsilon_delta_bisim(M, 0.9, 0.5))


def test_loop_family_monotone_in_tolerances():
    M = fixtures.perturbed_loop_chain(0.25, 0.5)
    small = _off(epsilon_delta_bisim(M, 0.1, 0.2))
    large = _off(epsilon_delta_bisim(M, 0.3, 0.6))
    assert small <= large


def test_demo_pair_joint_relation():
    M, N = fixtures.bisimilar_demo_pair(0.2, 0.3)
    J = direct_sum(M, N)
    R = epsilon_delta_bisim(J, 0.2, 0.3)
    assert _off(R) == {(0, 1), (0, 3), (1, 3), (2, 5)}
    assert (M.initial, M.n + N.initial) in R


def test_fixpoint_is_a_bisimulation():
    for seed in range(8):
        M = random_labeled_chain(np.random.default_rng(seed))
        R = epsilon_delta_bisim(M, 0.15, 0.2)
        assert is_bisimulation(M, R)


def test_zero_zero_equals_strong():
    for seed in range(8):
        M = random_labeled_chain(np.random.default_rng(100 + seed))
        R = epsilon_delta_bisim(M, 0.0, 0.0)
        S = strong_bisim(M).as_relation()
        assert R.pairs == S.pairs


# ---------------------------------------------------------------- verification


def test_is_bisimulation_detects_label_clash():
    M = fixtures.escape_pair_chain(0.3)
    R = PairRelation.from_off_diagonal({(0, 2)}, n=M.n, eps=1.0, delta=10.0)
    chk = is_bisimulation(M, R)
    assert not chk
    assert chk.condition == "label"
    assert chk.pair == (0, 2)


def test_is_bisimulation_detects_rate_gap():
    M, _ = fixtures.quasi_lumpable_gap_chain(0.2, 0.3, 0.05)
    R = PairRelation.from_off_diagonal({(0, 1)}, n=M.n, eps=0.2, delta=0.3)
    chk = is_bisimulation(M, R)
    assert not chk
    assert chk.condition == "delta"
    assert "ln E" in chk.detail


def test_is_bisimulation_detects_flow_shortfall():
    M, _ = fixtures.quasi_lumpable_gap_chain(0.2, 0.3, 0.05)
    R = PairRelation.from_off_diagonal({(0, 1)}, n=M.n, eps=0.2, delta=10.0)
    chk = is_bisimulation(M, R)
    assert not chk
    assert chk.condition == "eps"


def test_is_bisimulation_size_mismatch():
    M = fixtures.escape_pair_chain(0.3)
    R = PairRelation.from_off_diagonal(set(), n=2, eps=0.0, delta=0.0)
    with pytest.raises(ValueError):
        is_bisimulation(M, R)


# ---------------------------------------------------------------- strong bisim


def test_strong_bisim_merges_twins():
    M = make_ctmc(
        [("a1", ("a",), 2.0), ("a2", ("a",), 2.0), ("g", ("g",), 1.0)],
        [
            ("a1", "a1", 0.25), ("a1", "a2", 0.25), ("a1", "g", 0.5),
            ("a2", "a2", 0.25), ("a2", "a1", 0.25), ("a2", "g", 0.5),
            ("g", "g", 1.0),
        ],
        initial="a1",
        goal=("g",),
    )
    part = strong_bisim(M)
    assert part.block_of(0) == part.block_of(1)
    assert part.block_of(0) != part.block_of(2)


def test_strong_bisim_separates_rates_and_rewards():
    M = make_ctmc(
        [("a1", ("a",), 2.0, 1.0), ("a2", ("a",), 2.0, 2.0), ("g", ("g",), 1.0, 0.0)],
        [("a1", "g", 1.0), ("a2", "g", 1.0), ("g", "g", 1.0)],
        initial="a1",
        goal=("g",),
    )
    part = strong_bisim(M)  # equal rows/rates but different rewards
    assert part.block_of(0) != part.block_of(1)


# ---------------------------------------------------------------- quasi-lumpability


def test_quasi_lumpable_exactly_at_tau():
    tau = 0.05
    M, blocks = fixtures.quasi_lumpable_gap_chain(0.2, 0.3, tau)
    part = Partition(blocks=blocks)
    assert check_quasi_lumpability(M, part, tau)
    assert not check_quasi_lumpability(M, part, 0.9 * tau)
    # the trivial partition into singletons is 0-lumpable
    singles = Partition(blocks=tuple(frozenset({i}) for i in range(M.n)))
    assert check_quasi_lumpability(M, singles, 0.0)


def test_quasi_lumpability_size_mismatch():
    M, _ = fixtures.quasi_lumpable_gap_chain(0.2, 0.3, 0.05)
    with pytest.raises(ValueError):
        check_quasi_lumpability(M, Partition(blocks=(frozenset({0}),)), 1.0)


# ---------------------------------------------------------------- split


def test_split_construction_witnesses():
    M, N = fixtures.bisimilar_demo_pair(0.2, 0.3)
    res = split_construction(M, N, 0.2, 0.3)
    w1, w2, w3 = res.witnesses
    assert (w1.name, w2.name, w3.name) == ("probability-step", "rate-step", "projection")
    assert (w1.relation.eps, w1.relation.delta) == (0.2, 0.0)
    assert (w2.relation.eps, w2.relation.delta) == (0.0, 0.3)
    assert (w3.relation.eps, w3.relation.delta) == (0.0, 0.0)
    for w in res.witnesses:
        assert is_bisimulation(w.chain, w.relation), w.name
    mp, np_ = res
    assert np.array_equal(mp.P, np_.P)
    assert mp.ids == np_.ids
    assert mp.ids[mp.initial] == "s0&t0"


def test_split_construction_unrelated_raises():
    M, N = fixtures.bisimilar_demo_pair(0.2, 0.3)
    with pytest.raises(NotBisimilar):
        split_construction(M, N, 0.0, 0.0)


# ---------------------------------------------------------------- serialization


def test_relation_save_load_round_trip(tmp_path):
    M = fixtures.perturbed_loop_chain(0.25, 0.5)
    R = epsilon_delta_bisim(M, 0.25, 0.5)
    p = tmp_path / "rel.json"
    save_relation(R, M, str(p))
    R2 = load_relation(str(p), M)
    assert R2.pairs == R.pairs
    assert (R2.eps, R2.delta) == (R.eps, R.delta)


# ---------------------------------------------------------------- properties


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 3_000))
def test_strong_partition_is_zero_zero_bisimulation(seed):
    M = random_labeled_chain(np.random.default_rng(seed))
    R = strong_bisim(M).as_relation()
    assert is_bisimulation(M, R)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 3_000), eps=st.floats(0.0, 0.4), delta=st.floats(0.0, 0.5))
def test_fixpoint_contains_identity_and_is_symmetric(seed, eps, delta):
    M = random_labeled_chain(np.random.default_rng(seed))
    R = epsilon_delta_bisim(M, eps, delta)
    for i in range(M.n):
        assert (i, i) in R
    for s, t in R.pairs:
        assert (t, s) in R
