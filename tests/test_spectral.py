import math
import warnings

import numpy as np
import pytest

from ctmcbisim import (
    acyclic_exact,
    combined_bound,
    decompose,
    diag_bound,
    diff_curve,
    direct_sum,
    erlang_N_bound,
    erlang_diff,
    fixtures,
    hit_exact_steps,
    is_embedded_acyclic,
    jordan_bound,
    make_ctmc,
    normalize_goal,
    pn_diag,
    pn_jordan,
    prune_unreachable,
    spectral_report,
    timed_reach,
    triangle_bound_eps_delta,
)
from ctmcbisim.errors import (
    AcyclicChain,
    DecompositionFallbackWarning,
    DecompositionUnstable,
    ModulusOneNotOne,
    NotAcyclic,
    WrongKind,
)
from ctmcbisim.spectral import as_jordan

from helpers import random_stable_chain


def _norm(M):
    return normalize_goal(prune_unreachable(M))


def asym_parallel():
    # two straight lines of different lengths entered with probabilities
    # 0.3 / 0.7: first-hit steps are a two-point mixture on {2, 3}
    return make_ctmc(
        [
            ("s0", ("a",), 1.0), ("a1", ("a",), 1.0),
            ("b1", ("a",), 1.0), ("b2", ("a",), 1.0),
            ("g", ("g",), 1.0),
        ],
        [
            ("s0", "a1", 0.3), ("s0", "b1", 0.7),
            ("a1", "g", 1.0), ("b1", "b2", 1.0), ("b2", "g", 1.0),
            ("g", "g", 1.0),
        ],
        initial="s0",
        goal=("g",),
    )


def big_defective_chain(n=54):
    # a long lazy line: one eigenvalue 1/2 with geometric multiplicity 1
    # and algebraic multiplicity n, far past the staircase size gate
    states = [(f"s{i}", ("a",), 1.0) for i in range(n)] + [("g", ("g",), 1.0)]
    transitions = []
    for i in range(n):
        transitions.append((f"s{i}", f"s{i}", 0.5))
        transitions.append((f"s{i}", f"s{i + 1}" if i + 1 < n else "g", 0.5))
    transitions.append(("g", "g", 1.0))
    return make_ctmc(states, transitions, initial="s0", goal=("g",))


# ---------------------------------------------------------------- decompose


def test_decompose_branch_is_diag():
    sd = decompose(_norm(fixtures.branch_merge_chain()).P)
    assert sd.kind == "diag"
    assert sd.a_p == 1
    assert sd.lam == pytest.approx(0.5, abs=1e-9)
    mods = sorted(abs(ev) for ev in sd.eigenvalues)
    assert mods == pytest.approx([0.0, 0.25, 0.5, 1.0], abs=1e-12)
    assert sd.residual <= 1e-12
    # S J S^-1 really multiplies back to P
    J = np.diag(sd.eigenvalues)
    P = _norm(fixtures.branch_merge_chain()).P
    assert np.allclose(sd.S @ J @ sd.S_inv, P, atol=1e-12)


def test_decompose_defective_blocks():
    sd = decompose(_norm(fixtures.defective_chain()).P)
    assert sd.kind == "jordan"
    assert sd.a_p == 1
    assert [(complex(mu), size) for mu, size in sd.blocks] == [(1 + 0j, 1), (0.5 + 0j, 2)]
    assert sd.residual <= 1e-10


def test_decompose_nilpotent_staircase():
    sd = decompose(_norm(fixtures.parallel_erlang((2, 4))).P)
    assert sd.kind == "jordan"
    assert sd.a_p == 1
    sizes = sorted(size for mu, size in sd.blocks if mu == 0.0)
    assert sizes == [2, 5]
    assert sd.lam == 0.0


def test_decompose_multiple_absorbing():
    sd = decompose(_norm(fixtures.multi_sink_chain()).P)
    assert sd.a_p == 2  # merged fail sink + goal
    assert [(complex(mu), size) for mu, size in sd.blocks] == [
        (1 + 0j, 1), (1 + 0j, 1), (0j, 2),
    ]


QUEUE_MODULI = [
    (0.75, 0.7333804979112143),
    (0.5, 0.9238795325112873),
    (1 / 3, 0.977840663881619),
]


@pytest.mark.parametrize("tau,lam", QUEUE_MODULI)
def test_decompose_queue_moduli(tau, lam):
    sd = decompose(_norm(fixtures.overflow_queue(tau)).P)
    assert sd.kind == "diag"
    assert sd.lam == pytest.approx(lam, abs=1e-12)


def test_decompose_rejects_extra_modulus_one():
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ModulusOneNotOne):
        decompose(flip)


def test_decompose_size_gate():
    M = _norm(big_defective_chain())
    with pytest.raises(DecompositionUnstable):
        decompose(M.P)


# ---------------------------------------------------------------- step formulas


def _check_pn(sd, M, fn, n_max=30, tol=1e-7):
    hs = hit_exact_steps(M, n_max)
    for k in range(1, n_max + 1):
        assert fn(sd, k) == pytest.approx(hs.probs[k - 1], abs=tol), k


def test_pn_diag_matches_exact_steps():
    for M in (fixtures.branch_merge_chain(), fixtures.overflow_queue(0.75)):
        Mn = _norm(M)
        _check_pn(decompose(Mn.P), Mn, pn_diag)


def test_pn_jordan_matches_exact_steps():
    for M in (
        fixtures.defective_chain(),
        fixtures.parallel_erlang((2, 4)),
        fixtures.multi_sink_chain(),
        asym_parallel(),
    ):
        Mn = _norm(M)
        _check_pn(as_jordan(decompose(Mn.P)), Mn, pn_jordan)


def test_pn_jordan_collapses_to_diag():
    Mn = _norm(fixtures.branch_merge_chain())
    sd = decompose(Mn.P)
    sdj = as_jordan(sd)
    assert sdj.kind == "jordan"
    for k in range(1, 25):
        assert pn_jordan(sdj, k) == pytest.approx(pn_diag(sd, k), abs=1e-10)


def test_pn_on_random_stable_chains():
    for seed in range(12):
        M = random_stable_chain(np.random.default_rng(seed))
        Mn = _norm(M)
        sd = decompose(Mn.P)
        fn = pn_diag if sd.kind == "diag" else pn_jordan
        if sd.kind == "jordan":
            sd = as_jordan(sd)
        _check_pn(sd, Mn, fn, n_max=20)


# ---------------------------------------------------------------- acyclic route


def test_acyclic_detection():
    assert is_embedded_acyclic(fixtures.erlang_chain(3))
    assert is_embedded_acyclic(fixtures.parallel_erlang((2, 3)))
    assert not is_embedded_acyclic(fixtures.branch_merge_chain())
    # absorbing self-loops don't count as cycles
    assert is_embedded_acyclic(fixtures.multi_sink_chain())


def test_acyclic_exact_single_line():
    c, t, delta = math.exp(0.25), 3.0, 0.25
    v = acyclic_exact(fixtures.erlang_chain(4), delta, t)
    assert v == pytest.approx(erlang_diff(4, c, t), abs=1e-15)


def test_acyclic_exact_mixture():
    delta, t = 0.15, 2.0
    c = math.exp(delta)
    v = acyclic_exact(asym_parallel(), delta, t)
    want = 0.3 * erlang_diff(2, c, t) + 0.7 * erlang_diff(3, c, t)
    assert v == pytest.approx(want, abs=1e-15)
    truth = diff_curve(asym_parallel(), c, [t], tol=1e-12)[0]
    assert v == pytest.approx(truth, abs=1e-10)


def test_acyclic_exact_rejects_cycles():
    with pytest.raises(NotAcyclic):
        acyclic_exact(fixtures.branch_merge_chain(), 0.1, 1.0)


# ---------------------------------------------------------------- bounds


def test_diag_bound_tight_on_loop_chain():
    # single transient eigenvalue: the bound's series reproduces the exact
    # mixture of chain-length gaps, so it collapses onto the truth
    M = fixtures.two_state_loop(0.5)
    delta = 0.2
    grid = [0.5, 1.0, 3.0, 8.0]
    tol = 1e-9
    bound = diag_bound(M, delta, grid, tol=tol)
    truth = diff_curve(M, math.exp(delta), grid, tol=1e-12)
    assert np.all(bound >= truth - 1e-9)
    assert np.allclose(bound, truth, atol=2 * tol)


def test_diag_bound_dominates_and_decays():
    M = fixtures.branch_merge_chain()
    delta = 0.1
    grid = np.linspace(0.25, 40.0, 40)
    bound = diag_bound(M, delta, grid)
    truth = diff_curve(M, math.exp(delta), grid, tol=1e-10)
    assert np.all(bound >= truth - 1e-9)
    assert bound[-1] < 0.02 * bound.max()  # long-run decay, not saturation


def test_diag_bound_wrong_kind():
    with pytest.raises(WrongKind):
        diag_bound(fixtures.defective_chain(), 0.1, [1.0])


def test_jordan_bound_dominates_on_defective():
    M = fixtures.defective_chain()
    delta = 0.1
    grid = np.linspace(0.5, 30.0, 30)
    bound = jordan_bound(M, delta, grid)
    truth = diff_curve(M, math.exp(delta), grid, tol=1e-10)
    assert np.all(bound >= truth - 1e-9)
    assert bound[-1] < 0.05 * bound.max()


def test_jordan_bound_on_diagonalizable_matches_diag():
    M = fixtures.two_state_loop(0.4)
    delta = 0.15
    grid = [0.5, 2.0, 6.0]
    jb = jordan_bound(M, delta, grid)
    db = diag_bound(M, delta, grid)
    assert np.allclose(jb, db, atol=1e-8)


def test_jordan_bound_rejects_nilpotent():
    with pytest.raises(AcyclicChain):
        jordan_bound(fixtures.erlang_chain(3), 0.1, [1.0])


def test_combined_is_pointwise_minimum():
    M = fixtures.branch_merge_chain()
    delta = 0.1
    grid = np.linspace(0.5, 25.0, 20)
    Mn = _norm(M)
    rate = float(Mn.E[0])
    base = np.array([erlang_N_bound(rate * t, delta) for t in grid])
    spec = diag_bound(M, delta, grid)
    comb = combined_bound(M, delta, grid)
    assert np.allclose(comb, np.clip(np.minimum(base, spec), 0.0, 1.0), atol=1e-12)


def test_combined_uses_exact_sum_on_acyclic():
    M = asym_parallel()
    delta = 0.2
    grid = [0.5, 1.5, 4.0]
    comb = combined_bound(M, delta, grid)
    truth = diff_curve(M, math.exp(delta), grid, tol=1e-11)
    for got, want, t in zip(comb, truth, grid):
        want_capped = min(want, erlang_N_bound(float(t), delta))
        assert got == pytest.approx(want_capped, abs=1e-9)


def test_combined_falls_back_with_warning():
    M = big_defective_chain()
    delta = 0.1
    grid = [1.0, 5.0]
    with pytest.warns(DecompositionFallbackWarning):
        comb = combined_bound(M, delta, grid)
    base = np.array([erlang_N_bound(t, delta) for t in grid])
    assert np.allclose(comb, base, atol=0.0)


def test_combined_dominates_truth_on_queues():
    delta = 0.1
    grid = np.linspace(0.5, 30.0, 15)
    for tau in (0.75, 0.5, 1 / 3):
        M = fixtures.overflow_queue(tau)
        comb = combined_bound(M, delta, grid)
        truth = diff_curve(M, math.exp(delta), grid, tol=1e-10)
        assert np.all(comb >= truth - 1e-9)


# ---------------------------------------------------------------- report


def test_spectral_report_shape():
    rep = spectral_report(fixtures.overflow_queue(0.75))
    assert rep["kind"] == "diag"
    assert rep["absorbing_multiplicity"] == 1
    assert rep["second_modulus"] == pytest.approx(0.7333804979112143, abs=1e-12)
    assert rep["residual"] < 1e-12
    assert len(rep["eigenvalues"]) == len(rep["states"]) == 5
    assert sum(b["size"] for b in rep["blocks"]) == 5


# ---------------------------------------------------------------- pair bound


def test_triangle_bound_dominates_pair_truth():
    M, N = fixtures.bisimilar_demo_pair(0.2, 0.3)
    grid = [0.5, 1.0, 2.0, 5.0]
    bound = triangle_bound_eps_delta(M, N, 0.2, 0.3, grid)
    Mn, Nn = _norm(M), _norm(N)
    for t, b in zip(grid, bound):
        truth = abs(timed_reach(Mn, None, t) - timed_reach(Nn, None, t))
        assert truth <= b + 1e-9
    assert np.all(bound <= 1.0)


def test_triangle_bound_scaled_copy_sharp_route():
    # a pure rate perturbation: eps = 0, so the probability-step charge
    # vanishes and the bound reduces to the spectral machinery
    M = fixtures.branch_merge_chain()
    from ctmcbisim import scale

    N = scale(M, math.exp(0.1))
    grid = [1.0, 3.0, 10.0]
    bound = triangle_bound_eps_delta(M, N, 0.0, 0.1, grid)
    truth = diff_curve(M, math.exp(0.1), grid, tol=1e-10)
    assert np.all(bound >= truth - 1e-9)
    assert bound[1] < 0.5  # far from the trivial bound at moderate times
