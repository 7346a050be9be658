import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import (
    Ctmc,
    direct_sum,
    embedded_dtmc,
    fixtures,
    generator,
    load_model,
    make_ctmc,
    normalize_goal,
    prune_unreachable,
    scale,
    uniformize,
    validate,
)
from ctmcbisim.model import dumps_model, model_from_dict, model_to_dict
from ctmcbisim.errors import (
    CtmcError,
    EmptyGoalSet,
    NoGoalState,
    NonAbsorbingGoal,
    NonpositiveRate,
    NonpositiveScale,
    RateTooSmall,
    RowSumError,
)

from helpers import random_uniform_chain


def two_plus_sink():
    return make_ctmc(
        [("a", (), 2.0), ("b", (), 1.0), ("g", ("g",), 1.0)],
        [("a", "b", 0.5), ("a", "g", 0.5), ("b", "a", 1.0), ("g", "g", 1.0)],
        initial="a",
        goal=("g",),
    )


# ---------------------------------------------------------------- validation


def test_validate_rejects_bad_row_sum():
    M = two_plus_sink()
    P = M.P.copy()
    P[0, 1] = 0.7  # row 0 now sums to 1.2
    with pytest.raises(RowSumError):
        validate(Ctmc(ids=M.ids, labels=M.labels, P=P, E=M.E, initial=0, goal=M.goal))


def test_validate_rejects_nonpositive_rate():
    M = two_plus_sink()
    E = M.E.copy()
    E[1] = 0.0
    with pytest.raises(NonpositiveRate):
        validate(Ctmc(ids=M.ids, labels=M.labels, P=M.P, E=E, initial=0, goal=M.goal))


def test_validate_rejects_nonabsorbing_goal():
    M = make_ctmc(
        [("a", (), 1.0), ("g", ("g",), 1.0)],
        [("a", "g", 1.0), ("g", "a", 0.5), ("g", "g", 0.5)],
        initial="a",
        goal=("g",),
    )
    with pytest.raises(NonAbsorbingGoal):
        validate(M)


@pytest.mark.parametrize(
    "states, transitions, error",
    [
        ([("a", (), math.nan), ("g", ("g",), 1.0)], [("a", "g", 1.0)], "E[0]=nan is not finite"),
        ([("a", (), 1.0), ("g", ("g",), 1.0)], [("a", "g", 1.5), ("a", "a", -0.5)], "outside [0,1]"),
        ([("a", (), 1.0), ("g", ("g",), 1.0)], [("a", "g", 0.75)], "sums to 0.75"),
        ([("a", (), 0.0), ("g", ("g",), 1.0)], [("a", "g", 1.0)], "non-positive exit rate"),
        ([("a", (), 1.0, math.inf), ("g", ("g",), 1.0)], [("a", "g", 1.0)], "rewards[0]=inf"),
    ],
)
def test_make_ctmc_checks_what_load_model_checks(states, transitions, error):
    with pytest.raises(CtmcError, match=re.escape(error)):
        make_ctmc(states, [*transitions, ("g", "g", 1.0)], initial="a", goal=("g",))


def test_make_ctmc_leaves_the_goal_to_normalize_goal():
    # a goal that is neither absorbing nor uniquely labelled, as at load
    M = make_ctmc(
        [("a", ("x",), 1.0), ("g", ("x",), 1.0)],
        [("a", "g", 1.0), ("g", "a", 1.0)],
        initial="a",
        goal=("g",),
    )
    with pytest.raises(NonAbsorbingGoal):
        validate(M)


def test_validate_renormalize():
    M = two_plus_sink()
    P = M.P * 2.0
    fixed = validate(
        Ctmc(ids=M.ids, labels=M.labels, P=P, E=M.E, initial=0, goal=M.goal),
        renormalize=True,
    )
    assert np.allclose(fixed.P.sum(axis=1), 1.0)


# ---------------------------------------------------------------- direct sum


def test_direct_sum_shifts_and_renames():
    A = two_plus_sink()
    B = fixtures.two_state_loop(0.5)
    J = direct_sum(A, B)
    assert J.n == A.n + B.n
    assert J.ids[: A.n] == A.ids
    assert J.ids[A.n :] == ("s", "g~b")  # collision with A's "g" gets the suffix
    assert np.allclose(J.P[: A.n, : A.n], A.P)
    assert np.allclose(J.P[A.n :, A.n :], B.P)
    assert np.all(J.P[: A.n, A.n :] == 0.0)
    assert J.goal == A.goal + tuple(A.n + g for g in B.goal)


def test_scale_changes_only_rates():
    M = two_plus_sink()
    Mc = scale(M, 3.5)
    assert np.allclose(Mc.E, M.E * 3.5)
    assert np.array_equal(Mc.P, M.P)
    with pytest.raises(NonpositiveScale):
        scale(M, 0.0)


# ---------------------------------------------------------------- goal normalization


def test_normalize_goal_merges_and_orders():
    # two goal states, one dead state that cannot reach them
    M = make_ctmc(
        [
            ("s0", (), 1.0),
            ("dead", ("d",), 2.0),
            ("g1", ("win",), 1.0),
            ("g2", ("win2",), 3.0),
        ],
        [
            ("s0", "g1", 0.25), ("s0", "g2", 0.25), ("s0", "dead", 0.5),
            ("dead", "dead", 1.0), ("g1", "g1", 1.0), ("g2", "g2", 1.0),
        ],
        initial="s0",
        goal=("g1", "g2"),
    )
    Mn = normalize_goal(M)
    assert Mn.ids[0] == "s0"            # initial first
    assert Mn.ids[-1] == Mn.ids[Mn.goal[0]]  # goal last
    assert len(Mn.goal) == 1
    g = Mn.goal[0]
    assert Mn.P[g, g] == 1.0
    assert Mn.E[g] == 3.0               # merged rate is the max of the parts
    # total mass into the merged goal preserved
    assert math.isclose(Mn.P[0, g], 0.5)
    # the dead state went to the fail slot, before the goal
    assert len(Mn.fail) == 1
    assert Mn.fail[0] == Mn.n - 2


def test_normalize_goal_initial_in_goals_rejected():
    M = make_ctmc(
        [("g", ("g",), 1.0)], [("g", "g", 1.0)], initial="g", goal=("g",)
    )
    with pytest.raises(ValueError):
        normalize_goal(M)


def test_normalize_goal_empty():
    M = two_plus_sink()
    with pytest.raises(EmptyGoalSet):
        normalize_goal(M, goals=())


def test_goal_state_requires_singleton():
    M = two_plus_sink()
    with pytest.raises(NoGoalState):
        Ctmc(ids=M.ids, labels=M.labels, P=M.P, E=M.E, initial=0, goal=()).goal_state()


# ---------------------------------------------------------------- uniformization


def test_uniformize_formula():
    M = two_plus_sink()
    q = 4.0
    D = uniformize(M, q)
    w = M.E / q
    for s in range(M.n):
        for sp in range(M.n):
            expect = w[s] * M.P[s, sp] + (1.0 - w[s] if s == sp else 0.0)
            assert D.P[s, sp] == pytest.approx(expect, abs=1e-15)
    assert np.allclose(D.P.sum(axis=1), 1.0)


def test_uniformize_rate_gate():
    M = two_plus_sink()
    with pytest.raises(RateTooSmall):
        uniformize(M, 1.0)  # max rate is 2


def test_embedded_and_generator():
    M = two_plus_sink()
    D = embedded_dtmc(M)
    assert np.array_equal(D.P, M.P)
    Q = generator(M)
    assert np.allclose(Q.sum(axis=1), 0.0)
    assert np.allclose(np.diag(Q), -M.E * (1.0 - np.diag(M.P)))


# ---------------------------------------------------------------- pruning


def test_prune_unreachable_remaps():
    M = make_ctmc(
        [("a", (), 1.0, 1.0), ("orphan", ("o",), 1.0, 2.0), ("g", ("g",), 1.0, 1.0)],
        [("a", "g", 1.0), ("orphan", "g", 1.0), ("g", "g", 1.0)],
        initial="a",
        goal=("g",),
    )
    Mp = prune_unreachable(M)
    assert Mp.ids == ("a", "g")
    assert Mp.goal == (1,)
    assert Mp.rewards is not None and list(Mp.rewards) == [1.0, 1.0]
    # already-reachable chains come back untouched
    M2 = two_plus_sink()
    assert prune_unreachable(M2) is M2


# ---------------------------------------------------------------- serialization


def test_json_round_trip_stable():
    M = fixtures.rewarded_tandem()
    text = dumps_model(M)
    M2 = model_from_dict(json.loads(text))
    assert dumps_model(M2) == text
    assert M2.ids == M.ids
    assert np.array_equal(M2.P, M.P)
    assert np.array_equal(M2.E, M.E)
    assert np.array_equal(M2.rewards, M.rewards)


def test_json_key_order_canonical():
    d = json.loads(dumps_model(two_plus_sink()))
    assert list(d) == ["states", "transitions", "initial", "goal"]


def test_exp_rate_strings_preserved(tmp_path):
    d = {
        "states": [
            {"id": "a", "labels": [], "exit_rate": "exp(0.5)"},
            {"id": "g", "labels": ["g"], "exit_rate": 1.0},
        ],
        "transitions": [
            {"from": "a", "to": "g", "prob": 1.0},
            {"from": "g", "to": "g", "prob": 1.0},
        ],
        "initial": "a",
        "goal": ["g"],
    }
    M = model_from_dict(d)
    assert M.E[0] == pytest.approx(math.exp(0.5), rel=0, abs=0)
    out = model_to_dict(M)
    assert out["states"][0]["exit_rate"] == "exp(0.5)"
    p = tmp_path / "m.json"
    p.write_text(json.dumps(d))
    assert load_model(str(p)).E[0] == M.E[0]


# ---------------------------------------------------------------- properties


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_chains_validate(seed):
    M = random_uniform_chain(np.random.default_rng(seed))
    assert np.all(np.abs(M.P.sum(axis=1) - 1.0) <= 1e-12)
    validate(M)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), c=st.floats(1.0, 8.0))
def test_scale_then_normalize_commute(seed, c):
    M = random_uniform_chain(np.random.default_rng(seed))
    a = normalize_goal(scale(M, c))
    b = scale(normalize_goal(M), c)
    assert a.ids == b.ids
    assert np.allclose(a.P, b.P)
    assert np.allclose(a.E, b.E)
