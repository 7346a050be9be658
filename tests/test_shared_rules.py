"""Rules the package states once and every routine follows.

- ``is_bisimulation`` asks related states for equal rewards, as the
  fixpoint's starting relation does, so every relation it accepts lies
  inside the greatest one.
- No Erlang series runs past ``MAX_TERMS`` terms.
- ``simulate_paths`` treats a state as absorbing by the rule
  ``P[s, s] >= 1 - ABSORBING_EPS`` that ``spectral`` and ``rewards`` use.
- That rule is written once, in ``model``: no other module names
  ``ABSORBING_EPS``, and no module tests a diagonal entry against the
  row-sum tolerance ``ROW_SUM_TOL``.
"""

from __future__ import annotations

import ast
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import PairRelation, epsilon_delta_bisim, erlang, fixtures, is_bisimulation, make_ctmc
from ctmcbisim.errors import TruncationLimit
from ctmcbisim.model import ABSORBING_EPS, normalize_goal, prune_unreachable
from ctmcbisim.transient import simulate_paths

from helpers import random_rewarded_chain

# ---------------------------------------------------------------- rewards in the verifier


def _reward_pair(ra: float, rb: float):
    return make_ctmc(
        [("a", ("x",), 1.0, ra), ("b", ("x",), 1.0, rb), ("g", ("g",), 1.0, 0.0)],
        [("a", "g", 1.0), ("b", "g", 1.0), ("g", "g", 1.0)],
        initial="a",
        goal=("g",),
    )


@settings(max_examples=20, deadline=None)
@given(ra=st.sampled_from((0.0, 0.5, 1.0, 3.0)), rb=st.sampled_from((0.25, 1.0, 2.0)))
def test_is_bisimulation_checks_rewards(ra, rb):
    M = _reward_pair(ra, rb)
    R = PairRelation.from_off_diagonal([(0, 1)], M.n, 0.0, 0.0)
    check = is_bisimulation(M, R)
    assert ((0, 1) in epsilon_delta_bisim(M, 0.0, 0.0)) == (ra == rb) == check.ok
    if ra != rb:
        assert (check.pair, check.condition, check.detail) == ((0, 1), "reward", f"{ra!r} != {rb!r}")


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 3_000),
    eps=st.sampled_from((0.0, 0.1, 0.3, 0.6)),
    delta=st.sampled_from((0.0, 0.5, 1.5)),
    keep=st.lists(st.booleans(), min_size=15, max_size=15),
)
def test_every_accepted_relation_lies_in_the_greatest_one(seed, eps, delta, keep):
    M = random_rewarded_chain(np.random.default_rng(seed))
    # candidates: pairs with equal labels and close rates, rewards ignored
    same = [
        (s, t)
        for s in range(M.n)
        for t in range(s + 1, M.n)
        if M.labels[s] == M.labels[t] and abs(np.log(M.E[s] / M.E[t])) <= delta
    ]
    greatest = epsilon_delta_bisim(M, eps, delta)
    for pairs in (same, [p for p, k in zip(same, keep) if k]):
        R = PairRelation.from_off_diagonal(pairs, M.n, eps, delta)
        if is_bisimulation(M, R):
            assert R.pairs <= greatest.pairs


# ---------------------------------------------------------------- term cap


def _calls(fn, run, at: int) -> list:
    """Argument ``at`` of every call ``run()`` makes to ``erlang.<fn>``."""
    with mock.patch.object(erlang, fn, wraps=getattr(erlang, fn)) as spy:
        run()
    return [call.args[at] for call in spy.call_args_list]


@settings(max_examples=15, deadline=None)
@given(cap=st.integers(2, 3000))
def test_exact_series_stops_at_the_cap(cap):
    M = normalize_goal(prune_unreachable(fixtures.two_state_loop(0.999)))

    def run():
        with pytest.raises(TruncationLimit, match=f"after {cap} steps"):
            erlang.exact_diff_curve(M, 0.1, [100.0, 2000.0])

    with mock.patch.object(erlang, "MAX_TERMS", cap):
        steps = _calls("hit_exact_steps", run, 1)
    assert max(steps) == steps[-1] == cap


@settings(max_examples=15, deadline=None)
@given(cap=st.integers(2, 3000))
def test_markov_series_stops_at_the_cap(cap):
    M = normalize_goal(prune_unreachable(fixtures.two_state_loop(0.5)))
    # at t' = 1e5 the gaps sit near n = 1e5, so no cap this small certifies the tail
    with mock.patch.object(erlang, "MAX_TERMS", cap):
        terms = _calls("_gap_rows", lambda: erlang.markov_curve(M, 0.1, [1e5]), 2)
    assert max(terms) == terms[-1] == cap


# ---------------------------------------------------------------- absorbing rule


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), leak=st.sampled_from((1e-13, 5e-13, ABSORBING_EPS)))
def test_simulation_stops_in_nearly_absorbing_states(seed, leak):
    # "a" leaks to the goal with probability `leak` per jump, so a path in
    # "a" would jump about 2e5 times, past the jump budget, before the horizon
    M = make_ctmc(
        [("s", (), 1.0), ("a", ("a",), 1.0), ("b", (), 1.0), ("g", ("g",), 1.0)],
        [("s", "a", 0.5), ("s", "b", 0.5), ("a", "a", 1.0 - leak), ("a", "g", leak),
         ("b", "g", 1.0), ("g", "g", 1.0)],
        initial="s",
        goal=("g",),
    )
    res = simulate_paths(M, 400, 2e5, seed)
    assert 0.35 < res.estimate < 0.65


SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ctmcbisim"


def test_only_model_names_the_absorbing_eps():
    naming = sorted(p.name for p in SRC.glob("*.py") if "ABSORBING_EPS" in p.read_text(encoding="utf-8"))
    assert naming == ["model.py"]


def _diagonal_entry(node: ast.AST) -> bool:
    """``X[i, i]``, or a call of ``diag`` or ``diagonal``."""
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple) and len(node.slice.elts) == 2:
        i, j = node.slice.elts
        return ast.dump(i) == ast.dump(j)
    if isinstance(node, ast.Call):
        f = node.func
        return (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) in ("diag", "diagonal")
    return False


def test_no_diagonal_entry_is_tested_against_the_row_sum_tolerance():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Compare):
                continue
            inside = list(ast.walk(node))
            if any(isinstance(n, ast.Name) and n.id == "ROW_SUM_TOL" for n in inside):
                found += [f"{path.name}:{node.lineno}" for n in inside if _diagonal_entry(n)]
    assert found == []
