"""One normal form for every goal analysis.

``model._normal_form`` is the chain that ``bounds``, ``pn``, ``simulate``,
``spectral-report``, the spectral bounds and the ordering check of pair
uniformization read.  Whenever the initial state can reach a goal state it
must be exactly ``normalize_goal(prune_unreachable(M))``, the form those
analyses built before; when none can be reached it is the two-state form
(initial state ``fail``, absorbing goal) instead of an empty goal set.
Only ``model.py`` may build it: no other module names ``normalize_goal``
or ``prune_unreachable``.
"""

import ast
import csv
import io
import json
import tokenize
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import (
    combined_bound,
    direct_sum,
    exact_diff_curve,
    graph,
    make_ctmc,
    markov_curve,
    reward_reach,
    save_model,
    spectral_curve,
    timed_reach,
)
from ctmcbisim.cli import main
from ctmcbisim.errors import EmptyGoalSet
from ctmcbisim.model import Ctmc, _absorbing_states, _normal_form, normalize_goal, prune_unreachable

from helpers import (
    random_bisimilar_pair,
    random_dag_chain,
    random_labeled_chain,
    random_rewarded_chain,
    random_stable_chain,
    random_uniform_chain,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ctmcbisim"

# ---------------------------------------------------------------- chains

_LABELS = ((), ("a",), ("b",), ("goal",), ("fail",))


def _sparse_chain(rng: np.random.Generator) -> Ctmc:
    """Sparse chain with absorbing non-goal states, states the initial one
    cannot reach, colliding labels, ids that clash with the fresh names
    ``goal`` and ``fail``, a goal set of zero to three states (sometimes
    holding the initial state), and sometimes rewards and rate
    expressions."""
    n = int(rng.integers(2, 10))
    P = np.zeros((n, n))
    for i in range(n):
        w = rng.integers(0, 4, size=n) * (rng.random(n) < 0.4)
        if rng.random() < 0.25 or w.sum() == 0:
            w = np.eye(n, dtype=int)[i]
        P[i] = w / w.sum()
    ids = tuple(rng.permutation([f"s{i}" for i in range(n)] + ["goal", "fail", "fail1"])[:n].tolist())
    initial = int(rng.integers(n))
    goal = rng.choice(n, size=min(n, int(rng.integers(0, 4))), replace=False).tolist()
    rewards = rng.choice((0.0, 0.5, 2.0), size=n) if rng.random() < 0.5 else None
    exprs = tuple("exp(0)" if rng.random() < 0.5 else None for _ in range(n)) if rng.random() < 0.3 else None
    return Ctmc(
        ids=ids,
        labels=tuple(_LABELS[int(k)] for k in rng.integers(0, len(_LABELS), size=n)),
        P=P,
        E=rng.choice((0.5, 1.0, 2.0), size=n),
        initial=initial,
        goal=tuple(g for g in goal if g != initial or rng.random() < 0.1),
        rewards=rewards,
        rate_exprs=exprs,
    )


def _moved_goal(rng: np.random.Generator) -> Ctmc:
    """A uniform chain summed with a second one the first cannot reach,
    with one to three goal states drawn from both."""
    M = direct_sum(random_uniform_chain(rng, n_max=5), random_labeled_chain(rng, n=int(rng.integers(2, 5))))
    goal = rng.choice(M.n, size=int(rng.integers(1, 4)), replace=False)
    return replace(M, goal=tuple(int(g) for g in goal if g != M.initial))


FAMILIES = {
    "uniform": random_uniform_chain,
    "dag": random_dag_chain,
    "stable": random_stable_chain,
    "labeled": lambda rng: random_labeled_chain(rng, n=int(rng.integers(2, 9))),
    "bisimilar": lambda rng: random_bisimilar_pair(rng, 0.1, 0.1)[int(rng.integers(2))],
    "rewarded": random_rewarded_chain,
    "sparse": _sparse_chain,
    "moved-goal": _moved_goal,
}


def _run(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # compared with the other side's error below
        return e


def _assert_same(new, old):
    if isinstance(old, Exception) or isinstance(new, Exception):
        assert (type(new), str(new)) == (type(old), str(old))
        return
    for name in ("P", "E", "rewards"):
        a, b = getattr(new, name), getattr(old, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for name in ("ids", "labels", "initial", "goal", "fail", "rate_exprs"):
        assert getattr(new, name) == getattr(old, name), name


def _goal_unreachable(M: Ctmc) -> bool:
    return bool(M.goal) and graph.reach(M.succ, [M.initial]).isdisjoint(M.goal)


# ---------------------------------------------------------------- library


@settings(max_examples=400, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)), seed=st.integers(0, 2**32 - 1))
def test_normal_form_is_prune_then_normalize(family, seed):
    M = FAMILIES[family](np.random.default_rng(seed))
    new = _run(_normal_form, M)
    if not _goal_unreachable(M):
        _assert_same(new, _run(lambda X: normalize_goal(prune_unreachable(X)), M))
        return
    # no goal state can be reached: everything reachable is one fail state
    assert isinstance(new, Ctmc)
    assert (new.initial, new.fail, new.goal) == (0, (0,), (1,))
    assert new.ids[0].startswith("fail") and new.ids[0] != new.ids[1]
    assert np.array_equal(new.P, np.eye(2))
    assert timed_reach(new, None, 3.0) == 0.0


def test_families_reach_every_case():
    """The drawn chains do exercise what the two forms are compared on."""
    seen = set()
    for seed in range(300):
        for family, draw in FAMILIES.items():
            M = draw(np.random.default_rng(seed))
            seen.add(family)
            if _goal_unreachable(M):
                seen.add("goal unreachable")
                continue
            if len(graph.reach(M.succ, [M.initial])) < M.n:
                seen.add("unreachable states")
            if len(M.goal) > 1:
                seen.add("multi-goal")
            form = _run(_normal_form, M)
            seen.add(type(form).__name__ if isinstance(form, Exception) else "dead states" if form.fail else "normalized")
    assert seen >= set(FAMILIES) | {
        "goal unreachable",
        "unreachable states",
        "multi-goal",
        "dead states",
        "normalized",
        "EmptyGoalSet",
        "ValueError",
    }


def test_empty_goal_set_still_raises():
    M = make_ctmc([("s0", (), 1.0), ("s1", ("x",), 1.0)], [("s0", "s1", 1.0), ("s1", "s1", 1.0)], initial="s0")
    with pytest.raises(EmptyGoalSet, match="goal set is empty"):
        _normal_form(M)


# ---------------------------------------------------------------- unreachable goal


def _unreachable_goal_chain(goal=("g",)) -> Ctmc:
    """``s0 <-> s1``, and the absorbing goal ``g`` cannot be reached."""
    return make_ctmc(
        [("s0", (), 1.0), ("s1", (), 1.0), ("g", ("g",), 1.0)],
        [("s0", "s1", 1.0), ("s1", "s0", 1.0), ("g", "g", 1.0)],
        initial="s0",
        goal=goal,
    )


@pytest.fixture
def unreachable_path(tmp_path):
    p = tmp_path / "unreachable.json"
    save_model(_unreachable_goal_chain(), str(p))
    return str(p)


def _cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _columns(text: str) -> dict[str, list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    return {name: [row[k] for row in rows[1:]] for k, name in enumerate(rows[0])}


def test_library_answers_zero():
    M = _unreachable_goal_chain()
    assert timed_reach(M, None, 2.0) == 0.0
    assert spectral_curve(M, 0.1, [0.0, 1.0, 5.0]).tolist() == [0.0, 0.0, 0.0]


def test_bounds_answers_for_the_normal_form(capsys, unreachable_path):
    rc, out, err = _cli(
        capsys,
        ["bounds", "-m", unreachable_path, "--eps", "0.1", "--delta", "0.1", "--tmax", "4", "--steps", "4",
         "--which", "exact,unif,erlangN,markov,spectral,combined"],
    )
    assert rc == 0
    cols = _columns(out)
    for name in ("exact", "spectral", "combined"):
        assert cols[name] == ["0"] * 5, name
    assert cols["markov"] == [""] * 5
    assert "note: column 'markov' not applicable" in err
    for name in ("unif", "erlangN"):
        values = [float(x) for x in cols[name]]
        assert values[0] == 0.0 and all(v > 0.0 for v in values[1:]), name


def test_pn_simulate_and_spectral_report_answer_for_the_normal_form(capsys, unreachable_path):
    rc, out, _ = _cli(capsys, ["pn", "-m", unreachable_path, "--steps", "5"])
    assert rc == 0
    cols = _columns(out)
    assert cols["formula"] == cols["oracle"] == cols["abs_err"] == ["0"] * 5

    rc, out, _ = _cli(capsys, ["simulate", "-m", unreachable_path, "--t", "3", "--paths", "200"])
    report = json.loads(out)
    assert rc == 0
    assert (report["estimate"], report["ci_low"], report["hits"]) == (0.0, 0.0, 0)

    rc, out, _ = _cli(capsys, ["spectral-report", "-m", unreachable_path])
    assert rc == 0
    assert json.loads(out)["states"] == ["fail", "g"]


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--delta", "0.1"],
        ["pn"],
        ["simulate", "--t", "1"],
        ["spectral-report"],
    ],
)
def test_empty_goal_list_still_exits_2(capsys, tmp_path, argv):
    p = tmp_path / "nogoal.json"
    save_model(_unreachable_goal_chain(goal=()), str(p))
    rc, _, err = _cli(capsys, [argv[0], "-m", str(p), *argv[1:]])
    assert rc == 2
    assert "EmptyGoalSet: goal set is empty" in err


# ---------------------------------------------------------------- guard

_MAKERS = {"normalize_goal", "prune_unreachable"}


def _names_a_maker(text: str) -> list[str]:
    """Each ``line: name`` where the source names ``normalize_goal`` or
    ``prune_unreachable``: as a name, an attribute or an import."""
    hits = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        else:
            continue
        if name in _MAKERS:
            hits.append(f"{node.lineno}: {name}")
    return hits


def test_only_model_builds_the_normal_form():
    found = {
        p.name: _names_a_maker(p.read_text(encoding="utf-8"))
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name not in ("model.py", "__init__.py")
    }
    assert {"cli.py", "spectral.py", "pairuniform.py"} <= set(found)
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_guard_sees_each_way_of_naming():
    text = (
        "from .model import normalize_goal as ng\n"
        "from . import model\n"
        "x = model.prune_unreachable\n"
        "y = prune_unreachable(M)\n"
        "z = '_normal_form normalize_goal'\n"
    )
    assert _names_a_maker(text) == ["1: normalize_goal", "3: prune_unreachable", "4: prune_unreachable"]


def test_only_erlang_reads_the_uniform_rate():
    """Every curve reaches ``_uniform_rate`` through ``erlang._prepare``,
    after the normal form is built."""

    def names(path):
        with open(path, encoding="utf-8") as fh:
            return {tok.string for tok in tokenize.generate_tokens(fh.readline) if tok.type == tokenize.NAME}

    readers = sorted(p.name for p in PACKAGE.glob("*.py") if "_uniform_rate" in names(p))
    assert readers == ["erlang.py"]


# ---------------------------------------------------------------- every goal analysis


def _goal_analysis_chain(rng: np.random.Generator) -> Ctmc:
    """A uniform chain whose goal is moved to a state that may leave it, or
    that has several goal states, or states the initial one cannot reach
    (``_moved_goal``).  Rewards are positive on the initial and goal states
    and sometimes zero elsewhere."""
    kind = int(rng.integers(3))
    if kind == 2:
        M = _moved_goal(rng)
    else:
        M = random_uniform_chain(rng, n_max=6)
        goal = rng.choice(np.arange(1, M.n), size=1 + kind * int(rng.integers(1, M.n - 1)), replace=False)
        M = replace(M, goal=tuple(sorted(int(g) for g in goal)))
    rewards = np.where(rng.random(M.n) < 0.15, 0.0, rng.choice((0.5, 2.0), size=M.n))
    rewards[[M.initial, *M.goal]] = rng.choice((0.5, 2.0))
    return replace(M, rewards=rewards)


_ANALYSES = {
    "exact_diff_curve": lambda M: exact_diff_curve(M, 0.1, [0.0, 0.5, 3.0]),
    "markov_curve": lambda M: markov_curve(M, 0.1, [0.0, 0.5, 3.0]),
    "spectral_curve": lambda M: spectral_curve(M, 0.1, [0.0, 0.5, 3.0]),
    "combined_bound": lambda M: combined_bound(M, 0.1, [0.0, 0.5, 3.0]),
    "reward_reach": lambda M: reward_reach(M, None, 1.5),
}


def _outcome(analysis, M):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # combined_bound's fallback warning
        got = _run(analysis, M)
    if isinstance(got, Exception):
        return type(got), str(got)
    return np.asarray(got).tobytes()


def _is_fixed_point(form: Ctmc) -> bool:
    try:
        _assert_same(_normal_form(form), form)
    except AssertionError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_goal_analyses_read_the_normal_form(seed):
    M = _goal_analysis_chain(np.random.default_rng(seed))
    form = _run(_normal_form, M)
    for name, analysis in _ANALYSES.items():
        if isinstance(form, Exception):  # each analysis meets it first
            assert _outcome(analysis, M) == (type(form), str(form)), name
        elif _is_fixed_point(form):  # see the xfail test below for the others
            assert _outcome(analysis, M) == _outcome(analysis, form), name


def test_the_gate_meets_every_kind_of_chain():
    seen = set()
    for seed in range(200):
        M = _goal_analysis_chain(np.random.default_rng(seed))
        form = _run(_normal_form, M)
        if isinstance(form, Exception) or not _is_fixed_point(form):
            continue
        if len(M.goal) > 1:
            seen.add("several goals")
        if not _absorbing_states(M.P)[list(M.goal)].all():
            seen.add("a goal that is left again")
        if len(graph.reach(M.succ, [M.initial])) < M.n:
            seen.add("unreachable states")
    assert seen == {"several goals", "a goal that is left again", "unreachable states"}


def _goal_on_the_way():
    """s0 -> {s1, g}, s1 -> {s0, s2}, s2 -> {s0, g}, with goals s1 and g:
    s2 can be reached only through the goal state s1."""
    return make_ctmc(
        [("s0", (), 1.0), ("s1", (), 1.0), ("s2", (), 1.0), ("g", ("g",), 1.0)],
        [
            ("s0", "s1", 0.5), ("s0", "g", 0.5),
            ("s1", "s0", 0.5), ("s1", "s2", 0.5),
            ("s2", "s0", 0.5), ("s2", "g", 0.5),
            ("g", "g", 1.0),
        ],
        initial="s0",
        goal=("s1", "g"),
    )


@pytest.mark.xfail(strict=True, reason="the normal form keeps states that only a goal state leads to")
def test_the_normal_form_is_its_own_normal_form():
    form = _normal_form(_goal_on_the_way())
    assert form.ids == ("s0", "goal")
    assert _is_fixed_point(form)
