"""Model files at the input boundary: non-finite values, values of the
wrong JSON type and a zero path count all end in exit code 2 with a
message naming the problem, never in a traceback.  ``simulate_paths``
rejects a bad horizon, confidence or weight vector before drawing.  A
hypothesis fuzz test drives the CLI with malformed and NaN/inf model files
and checks the exit-code contract (0 ok, 1 negative verdict, 2 bad input,
3 numerical failure)."""

import contextlib
import copy
import io
import json
import math
import os
import re
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import PairRelation, epsilon_delta_bisim, fixtures, load_model, simulate_paths, validate
from ctmcbisim.model import model_from_dict
from ctmcbisim.cli import main
from ctmcbisim.errors import NonFiniteValue


def _document():
    """Three-state rewarded chain file that every subcommand below accepts."""
    return {
        "states": [
            {"id": "s0", "labels": [], "exit_rate": 1.0, "reward": 1.0},
            {"id": "s1", "labels": ["a"], "exit_rate": 1.0, "reward": 0.5},
            {"id": "g", "labels": ["g"], "exit_rate": 1.0, "reward": 1.0},
        ],
        "transitions": [
            {"from": "s0", "to": "s1", "prob": 0.5},
            {"from": "s0", "to": "g", "prob": 0.5},
            {"from": "s1", "to": "g", "prob": 1.0},
            {"from": "g", "to": "g", "prob": 1.0},
        ],
        "initial": "s0",
        "goal": ["g"],
    }


def _nan_prob(d):
    d["transitions"][0]["prob"] = math.nan


def _inf_rate(d):
    d["states"][1]["exit_rate"] = math.inf


def _nan_reward(d):
    d["states"][1]["reward"] = math.nan


def _write(path, doc):
    path.write_text(json.dumps(doc))  # NaN and Infinity are written as such
    return str(path)


def _run(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


# ------------------------------------------------------------ non-finite values


@pytest.mark.parametrize("spoil, field", [
    (_nan_prob, "P[0,1]=nan"),
    (_inf_rate, "E[1]=inf"),
    (_nan_reward, "rewards[1]=nan"),
])
def test_validate_rejects_non_finite_values(tmp_path, spoil, field):
    doc = _document()
    spoil(doc)
    with pytest.raises(NonFiniteValue, match=rf"^{re.escape(field)} is not finite"):
        validate(model_from_dict(doc))
    with pytest.raises(NonFiniteValue):
        load_model(_write(tmp_path / "m.json", doc))


@pytest.mark.parametrize("spoil, argv", [
    (_nan_prob, ["bounds", "--delta", "0.1"]),
    (_nan_prob, ["simulate", "--t", "1", "--paths", "50"]),
    (_nan_prob, ["check-bisim"]),
    (_inf_rate, ["simulate", "--t", "1", "--paths", "50"]),
    (_nan_reward, ["check-bisim"]),
])
def test_cli_rejects_non_finite_values(capsys, tmp_path, spoil, argv):
    doc = _document()
    spoil(doc)
    rc, out, err = _run(capsys, [argv[0], "-m", _write(tmp_path / "m.json", doc), *argv[1:]])
    assert (rc, out) == (2, "")
    assert err.startswith("NonFiniteValue:")


# ------------------------------------------------------------ malformed JSON


def _set(key, value, state=None, transition=None):
    def spoil(d):
        target = d if state is None else d["states"][state]
        (target if transition is None else d["transitions"][transition])[key] = value
        return d

    return spoil


def _no_prob(d):
    del d["transitions"][1]["prob"]
    return d


MALFORMED = {
    "states is a number": (_set("states", 5), "states must be list"),
    "top-level list": (lambda d: [d], "model must be dict"),
    "labels is a number": (_set("labels", 3, state=0), "states[0].labels must be list"),
    "transitions is null": (_set("transitions", None), "transitions must be list"),
    "initial is a list": (_set("initial", ["a"]), "initial must be str"),
    "transition entry is a list": (_set("transitions", [["s0", "g", 1.0]]), "transitions: each entry"),
    "exit rate overflows": (_set("exit_rate", "exp(1000)", state=1), "states[1].exit_rate 'exp(1000)'"),
    "exit rate is true": (_set("exit_rate", True, state=0), "states[0].exit_rate must be int or float, got True"),
    "reward is false": (_set("reward", False, state=1), "states[1].reward must be int or float, got False"),
    "states is empty": (_set("states", []), "states must hold at least one state"),
    "transition from an unknown id": (_set("from", "zz", transition=0), "transitions[0].from: unknown state id 'zz'"),
    "transition to an unknown id": (_set("to", "zz", transition=2), "transitions[2].to: unknown state id 'zz'"),
    "transition without prob": (_no_prob, "transitions: each entry"),
    "prob is a string": (_set("prob", "0.5", transition=0), "transitions: each entry"),
    "prob is true": (_set("prob", True, transition=3), "transitions: each entry"),
    "initial is unknown": (_set("initial", "zz"), "initial: unknown state id 'zz'"),
    "goal is unknown": (_set("goal", ["g", "zz"]), "goal: unknown state id 'zz'"),
    "fail is unknown": (_set("fail", ["zz"]), "fail: unknown state id 'zz'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_model_from_dict_names_the_malformed_field(case):
    spoil, message = MALFORMED[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        model_from_dict(spoil(_document()))


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("argv", [
    ["check-bisim"],
    ["bounds", "--delta", "0.1"],
    ["reward-reach", "--bound", "1"],
    ["spectral-report"],
    ["pn"],
    ["simulate", "--t", "1"],
])
def test_cli_rejects_malformed_model_file(capsys, tmp_path, case, argv):
    path = _write(tmp_path / "m.json", MALFORMED[case][0](_document()))
    rc, out, err = _run(capsys, [argv[0], "-m", path, *argv[1:]])
    assert (rc, out) == (2, "")
    assert err.startswith("ValueError:")


def test_cli_rejects_malformed_second_model(capsys, tmp_path):
    good = _write(tmp_path / "a.json", _document())
    bad = _write(tmp_path / "b.json", {"states": 5})
    rc, _, err = _run(capsys, ["pair-uniformize", "-m", good, "--model-b", bad, "--delta", "0.1"])
    assert rc == 2 and err.startswith("ValueError: states must be list")


# ------------------------------------------------------------ path count


@pytest.mark.parametrize("paths", [0, -3])
def test_simulate_paths_needs_a_path(paths):
    with pytest.raises(ValueError, match="at least one path"):
        simulate_paths(fixtures.branch_merge_chain(), paths, 1.0, 0)


def test_cli_simulate_zero_paths(capsys, tmp_path):
    path = _write(tmp_path / "m.json", _document())
    rc, out, err = _run(capsys, ["simulate", "-m", path, "--t", "1", "--paths", "0"])
    assert (rc, out) == (2, "")
    assert err.startswith("usage: ctmcbisim simulate") and "argument --paths: must be an integer >= 1" in err


_WEIGHTS = np.ones(fixtures.branch_merge_chain().n)


@pytest.mark.parametrize(
    "argument, value",
    [
        ("budget_weights", _WEIGHTS[:-1]),
        ("budget_weights", np.ones(len(_WEIGHTS) + 1)),
        ("budget_weights", _WEIGHTS[:, None]),
        ("budget_weights", np.r_[_WEIGHTS[:-1], -1.0]),
        ("budget_weights", np.r_[_WEIGHTS[:-1], math.nan]),
        ("budget_weights", np.r_[_WEIGHTS[:-1], math.inf]),
        ("horizon", -1.0),
        ("horizon", math.nan),
        ("horizon", math.inf),
        ("confidence", 0.0),
        ("confidence", 1.0),
        ("confidence", math.nan),
    ],
    ids=["weights-short", "weights-long", "weights-2d", "weights-negative", "weights-nan",
         "weights-inf", "horizon-negative", "horizon-nan", "horizon-inf", "confidence-0",
         "confidence-1", "confidence-nan"],
)
def test_simulate_paths_rejects_bad_arguments_before_drawing(argument, value):
    kwargs = {"horizon": 1.0, argument: value}
    with mock.patch("numpy.random.default_rng", side_effect=AssertionError("drew before checking")):
        with pytest.raises(ValueError, match=f"^{argument} must"):
            simulate_paths(fixtures.branch_merge_chain(), 100, seed=0, **kwargs)


@pytest.mark.parametrize(
    "argument, value",
    [("n", 2.5), ("n", True), ("seed", -1), ("max_jumps", 0), ("max_jumps", -3)],
    ids=["n-float", "n-bool", "seed-negative", "max-jumps-0", "max-jumps-negative"],
)
def test_simulate_paths_rejects_bad_counts_before_drawing(argument, value):
    kwargs = {"n": 100, "horizon": 1.0, "seed": 0, argument: value}
    with mock.patch("numpy.random.default_rng", side_effect=AssertionError("drew before checking")):
        with pytest.raises(ValueError, match=f"^{argument} must be an integer >= "):
            simulate_paths(fixtures.branch_merge_chain(), **kwargs)


def test_simulate_paths_takes_numpy_integers():
    M = fixtures.branch_merge_chain()
    got = simulate_paths(M, np.int64(50), 1.0, np.uint32(3), max_jumps=np.int32(1_000))
    assert got == simulate_paths(M, 50, 1.0, 3, max_jumps=1_000)


def test_non_finite_poisson_mean(capsys, tmp_path):
    # a reward this small turns exit rate 1 into an infinite clock-rescaled rate
    doc = _document()
    doc["states"][1]["reward"] = 5e-324
    rc, _, err = _run(capsys, ["reward-reach", "-m", _write(tmp_path / "m.json", doc), "--bound", "1"])
    assert rc == 2 and err.startswith("ValueError: mu must be finite")


def test_non_finite_poisson_mean_raises_no_warning(capsys, tmp_path):
    # the overflowing rate is reported once, as the error, with no numpy
    # warning before it
    doc = _document()
    doc["states"][1]["reward"] = 5e-324
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = _run(capsys, ["reward-reach", "-m", _write(tmp_path / "m.json", doc), "--bound", "1"])
    assert (rc, out) == (2, "")
    assert err.startswith("ValueError: mu must be finite") and err.count("\n") == 1


# ------------------------------------------------------------ fuzz

_ODD_VALUES = (
    None, True, 0, -1, 2, 0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324, 10**400,
    "", "s0", "g", "exp(1000)", "exp(0.5)", [], {}, ["g"], [1], {"a": 1},
)
_FIELDS = {
    "model": ("states", "transitions", "initial", "goal", "fail"),
    "states": ("id", "labels", "exit_rate", "reward"),
    "transitions": ("from", "to", "prob"),
}
_SPLITS = {1: (1.0,), 2: (0.5, 0.5), 3: (0.5, 0.25, 0.25)}


@st.composite
def model_documents(draw):
    """A valid chain file of two to four states (uniform rates in most
    draws, so that ``bounds`` gets past its rate check), then up to two
    edits: a field set to an odd JSON value or deleted, or the whole
    document replaced."""
    n = draw(st.integers(2, 4))
    ids = [f"s{i}" for i in range(n - 1)] + ["g"]
    rates = st.sampled_from((0.5, 1.0, 2.0))
    uniform = draw(st.integers(0, 3)) > 0
    rate = draw(rates)
    states = [
        {
            "id": sid,
            "labels": ["g"] if sid == "g" else draw(st.sampled_from(([], ["a"]))),
            "exit_rate": rate if uniform else draw(rates),
            "reward": 1.0 if i == 0 else draw(st.sampled_from((0.0, 0.5, 1.0))),
        }
        for i, sid in enumerate(ids)
    ]
    transitions = [{"from": "g", "to": "g", "prob": 1.0}]
    for i, sid in enumerate(ids[:-1]):
        targets = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True))
        if ids[i + 1] not in targets:
            targets[-1] = ids[i + 1]
            targets = list(dict.fromkeys(targets))
        transitions += [{"from": sid, "to": t, "prob": p} for t, p in zip(targets, _SPLITS[len(targets)])]
    doc = {"states": states, "transitions": transitions, "initial": "s0", "goal": ["g"]}

    for _ in range(draw(st.integers(0, 2))):
        value = copy.deepcopy(draw(st.sampled_from(_ODD_VALUES)))
        where = draw(st.sampled_from(("document", *_FIELDS)))
        if where == "document" or not isinstance(doc, dict):
            doc = value
            continue
        target = doc
        if where != "model":
            items = doc.get(where)
            if not isinstance(items, list) or not items or not all(isinstance(x, dict) for x in items):
                continue
            target = items[draw(st.integers(0, len(items) - 1))]
        key = draw(st.sampled_from(_FIELDS[where]))
        if draw(st.integers(0, 4)) == 0:
            target.pop(key, None)
        else:
            target[key] = value
    return doc


_FUZZ_COMMANDS = (
    ["check-bisim", "--eps", "0.1"],
    ["bounds", "--delta", "0.1", "--tmax", "2", "--steps", "4",
     "--which", "exact,unif,erlangN,markov,spectral,combined"],
    ["simulate", "--t", "1", "--paths", "50"],
    ["reward-reach", "--bound", "1", "--eps", "0.1"],
)


@settings(max_examples=120, deadline=None)
@given(doc=model_documents())
def test_cli_fuzz_keeps_the_exit_code_contract(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in _FUZZ_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main([argv[0], "-m", path, *argv[1:]])  # an escaping exception fails the test
            assert rc in (0, 1, 2, 3), (argv[0], rc)
            assert "Traceback" not in err.getvalue()



# odd option values: NaN, infinities, negatives, zero, overflow, junk
_ODD_OPTIONS = st.sampled_from(("nan", "inf", "-inf", "-3", "-0.5", "0", "0.5", "1", "2", "30", "1e400", "abc"))


@settings(max_examples=60, deadline=None)
@given(doc=model_documents(), values=st.lists(_ODD_OPTIONS, min_size=7, max_size=7))
def test_cli_fuzz_of_the_other_subcommands_keeps_the_exit_code_contract(doc, values):
    theta, q, t, samples, steps, tol, delta = values
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in (
            ["pareto", "--theta", theta, "--q", q, "--t", t, "--samples", samples],
            ["pn", "-m", path, "--steps", steps, "--tol", tol],
            ["spectral-report", "-m", path, "--tol", tol],
            ["pair-uniformize", "-m", path, "--model-b", path, "--delta", delta],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)  # an escaping exception fails the test
            assert rc in (0, 1, 2, 3), (argv, rc)
            assert "Traceback" not in err.getvalue()


# ------------------------------------------------------------ relation files


@pytest.mark.parametrize("relation, message", [
    ([1], "relation must be dict"),
    ({"pairs": 5}, "pairs must be list"),
    ({"pairs": [], "eps": None}, "eps must be int or float"),
    ({"pairs": [], "delta": [1]}, "delta must be int or float"),
    ({"pairs": [], "eps": True, "delta": False}, "eps must be int or float, got True"),
    ({"pairs": [], "delta": False}, "delta must be int or float, got False"),
])
def test_cli_rejects_malformed_relation_file(capsys, tmp_path, relation, message):
    model = _write(tmp_path / "m.json", _document())
    rel = _write(tmp_path / "r.json", relation)
    rc, out, err = _run(capsys, ["pair-uniformize", "-m", model, "--model-b", model,
                                 "--delta", "0.1", "--relation", rel])
    assert (rc, out) == (2, "")
    assert err.startswith(f"ValueError: {message}")


# ------------------------------------------------------------ relation tolerances

BAD_TOLERANCES = [
    (math.inf, 0.0, "eps"),
    (0.0, -1.0, "delta"),
    (-0.5, 0.0, "eps"),
    (0.0, math.nan, "delta"),
]


@pytest.mark.parametrize("eps, delta, field", BAD_TOLERANCES)
def test_relations_reject_a_bad_tolerance(eps, delta, field):
    M = fixtures.branch_merge_chain()
    message = f"^{field} must be a finite number >= 0"
    with pytest.raises(ValueError, match=message):
        epsilon_delta_bisim(M, eps, delta)
    # nor can a relation with such a tolerance reach is_bisimulation
    with pytest.raises(ValueError, match=message):
        PairRelation.from_off_diagonal([], M.n, eps, delta)


@pytest.mark.parametrize("eps, delta, field", BAD_TOLERANCES)
def test_cli_rejects_a_bad_relation_tolerance(capsys, tmp_path, eps, delta, field):
    model = _write(tmp_path / "m.json", _document())
    rel = _write(tmp_path / "r.json", {"pairs": [], "eps": eps, "delta": delta})
    rc, out, err = _run(capsys, ["pair-uniformize", "-m", model, "--model-b", model,
                                 "--delta", "0.1", "--relation", rel])
    assert (rc, out) == (2, "")
    assert err.startswith(f"ValueError: {field} must be a finite number >= 0")
    rc, out, err = _run(capsys, ["check-bisim", "-m", model, "--eps", str(eps), "--delta", str(delta)])
    assert (rc, out) == (2, "")
    assert f"argument --{field}: must be a finite number >= 0" in err


# ------------------------------------------------------------ probabilities outside [0, 1]


def test_cli_prints_a_probability_outside_the_unit_interval_as_a_float(capsys, tmp_path):
    doc = _document()
    doc["transitions"][:2] = [
        {"from": "s0", "to": "s0", "prob": -0.5},
        {"from": "s0", "to": "g", "prob": 1.5},
    ]
    rc, out, err = _run(capsys, ["spectral-report", "-m", _write(tmp_path / "m.json", doc)])
    assert (rc, out) == (2, "")
    assert err.startswith("CtmcError: probability P[0,0]=-0.5 outside [0,1]")
