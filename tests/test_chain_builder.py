"""One chain builder: model files are built and checked by ``make_ctmc``.

``model_from_dict`` keeps only the JSON type checks and the ``"exp(x)"``
rate parsing and hands rows and a stream of transitions to the builder
of ``make_ctmc``; ``load_model`` opens the file and calls it.  The functions
below are the earlier builders, copied verbatim: ``model_from_dict``
built its own chain and ``load_model`` validated it.  On documents drawn
from the ``helpers`` chains, with ``exp(x)`` rates, partial rewards,
repeated transitions and up to two spoiled fields, the library must
return the same chain, raise the same error or exit with the same code,
but for the inputs that the library now rejects with a ValueError naming
the field (:func:`_assert_rescoped`): a string or boolean ``prob``, which
the earlier builders read with ``float``, and an unknown state id, a
transition entry without a field and an empty ``states`` list, on which
they raised a bare ``KeyError`` or an unpacking ``ValueError``.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import tempfile
from dataclasses import replace
from typing import Iterable, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import Ctmc, cli, model
from ctmcbisim.model import _expect, _names, _number, _parse_rate, model_to_dict, validate

from helpers import random_dag_chain, random_labeled_chain, random_rewarded_chain, random_uniform_chain

# ---------------------------------------------------------------- oracles


def make_ctmc(
    states: Sequence[tuple],
    transitions: Iterable[tuple[str, str, float]],
    initial: str,
    goal: Sequence[str] = (),
    fail: Sequence[str] = (),
) -> Ctmc:
    """Build a chain from readable pieces.

    ``states`` holds ``(id, labels, exit_rate)`` or
    ``(id, labels, exit_rate, reward)`` tuples; ``transitions`` holds
    ``(from_id, to_id, prob)``.  Omitted transitions are zero.  The chain
    gets the checks of :func:`load_model`: goal and fail states are not
    checked, everything else is.
    """
    ids = tuple(s[0] for s in states)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate state ids")
    idx = {sid: i for i, sid in enumerate(ids)}
    labels = tuple(tuple(s[1]) for s in states)
    E = np.array([float(s[2]) for s in states], dtype=float)
    has_rewards = any(len(s) > 3 for s in states)
    rewards = None
    if has_rewards:
        rewards = np.array([float(s[3]) if len(s) > 3 else 0.0 for s in states])
    n = len(ids)
    P = np.zeros((n, n))
    for frm, to, p in transitions:
        P[idx[frm], idx[to]] += float(p)
    M = Ctmc(
        ids=ids,
        labels=labels,
        P=P,
        E=E,
        initial=idx[initial],
        goal=tuple(idx[g] for g in goal),
        fail=tuple(idx[f] for f in fail),
        rewards=rewards,
    )
    validate(replace(M, goal=(), fail=()))
    return M


def model_from_dict(d: dict) -> Ctmc:
    """Chain from the parsed JSON model format; a value of the wrong JSON
    type raises ValueError naming its field."""
    states = _expect(_expect(d, dict, "model").get("states"), list, "states")
    for k, s in enumerate(states):
        _expect(s, dict, f"states[{k}]")
        _expect(s.get("id"), str, f"states[{k}].id")
        _names(s.get("labels"), f"states[{k}].labels")
    ids = tuple(s["id"] for s in states)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate state ids")
    idx = {sid: i for i, sid in enumerate(ids)}
    labels = tuple(tuple(s["labels"]) for s in states)
    rates, exprs = zip(
        *(_parse_rate(s.get("exit_rate"), f"states[{k}].exit_rate") for k, s in enumerate(states))
    )
    has_rewards = any("reward" in s for s in states)
    rewards = None
    if has_rewards:
        rewards = np.array(
            [_number(s.get("reward", 0.0), f"states[{k}].reward") for k, s in enumerate(states)]
        )
    n = len(ids)
    P = np.zeros((n, n))
    try:
        for tr in _expect(d.get("transitions", []), list, "transitions"):
            P[idx[tr["from"]], idx[tr["to"]]] += float(tr["prob"])
    except (TypeError, OverflowError):
        raise ValueError(
            "transitions: each entry must be an object with string 'from' and 'to' and a numeric 'prob'"
        ) from None
    return Ctmc(
        ids=ids,
        labels=labels,
        P=P,
        E=np.array(rates, dtype=float),
        initial=idx[_expect(d.get("initial"), str, "initial")],
        goal=tuple(idx[g] for g in _names(d.get("goal", []), "goal")),
        fail=tuple(idx[f] for f in _names(d.get("fail", []), "fail")),
        rewards=rewards,
        rate_exprs=exprs if any(e is not None for e in exprs) else None,
    )


def load_model(path: str) -> Ctmc:
    """Read a chain file, checking row sums, probabilities and rates.

    Goal and fail states are not checked here: :func:`normalize_goal`
    repairs a goal that is not absorbing or not uniquely labeled.
    """
    with open(path, "r", encoding="utf-8") as fh:
        M = model_from_dict(json.load(fh))
    validate(replace(M, goal=(), fail=()))
    return M


#: the library's error for a transition entry that is not an object with
#: ids and a numeric probability
BAD_ENTRY = "transitions: each entry must be an object with string 'from' and 'to' and a numeric 'prob'"


def _text_or_bool_prob(doc) -> bool:
    """Whether a transition entry of ``doc`` has a string or boolean 'prob'."""
    transitions = doc.get("transitions") if isinstance(doc, dict) else None
    return isinstance(transitions, list) and any(
        isinstance(tr, dict) and isinstance(tr.get("prob"), (str, bool)) for tr in transitions
    )


def rescoped_load_model(path: str) -> Ctmc:
    """:func:`load_model`, but a string or boolean 'prob' is rejected."""
    with open(path, encoding="utf-8") as fh:
        if _text_or_bool_prob(json.load(fh)):
            raise ValueError(BAD_ENTRY)
    return load_model(path)


# ---------------------------------------------------------------- inputs

FAMILIES = {
    "uniform": random_uniform_chain,
    "dag": random_dag_chain,
    "labeled": random_labeled_chain,
    "rewarded": random_rewarded_chain,
}
_EXPONENTS = ("0", "0.5", "-1.25", "1e-3", " 2 ", "+0.75")
_REWARDS = (0, 0.0, 0.5, 1, 2.0)
_ODD_VALUES = (
    None, True, 0, -1, 0.0, -1.0, math.nan, math.inf, 5e-324, 10**400,
    "", "s0", "g", "0.5", "exp(1000)", "exp(x)", [], {}, ["g"], [1], {"a": 1},
)
_FIELDS = {
    "model": ("states", "transitions", "initial", "goal", "fail"),
    "states": ("id", "labels", "exit_rate", "reward"),
    "transitions": ("from", "to", "prob"),
}


def _chains():
    return st.builds(
        lambda family, seed: FAMILIES[family](np.random.default_rng(seed)),
        st.sampled_from(sorted(FAMILIES)),
        st.integers(0, 10_000),
    )


@st.composite
def documents(draw, spoiled: int = 0):
    """A valid model file from a ``helpers`` chain: some rates written as
    ``exp(x)``, rewards on some states only, transitions repeated (their
    mass split in two) and shuffled, drawn initial, goal and fail states;
    then ``spoiled`` edits, each setting one field to an odd JSON value
    or deleting it."""
    d = model_to_dict(draw(_chains()))
    ids = [s["id"] for s in d["states"]]
    for s in d["states"]:
        if draw(st.integers(0, 3)) == 0:
            s["exit_rate"] = f"exp({draw(st.sampled_from(_EXPONENTS))})"
        if draw(st.integers(0, 3)) == 0:
            s.pop("reward", None)
        elif draw(st.integers(0, 5)) == 0:
            s["reward"] = draw(st.sampled_from(_REWARDS))
    transitions = []
    for tr in d["transitions"]:
        if draw(st.integers(0, 3)) == 0:
            half = tr["prob"] / 2
            transitions += [{**tr, "prob": half}, {**tr, "prob": tr["prob"] - half}]
        else:
            transitions.append(tr)
    d["transitions"] = draw(st.permutations(transitions))
    d["initial"] = draw(st.sampled_from(ids))
    d["goal"] = draw(st.lists(st.sampled_from(ids), max_size=2))
    d["fail"] = draw(st.lists(st.sampled_from(ids), max_size=2))

    for _ in range(spoiled):
        value = copy.deepcopy(draw(st.sampled_from(_ODD_VALUES)))
        where = draw(st.sampled_from((*_FIELDS, "document")))
        if where == "document" or not isinstance(d, dict):
            d = value
            continue
        target = d
        if where != "model":
            items = d.get(where)
            if not isinstance(items, list) or not items or not all(isinstance(x, dict) for x in items):
                continue
            target = items[draw(st.integers(0, len(items) - 1))]
        key = draw(st.sampled_from(_FIELDS[where]))
        if draw(st.integers(0, 4)) == 0:
            target.pop(key, None)
        else:
            target[key] = value
    return d


@st.composite
def pieces(draw):
    """``make_ctmc`` arguments from a ``helpers`` chain: rewards on some
    states only, repeated transitions, and at most one bad entry."""
    M = draw(_chains())
    states = []
    for i in range(M.n):
        row = (M.ids[i], M.labels[i], float(M.E[i]))
        if M.rewards is not None and draw(st.integers(0, 3)) > 0:
            row += (float(M.rewards[i]),)
        states.append(row)
    transitions = [(M.ids[i], M.ids[j], float(M.P[i, j])) for i, j in zip(*np.nonzero(M.P))]
    transitions += draw(st.lists(st.sampled_from(transitions), max_size=2))
    goal = [M.ids[g] for g in M.goal]
    fail = [M.ids[f] for f in M.fail]
    bad = draw(st.sampled_from(("none", "duplicate id", "unknown id", "negative prob", "rate")))
    if bad == "duplicate id":
        states[-1] = (states[0][0],) + states[-1][1:]
    elif bad == "unknown id":
        transitions.append(("nowhere", M.ids[0], 0.0))
    elif bad == "negative prob":
        transitions.append((M.ids[0], M.ids[0], -0.25))
    elif bad == "rate":
        states[0] = states[0][:2] + (0.0,) + states[0][3:]
    return states, transitions, M.ids[M.initial], goal, fail


# ---------------------------------------------------------------- comparison


def _run(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # compared below
        return e


def _assert_same(new, old):
    if isinstance(old, Exception):
        assert isinstance(new, Exception), f"expected {old!r}, got a chain"
        assert (type(new), str(new)) == (type(old), str(old))
        return
    assert isinstance(new, Ctmc), f"expected a chain, got {new!r}"
    for name in ("P", "E", "rewards"):
        a, b = getattr(new, name), getattr(old, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for name in ("ids", "labels", "initial", "goal", "fail", "rate_exprs"):
        assert getattr(new, name) == getattr(old, name), name


def _assert_rescoped(new, old, doc):
    """:func:`_assert_same`, where the earlier builders' outcome on ``doc``
    is re-scoped to the errors that the library now raises instead: the
    error of a bad entry for a string or boolean 'prob' (with one spoiled
    field, the only fault), a ValueError naming the unknown state id of a
    bare ``KeyError`` or the missing field of an entry, and a ValueError
    on the empty ``states`` list of an unpacking error."""
    if _text_or_bool_prob(doc):
        old = ValueError(BAD_ENTRY)
    elif isinstance(old, KeyError):
        (key,) = old.args
        assert type(new) is ValueError, f"expected a ValueError for {old!r}, got {new!r}"
        missing_field = key in _FIELDS["transitions"] and str(new) == BAD_ENTRY
        assert missing_field or str(new).endswith(f": unknown state id {key!r}"), (new, old)
        return
    elif isinstance(old, ValueError) and str(old).startswith("not enough values to unpack"):
        old = ValueError("states must hold at least one state")
    _assert_same(new, old)


@contextlib.contextmanager
def _model_file(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        yield path


def _loaded(doc):
    """The library's ``model_from_dict`` and ``load_model`` outcomes on
    ``doc`` and the earlier ``load_model``'s."""
    with _model_file(doc) as path:
        old = _run(load_model, path)
        return _run(model.model_from_dict, doc), _run(model.load_model, path), old


# ---------------------------------------------------------------- tests


@settings(max_examples=60, deadline=None)
@given(doc=documents())
def test_valid_documents_build_the_same_chain(doc):
    from_dict, loaded, old = _loaded(doc)
    assert isinstance(old, Ctmc), old
    _assert_same(from_dict, old)
    _assert_same(loaded, old)


@settings(max_examples=100, deadline=None)
@given(doc=documents(spoiled=1))
def test_one_spoiled_field_raises_the_same_error(doc):
    from_dict, loaded, old = _loaded(doc)
    _assert_rescoped(from_dict, old, doc)
    _assert_rescoped(loaded, old, doc)


@settings(max_examples=40, deadline=None)
@given(doc=documents(spoiled=2))
def test_two_spoiled_fields_exit_with_the_same_code(doc):
    with _model_file(doc) as path:
        codes = []
        for loader in (model.load_model, rescoped_load_model):
            with mock.patch.object(cli, "load_model", loader), contextlib.redirect_stdout(
                io.StringIO()
            ), contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(["check-bisim", "-m", path, "--eps", "0.1"]))
    assert codes[0] == codes[1]


@settings(max_examples=50, deadline=None)
@given(args=pieces())
def test_make_ctmc_is_unchanged(args):
    _assert_same(_run(model.make_ctmc, *args), _run(make_ctmc, *args))


def test_transitions_are_streamed():
    doc = model_to_dict(random_uniform_chain(np.random.default_rng(0), n=4))
    seen = []

    class Entries(list):
        def __iter__(self):
            for tr in list.__iter__(self):
                seen.append(tr)
                yield tr

    first = len(doc["transitions"])
    doc["transitions"] = Entries(doc["transitions"] + [{"from": "s0", "to": "nowhere", "prob": 0.0}] * 3)
    with pytest.raises(ValueError, match=rf"^transitions\[{first}\]\.to: unknown state id 'nowhere'$"):
        model.model_from_dict(doc)
    # the first unknown id stops the build: no list of all entries is made first
    assert len(seen) == len(doc["transitions"]) - 2
