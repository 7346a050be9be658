"""The model writer writes the text of ``json.dumps(model_to_dict(M), indent=2)``.

``save_model`` and ``dumps_model`` both read the one template writer,
``model._model_chunks``, so neither can stand as the other's oracle; the
text that ``json`` itself makes of ``model_to_dict`` is kept here as the
reference.  The chains carry ids and labels that the text must escape,
``exp()`` rates, rewards, goal and fail lists, non-finite numbers in
chains that were never validated, and more rows than one block of
transitions holds."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import fixtures, graph
from ctmcbisim.cli import _json
from ctmcbisim.model import Ctmc, dumps_model, model_from_dict, model_to_dict, save_model

from helpers import random_labeled_chain, random_rewarded_chain

# ids and labels with quotes, backslashes, control and non-ASCII characters
_NAMES = st.text(
    st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7f/é☃\U0001f600'), st.characters(codec="utf-8")),
    max_size=5,
)


def _oracle(M: Ctmc) -> str:
    return json.dumps(model_to_dict(M), indent=2) + "\n"


def _written(M: Ctmc) -> tuple[str, bytes]:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "model.json"
        save_model(M, str(path))
        return dumps_model(M), path.read_bytes()


def _assert_writes_the_oracle(M: Ctmc) -> None:
    text, saved = _written(M)
    expect = _oracle(M)
    assert text == expect
    assert saved == expect.encode("utf-8")


@st.composite
def _file_chains(draw):
    ids = draw(st.lists(_NAMES.filter(bool), min_size=1, max_size=6, unique=True))
    n = len(ids)
    rate = st.one_of(
        st.floats(1e-300, 1e300), st.sampled_from((0.1, 1 / 3, 2.0, 1e-7, 123456789.125)),
        st.integers(-8, 8).map(lambda k: f"exp({k / 4})"), st.just("exp( 1e-3 )"),
    )
    reward = draw(st.one_of(st.none(), st.just(st.floats(0.0, 1e6))))
    states = [
        {"id": i, "labels": draw(st.lists(_NAMES, max_size=3)), "exit_rate": draw(rate)}
        | ({} if reward is None else {"reward": draw(reward)})
        for i in ids
    ]
    transitions = []
    for k, i in enumerate(ids):
        w = np.array(draw(st.lists(st.integers(0, 7), min_size=n, max_size=n)), dtype=float)
        w[(k + 1) % n] += 1
        transitions += [{"from": i, "to": j, "prob": p} for j, p in zip(ids, (w / w.sum()).tolist()) if p > 0.0]
    return model_from_dict({
        "states": states,
        "transitions": transitions,
        "initial": draw(st.sampled_from(ids)),
        "goal": draw(st.lists(st.sampled_from(ids), max_size=3)),
        "fail": draw(st.lists(st.sampled_from(ids), max_size=2)),
    })


@settings(max_examples=80, deadline=None)
@given(M=_file_chains(), block_cells=st.sampled_from((1, 3, graph.BLOCK_CELLS)))
def test_saved_and_dumped_text_is_json_of_model_to_dict(M, block_cells):
    # a small block size splits these chains into a block per row or so
    with mock.patch.object(graph, "BLOCK_CELLS", block_cells):
        _assert_writes_the_oracle(M)


def _unvalidated(draw, n: int, number) -> Ctmc:
    return Ctmc(
        ids=tuple(f"s{i}" for i in range(n)),
        labels=tuple(tuple(draw(st.lists(_NAMES, max_size=2))) for _ in range(n)),
        P=np.array(draw(st.lists(number, min_size=n * n, max_size=n * n))).reshape(n, n),
        E=np.array(draw(st.lists(number, min_size=n, max_size=n))),
        initial=0,
        goal=tuple(draw(st.lists(st.integers(0, n - 1), max_size=2))),
        fail=tuple(draw(st.lists(st.integers(0, n - 1), max_size=2))),
        rewards=draw(st.one_of(st.none(), st.lists(number, min_size=n, max_size=n).map(np.array))),
    )


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 4))
def test_non_finite_numbers_are_spelled_as_json_spells_them(data, n):
    # Ctmc does not validate on construction, so any float can reach the writer
    number = st.one_of(st.floats(), st.sampled_from((np.inf, -np.inf, np.nan, -0.0, 0.0, 1.0)))
    M = _unvalidated(data.draw, n, number)
    with mock.patch.object(graph, "BLOCK_CELLS", data.draw(st.sampled_from((1, graph.BLOCK_CELLS)))):
        _assert_writes_the_oracle(M)


def test_no_positive_entry_writes_an_empty_transition_list():
    P = np.array([[0.0, -1.0], [np.nan, -np.inf]])
    M = Ctmc(ids=("a", "b"), labels=((), ("x",)), P=P, E=np.array([1.0, np.nan]), initial=1, goal=(0,))
    _assert_writes_the_oracle(M)
    assert '"transitions": [],' in dumps_model(M)


def test_chain_larger_than_one_block():
    # n = 600 puts 109 rows in a block; rows 0-199 hold no entry, so the
    # first block is empty and the second opens the list
    n = 600
    rng = np.random.default_rng(7)
    P = np.where(rng.random((n, n)) < 0.02, rng.random((n, n)), 0.0)
    P[:200] = 0.0
    P[200:, 0] += 1e-3
    P[200:] /= P[200:].sum(axis=1, keepdims=True)
    M = Ctmc(ids=tuple(f"s{i}" for i in range(n)), labels=((),) * n, P=P, E=np.exp(rng.normal(size=n)), initial=0)
    assert graph.BLOCK_CELLS // n < n
    _assert_writes_the_oracle(M)


def test_fixtures_and_helper_chains():
    for M in (fixtures.multi_sink_chain(), fixtures.rewarded_tandem(), fixtures.perturbed_loop_chain(0.1, 0.2),
              fixtures.branch_merge_chain()):
        _assert_writes_the_oracle(M)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        _assert_writes_the_oracle(random_labeled_chain(rng))
        _assert_writes_the_oracle(random_rewarded_chain(rng))


@settings(max_examples=40, deadline=None)
@given(M=_file_chains(), other=st.one_of(st.none(), st.floats(), _NAMES, st.lists(st.lists(_NAMES))))
def test_a_report_nests_the_model_text_as_json_would(M, other):
    # the CLI writes a chain among a report's values through the model writer
    report = {"q": 1.5, "model": M, "other": other, "empty": {}, "again": M}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _json(report, None)
    expect = {k: model_to_dict(v) if isinstance(v, Ctmc) else v for k, v in report.items()}
    assert out.getvalue() == json.dumps(expect, indent=2) + "\n"
