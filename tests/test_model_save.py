"""``save_model`` writes the text of ``dumps_model``, byte for byte.

``save_model`` streams the writer's chunks into the file instead of joining
the whole text first; the chains drawn here carry rewards, ``exp()`` rate
expressions, and ids and labels that the JSON text must escape.  Both read
one writer, so ``tests/test_model_text.py`` holds them to the text of
``json.dumps(model_to_dict(M), indent=2)``."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim.model import dumps_model, model_from_dict, save_model

# ids and labels with quotes, backslashes, control and non-ASCII characters,
# which the JSON text must escape
_NAMES = st.text(st.one_of(st.sampled_from('"\\\n\t/\u00e9\u2603'), st.characters(codec="utf-8")), max_size=5)


@st.composite
def _written_chains(draw):
    ids = draw(st.lists(_NAMES.filter(bool), min_size=2, max_size=6, unique=True))
    n = len(ids)
    rate = st.one_of(st.floats(1e-3, 1e3), st.integers(-8, 8).map(lambda k: f"exp({k / 4})"))
    reward = draw(st.one_of(st.none(), st.just(st.floats(0.0, 5.0))))
    states = [
        {"id": i, "labels": draw(st.lists(_NAMES, max_size=2)), "exit_rate": draw(rate)}
        | ({} if reward is None else {"reward": draw(reward)})
        for i in ids
    ]
    transitions = []
    for k, i in enumerate(ids):
        w = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        w[(k + 1) % n] += 1
        transitions += [{"from": i, "to": j, "prob": p} for j, p in zip(ids, (w / w.sum()).tolist()) if p > 0.0]
    return model_from_dict({"states": states, "transitions": transitions, "initial": ids[0]})


@settings(max_examples=60, deadline=None)
@given(M=_written_chains())
def test_save_model_writes_the_text_of_dumps_model(M):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "model.json"
        save_model(M, str(path))
        assert path.read_bytes() == dumps_model(M).encode("utf-8")
