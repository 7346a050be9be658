"""``load_model`` reads a model file as ``model_from_dict(json.loads(text))`` does.

The reader reads the file a piece at a time, decodes the transitions
array a chunk at a time into the builder and walks the rest of the
document with json's own scanner; any text it does not walk falls back to
the whole-document route on the file read again.  On drawn chains written
as text (by ``save_model``, by ``bench/gen.py``'s ``write_model`` and by
``json.dumps``, with odd ids, permuted and repeated top-level keys, entries
with extra keys, trailing garbage, truncations and a leading BOM) it must
build the chain of that route or raise its error, with pieces and chunks
of 1, 7 and 64 characters, so that the files span many of them; so too on
CRLF and lone-CR line endings, on multi-byte ids that straddle the reads,
on a value that ends at a piece end and on a ``states`` array many pieces
long.  The files of the two writers must never take the fallback, and the
reader must hold less than half of what the whole document holds, and
less than a quarter of a sparse file with long ids.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcbisim import Ctmc, cli, model
from ctmcbisim.model import dumps_model, model_to_dict

from helpers import random_dag_chain, random_labeled_chain, random_rewarded_chain, random_uniform_chain

BENCH = Path(__file__).resolve().parents[1] / "bench"
CHUNKS = (1, 7, 64)
FAMILIES = {
    "uniform": random_uniform_chain,
    "dag": random_dag_chain,
    "labeled": random_labeled_chain,
    "rewarded": random_rewarded_chain,
}
# ids that hold what the reader cuts at or scans for
ODD_IDS = ("a},{b", "x} ,y", '"},{"from":"', 'q"', "back\\slash", "]", "[", "ünï", "😀", " ", "}")
EXTRA = {"meta": {"note": "},{", "nested": [{"}": [1, {"a": "},"}]}, []]}}
GARBAGE = (" x", "}", ",", "]", "{}", " \n", "\x00", '"')
ODD_VALUES = (None, True, -1, "1.0", "zz", [], {}, 1e400)


def _gen():
    """``bench/gen.py``, imported without leaving ``bench/`` on ``sys.path``."""
    saved = sys.path[:]
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("gen")
    finally:
        sys.path[:] = saved


def _gen_text(M: Ctmc) -> str:
    """The text ``gen.write_model`` writes for ``M``: states, initial, goal
    and fail, then the transitions."""
    chain = {name: getattr(M, name) for name in ("ids", "labels", "P", "E", "initial", "goal", "fail", "rewards")}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        _gen().write_model(chain, path)
        return Path(path).read_text(encoding="utf-8")


@st.composite
def chains(draw):
    """A ``helpers`` chain, its ids drawn from odd and arbitrary strings."""
    M = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))](np.random.default_rng(draw(st.integers(0, 10_000))))
    names = st.one_of(st.sampled_from(ODD_IDS), st.text(max_size=4))
    ids = draw(st.lists(names, min_size=M.n, max_size=M.n, unique=True))
    return replace(M, ids=tuple(ids))


@st.composite
def texts(draw):
    """A model text of a drawn chain, from one of the writers or from
    ``json.dumps`` of an edited document, then perhaps spoiled."""
    M = draw(chains())
    form = draw(st.sampled_from(("save", "gen", "dumps")))
    if form == "save":
        text = dumps_model(M)
    elif form == "gen":
        text = _gen_text(M)
    else:
        d = model_to_dict(M)
        for s in d["states"]:
            if draw(st.integers(0, 3)) == 0:
                s["exit_rate"] = "exp(0.5)"
        for tr in d["transitions"]:
            if draw(st.integers(0, 3)) == 0:
                tr.update(EXTRA)
        if draw(st.integers(0, 4)) == 0:
            tr = d["transitions"][draw(st.integers(0, len(d["transitions"]) - 1))]
            tr[draw(st.sampled_from(("from", "to", "prob")))] = draw(st.sampled_from(ODD_VALUES))
        keys = draw(st.permutations(list(d)))
        text = json.dumps({k: d[k] for k in keys}, indent=draw(st.sampled_from((None, 2))))
        if draw(st.integers(0, 3)) == 0:
            key = draw(st.sampled_from(keys))
            again = f"{json.dumps(key)}: {json.dumps(draw(st.sampled_from((d[key], *ODD_VALUES))))}"
            text = "{" + again + ", " + text[1:] if draw(st.booleans()) else text[:-1] + ", " + again + "}"
    spoil = draw(st.sampled_from(("none", "none", "garbage", "truncate", "bom")))
    if spoil == "garbage":
        text += draw(st.sampled_from(GARBAGE))
    elif spoil == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif spoil == "bom":
        text = "\ufeff" + text
    return text


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


def _whole(path: str) -> Ctmc:
    """The whole-document route on the text that the file reads back as."""
    return model.model_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@contextlib.contextmanager
def _model_file(text: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        yield path


@contextlib.contextmanager
def _whole_text_loads(path: str):
    """Collects the ``json.loads`` calls on the whole text of ``path``."""
    text = Path(path).read_text(encoding="utf-8")
    loads, calls = json.loads, []

    def counting(s, *args, **kwargs):
        if s == text:
            calls.append(len(s))
        return loads(s, *args, **kwargs)

    with mock.patch.object(json, "loads", counting):
        yield calls


# ---------------------------------------------------------------- oracle


@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=120, deadline=None)
@given(text=texts())
def test_the_reader_builds_what_the_whole_document_builds(chunk, text):
    with _model_file(text) as path, mock.patch.object(model, "_CHUNK_CHARS", chunk):
        _assert_same(_run(model.load_model, path), _run(_whole, path))


@settings(max_examples=60, deadline=None)
@given(text=texts())
def test_one_chunk_files_read_the_same(text):
    with _model_file(text) as path:
        _assert_same(_run(model.load_model, path), _run(_whole, path))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\ufeff{}",
        "[]",
        '{"states": [], "transitions": []}',
        '{"transitions": [], "states": []}',
        '{"states": [{"id": "s", "labels": [], "exit_rate": 1}], "initial": "s", '
        '"transitions": [{"from": "s", "to": "s", "prob": 1},]}',
        '{"states": [{"id": "s", "labels": [], "exit_rate": 1}], "transitions": [{"from": "s", "to": "s", "prob": 1}], '
        '"initial": "s"} x',
        '{"states": [{"id": "s", "labels": [], "exit_rate": 1}], "transitions": [{"from": "s", "to": "zz", "prob": 1}], '
        '"initial": "s"}',
        '{"states": [{"id": "s", "labels": [], "exit_rate": 1}], "transitions": [{"from": "s", "to": "s", "prob": 1}], '
        '"initial": 3}',
        '{"states": [{"id": "s", "labels": [], "exit_rate": 1}], "transitions": [{"from": "s", "to": "s", "prob": 1}, '
        '{"from": "s", "to": "s", "prob": 1}], "initial": "s"}',
        # the last states count, and the transitions name none of them
        '{"states": [{"id": "s", "labels": [], "exit_rate": 1}], "initial": "s", '
        '"transitions": [{"from": "s", "to": "s", "prob": 1}], "states": [{"id": "t", "labels": [], "exit_rate": 1}]}',
    ],
)
@pytest.mark.parametrize("chunk", (1, None))
def test_malformed_files_keep_their_error_and_exit_code(text, chunk):
    size = mock.patch.object(model, "_CHUNK_CHARS", chunk) if chunk else contextlib.nullcontext()
    with _model_file(text) as path, size:
        _assert_same(_run(model.load_model, path), _run(_whole, path))
        outputs = []
        for loader in (model.load_model, _whole):
            err = io.StringIO()
            with mock.patch.object(cli, "load_model", loader), contextlib.redirect_stdout(
                io.StringIO()
            ), contextlib.redirect_stderr(err):
                outputs.append((cli.main(["check-bisim", "-m", path, "--eps", "0.1"]), err.getvalue()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 2


# ---------------------------------------------------------------- gates


@pytest.mark.parametrize("chunk", (*CHUNKS, None))
@settings(max_examples=40, deadline=None)
@given(M=chains(), writer=st.sampled_from(("save", "gen")))
def test_the_writers_files_never_take_the_fallback(chunk, M, writer):
    text = dumps_model(M) if writer == "save" else _gen_text(M)
    size = mock.patch.object(model, "_CHUNK_CHARS", chunk) if chunk else contextlib.nullcontext()
    with _model_file(text) as path, size:
        with _whole_text_loads(path) as calls:
            loaded = model.load_model(path)
        assert calls == []
        _assert_same(loaded, _whole(path))


def test_a_malformed_file_takes_the_fallback_once():
    text = dumps_model(random_uniform_chain(np.random.default_rng(0), n=4))
    with _model_file(text + " x") as path, _whole_text_loads(path) as calls:
        with pytest.raises(json.JSONDecodeError, match="Extra data"):
            model.load_model(path)
    assert calls == [len(text) + 2]


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_reader_holds_less_than_half_the_whole_document(tmp_path):
    gen = _gen()
    path = str(tmp_path / "model.json")
    gen.write_model(gen.uniform_dense(np.random.default_rng(0), 400), path)
    assert os.path.getsize(path) > 6_000_000
    streamed = _peak(lambda: model.load_model(path))
    whole = _peak(lambda: _whole(path))
    assert streamed < whole / 2, (streamed, whole)


# ---------------------------------------------------------------- piece ends


def _chunked(chunk):
    return mock.patch.object(model, "_CHUNK_CHARS", chunk)


def _assert_streamed(path: str):
    """``load_model`` of ``path`` builds the chain of the whole-document
    route without taking the fallback."""
    with _whole_text_loads(path) as calls:
        loaded = model.load_model(path)
    assert calls == []
    _assert_same(loaded, _whole(path))


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("newline", ("\r\n", "\r"))
def test_crlf_and_lone_cr_line_endings_read_as_a_whole_read_does(chunk, newline):
    text = dumps_model(random_labeled_chain(np.random.default_rng(3), n=12))
    with _model_file(text.replace("\n", newline)) as path, _chunked(chunk):
        assert Path(path).read_bytes().count(newline.encode()) == text.count("\n")
        _assert_streamed(path)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_multi_byte_ids_straddle_the_reads(chunk):
    M = random_uniform_chain(np.random.default_rng(4), n=8)
    M = replace(M, ids=tuple("ü😀ï" * (7 + 13 * i) + str(i) for i in range(M.n)))
    text = json.dumps(model_to_dict(M), ensure_ascii=False, indent=2)
    # the file spans several of the 8 KiB byte reads under the text reads
    assert len(text.encode()) > 3 * 8192 and len(text.encode()) > 4 * len(text) // 3
    with _model_file(text) as path, _chunked(chunk):
        _assert_streamed(path)


@pytest.mark.parametrize("literal", ("12345", "-0.5e-3", "true", "false", "null"))
def test_a_value_that_ends_at_a_piece_end_is_read_whole(literal):
    body = dumps_model(random_uniform_chain(np.random.default_rng(5), n=4))
    text = '{"x": ' + literal + ", " + body[1:-2] + ', "y": ' + literal + "}"
    first = text.index(literal) + len(literal)
    # every first piece from one that ends before the value to one that
    # ends exactly at its end and one past it
    for chunk in range(1, first + 2):
        with _model_file(text) as path, _chunked(chunk):
            _assert_streamed(path)


def test_a_states_array_many_pieces_long_is_scanned_in_linear_time():
    M = random_labeled_chain(np.random.default_rng(6), n=120)
    text = _gen_text(M)
    states = len(json.dumps(model_to_dict(M)["states"]))
    assert states > 40 * 64
    scan_once, scanned = model._DECODER.scan_once, []

    def counting(s, idx):
        scanned.append(len(s) - idx)
        return scan_once(s, idx)

    with _model_file(text) as path, _chunked(64), mock.patch.object(model._DECODER, "scan_once", counting):
        _assert_streamed(path)
    # a retry reads as much again as is left, so the scans add up to a few
    # times the length of the states array (3.3 here), not to its square
    # over the piece size (37 with a piece read per retry)
    assert sum(scanned) < 6 * states, (sum(scanned), states)


@pytest.mark.parametrize("chunk", (*CHUNKS, None))
def test_the_transitions_before_the_states_take_the_fallback_once(chunk):
    d = model_to_dict(random_rewarded_chain(np.random.default_rng(7)))
    text = json.dumps({"transitions": d.pop("transitions"), **d}, indent=2)
    size = _chunked(chunk) if chunk else contextlib.nullcontext()
    with _model_file(text) as path, size, _whole_text_loads(path) as calls:
        loaded = model.load_model(path)
        assert calls == [len(text)]
        _assert_same(loaded, _whole(path))


def _sparse_chain(n: int, out: int, id_chars: int) -> Ctmc:
    """A chain of ``n`` states with ids of about ``id_chars`` characters
    and ``out`` transitions out of each state."""
    rng = np.random.default_rng(8)
    P = np.zeros((n, n))
    for i in range(n):
        P[i, rng.choice(n, size=out, replace=False)] = rng.dirichlet(np.ones(out))
    ids = tuple(f"{i}-" + "x" * id_chars for i in range(n))
    return Ctmc(ids=ids, labels=((),) * n, P=P, E=np.ones(n), initial=0)


def test_the_reader_holds_less_than_a_quarter_of_a_sparse_file(tmp_path):
    path = str(tmp_path / "model.json")
    model.save_model(_sparse_chain(200, 10, 2000), path)
    size = os.path.getsize(path)
    assert size > 8_000_000
    with _chunked(1 << 16):
        streamed = _peak(lambda: model.load_model(path))
    assert streamed < size / 4, (streamed, size)


def _cut_ids(M: Ctmc, tail: str) -> Ctmc:
    """``M`` with ``tail`` after every id: each id then holds the entry
    close and comma that the reader cuts its chunks at."""
    return replace(M, ids=tuple(i + tail for i in M.ids))


def test_cuts_inside_strings_keep_the_reader_to_a_chunk(tmp_path):
    # most cuts past a chunk's length fall inside an id; a later cut is
    # tried, so the reader still holds one chunk's entries, not the rest of
    # the array (29 MB here when it decoded the rest whole)
    M = _sparse_chain(200, 10, 2000)
    peaks = []
    for chain in (M, _cut_ids(M, "},x")):
        path = str(tmp_path / "model.json")
        model.save_model(chain, path)
        assert os.path.getsize(path) > 8_000_000
        with _chunked(1 << 16):
            peaks.append(_peak(lambda: model.load_model(path)))
            _assert_streamed(path)
    assert peaks[1] < 2 * peaks[0], peaks


def test_a_run_of_cuts_inside_a_string_costs_logarithmic_retries():
    M = random_uniform_chain(np.random.default_rng(9), n=4)
    text = dumps_model(_cut_ids(M, "}," * 4096))
    entries = int((M.P > 0).sum())
    loads, decoded = json.loads, []

    def counting(s, *args, **kwargs):
        decoded.append(len(s))
        return loads(s, *args, **kwargs)

    with _model_file(text) as path, _chunked(64), mock.patch.object(json, "loads", counting):
        loaded = model.load_model(path)
    _assert_same(loaded, model.model_from_dict(loads(text)))
    # each entry holds two ids of 4096 cuts each: about 14 retries per id
    # with the doubling reach, against 4096 when every next cut is tried
    assert len(decoded) <= entries * 2 * 16, (len(decoded), entries)
