"""The scaling ladders of ``tools/`` time, measure and digest every rung in
one place, ``tools/ladder.py``.

* The smallest rung of every family of every ``tools/scale_*.py``, run in
  this process through ``ladder.measure`` on this checkout's ``src/``,
  gives the digest and the other fields that its ``BENCH_*.json`` records.
* ``measure`` reads the max RSS right after the timed call, before the
  result is described and digested.
* No ladder script times, measures or hashes on its own."""

import hashlib
import importlib
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"
SCRIPTS = {"scale_relate": "BENCH_relate.json", "scale_strong": "BENCH_strong.json",
           "scale_simulate": "BENCH_simulate.json", "scale_load": "BENCH_load.json",
           "scale_bounds": "BENCH_bounds.json"}


def _tool(name: str):
    """The module ``tools/NAME.py``, imported without leaving ``tools/`` on ``sys.path``."""
    saved = sys.path[:]
    sys.path.insert(0, str(TOOLS))
    try:
        return importlib.import_module(name)
    finally:
        sys.path[:] = saved


SMALLEST = [(name, family, min(rungs)) for name in SCRIPTS for family, rungs in _tool(name).FAMILIES.items()]


def test_every_ladder_script_is_covered():
    assert {p.stem for p in TOOLS.glob("scale_*.py")} == set(SCRIPTS)
    assert ("scale_relate", "cross", 50) in SMALLEST


@pytest.mark.parametrize("name, family, n", SMALLEST, ids=[f"{name}:{family}{n}" for name, family, n in SMALLEST])
def test_smallest_rung_reproduces_the_recorded_digest(name, family, n, monkeypatch):
    key = f"{family}{n}"
    runs = json.loads((ROOT / SCRIPTS[name]).read_text(encoding="utf-8"))["runs"].values()
    recorded = [run["rungs"][key] for run in runs if "digest" in run["rungs"].get(key, {})]
    assert recorded, f"no label of {SCRIPTS[name]} records {key}"
    monkeypatch.setattr(sys, "path", sys.path[:])
    record = _tool("ladder").measure(_tool(name).setup, str(ROOT / "src"), family, n)
    fields = {k: v for k, v in record.items() if k not in ("seconds", "max_rss_mb")}
    summary = ("runs", "median_s", "q1_s", "q3_s", "max_rss_mb")
    assert {k: v for k, v in recorded[-1].items() if k not in summary} == fields
    assert list(record) == ["seconds", "max_rss_mb", *fields]
    assert {rec["digest"] for rec in recorded} == {record["digest"]}


def test_max_rss_is_read_before_the_result_is_described(monkeypatch):
    ladder = _tool("ladder")
    events = []

    def setup(family: str, n: int):
        events.append("setup")

        def call():
            events.append("call")
            return n

        def describe(result):
            events.append("describe")
            return {"n": result}, [family, result]

        return call, describe

    monkeypatch.setattr(ladder, "max_rss_mb", lambda: events.append("rss") or 12.5)
    monkeypatch.setattr(sys, "path", sys.path[:])
    record = ladder.measure(setup, str(ROOT / "src"), "stub", 3)
    assert events == ["setup", "call", "rss", "describe"]
    assert list(record) == ["seconds", "max_rss_mb", "n", "digest"]
    assert (record["max_rss_mb"], record["n"]) == (12.5, 3)
    assert record["digest"] == hashlib.sha256(json.dumps(["stub", 3]).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_no_ladder_script_times_measures_or_hashes(name):
    source = (TOOLS / f"{name}.py").read_text(encoding="utf-8")
    assert re.findall(r"\b(?:perf_counter|max_rss_mb|hashlib)\b", source) == []
