"""Committed bound-curve CSVs: regeneration must be byte-identical, and the
qualitative features the curves exist to show must survive any refactor."""

import pathlib

import numpy as np
import pytest

from ctmcbisim import fixtures, save_model
from ctmcbisim.cli import main

from helpers import read_curve

DATA = pathlib.Path(__file__).parent / "data"

SCENARIOS = {
    "branch_bounds.csv": lambda: fixtures.branch_merge_chain(),
    "queue_bounds_075.csv": lambda: fixtures.overflow_queue(0.75),
    "queue_bounds_050.csv": lambda: fixtures.overflow_queue(0.5),
    "queue_bounds_033.csv": lambda: fixtures.overflow_queue(1.0 / 3.0),
}


def _columns(name):
    curve = read_curve((DATA / name).read_text())
    return curve["t"], curve["exact"], curve["erlangN"], curve["spectral"]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_regeneration_is_byte_identical(name, tmp_path, capsys):
    model = tmp_path / "model.json"
    save_model(SCENARIOS[name](), str(model))
    rc = main(["bounds", "-m", str(model), "--delta", "0.1",
               "--tmax", "30", "--steps", "60"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (DATA / name).read_text()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_columns_are_bounds(name):
    t, exact, erlN, spec = _columns(name)
    assert t[0] == 0.0 and t[-1] == 30.0 and len(t) == 61
    for col in (exact, erlN, spec):
        assert np.all((0.0 <= col) & (col <= 1.0))
    assert np.all(exact <= erlN + 1e-9)
    assert np.all(exact <= spec + 1e-9)
    assert np.all(np.diff(erlN) >= 0.0)  # the chain-length bound only grows


def test_branch_crossover_and_decay():
    t, exact, erlN, spec = _columns("branch_bounds.csv")
    # the exact curve is a hump; the eigenvalue bound follows it down while
    # the chain-length bound saturates, so the two bounds cross exactly once
    assert 0 < exact.argmax() < len(t) - 1
    assert exact[-1] < 1e-5 < exact.max()
    sign = np.sign(erlN - spec)
    crossings = np.nonzero(sign[:-1] != sign[1:])[0]
    assert len(crossings) == 1
    assert spec[-1] < erlN[-1]


def test_light_load_queue_crosses_once():
    t, _, erlN, spec = _columns("queue_bounds_075.csv")
    sign = np.sign(erlN - spec)
    crossings = np.nonzero(sign[:-1] != sign[1:])[0]
    assert len(crossings) == 1
    assert t[crossings[0]] > 10.0  # slower mixing pushes the crossover out
    assert spec[-1] < erlN[-1]


@pytest.mark.parametrize("name", ["queue_bounds_050.csv", "queue_bounds_033.csv"])
def test_heavy_load_queues_keep_the_chain_length_bound_ahead(name):
    _, _, erlN, spec = _columns(name)
    # second modulus near one: the eigenvalue envelope never undercuts the
    # chain-length bound before the horizon
    assert spec[-1] > erlN[-1]
