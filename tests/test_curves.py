import math

import numpy as np
import pytest

from ctmcbisim import BoundCurve, time_grid

from helpers import read_curve


def test_time_grid_inclusive():
    g = time_grid(30.0, 60)
    assert len(g) == 61
    assert g[0] == 0.0 and g[-1] == 30.0
    with pytest.raises(ValueError):
        time_grid(1.0, 0)


def test_csv_round_trip_exact():
    times = time_grid(3.0, 4)
    curve = BoundCurve(times=times)
    curve.add("exact", [0.0, 0.1234567890123456789, 1 / 3, math.pi / 4, 0.9999999999999999])
    curve.add("unif", np.linspace(0, 1, 5))
    text = curve.to_csv()
    back = read_curve(text)
    assert back.dtype.names == ("t", "exact", "unif")
    assert np.array_equal(back["t"], times)
    assert np.array_equal(back["exact"], curve["exact"])  # 17 digits: bit-exact
    again = BoundCurve(times=back["t"]).add("exact", back["exact"]).add("unif", back["unif"])
    assert again.to_csv() == text


def test_csv_nan_cells_empty():
    curve = BoundCurve(times=np.array([0.0, 1.0]))
    curve.add("markov", [float("nan"), 0.5])
    lines = curve.to_csv().splitlines()
    assert lines[0] == "t,markov"
    assert lines[1] == "0,"
    back = read_curve(curve.to_csv())
    assert math.isnan(back["markov"][0])
    assert back["markov"][1] == 0.5


def test_json_uses_null_for_nan():
    curve = BoundCurve(times=np.array([0.0, 2.0]))
    curve.add("a", [float("nan"), 0.25])
    d = curve.to_json_dict()
    assert d["t"] == [0.0, 2.0]
    assert d["a"] == [None, 0.25]


def test_column_shape_checked():
    curve = BoundCurve(times=np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        curve.add("bad", [1.0, 2.0])


def test_getitem_and_chaining():
    curve = BoundCurve(times=np.array([0.0, 1.0])).add("a", [1.0, 2.0]).add("b", [3.0, 4.0])
    assert list(curve["b"]) == [3.0, 4.0]
    assert list(curve.columns) == ["a", "b"]
