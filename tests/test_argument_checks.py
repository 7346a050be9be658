"""Arguments that used to pass unchecked.

``bounds --which`` must name at least one column, and computes a repeated
one once; a curve with no column still round-trips through CSV; and the
library entry points that take a rate, a factor or a time reject NaN and
infinities with an error that names the argument.
"""

import math
import re

import numpy as np
import pytest

from ctmcbisim import cli, erlang_diff, erlang_diff_prefix, fixtures, save_model, scale, time_grid, uniformize
from ctmcbisim.cli import main
from ctmcbisim.curves import BoundCurve
from ctmcbisim.errors import NonpositiveScale


@pytest.fixture
def branch_path(tmp_path):
    p = tmp_path / "branch.json"
    save_model(fixtures.branch_merge_chain(), str(p))
    return str(p)


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("which", ["", ",", " , "])
def test_bounds_rejects_an_empty_column_list_before_reading_the_model(capsys, tmp_path, which):
    p = tmp_path / "bad.json"
    p.write_text("{this is not json")
    rc, out, err = _run(capsys, ["bounds", "-m", str(p), "--delta", "0.1", "--which", which])
    assert rc == 2
    assert out == ""
    assert "--which" in err
    assert "JSONDecode" not in err


def test_bounds_computes_a_repeated_column_once(capsys, monkeypatch, branch_path):
    argv = ["bounds", "-m", branch_path, "--delta", "0.1", "--tmax", "3", "--steps", "6", "--which"]
    rc, once, _ = _run(capsys, argv + ["exact"])
    assert rc == 0
    calls = []
    real = cli.exact_diff_curve

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "exact_diff_curve", counting)
    rc, twice, _ = _run(capsys, argv + ["exact,exact"])
    assert rc == 0
    assert len(calls) == 1
    assert twice == once


def test_bounds_keeps_the_first_seen_column_order(capsys, branch_path):
    argv = ["bounds", "-m", branch_path, "--delta", "0.1", "--tmax", "3", "--steps", "6", "--which"]
    rc, out, _ = _run(capsys, argv + ["unif,exact,unif,erlangN,exact"])
    assert rc == 0
    assert out.splitlines()[0] == "t,unif,exact,erlangN"


def test_a_curve_with_no_column_round_trips_through_csv():
    grid = time_grid(2.0, 4)
    text = BoundCurve(times=grid).to_csv()
    assert text.splitlines()[0] == "t"
    back = BoundCurve.from_csv(text)
    assert back.times.tobytes() == grid.tobytes()
    assert back.columns == {}


# ------------------------------------------------------------ non-finite arguments

LOOP = fixtures.two_state_loop(0.3)
_CALLS = {
    "uniformize q": (lambda x: uniformize(LOOP, x), ValueError, "q must be"),
    "scale c": (lambda x: scale(LOOP, x), NonpositiveScale, "scale factor must be positive and finite"),
    "erlang_diff c": (lambda x: erlang_diff(3, x, 1.0), ValueError, "c (the acceleration factor)"),
    "erlang_diff t": (lambda x: erlang_diff(3, 2.0, x), ValueError, "t must be"),
    "erlang_diff_prefix c": (lambda x: erlang_diff_prefix(x, 1.0, 3), ValueError, "c (the acceleration factor)"),
    "time_grid tmax": (lambda x: time_grid(x, 2), ValueError, "tmax must be"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", sorted(_CALLS))
def test_entry_points_reject_non_finite_arguments(call, value):
    fn, error, message = _CALLS[call]
    with pytest.raises(error, match="^" + re.escape(message)):
        fn(value)


@pytest.mark.parametrize("value", [math.nan, -math.inf, -1.0], ids=["nan", "-inf", "negative"])
def test_erlang_diff_prefix_rejects_a_time_that_is_not_a_number_at_least_zero(value):
    with pytest.raises(ValueError, match="^t must be"):
        erlang_diff_prefix(2.0, value, 3)


def test_erlang_diff_prefix_keeps_the_infinite_horizon_of_the_bound_curves():
    # the spectral routes evaluate a grid time of inf through it and clamp
    # the NaN to 1
    with np.errstate(invalid="ignore"):
        out = erlang_diff_prefix(2.0, math.inf, 3)
    assert out[0] == 0.0 and np.isnan(out[1:]).all()
    assert not erlang_diff_prefix(1.0, math.inf, 3).any()


def test_time_grid_rejects_a_negative_horizon():
    with pytest.raises(ValueError, match="^tmax must be"):
        time_grid(-1.0, 2)
