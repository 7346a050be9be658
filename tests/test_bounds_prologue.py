"""``bounds`` builds each goal normal form once per command.

The command reads the normal form ``Mn`` of the loaded chain for the
``unif`` and ``erlangN`` columns, and the exact, Markov, spectral and
combined curves each read the normal form of ``Mn``.  The two differ on
chains whose normal form is not its own (see ``test_normal_form``), so
both are built, but each only once: a chain keeps its normal form.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from ctmcbisim import errors, fixtures, model, save_model
from ctmcbisim.cli import main
from ctmcbisim.curves import BoundCurve, time_grid
from ctmcbisim.erlang import erlang_N_bound, exact_diff_curve, markov_curve, uniformization_bound
from ctmcbisim.model import _normal_form
from ctmcbisim.spectral import combined_bound, spectral_curve

from test_grid_sharing import _count_calls
from test_normal_form import _goal_analysis_chain, _goal_on_the_way
from test_spectral_prologue import _two_rate_loop

ALL = "exact,unif,erlangN,markov,spectral,combined"
EPS, DELTA, TMAX, STEPS = 0.05, 0.1, 4.0, 4


def _bounds(M, which, tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "model.json")
    save_model(M, path)
    builds = _count_calls(monkeypatch, model, "normalize_goal")
    rc = main(["bounds", "-m", path, "--eps", str(EPS), "--delta", str(DELTA), "--tmax", str(TMAX),
               "--steps", str(STEPS), "--which", which])
    out, err = capsys.readouterr()
    return rc, out, err, len(builds)


def _forms(M) -> int:
    """The normal forms ``bounds`` reads on ``M``: the loaded chain's, then
    that form's own, unless the loaded chain is its own normal form."""
    return 1 if _normal_form(M) is M else 2


@pytest.mark.parametrize(
    "chain", [fixtures.branch_merge_chain, lambda: fixtures.erlang_chain(3)], ids=["branch", "erlang3"]
)
def test_one_build_per_normal_form(chain, tmp_path, capsys, monkeypatch):
    rc, out, err, builds = _bounds(chain(), ALL, tmp_path, capsys, monkeypatch)
    assert rc == 0 and err == ""
    assert builds == _forms(chain())


@pytest.mark.parametrize("which", [ALL, "markov,exact", "unif,erlangN,combined", "spectral"])
def test_a_non_uniform_chain_stops_at_its_first_erlang_column(which, tmp_path, capsys, monkeypatch):
    # NonUniformRates is an input error, not a column's note: the command
    # exits 2 with one message, whichever column asks for the rate first
    rc, out, err, builds = _bounds(_two_rate_loop(), which, tmp_path, capsys, monkeypatch)
    assert (rc, out, err) == (2, "", "NonUniformRates: this bound requires a uniform-rate chain\n")
    assert builds == _forms(_two_rate_loop())


@pytest.mark.parametrize(
    "chain", [fixtures.branch_merge_chain, _two_rate_loop, _goal_on_the_way],
    ids=["branch", "two-rate", "goal-on-the-way"],
)
def test_a_chain_keeps_its_normal_form_without_holding_itself(chain):
    M = chain()
    form = _normal_form(M)
    assert _normal_form(M) is form
    # with the cycle collector off, dropping the last names frees both:
    # a chain that is its own form must not keep a reference to itself
    refs = [weakref.ref(M), weakref.ref(form)]
    gc.disable()
    try:
        del M, form
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def _expected(M) -> tuple[str, str]:
    """The CSV and notes of ``bounds --which ALL``, column by column from
    the library on the normal form ``Mn`` of ``M``: ``unif`` and
    ``erlangN`` at Mn's largest rate, the curves of Mn itself."""
    Mn = _normal_form(M)
    grid = time_grid(TMAX, STEPS)
    q = Mn.max_rate()
    columns = {
        "exact": lambda: exact_diff_curve(Mn, DELTA, grid),
        "unif": lambda: [uniformization_bound(EPS, DELTA, q, float(t)) for t in grid],
        "erlangN": lambda: [erlang_N_bound(q * float(t), DELTA) for t in grid],
        "markov": lambda: markov_curve(Mn, DELTA, grid),
        "spectral": lambda: spectral_curve(Mn, DELTA, grid),
        "combined": lambda: combined_bound(Mn, DELTA, grid),
    }
    curve, notes = BoundCurve(times=grid), ""
    for name, column in columns.items():
        try:
            col = column()
        except errors.NotApplicable as e:
            notes += f"note: column {name!r} not applicable: {e}\n"
            col = np.full(len(grid), np.nan)
        curve.add(name, col)
    return curve.to_csv(), notes


def _goal_on_the_way_with_rate(r: float):
    M = _goal_on_the_way()
    return replace(M, E=np.where(np.array(M.ids) == "s2", r, M.E))


@pytest.mark.parametrize(
    "chain",
    [lambda: _goal_analysis_chain(np.random.default_rng(1)), lambda: _goal_on_the_way_with_rate(2.0)],
    ids=["gate-seed-1", "goal-on-the-way-rate-2"],
)
def test_the_curves_read_the_normal_form_of_the_normal_form(chain, tmp_path, capsys, monkeypatch):
    # on these chains the normal form is not its own, so a curve of Mn
    # taken as already normal would differ: the spectral column at t = 3 of
    # the first, and the uniform rate of the second, whose Mn keeps s2
    M = chain()
    Mn = _normal_form(M)
    assert _normal_form(Mn).n < Mn.n
    csv, notes = _expected(M)
    rc, out, err, builds = _bounds(M, ALL, tmp_path, capsys, monkeypatch)
    assert (rc, out, err) == (0, csv, notes)
    assert builds == _forms(M) == 2
