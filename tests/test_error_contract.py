"""Each error class fixes its CLI exit code, and the exact series fails
loudly instead of returning a truncated sum.

``cli.main`` maps a ``NegativeVerdict`` to exit 1, a ``NumericalFailure``
(and numpy's ``LinAlgError``) to 3, and any other ``CtmcError``,
``ValueError``, ``KeyError`` or ``OSError`` to 2.  The table below pins
that map for every class in ``errors.py``.
"""

import inspect
import json

import numpy as np
import pytest

from ctmcbisim import cli, erlang, errors, exact_diff_curve, fixtures, normalize_goal, prune_unreachable
from ctmcbisim.model import save_model

EXIT_CODES = {
    errors.CtmcError: 2,
    errors.NegativeVerdict: 1,
    errors.NumericalFailure: 3,
    # model
    errors.RowSumError: 2,
    errors.NonpositiveRate: 2,
    errors.NonFiniteValue: 2,
    errors.NonAbsorbingGoal: 2,
    errors.NonpositiveScale: 2,
    errors.EmptyGoalSet: 2,
    errors.RateTooSmall: 2,
    errors.NoGoalState: 2,
    errors.NonUniformRates: 2,
    # bisim
    errors.PairNotRelated: 1,
    errors.NotBisimilar: 1,
    # transient
    errors.JumpBudgetExceeded: 3,
    # erlang / bounds
    errors.NotApplicable: 2,
    errors.TruncationLimit: 3,
    # spectral
    errors.WrongKind: 2,
    errors.ModulusOneNotOne: 3,
    errors.DecompositionUnstable: 3,
    errors.SpectralGapZero: 3,
    errors.AcyclicChain: 3,
    errors.NotAcyclic: 2,
    # rewards
    errors.NonzeroReward: 2,
    errors.AbsorbingState: 2,
    errors.ZeroRewardCycle: 2,
    errors.ZeroReward: 2,
    # pair uniformization
    errors.NotTransitive: 1,
    errors.NotZeroDeltaBisim: 1,
    # not ours
    np.linalg.LinAlgError: 3,
    ValueError: 2,
    json.JSONDecodeError: 2,
    KeyError: 2,
    OSError: 2,
}


def test_the_table_covers_every_error_class():
    defined = {
        cls
        for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.CtmcError)
    }
    assert defined <= set(EXIT_CODES)


@pytest.mark.parametrize("cls, code", list(EXIT_CODES.items()), ids=lambda x: getattr(x, "__name__", str(x)))
def test_each_error_class_fixes_its_exit_code(monkeypatch, capsys, cls, code):
    exc = cls.__new__(cls)
    Exception.__init__(exc, "boom")

    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_spectral_report", fail)
    assert cli.main(["spectral-report", "-m", "unused.json"]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{cls.__name__}: ") and "Traceback" not in err


# ---------------------------------------------------------------- truncation


def _loop():
    return normalize_goal(prune_unreachable(fixtures.two_state_loop(0.999)))


def test_exact_series_raises_past_the_term_cap(monkeypatch):
    monkeypatch.setattr(erlang, "MAX_TERMS", 1024)
    with pytest.raises(errors.TruncationLimit) as info:
        exact_diff_curve(_loop(), 0.1, [100, 2000, 5000])
    assert "tol=1e-09" in str(info.value) and "MAX_TERMS=1024" in str(info.value)


def test_bounds_leaves_a_truncated_exact_column_blank(monkeypatch, capsys, tmp_path):
    path = str(tmp_path / "loop.json")
    save_model(fixtures.two_state_loop(0.999), path)
    monkeypatch.setattr(erlang, "MAX_TERMS", 1024)
    argv = ["bounds", "-m", path, "--delta", "0.1", "--tmax", "5000", "--steps", "2", "--which", "exact,unif"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    rows = [line.split(",") for line in out.splitlines()]
    assert rows[0] == ["t", "exact", "unif"]
    assert [row[1] for row in rows[1:]] == ["", "", ""]
    assert err.startswith("note: column 'exact' not applicable: hit mass")
    assert "MAX_TERMS=1024" in err and "Traceback" not in err
