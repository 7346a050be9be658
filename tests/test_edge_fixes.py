"""Unique ids in a direct sum, exact ends of the Wilson interval, and one
failed decomposition shared by the ``spectral`` and ``combined`` columns of
``bounds``."""

import csv
import io
import math
from statistics import NormalDist

import numpy as np
import pytest

from ctmcbisim import direct_sum, make_ctmc, save_model, simulate_paths, spectral
from ctmcbisim.cli import main
from ctmcbisim.errors import DecompositionFallbackWarning
from ctmcbisim.transient import _wilson

# ---------------------------------------------------------------- direct sum ids


def _chain(ids):
    return make_ctmc([(i, (i,), 1.0) for i in ids], [(i, i, 1.0) for i in ids], initial=ids[0])


def test_direct_sum_ids_stay_unique_when_a_suffixed_id_is_taken():
    D = direct_sum(_chain(("x", "g")), _chain(("x", "x~b", "h")))
    assert D.ids == ("x", "g", "x~b1", "x~b", "h")
    # the renamed state is N's x, at N's position
    assert D.labels[D.index("x~b1")] == ("x",)


def test_direct_sum_ids_skip_every_taken_name():
    D = direct_sum(_chain(("x", "x~b1", "y")), _chain(("x", "x~b", "x~b1", "y")))
    assert len(set(D.ids)) == D.n
    assert D.ids == ("x", "x~b1", "y", "x~b2", "x~b", "x~b1~b", "y~b")


def test_direct_sum_single_collisions_keep_their_names():
    D = direct_sum(_chain(("a", "b", "c")), _chain(("a", "b", "d")))
    assert D.ids == ("a", "b", "c", "a~b", "b~b", "d")


# ---------------------------------------------------------------- Wilson interval


@pytest.mark.parametrize("n", [1, 7, 10, 1000])
@pytest.mark.parametrize("confidence", [0.5, 0.95, 0.99])
def test_wilson_interval_ends_are_exact(n, confidence):
    assert _wilson(0, n, confidence)[0] == 0.0
    assert _wilson(n, n, confidence)[1] == 1.0


def test_wilson_interval_keeps_its_other_bounds():
    # the formula's own values, bit for bit, away from the two exact ends
    for hits, n, confidence in ((0, 10, 0.95), (3, 10, 0.95), (7, 7, 0.99), (500, 1000, 0.5)):
        z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
        phat = hits / n
        denom = 1.0 + z * z / n
        center = (phat + z * z / (2.0 * n)) / denom
        half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
        low, high = _wilson(hits, n, confidence)
        if hits:
            assert low == max(0.0, center - half)
        if hits < n:
            assert high == min(1.0, center + half)


def test_a_run_with_no_hits_contains_zero():
    never = make_ctmc(
        [("s", (), 1.0), ("f", ("f",), 1.0), ("g", ("g",), 1.0)],
        [("s", "f", 1.0), ("f", "f", 1.0), ("g", "g", 1.0)],
        initial="s",
        goal=("g",),
    )
    res = simulate_paths(never, 10, 1.0, 0)
    assert (res.hits, res.ci_low) == (0, 0.0)
    assert res.contains(0.0)


# ---------------------------------------------------------------- bounds


def test_spectral_and_combined_share_one_failed_decomposition(tmp_path, capsys, monkeypatch):
    # an eigenvalue near -1: decompose raises ModulusOneNotOne
    M = make_ctmc(
        [("s0", (), 1.0), ("s1", (), 1.0), ("g", ("g",), 1.0)],
        [("s0", "s1", 1.0 - 1e-9), ("s0", "g", 1e-9), ("s1", "s0", 1.0), ("g", "g", 1.0)],
        initial="s0",
        goal=("g",),
    )
    path = tmp_path / "flip.json"
    save_model(M, str(path))
    calls = []
    decompose = spectral.decompose

    def counted(*args, **kwargs):
        calls.append(args)
        return decompose(*args, **kwargs)

    monkeypatch.setattr(spectral, "decompose", counted)
    with pytest.warns(DecompositionFallbackWarning):
        rc = main(["bounds", "-m", str(path), "--delta", "0.1", "--steps", "6",
                   "--which", "spectral,combined,erlangN"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert len(calls) == 1
    rows = list(csv.reader(io.StringIO(out)))
    cols = {name: [row[k] for row in rows[1:]] for k, name in enumerate(rows[0])}
    assert cols["spectral"] == [""] * 7
    assert "note: column 'spectral' not applicable: eigenvalue" in err
    assert "note: column 'combined'" not in err
    assert cols["combined"] == cols["erlangN"]
    assert np.all(np.array(cols["erlangN"], dtype=float)[1:] > 0.0)
