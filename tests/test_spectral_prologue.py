"""The spectral routes check delta and the uniform rate before any
decomposition, and build the goal normal form once.

``spectral_curve`` and ``combined_bound`` share one private route over the
triple that ``spectral._prepare`` returns.  The four functions below are
the library's bound entry points from before that route, kept verbatim
apart from a ``_parent`` suffix on their names (and on the one call between
them); every curve the library returns must have their bytes.
"""

from __future__ import annotations

import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from ctmcbisim import Ctmc, erlang, fixtures, make_ctmc, spectral, validate
from ctmcbisim.erlang import _uniform_rate, erlang_N_bound, rate_factor
from ctmcbisim.errors import DecompositionFallbackWarning, NonUniformRates, NumericalFailure, WrongKind
from ctmcbisim.model import _normal_form
from ctmcbisim.spectral import (
    _acyclic_values,
    _diag_bound_from,
    _jordan_bound_from,
    _prepare,
    as_jordan,
    combined_bound,
    decompose,
    diag_bound,
    is_embedded_acyclic,
    jordan_bound,
    spectral_curve,
)

# ---------------------------------------------------------------- oracles


def diag_bound_parent(M: Ctmc, delta: float, t_grid, tol: float = 1e-9) -> np.ndarray:
    c, Mn, rate = _prepare(M, delta)
    sd = decompose(Mn.P, tol)
    if sd.kind != "diag":
        raise WrongKind("the jump matrix is not diagonalizable")
    return _diag_bound_from(sd, rate, c, t_grid, tol)


def jordan_bound_parent(M: Ctmc, delta: float, t_grid, tol: float = 1e-9) -> np.ndarray:
    c, Mn, rate = _prepare(M, delta)
    sd = as_jordan(decompose(Mn.P, tol))
    return _jordan_bound_from(sd, rate, c, t_grid, tol)


def spectral_curve_parent(M: Ctmc, delta: float, t_grid, tol: float = 1e-9) -> np.ndarray:
    c = rate_factor(delta)
    Mn = _normal_form(M)
    if is_embedded_acyclic(Mn):
        return _acyclic_values(Mn, _uniform_rate(Mn), c, t_grid)
    sd = decompose(Mn.P, tol=tol)
    bound_from = _diag_bound_from if sd.kind == "diag" else _jordan_bound_from
    return bound_from(sd, _uniform_rate(Mn), c, t_grid, tol)


def combined_bound_parent(M: Ctmc, delta: float, t_grid, tol: float = 1e-9, spectral=None) -> np.ndarray:
    rate = _prepare(M, delta)[2]
    base = np.array([erlang_N_bound(rate * float(t), delta) for t in t_grid])
    try:
        spec = spectral_curve_parent(M, delta, t_grid, tol) if spectral is None else spectral()
    except NumericalFailure as exc:
        warnings.warn(
            f"spectral bound unavailable ({exc}); falling back to the"
            " chain-length bound",
            DecompositionFallbackWarning,
            stacklevel=2,
        )
        spec = None
    out = base if spec is None else np.minimum(base, spec)
    return np.clip(out, 0.0, 1.0)


_PAIRS = (
    (spectral_curve, spectral_curve_parent),
    (combined_bound, combined_bound_parent),
    (diag_bound, diag_bound_parent),
    (jordan_bound, jordan_bound_parent),
)


def _outcome(fn, M: Ctmc, delta: float, grid: np.ndarray):
    """The curve's dtype and bytes with the warnings' messages, or the
    error's type and message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(M, delta, grid)
        except Exception as exc:  # compared, not swallowed
            return type(exc), str(exc)
    return out.dtype, out.tobytes(), [str(w.message) for w in caught]


def _same_as_parent(M: Ctmc, delta: float, grid: np.ndarray) -> int:
    """Each entry point's outcome equals its oracle's, except that a chain
    whose normal form has non-uniform rates now raises ``NonUniformRates``
    whatever the oracle raised; returns the number of curves compared."""
    curves = 0
    for fn, parent in _PAIRS:
        got, want = _outcome(fn, M, delta, grid), _outcome(parent, M, delta, grid)
        if not _normal_form(M).is_uniform():
            assert got[0] is NonUniformRates
            continue
        assert got == want, fn.__name__
        curves += not isinstance(got[0], type)
    return curves


# ---------------------------------------------------------------- chains


def _bench_gen():
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fixture_chains() -> list[Ctmc]:
    return [
        fixtures.erlang_chain(4),
        fixtures.erlang_chain(3, rate=2.0),
        fixtures.two_state_loop(0.3),
        fixtures.branch_merge_chain(),
        fixtures.defective_chain(),
        fixtures.parallel_erlang((2, 3, 1)),
        fixtures.multi_sink_chain(),
        fixtures.escape_pair_chain(0.1),
        fixtures.perturbed_loop_chain(0.1, 0.2),
        *fixtures.bisimilar_demo_pair(0.1, 0.2),
        fixtures.overflow_queue(0.5),
        *fixtures.service_chains(),
        fixtures.quasi_lumpable_gap_chain(0.1, 0.1, 0.2)[0],
        fixtures.rewarded_tandem(),
    ]


def _bench_chains() -> list[Ctmc]:
    gen = _bench_gen()
    chains = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        chains += [validate(Ctmc(**gen.uniform_dense(rng, n))) for n in (4, 12, 40)]
        chains += [validate(Ctmc(**gen.random_dag(rng, n))) for n in (3, 12, 40)]
        chains += [validate(Ctmc(**gen.jordan_pairs(rng, pairs))) for pairs in (1, 5, 24, 26)]
    return chains


GRID = np.linspace(0.0, 6.0, 13)


def _same_as_parent_all(chains: list[Ctmc], delta: float) -> int:
    return sum(_same_as_parent(M, delta, GRID) for M in chains)


@pytest.mark.parametrize("delta", (0.0, 0.1, 0.7))
def test_bound_curves_keep_their_bytes_on_the_fixtures(delta):
    assert _same_as_parent_all(_fixture_chains(), delta) > 0


@pytest.mark.parametrize("delta", (0.1, 0.7))
def test_bound_curves_keep_their_bytes_on_the_bench_chains(delta):
    assert _same_as_parent_all(_bench_chains(), delta) > 0


# ---------------------------------------------------------------- call counts


def _counting(monkeypatch, name: str) -> list[int]:
    calls = [0]
    real = getattr(spectral, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    for home in (spectral, erlang):  # the prologue, erlang._prepare, reads erlang's names
        if getattr(home, name, None) is real:
            monkeypatch.setattr(home, name, counted)
    return calls


def _two_rate_loop() -> Ctmc:
    """s (rate 1) -> a (rate 2) -> s or g: a cycle, with rates 1 and 2."""
    return make_ctmc(
        [("s", (), 1.0), ("a", (), 2.0), ("g", ("g",), 1.0)],
        [("s", "a", 1.0), ("a", "s", 0.5), ("a", "g", 0.5), ("g", "g", 1.0)],
        initial="s",
        goal=("g",),
    )


def test_non_uniform_chain_is_turned_away_before_any_decomposition(monkeypatch):
    calls = _counting(monkeypatch, "decompose")
    for route in (spectral_curve, combined_bound):
        with pytest.raises(NonUniformRates):
            route(_two_rate_loop(), 0.1, GRID)
    assert calls == [0]


def test_combined_bound_builds_the_normal_form_once(monkeypatch):
    calls = _counting(monkeypatch, "_normal_form")
    decompositions = _counting(monkeypatch, "decompose")
    combined_bound(fixtures.branch_merge_chain(), 0.1, GRID)
    assert calls == [1] and decompositions == [1]
