"""One rule per decision: ``transient._check_tol`` is the only statement of
the ``tol`` range, ``ParetoRegion.contains`` the only admissibility
test of an (eps, delta) pair, ``graph.BLOCK_CELLS`` the only block budget
of an array pass, with ``graph.blocks`` its only block step, and
``transient`` the only reader of ``log_factorials``.

Every public routine with a ``tol`` rejects a tolerance outside (0, 1)
before it decomposes a matrix or takes a series term; every frontier point
passes ``contains`` over budgets from 1 to 1.4e13; and the sources
state neither rule a second time."""

from __future__ import annotations

import ast
import inspect
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import ctmcbisim
from ctmcbisim import fixtures, pareto_region, spectral, transient
from ctmcbisim.cli import main
from ctmcbisim.transient import poisson_weights

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ctmcbisim"

LOOP = fixtures.two_state_loop(0.3)
DAG = fixtures.erlang_chain(3)
REWARDED = fixtures.rewarded_tandem()

# ---------------------------------------------------------------- the tol rule

CALLS = {
    "combined_bound": lambda tol: ctmcbisim.combined_bound(LOOP, 0.1, [1.0], tol),
    "combined_bound on a DAG": lambda tol: ctmcbisim.combined_bound(DAG, 0.1, [1.0], tol),
    "decompose": lambda tol: ctmcbisim.decompose(LOOP.P, tol),
    "diag_bound": lambda tol: ctmcbisim.diag_bound(LOOP, 0.1, [1.0], tol),
    "diff_curve": lambda tol: ctmcbisim.diff_curve(LOOP, 1.5, [1.0], tol),
    "exact_diff_curve": lambda tol: ctmcbisim.exact_diff_curve(LOOP, 0.1, [1.0], tol),
    "exact_diff_series": lambda tol: ctmcbisim.exact_diff_series(LOOP, 0.1, 1.0, tol),
    "hit_exact_steps": lambda tol: ctmcbisim.hit_exact_steps(LOOP, 64, tol),
    "jordan_bound": lambda tol: ctmcbisim.jordan_bound(LOOP, 0.1, [1.0], tol),
    "markov_curve": lambda tol: ctmcbisim.markov_curve(LOOP, 0.1, [1.0], tol),
    "reward_reach": lambda tol: ctmcbisim.reward_reach(REWARDED, None, 1.0, tol),
    "spectral_curve": lambda tol: ctmcbisim.spectral_curve(LOOP, 0.1, [1.0], tol),
    "spectral_curve on a DAG": lambda tol: ctmcbisim.spectral_curve(DAG, 0.1, [1.0], tol),
    "spectral_report": lambda tol: ctmcbisim.spectral_report(LOOP, tol),
    "timed_reach": lambda tol: ctmcbisim.timed_reach(LOOP, None, 1.0, tol),
    "timed_reach_curve": lambda tol: ctmcbisim.timed_reach_curve(LOOP, [1.0], tol),
    "poisson_weights": lambda tol: poisson_weights(2.0, tol),
    "poisson_weights at mu 0": lambda tol: poisson_weights(0.0, tol),
}

BAD_TOLS = [0.0, -1.0, 1.0, math.inf, math.nan]


def test_the_table_names_every_public_routine_with_a_tol():
    with_tol = {
        name
        for name in ctmcbisim.__all__
        if callable(obj := getattr(ctmcbisim, name))
        and not inspect.isclass(obj)
        and "tol" in inspect.signature(obj).parameters
    }
    assert with_tol | {"poisson_weights"} == {key.split(" ")[0] for key in CALLS}


@pytest.mark.parametrize("tol", BAD_TOLS, ids=repr)
@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_tol_outside_0_1_raises_before_any_work(monkeypatch, name, tol):
    # a wrapped routine counts once it returns: a factorization, an
    # eigendecomposition or a power series was made
    calls = []

    def counting(module, attr):
        real = getattr(module, attr)

        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append(attr)
            return out

        monkeypatch.setattr(module, attr, wrapper)

    counting(spectral, "decompose")
    counting(transient, "_powers")
    counting(np.linalg, "eig")
    with pytest.raises(ValueError, match="^tol must be positive"):
        CALLS[name](tol)
    assert calls == []


@pytest.mark.parametrize("tol", ["1", "5", "inf"])
@pytest.mark.parametrize(
    "cmd, extra",
    [("bounds", ["--delta", "0.1"]), ("reward-reach", ["--bound", "1"]), ("pn", []), ("spectral-report", [])],
)
def test_cli_tol_has_the_library_range(capsys, cmd, extra, tol):
    # the model file does not exist: only a parse-time rejection gives 2
    # with this message
    assert main([cmd, "-m", "/no/such/model.json", *extra, "--tol", tol]) == 2
    assert "argument --tol: must be a number in (0, 1)" in capsys.readouterr().err


# ---------------------------------------------------------------- admissibility

THETAS = [1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.99, 0.999999]
SCALES = [10.0**k for k in range(-6, 7)]


def test_every_frontier_point_is_admissible():
    outside = [
        (theta, q, t, eps, delta)
        for theta, q, t in itertools.product(THETAS, SCALES, SCALES)
        for region in [pareto_region(theta, q, t)]
        for eps, delta in region.frontier(17)
        if not region.contains(eps, delta)
    ]
    assert outside == []


def test_pareto_within_is_contains_on_a_large_budget(capsys):
    # q t = 1e7: the bound at the frontier rounds above theta by more than
    # an absolute 1e-12, yet every point lies on the budget
    rc = main(["pareto", "--theta", "0.9", "--q", "1e4", "--t", "1e3", "--samples", "33"])
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert rc == 0
    assert [row.split(",")[3] for row in rows] == ["1"] * 33


# ---------------------------------------------------------------- source gate


def _compares(path: Path, *operands) -> list[int]:
    """Lines of the comparisons in ``path`` that have, for each predicate
    in ``operands``, an operand for which it holds."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Compare)
        and all(any(map(holds, [node.left, *node.comparators])) for holds in operands)
    ]


def test_cli_compares_nothing_against_theta():
    def is_theta(node):
        return isinstance(node, ast.Attribute) and node.attr == "theta"

    assert _compares(PACKAGE / "cli.py", is_theta) == []


def test_only_transient_states_the_tol_range():
    def is_tol(node):
        return isinstance(node, ast.Name) and node.id == "tol"

    def is_end(node):
        return isinstance(node, ast.Constant) and node.value in (0.0, 1.0) and not isinstance(node.value, bool)

    stating = [path.name for path in sorted(PACKAGE.glob("*.py")) if _compares(path, is_tol, is_end)]
    assert stating == ["transient.py"]


def _block_rules(source: str) -> list[int]:
    """Lines of ``source`` that bind a ``*CELLS`` name or compute a block
    step ``max(1, a // b)``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id.endswith("CELLS"):
            found.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "max"
            and any(isinstance(arg, ast.Constant) and arg.value == 1 for arg in node.args)
            and any(isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.FloorDiv) for arg in node.args)
        ):
            found.append(node.lineno)
    return found


def test_only_graph_states_the_block_budget():
    stating = [path.name for path in sorted(PACKAGE.glob("*.py")) if _block_rules(path.read_text(encoding="utf-8"))]
    assert stating == ["graph.py"]


@pytest.mark.parametrize(
    "source, lines",
    [
        ("FILTER_CELLS = 1 << 16\n", [1]),
        ("x = 1\nfor i in range(0, n, max(1, _BLOCK_CELLS // n)):\n    pass\n", [2]),
        ("step = max(n // 2, 1)\n", [1]),
        ("scale = max(1.0, abs(r))\nw = max(256, n // 2)\nCELLS_USED = None\n", []),
    ],
)
def test_the_block_gate_sees_a_budget_or_a_step(source, lines):
    assert _block_rules(source) == lines


def test_only_transient_reads_log_factorials():
    def reads(path):
        return any(
            getattr(node, "id", getattr(node, "attr", None)) == "log_factorials"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Name, ast.Attribute))
        )

    assert [path.name for path in sorted(PACKAGE.glob("*.py")) if reads(path)] == ["transient.py"]
