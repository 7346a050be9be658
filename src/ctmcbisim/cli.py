"""Command-line front end.

Loads models (and optionally relations) from JSON, runs the analyses, and
emits JSON reports or CSV curves.  Exit codes: 0 success / related,
1 negative verdict, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings
from functools import cache

import numpy as np

from . import errors as err
from .bisim import PairRelation, epsilon_delta_bisim, is_bisimulation, load_relation, relation_to_dict
from .curves import BoundCurve, time_grid
from .erlang import (
    _erlang_N_curve,
    exact_diff_curve,
    markov_curve,
    pareto_region,
    uniformization_bound,
)
from .model import Ctmc, _model_chunks, _normal_form, direct_sum, load_model
from .pairuniform import uniformize_pair
from .rewards import _budget_reach, _clock_chain, reward_bound
from .spectral import (
    combined_bound,
    decompose,
    pn_diag,
    pn_jordan,
    spectral_curve,
    spectral_report,
)
from .transient import _check_tol, hit_exact_steps, simulate_paths

_NUMERICAL_ERRORS = (err.NumericalFailure, np.linalg.LinAlgError)

_BOUND_NAMES = ("exact", "unif", "erlangN", "markov", "spectral", "combined")


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json(obj, out: str | None) -> None:
    """``obj`` as the text of ``json.dumps(obj, indent=2)``; a chain among
    the values of a dict is written by the model writer, as its model text."""
    if isinstance(obj, dict) and any(isinstance(v, Ctmc) for v in obj.values()):
        # JSON text holds no raw newline inside a string, so indenting after
        # each newline nests a value's text one level deeper
        items = (
            f"  {json.dumps(k)}: "
            + ("".join(_model_chunks(v)) if isinstance(v, Ctmc) else json.dumps(v, indent=2)).replace("\n", "\n  ")
            for k, v in obj.items()
        )
        _emit("{\n" + ",\n".join(items) + "\n}\n", out)
    else:
        _emit(json.dumps(obj, indent=2) + "\n", out)


def _table(names: tuple[str, ...], rows, args) -> None:
    """``rows`` as CSV (integers and booleans as digits, floats with 17
    significant digits) or, with ``--format json``, as a list of objects."""
    if args.format == "json":
        _json([dict(zip(names, row)) for row in rows], args.out)
    else:
        lines = [",".join(names)]
        lines += [",".join(format(x, "d" if isinstance(x, int) else ".17g") for x in row) for row in rows]
        _emit("\n".join(lines) + "\n", args.out)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_check_bisim(args) -> int:
    A = load_model(args.model)
    if args.model_b is not None:
        B = load_model(args.model_b)
        chain = direct_sum(A, B)
        init_pair = (A.initial, A.n + B.initial)
    else:
        chain = A
        init_pair = (A.initial, A.initial)
    R = epsilon_delta_bisim(chain, args.eps, args.delta)
    related = init_pair in R
    report = {
        "related": related,
        "initial_pair": [chain.ids[init_pair[0]], chain.ids[init_pair[1]]],
        **relation_to_dict(R, chain),
    }
    if args.explain and not related:
        widened = PairRelation.from_off_diagonal([*R.off_diagonal(), init_pair], R.n, R.eps, R.delta)
        chk = is_bisimulation(chain, widened)
        report["explain"] = {
            "pair": [chain.ids[chk.pair[0]], chain.ids[chk.pair[1]]] if chk.pair else None,
            "condition": chk.condition,
            "detail": chk.detail,
        }
    _json(report, args.out)
    return 0 if related else 1


def _once(fn):
    """Zero-argument callable that runs ``fn`` on the first call only and
    afterwards returns its value or re-raises its error."""
    outcome = []

    def get():
        if not outcome:
            try:
                outcome.append((fn(), None))
            except Exception as e:
                outcome.append((None, e))
        value, error = outcome[0]
        if error is not None:
            raise error
        return value

    return get


def cmd_bounds(args) -> int:
    which = list(dict.fromkeys(w.strip() for w in args.which.split(",") if w.strip()))
    if not which:
        raise ValueError(f"--which names no bound column; choose from {_BOUND_NAMES}")
    unknown = [w for w in which if w not in _BOUND_NAMES]
    if unknown:
        raise ValueError(f"unknown bound column(s) {unknown}; choose from {_BOUND_NAMES}")
    M = load_model(args.model)
    Mn = _normal_form(M)
    grid = time_grid(args.tmax, args.steps)
    q = float(Mn.max_rate())
    # the spectral and combined columns share one decomposition
    spectral = _once(lambda: spectral_curve(Mn, args.delta, grid, args.tol))
    curve = BoundCurve(times=grid)
    for name in which:
        try:
            if name == "exact":
                col = exact_diff_curve(Mn, args.delta, grid, args.tol)
            elif name == "unif":
                col = [uniformization_bound(args.eps, args.delta, q, float(t)) for t in grid]
            elif name == "erlangN":
                col = _erlang_N_curve([q * float(t) for t in grid], args.delta)
            elif name == "markov":
                col = markov_curve(Mn, args.delta, grid, args.tol)
            elif name == "spectral":
                col = spectral()
            else:
                col = combined_bound(Mn, args.delta, grid, tol=args.tol, spectral=spectral)
        except (err.NotApplicable, *_NUMERICAL_ERRORS) as e:
            print(f"note: column {name!r} not applicable: {e}", file=sys.stderr)
            col = np.full(len(grid), np.nan)
        curve.add(name, col)
    if args.format == "json":
        _json(curve.to_json_dict(), args.out)
    else:
        _emit(curve.to_csv(), args.out)
    return 0


def cmd_pareto(args) -> int:
    region = pareto_region(args.theta, args.q, args.t)
    # a budget of 1 admits the origin alone
    points = region.frontier(args.samples) if region.budget > 1.0 else [(0.0, 0.0)]
    rows = [(eps, delta, uniformization_bound(eps, delta, args.q, args.t), region.contains(eps, delta))
            for eps, delta in points]
    _table(("eps", "delta", "bound", "within"), rows, args)
    return 0 if all(ok for *_, ok in rows) else 1


def cmd_reward_reach(args) -> int:
    chain = _clock_chain(load_model(args.model), args.state)
    report = {"budget": args.bound, "value": _budget_reach(chain, args.bound, args.tol)}
    if args.eps is not None or args.delta is not None:
        q_hat = 0.0 if chain is None else float(chain.max_rate())  # a goal start never moves
        report.update(q_hat=q_hat, bound=reward_bound(args.eps or 0.0, args.delta or 0.0, q_hat, args.bound))
    _json(report, args.out)
    return 0


def cmd_pair_uniformize(args) -> int:
    A = load_model(args.model)
    B = load_model(args.model_b)
    joint = direct_sum(A, B)
    if args.relation is not None:
        R = load_relation(args.relation, joint)
    else:
        R = epsilon_delta_bisim(joint, 0.0, args.delta)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = uniformize_pair(A, B, R, args.delta)
    notes = [str(w.message) for w in caught if issubclass(w.category, err.OrderingAssumptionViolated)]
    report = {
        "q_m": res.q_m,
        "q_n": res.q_n,
        "rate_ratio": res.q_n / res.q_m,
        "model_a": res.m_uniform,
        "model_b": res.n_uniform,
        "relation": relation_to_dict(res.relation, joint),
    }
    if notes:
        report["ordering_warning"] = notes[0]
    _json(report, args.out)
    return 0


def cmd_spectral_report(args) -> int:
    M = load_model(args.model)
    _json(spectral_report(M, args.tol), args.out)
    return 0


def cmd_pn(args) -> int:
    M = load_model(args.model)
    Mn = _normal_form(M)
    sd = decompose(Mn.P, tol=args.tol)
    fn = pn_diag if sd.kind == "diag" else pn_jordan
    oracle = hit_exact_steps(Mn, args.steps).probs
    rows = []
    for k in range(1, args.steps + 1):
        f, o = float(fn(sd, k)), float(oracle[k - 1])
        rows.append((k, f, o, abs(f - o)))
    _table(("n", "formula", "oracle", "abs_err"), rows, args)
    return 0


def cmd_simulate(args) -> int:
    M = load_model(args.model)
    Mn = _normal_form(M)
    res = simulate_paths(Mn, args.paths, args.t, args.seed, confidence=args.confidence)
    _json({**dataclasses.asdict(res), "horizon": args.t, "seed": args.seed}, args.out)
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _option(kind: type, ok, requirement: str):
    """argparse type: ``kind(text)`` if ``ok`` holds for it.  argparse puts
    the option's name in front of the error message."""

    def parse(text: str):
        try:
            x = kind(text)
        except ValueError:
            pass
        else:
            if ok(x):
                return x
        raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")

    return parse


def _at_least(low: float, strict: bool = False):
    """argparse type: a finite float >= low (> low when ``strict``)."""
    return _option(
        float,
        lambda x: math.isfinite(x) and (x > low if strict else x >= low),
        f"a finite number {'>' if strict else '>='} {low:g}",
    )


def _between(low: float, high: float):
    """argparse type: a float in the open interval (low, high)."""
    return _option(float, lambda x: low < x < high, f"a number in ({low:g}, {high:g})")


def _int_at_least(low: int):
    """argparse type: an integer >= low."""
    return _option(int, lambda x: x >= low, f"an integer >= {low}")


def _tol(text: str) -> float:
    """argparse type for ``--tol``: a float that ``transient._check_tol`` accepts."""
    try:
        tol = float(text)
        _check_tol(tol)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1), got {text!r}") from None
    return tol


_NONNEGATIVE = _at_least(0.0)
_POSITIVE = _at_least(0.0, strict=True)
_BUDGET = _option(float, lambda x: 0.0 <= x < 1.0, "a number in [0, 1)")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line, built once per process.  A subcommand's name
    names its function, ``cmd_<name>``, which ``main`` looks up on each
    call, so a replaced ``cmd_*`` is the one that runs."""
    p = argparse.ArgumentParser(
        prog="ctmcbisim",
        description="Approximate bisimulation and reachability error bounds for CTMCs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_model(sp):
        sp.add_argument("--model", "-m", "--model-a", dest="model", required=True, help="model JSON file")
        sp.add_argument("--out", default=None, help="output file (default stdout)")

    def add_tol(sp):
        sp.add_argument("--tol", type=_tol, default=1e-9,
                        help="truncation tolerance, a number in (0, 1); on bounds, pn and"
                        " spectral-report also the largest decomposition residual accepted")

    sp = sub.add_parser("check-bisim", help="compute the relation and check the initial states")
    add_model(sp)
    sp.add_argument("--model-b", default=None, help="second model (relation on the direct sum)")
    sp.add_argument("--eps", type=_NONNEGATIVE, default=0.0)
    sp.add_argument("--delta", type=_NONNEGATIVE, default=0.0)
    sp.add_argument("--explain", action="store_true", help="report why the initial pair fails")

    sp = sub.add_parser("bounds", help="error-bound curves against the exact difference")
    add_model(sp)
    add_tol(sp)
    sp.add_argument("--eps", type=_NONNEGATIVE, default=0.0)
    sp.add_argument("--delta", type=_NONNEGATIVE, required=True)
    sp.add_argument("--tmax", type=_NONNEGATIVE, default=30.0)
    sp.add_argument("--steps", type=_int_at_least(1), default=60)
    sp.add_argument("--which", default="exact,erlangN,spectral",
                    help=f"comma-separated columns from {_BOUND_NAMES}")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("pareto", help="sample the (eps, delta) frontier for a bound budget")
    sp.add_argument("--theta", type=_BUDGET, required=True, help="bound budget, in [0, 1)")
    sp.add_argument("--q", type=_POSITIVE, required=True)
    sp.add_argument("--t", type=_POSITIVE, required=True)
    sp.add_argument("--samples", type=_int_at_least(2), default=33)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("reward-reach", help="reward-bounded reachability probability")
    add_model(sp)
    add_tol(sp)
    sp.add_argument("--bound", type=_NONNEGATIVE, required=True, help="reward budget r")
    sp.add_argument("--state", default=None, help="start state id (default: initial)")
    sp.add_argument("--eps", type=_NONNEGATIVE, default=None)
    sp.add_argument("--delta", type=_NONNEGATIVE, default=None)

    sp = sub.add_parser("pair-uniformize", help="flatten a (0,delta)-related pair to uniform rates")
    add_model(sp)
    sp.add_argument("--model-b", required=True)
    sp.add_argument("--delta", type=_NONNEGATIVE, required=True)
    sp.add_argument("--relation", default=None,
                    help="relation JSON over the direct sum (default: greatest (0,delta) relation)")

    sp = sub.add_parser("spectral-report", help="eigenstructure of the goal-normalized jump matrix")
    add_model(sp)
    add_tol(sp)

    sp = sub.add_parser("pn", help="hitting-step formula vs. matrix-power oracle")
    add_model(sp)
    add_tol(sp)
    sp.add_argument("--steps", type=_int_at_least(0), default=30)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("simulate", help="seeded Monte Carlo time-bounded reachability")
    add_model(sp)
    sp.add_argument("--t", type=_NONNEGATIVE, required=True)
    sp.add_argument("--paths", type=_int_at_least(1), default=10_000)
    sp.add_argument("--seed", type=_int_at_least(0), default=0)
    sp.add_argument("--confidence", type=_between(0.0, 1.0), default=0.95)

    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (err.CtmcError, *_NUMERICAL_ERRORS, OSError, KeyError, ValueError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1 if isinstance(e, err.NegativeVerdict) else 3 if isinstance(e, _NUMERICAL_ERRORS) else 2


if __name__ == "__main__":
    sys.exit(main())
