"""The three workloads: their inputs, their jobs and the checks on each job.

A workload's ``setup`` generates its chains from the seed, builds the
library chains for in-process jobs and writes model files for CLI jobs.
It returns a list of :class:`Job`.  A job's ``run`` is the timed call; its
``check`` runs afterwards, untimed, and returns an error message or None.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gen

import ctmcbisim as cb
from ctmcbisim import cli

RUNGS = ("small", "mid", "large")


@dataclass
class Job:
    name: str
    rung: str
    is_cli: bool
    run: Callable[[dict], object]  # gets the pass's scratch dict, returns the output
    check: Callable[[object, dict], str | None]  # (output, scratch) -> error or None
    group: str = ""  # jobs of one group run back to back, in order (default: the job alone)


def interleave(jobs: list[Job]) -> list[Job]:
    """Spread the groups of each category (rung, CLI or not) evenly over the
    pass, so every metric averages machine-speed drift over the whole pass
    rather than over one stretch of it."""
    groups: dict[str, list[Job]] = {}
    for job in jobs:
        groups.setdefault(job.group or job.name, []).append(job)
    categories: dict[tuple, list[list[Job]]] = {}
    for members in groups.values():
        categories.setdefault((members[0].rung, members[0].is_cli), []).append(members)
    keyed = [((i + 0.5) / len(gs), cat, i, g) for cat, gs in categories.items() for i, g in enumerate(gs)]
    keyed.sort(key=lambda item: item[:3])
    return [job for *_, members in keyed for job in members]


@dataclass
class Context:
    seed: int
    workdir: str
    size: str  # "full" or "tiny"
    reference: dict  # outputs recorded for the default seed, or {}
    recording: dict | None = None  # when set, checks store their outputs here instead


def _ctmc(chain: dict):
    return cb.validate(cb.Ctmc(**chain))


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_ok(res) -> str | None:
    code, _, err = res
    return None if code == 0 else f"exit {code}: {err.strip()[:200]}"


def _digest(pairs) -> str:
    return hashlib.sha256(repr(list(pairs)).encode()).hexdigest()[:16]


def _against_reference(ctx: Context, key: str, value, tol: float | None = None) -> str | None:
    """Compare with the value recorded for the default seed, when there is one."""
    if ctx.recording is not None:
        ctx.recording[key] = value
        return None
    if key not in ctx.reference:
        return None
    want = ctx.reference[key]
    if tol is None:
        return None if value == want else f"{key}: {value!r} != recorded {want!r}"
    got = np.asarray(value, dtype=float)
    exp = np.asarray(want, dtype=float)
    if got.shape != exp.shape or np.any(np.abs(got - exp) > tol):
        return f"{key}: differs from the recorded reference by more than {tol}"
    return None


def _first_error(*messages) -> str | None:
    return next((m for m in messages if m), None)


# --------------------------------------------------------------------------
# relate
# --------------------------------------------------------------------------

RELATE = {
    # rung: (dense n, dense count, sparse blocks, sparse count);
    # pairs: (blocks, count) of the chain pairs for the CLI jobs
    "full": {"small": (20, 24, 10, 3), "mid": (28, 3, 20, 0), "large": (40, 2, 30, 1), "pairs": (6, 4)},
    "tiny": {"small": (8, 2, 4, 1), "mid": (10, 1, 4, 1), "large": (12, 1, 5, 1), "pairs": (4, 1)},
}
DENSE_EPS, DENSE_DELTA = 0.1, 0.0
SPARSE_EPS, SPARSE_DELTA = 0.1, 0.1


def _relation_jobs(ctx: Context, rung: str, name: str, M, eps: float, delta: float, planted) -> list[Job]:
    def fixpoint(scratch):
        R = cb.epsilon_delta_bisim(M, eps, delta)
        scratch[name] = R
        return R

    def check_fixpoint(R, scratch) -> str | None:
        pairs = set(R.pairs)
        strong = cb.strong_bisim(M).as_relation(eps, delta)
        return _first_error(
            None if strong.pairs <= pairs else "R misses a pair of the strong-bisimulation partition",
            None if planted is None or set(planted) <= pairs else "R misses a planted within-block pair",
            _against_reference(ctx, f"{name}.off_diagonal", _digest(R.off_diagonal())),
        )

    def verify(scratch):
        return cb.is_bisimulation(M, scratch[name])

    def check_verify(res, scratch) -> str | None:
        return None if res.ok else f"is_bisimulation failed at {res.pair}: {res.condition} {res.detail}"

    def compose(scratch):
        return cb.compose(scratch[name], scratch[name])

    def check_compose(C, scratch) -> str | None:
        # R is reflexive, so R . R contains R
        return None if set(C.pairs) >= set(scratch[name].pairs) else "compose(R, R) lost a pair of R"

    return [
        Job(f"bisim:{name}", rung, False, fixpoint, check_fixpoint, group=name),
        Job(f"verify:{name}", rung, False, verify, check_verify, group=name),
        Job(f"compose:{name}", rung, False, compose, check_compose, group=name),
    ]


def _check_bisim_out(res, scratch) -> str | None:
    if res[0] != 0:
        return _cli_ok(res)
    return None if json.loads(res[1])["related"] is True else "check-bisim: initial states not related"


def _pair_uniform_out(res, scratch) -> str | None:
    if res[0] != 0:
        return _cli_ok(res)
    ratio = json.loads(res[1])["rate_ratio"]
    return None if abs(ratio - math.exp(0.2)) <= 1e-12 else f"pair-uniformize: rate ratio {ratio}"


def relate(ctx: Context) -> list[Job]:
    rng = np.random.default_rng([ctx.seed, 1])
    sizes = RELATE[ctx.size]
    jobs: list[Job] = []
    for rung in RUNGS:
        dense_n, dense_count, blocks, sparse_count = sizes[rung]
        for i in range(dense_count):
            M = _ctmc(gen.dense_labeled(rng, dense_n))
            jobs += _relation_jobs(ctx, rung, f"dense{dense_n}#{i}", M, DENSE_EPS, DENSE_DELTA, None)
        for i in range(sparse_count):
            M = _ctmc(gen.replicated_blocks(rng, blocks, SPARSE_EPS, SPARSE_DELTA))
            planted = [(s, t) for a, b in gen.planted_pairs(blocks) for s, t in ((a, b), (b, a))]
            jobs += _relation_jobs(ctx, rung, f"sparse{M.n}#{i}", M, SPARSE_EPS, SPARSE_DELTA, planted)

    # CLI on sparse chains and copies with perturbed rates: the initial
    # states are related by construction at (0, 0.1) and at (0, 0.2).
    # With eps = 0 the number of fixpoint sweeps hardly varies by seed.
    blocks, count = sizes["pairs"]
    for i in range(count):
        a = gen.replicated_blocks(rng, blocks, SPARSE_EPS, SPARSE_DELTA)
        b = gen.perturbed_rates(rng, a, SPARSE_DELTA)
        name = f"pair{2 * len(a['ids'])}#{i}"
        path_a = os.path.join(ctx.workdir, f"{name}a.json")
        path_b = os.path.join(ctx.workdir, f"{name}b.json")
        gen.write_model(a, path_a)
        gen.write_model(b, path_b)
        check_argv = ["check-bisim", "-m", path_a, "--model-b", path_b,
                      "--eps", "0", "--delta", str(SPARSE_DELTA)]
        pair_argv = ["pair-uniformize", "-m", path_a, "--model-b", path_b, "--delta", "0.2"]
        jobs += [
            Job(f"cli:check-bisim:{name}", "mid", True, lambda s, a=check_argv: _run_cli(a), _check_bisim_out),
            Job(f"cli:pair-uniformize:{name}", "mid", True, lambda s, a=pair_argv: _run_cli(a), _pair_uniform_out),
        ]
    return jobs


# --------------------------------------------------------------------------
# bounds
# --------------------------------------------------------------------------

BOUNDS = {
    # rung: [(family, n, count, jobs)]
    "full": {
        "small": [("uniform", 30, 3, ("bounds",)), ("jordan", 40, 1, ("bounds", "pn", "spectral-report"))],
        "mid": [("uniform", 60, 1, ("bounds",))],
        "large": [("uniform", 120, 2, ("bounds", "pn", "spectral-report")), ("dag", 120, 1, ("bounds",))],
    },
    "tiny": {
        "small": [("uniform", 6, 1, ("bounds",)), ("jordan", 8, 1, ("bounds", "pn", "spectral-report"))],
        "mid": [("uniform", 8, 1, ("bounds",))],
        "large": [("uniform", 10, 1, ("bounds", "pn", "spectral-report")), ("dag", 10, 1, ("bounds",))],
    },
}
BOUND_DELTA, TMAX, STEPS = 0.1, 30.0, 60
ALL_COLUMNS = "exact,unif,erlangN,markov,spectral,combined"
DAG_COLUMNS = "exact,spectral,combined"


def _parse_csv(text: str) -> dict[str, np.ndarray]:
    lines = text.strip().splitlines()
    names = lines[0].split(",")
    rows = [[float(c) if c else math.nan for c in line.split(",")] for line in lines[1:]]
    table = np.array(rows)
    return {name: table[:, j] for j, name in enumerate(names)}


def _bounds_check(ctx: Context, name: str, M):
    def check(res, scratch) -> str | None:
        if res[0] != 0:
            return _cli_ok(res)
        cols = _parse_csv(res[1])
        exact = cols["exact"]
        errors = []
        for col, values in cols.items():
            if col in ("t", "exact"):
                continue
            ok = np.isnan(values) | np.isnan(exact) | (values >= exact - 1e-12)
            if not ok.all():
                errors.append(f"column {col} falls below exact at t={cols['t'][~ok][0]}")
        Mn = cb.normalize_goal(cb.prune_unreachable(M))
        truth = cb.diff_curve(Mn, math.exp(BOUND_DELTA), cols["t"])
        if np.any(np.abs(exact - truth) > 1e-8):
            errors.append("exact column disagrees with diff_curve by more than 1e-8")
        empty = sorted(col for col, values in cols.items() if np.isnan(values).any())
        errors.append(_against_reference(ctx, f"{name}.empty_columns", empty))
        return _first_error(*errors)

    return check


def _pn_check(res, scratch) -> str | None:
    if res[0] != 0:
        return _cli_ok(res)
    err = _parse_csv(res[1])["abs_err"]
    return None if np.all(err <= 1e-9) else f"pn: abs_err up to {err.max():.3g} > 1e-9"


def _spectral_check(ctx: Context, name: str, family: str):
    def check(res, scratch) -> str | None:
        if res[0] != 0:
            return _cli_ok(res)
        kind = json.loads(res[1])["kind"]
        if family == "jordan" and kind != "jordan":
            return f"spectral-report: kind {kind!r}, the Jordan-pair chain needs 'jordan'"
        return _against_reference(ctx, f"{name}.kind", kind)

    return check


_FAMILIES = {
    "uniform": gen.uniform_dense,
    "dag": gen.random_dag,
    "jordan": lambda rng, n: gen.jordan_pairs(rng, (n - 2) // 2),
}


def bounds(ctx: Context) -> list[Job]:
    rng = np.random.default_rng([ctx.seed, 2])
    jobs: list[Job] = []
    for rung in RUNGS:
        for family, n, count, kinds in BOUNDS[ctx.size][rung]:
            for i in range(count):
                chain = _FAMILIES[family](rng, n)
                name = f"{family}{n}#{i}"
                path = os.path.join(ctx.workdir, f"{name}.json")
                gen.write_model(chain, path)
                M = _ctmc(chain)
                for kind in kinds:
                    if kind == "bounds":
                        which = DAG_COLUMNS if family == "dag" else ALL_COLUMNS
                        argv = ["bounds", "-m", path, "--delta", str(BOUND_DELTA), "--tmax", str(TMAX),
                                "--steps", str(STEPS), "--which", which]
                        check = _bounds_check(ctx, name, M)
                    elif kind == "pn":
                        argv = ["pn", "-m", path, "--steps", str(STEPS)]
                        check = _pn_check
                    else:
                        argv = ["spectral-report", "-m", path]
                        check = _spectral_check(ctx, name, family)
                    jobs.append(Job(f"cli:{kind}:{name}", rung, True, lambda s, a=argv: _run_cli(a), check))
    return jobs


# --------------------------------------------------------------------------
# transient
# --------------------------------------------------------------------------

TRANSIENT = {
    "full": {"curve_small": (200, 8), "sim_small": 20_000, "reward": (150, 6),
             "curve_large": 800, "long": 400, "sim_large": 100_000, "diff": 200},
    "tiny": {"curve_small": (8, 1), "sim_small": 500, "reward": (8, 1),
             "curve_large": 12, "long": 10, "sim_large": 1000, "diff": 8},
}
SIM_T = 10.0
SIM_CONFIDENCE = 1.0 - 1e-6
REWARD_ARGS = ("--bound", "5", "--eps", "0.05", "--delta", "0.1")


def _uniformization_oracle(M, grid) -> np.ndarray:
    """Goal probability at every grid time by the benchmark's own
    uniformization sum (rate-1 chains, truncated at mass 1 - 1e-14)."""
    q = float(np.max(M.E))
    D = np.eye(M.n) + (M.P - np.eye(M.n)) * (M.E / q)[:, None]
    mus = q * np.asarray(grid, dtype=float)
    K = int(math.ceil(mus.max() + 12.0 * math.sqrt(mus.max() + 1.0) + 40.0))
    v = np.zeros(M.n)
    v[M.initial] = 1.0
    goal = np.empty(K + 1)
    for k in range(K + 1):
        goal[k] = v[M.goal[0]]
        v = v @ D
    ks = np.arange(K + 1)
    lgam = np.array([math.lgamma(k + 1.0) for k in ks])
    out = np.empty(len(mus))
    for i, mu in enumerate(mus):
        w = np.exp(-mu + ks * math.log(mu) - lgam) if mu > 0 else (ks == 0).astype(float)
        out[i] = float(np.dot(w, goal))
    return out


def _curve_check(ctx: Context, name: str, M, grid):
    def check(curve, scratch) -> str | None:
        c = np.asarray(curve)
        oracle = _uniformization_oracle(M, grid)
        return _first_error(
            None if np.all((c >= 0.0) & (c <= 1.0)) else "curve leaves [0, 1]",
            # each point may be short by up to the truncation tolerance 1e-9
            None if np.all(np.diff(c) >= -1e-9) else "curve is not monotone",
            None if np.all(np.abs(c - oracle) <= 2e-9) else "curve disagrees with the uniformization oracle",
            _against_reference(ctx, f"{name}.curve", c.tolist(), tol=1e-9),
        )

    return check


def _sim_check(ctx: Context, name: str, M):
    def check(res, scratch) -> str | None:
        if isinstance(res, tuple):  # CLI output
            if res[0] != 0:
                return _cli_ok(res)
            rep = json.loads(res[1])
            hits, low, high = rep["hits"], rep["ci_low"], rep["ci_high"]
        else:
            hits, low, high = res.hits, res.ci_low, res.ci_high
        truth = cb.timed_reach(M, None, SIM_T, tol=1e-12)
        return _first_error(
            None if low <= truth <= high else f"{name}: timed_reach {truth:.6g} outside [{low:.6g}, {high:.6g}]",
            _against_reference(ctx, f"{name}.hits", hits),
        )

    return check


def _reward_check(ctx: Context, name: str):
    def check(res, scratch) -> str | None:
        if res[0] != 0:
            return _cli_ok(res)
        rep = json.loads(res[1])
        value, bound = rep["value"], rep["bound"]
        return _first_error(
            None if 0.0 <= value <= 1.0 and 0.0 <= bound <= 1.0 else f"{name}: value or bound outside [0, 1]",
            _against_reference(ctx, f"{name}.value", [value, bound], tol=1e-9),
        )

    return check


def _diff_check(ctx: Context, name: str, M, grid):
    def check(curve, scratch) -> str | None:
        c = np.asarray(curve)
        fast = cb.scale(M, math.exp(BOUND_DELTA))
        oracle = np.abs(_uniformization_oracle(fast, grid) - _uniformization_oracle(M, grid))
        return _first_error(
            None if np.all(np.abs(c - oracle) <= 4e-9) else "diff_curve disagrees with the uniformization oracle",
            _against_reference(ctx, f"{name}.curve", c.tolist(), tol=1e-9),
        )

    return check


def transient(ctx: Context) -> list[Job]:
    rng = np.random.default_rng([ctx.seed, 3])
    size = TRANSIENT[ctx.size]
    grid30 = cb.time_grid(TMAX, STEPS)
    grid300 = cb.time_grid(10.0 * TMAX, STEPS)
    jobs: list[Job] = []

    def curve_job(rung, name, M, grid):
        return Job(f"curve:{name}", rung, False, lambda s: cb.timed_reach_curve(M, grid), _curve_check(ctx, name, M, grid))

    n, count = size["curve_small"]
    small = [_ctmc(gen.uniform_dense(rng, n)) for _ in range(count)]
    jobs += [curve_job("small", f"uniform{n}#{i}", M, grid30) for i, M in enumerate(small)]
    paths = size["sim_small"]
    jobs.append(Job(f"sim:uniform{n}#0", "small", False,
                    lambda s: cb.simulate_paths(small[0], paths, SIM_T, ctx.seed, confidence=SIM_CONFIDENCE),
                    _sim_check(ctx, f"sim:uniform{n}#0", small[0])))
    n, count = size["reward"]
    for i in range(count):
        path = os.path.join(ctx.workdir, f"reward{n}#{i}.json")
        gen.write_model(gen.rewarded(rng, n), path)
        jobs.append(Job(f"cli:reward-reach:reward{n}#{i}", "small", True,
                        lambda s, p=path: _run_cli(["reward-reach", "-m", p, *REWARD_ARGS]),
                        _reward_check(ctx, f"reward{n}#{i}")))

    n = size["curve_large"]
    big_chain = gen.uniform_dense(rng, n)
    big = _ctmc(big_chain)
    big_path = os.path.join(ctx.workdir, f"uniform{n}.json")
    gen.write_model(big_chain, big_path)
    jobs.append(curve_job("large", f"uniform{n}", big, grid30))
    n_long = size["long"]
    jobs.append(curve_job("large", f"uniform{n_long}-long", _ctmc(gen.uniform_dense(rng, n_long)), grid300))
    paths = size["sim_large"]
    jobs.append(Job(f"sim:uniform{n}", "large", False,
                    lambda s: cb.simulate_paths(big, paths, SIM_T, ctx.seed, confidence=SIM_CONFIDENCE),
                    _sim_check(ctx, f"sim:uniform{n}", big)))
    argv = ["simulate", "-m", big_path, "--t", str(SIM_T), "--paths", str(paths),
            "--seed", str(ctx.seed), "--confidence", repr(SIM_CONFIDENCE)]
    jobs.append(Job(f"cli:simulate:uniform{n}", "large", True, lambda s: _run_cli(argv),
                    _sim_check(ctx, f"cli:simulate:uniform{n}", big)))
    n_diff = size["diff"]
    D = _ctmc(gen.uniform_dense(rng, n_diff))
    jobs.append(Job(f"diff:uniform{n_diff}", "large", False,
                    lambda s: cb.diff_curve(D, math.exp(BOUND_DELTA), grid30),
                    _diff_check(ctx, f"diff:uniform{n_diff}", D, grid30)))
    return jobs


WORKLOADS = {"relate": relate, "bounds": bounds, "transient": transient}
