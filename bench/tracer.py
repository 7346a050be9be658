"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces each listed public function of ``ctmcbisim``
with a timing wrapper, in every module namespace that holds it, so calls
between modules are seen too.  Each wrapper records calls and self time:
its own duration minus the time spent in wrapped functions it called.
``uninstall()`` restores the originals.  Nothing inside the package changes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

from ctmcbisim.bisim import DELTA_SLACK

LAYERS = {
    "model": ("load_model", "validate", "normalize_goal", "prune_unreachable", "direct_sum", "uniformize"),
    "bisim": ("epsilon_delta_bisim", "is_bisimulation", "compose", "strong_bisim", "extract_coupling"),
    "transient": (
        "timed_reach",
        "timed_reach_curve",
        "poisson_weights",
        "hit_exact_steps",
        "reach_prob",
        "expected_hit_steps",
        "diff_curve",
        "simulate_paths",
    ),
    "erlang": ("exact_diff_series", "markov_bound", "erlang_diff_prefix", "erlang_N_bound", "uniformization_bound"),
    "spectral": (
        "decompose",
        "is_embedded_acyclic",
        "acyclic_exact",
        "diag_bound",
        "jordan_bound",
        "combined_bound",
        "pn_diag",
        "pn_jordan",
        "spectral_report",
    ),
    "rewards": ("reward_reach", "eliminate_zero_reward_states", "hat_transform"),
    "pairuniform": ("uniformize_pair",),
    "curves": ("BoundCurve.to_csv", "BoundCurve.to_json_dict"),
    "cli": (
        "main",
        "cmd_check_bisim",
        "cmd_bounds",
        "cmd_reward_reach",
        "cmd_pair_uniformize",
        "cmd_spectral_report",
        "cmd_pn",
        "cmd_simulate",
    ),
}

# Work counts taken from each call's arguments and result.
COUNTS = (
    "transient.poisson_weights.terms",
    "transient.hit_exact_steps.steps",
    "transient.simulate_paths.paths",
    "erlang.erlang_diff_prefix.terms",
    "bisim.candidate_pairs",
    "bisim.related_pairs",
)

def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _candidate_pairs(M, delta: float) -> int:
    """Unordered state pairs the fixpoint starts from: equal labels, equal
    rewards, exit rates within e^delta."""
    ln_e = np.log(M.E)
    same = np.abs(ln_e[:, None] - ln_e[None, :]) <= delta + DELTA_SLACK
    codes = {ls: i for i, ls in enumerate(set(M.label_sets))}
    lab = np.array([codes[ls] for ls in M.label_sets])
    same &= lab[:, None] == lab[None, :]
    if M.rewards is not None:
        same &= M.rewards[:, None] == M.rewards[None, :]
    return int((np.count_nonzero(same) - M.n) // 2)


def _count(key: str, counts: dict, args, kwargs, result) -> None:
    if key == "transient.poisson_weights":
        counts["transient.poisson_weights.terms"] += len(result)
    elif key == "transient.hit_exact_steps":
        counts["transient.hit_exact_steps.steps"] += int(_arg(args, kwargs, 1, "K"))
    elif key == "transient.simulate_paths":
        counts["transient.simulate_paths.paths"] += int(_arg(args, kwargs, 1, "n"))
    elif key == "erlang.erlang_diff_prefix":
        counts["erlang.erlang_diff_prefix.terms"] += int(_arg(args, kwargs, 2, "n_max"))
    elif key == "bisim.epsilon_delta_bisim":
        M = _arg(args, kwargs, 0, "M")
        counts["bisim.candidate_pairs"] += _candidate_pairs(M, float(_arg(args, kwargs, 2, "delta")))
        counts["bisim.related_pairs"] += len(result.off_diagonal())


class Tracer:
    def __init__(self) -> None:
        self.keys = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
        self.reset()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s = dict.fromkeys(self.keys, 0.0)
        self.calls = dict.fromkeys(self.keys, 0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._child = [0.0]  # time spent in wrapped callees, one slot per open span

    def _wrap(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self.self_s[key] += dur - self._child.pop()
                self.calls[key] += 1
                self._child[-1] += dur  # the caller's self time excludes this span
            if key in _COUNTED:
                t1 = time.perf_counter()
                _count(key, self.counts, args, kwargs, result)
                self._child[-1] += time.perf_counter() - t1
            return result

        return wrapper

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "ctmcbisim"]
        for layer, fns in LAYERS.items():
            home = importlib.import_module(f"ctmcbisim.{layer}")
            for name in fns:
                key = f"{layer}.{name}"
                if "." in name:  # a method: patch it on its class
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._patches.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(key, orig))
                    continue
                orig = getattr(home, name)
                wrapped = self._wrap(key, orig)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    def snapshot(self) -> dict[str, float]:
        """Flat per-pass metrics: per-function self time and calls, per-layer
        self time, and the work counts."""
        out: dict[str, float] = {}
        for layer, fns in LAYERS.items():
            total = 0.0
            for fn in fns:
                key = f"{layer}.{fn}"
                out[f"{key}.self_s"] = self.self_s[key]
                out[f"{key}.calls"] = self.calls[key]
                total += self.self_s[key]
            out[f"{layer}.self_s"] = total
        out.update(self.counts)
        cand = self.counts["bisim.candidate_pairs"]
        out["bisim.kept_ratio"] = self.counts["bisim.related_pairs"] / cand if cand else 0.0
        return out


_COUNTED = {
    "transient.poisson_weights",
    "transient.hit_exact_steps",
    "transient.simulate_paths",
    "erlang.erlang_diff_prefix",
    "bisim.epsilon_delta_bisim",
}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every metric ``snapshot`` returns."""
    out = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            out += [(f"{layer}.{fn}.self_s", "s"), (f"{layer}.{fn}.calls", "count")]
        out.append((f"{layer}.self_s", "s"))
    out += [(c, "count") for c in COUNTS]
    out.append(("bisim.kept_ratio", "1"))
    return out
