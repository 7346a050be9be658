"""Self-test of the benchmark, run from the root of a checkout:

    python3 bench/selftest.py

1. A smoke run of every workload at tiny size, untraced and traced, must
   pass its checks and emit every metric that BENCHMARK.json names, with
   its unit.
2. Planted wrong outputs must fail the checks: a relation missing one
   off-diagonal pair, a bound column pushed below ``exact``, and a
   simulation estimate off by 5%.  Each real output must pass first.
3. In a directory holding only BENCHMARK.json and the benchmark, the run
   must exit non-zero without printing a result.

Exits 0 when everything holds; prints one line per failure otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN = os.path.join(HERE, "run.py")


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def _remove(path: str) -> None:
    """Delete ``path`` and, if nothing else is left in it, ``.bench_work``."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:
        pass


def smoke(spec: dict) -> list[str]:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1", "--seconds", "0",
                   "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            result = _last_json(proc.stdout)
            tag = f"smoke {workload} trace={trace}"
            if proc.returncode != 0 or result is None:
                problems.append(f"{tag}: exit {proc.returncode}, stderr {proc.stderr[-300:]!r}")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: checks failed: {proc.stderr[-300:]!r}")
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{tag}: metric {m['name']} missing or with the wrong unit")
            extra = set(result["metrics"]) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{tag}: metrics not in BENCHMARK.json: {sorted(extra)[:5]}")
    return problems


def planted() -> list[str]:
    """Run one real job per case at full size with the default seed, then
    feed its check a deliberately wrong output."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import run
    import workloads
    from ctmcbisim import PairRelation

    workdir = os.path.join(ROOT, ".bench_work", f"selftest-{os.getpid()}")

    def job_and_output(workload: str, job_name: str):
        os.makedirs(workdir, exist_ok=True)
        ctx = workloads.Context(seed=run.DEFAULT_SEED, workdir=workdir, size="full",
                                reference=run._load_reference(workload))
        jobs = {j.name: j for j in workloads.WORKLOADS[workload](ctx)}
        job = jobs[job_name]
        scratch: dict = {}
        return job, job.run(scratch), scratch

    def drop_pair(R):
        s, t = R.off_diagonal()[0]
        return PairRelation(R.n, R.pairs - {(s, t), (t, s)}, R.eps, R.delta)

    def push_below_exact(res):
        code, out, err = res
        lines = out.strip().splitlines()
        names = lines[0].split(",")
        cells = lines[-1].split(",")
        exact = float(cells[names.index("exact")])
        cells[names.index("markov")] = repr(exact - 1e-6)
        return code, "\n".join(lines[:-1] + [",".join(cells)]) + "\n", err

    def off_by_5_percent(res):
        hits = int(round(res.hits * 1.05))
        return dataclasses.replace(res, hits=hits, estimate=hits / res.paths)

    cases = [
        ("relation missing one pair", "relate", "bisim:sparse101#0", drop_pair),
        ("bound column below exact", "bounds", "cli:bounds:uniform30#0", push_below_exact),
        ("simulation off by 5%", "transient", "sim:uniform200#0", off_by_5_percent),
    ]
    problems = []
    try:
        for label, workload, job_name, corrupt in cases:
            job, out, scratch = job_and_output(workload, job_name)
            msg = job.check(out, scratch)
            if msg:
                problems.append(f"planted {label}: the real output fails: {msg}")
            if not job.check(corrupt(out), scratch):
                problems.append(f"planted {label}: the wrong output passes the check")
    finally:
        _remove(workdir)
    return problems


def bare_directory() -> list[str]:
    """Without the package next to it, the run must fail without a result."""
    bare = os.path.join(ROOT, ".bench_work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        cmd = [sys.executable, os.path.join(os.path.basename(HERE), "run.py"), "--workload", "relate",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        _remove(bare)
    if proc.returncode == 0 or _last_json(proc.stdout) is not None:
        return [f"bare directory: exit {proc.returncode} with output {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = smoke(spec) + planted() + bare_directory()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
