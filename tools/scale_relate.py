"""Scaling ladder for the relation fixpoint (``epsilon_delta_bisim``).

Usage, from the root of a checkout:

    python3 tools/scale_relate.py --checkout PATH --label NAME [--out FILE]

Times ``epsilon_delta_bisim`` from the ``src/`` of the checkout at PATH on
two seeded chain families of ``bench/gen.py`` (this checkout's copy, so two
checkouts are timed on the same chains):

* ``sparse``: ``replicated_blocks`` at eps 0.1, delta 0.1 and n = 301,
  1001, 3001;
* ``dense``: ``dense_labeled`` at eps 0.1, delta 0 and n = 50, 100, 200.

Each run is one child process with BLAS pinned to one thread, so its max
RSS is that of its rung alone.  A rung runs ``RUNS`` times; the record
holds the median and quartiles of the seconds and the largest max RSS,
plus the number of related pairs and a digest of the relation, so two
labels can be checked for equal results.  Once a run passes
``SKIP_AFTER_S`` seconds, its rung runs no more and the larger rungs of
its family are skipped and recorded as skipped.  The record goes into FILE (default
``BENCH_relate.json``) under ``runs[NAME]``; other labels are kept.  If a
rung's relation digest differs from the one another label in FILE recorded
for that rung, the script still writes the record and then exits with
status 1, naming each such rung.  Only numpy and the standard library are
used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(os.path.dirname(HERE), "bench")
RUNS = 3
SKIP_AFTER_S = 30.0
SEED = 0
FAMILIES = {
    # family: (rungs, eps, delta)
    "sparse": ((301, 1001, 3001), 0.1, 0.1),
    "dense": ((50, 100, 200), 0.1, 0.0),
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child(src: str, family: str, n: int) -> dict:
    """One timed fixpoint in this process; returns its record."""
    sys.path[:0] = [src, BENCH]
    import numpy as np

    import gen
    from ctmcbisim import Ctmc, epsilon_delta_bisim, validate

    rng = np.random.default_rng(SEED)
    _, eps, delta = FAMILIES[family]
    d = gen.replicated_blocks(rng, n // gen.BLOCK, eps, delta) if family == "sparse" else gen.dense_labeled(rng, n)
    M = validate(Ctmc(**d))
    start = time.perf_counter()
    R = epsilon_delta_bisim(M, eps, delta)
    seconds = time.perf_counter() - start
    off = R.off_diagonal()
    return {
        "seconds": seconds,
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "related_pairs": len(off),
        "digest": hashlib.sha256(json.dumps(off).encode()).hexdigest()[:16],
    }


def run_rung(src: str, family: str, n: int) -> list[dict]:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    out = []
    for _ in range(RUNS):
        argv = [sys.executable, os.path.abspath(__file__), "--child", src, family, str(n)]
        res = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        out.append(json.loads(res.stdout.strip().splitlines()[-1]))
        if out[-1]["seconds"] > SKIP_AFTER_S:
            break
    return out


def summary(runs: list[dict]) -> dict:
    secs = sorted(r["seconds"] for r in runs)
    q1, q2, q3 = statistics.quantiles(secs, n=4, method="inclusive") if len(secs) > 1 else secs * 3
    digests = {r["digest"] for r in runs}
    return {
        "runs": len(runs),
        "median_s": round(q2, 4),
        "q1_s": round(q1, 4),
        "q3_s": round(q3, 4),
        "max_rss_mb": round(max(r["max_rss_mb"] for r in runs), 1),
        "related_pairs": runs[0]["related_pairs"],
        "digest": digests.pop() if len(digests) == 1 else "runs differ",
    }


def ladder(src: str) -> dict:
    out = {}
    for family, (rungs, _, _) in FAMILIES.items():
        skip = None
        for n in rungs:
            key = f"{family}{n}"
            if skip:
                out[key] = {"skipped": skip}
                continue
            runs = run_rung(src, family, n)
            out[key] = summary(runs)
            print(key, json.dumps(out[key]), flush=True)
            if runs[-1]["seconds"] > SKIP_AFTER_S:
                skip = f"{family}{n} ran past {SKIP_AFTER_S:g} s"
    return out


def main() -> None:
    if len(sys.argv) == 5 and sys.argv[1] == "--child":
        print(json.dumps(child(sys.argv[2], sys.argv[3], int(sys.argv[4]))))
        return
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", required=True, help="root of the checkout whose src/ is timed")
    ap.add_argument("--label", required=True, help="key of this ladder under runs[] in the output")
    ap.add_argument("--out", default="BENCH_relate.json")
    args = ap.parse_args()
    src = os.path.join(os.path.abspath(args.checkout), "src")
    if not os.path.isdir(os.path.join(src, "ctmcbisim")):
        ap.error(f"no src/ctmcbisim under {args.checkout}")
    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["harness"] = (
        f"tools/scale_relate.py: epsilon_delta_bisim, seed {SEED}, {RUNS} runs per rung in child "
        f"processes with BLAS on one thread; larger rungs skipped after a run past {SKIP_AFTER_S:g} s"
    )
    rungs = ladder(src)
    doc.setdefault("runs", {})[args.label] = {
        "machine": {"nproc": os.cpu_count(), "cpu": platform.processor() or platform.machine(),
                    "python": platform.python_version()},
        "rungs": rungs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    differ = []
    for other, run in doc["runs"].items():
        for key, rec in rungs.items():
            theirs = run["rungs"].get(key, {}).get("digest")
            if other != args.label and "digest" in rec and theirs not in (None, rec["digest"]):
                differ.append(f"{key} ({args.label} {rec['digest']}, {other} {theirs})")
    if differ:
        sys.exit("relation digest differs on " + ", ".join(differ))


if __name__ == "__main__":
    main()
