"""Shared driver of the scaling ladders in this directory.

A ladder script defines ``setup(family, n)``, which builds a rung's inputs
untimed and returns ``(call, describe)``: :func:`measure` times ``call()``,
reads the max RSS right after it, and only then runs ``describe(result)``
for the record's other fields and the value its digest covers.  The script
hands ``setup`` to :func:`main` with its families of rungs.
:func:`main` then gives the script this command line:

    python3 tools/SCRIPT.py --checkout PATH --label NAME [--out FILE]

It times the ``src/`` of the checkout at PATH on the chains of this
checkout's ``bench/gen.py``, so two checkouts are timed on the same chains.
Each run is one child process with BLAS pinned to one thread, so its max
RSS is that of its rung alone.  A rung runs ``RUNS`` times; the record
holds the median and quartiles of the seconds and the largest max RSS,
plus the other fields of the first run and the digest, so two labels can
be checked for equal results.  Once a run passes ``SKIP_AFTER_S`` seconds,
its rung runs no more and the larger rungs of its family are skipped and
recorded as skipped.  The record goes
into FILE under ``runs[NAME]``; other labels are kept.  If a rung's digest
differs from the one another label in FILE recorded for that rung, the
script still writes the record and then exits with status 1, naming each
such rung.  Only numpy and the standard library are used.
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
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(os.path.dirname(HERE), "bench")
RUNS = 3
SKIP_AFTER_S = 30.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(setup: Callable, src: str, family: str, n: int) -> dict:
    """One timed rung in this process, with ``src`` and this checkout's
    ``bench/`` first on ``sys.path``; returns its record."""
    sys.path[:0] = [src, BENCH]
    call, describe = setup(family, n)
    start = time.perf_counter()
    result = call()
    seconds = time.perf_counter() - start
    rss = max_rss_mb()
    fields, digested = describe(result)
    return {"seconds": seconds, "max_rss_mb": rss, **fields,
            "digest": hashlib.sha256(json.dumps(digested).encode()).hexdigest()[:16]}


def run_rung(script: str, src: str, family: str, n: int) -> list[dict]:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    out = []
    for _ in range(RUNS):
        argv = [sys.executable, os.path.abspath(script), "--child", src, family, str(n)]
        res = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        out.append(json.loads(res.stdout.strip().splitlines()[-1]))
        if out[-1]["seconds"] > SKIP_AFTER_S:
            break
    return out


def summary(runs: list[dict]) -> dict:
    secs = sorted(r["seconds"] for r in runs)
    q1, q2, q3 = statistics.quantiles(secs, n=4, method="inclusive") if len(secs) > 1 else secs * 3
    digests = {r["digest"] for r in runs}
    fields = {k: v for k, v in runs[0].items() if k not in ("seconds", "max_rss_mb", "digest")}
    return {
        "runs": len(runs),
        "median_s": round(q2, 4),
        "q1_s": round(q1, 4),
        "q3_s": round(q3, 4),
        "max_rss_mb": round(max(r["max_rss_mb"] for r in runs), 1),
        **fields,
        "digest": digests.pop() if len(digests) == 1 else "runs differ",
    }


def ladder(script: str, src: str, families: dict[str, tuple[int, ...]]) -> dict:
    out = {}
    for family, rungs in families.items():
        skip = None
        for n in rungs:
            key = f"{family}{n}"
            if skip:
                out[key] = {"skipped": skip}
                continue
            runs = run_rung(script, src, family, n)
            out[key] = summary(runs)
            print(key, json.dumps(out[key]), flush=True)
            if runs[-1]["seconds"] > SKIP_AFTER_S:
                skip = f"{family}{n} ran past {SKIP_AFTER_S:g} s"
    return out


def main(script: str, setup: Callable, families: dict[str, tuple[int, ...]],
         harness: str, out: str, digest_of: str) -> None:
    """Run :func:`measure` for ``--child SRC FAMILY N``, else the ladder of
    ``script`` as described above.  ``harness`` describes the timed call
    (RUNS, SKIP_AFTER_S and the process setup are appended), ``out`` is
    the default FILE and ``digest_of`` names what the digest covers."""
    if len(sys.argv) == 5 and sys.argv[1] == "--child":
        print(json.dumps(measure(setup, sys.argv[2], sys.argv[3], int(sys.argv[4]))))
        return
    ap = argparse.ArgumentParser(description=harness)
    ap.add_argument("--checkout", required=True, help="root of the checkout whose src/ is timed")
    ap.add_argument("--label", required=True, help="key of this ladder under runs[] in the output")
    ap.add_argument("--out", default=out)
    args = ap.parse_args()
    src = os.path.join(os.path.abspath(args.checkout), "src")
    if not os.path.isdir(os.path.join(src, "ctmcbisim")):
        ap.error(f"no src/ctmcbisim under {args.checkout}")
    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["harness"] = (
        f"{harness}, {RUNS} runs per rung in child processes with BLAS on one thread; "
        f"larger rungs skipped after a run past {SKIP_AFTER_S:g} s"
    )
    rungs = ladder(script, src, families)
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
        sys.exit(f"{digest_of} digest differs on " + ", ".join(differ))
