"""Benchmark for ctmcbisim: one workload per run, closed loop, one process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload relate|bounds|transient --seed N \\
        --seconds S --trace 0|1

The run imports the package from ``src/`` of the checkout, generates the
workload's inputs from the seed (writing model files under ``.bench_work/``)
and then repeats passes over the workload's jobs, one job at a time, as
long as the next pass should end within ``--seconds`` (at least one pass).  Outputs of the first pass
go through the workload's checks, later passes must reproduce them exactly;
no check is timed.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are end-to-end
(medians over passes); with ``--trace 1`` untraced and traced passes
alternate, and the metrics are per-layer self times and counts from the
traced passes plus the tracing overhead.  Earlier lines describe the
machine and each pass.
"""

from __future__ import annotations

import os
import time

# Pin BLAS to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import calib  # noqa: E402  (bench/ is on sys.path: it holds this script)

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 5
# Reported times are reference seconds: measured seconds times
# REF_KERNEL_S / (median time of the speed probe in calib.py during the same
# pass or set-up), i.e. seconds on a machine where the probe takes 10 ms.
REF_KERNEL_S = 0.010

END_TO_END = (
    ("wall_s", "s"),
    ("large_s", "s"),
    ("small_s", "s"),
    ("cli_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "1"),
)


_IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import numpy, ctmcbisim; print(time.perf_counter() - t)"
)


def _import_package() -> None:
    """Import ctmcbisim from the checkout, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "ctmcbisim", "__init__.py")):
        raise SystemExit(f"error: no ctmcbisim package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import ctmcbisim

    if os.path.dirname(os.path.dirname(os.path.abspath(ctmcbisim.__file__))) != SRC:
        raise SystemExit(f"error: imported ctmcbisim from {ctmcbisim.__file__}, not from {SRC}")


def _import_seconds() -> float:
    """Time a fresh interpreter takes to import numpy and ctmcbisim."""
    probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC], capture_output=True,
                           text=True, check=True, timeout=60)
    return float(probe.stdout)


def _machine() -> dict:
    import numpy as np

    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _fingerprint(out) -> bytes:
    if hasattr(out, "off_diagonal"):  # a relation: compare its pairs, not set order
        out = (out.n, tuple(out.off_diagonal()))
    return pickle.dumps(out)


def _run_pass(jobs, first: dict | None):
    """Run every job once, each after one machine-speed probe.  Returns
    per-job seconds, probe seconds, output fingerprints and errors.

    Without ``first`` (the first pass), outputs go through the checks;
    otherwise each must match the first pass's fingerprint.
    """
    times, probes, prints, errors = {}, [], {}, []
    scratch: dict = {}
    outputs = {}
    for job in jobs:
        probes.append(calib.kernel())
        t0 = time.perf_counter()
        try:
            out = job.run(scratch)
        except Exception as e:  # a job that raises is a failed job, not a crashed run
            times[job.name] = time.perf_counter() - t0
            errors.append(f"{job.name}: raised {type(e).__name__}: {e}")
            continue
        times[job.name] = time.perf_counter() - t0
        outputs[job.name] = out
    for job in jobs:
        if job.name not in outputs:
            continue
        out = outputs[job.name]
        prints[job.name] = _fingerprint(out)
        if first is None:
            try:
                msg = job.check(out, scratch)
            except Exception as e:
                msg = f"check raised {type(e).__name__}: {e}"
        else:
            msg = None if first.get(job.name) == prints[job.name] else "output differs from the first pass"
        if msg:
            errors.append(f"{job.name}: {msg}")
    return times, probes, prints, errors


def _pass_metrics(jobs, times: dict, scale: float) -> dict:
    def total(keep) -> float:
        return scale * sum(times[j.name] for j in jobs if keep(j))

    return {
        "wall_s": total(lambda j: True),
        "large_s": total(lambda j: j.rung == "large"),
        "small_s": total(lambda j: j.rung == "small"),
        "cli_s": total(lambda j: j.is_cli),
    }


def _load_reference(workload: str) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def _save_reference(workload: str, values: dict) -> None:
    data = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            data = json.load(fh)
    data[workload] = values
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _setup(args, workdir: str):
    """Generate the workload's inputs; return its jobs, context and the time taken."""
    import workloads

    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    os.makedirs(workdir)
    default = args.size == "full" and args.seed == DEFAULT_SEED
    ctx = workloads.Context(
        seed=args.seed,
        workdir=workdir,
        size=args.size,
        reference=_load_reference(args.workload) if default and not args.record else {},
        recording={} if default and args.record else None,
    )
    t0 = time.perf_counter()
    jobs = workloads.interleave(workloads.WORKLOADS[args.workload](ctx))
    return jobs, ctx, time.perf_counter() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("relate", "bounds", "transient"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="'tiny' shrinks every input, for a quick smoke run")
    p.add_argument("--record", action="store_true",
                   help="store the first pass's outputs as the default seed's reference")
    args = p.parse_args(argv)

    _import_package()
    sys.path.insert(0, HERE)
    import tracer

    print(json.dumps({"machine": _machine()}), flush=True)
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        import_times, gen_times, setup_probes = [], [], []
        for _ in range(SETUP_REPEATS):
            setup_probes.append(calib.kernel())
            import_times.append(_import_seconds())
            jobs, ctx, dt = _setup(args, workdir)
            gen_times.append(dt)
        setup_scale = REF_KERNEL_S / statistics.median(setup_probes)
        setup_s = setup_scale * (statistics.median(import_times) + statistics.median(gen_times))

        trace = tracer.Tracer() if args.trace else None
        errors: list[str] = []
        attempted = 0
        first = None
        untraced, traced, layer, all_probes = [], [], [], list(setup_probes)
        t_begin = time.perf_counter()
        k = 0
        while True:
            traced_pass = trace is not None and k % 2 == 1
            if traced_pass:
                trace.reset()
                trace.install()
            try:
                times, probes, prints, errs = _run_pass(jobs, first)
            finally:
                if traced_pass:
                    trace.uninstall()
            if first is None:
                first = prints
                if ctx.recording is not None:
                    _save_reference(args.workload, ctx.recording)
            attempted += len(jobs)
            errors += errs
            all_probes += probes
            kernel_s = statistics.median(probes)
            scale = REF_KERNEL_S / kernel_s
            m = _pass_metrics(jobs, times, scale)
            (traced if traced_pass else untraced).append(m)
            if traced_pass:
                units = dict(tracer.metric_names())
                layer.append({k_: v * scale if units[k_] == "s" else v for k_, v in trace.snapshot().items()})
            print(json.dumps({"pass": k, "traced": traced_pass, **m, "raw_wall_s": sum(times.values()),
                              "kernel_s": kernel_s, "failed_jobs": len(errs)}), flush=True)
            k += 1
            # stop before a pass that would end past --seconds, once at
            # least one pass (one of each kind when tracing) has run
            elapsed = time.perf_counter() - t_begin
            if elapsed + elapsed / k > args.seconds and (trace is None or traced):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    for e in errors[:20]:
        print(f"FAILED {e}", file=sys.stderr)
    failed = len(errors)  # a job fails at most once per pass
    if trace is None:
        metrics = {key: statistics.median(m[key] for m in untraced) for key in ("wall_s", "large_s", "small_s", "cli_s")}
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["ok_ratio"] = (attempted - failed) / attempted
        units = dict(END_TO_END)
    else:
        units = dict(tracer.metric_names())
        metrics = {}
        for name in units:
            vals = [snap[name] for snap in layer]
            metrics[name] = statistics.median(vals) if units[name] == "s" else vals[-1]
        metrics["trace.traced_wall_s"] = statistics.median(m["wall_s"] for m in traced)
        metrics["trace.untraced_wall_s"] = statistics.median(m["wall_s"] for m in untraced)
        metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
        metrics["machine.kernel_s"] = statistics.median(all_probes)
        units.update({"trace.traced_wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
                      "machine.kernel_s": "s"})
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
