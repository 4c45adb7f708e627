#!/usr/bin/env python3
"""limoctrl benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Workloads are verify, family_sweep, ensemble_validate, ensemble_structured
and ensemble_centralized (see workloads.py and README.md). One process runs
one workload, one job at a time (a closed loop): each job is one
`limoctrl.cli.main([...])` call on inputs made from --seed. Passes of the
workload repeat until --seconds would be exceeded. With --trace 0 the last
stdout line holds the end-to-end metrics; with --trace 1 untraced and traced
passes alternate and it holds the per-layer metrics, including the tracing
overhead. Lines above it give the pinned environment, the per-kind metrics
(verify_s, sweep_s, validate_s, structured_s, centralized_s, failed_share,
peak_rss_mb) with their units, and the oracle verdicts.
"""
import os
import sys
import time

_T0 = time.perf_counter()
# Pin BLAS threading before numpy loads, to the same value on every commit:
# default threading costs about a second of first-call warm-up on two cores
# and slowed augment at n = 30 from 47 ms to 60 ms.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("LIMO_THREADS", None)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402  (the pins above must precede numpy)
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

try:
    import numpy as np
    import limoctrl.cli
except ImportError as exc:
    sys.exit(f"cannot import limoctrl from {ROOT}/src: {exc}")
if not os.path.abspath(limoctrl.__file__).startswith(os.path.join(ROOT, "src")):
    sys.exit(f"limoctrl resolved to {limoctrl.__file__}, not {ROOT}/src")

from oracles import OracleMiss  # noqa: E402
from tracing import Tracer, per_layer, stopped_in  # noqa: E402
from workloads import KIND_METRIC, WORKLOADS  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 3        # set-ups measured per run, in fresh processes
SETUP_TIMEOUT_S = 120


class JobTimeout(Exception):
    """Raised by SIGALRM when a job runs past its wall-time limit."""


def _on_alarm(signum, frame):
    raise JobTimeout()


# ----------------------------------------------------------------- jobs

def run_job(job, job_id, tracer):
    """Run one job; its time excludes the oracle check, which follows."""
    outcome, note, rc = "ok", "", None
    if job.limit:
        # installed here, not once in main, so that a limited job in the
        # warm-up is stopped the same way as one in a timed pass
        signal.signal(signal.SIGALRM, _on_alarm)
    span = tracer.begin_job(job_id, job.kind) if tracer else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            if job.limit:
                signal.setitimer(signal.ITIMER_REAL, job.limit)
            try:
                rc = limoctrl.cli.main(job.argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    except JobTimeout:
        wall, outcome = job.limit, "timeout"
    except Exception as exc:  # a crash of the program is a failed job
        wall, outcome, note = time.perf_counter() - start, "error", repr(exc)
    if tracer:
        tracer.end_job(span, {"timeout": "JobTimeout", "error": "error"}.get(outcome))
    if outcome == "ok" and job.check:
        try:
            with open(job.out) as fh:
                job.check(rc, fh.read())
        except (OracleMiss, OSError, ValueError, KeyError) as exc:
            outcome, note = "miss", f"{type(exc).__name__}: {exc}"
    if outcome == "error":
        note += " " + err.getvalue()[-500:]
    return {"kind": job.kind, "tag": job.tag, "wall_s": wall,
            "outcome": outcome, "note": note}


def run_pass(workload, tracer, first_job_id):
    lo = len(tracer.spans) if tracer else 0
    jobs = [run_job(job, first_job_id + i, tracer)
            for i, job in enumerate(workload.jobs())]
    sums = dict.fromkeys(sorted({j["kind"] for j in jobs}), 0.0)
    for j in jobs:
        sums[j["kind"]] += j["wall_s"]
    return {"traced": tracer is not None, "jobs": jobs, "sums": sums,
            "pass_s": sum(sums.values()),
            "spans": (lo, len(tracer.spans)) if tracer else None}


def measure(workload, seconds, tracer):
    """Closed loop over passes until another pass would overrun `seconds`.
    With a tracer, untraced and traced passes alternate as pairs."""
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(run_pass(workload, None, len(passes) * 10**6))
        if tracer:
            tracer.install()
            try:
                passes.append(run_pass(workload, tracer, len(passes) * 10**6))
            finally:
                tracer.uninstall()
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > seconds:
            return passes


# ---------------------------------------------------------------- set-up

def setup(workload):
    """Write the inputs and run a warm-up pass; returns seconds since start.
    A warm-up job that fails is not fatal: the timed passes report it."""
    os.makedirs(workload.workdir, exist_ok=True)
    workload.prepare()
    for i, job in enumerate(workload.warmup()):
        run_job(job, -1 - i, None)
    return time.perf_counter() - _T0


def child_setup(args):
    """Set-up time of a fresh process on the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"set-up process failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ------------------------------------------------------------ reporting

def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not readable."""
    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"\S*openblas\S*\.so\S*", fh.read())))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = blas_threads()
    nproc = len(os.sched_getaffinity(0))
    if threads is not None and threads > nproc:
        sys.exit(f"BLAS uses {threads} threads on {nproc} cores")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "blas_threads_pinned": BLAS_THREADS,
            "LIMO_THREADS": os.environ.get("LIMO_THREADS"), "nproc": nproc}


def tail(samples):
    """Median, the highest percentile with at least ten samples above it,
    and the sample count."""
    out = {"median": statistics.median(samples), "samples": len(samples)}
    for pct in (99.9, 99, 95, 90, 75, 50):
        if len(samples) * (1 - pct / 100) >= 10:
            out[f"p{pct:g}"] = float(np.percentile(samples, pct))
            break
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    workload = WORKLOADS[args.workload](seed=args.seed, workdir=workdir)
    try:
        first_setup = setup(workload)
        if args.setup_only:
            print(json.dumps({"setup_s": first_setup}))
            return 0
        setups = [first_setup] + [child_setup(args)
                                  for _ in range(SETUP_SAMPLES - 1)]
        env = environment()
        tracer = Tracer() if args.trace else None
        passes = measure(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        finals = workload.final_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = [j for p in passes for j in p["jobs"]]
    failures = [j for j in jobs if j["outcome"] in ("error", "miss")]
    failures += [{"tag": label, "note": msg} for label, msg in finals if msg]
    untraced = [p for p in passes if not p["traced"]]
    shares = [sum(j["outcome"] != "ok" for j in p["jobs"]) / len(p["jobs"])
              for p in untraced]
    verdicts = {}
    timeouts = {}
    for j in jobs:
        by_kind = verdicts.setdefault(j["kind"], {})
        by_kind[j["outcome"]] = by_kind.get(j["outcome"], 0) + 1
        if j["outcome"] == "timeout":
            timeouts[j["tag"]] = timeouts.get(j["tag"], 0) + 1
    if finals:
        verdicts["final_checks"] = {
            "ok": sum(msg is None for _, msg in finals),
            "miss": sum(msg is not None for _, msg in finals)}

    print(json.dumps({"env": env}))
    named = {"setup_s": dict(tail(setups), unit="s")}
    for kind in untraced[0]["sums"]:
        named[KIND_METRIC[kind]] = dict(
            tail([p["sums"][kind] for p in untraced]), unit="s",
            job_s=tail([j["wall_s"] for p in untraced for j in p["jobs"]
                        if j["kind"] == kind]))
    named["failed_share"] = dict(tail(shares), unit="share")
    named["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "pass_s": [p["pass_s"] for p in untraced], "metrics": named,
                      "timed_out_jobs": timeouts, "verdicts": verdicts,
                      "failures": failures[:20]}))

    if tracer:
        traced = [p for p in passes if p["traced"]]
        layers = [per_layer(tracer.spans, *p["spans"]) for p in traced]
        overhead = [t["pass_s"] - u["pass_s"] for u, t in zip(untraced, traced)]
        stops = {}
        for p in traced:
            for name in stopped_in(tracer.spans, *p["spans"]):
                stops[name] = stops.get(name, 0) + 1
        trace_path = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write(trace_path)
        metrics = {}
        for name in layers[0]:
            unit = "s" if name.endswith("_s") else (
                "1" if name.endswith("residual_max") else "count")
            metrics[name] = metric(statistics.median(m[name] for m in layers),
                                   unit)
        metrics["trace.overhead_s"] = metric(statistics.median(overhead), "s")
        metrics["trace.spans"] = metric(
            statistics.median(p["spans"][1] - p["spans"][0] for p in traced),
            "count")
        print(json.dumps({"traced_passes": len(traced), "stopped_in": stops,
                          "trace_file": os.path.relpath(trace_path, ROOT)}))
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "pass_s": metric(statistics.median(p["pass_s"] for p in untraced), "s"),
            "ok_share": metric(1.0 - statistics.median(shares), "share"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    print(json.dumps({"correct": not failures, "attempted": len(jobs) + len(finals),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
