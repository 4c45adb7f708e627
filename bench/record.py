#!/usr/bin/env python3
"""Per-layer timings of limoctrl, written to BENCH_riccati.json and
BENCH_costs.json.

Run from the repository root:

    python3 bench/record.py --baseline <git revision>

Each round is one fresh worker process with BLAS pinned to one thread. It
loads this checkout's src/limoctrl and, with --baseline, that revision's
src/limoctrl (exported by git archive) side by side under two package
names, and for each row alternates timeit runs of at least 20 ms between
the two, --repeats runs each, keeping each side's best. A shared host
whose speed drifts from second to second then slows both sides alike.
Per row and tree a file holds the median and quartiles over rounds, and
per row the median over rounds of the tree / baseline ratio with the
number of rounds the tree won. A stacked row is null on a tree that lacks
its stacked form.

BENCH_riccati.json, each row in seconds per solved plant:
  lone_family_n{2,30,60,200}  solve_singular_dare on
      worst_case_family(1, 2, 150, 1.0, n), with its iteration count
  lone_verify_n{1..5}  solve_singular_dare on each plant of size n among
      verify._sampled_plants(2000, 200), with the plant count and the
      summed iteration count
  stacked_verify_n{1..5}  solve_singular_dares on those same plants as one
      call, every solution taken

BENCH_costs.json, each row in seconds per plant or per graph pair:
  lone_simulate_{deadbeat,theta}_n{5,20,50,200}  simulate_cost of the
      design on the first seed-1 plant of size n of the ensemble workloads
      (sink graphs at cross-edge density 0.2), with its steps used
  lone_simulate_verify_n{1..5}  simulate_cost of the deadbeat design on
      each plant of size n among verify._sampled_plants(2000, 200), as
      verify's criterion 04b does, with the plant count and summed steps
  stacked_simulate_verify_n{1..5}  simulate_costs on those same pairs as
      one call
  lone_design_condition_c10  design_condition_applies on each of verify's
      criterion-10 pairs, all 4096 ordered pairs of 3-vertex graphs with
      self-loops
  stacked_design_condition_c10  design_conditions on those 4096 pairs as
      one call
  lone_design_condition_n200  design_condition_applies on the n = 200
      seed-1 ensemble plant graph against its symmetric closure, the
      ensemble_validate workload's design graph (no witness, a full scan)
"""
import argparse
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import timeit

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAMILY_SIZES = (2, 30, 60, 200)
VERIFY_SIZES = (1, 2, 3, 4, 5)
ENSEMBLE_SIZES = (5, 20, 50, 200)
FILES = {
    "BENCH_riccati.json": (
        [f"lone_family_n{n}" for n in FAMILY_SIZES]
        + [f"lone_verify_n{n}" for n in VERIFY_SIZES]
        + [f"stacked_verify_n{n}" for n in VERIFY_SIZES]),
    "BENCH_costs.json": (
        [f"lone_simulate_{design}_n{n}" for design in ("deadbeat", "theta")
         for n in ENSEMBLE_SIZES]
        + [f"lone_simulate_verify_n{n}" for n in VERIFY_SIZES]
        + [f"stacked_simulate_verify_n{n}" for n in VERIFY_SIZES]
        + ["lone_design_condition_c10", "stacked_design_condition_c10",
           "lone_design_condition_n200"]),
}
UNITS = {"BENCH_riccati.json": "s per plant",
         "BENCH_costs.json": "s per plant or graph pair"}
MIN_RUN_S = 0.02


# ---------------------------------------------------------------- worker

def _load(name, src):
    """Import src/limoctrl as the package `name`; its modules import each
    other relatively, so two trees load side by side."""
    init = os.path.join(src, "limoctrl", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _riccati_cases(lc):
    """Row name -> (fn solving the row's plants once, plant count, info)."""
    riccati = lc.riccati
    cases = {}
    for n in FAMILY_SIZES:
        p = riccati.augment(lc.plant.worst_case_family(1, 2, 150, 1.0, n))
        cases[f"lone_family_n{n}"] = (
            lambda p=p: riccati.solve_singular_dare(p), 1,
            {"iterations": riccati.solve_singular_dare(p).iterations})
    plants = [riccati.augment(p) for p, _ in lc.verify._sampled_plants(2000, 200)]
    stacked = getattr(riccati, "solve_singular_dares", None)
    for n in VERIFY_SIZES:
        group = [p for p in plants if p.n == n]
        cases[f"lone_verify_n{n}"] = (
            lambda g=group: [riccati.solve_singular_dare(p) for p in g],
            len(group),
            {"plants": len(group),
             "iterations": sum(riccati.solve_singular_dare(p).iterations
                               for p in group)})
        cases[f"stacked_verify_n{n}"] = None if stacked is None else (
            lambda g=group: list(stacked(g)), len(group), {"plants": len(group)})
    return cases


def _ensemble_plant(lc, n):
    """The first seed-1 plant of size n of the ensemble workloads, with its
    graph: cross edges at density 0.2, self-loops, and one sink vertex that
    some other vertex feeds."""
    rng = np.random.default_rng([1, n, 0])
    mask = (rng.random((n, n)) < 0.2).astype(np.int8)
    np.fill_diagonal(mask, 1)
    v = int(rng.integers(n))
    mask[:, v] = 0
    mask[v, v] = 1
    u = int(rng.integers(n - 1))
    mask[v, u + (u >= v)] = 1
    p = lc.Plant(A=rng.uniform(-2.0, 2.0, (n, n)) * mask,
                 b_diag=np.where(rng.random(n) < 0.5, -1.0, 1.0)
                 * (1.0 + rng.uniform(0.0, 2.0, n)),
                 d_diag=rng.uniform(-1.0, 1.0, n),
                 x0=rng.standard_normal(n), w0=rng.standard_normal(n))
    return p, mask


def _criterion_10_pairs(lc):
    """Every ordered pair of the 64 3-vertex graphs with self-loops."""
    positions = [(i, j) for i in range(3) for j in range(3) if i != j]
    masks = []
    for bits in range(64):
        m = np.eye(3, dtype=np.int8)
        for b, (i, j) in enumerate(positions):
            if bits >> b & 1:
                m[i, j] = 1
        masks.append(lc.graphs.from_adjacency(m))
    return [(g_p, g_c) for g_p in masks for g_c in masks]


def _cost_cases(lc):
    """Row name -> (fn evaluating the row's inputs once, input count, info)."""
    ev = lc.evaluation
    cases = {}
    for n in ENSEMBLE_SIZES:
        p, mask = _ensemble_plant(lc, n)
        for design, k in (("deadbeat", lc.synthesis.deadbeat(p)),
                          ("theta", lc.synthesis.sink_aware(
                              p, lc.graphs.from_adjacency(mask)))):
            cases[f"lone_simulate_{design}_n{n}"] = (
                lambda p=p, k=k: ev.simulate_cost(p, k), 1,
                {"steps": ev.simulate_cost(p, k).steps_used})
    pairs = [(p, lc.synthesis.deadbeat(p))
             for p, _ in lc.verify._sampled_plants(2000, 200)]
    stacked = getattr(ev, "simulate_costs", None)
    for n in VERIFY_SIZES:
        group = [(p, k) for p, k in pairs if p.n == n]
        cases[f"lone_simulate_verify_n{n}"] = (
            lambda g=group: [ev.simulate_cost(p, k) for p, k in g], len(group),
            {"plants": len(group),
             "steps": sum(ev.simulate_cost(p, k).steps_used for p, k in group)})
        cases[f"stacked_simulate_verify_n{n}"] = None if stacked is None else (
            lambda g=group, f=stacked: list(f(g)), len(group),
            {"plants": len(group)})
    graphs = lc.graphs
    c10 = _criterion_10_pairs(lc)
    cases["lone_design_condition_c10"] = (
        lambda: [graphs.design_condition_applies(*pair) for pair in c10],
        len(c10), {"pairs": len(c10)})
    stacked = getattr(graphs, "design_conditions", None)
    cases["stacked_design_condition_c10"] = None if stacked is None else (
        lambda: list(stacked(c10)), len(c10), {"pairs": len(c10)})
    _, mask = _ensemble_plant(lc, 200)
    g_p = graphs.from_adjacency(mask)
    g_c = graphs.from_adjacency(mask | mask.T | np.eye(200, dtype=np.int8))
    cases["lone_design_condition_n200"] = (
        lambda: graphs.design_condition_applies(g_p, g_c), 1,
        {"found": graphs.design_condition_applies(g_p, g_c)[0]})
    return cases


def _cases(lc):
    return {**_riccati_cases(lc), **_cost_cases(lc)}


def worker(trees, repeats):
    """Time every row on each tree, alternating; print one JSON line."""
    cases = {name: _cases(_load(f"limoctrl_{name}", src))
             for name, src in trees.items()}
    out = {name: {} for name in trees}
    for row in (row for rows in FILES.values() for row in rows):
        timers = {}
        for name in trees:
            case = cases[name][row]
            if case is None:
                out[name][row] = None
                continue
            fn, count, info = case
            timer = timeit.Timer(fn)
            number = max(1, int(MIN_RUN_S / max(timer.timeit(1), 1e-9)))
            timers[name] = (timer, number, count)
            out[name][row] = dict(info, s=float("inf"))
        for k in range(repeats):
            order = list(timers) if k % 2 == 0 else list(timers)[::-1]
            for name in order:
                timer, number, count = timers[name]
                s = timer.timeit(number) / number / count
                out[name][row]["s"] = min(out[name][row]["s"], s)
    print(json.dumps(out))


# ---------------------------------------------------------------- rounds

def _export(rev, dest):
    """Write revision rev's src/ under dest, by git archive."""
    blob = subprocess.run(["git", "archive", "--format=tar", rev, "src"],
                          cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return os.path.join(dest, "src")


def _run_worker(trees, repeats):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker",
         json.dumps(trees), "--repeats", str(repeats)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_pinned": 1, "machine": platform.machine(),
            "cpu": _cpu_model(), "nproc": len(os.sched_getaffinity(0))}


def _spread(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(rounds, repeats, baseline, file):
    """The content of one output file from rounds, one worker result
    each."""
    rows = {}
    for row in FILES[file]:
        entry = {"unit": UNITS[file]}
        entry.update({k: v for k, v in (rounds[0]["tree"][row] or {}).items()
                      if k != "s"})
        times = {}
        for name in rounds[0]:
            if rounds[0][name][row] is None:
                entry[name] = None
                continue
            times[name] = [r[name][row]["s"] for r in rounds]
            entry[name] = _spread(times[name])
        if len(times) == 2:
            ratios = [t / b for t, b in zip(times["tree"], times["baseline"])]
            entry["tree_over_baseline"] = statistics.median(ratios)
            entry["tree_faster_rounds"] = sum(r < 1.0 for r in ratios)
        rows[row] = entry
    return {"env": environment(), "rounds": len(rounds), "repeats": repeats,
            "baseline": baseline, "rows": rows}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", help="git revision to time against")
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--out-dir", default=ROOT,
                    help="directory the BENCH_*.json files are written to")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        worker(json.loads(args.worker), args.repeats)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"tree": os.path.join(ROOT, "src")}
        if args.baseline:
            trees["baseline"] = _export(args.baseline, tmp)
        rounds = []
        for k in range(args.rounds):
            rounds.append(_run_worker(trees, args.repeats))
            print(f"round {k + 1}/{args.rounds}", file=sys.stderr)
    for file in FILES:
        with open(os.path.join(args.out_dir, file), "w") as fh:
            json.dump(summarize(rounds, args.repeats, args.baseline, file),
                      fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
