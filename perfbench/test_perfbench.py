"""Tests of the benchmark itself: counts repeat exactly, the tracer puts the
package back, oracles reject wrong outputs, and a checkout without the
program fails without a result.

    python3 -m pytest -q perfbench
"""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import oracles
from tracing import Tracer, per_layer, stopped_in
from workloads import (EnsembleCentralized, EnsembleScale, EnsembleStructured,
                       EnsembleValidate, FamilySweep, Verify)

TEST_DIR = os.path.join(run.WORK, "tests")


def _workload(cls, name, **overrides):
    w = cls(seed=7, workdir=os.path.join(TEST_DIR, name))
    for key, value in overrides.items():
        setattr(w, key, value)
    os.makedirs(w.workdir, exist_ok=True)
    w.prepare()
    return w


@pytest.fixture(autouse=True, scope="module")
def _cleanup():
    yield
    shutil.rmtree(TEST_DIR, ignore_errors=True)


def _traced_passes(workload, count):
    tracer = Tracer()
    tracer.install()
    try:
        passes = [run.run_pass(workload, tracer, i * 1000) for i in range(count)]
    finally:
        tracer.uninstall()
    return tracer, passes


def _counts(metrics):
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


@pytest.mark.parametrize("cls,overrides", [
    (Verify, {"scale": 0.05}),
    (FamilySweep, {"sizes": (2, 30), "points": 4}),
    (EnsembleScale, {"counts": {5: 2, 20: 1, 50: 1}, "limit_s": 0.3}),
])
def test_counts_repeat_exactly(cls, overrides):
    """Two runs on the same seed, each set up afresh and traced twice."""
    counts = []
    for run_index in range(2):
        workload = _workload(cls, f"{cls.__name__}{run_index}", **overrides)
        tracer, passes = _traced_passes(workload, 2)
        assert all(j["outcome"] in ("ok", "timeout")
                   for p in passes for j in p["jobs"])
        counts += [_counts(per_layer(tracer.spans, *p["spans"])) for p in passes]
    assert all(c == counts[0] for c in counts)
    assert counts[0]["riccati.augment_calls"] > 0
    assert counts[0]["riccati.dare_iterations_sum"] > 0


def test_timeout_names_the_running_layer():
    workload = _workload(EnsembleScale, "timeout", counts={50: 1}, limit_s=0.3)
    tracer, (one,) = _traced_passes(workload, 1)
    outcomes = {j["kind"]: j["outcome"] for j in one["jobs"]}
    assert outcomes["centralized"] == "timeout"
    assert one["sums"]["centralized"] == 0.3
    assert stopped_in(tracer.spans, *one["spans"])[0].startswith("riccati.")
    assert per_layer(tracer.spans, *one["spans"])["riccati.timeouts"] == 1


def test_warmup_overrun_is_a_timeout_not_a_crash():
    """A limited warm-up job that overruns is stopped by the job's own alarm
    handler, even where none was installed before set-up."""
    script = (
        "import os, signal, sys\n"
        "signal.signal(signal.SIGALRM, signal.SIG_DFL)\n"
        "import run\n"
        "from workloads import EnsembleCentralized\n"
        "w = EnsembleCentralized(seed=7, workdir=sys.argv[1])\n"
        "w.counts, w.limit_s = {50: 1}, 0.3\n"
        "run.setup(w)\n"
        "print('set up')\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, os.path.join(TEST_DIR, "warmup")],
        cwd=os.path.dirname(os.path.abspath(__file__)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "set up"


def test_ensemble_workloads_split_the_jobs_by_kind():
    overrides = {"counts": {5: 2, 20: 1}}
    whole = _workload(EnsembleScale, "whole", **overrides)
    parts = [_workload(cls, cls.__name__, **overrides)
             for cls in (EnsembleValidate, EnsembleStructured,
                         EnsembleCentralized)]
    for part in parts:
        assert {job.kind for job in part.jobs()} == set(part.kinds)

    def key(job):
        return job.kind, job.tag, [os.path.basename(a) for a in job.argv]
    assert (sorted(key(job) for part in parts for job in part.jobs())
            == sorted(key(job) for job in whole.jobs()))


def test_uninstall_restores_every_binding():
    import limoctrl.cli
    import limoctrl.ratio
    import limoctrl.riccati
    import limoctrl.synthesis
    before = (limoctrl.synthesis.augment, limoctrl.ratio.solve_singular_dare,
              limoctrl.cli.validate, limoctrl.riccati.augment)
    tracer = Tracer()
    tracer.install()
    assert limoctrl.synthesis.augment is limoctrl.ratio.augment
    assert limoctrl.synthesis.augment is not before[0]
    tracer.uninstall()
    assert (limoctrl.synthesis.augment, limoctrl.ratio.solve_singular_dare,
            limoctrl.cli.validate, limoctrl.riccati.augment) == before


def test_oracles_reject_wrong_outputs():
    bound = oracles.ratio_bound(1.0)
    csv = ("plant_id,r_param,J_strategy,J_centralized,ratio,bound\n"
           f"family_r_1,1.0,1,1,{bound * 1.001!r},{bound!r}\n")
    with pytest.raises(oracles.OracleMiss):
        oracles.sweep_csv(csv, [1.0], 1.0)
    report = "".join(json.dumps({"name": name, "passed": name != "c2",
                                 "skipped": False}) + "\n" for name in ("c1", "c2"))
    with pytest.raises(oracles.OracleMiss):
        oracles.verify_report(report, 1, ("c1", "c2"))
    mask = np.eye(2, dtype=np.int8)
    with pytest.raises(oracles.OracleMiss):
        oracles.controller_support({"B_K": np.eye(2), "D_K": [[1, 1], [0, 1]]},
                                   mask)
    cost = {"cost": {"total": 2.0, "converged": True, "diverged": False}}
    with pytest.raises(oracles.OracleMiss):
        oracles.deadbeat_cost(cost, 2.1)


def test_bare_checkout_fails_without_a_result():
    bare = os.path.join(TEST_DIR, "bare")
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "verify", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_centralized_oracle_checks_the_emitted_gain():
    from limoctrl import riccati, synthesis
    workload = _workload(EnsembleScale, "oracle", counts={5: 1})
    p = workload._plant("n5_0")
    q = workload.plants["n5_0"]
    x = riccati.solve_singular_dare(riccati.augment(p)).X
    d_k = synthesis.centralized_optimal(p).D_K
    oracles.centralized(d_k, x, q["A"], q["b"], q["d"])
    with pytest.raises(oracles.OracleMiss):
        oracles.centralized(d_k + 1e-6, x, q["A"], q["b"], q["d"])
