"""The benchmark's three workloads: seeded inputs, the jobs of one pass, and
the oracle each job's output must meet.

Every pass of a run repeats the same jobs on the same inputs, so per-pass
counts repeat exactly and per-pass times differ only by machine noise. The
seed reaches the program only through the inputs written here.
"""
from dataclasses import dataclass
import json
import os

import numpy as np

import oracles
from tracing import VERIFY_CHECKS

# per-pass end-to-end metric of each job kind
KIND_METRIC = {"verify": "verify_s", "sweep": "sweep_s",
               "validate": "validate_s", "structured": "structured_s",
               "centralized": "centralized_s"}


@dataclass
class Job:
    kind: str
    tag: str
    argv: list
    out: str
    check: object = None              # check(rc, text of out), may raise OracleMiss
    limit: float | None = None        # wall-time limit in seconds


@dataclass
class Workload:
    """Base: subclasses fill jobs(), warmup() and final_checks()."""
    seed: int
    workdir: str

    def path(self, name):
        return os.path.join(self.workdir, name)

    def prepare(self):
        """Write the inputs; called once per setup."""

    def final_checks(self):
        """Oracle checks too costly to run per job, after the timed passes.
        Returns (label, message or None) pairs."""
        return []


class Verify(Workload):
    """`limoctrl verify` at full scale, seeded with the benchmark seed."""

    scale = 1.0

    def _job(self, scale, name, check):
        out = self.path(name)
        return Job("verify", f"seed{self.seed}",
                   ["verify", "--seed", str(self.seed), "--scale", str(scale),
                    "--out", out], out, check)

    def _check(self, rc, text):
        oracles.verify_report(text, rc, VERIFY_CHECKS)

    def warmup(self):
        return [self._job(0.05, "warmup.jsonl", None)]

    def jobs(self):
        return [self._job(self.scale, "verify.jsonl", self._check)]


class FamilySweep(Workload):
    """`limoctrl ratio-sweep --format csv` on the worst-case family, one job
    per embedding size, over a seeded log-uniform r grid from 1 to 1e5."""

    sizes = (2, 30, 60)
    points = 8
    eps_b = 1.0

    def prepare(self):
        rng = np.random.default_rng([self.seed, 1])
        inner = np.sort(10.0 ** rng.uniform(0.0, 5.0, self.points - 2))
        self.grid = [1.0, *inner.tolist(), 1e5]

    def _job(self, n, grid, tag):
        out = self.path(f"sweep_{tag}_{n}.csv")
        return Job("sweep", f"n{n}",
                   ["ratio-sweep", "--i", "1", "--j", "2",
                    "--eps-b", repr(self.eps_b),
                    "--r-grid", ",".join(repr(r) for r in grid),
                    "--n", str(n), "--format", "csv", "--out", out],
                   out, lambda rc, text: self._check(rc, text, grid))

    def _check(self, rc, text, grid):
        oracles.require(rc == 0, f"exit code {rc}")
        oracles.sweep_csv(text, grid, self.eps_b)

    def warmup(self):
        return [self._job(n, [1.0, 1e5], "warmup") for n in self.sizes]

    def jobs(self):
        return [self._job(n, self.grid, "pass") for n in self.sizes]

    def final_checks(self):
        from limoctrl import plant, riccati
        out = []
        for n in self.sizes:
            for r in self.grid:
                p = plant.worst_case_family(1, 2, r, self.eps_b, n)
                x = riccati.solve_singular_dare(riccati.augment(p)).X
                try:
                    oracles.family_solution(
                        x, riccati.worst_case_family_solution(1, 2, r, self.eps_b, n))
                    out.append((f"family_x_n{n}_r{r:g}", None))
                except oracles.OracleMiss as miss:
                    out.append((f"family_x_n{n}_r{r:g}", str(miss)))
        return out


def sink_plant(rng, n, density):
    """Random plant on a graph with self-loops, cross edges at the given
    density, and one sink vertex that some other vertex feeds.

    adj[i][j] = 1 means an edge j+1 -> i+1, as in limoctrl.graphs.
    """
    mask = (rng.random((n, n)) < density).astype(np.int8)
    np.fill_diagonal(mask, 1)
    v = int(rng.integers(n))
    mask[:, v] = 0
    mask[v, v] = 1
    u = int(rng.integers(n - 1))
    mask[v, u + (u >= v)] = 1
    return {"A": rng.uniform(-2.0, 2.0, (n, n)) * mask,
            "b": np.where(rng.random(n) < 0.5, -1.0, 1.0)
            * (1.0 + rng.uniform(0.0, 2.0, n)),
            "d": rng.uniform(-1.0, 1.0, n),
            "x0": rng.standard_normal(n),
            "w0": rng.standard_normal(n),
            "mask": mask}


def _graph_json(mask):
    heads, tails = np.nonzero(mask)
    return {"n": len(mask),
            "edges": [[int(t) + 1, int(h) + 1] for h, t in zip(heads, tails)]}


class EnsembleScale(Workload):
    """Seeded random sink-graph plants across the supported size range.

    Each plant has three job kinds: validated against its design graph,
    synthesized deadbeat and theta, and synthesized centralized. Each
    subclass below is one benchmark workload that runs one kind on the
    same plants, so each kind's time is that workload's gated pass time.
    """

    kinds = ("validate", "structured", "centralized")
    # n -> plants; fewer plants at larger n
    counts = {5: 16, 20: 8, 50: 2, 100: 1, 200: 1}
    density = 0.2
    # Per-job wall-time limit of the centralized jobs: six times the slowest
    # that succeeds (about 40 ms, n = 20) and far below the stall (about
    # 22 s to NoConvergenceError at n = 40). The four stalled jobs count at
    # the limit, so the lower it is, the larger the share of a pass the
    # finished jobs make up.
    limit_s = 0.25

    def prepare(self):
        self.plants = {}
        self.held = []   # (tag, emitted D_K) of finished centralized jobs
        for n, count in self.counts.items():
            for k in range(count):
                tag = f"n{n}_{k}"
                q = sink_plant(np.random.default_rng([self.seed, n, k]), n,
                               self.density)
                self.plants[tag] = q
                files = {"plant": {"n": n, "A": q["A"].tolist(),
                                   "B_diag": q["b"].tolist(),
                                   "D_diag": q["d"].tolist(),
                                   "x0": q["x0"].tolist(),
                                   "w0": q["w0"].tolist()},
                         "graph": _graph_json(q["mask"])}
                if "validate" in self.kinds:
                    files["design"] = _graph_json(
                        q["mask"] | q["mask"].T | np.eye(n, dtype=np.int8))
                for name, payload in files.items():
                    with open(self.path(f"{name}_{tag}.json"), "w") as fh:
                        json.dump(payload, fh)
        self._closed_forms = {}

    def _plant_jobs(self, tag):
        files = ["--plant", self.path(f"plant_{tag}.json"),
                 "--graph", self.path(f"graph_{tag}.json")]
        out = self.path(f"out_{tag}")
        if "validate" in self.kinds:
            yield Job("validate", tag,
                      ["validate", *files,
                       "--design-graph", self.path(f"design_{tag}.json"),
                       "--out", out + ".validate"],
                      out + ".validate", self._check_validate)
        if "structured" in self.kinds:
            for strategy in ("deadbeat", "theta"):
                yield Job("structured", tag,
                          ["synthesize", *files, "--strategy", strategy,
                           "--with-cost", "--out", f"{out}.{strategy}"],
                          f"{out}.{strategy}",
                          lambda rc, text, s=strategy: self._check_structured(
                              rc, text, tag, s))
        if "centralized" in self.kinds:
            yield Job("centralized", tag,
                      ["synthesize", *files, "--strategy", "centralized",
                       "--with-cost", "--out", out + ".centralized"],
                      out + ".centralized",
                      lambda rc, text: self._check_centralized(rc, text, tag),
                      limit=self.limit_s)

    def _check_validate(self, rc, text):
        oracles.require(rc == 0, f"exit code {rc}")
        # the design graph contains the reverse of every plant edge, so no
        # path i -> j -> l lacks the edge l -> j
        oracles.require(
            [json.loads(line) for line in text.splitlines()]
            == [{"design_condition_applies": False, "witness": None}],
            f"unexpected validate output {text[:200]!r}")

    def _plant(self, tag):
        from limoctrl.plant import Plant
        q = self.plants[tag]
        return Plant(A=q["A"], b_diag=q["b"], d_diag=q["d"], x0=q["x0"],
                     w0=q["w0"])

    def _closed_form(self, tag):
        if tag not in self._closed_forms:
            from limoctrl.evaluation import deadbeat_cost_closed_form
            self._closed_forms[tag] = deadbeat_cost_closed_form(self._plant(tag))
        return self._closed_forms[tag]

    def _check_structured(self, rc, text, tag, strategy):
        oracles.require(rc == 0, f"exit code {rc}")
        payload = json.loads(text)
        oracles.controller_support(payload, self.plants[tag]["mask"])
        if strategy == "deadbeat":
            oracles.deadbeat_cost(payload, self._closed_form(tag))
        else:
            oracles.converged_cost(payload)

    def _check_centralized(self, rc, text, tag):
        oracles.require(rc == 0, f"exit code {rc}")
        payload = json.loads(text)
        oracles.converged_cost(payload)
        self.held.append((tag, np.asarray(payload["D_K"])))

    def warmup(self):
        small = sorted(self.counts)[:2]
        return [job for n in small for job in self._plant_jobs(f"n{n}_0")]

    def jobs(self):
        return [job for tag in self.plants for job in self._plant_jobs(tag)]

    def final_checks(self):
        from limoctrl import riccati
        out = []
        solutions = {}
        for tag, d_k in self.held:
            q = self.plants[tag]
            if tag not in solutions:
                solutions[tag] = riccati.solve_singular_dare(
                    riccati.augment(self._plant(tag))).X
            try:
                oracles.centralized(d_k, solutions[tag], q["A"], q["b"], q["d"])
                out.append((f"centralized_{tag}", None))
            except oracles.OracleMiss as miss:
                out.append((f"centralized_{tag}", str(miss)))
        return out


class EnsembleValidate(EnsembleScale):
    kinds = ("validate",)


class EnsembleStructured(EnsembleScale):
    kinds = ("structured",)


class EnsembleCentralized(EnsembleScale):
    kinds = ("centralized",)


WORKLOADS = {"verify": Verify, "family_sweep": FamilySweep,
             "ensemble_validate": EnsembleValidate,
             "ensemble_structured": EnsembleStructured,
             "ensemble_centralized": EnsembleCentralized}
