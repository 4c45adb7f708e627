"""Oracles for the benchmark's job outputs.

Each compares an output against a reference that shares no code with the
path that produced it: the documented outcome, a closed form, a structural
property the construction guarantees, or scipy's Riccati solver when scipy
is importable (it is not a limoctrl dependency). Every tolerance is stated
here.
"""
import csv
import io
import json
import math

import numpy as np

# checks limoctrl documents as failing by design (strict xfail in its tests)
VERIFY_XFAIL = ("criterion_04b_optimal_vs_deadbeat_order",
                "criterion_06b_family_cost_formula",
                "criterion_07a_sink_domination")
RATIO_SLACK = 1e-12          # relative, ratio <= bound
ATTAINMENT_TOL = 1e-4        # relative gap to the bound at r = 1e5
FAMILY_X_TOL = 1e-10         # relative, solver X vs worst_case_family_solution
DEADBEAT_COST_TOL = 1e-9     # |simulated - closed form| / (1 + closed form)
RESIDUAL_TOL = 1e-10         # Riccati defect over max |X|
SCIPY_X_TOL = 1e-8           # relative, solver X vs scipy
GAIN_TOL = 1e-8              # relative, emitted D_K vs gains derived from X


class OracleMiss(Exception):
    """A job's output disagrees with its oracle."""


def require(ok, message):
    if not ok:
        raise OracleMiss(message)


def ratio_bound(eps_b):
    """(2 e^2 + 1 + sqrt(4 e^2 + 1)) / (2 e^2), written out independently."""
    e2 = eps_b * eps_b
    return (2.0 * e2 + 1.0 + math.sqrt(4.0 * e2 + 1.0)) / (2.0 * e2)


def verify_report(text, rc, expected_checks):
    """Every check outside the documented xfail set passes; none is skipped."""
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    names = [line["name"] for line in lines]
    missing = sorted(set(expected_checks) - set(names))
    require(not missing, f"verify report lacks {missing}")
    skipped = [line["name"] for line in lines if line["skipped"]]
    require(not skipped, f"checks skipped at full scale: {skipped}")
    failed = [line["name"] for line in lines if not line["passed"]]
    unexpected = sorted(set(failed) - set(VERIFY_XFAIL))
    require(not unexpected, f"checks failed: {unexpected}")
    require(rc == (1 if failed else 0),
            f"exit code {rc} with {len(failed)} failed checks")


def sweep_csv(text, grid, eps_b):
    """One row per grid value in order, every ratio at or under the analytic
    bound, the largest r within ATTAINMENT_TOL of it, and the bound column
    equal to the bound."""
    rows = list(csv.DictReader(io.StringIO(text)))
    bound = ratio_bound(eps_b)
    for row in rows:
        require(abs(float(row["bound"]) - bound) <= RATIO_SLACK * bound,
                f"bound column {row['bound']} is not {bound!r}")
    points = [row for row in rows if row["plant_id"] != "analytic_bound"]
    require([float(row["r_param"]) for row in points] == list(grid),
            "sweep rows do not follow the r grid")
    for row in points:
        ratio = float(row["ratio"])
        require(ratio <= bound * (1.0 + RATIO_SLACK),
                f"ratio {ratio!r} at r={row['r_param']} exceeds the bound "
                f"{bound!r}")
    top = max(points, key=lambda row: float(row["r_param"]))
    gap = abs(float(top["ratio"]) - bound) / bound
    require(gap <= ATTAINMENT_TOL,
            f"ratio at r={top['r_param']} is {gap:.3e} from the bound")


def family_solution(x_solver, x_closed):
    """Solver fixed point vs the family's closed form, relative."""
    gap = float(np.max(np.abs(x_solver - x_closed)) / np.max(np.abs(x_closed)))
    require(gap <= FAMILY_X_TOL, f"solver X is {gap:.3e} from the closed form")


def controller_support(payload, mask):
    """A controller built from one row of the model reads only along the
    plant graph: off-graph entries of B_K and D_K are exactly zero."""
    allowed = (mask != 0) | np.eye(len(mask), dtype=bool)
    for name in ("B_K", "D_K"):
        m = np.asarray(payload[name])
        require(m.shape == mask.shape, f"{name} has shape {m.shape}")
        require(not np.any(m[~allowed]), f"{name} is nonzero off the graph")


def converged_cost(payload):
    cost = payload["cost"]
    require(cost["converged"] and not cost["diverged"]
            and math.isfinite(cost["total"]),
            f"simulated cost did not converge: {cost}")
    return cost["total"]


def deadbeat_cost(payload, closed_form):
    total = converged_cost(payload)
    gap = abs(total - closed_form) / (1.0 + abs(closed_form))
    require(gap <= DEADBEAT_COST_TOL,
            f"simulated cost {total!r} vs closed form {closed_form!r}")


def augmented_pair(a, b, d):
    n = len(b)
    a_t = np.zeros((2 * n, 2 * n))
    a_t[:n, :n] = a
    a_t[:n, n:] = np.diag(b)
    a_t[n:, n:] = np.diag(d)
    b_t = np.zeros((2 * n, n))
    b_t[n:] = np.eye(n)
    return a_t, b_t


def _gains(x, a_t, b_t):
    return -np.linalg.solve(b_t.T @ x @ b_t, b_t.T @ x @ a_t)


def centralized(emitted_d_k, x_solver, a, b, d):
    """The solver's X meets RESIDUAL_TOL, agrees with scipy when available,
    and the emitted D_K equals G2 B^-1 from the gains of that X."""
    a_t, b_t = augmented_pair(a, b, d)
    defect = (a_t.T @ x_solver @ a_t
              + a_t.T @ x_solver @ b_t @ _gains(x_solver, a_t, b_t)
              + np.eye(len(a_t)) - x_solver)
    scale = float(np.max(np.abs(x_solver)))
    residual = float(np.max(np.abs(defect))) / scale
    require(residual <= RESIDUAL_TOL, f"relative Riccati residual {residual:.3e}")
    n = len(b)
    try:
        from scipy.linalg import solve_discrete_are
        x_ref = solve_discrete_are(a_t, b_t, np.eye(2 * n), np.zeros((n, n)))
    except (ImportError, ValueError):
        x_ref = None   # no scipy, or scipy cannot solve it: no second reference
    if x_ref is None:
        x_ref = x_solver
    else:
        gap = float(np.max(np.abs(x_solver - x_ref))) / scale
        require(gap <= SCIPY_X_TOL, f"solver X is {gap:.3e} from scipy's")
    d_k = _gains(x_ref, a_t, b_t)[:, n:] / b[None, :]
    gap = float(np.max(np.abs(emitted_d_k - d_k))) / (1.0 + float(np.max(np.abs(d_k))))
    require(gap <= GAIN_TOL, f"emitted D_K is {gap:.3e} from the X-derived gain")
