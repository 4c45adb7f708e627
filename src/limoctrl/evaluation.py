"""Closed-loop assembly and cost evaluation.

Costs are the infinite sums of x'x + (u+w)'(u+w) in identity-weight
coordinates; callers with general diagonal weights should fold them in
with plant.normalize first. Simulation detects convergence on the running
step cost, never on the state norm, because the disturbance state w does
not decay when a pole sits on the unit circle. A closed-form fast path via
a Lyapunov equation is deliberately absent for the same reason: the
combined loop is only marginally stable then, with cost-invisible modes.
"""
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

TOL_ABS = 1e-12
QUIET_STEPS = 10
MAX_STEPS = 10000
DIVERGENCE_CAP = 1e12


@dataclass(frozen=True, eq=False)
class ClosedLoop:
    """One-step map of the combined state (x, w, x_K) plus the row map
    recovering u + w from it."""
    transition: np.ndarray
    mix_map: np.ndarray
    n: int

    def initial_state(self, p):
        return np.concatenate([p.x0, p.w0, np.zeros(self.n)])


def closed_loop(p, k):
    """Assemble the combined linear system for plant p under controller k."""
    n = p.n
    if k.n != n:
        raise DimensionMismatchError(
            f"controller has {k.n} subcontrollers but plant has {n} subsystems")
    b = p.b_diag[:, None]
    zeros = np.zeros((n, n))
    transition = np.block([
        [p.A + b * k.D_K, np.diag(p.b_diag), b * k.C_K],
        [zeros, np.diag(p.d_diag), zeros],
        [k.B_K, zeros, k.A_K],
    ])
    mix_map = np.hstack([k.D_K, np.eye(n), k.C_K])
    return ClosedLoop(transition=transition, mix_map=mix_map, n=n)


def simulate_trajectory(p, k, steps):
    """Roll the loop forward from (x0, w0, 0).

    Returns (states, mix): states[t] is the combined state at time t for
    t = 0..steps, mix[t] = u(t) + w(t).
    """
    cl = closed_loop(p, k)
    s = cl.initial_state(p)
    states = np.empty((steps + 1, 3 * p.n))
    mix = np.empty((steps + 1, p.n))
    for t in range(steps + 1):
        states[t] = s
        mix[t] = cl.mix_map @ s
        if t < steps:
            s = cl.transition @ s
    return states, mix


@dataclass(frozen=True)
class CostReport:
    total: float
    steps_used: int
    converged: bool
    diverged: bool
    tail_estimate: float

    def as_dict(self):
        return {"total": self.total, "steps_used": self.steps_used,
                "converged": self.converged, "diverged": self.diverged,
                "tail_estimate": self.tail_estimate}


def simulate_cost(p, k):
    """Accumulate per-step costs until one of three exits.

    converged: the step cost stayed below TOL_ABS = 1e-12 for QUIET_STEPS =
    10 steps in a row. diverged: the running total passed DIVERGENCE_CAP =
    1e12, and total becomes +inf. Neither flag: MAX_STEPS = 10000 steps ran
    out and total is a lower estimate. tail_estimate is the last step cost
    seen, a proxy for the truncation error; below TOL_ABS when converged.
    """
    cl = closed_loop(p, k)
    s = cl.initial_state(p)
    n = p.n
    total = 0.0
    quiet = 0
    step_cost = 0.0
    steps_used = 0
    converged = False
    diverged = False
    for steps_used in range(1, MAX_STEPS + 1):
        x = s[:n]
        mix = cl.mix_map @ s
        step_cost = float(x @ x + mix @ mix)
        total += step_cost
        if total > DIVERGENCE_CAP:
            diverged = True
            total = float("inf")
            break
        quiet = quiet + 1 if step_cost < TOL_ABS else 0
        if quiet >= QUIET_STEPS:
            converged = True
            break
        s = cl.transition @ s
    return CostReport(total=total, steps_used=steps_used, converged=converged,
                      diverged=diverged,
                      tail_estimate=float("inf") if diverged else step_cost)


def _stacked_form(p, m11, m12, m22):
    v = np.concatenate([p.x0, p.b_diag * p.w0])
    top = m11 @ v[:p.n] + m12 @ v[p.n:]
    bot = m12.T @ v[:p.n] + m22 @ v[p.n:]
    return float(v @ np.concatenate([top, bot]))


def deadbeat_cost_closed_form(p):
    """Exact cost of the deadbeat controller as a quadratic form in
    (x0, B w0); finite for every admissible plant."""
    a = p.A
    dm = p.D
    eye = np.eye(p.n)
    bi2 = np.diag(1.0 / (p.b_diag * p.b_diag))
    at_bi2 = a.T @ bi2
    q11 = eye + dm @ dm @ (eye + bi2) + at_bi2 @ a \
        + dm @ at_bi2 @ a @ dm + at_bi2 @ dm + dm @ bi2 @ a
    q12 = -dm - at_bi2 - dm @ bi2 - dm @ at_bi2 @ a
    q22 = at_bi2 @ a + bi2 + eye
    return _stacked_form(p, q11, q12, q22)


def centralized_lower_bound(p):
    """Quadratic-form floor under the optimal cost, in (x0, B w0)."""
    a = p.A
    dm = p.D
    eye = np.eye(p.n)
    bi2 = np.diag(1.0 / (p.b_diag * p.b_diag))
    w_mat = a.T @ ((1.0 / (1.0 + p.b_diag * p.b_diag))[:, None] * a) + eye
    v11 = w_mat + dm @ dm @ bi2 + dm @ w_mat @ dm
    v12 = -dm @ (w_mat + bi2)
    v22 = w_mat + bi2
    return _stacked_form(p, v11, v12, v22)


def centralized_cost_closed_form(p, sol):
    """Exact optimal cost from a solved Riccati fixed point: the quadratic
    form of X at (x0, xi0) with xi0 = G2 B^-1 x0 + w0."""
    xi0 = (sol.G2 / p.b_diag[None, :]) @ p.x0 + p.w0
    v = np.concatenate([p.x0, xi0])
    return float(v @ sol.X @ v)
