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
from .plant import require_nonzero_gains

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
    # Filled by slices rather than np.block, whose per-call overhead is
    # several times the copying at n <= 5:
    #   [[A + B D_K, B, B C_K], [0, D, 0], [B_K, 0, A_K]]
    transition = np.zeros((3 * n, 3 * n))
    transition[:n, :n] = p.A + p.b_diag[:, None] * k.D_K
    transition[2 * n:, :n] = k.B_K
    # B, D, B C_K and A_K are diagonals of their blocks; a stride of 3n + 1
    # walks a diagonal of the row-major buffer
    flat = transition.reshape(-1)
    step = 3 * n + 1
    flat[n:n * step:step] = p.b_diag
    flat[2 * n:2 * n + n * step:step] = p.b_diag * k.c_diag
    flat[n * step:2 * n * step:step] = p.d_diag
    flat[2 * n * step::step] = k.a_diag
    # [D_K, I, C_K], the last two blocks again by diagonal strides
    mix_map = np.zeros((n, 3 * n))
    mix_map[:, :n] = k.D_K
    mix_flat = mix_map.reshape(-1)
    mix_flat[n::step] = 1.0
    mix_flat[2 * n::step] = k.c_diag
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
    require_nonzero_gains(p)
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
    """Quadratic form in (x0, B w0) that stays below the centralized
    design's cost, centralized_cost_closed_form (acceptance criterion 04a).

    It is no floor under other designs' costs: with x0 != 0 the deadbeat
    design can cost less than this form.
    """
    require_nonzero_gains(p)
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
