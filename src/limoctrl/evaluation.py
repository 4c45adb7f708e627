"""Closed-loop assembly and cost evaluation.

Costs are the infinite sums of x'x + (u+w)'(u+w) in identity-weight
coordinates; callers with general diagonal weights should fold them in
with plant.normalize first. Simulation detects convergence on the running
step cost, never on the state norm, because the disturbance state w does
not decay when a pole sits on the unit circle. A closed-form fast path via
a Lyapunov equation is deliberately absent for the same reason: the
combined loop is only marginally stable then, with cost-invisible modes.

Every routine has a stacked form over a list: simulate_costs,
simulate_trajectories, deadbeat_cost_closed_forms and
centralized_lower_bounds. Each evaluates the members of one size n as
(m, n, n) stacks with the lone routine's kernels (matrix-vector and dot
products per member), yields results in input order and raises a member's
error at its turn (stacks.in_stacks). The member checks, _size_mismatch
and zero_gain_error, are passed to that driver with the kernels, so a
kernel sees only members that passed. The lone routine is its stacked form
on a stack of one (stacks.alone), so a result is the same bits alone and in
any stack.
"""
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .plant import zero_gain_error
from .stacks import alone, diagonals, in_stacks, stack

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
        return _initial_states([p])[0]


def _size_mismatch(pair):
    p, k = pair
    if k.n != p.n:
        return DimensionMismatchError(
            f"controller has {k.n} subcontrollers but plant has {p.n} subsystems")
    return None


def _closed_loops(pairs):
    """(transition, mix_map) stacks of same-size (plant, controller) pairs,
    (m, 3n, 3n) and (m, n, 3n); member j is closed_loop(*pairs[j])."""
    m, n = len(pairs), pairs[0][0].n
    b = stack([p.b_diag for p, _ in pairs])
    d_k = stack([k.D_K for _, k in pairs])
    c_k = stack([k.c_diag for _, k in pairs])
    # Filled by slices rather than np.block, whose per-call overhead is
    # several times the copying at n <= 5:
    #   [[A + B D_K, B, B C_K], [0, D, 0], [B_K, 0, A_K]]
    transition = np.zeros((m, 3 * n, 3 * n))
    transition[:, :n, :n] = stack([p.A for p, _ in pairs]) + b[:, :, None] * d_k
    transition[:, 2 * n:, :n] = stack([k.B_K for _, k in pairs])
    # B, D, B C_K and A_K are diagonals of their blocks; a stride of 3n + 1
    # walks a diagonal of each member's row-major buffer
    flat = transition.reshape(m, -1)
    step = 3 * n + 1
    flat[:, n:n * step:step] = b
    flat[:, 2 * n:2 * n + n * step:step] = b * c_k
    flat[:, n * step:2 * n * step:step] = stack([p.d_diag for p, _ in pairs])
    flat[:, 2 * n * step::step] = stack([k.a_diag for _, k in pairs])
    # [D_K, I, C_K], the last two blocks again by diagonal strides
    mix_map = np.zeros((m, n, 3 * n))
    mix_map[:, :, :n] = d_k
    mix_flat = mix_map.reshape(m, -1)
    mix_flat[:, n::step] = 1.0
    mix_flat[:, 2 * n::step] = c_k
    return transition, mix_map


def _initial_states(plants):
    """(x0, w0, 0) of each plant of one size, as an (m, 3n) stack."""
    n = plants[0].n
    s = np.zeros((len(plants), 3 * n))
    s[:, :n] = stack([p.x0 for p in plants])
    s[:, n:2 * n] = stack([p.w0 for p in plants])
    return s


def closed_loop(p, k):
    """Assemble the combined linear system for plant p under controller k."""
    error = _size_mismatch((p, k))
    if error:
        raise error
    transition, mix_map = _closed_loops([(p, k)])
    return ClosedLoop(transition=transition[0], mix_map=mix_map[0], n=p.n)


def _trajectory_group(pairs, steps):
    transition, mix_map = _closed_loops(pairs)
    s = _initial_states([p for p, _ in pairs])
    states = np.empty((len(pairs), steps + 1, s.shape[1]))
    mix = np.empty((len(pairs), steps + 1, pairs[0][0].n))
    for t in range(steps + 1):
        states[:, t] = s
        mix[:, t] = np.matvec(mix_map, s)
        if t < steps:
            s = np.matvec(transition, s)
    return list(zip(states, mix))


def simulate_trajectories(pairs, steps):
    """simulate_trajectory of each (plant, controller) pair, yielded in
    input order; pairs of one plant size roll forward as one stack
    (stacks.in_stacks), each member's arrays the bits of its lone roll."""
    return in_stacks(pairs, lambda pair: pair[0].n, _size_mismatch,
                     lambda members: _trajectory_group(members, steps),
                     lambda pair: simulate_trajectory(*pair, steps))


def simulate_trajectory(p, k, steps):
    """Roll the loop forward from (x0, w0, 0).

    Returns (states, mix): states[t] is the combined state at time t for
    t = 0..steps, mix[t] = u(t) + w(t).
    """
    return alone((p, k), _size_mismatch,
                 lambda pairs: _trajectory_group(pairs, steps))


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


def _cost_group(pairs):
    """CostReport of each same-size (plant, controller) pair that passes
    _size_mismatch.

    Every member steps as one stack and leaves it at the step at which it
    would stop alone, so its report is the bits of its lone run. Each step
    runs the lone step's kernels on the stack: the step cost is
    x'x + mix'mix by two dot products, and the state advances by one
    matrix-vector product. The stack is re-indexed only on a step at which
    some member stops.
    """
    n = pairs[0][0].n
    transition, mix_map = _closed_loops(pairs)
    s = _initial_states([p for p, _ in pairs])
    total = np.zeros(len(pairs))
    recent = deque(maxlen=QUIET_STEPS)   # the last step costs, oldest first
    results = [None] * len(pairs)
    live = range(len(pairs))     # input positions of the stepping members
    bound = 0.0                  # no live member's total exceeds it
    quiet = 0                    # steps in a row with some cost below TOL_ABS
    for steps_used in range(1, MAX_STEPS + 1):
        x = s[:, :n]
        mix = np.matvec(mix_map, s)
        cost = np.vecdot(x, x) + np.vecdot(mix, mix)
        # a new array: the in-place += costs twice as much at small m
        total = total + cost
        recent.append(cost)
        costs = cost.tolist()
        # A member converges once its last QUIET_STEPS step costs are all
        # below TOL_ABS, so only after that many steps in a row on which the
        # smallest cost is (Python's min skips a NaN unless it comes first,
        # and a NaN first counts as small). bound + the largest step cost
        # rounds to no less than any member's new total, so no member
        # diverges while the bound is within the cap. The exact rule runs
        # only when one of these quick tests fails.
        quiet = 0 if min(costs) >= TOL_ABS else quiet + 1
        bound += max(costs)
        if quiet < QUIET_STEPS and bound <= DIVERGENCE_CAP:
            s = np.matvec(transition, s)
            continue
        totals = total.tolist()
        converged = [False] * len(live) if quiet < QUIET_STEPS else \
            (np.array(recent) < TOL_ABS).all(axis=0).tolist()
        keep = []
        for j, pos in enumerate(live):
            if totals[j] > DIVERGENCE_CAP:
                results[pos] = CostReport(
                    total=float("inf"), steps_used=steps_used, converged=False,
                    diverged=True, tail_estimate=float("inf"))
            elif converged[j]:
                results[pos] = CostReport(
                    total=totals[j], steps_used=steps_used, converged=True,
                    diverged=False, tail_estimate=costs[j])
            else:
                keep.append(j)
        if not keep:
            break
        bound = max(totals[j] for j in keep)
        if len(keep) < len(live):
            live = [live[j] for j in keep]
            costs = [costs[j] for j in keep]
            s, transition, mix_map = s[keep], transition[keep], mix_map[keep]
            total = total[keep]
            recent = deque((c[keep] for c in recent), maxlen=QUIET_STEPS)
        s = np.matvec(transition, s)
    else:
        for pos, last_total, last_cost in zip(live, total.tolist(), costs):
            results[pos] = CostReport(
                total=last_total, steps_used=MAX_STEPS, converged=False,
                diverged=False, tail_estimate=last_cost)
    return results


def simulate_costs(pairs):
    """simulate_cost of each (plant, controller) pair, yielded in input
    order.

    Pairs of one plant size step as one stack (stacks.in_stacks), each
    member leaving it at the step at which it stops alone, so every report
    is bit for bit its lone run's. A pair whose controller size differs
    from its plant's raises DimensionMismatchError at its turn.
    """
    return in_stacks(pairs, lambda pair: pair[0].n, _size_mismatch, _cost_group,
                     lambda pair: simulate_cost(*pair))


def simulate_cost(p, k):
    """Accumulate per-step costs until one of three exits.

    converged: the step cost stayed below TOL_ABS = 1e-12 for QUIET_STEPS =
    10 steps in a row. diverged: the running total passed DIVERGENCE_CAP =
    1e12, and total becomes +inf. Neither flag: MAX_STEPS = 10000 steps ran
    out and total is a lower estimate. tail_estimate is the last step cost
    seen, a proxy for the truncation error; below TOL_ABS when converged.
    """
    return alone((p, k), _size_mismatch, _cost_group)


def _quadratic_forms(plants, m11, m12, m22):
    """The quadratic form of [[m11, m12], [m12', m22]] at (x0, B w0) of each
    plant of an (m, n, n) stack, as floats."""
    n = plants[0].n
    v = np.array([np.concatenate([p.x0, p.b_diag * p.w0]) for p in plants])
    top = np.matvec(m11, v[:, :n]) + np.matvec(m12, v[:, n:])
    bot = np.matvec(m12.transpose(0, 2, 1), v[:, :n]) + np.matvec(m22, v[:, n:])
    return np.vecdot(v, np.concatenate([top, bot], axis=1)).tolist()


def _model_stacks(plants):
    """A, diag(D) and diag(1 / b^2) of plants of one size, as (m, n, n)
    stacks."""
    a = stack([p.A for p in plants])
    b = stack([p.b_diag for p in plants])
    dm = diagonals(stack([p.d_diag for p in plants]))
    return a, b, dm, diagonals(1.0 / (b * b))


def _deadbeat_group(plants):
    a, _, dm, bi2 = _model_stacks(plants)
    eye = np.eye(plants[0].n)
    at_bi2 = a.transpose(0, 2, 1) @ bi2
    q11 = eye + dm @ dm @ (eye + bi2) + at_bi2 @ a \
        + dm @ at_bi2 @ a @ dm + at_bi2 @ dm + dm @ bi2 @ a
    q12 = -dm - at_bi2 - dm @ bi2 - dm @ at_bi2 @ a
    q22 = at_bi2 @ a + bi2 + eye
    return _quadratic_forms(plants, q11, q12, q22)


def deadbeat_cost_closed_forms(plants):
    """deadbeat_cost_closed_form of each plant, yielded in input order;
    plants of one size are evaluated as one stack (stacks.in_stacks), each
    value the bits of its lone evaluation. A plant with a zero input gain
    raises ZeroGainError at its turn."""
    return in_stacks(plants, lambda p: p.n, zero_gain_error, _deadbeat_group,
                     lambda p: deadbeat_cost_closed_form(p))


def deadbeat_cost_closed_form(p):
    """Exact cost of the deadbeat controller as a quadratic form in
    (x0, B w0); finite for every admissible plant."""
    return alone(p, zero_gain_error, _deadbeat_group)


def _lower_bound_group(plants):
    a, b, dm, bi2 = _model_stacks(plants)
    eye = np.eye(plants[0].n)
    w_mat = a.transpose(0, 2, 1) @ ((1.0 / (1.0 + b * b))[:, :, None] * a) + eye
    v11 = w_mat + dm @ dm @ bi2 + dm @ w_mat @ dm
    v12 = -dm @ (w_mat + bi2)
    v22 = w_mat + bi2
    return _quadratic_forms(plants, v11, v12, v22)


def centralized_lower_bounds(plants):
    """centralized_lower_bound of each plant, yielded in input order; plants
    of one size are evaluated as one stack (stacks.in_stacks), each value
    the bits of its lone evaluation. A plant with a zero input gain raises
    ZeroGainError at its turn."""
    return in_stacks(plants, lambda p: p.n, zero_gain_error, _lower_bound_group,
                     lambda p: centralized_lower_bound(p))


def centralized_lower_bound(p):
    """Quadratic form in (x0, B w0) that stays below the centralized
    design's cost, centralized_cost_closed_form (acceptance criterion 04a).

    It is no floor under other designs' costs: with x0 != 0 the deadbeat
    design can cost less than this form.
    """
    return alone(p, zero_gain_error, _lower_bound_group)


def centralized_cost_closed_form(p, sol):
    """Exact optimal cost from a solved Riccati fixed point: the quadratic
    form of X at (x0, xi0) with xi0 = G2 B^-1 x0 + w0."""
    xi0 = (sol.G2 / p.b_diag[None, :]) @ p.x0 + p.w0
    v = np.concatenate([p.x0, xi0])
    return float(v @ sol.X @ v)
