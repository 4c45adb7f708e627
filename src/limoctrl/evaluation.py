"""Closed-loop assembly and cost evaluation.

Costs are the infinite sums of x'x + (u+w)'(u+w) in identity-weight
coordinates; callers with general diagonal weights should fold them in
with plant.normalize first. exact_cost sums the whole series by Smith's
doubling, with no step cap and no tolerance; the theta strategy's cost
column, domination_check and criteria 02 and 07a read it. simulate_cost
steps the loop until its step cost stays small, and its total is a lower
estimate when its steps run out; at n = 200 it takes milliseconds where a
doubling takes a tenth of a second, so synthesize --with-cost reads it.
Neither solves a Lyapunov equation: with a pole of D on the unit circle
the combined loop is only marginally stable, with cost-invisible modes.

The stacked forms over a list, exact_costs, simulate_trajectories,
deadbeat_cost_closed_forms and centralized_lower_bounds, evaluate the
members of one size n as (m, n, n) stacks with the lone routine's kernels,
yield results in input order and raise a member's error at its turn
(stacks.in_stacks, which gates each member with _size_mismatch or
zero_gain_error). A lone routine is its stacked form on a stack of one
(stacks.alone), so a result is the same bits alone and in any stack.
"""
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError
from .plant import zero_gain_error
from .stacks import alone, in_stacks, stack

TOL_ABS = 1e-12
QUIET_STEPS = 10
MAX_STEPS = 10000
DIVERGENCE_CAP = 1e12
MAX_SQUARINGS = 64


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
    return alone((p, k), _size_mismatch, lambda pairs: [
        ClosedLoop(transition=t, mix_map=m, n=p.n) for t, m in zip(*_closed_loops(pairs))])


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


def simulate_cost(p, k):
    """Accumulate per-step costs until one of three exits.

    converged: the step cost stayed below TOL_ABS = 1e-12 for QUIET_STEPS =
    10 steps in a row. diverged: the running total passed DIVERGENCE_CAP =
    1e12, and total becomes +inf. Neither flag: MAX_STEPS = 10000 steps ran
    out and total is a lower estimate. tail_estimate is the last step cost
    seen, a proxy for the truncation error; below TOL_ABS when converged.
    It steps a stack of one with np.matvec and np.vecdot, so totals keep
    the bits these kernels have always given them.
    """
    loop = closed_loop(p, k)
    n = p.n
    transition, mix_map = loop.transition[None], loop.mix_map[None]
    s = _initial_states([p])
    total = 0.0
    quiet = 0                    # steps in a row with a cost below TOL_ABS
    for steps_used in range(1, MAX_STEPS + 1):
        x = s[:, :n]
        mix = np.matvec(mix_map, s)
        cost = np.vecdot(x, x).item() + np.vecdot(mix, mix).item()
        total += cost
        if total > DIVERGENCE_CAP:
            return CostReport(float("inf"), steps_used, False, True, float("inf"))
        quiet = quiet + 1 if cost < TOL_ABS else 0
        if quiet == QUIET_STEPS:
            return CostReport(total, steps_used, True, False, cost)
        s = np.matvec(transition, s)
    return CostReport(total, MAX_STEPS, False, False, cost)


class ExactCost(NamedTuple):
    """exact_cost's total, its squarings, and whether it diverged (+inf)."""
    total: float
    squarings: int
    diverged: bool


def _cost_loops(pairs):
    """_closed_loops' (transition, mix_map) stacks and the initial states,
    moved to the coordinates (x, e, w), e = w + C_K x_K = u + w - D_K x.

    A_K and C_K are diagonals, so e' = C_K B_K x + A_K e + (D - A_K) w, and
    with A_K = D, as in every construction, w drops out: a pole of D on the
    unit circle is no mode of the loop, not the marginal mode that the cost
    does not see in (x, w, x_K).
    """
    t, mix_map = _closed_loops(pairs)
    n = pairs[0][0].n
    x, mid, last = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)
    d, a_k = t[:, mid, mid], t[:, last, last]
    moved = np.zeros_like(t)
    moved[:, x, :2 * n] = t[:, x, :2 * n]                    # A + B D_K, B
    moved[:, mid, x] = mix_map[:, :, last] @ t[:, last, x]   # C_K B_K
    moved[:, mid, mid] = a_k
    moved[:, mid, last] = d - a_k
    moved[:, last, last] = d
    mix_map[:, :, last] = 0.0                                # D_K x + e
    s = _initial_states([p for p, _ in pairs])
    s[:, last] = s[:, mid]                                   # e0 = w0
    return moved, mix_map, s


def _exact_cost_group(pairs):
    """ExactCost of each same-size (plant, controller) pair that passes
    _size_mismatch, by Smith's doubling for the Stein sum.

    W starts as the step cost's form E'E + mix'mix (E selects x), and each
    squaring W <- W + T'WT, T <- T T doubles the steps it sums; the cost is
    s0'W s0. A member freezes, masked in its stack, at the first squaring
    that leaves its W unchanged or makes it non-finite (diverged). One still
    changing after MAX_SQUARINGS = 64 squarings has not settled in 2^64
    steps, as any decay rate below 1 in floating point does: diverged too.
    """
    t, mix_map, s0 = _cost_loops(pairs)
    m, n = len(pairs), pairs[0][0].n
    w = mix_map.transpose(0, 2, 1) @ mix_map
    w.reshape(m, -1)[:, :n * (3 * n + 1):3 * n + 1] += 1.0
    live = np.ones(m, dtype=bool)
    blown = np.zeros(m, dtype=bool)
    squarings = np.full(m, MAX_SQUARINGS)
    # a diverged T overflows, and inf times 0 is NaN: neither may warn
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, MAX_SQUARINGS + 1):
            new = w + t.transpose(0, 2, 1) @ w @ t
            ok = np.isfinite(new).all(axis=(1, 2))
            stop = live & ~(ok & (new != w).any(axis=(1, 2)))
            squarings[stop] = k
            blown |= live & ~ok
            np.copyto(w, new, where=(live & ok)[:, None, None])
            live &= ~stop
            if not live.any():
                break
            t = t @ t
        diverged = live | blown
        totals = np.where(diverged, np.inf, np.vecdot(s0, np.matvec(w, s0)))
    return [ExactCost(*r) for r in zip(totals.tolist(), squarings.tolist(),
                                       diverged.tolist())]


def exact_costs(pairs):
    """exact_cost of each (plant, controller) pair, yielded in input order
    (stacks.in_stacks); a controller of another size than its plant raises
    DimensionMismatchError at its turn."""
    return in_stacks(pairs, lambda pair: pair[0].n, _size_mismatch,
                     _exact_cost_group, lambda pair: exact_cost(*pair))


def exact_cost(p, k):
    """The infinite-horizon cost of plant p under controller k, with no
    step cap and no tolerance (_exact_cost_group); it raises nothing for a
    diverged loop."""
    return alone((p, k), _size_mismatch, _exact_cost_group)


def _quadratic_forms(plants, m11, m12, m22):
    """The quadratic form of [[m11, m12], [m12', m22]] at (x0, B w0) of each
    plant of an (m, n, n) stack, as floats."""
    n = plants[0].n
    v = np.array([np.concatenate([p.x0, p.b_diag * p.w0]) for p in plants])
    top = np.matvec(m11, v[:, :n]) + np.matvec(m12, v[:, n:])
    bot = np.matvec(m12.transpose(0, 2, 1), v[:, :n]) + np.matvec(m22, v[:, n:])
    return np.vecdot(v, np.concatenate([top, bot], axis=1)).tolist()


def _model_rows(plants):
    """The (m, n, n) stack of A, and diag(B) and diag(D) as (m, n) rows,
    of plants of one size."""
    return (stack([p.A for p in plants]), stack([p.b_diag for p in plants]),
            stack([p.d_diag for p in plants]))


def _diagonal(stacked):
    """The (m, n) view of the diagonals of an (m, n, n) C-ordered stack."""
    m, n = stacked.shape[:2]
    return stacked.reshape(m, n * n)[:, ::n + 1]


def _deadbeat_group(plants):
    # q11 = I + D^2 (I + B^-2) + A'B^-2 A + D A'B^-2 A D + A'B^-2 D + D B^-2 A
    # q12 = -D - A'B^-2 - D B^-2 - D A'B^-2 A
    # q22 = A'B^-2 A + B^-2 + I
    # summed in this order, each product with D or B^-2 a broadcast; the
    # operands of the two matrix products are C-ordered, as BLAS sums an
    # F-ordered operand in another order
    a, b, d = _model_rows(plants)
    bi2 = 1.0 / (b * b)
    at_bi2 = np.multiply(a.transpose(0, 2, 1), bi2[:, None, :], order="C")
    at_bi2_a = at_bi2 @ a
    d_at_bi2_a = (d[:, :, None] * at_bi2) @ a
    q22 = at_bi2_a.copy()
    _diagonal(q22)[:] = _diagonal(at_bi2_a) + bi2 + 1.0
    q11 = at_bi2_a
    _diagonal(q11)[:] += 1.0 + d * d * (1.0 + bi2)
    q11 += d_at_bi2_a * d[:, None, :]
    q11 += at_bi2 * d[:, None, :]
    q11 += (d * bi2)[:, :, None] * a
    q12 = np.negative(at_bi2)
    _diagonal(q12)[:] = -d - _diagonal(at_bi2) - d * bi2
    q12 -= d_at_bi2_a
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
    (x0, B w0); finite for every admissible plant.

    The form's blocks take two n^3 products, A'B^-2 A and (D A'B^-2) A;
    every other product is with the diagonal D or B^-2, and is taken as a
    broadcast of the diagonal, each entry rounded once, as the product
    with the dense diagonal matrix rounds it."""
    return alone(p, zero_gain_error, _deadbeat_group)


def _lower_bound_group(plants):
    # W = A'(I + B^2)^-1 A + I and, with D and B^-2 broadcast as in
    # _deadbeat_group, v11 = W + D^2 B^-2 + D W D, v12 = -D (W + B^-2),
    # v22 = W + B^-2
    a, b, d = _model_rows(plants)
    bi2 = 1.0 / (b * b)
    w_mat = a.transpose(0, 2, 1) @ ((1.0 / (1.0 + b * b))[:, :, None] * a)
    _diagonal(w_mat)[:] += 1.0
    v22 = w_mat.copy()
    _diagonal(v22)[:] += bi2
    dwd = d[:, :, None] * w_mat * d[:, None, :]
    v11 = w_mat
    _diagonal(v11)[:] += d * d * bi2
    v11 += dwd
    v12 = -d[:, :, None] * v22
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
    design can cost less than this form. Its one n^3 product is
    A'(I + B^2)^-1 A; D and B^-2 enter as broadcasts of their diagonals,
    as in deadbeat_cost_closed_form.
    """
    return alone(p, zero_gain_error, _lower_bound_group)


def centralized_cost_closed_form(p, sol):
    """Exact optimal cost from a solved Riccati fixed point: v'Xv at
    v = (x0, xi0), xi0 = G2 B^-1 x0 + w0, read off P in n dims as
    |x0|^2 + |xi0|^2 + y'Py with y = A x0 + B xi0 (X = I + [A B]'P[A B])."""
    x0, b = p.x0, p.b_diag
    # .dot: at n <= 5 a call's overhead is the cost, and a vector @ costs more
    xi0 = (sol.G2 / b).dot(x0) + p.w0
    y = p.A.dot(x0) + b * xi0
    return float(x0.dot(x0) + xi0.dot(xi0) + y.dot(sol.P.dot(y)))
