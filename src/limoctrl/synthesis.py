"""The three controller constructions and their structural checks.

All controllers here share the realization shape x_K(k+1) = A_K x_K + B_K x,
u = C_K x_K + D_K x with x_K(0) = 0, one controller state per subsystem, and
diagonal A_K and C_K so that subcontrollers share no state. A Controller
holds A_K and C_K as their diagonals a_diag and c_diag, so the type itself
rules out shared state; only controller_from_dict, which reads full
matrices, checks the off-diagonal entries.
"""
from dataclasses import dataclass
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidPerturbationError,
    InvalidSpecError,
    NotNilpotentError,
    SingularResolventError,
    ZeroGainError,
)
from .evaluation import (
    centralized_cost_closed_form,
    deadbeat_cost_closed_forms,
    exact_cost,
    exact_costs,
)
from .graphs import sink_masks
from .plant import (
    Plant,
    _graph_size_error,
    is_nilpotent_deg2,
    require_nonzero_gains,
    validate,
    zero_gain_error,
)
# augment is bound but unused here: perfbench's tracer tests read the name
from .riccati import augment, solve_singular_dare, solve_singular_dares  # noqa: F401
from .stacks import alone, diagonals, handed_over, in_stacks, stack


@dataclass(frozen=True, eq=False)
class Controller:
    """A realization with diagonal A_K and C_K, kept as their diagonals
    a_diag and c_diag, as Plant keeps B and D."""
    a_diag: np.ndarray
    B_K: np.ndarray
    c_diag: np.ndarray
    D_K: np.ndarray

    def __post_init__(self):
        a = np.array(self.a_diag, dtype=float)
        if a.ndim != 1:
            raise DimensionMismatchError("a_diag must be a vector")
        n = a.size
        a.setflags(write=False)
        object.__setattr__(self, "a_diag", a)
        for name, shape in (("B_K", (n, n)), ("c_diag", (n,)), ("D_K", (n, n))):
            m = np.array(getattr(self, name), dtype=float)
            if m.shape != shape:
                raise DimensionMismatchError(
                    f"{name} has shape {m.shape}, expected {shape}")
            m.setflags(write=False)
            object.__setattr__(self, name, m)

    @property
    def n(self):
        return self.a_diag.size

    @property
    def A_K(self):
        return np.diag(self.a_diag)

    @property
    def C_K(self):
        return np.diag(self.c_diag)


def controller_to_dict(k):
    return {"A_K": k.A_K.tolist(), "B_K": k.B_K.tolist(),
            "C_K": k.C_K.tolist(), "D_K": k.D_K.tolist()}


def _diagonal_of(d, name):
    """The diagonal of the square matrix d[name]; a nonzero off-diagonal
    entry is refused, since subcontrollers may not share state."""
    m = np.array(d[name], dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(
            f"{name} has shape {m.shape}, expected a square matrix")
    # a NaN counts as nonzero, so it is refused off the diagonal too
    if np.count_nonzero(m) > np.count_nonzero(m.diagonal()):
        raise InvalidSpecError(
            f"{name} must be diagonal; subcontrollers may not share state")
    return m.diagonal()


def controller_from_dict(d):
    return Controller(a_diag=_diagonal_of(d, "A_K"), B_K=d["B_K"],
                      c_diag=_diagonal_of(d, "C_K"), D_K=d["D_K"])


def centralized_optimal(p, sol=None):
    """Optimal disturbance-accommodating controller with full model access.

    sol is solve_singular_dare's solution for p; without one the singular
    DARE is solved here with the solver's own defaults, and a plant that
    augment refuses raises augment's error. D_K is the very array G2 B^-1,
    so the defining constraint G2 B^-1 - D_K = 0 holds bit for bit, not
    merely within tolerance.
    """
    if sol is None:
        sol = solve_singular_dare(p)
    d_k = sol.G2 / p.b_diag[None, :]
    b_k = sol.G1 + p.d_diag[:, None] * d_k - d_k @ p.A
    return Controller(a_diag=p.d_diag, B_K=b_k, c_diag=np.ones(p.n), D_K=d_k)


def centralized_costs(plants):
    """Closed-form cost of the centralized design of each plant, yielded
    in order.

    This is the one route to that cost: the Riccati equations go through
    solve_singular_dares, so plants of one size are solved as stacks, and
    each cost is taken as its solution comes, so only floats outlive a
    stack. A list of one plant is a lone solve_singular_dare. A plant that
    augment refuses raises at its turn.
    """
    plants = list(plants)
    for p, sol in zip(plants, solve_singular_dares(plants)):
        yield centralized_cost_closed_form(p, sol)


def nilpotent_centralized(p):
    """Closed-form optimal controller for plants whose coupling matrix
    squares to zero; agrees with centralized_optimal without solving."""
    if not is_nilpotent_deg2(p.A):
        raise NotNilpotentError("plant coupling matrix A must satisfy A @ A = 0")
    require_nonzero_gains(p)
    b = p.b_diag
    d = p.d_diag
    shrink = 1.0 / (1.0 + b * b)
    d_k = -(shrink * b)[:, None] * p.A - np.diag(d / b)
    b_k = (d * shrink / b)[:, None] * p.A - np.diag(d * d / b)
    return Controller(a_diag=p.d_diag, B_K=b_k, c_diag=np.ones(p.n), D_K=d_k)


def _controllers(plants, b_k, d_k):
    """The structured controller of each plant from its B_K and D_K, taken
    from two fresh (m, n, n) stacks: A_K is the plant's D and C_K is I."""
    ones = np.ones(plants[0].n)
    for arrays in (ones, b_k, d_k):
        arrays.setflags(write=False)
    return [handed_over(Controller, a_diag=p.d_diag, B_K=bk, c_diag=ones, D_K=dk)
            for p, bk, dk in zip(plants, b_k, d_k)]


def _deadbeat_stack(plants):
    a = stack([p.A for p in plants])
    b = stack([p.b_diag for p in plants])
    d = stack([p.d_diag for p in plants])
    # -(A + D) / b, each step in place on the one fresh stack
    d_k = diagonals(d)
    d_k += a
    np.negative(d_k, out=d_k)
    d_k /= b[:, :, None]
    return _controllers(plants, diagonals(-(d * d) / b), d_k)


def deadbeats(plants):
    """deadbeat of each plant, yielded in input order; plants of one size
    are built as one stack (stacks.in_stacks), each controller the bits of
    its lone build. A plant with a zero input gain raises ZeroGainError at
    its turn."""
    return in_stacks(plants, lambda p: p.n, zero_gain_error, _deadbeat_stack,
                     lambda p: deadbeat(p))


def deadbeat(p):
    """Two-step deadbeat design: cancel couplings and disturbance estimate,
    then hold u + w at zero. Row i uses only (row i of A, b_ii, d_ii)."""
    return alone(p, zero_gain_error, _deadbeat_stack)


def sink_gain(a_ii, b_ii):
    """Optimal scalar state-feedback factor for a decoupled subsystem.

    Solves the scalar cheap-control Riccati problem for dynamics a_ii and
    gain b_ii; the returned f in (0, 1] scales how much of the local
    coupling row survives in the feedback.
    """
    if b_ii == 0:
        raise ZeroGainError("input gain b_ii must be nonzero")
    a2 = a_ii * a_ii
    b2 = b_ii * b_ii
    disc = (a2 + b2) ** 2 + 2.0 * (b2 - a2) + 1.0
    return 2.0 / (b2 + a2 + 1.0 + math.sqrt(disc))


def _sink_aware_error(pair):
    p, g_p = pair
    if g_p is None:
        return InvalidSpecError("the sink-aware design needs the plant graph")
    return _graph_size_error(p.n, g_p.n) or zero_gain_error(p)


def _sink_stack(plants, sink):
    """sink_aware of same-size plants; row k of the (m, n) bool array sink
    marks the sinks of plant k's graph, at least one."""
    a = stack([p.A for p in plants])
    b = stack([p.b_diag for p in plants])
    d = stack([p.d_diag for p in plants])
    f = np.zeros(b.shape)
    for k, v in zip(*(index.tolist() for index in np.nonzero(sink))):
        f[k, v] = sink_gain(a[k, v, v], b[k, v])
    # row-scaled division keeps the non-sink cancellation rows bitwise equal
    # to the deadbeat rows: (f-1)*a/b, not ((f-1)/b)*a
    d_k = _scaled_rows(f - 1.0, a, b, d / b)
    b_k = _scaled_rows(d * f, a, b, d * d / b)
    return _controllers(plants, b_k, d_k)


def _scaled_rows(scale, a, b, values):
    """(scale * A) / b - diag(values) for stacks of rows, each step in place
    on one fresh stack: an entry minus 0.0 is that entry, signed zeros
    included, so only the diagonals are subtracted."""
    m, n = values.shape
    out = scale[:, :, None] * a
    out /= b[:, :, None]
    out.reshape(m, -1)[:, ::n + 1] -= values
    return out


def _sink_aware_stack(pairs):
    """sink_aware of same-size (plant, graph) pairs that pass
    _sink_aware_error."""
    sink = sink_masks([g_p for _, g_p in pairs])
    tuned = sink.any(axis=1).tolist()
    plants = [p for p, _ in pairs]
    if all(tuned):
        return _sink_stack(plants, sink)
    if not any(tuned):
        # with no sink the design is deadbeat, bit for bit
        return _deadbeat_stack(plants)
    # a mixed stack is built as its two uniform parts
    built = [None] * len(plants)
    for part in ([k for k, t in enumerate(tuned) if t],
                 [k for k, t in enumerate(tuned) if not t]):
        for k, controller in zip(part, _sink_aware_stack([pairs[k] for k in part])):
            built[k] = controller
    return built


def sink_awares(pairs):
    """sink_aware of each (plant, graph) pair, yielded in input order; pairs
    of one plant size are built as one stack (stacks.in_stacks), each
    controller the bits of its lone build. A missing graph, a graph of
    another size or a zero input gain raises at its turn."""
    return in_stacks(pairs, lambda pair: pair[0].n, _sink_aware_error,
                     _sink_aware_stack, lambda pair: sink_aware(*pair))


def sink_aware(p, g_p):
    """Deadbeat on every subsystem that feeds another, scalar-optimal gain on
    every sink of the plant graph.

    Sinks are read off the graph, not off numeric zeros in A: a sampled
    coupling that happens to be 0.0 does not make a subsystem a sink. With
    no sinks at all the result is deadbeat(p), bit for bit. Without a graph
    (g_p None) the design is refused with InvalidSpecError.
    """
    return alone((p, g_p), _sink_aware_error, _sink_aware_stack)


def _sink_aware_costs(members):
    """exact_cost totals of the sink-aware designs of same-size (plant,
    graph) pairs that pass _sink_aware_error, built and summed as stacks."""
    built = _sink_aware_stack(members)
    return [c.total for c in exact_costs(zip((p for p, _ in members), built))]


class Strategy(NamedTuple):
    """A design's build(p, g_p) -> Controller and its cost(pairs), which
    yields J of each (plant, graph) pair in order: a closed form where one
    exists, else the built controller's exact_costs total (+inf diverged).
    Both routes evaluate plants of one size as stacks."""
    build: Callable
    cost: Callable


# Entries look their functions up by module-level name at call time, so a
# wrapper bound to that name sees them.
STRATEGIES = {
    "centralized": Strategy(
        build=lambda p, g_p: centralized_optimal(p),
        cost=lambda pairs: centralized_costs(p for p, _ in pairs)),
    "deadbeat": Strategy(
        build=lambda p, g_p: deadbeat(p),
        cost=lambda pairs: deadbeat_cost_closed_forms(p for p, _ in pairs)),
    "theta": Strategy(
        build=lambda p, g_p: sink_aware(p, g_p),
        cost=lambda pairs: in_stacks(
            pairs, lambda pair: pair[0].n, _sink_aware_error, _sink_aware_costs,
            lambda pair: exact_cost(pair[0], sink_aware(*pair)).total)),
}


def strategy_entry(name):
    """The STRATEGIES entry of a strategy name; unknown names are rejected."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise InvalidSpecError(f"unknown strategy {name!r}") from None


def strategy_builder(name):
    """The build(p, g_p) of a strategy name; unknown names are rejected."""
    return strategy_entry(name).build


def transfer_eval(k, z):
    """Evaluate C_K (z I - A_K)^-1 B_K + D_K at one complex point.

    With A_K and C_K diagonal, row i is c_i / (z - a_i) times row i of B_K,
    plus row i of D_K.
    """
    z = complex(z)
    if np.any(z == k.a_diag):
        raise SingularResolventError(f"z = {z} is a controller mode")
    return (k.c_diag / (z - k.a_diag))[:, None] * k.B_K + k.D_K


def sparsity_pattern(k):
    """Binary mask of transfer-function entries that are nonzero anywhere.

    Entry (i, j) of C_K (z I - A_K)^-1 B_K + D_K is
    c_diag[i] B_K[i,j] / (z - a_diag[i]) + D_K[i,j], which vanishes for
    every z iff D_K[i,j] == 0 and c_diag[i] B_K[i,j] == 0. The mask is read
    from those entries with no tolerance: a feedthrough entry of 1e-12 is
    reported as 1, where a numeric probe against a 1e-9 modulus threshold
    would report 0.
    """
    through_state = (k.c_diag != 0)[:, None] & (k.B_K != 0)
    return ((k.D_K != 0) | through_state).astype(np.int8)


def coupling_cancellation_defect(p, k, rows=None):
    """Largest residue of a_ij + b_ii * (D_K)_ij over off-diagonal entries.

    Evaluated in the divided form a_ij / b_ii + (D_K)_ij: multiplying the
    feedback entry back by b_ii costs an ulp in floating point, while the
    divided form is exactly zero for controllers built by division, which
    is what the constructions here do. rows restricts the check to the
    given 1-based rows.
    """
    scaled = p.A / p.b_diag[:, None] + k.D_K
    np.fill_diagonal(scaled, 0.0)
    if rows is not None:
        keep = np.zeros(p.n, dtype=bool)
        for r in rows:
            keep[r - 1] = True
        scaled = scaled[keep]
    return float(np.max(np.abs(scaled))) if scaled.size else 0.0


@dataclass(frozen=True)
class RowPerturbation:
    """Replacement data for one subsystem row; None fields keep the original."""
    a_row: tuple | None = None
    b: float | None = None
    d: float | None = None


def apply_row_perturbation(p, g_p, row, pert, eps_b):
    """Rebuild p with row `row` (1-based) of (A, b, d) replaced.

    The result must pass validate(q, g_p, eps_b); a row outside 1..n, a
    replacement row of the wrong length or any violation raises
    InvalidPerturbationError.
    """
    if not (1 <= row <= p.n):
        raise InvalidPerturbationError(f"row {row} outside 1..{p.n}")
    i = row - 1
    a = p.A.copy()
    b = p.b_diag.copy()
    d = p.d_diag.copy()
    if pert.a_row is not None:
        new_row = np.asarray(pert.a_row, dtype=float)
        if new_row.shape != (p.n,):
            raise InvalidPerturbationError(
                f"replacement row has shape {new_row.shape}, expected ({p.n},)")
        a[i, :] = new_row
    if pert.b is not None:
        b[i] = float(pert.b)
    if pert.d is not None:
        d[i] = float(pert.d)
    q = Plant(A=a, b_diag=b, d_diag=d, x0=p.x0, w0=p.w0)
    if validate(q, g_p, eps_b):
        raise InvalidPerturbationError("perturbed plant violates its structured set")
    return q


def limited_info_check(strategy, p, g_p, row, pert, eps_b):
    """True iff perturbing one subsystem row leaves every other subcontroller
    bit-identical.

    strategy is a key of STRATEGIES, and the perturbed plant must pass
    apply_row_perturbation under the plant graph g_p and gain floor eps_b.
    The check is evidence for one plant and one perturbation: it holds for
    the deadbeat and sink-aware constructions, whose row i reads only row i
    of the model (plus the public graph), and fails generically for the
    centralized strategy, whose Riccati gains mix all rows.
    """
    build = strategy_builder(strategy)
    base = build(p, g_p)
    perturbed = build(apply_row_perturbation(p, g_p, row, pert, eps_b), g_p)
    # row j is unchanged when every field compares equal on it (a NaN never
    # does); the perturbed row itself is exempt
    same = ((base.B_K == perturbed.B_K).all(axis=1)
            & (base.D_K == perturbed.D_K).all(axis=1)
            & (base.a_diag == perturbed.a_diag) & (base.c_diag == perturbed.c_diag))
    same[row - 1] = True
    return bool(same.all())
