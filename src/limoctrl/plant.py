"""Plant model and its structural constraint checks.

A plant is x(k+1) = A x(k) + B (u(k) + w(k)) with disturbance dynamics
w(k+1) = D w(k). B and D are diagonal and stored as their diagonals. The
coupling matrix A may only be nonzero where the plant graph permits, and
every input gain must clear the floor eps_b in absolute value.
"""
from dataclasses import dataclass
import math
import warnings

import numpy as np

from .errors import (
    DimensionMismatchError,
    DisturbanceGrowthWarning,
    InvalidSpecError,
    NonPositiveEpsilonError,
    NonPositiveWeightError,
    NonSquareError,
    SameIndexError,
    ZeroGainError,
    ZeroParameterError,
)
from .graphs import DirectedGraph, size_from_dict
from .stacks import alone, handed_over, in_stacks, stack


def _frozen(a, shape):
    arr = np.array(a, dtype=float)
    if arr.shape != shape:
        raise DimensionMismatchError(f"expected shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Plant:
    A: np.ndarray
    b_diag: np.ndarray
    d_diag: np.ndarray
    x0: np.ndarray
    w0: np.ndarray

    def __post_init__(self):
        b = np.array(self.b_diag, dtype=float)
        if b.ndim != 1 or b.size == 0:
            raise DimensionMismatchError("b_diag must be a nonempty vector")
        n = b.size
        b.setflags(write=False)
        object.__setattr__(self, "b_diag", b)
        object.__setattr__(self, "A", _frozen(self.A, (n, n)))
        object.__setattr__(self, "d_diag", _frozen(self.d_diag, (n,)))
        object.__setattr__(self, "x0", _frozen(self.x0, (n,)))
        object.__setattr__(self, "w0", _frozen(self.w0, (n,)))

    @property
    def n(self):
        return self.b_diag.size

    @property
    def B(self):
        return np.diag(self.b_diag)

    @property
    def D(self):
        return np.diag(self.d_diag)


def zero_gain_error(p):
    """The ZeroGainError naming the first input gain b_ii of p that is
    exactly zero, or None if there is none.

    Every design and cost form divides by b_ii. The check is exact, not
    against a floor: validate owns the floor, and a gain below it but
    nonzero still gives finite numbers.
    """
    if p.b_diag.all():
        return None
    i = int(np.flatnonzero(p.b_diag == 0.0)[0])
    return ZeroGainError(
        f"input gain b[{i + 1}] is zero; the designs divide by b_ii")


def require_nonzero_gains(p):
    """Raise zero_gain_error(p), if p has a zero input gain."""
    error = zero_gain_error(p)
    if error:
        raise error


def _non_finite_entries(fields):
    """Yield (where, message) for each NaN or infinite entry of the named
    arrays, field by field in row-major order; where is the 1-based index."""
    for field, values in fields:
        finite = np.isfinite(values)
        if finite.all():
            continue
        for idx in np.argwhere(~finite):
            where = tuple(int(k) + 1 for k in idx)
            yield where, (f"{field}{''.join(f'[{k}]' for k in where)} = "
                          f"{float(values[tuple(idx)])!r} is not finite")


def require_finite_model(p):
    """Raise InvalidSpecError naming the first NaN or infinite entry of A,
    B_diag or D_diag of p.

    validate reports every such entry as a violation; this is the gate for
    callers that solve without validating first.
    """
    for _, message in _non_finite_entries(
            (("A", p.A), ("B_diag", p.b_diag), ("D_diag", p.d_diag))):
        raise InvalidSpecError(message)


def positive_finite(x):
    """True iff x is a positive finite number: False for NaN and +inf."""
    return 0 < x < math.inf


def plant_to_dict(p):
    return {
        "n": p.n,
        "A": p.A.tolist(),
        "B_diag": p.b_diag.tolist(),
        "D_diag": p.d_diag.tolist(),
        "x0": p.x0.tolist(),
        "w0": p.w0.tolist(),
    }


def plant_from_dict(d):
    n = size_from_dict(d)
    a = np.array(d["A"], dtype=float)
    if a.shape != (n, n):
        raise DimensionMismatchError(f"A has shape {a.shape}, expected ({n},{n})")
    return Plant(A=a, b_diag=d["B_diag"], d_diag=d["D_diag"], x0=d["x0"], w0=d["w0"])


@dataclass(frozen=True)
class Violation:
    constraint: str
    where: tuple | None
    message: str

    def as_dict(self):
        return {"constraint": self.constraint,
                "where": list(self.where) if self.where else None,
                "message": self.message}


def validate(p, g_p, eps_b):
    """Check p against the coupling mask of g_p and the input-gain floor.

    Returns a list of violations, empty when the plant is admissible. Every
    entry of A, B_diag, D_diag, x0 and w0 must be finite; each NaN or
    infinity is one finite_entries violation at its 1-based index. A
    disturbance pole with |d_ii| > 1 is legal but triggers a warning: the
    controllers cancel it exactly in theory, while in floating point the
    cancellation degrades as d^k grows.
    """
    if not positive_finite(eps_b):
        raise NonPositiveEpsilonError(
            f"eps_b must be positive and finite, got {eps_b}")
    if p.n != g_p.n:
        raise DimensionMismatchError(
            f"plant has {p.n} subsystems but graph has {g_p.n} vertices")
    out = [Violation(constraint="finite_entries", where=where, message=message)
           for where, message in _non_finite_entries(
               (("A", p.A), ("B_diag", p.b_diag), ("D_diag", p.d_diag),
                ("x0", p.x0), ("w0", p.w0)))]
    off_mask = (p.A != 0) & (g_p.adj == 0)
    for i, j in np.argwhere(off_mask):
        out.append(Violation(
            constraint="coupling_sparsity",
            where=(int(i) + 1, int(j) + 1),
            message=f"A[{i + 1}][{j + 1}] = {float(p.A[i, j])!r} but the plant "
                    f"graph has no edge {j + 1} -> {i + 1}"))
    for i in range(p.n):
        if abs(p.b_diag[i]) < eps_b:
            out.append(Violation(
                constraint="input_gain_floor",
                where=(int(i) + 1,),
                message=f"|b[{i + 1}]| = {float(abs(p.b_diag[i]))!r} is below "
                        f"the floor {eps_b}"))
    grew = np.abs(p.d_diag) > 1
    if grew.any():
        idx = [int(i) + 1 for i in np.nonzero(grew)[0]]
        warnings.warn(
            f"disturbance poles {idx} exceed 1 in magnitude; exact cancellation "
            f"loses precision as the pole powers grow", DisturbanceGrowthWarning)
    return out


def normalize(p, q_diag, r_diag):
    """Fold diagonal cost weights Q and R into the plant data.

    The identity-weight cost of the returned plant equals the (Q, R)-weighted
    cost of the input plant. D and the sparsity pattern of A are unchanged.
    """
    q = np.asarray(q_diag, dtype=float)
    r = np.asarray(r_diag, dtype=float)
    if q.shape != (p.n,) or r.shape != (p.n,):
        raise DimensionMismatchError("weight diagonals must have length n")
    if np.any(q <= 0) or np.any(r <= 0):
        raise NonPositiveWeightError("cost weights must be strictly positive")
    sq = np.sqrt(q)
    sr = np.sqrt(r)
    return Plant(
        A=sq[:, None] * p.A / sq[None, :],
        b_diag=sq * p.b_diag / sr,
        d_diag=p.d_diag,
        x0=sq * p.x0,
        w0=sr * p.w0,
    )


@dataclass(frozen=True)
class EnsembleSpec:
    n: int
    plant_graph: DirectedGraph
    eps_b: float = 1.0
    seed: int = 0
    count: int = 1


def _eps_b_error(eps_b):
    if positive_finite(eps_b):
        return None
    return InvalidSpecError(f"eps_b must be positive and finite, got {eps_b}")


def _check_spec(spec):
    if spec.count < 0:
        raise InvalidSpecError(f"count must be nonnegative, got {spec.count}")
    error = _eps_b_error(spec.eps_b)
    if error:
        raise error
    if spec.n != spec.plant_graph.n:
        raise InvalidSpecError(
            f"spec.n = {spec.n} but plant graph has {spec.plant_graph.n} vertices")


def sample_ensemble(spec):
    """Draw spec.count admissible plants, reproducibly.

    Plant k draws from the default numpy generator (PCG64) seeded with
    spec.seed + k, and from nothing else, so any single plant can be
    regenerated without drawing its predecessors. Its stream is read as two
    draws, n^2 + 3n consecutive doubles u on [0, 1) and then 2n standard
    normals:
      - A = (-2 + 4 u) on the first n^2, row-major, times the plant
        graph's mask: uniform on [-2, 2) on the graph's edges;
      - |b_ii| = eps_b + 2 u on the next n;
      - b_ii is negative where the next n are below 0.5;
      - d_ii = -1 + 2 u on the last n;
      - x0 is the first n normals, w0 the last n.
    lo + (hi - lo) u is numpy's uniform(lo, hi) on the same double, so these
    are the bits of the separate uniform, random and standard_normal calls
    in that order. The plants are sample_plants of (graph, eps_b, seed + k).
    """
    _check_spec(spec)
    return list(sample_plants((spec.plant_graph, spec.eps_b, spec.seed + k)
                              for k in range(spec.count)))


def _draw_error(draw):
    return _eps_b_error(draw[1])


def _plant_stack(draws):
    """The plant of each (plant_graph, eps_b, seed) triple whose graphs have
    one size n and which passes _draw_error, drawn as one stack: one
    generator and two draws per plant, every map once."""
    n = draws[0][0].n
    nn = n * n
    u = np.empty((len(draws), nn + 3 * n))
    normal = np.empty((len(draws), 2 * n))
    for k, (_, _, seed) in enumerate(draws):
        # default_rng(seed) without its dispatch on the argument's type
        rng = np.random.Generator(np.random.PCG64(seed))
        rng.random(out=u[k])
        rng.standard_normal(out=normal[k])
    # -2 + 4 u and then the mask, in place: a - 2 rounds as -2 + a does
    a = 4.0 * u[:, :nn].reshape(-1, n, n)
    a -= 2.0
    a *= stack([g_p.adj for g_p, _, _ in draws])
    magnitude = (np.array([eps_b for _, eps_b, _ in draws], dtype=float)[:, None]
                 + 2.0 * u[:, nn:nn + n])
    sign = np.where(u[:, nn + n:nn + 2 * n] < 0.5, -1.0, 1.0)
    d = -1.0 + 2.0 * u[:, nn + 2 * n:]
    b = sign * magnitude
    for arrays in (a, b, d, normal):
        arrays.setflags(write=False)
    return [handed_over(Plant, A=a_k, b_diag=b_k, d_diag=d_k, x0=z_k[:n], w0=z_k[n:])
            for a_k, b_k, d_k, z_k in zip(a, b, d, normal)]


def sample_plants(draws):
    """The plant drawn for each (plant_graph, eps_b, seed) triple, yielded in
    input order: item k is sample_ensemble of the spec (plant_graph.n,
    plant_graph, eps_b, seed, count 1). Triples whose graphs have one size
    are drawn as one stack (stacks.in_stacks), each plant the bits of its
    lone draw; an eps_b that is not positive and finite raises
    InvalidSpecError at its turn."""
    return in_stacks(draws, lambda draw: draw[0].n, _draw_error, _plant_stack,
                     lambda draw: alone(draw, _draw_error, _plant_stack))


def worst_case_family(i, j, r, eps_b, n=None):
    """Single-coupling plant family whose deadbeat-vs-optimal cost ratio
    approaches the analytic bound as |r| grows.

    The coupling is one entry of weight r on the edge i -> j, input gains
    sit exactly at the floor eps_b, disturbances are constant (D = I), and
    the initial conditions are scaled so the optimal cost stays O(1).
    """
    if i == j:
        raise SameIndexError(f"source and target coincide: i = j = {i}")
    if r == 0:
        raise ZeroParameterError("coupling weight r must be nonzero")
    if not math.isfinite(r):
        raise InvalidSpecError(f"coupling weight r must be finite, got {r}")
    if not positive_finite(eps_b):
        raise NonPositiveEpsilonError(
            f"eps_b must be positive and finite, got {eps_b}")
    if n is None:
        n = max(i, j)
    if not (1 <= i <= n and 1 <= j <= n):
        raise DimensionMismatchError(f"vertices ({i},{j}) outside 1..{n}")
    s = math.sqrt(4.0 * eps_b * eps_b + 1.0)
    c1 = (eps_b * eps_b + 1.0) * (s + 1.0) / (2.0 * eps_b * r)
    a = np.zeros((n, n))
    a[j - 1, i - 1] = r
    x0 = np.zeros(n)
    x0[i - 1] = c1
    w0 = np.zeros(n)
    w0[i - 1] = c1 / eps_b
    w0[j - 1] -= 1.0
    return Plant(A=a, b_diag=np.full(n, float(eps_b)), d_diag=np.ones(n),
                 x0=x0, w0=w0)


def is_nilpotent_deg2(a):
    """True iff A @ A vanishes, up to a scale-aware tolerance."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {m.shape}")
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    return float(np.max(np.abs(m @ m))) <= 1e-12 * (1.0 + scale * scale)
