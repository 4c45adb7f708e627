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


def require_nonzero_gains(p):
    """Raise ZeroGainError if some input gain b_ii of p is exactly zero.

    Every design and cost form divides by b_ii. The check is exact, not
    against a floor: validate owns the floor, and a gain below it but
    nonzero still gives finite numbers.
    """
    if not p.b_diag.all():
        i = int(np.flatnonzero(p.b_diag == 0.0)[0])
        raise ZeroGainError(
            f"input gain b[{i + 1}] is zero; the designs divide by b_ii")


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
    out = []
    for field, values in (("A", p.A), ("B_diag", p.b_diag), ("D_diag", p.d_diag),
                          ("x0", p.x0), ("w0", p.w0)):
        finite = np.isfinite(values)
        if finite.all():
            continue
        for idx in np.argwhere(~finite):
            where = tuple(int(k) + 1 for k in idx)
            out.append(Violation(
                constraint="finite_entries",
                where=where,
                message=f"{field}{''.join(f'[{k}]' for k in where)} = "
                        f"{float(values[tuple(idx)])!r} is not finite"))
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


def _check_spec(spec):
    if spec.count < 0:
        raise InvalidSpecError(f"count must be nonnegative, got {spec.count}")
    if not positive_finite(spec.eps_b):
        raise InvalidSpecError(
            f"eps_b must be positive and finite, got {spec.eps_b}")
    if spec.n != spec.plant_graph.n:
        raise InvalidSpecError(
            f"spec.n = {spec.n} but plant graph has {spec.plant_graph.n} vertices")


def sample_ensemble(spec):
    """Draw spec.count admissible plants, reproducibly.

    Plant k draws, in this order, from the default numpy generator (PCG64)
    seeded with spec.seed + k: A uniform on [-2, 2) times the plant graph's
    mask; |b_ii| = eps_b + uniform [0, 2), with sign - or + at even odds;
    d_ii uniform on [-1, 1); x0 and w0 standard normal. Each plant has its
    own substream, so any single plant can be regenerated without drawing
    its predecessors.
    """
    _check_spec(spec)
    mask = spec.plant_graph.adj
    plants = []
    for k in range(spec.count):
        rng = np.random.default_rng(spec.seed + k)
        a = rng.uniform(-2.0, 2.0, size=(spec.n, spec.n)) * mask
        magnitude = spec.eps_b + rng.uniform(0.0, 2.0, size=spec.n)
        sign = np.where(rng.random(spec.n) < 0.5, -1.0, 1.0)
        d = rng.uniform(-1.0, 1.0, size=spec.n)
        plants.append(Plant(
            A=a,
            b_diag=sign * magnitude,
            d_diag=d,
            x0=rng.standard_normal(spec.n),
            w0=rng.standard_normal(spec.n),
        ))
    return plants


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
