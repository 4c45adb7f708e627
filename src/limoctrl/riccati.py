"""Cheap-control Riccati fixed point for the augmented plant.

The plant is augmented with the combined input xi = u + w, whose one-step
update v in xi(k+1) = D xi + v becomes the new control. With identity state
weight and zero weight on v the 2n-dim Riccati recursion is singular. But v
is free and unweighted, so xi(k+1) is a free choice: minimising over it
leaves the state-sized matrix P = X11 - X12 X22^-1 X21, and the fixed point
is X = I + [A B]' P [A B] with P the solution of the standard n-dim DARE

    P = I + A'PA - A'PB (I + BPB)^-1 BPA        (Q = R = I).

Every routine here reads A, diag(B) and diag(D) straight off the plant; the
2n-dim pair ([[A, B], [0, D]], [[0], [I]]) is never built. The solver
value-iterates the n-dim equation from P = 0, which matches the 2n-dim
iteration from X = I step for step, and assembles X and the gains from P.
"""
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, SingularInnerMatrixError
from .plant import require_nonzero_gains, worst_case_family

_MACH_EPS = float(np.finfo(float).eps)


def augment(p):
    """The plant itself, once every input gain b_ii is checked nonzero.

    With B invertible, (A, B) is controllable, and so is the augmented
    pair, whose PBH block row [0, lam I - D, I] has rank n at every lam. A
    zero gain raises ZeroGainError: the gains G2 B^-1 and every cost form
    downstream divide by b_ii.
    """
    require_nonzero_gains(p)
    return p


@dataclass(frozen=True, eq=False)
class DareSolution:
    X: np.ndarray
    G1: np.ndarray
    G2: np.ndarray
    iterations: int
    residual: float


def _solve_inner(inner, rhs):
    try:
        return np.linalg.solve(inner, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularInnerMatrixError(
            "inner matrix of the Riccati step is singular; the iterate lost "
            "positive definiteness, which signals an internal bug") from exc


def _gain(p_mat, a, b_col, b_row, eye):
    """K = (I + BPB)^-1 BPA of the (A, B, I, I) DARE, with the PA and BPA
    it is built from; b_col and b_row are diag(B) as a column and a row."""
    pa = p_mat @ a
    bpa = b_col * pa
    return pa, bpa, _solve_inner(eye + b_col * p_mat * b_row, bpa)


def _lift(q, a, b):
    """I + [A B]' Q [A B], the augmented-state value of a state-sized Q."""
    n = len(b)
    qa = q @ a
    out = np.empty((2 * n, 2 * n))
    out[:n, :n] = a.T @ qa
    out[n:, :n] = b[:, None] * qa
    out[:n, n:] = out[n:, :n].T
    out[n:, n:] = b[:, None] * q * b[None, :]
    return 0.5 * (out + out.T) + np.eye(2 * n)


def solve_singular_dare(p, tol=1e-12, max_iter=100000):
    """Fixed point of X <- A~' X A~ - A~' X B~ (B~' X B~)^-1 B~' X A~ + I
    on the augmented pair A~ = [[A, B], [0, D]], B~ = [[0], [I]] of plant p,
    found by value-iterating the n-dim (A, B, I, I) DARE for P from P = 0
    until P's step change drops below tol.

    The absolute tolerance is unreachable once entries of P exceed about
    1e4 (one ulp is then larger than tol), so an iterate that is stationary
    to a few ulps of its own scale is also accepted. The returned X is
    I + [A B]' P [A B], the gains are G1 = -K A and G2 = -K B - D with
    K = (I + BPB)^-1 BPA, and the reported residual is the max-abs Riccati
    defect of X. A NaN or infinite step change raises NoConvergenceError
    at once, as does reaching max_iter.
    """
    a, b, d = p.A, p.b_diag, p.d_diag
    n = p.n
    # loop invariants: at n <= 5 a step is a dozen microsecond-sized numpy
    # calls, so rebuilding these each step is a visible share of a solve
    at, b_col, b_row, eye = a.T, b[:, None], b[None, :], np.eye(n)
    p_mat = np.zeros((n, n))
    delta = np.inf
    for iterations in range(1, max_iter + 1):
        pa, bpa, k = _gain(p_mat, a, b_col, b_row, eye)
        p_next = eye + at @ pa - bpa.T @ k
        p_next = 0.5 * (p_next + p_next.T)
        delta = float(np.abs(p_next - p_mat).max())
        p_mat = p_next
        if delta < tol or delta <= 64.0 * _MACH_EPS * (1.0 + float(np.abs(p_mat).max())):
            break
        if not delta < np.inf:
            raise NoConvergenceError(
                f"step change {delta} at iteration {iterations} is not finite",
                iterations=iterations, residual=delta)
    else:
        raise NoConvergenceError(
            f"no fixed point within {max_iter} iterations, last step change {delta:.3e}",
            iterations=max_iter, residual=delta)
    k = _gain(p_mat, a, b_col, b_row, eye)[2]
    x = _lift(p_mat, a, b)
    return DareSolution(
        X=x, G1=-k @ a, G2=-k * b_row - np.diag(d),
        iterations=iterations, residual=dare_residual(x, p))


def dare_residual(x, p):
    """Max-abs entry of the fixed-point defect of a symmetric 2n-dim x on
    plant p.

    Minimising over the free xi(k+1) turns the Riccati map into
    I + [A B]' S [A B] with S the Schur complement X11 - X12 X22^-1 X21,
    so the defect needs only n-dim products.
    """
    n = p.n
    x12 = x[:n, n:]
    schur = x[:n, :n] - x12 @ _solve_inner(x[n:, n:], x12.T)
    return float(np.max(np.abs(_lift(schur, p.A, p.b_diag) - x)))


def worst_case_family_solution(i, j, r, eps_b, n=None):
    """Closed-form fixed point for the single-coupling family, used as an
    oracle against the iterative solver.

    With A the family coupling matrix and e = eps_b, the solution is
    X = [[A'A, e A'], [e A, e^2/(1+e^2) A'A + e^2 I]] + I.
    """
    p = worst_case_family(i, j, r, eps_b, n)
    n = p.n
    e2 = eps_b * eps_b
    ata = p.A.T @ p.A
    x = np.eye(2 * n)
    x[:n, :n] += ata
    x[:n, n:] = eps_b * p.A.T
    x[n:, :n] = eps_b * p.A
    x[n:, n:] += e2 / (1.0 + e2) * ata + e2 * np.eye(n)
    return x
