"""Cheap-control Riccati fixed point for the augmented plant.

The plant is augmented with the combined input xi = u + w, whose one-step
update v in xi(k+1) = D xi + v becomes the new control. With identity state
weight and zero weight on v the 2n-dim Riccati recursion is singular. But v
is free and unweighted, so xi(k+1) is a free choice: minimising over it
leaves the state-sized matrix P = X11 - X12 X22^-1 X21, and the fixed point
is X = I + [A B]' P [A B] with P the solution of the standard n-dim DARE

    P = I + A'PA - A'PB (I + BPB)^-1 BPA        (Q = R = I).

The solver value-iterates that n-dim equation from P = 0, which matches
the 2n-dim iteration from X = I step for step, and assembles X and the
gains from P.
"""
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConvergenceError,
    SingularInnerMatrixError,
    UncontrollablePairError,
)
from .plant import worst_case_family

_MACH_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class AugmentedSystem:
    a_tilde: np.ndarray
    b_tilde: np.ndarray
    n: int


def augment(p):
    """Build the augmented pair ([[A, B], [0, D]], [[0], [I]]) and assert it
    is controllable.

    In the PBH pencil [lam I - A~, B~] the block row [0, lam I - D, I] has
    rank n at every lam, so the augmented pair is controllable iff (A, B)
    is. With every b_ii nonzero B is invertible and (A, B) is controllable
    by construction; only a zero gain triggers a rank test, on the n-dim
    pair at each eigenvalue of A.
    """
    n = p.n
    a_tilde = np.zeros((2 * n, 2 * n))
    a_tilde[:n, :n] = p.A
    a_tilde[:n, n:] = np.diag(p.b_diag)
    a_tilde[n:, n:] = np.diag(p.d_diag)
    b_tilde = np.zeros((2 * n, n))
    b_tilde[n:, :] = np.eye(n)
    if np.any(p.b_diag == 0.0):
        pencil = np.empty((n, 2 * n), dtype=complex)
        pencil[:, n:] = np.diag(p.b_diag)
        for lam in np.linalg.eigvals(p.A):
            pencil[:, :n] = lam * np.eye(n) - p.A
            if np.linalg.matrix_rank(pencil) < n:
                raise UncontrollablePairError(
                    f"(A, B) loses rank at eigenvalue {lam} of A, so the "
                    f"augmented pair is not controllable")
    return AugmentedSystem(a_tilde=a_tilde, b_tilde=b_tilde, n=n)


@dataclass(frozen=True, eq=False)
class DareSolution:
    X: np.ndarray
    X11: np.ndarray
    X12: np.ndarray
    X22: np.ndarray
    G1: np.ndarray
    G2: np.ndarray
    iterations: int
    residual: float


def _blocks(sys):
    # A, diag(B), diag(D) as augment lays them out in A~
    n = sys.n
    return (sys.a_tilde[:n, :n], np.diag(sys.a_tilde[:n, n:]),
            np.diag(sys.a_tilde[n:, n:]))


def _solve_inner(inner, rhs):
    try:
        return np.linalg.solve(inner, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularInnerMatrixError(
            "inner matrix of the Riccati step is singular; the iterate lost "
            "positive definiteness, which signals an internal bug") from exc


def _gain(p_mat, a, b):
    """K = (I + BPB)^-1 BPA of the (A, B, I, I) DARE, with the PA and BPA
    it is built from."""
    pa = p_mat @ a
    bpa = b[:, None] * pa
    inner = np.eye(len(b)) + b[:, None] * p_mat * b[None, :]
    return pa, bpa, _solve_inner(inner, bpa)


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


def solve_singular_dare(sys, tol=1e-12, max_iter=100000):
    """Fixed point of X <- A~' X A~ - A~' X B~ (B~' X B~)^-1 B~' X A~ + I,
    found by value-iterating the n-dim (A, B, I, I) DARE for P from P = 0
    until P's step change drops below tol.

    The absolute tolerance is unreachable once entries of P exceed about
    1e4 (one ulp is then larger than tol), so an iterate that is stationary
    to a few ulps of its own scale is also accepted. The returned X is
    I + [A B]' P [A B], the gains are G1 = -K A and G2 = -K B - D with
    K = (I + BPB)^-1 BPA, and the reported residual is the max-abs Riccati
    defect of X.
    """
    a, b, d = _blocks(sys)
    n = sys.n
    p_mat = np.zeros((n, n))
    delta = np.inf
    for iterations in range(1, max_iter + 1):
        pa, bpa, k = _gain(p_mat, a, b)
        p_next = np.eye(n) + a.T @ pa - bpa.T @ k
        p_next = 0.5 * (p_next + p_next.T)
        delta = float(np.max(np.abs(p_next - p_mat)))
        p_mat = p_next
        if delta < tol or delta <= 64.0 * _MACH_EPS * (1.0 + float(np.max(np.abs(p_mat)))):
            break
    else:
        raise NoConvergenceError(
            f"no fixed point within {max_iter} iterations, last step change {delta:.3e}",
            iterations=max_iter, residual=delta)
    k = _gain(p_mat, a, b)[2]
    x = _lift(p_mat, a, b)
    return DareSolution(
        X=x, X11=x[:n, :n], X12=x[:n, n:], X22=x[n:, n:],
        G1=-k @ a, G2=-k * b[None, :] - np.diag(d),
        iterations=iterations, residual=dare_residual(x, sys))


def dare_residual(x, sys):
    """Max-abs entry of the fixed-point defect of a symmetric x.

    Minimising over the free xi(k+1) turns the Riccati map into
    I + [A B]' S [A B] with S the Schur complement X11 - X12 X22^-1 X21,
    so the defect needs only n-dim products.
    """
    a, b, _ = _blocks(sys)
    n = sys.n
    x12 = x[:n, n:]
    schur = x[:n, :n] - x12 @ _solve_inner(x[n:, n:], x12.T)
    return float(np.max(np.abs(_lift(schur, a, b) - x)))


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
