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
iteration from X = I step for step, and keeps P, the gains and P's own
Riccati defect: it builds no 2n-dim array. X is lifted from P only when a
caller reads a solution's X.

A dead subsystem is a vertex whose row and column of A are zero: its
entries of the fixed point are exactly P = 1 on the diagonal and zero off
it, with no gain into or out of it. A plant too large to share a stack
(2 n^2 > stacks.STACK_ENTRIES, n >= 46) has those entries written and is
iterated on its core, the other vertices. A smaller plant is iterated on
all n vertices: cutting it would split its stack by core size (26 to 33%
slower per plant on verify's stacks), or, with one core for the stack,
make a member's bits depend on its stack-mates, since BLAS and LAPACK sum
a smaller matrix's products in another order. So from n = 46 on neither
a DareSolution's iterations nor P's last digits are a property of the
plant alone; they follow the BLAS build's summation order. On 20 plants
with dead vertices at n = 60, the core and the n-dim iteration stopped at
another step in 15 (12 against 14, 63 against 25), and P differed by up
to 372 ulps of its scale. The large-n bits the tests pin are the
worst-case family's, which keeps the bits of its n = 2 core at every n.

Plants of one size n are solved together, as (m, n, n) stacks with one
member per plant. Each member leaves the stack at the step at which it
would stop alone, under the same rule, and a lone solve is a stack of one,
so a plant's solution is the same bits alone and in any stack. augment is
each member's gate: a plant it refuses never reaches the iteration.
"""
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidSpecError,
    NoConvergenceError,
    SingularInnerMatrixError,
    ZeroGainError,
)
from .plant import Plant, require_finite_model, require_nonzero_gains, worst_case_family
from .stacks import STACK_ENTRIES, alone, diagonals, in_stacks

_MACH_EPS = float(np.finfo(float).eps)
# |P'| <= |P| + |P' - P| entrywise, and the computed step change is within
# a relative half ulp of |P' - P|; this factor covers both roundings
_BOUND_GROWTH = 1.0 + 4.0 * _MACH_EPS


def augment(p):
    """The plant itself, once every entry of A, B and D is checked finite
    and every input gain b_ii nonzero.

    A NaN or infinite entry raises InvalidSpecError naming the first one.
    With B invertible, (A, B) is controllable, and so is the augmented
    pair, whose PBH block row [0, lam I - D, I] has rank n at every lam. A
    zero gain raises ZeroGainError: the gains G2 B^-1 and every cost form
    downstream divide by b_ii.
    """
    require_finite_model(p)
    require_nonzero_gains(p)
    return p


def _augment_error(p):
    """The error augment(p) raises, or None. augment is called by its
    module-level name, once per solved plant, so a wrapper bound to it sees
    every plant the solver takes."""
    try:
        augment(p)
    except (InvalidSpecError, ZeroGainError) as exc:
        return exc
    return None


@dataclass(frozen=True, eq=False)
class DareSolution:
    P: np.ndarray
    G1: np.ndarray
    G2: np.ndarray
    iterations: int
    residual: float
    plant: Plant

    @property
    def X(self):
        """The 2n-dim fixed point I + [A B]' P [A B], lifted on each read."""
        return _lift(self.P, self.plant)


def _solve_inner(inner, rhs):
    try:
        return np.linalg.solve(inner, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularInnerMatrixError(
            "inner matrix of the Riccati step is singular; the iterate lost "
            "positive definiteness, which signals an internal bug") from exc


def _gain(p_mat, a, b_col, b_row, eye):
    """K = (I + BPB)^-1 BPA of the (A, B, I, I) DARE, with the PA and BPA
    it is built from, for a stack of m plants: p_mat and a are (m, n, n),
    b_col and b_row are diag(B) as (m, n, 1) columns and (m, 1, n) rows."""
    pa = p_mat @ a
    bpa = b_col * pa
    return pa, bpa, _solve_inner(eye + b_col * p_mat * b_row, bpa)


def _lift(q, p):
    """I + [A B]' Q [A B], the augmented-state value of a state-sized Q on
    plant p."""
    a, b = p.A, p.b_diag[:, None]
    qa = q @ a
    out = np.block([[a.T @ qa, (b * qa).T], [b * qa, b * q * b.T]])
    return 0.5 * (out + out.T) + np.eye(2 * p.n)


def _solve_group(plants, tol, max_iter):
    """Value-iterate the DAREs of plants of one size n that augment
    accepts as one (m, n, n) stack; returns, in order, each plant's
    DareSolution or the NoConvergenceError that solving it alone raises.

    A plant too large to share a stack is iterated on its core only, and
    P = I, G1 = 0 and G2 = -D are written on its dead vertices; any other
    stack is iterated on all n vertices.
    """
    a = np.array([p.A for p in plants])
    b = np.array([p.b_diag for p in plants])
    d = np.array([p.d_diag for p in plants])
    m, n = b.shape
    core = None
    if 2 * n * n > STACK_ENTRIES:
        # in_stacks gives a plant this large a stack of its own, so the
        # stack's core, the union over its members, is the plant's
        nonzero = a != 0
        live = nonzero.any(axis=(0, 1)) | nonzero.any(axis=(0, 2))
        # A = 0: a core of one dead vertex, on which the loop stops at
        # step 2 with residual 0, as it does on any A = 0
        live[0] |= not live.any()
        if not live.all():
            core = np.flatnonzero(live)
    if core is None:
        p_mat, g1, g2, iterations, residuals, failed = _iterate(
            a, b, d, tol, max_iter)
    else:
        block = (slice(None), core[:, None], core)
        p_core, g1_core, g2_core, iterations, residuals, failed = _iterate(
            np.ascontiguousarray(a[block]), b[:, core], d[:, core], tol,
            max_iter)
        p_mat = np.tile(np.eye(n), (m, 1, 1))
        g1 = np.zeros((m, n, n))
        g2 = diagonals(-d)
        p_mat[block], g1[block], g2[block] = p_core, g1_core, g2_core
    return [error or DareSolution(P=pj, G1=g1j, G2=g2j, iterations=steps_j,
                                  residual=residual, plant=p)
            for error, p, pj, g1j, g2j, steps_j, residual
            in zip(failed, plants, p_mat, g1, g2, iterations, residuals)]


def _iterate(a, b, d, tol, max_iter):
    """The value iteration on (m, n, n) stacks a of A and (m, n) rows b and
    d of diag(B) and diag(D): each member's P, G1, G2, iterations,
    residual, and None or the NoConvergenceError that solving it alone
    raises.

    Each member leaves the stack at its own stopping step, so its
    iterations match a lone solve step for step. The stack is re-indexed
    only on a step at which some member stops or fails, so a lone solve
    does no indexing.
    """
    m, n = b.shape
    b_cols, b_rows = b[:, :, None], b[:, None, :]
    # loop invariants: at n <= 5 a step is a dozen microsecond-sized numpy
    # calls, so rebuilding these each step is a visible share of a solve;
    # eye is (1, n, n) because broadcasting it against a stack of one
    # costs more than the addition itself
    eye = np.eye(n)[None]
    live = list(range(m))        # input positions of the iterating members
    a_live, at, b_col, b_row = a, a.transpose(0, 2, 1), b_cols, b_rows
    p_mat = np.zeros((m, n, n))
    # members that fail keep P = 0 here, on which the stacked tail is finite
    p_final = np.zeros((m, n, n))
    iterations = [0] * m
    failed = [None] * m
    steps = [np.inf] * m
    bound = 0.0                  # no entry of a live member's P exceeds it
    for step in range(1, max_iter + 1):
        pa, bpa, k = _gain(p_mat, a_live, b_col, b_row, eye)
        p_next = eye + at @ pa - bpa.transpose(0, 2, 1) @ k
        p_next = 0.5 * (p_next + p_next.transpose(0, 2, 1))
        steps = np.abs(p_next - p_mat).max(axis=(1, 2)).tolist()
        p_mat = p_next
        # No member stops or fails while every step change is finite (the
        # sum is) and above both stopping thresholds. The relative one is
        # taken at an upper bound on every entry of the stack, kept without
        # reading P: the exact scales are read only when this test fails.
        low = min(steps)
        if low >= tol and sum(steps) < np.inf:
            bound = (bound + max(steps)) * _BOUND_GROWTH
            if low > 64.0 * _MACH_EPS * (1.0 + bound):
                continue
        # the exact rule, member by member; the scales are read only when
        # some member is not below the absolute tolerance
        scale = None
        keep = []
        for j, pos in enumerate(live):
            change = steps[j]
            if not change < tol and scale is None:
                scale = np.abs(p_mat).max(axis=(1, 2)).tolist()
            if change < tol or change <= 64.0 * _MACH_EPS * (1.0 + scale[j]):
                p_final[pos] = p_mat[j]
                iterations[pos] = step
            elif not change < np.inf:
                failed[pos] = NoConvergenceError(
                    f"step change {change} at iteration {step} is not finite",
                    iterations=step, residual=change)
            else:
                keep.append(j)
        if not keep:
            break
        bound = max(scale[j] for j in keep)
        if len(keep) < len(live):
            live = [live[j] for j in keep]
            steps = [steps[j] for j in keep]
            a_live, b_col, b_row = a[live], b_col[keep], b_row[keep]
            at, p_mat = a_live.transpose(0, 2, 1), p_mat[keep]
    else:
        for pos, change in zip(live, steps):
            failed[pos] = NoConvergenceError(
                f"no fixed point within {max_iter} iterations, last step "
                f"change {change:.3e}", iterations=max_iter, residual=change)
    pa, bpa, k = _gain(p_final, a, b_cols, b_rows, eye)
    # P's Riccati defect: the step change, before symmetrising, that one
    # more iteration would make
    defect = eye + a.transpose(0, 2, 1) @ pa - bpa.transpose(0, 2, 1) @ k - p_final
    residuals = np.abs(defect).max(axis=(1, 2)).tolist()
    minus_k = -k
    g1 = minus_k @ a
    g2 = minus_k * b_rows
    # minus D: a stride of n + 1 walks each member's diagonal, and the
    # entries off it are left as they are, as x - 0.0 leaves them
    g2_diag = g2.reshape(m, n * n)[:, ::n + 1]
    np.subtract(g2_diag, d, out=g2_diag)
    return p_final, g1, g2, iterations, residuals, failed


def solve_singular_dares(plants, tol=1e-12, max_iter=100000):
    """solve_singular_dare on each plant of a sequence: yields one
    DareSolution per plant, in input order.

    Plants of equal size n are iterated together as (m, n, n) stacks of at
    most STACK_ENTRIES // n^2 members (stacks.in_stacks), each leaving its
    stack at the step a lone solve would stop, so every solution,
    iteration count and residual is bit for bit that of solving the plant
    alone. A stack is solved when its first member's turn comes, and a
    failing plant raises, at its turn, the error it raises alone: augment's
    error for a plant augment refuses, which is never iterated, else a
    NoConvergenceError. So a caller that uses each solution as it comes
    holds at most one stack's solutions per plant size, and no stack behind
    the first failure in input order is solved.
    """
    return in_stacks(plants, lambda p: p.n, _augment_error,
                     lambda members: _solve_group(members, tol, max_iter),
                     # by the module-level name, so that a wrapper bound to
                     # it sees every lone solve
                     lambda p: solve_singular_dare(p, tol, max_iter))


def solve_singular_dare(p, tol=1e-12, max_iter=100000):
    """Fixed point of X <- A~' X A~ - A~' X B~ (B~' X B~)^-1 B~' X A~ + I
    on the augmented pair A~ = [[A, B], [0, D]], B~ = [[0], [I]] of plant p,
    found by value-iterating the n-dim (A, B, I, I) DARE for P from P = 0
    until P's step change drops below tol.

    A plant of n >= 46 is iterated on its core only, the vertices whose
    row or column of A holds a nonzero (see the module docstring). On a
    dead vertex P is 1 on the diagonal, G1 is zero and G2 is -d_ii on its
    row and column; its step change is 1 at step 1 and 0 after, so the
    iterations and the residual are the core's, and with A = 0 they are 2
    and 0. From n = 46 on the iterations and P's last digits also depend
    on the BLAS build (module docstring); the tests pin the worst-case
    family's.

    The absolute tolerance is unreachable once entries of P exceed about
    1e4 (one ulp is then larger than tol), so an iterate that is stationary
    to a few ulps of its own scale is also accepted. The solution keeps P;
    its X, I + [A B]' P [A B], is lifted from P when read. The gains are
    G1 = -K A and G2 = -K B - D with K = (I + BPB)^-1 BPA, and the
    residual is the max-abs n-dim defect of P, |I + A'PA - (BPA)'K - P|:
    the step change, before symmetrising, that one more iteration would
    make.

    p is refused before any iteration with the error augment raises on it:
    InvalidSpecError for a NaN or infinite entry of A, B or D,
    ZeroGainError for a zero input gain. A NaN or infinite step change
    raises NoConvergenceError at once, as does reaching max_iter.

    This is the stacked iteration of solve_singular_dares on a stack of
    one, so a plant solved alone and in a stack gives the same bits.
    """
    return alone(p, _augment_error,
                 lambda plants: _solve_group(plants, tol, max_iter))


def dare_residual(x, p):
    """Max-abs entry of the fixed-point defect of a symmetric 2n-dim x on
    plant p.

    Minimising over the free xi(k+1) turns the Riccati map into
    I + [A B]' S [A B] with S the Schur complement X11 - X12 X22^-1 X21,
    so the defect needs only an n-dim solve and one lift.
    """
    x = np.asarray(x)
    n = p.n
    x12 = x[:n, n:]
    schur = x[:n, :n] - x12 @ _solve_inner(x[n:, n:], x12.T)
    return float(np.abs(_lift(schur, p) - x).max())


def worst_case_family_solution(i, j, r, eps_b, n=None):
    """Closed-form fixed point for the single-coupling family, used as an
    oracle against the iterative solver.

    With A the family coupling matrix and e = eps_b, the solution is
    X = [[A'A, e A'], [e A, e^2/(1+e^2) A'A + e^2 I]] + I.
    """
    p = worst_case_family(i, j, r, eps_b, n)
    e2 = eps_b * eps_b
    ata = p.A.T @ p.A
    return np.eye(2 * p.n) + np.block(
        [[ata, eps_b * p.A.T], [eps_b * p.A, e2 / (1.0 + e2) * ata + e2 * np.eye(p.n)]])
