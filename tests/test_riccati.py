"""The zero-gain gate and the singular Riccati fixed point.

The 2n-dim oracles build the augmented pair themselves with np.block, so
they share no code with the n-dim solver.
"""

import math
import warnings

import numpy as np
import pytest

import limoctrl as lc
from limoctrl.ratio import strategy_cost


def scalar_plant(a, b, d, x0=0.0, w0=0.0):
    return lc.Plant(A=[[a]], b_diag=[b], d_diag=[d], x0=[x0], w0=[w0])


def random_plants(seed, count, n):
    g = lc.complete_graph(n)
    return lc.sample_ensemble(
        lc.EnsembleSpec(n=n, plant_graph=g, seed=seed, count=count))


def augmented_pair(p):
    """A~ = [[A, B], [0, D]] and B~ = [[0], [I]], built here as the oracle's
    own copy."""
    n = p.n
    a_t = np.block([[p.A, p.B], [np.zeros((n, n)), p.D]])
    b_t = np.vstack([np.zeros((n, n)), np.eye(n)])
    return a_t, b_t


def test_augment_returns_the_plant():
    p = lc.Plant(A=[[1.0, 0.0], [2.0, 0.5]], b_diag=[1.0, -2.0],
                 d_diag=[0.5, 0.25], x0=[0, 0], w0=[0, 0])
    assert lc.augment(p) is p


def test_augment_rejects_zero_gain_row():
    with pytest.raises(lc.ZeroGainError):
        lc.augment(scalar_plant(1.0, 0.0, 0.5))


def test_trivial_fixed_point():
    # memoryless subsystem: one step pays for x0, one more for the input
    sol = lc.solve_singular_dare(lc.augment(scalar_plant(0.0, 1.0, 0.0)))
    assert np.allclose(sol.X, [[1.0, 0.0], [0.0, 2.0]], atol=1e-12)
    assert sol.iterations == 2
    assert sol.residual <= 1e-12


def test_solution_satisfies_stationarity():
    for p in random_plants(seed=11, count=6, n=3):
        sol = lc.solve_singular_dare(lc.augment(p))
        scale = 1.0 + float(np.max(np.abs(sol.X)))
        assert lc.dare_residual(sol.X, p) <= 1e-11 * scale
        assert np.allclose(sol.X, sol.X.T, atol=1e-10 * scale)
        assert np.all(np.linalg.eigvalsh(sol.X) >= -1e-9 * scale)


def test_value_iteration_is_monotone_from_identity():
    p = random_plants(seed=3, count=1, n=2)[0]
    sol = lc.solve_singular_dare(lc.augment(p))
    a_t, b_t = augmented_pair(p)
    x = np.eye(4)
    for _ in range(5):
        inner = b_t.T @ x @ b_t
        cross = b_t.T @ x @ a_t
        nxt = (np.eye(4) + a_t.T @ x @ a_t
               - cross.T @ np.linalg.solve(inner, cross))
        step = nxt - x
        assert np.min(np.linalg.eigvalsh(step)) >= -1e-9
        below = sol.X - nxt
        assert np.min(np.linalg.eigvalsh(below)) >= -1e-8
        x = nxt


def test_gain_block_identities():
    for p in random_plants(seed=21, count=5, n=3):
        sol = lc.solve_singular_dare(lc.augment(p))
        scale = 1.0 + float(np.max(np.abs(sol.X)))
        n = p.n
        x11, x12, x22 = sol.X[:n, :n], sol.X[:n, n:], sol.X[n:, n:]
        # input-facing gain recovered from the solution blocks
        g2 = -(np.linalg.solve(x22, x12.T) @ p.B + p.D)
        assert np.allclose(sol.G2, g2, atol=1e-9 * scale)
        # the state block compresses to a saturated input-size fixed point
        schur = x11 - x12 @ np.linalg.solve(x22, x12.T)
        b_inv = np.diag(1.0 / p.b_diag)
        assert np.allclose(schur, b_inv @ (x22 - np.eye(n)) @ b_inv,
                           atol=1e-8 * scale)


def test_solution_is_a_certified_lower_bound():
    # z' X z at the start never exceeds the simulated cost of any controller
    for p in random_plants(seed=33, count=6, n=2):
        sol = lc.solve_singular_dare(lc.augment(p))
        for k in (lc.deadbeat(p), lc.centralized_optimal(p, sol=sol)):
            z0 = np.concatenate([p.x0, k.D_K @ p.x0 + p.w0])
            floor = float(z0 @ sol.X @ z0)
            total = lc.simulate_cost(p, k).total
            assert total >= floor - 1e-6 * (1.0 + abs(floor))


def _reference_solve(p, tol=1e-12, max_iter=100000):
    """The value-iteration loop as it was before its invariants were
    hoisted: every step rebuilds eye(n), A', b[:, None] and b[None, :] and
    reads the maxima with np.max. Returns (X, G1, G2, iterations)."""
    a, b, d = p.A, p.b_diag, p.d_diag
    n = p.n
    eps = float(np.finfo(float).eps)

    def gain(p_mat):
        pa = p_mat @ a
        bpa = b[:, None] * pa
        inner = np.eye(len(b)) + b[:, None] * p_mat * b[None, :]
        return pa, bpa, np.linalg.solve(inner, bpa)

    p_mat = np.zeros((n, n))
    for iterations in range(1, max_iter + 1):
        pa, bpa, k = gain(p_mat)
        p_next = np.eye(n) + a.T @ pa - bpa.T @ k
        p_next = 0.5 * (p_next + p_next.T)
        delta = float(np.max(np.abs(p_next - p_mat)))
        p_mat = p_next
        if delta < tol or delta <= 64.0 * eps * (1.0 + float(np.max(np.abs(p_mat)))):
            break
    k = gain(p_mat)[2]
    qa = p_mat @ a
    x = np.empty((2 * n, 2 * n))
    x[:n, :n] = a.T @ qa
    x[n:, :n] = b[:, None] * qa
    x[:n, n:] = x[n:, :n].T
    x[n:, n:] = b[:, None] * p_mat * b[None, :]
    x = 0.5 * (x + x.T) + np.eye(2 * n)
    return x, -k @ a, -k * b[None, :] - np.diag(d), iterations


def test_solver_matches_the_unhoisted_loop_bit_for_bit():
    for seed in range(50):
        n = 1 + seed % 5
        p = random_plants(seed=100 + seed, count=1, n=n)[0]
        sol = lc.solve_singular_dare(lc.augment(p))
        x, g1, g2, iterations = _reference_solve(p)
        assert sol.iterations == iterations
        assert np.array_equal(sol.X, x)
        assert np.array_equal(sol.G1, g1)
        assert np.array_equal(sol.G2, g2)


def test_no_convergence_error_carries_state():
    p = lc.augment(scalar_plant(1.0, 1.0, 1.0))
    with pytest.raises(lc.NoConvergenceError) as exc:
        lc.solve_singular_dare(p, max_iter=1)
    assert exc.value.iterations == 1
    assert exc.value.residual > 0.0


def test_non_finite_step_stops_the_iteration_at_once():
    # every entry is finite, but the iterate overflows: P's second step
    # is inf - inf
    p = lc.Plant(A=[[1e200, 0.0], [1.0, 0.5]], b_diag=[1.0, 1.5],
                 d_diag=[0.5, 0.25], x0=[1.0, 0.0], w0=[0.0, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(lc.NoConvergenceError) as exc:
            lc.solve_singular_dare(lc.augment(p))
    assert exc.value.iterations <= 3
    assert not math.isfinite(exc.value.residual)


OVERFLOW_PLANT = lc.Plant(A=[[1e200, 0.0], [1.0, 0.5]], b_diag=[1.0, 1.5],
                          d_diag=[0.5, 0.25], x0=[1.0, 0.0], w0=[0.0, 1.0])


def _mixed_plants():
    """Seeded ensemble plants at n = 1..5, some with A scaled by 10, and
    family plants at n = 30 and 60, shuffled so that no size group is
    contiguous. Three of the scaled plants (P up to about 370) stop by the
    relative rule, at a step change of 1.6e-12 to 4.1e-12 > tol, after 10,
    77 and 588 steps; the others stop below tol."""
    plants = [p for n in range(1, 6) for p in random_plants(seed=200 + n, count=8, n=n)]
    for n, picks in ((2, (0, 1, 2, 3)), (3, (0, 1, 2, 4))):
        seeded = random_plants(seed=300 + n, count=6, n=n)
        plants += [lc.Plant(A=10.0 * seeded[k].A, b_diag=seeded[k].b_diag,
                            d_diag=seeded[k].d_diag, x0=seeded[k].x0,
                            w0=seeded[k].w0) for k in picks]
    plants += [lc.worst_case_family(1, 2, r, 1.0, n)
               for n in (30, 60) for r in (1.0, 37.0, 1e5)]
    order = np.random.default_rng(9).permutation(len(plants))
    return [plants[k] for k in order]


def _error_state(exc):
    return type(exc), str(exc), exc.iterations, repr(exc.residual)


def test_stacked_solves_match_lone_solves_bit_for_bit():
    plants = _mixed_plants()
    stacked = list(lc.solve_singular_dares(plants))
    assert len(stacked) == len(plants)
    for p, sol in zip(plants, stacked):
        alone = lc.solve_singular_dare(p)
        assert sol.X.shape == (2 * p.n, 2 * p.n)
        assert np.array_equal(sol.X, alone.X)
        assert np.array_equal(sol.G1, alone.G1)
        assert np.array_equal(sol.G2, alone.G2)
        assert sol.iterations == alone.iterations
        assert sol.residual == alone.residual
        if p.n <= 5:
            # and both are the plain loop's, stopping step included
            x, g1, g2, iterations = _reference_solve(p)
            assert np.array_equal(sol.X, x) and sol.iterations == iterations
            assert np.array_equal(sol.G1, g1) and np.array_equal(sol.G2, g2)
    # the n = 4 group is one stack whose members stop at different steps
    steps = {sol.iterations for p, sol in zip(plants, stacked) if p.n == 4}
    assert len(steps) > 1


def test_stacked_solves_keep_the_input_order():
    plants = _mixed_plants()
    forward = list(lc.solve_singular_dares(plants))
    backward = list(lc.solve_singular_dares(plants[::-1]))
    for a, b in zip(forward, backward[::-1]):
        assert np.array_equal(a.X, b.X) and a.iterations == b.iterations
    assert list(lc.solve_singular_dares([])) == []


def test_overflowing_member_raises_its_lone_error():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(lc.NoConvergenceError) as alone:
            lc.solve_singular_dare(OVERFLOW_PLANT)
        plants = _mixed_plants()
        plants.insert(len(plants) // 2, OVERFLOW_PLANT)
        with pytest.raises(lc.NoConvergenceError) as stacked:
            list(lc.solve_singular_dares(plants))
        assert _error_state(stacked.value) == _error_state(alone.value)
        # the first failure in input order is reported, whichever group
        # it is in and whichever member fails first: the overflow stops at
        # iteration 2, the n = 3 plant reaches max_iter = 3 later
        slow = random_plants(seed=5, count=1, n=3)[0]
        with pytest.raises(lc.NoConvergenceError) as exc:
            lc.solve_singular_dare(slow, max_iter=3)
        with pytest.raises(lc.NoConvergenceError) as first:
            list(lc.solve_singular_dares([slow, OVERFLOW_PLANT], max_iter=3))
        assert _error_state(first.value) == _error_state(exc.value)
        with pytest.raises(lc.NoConvergenceError) as first:
            list(lc.solve_singular_dares([OVERFLOW_PLANT, slow], max_iter=3))
        assert _error_state(first.value) == _error_state(alone.value)


def test_large_plants_are_split_into_bounded_stacks(monkeypatch):
    # a stack holds at most 4096 // n^2 members: 4 at n = 30, 1 at n = 60
    stacks = []
    solve_group = lc.riccati._solve_group

    def counted(plants, *args):
        stacks.append((plants[0].n, len(plants)))
        return solve_group(plants, *args)

    monkeypatch.setattr(lc.riccati, "_solve_group", counted)
    plants = [lc.worst_case_family(1, 2, r, 1.0, n)
              for n in (30, 60) for r in (1.0, 3.0, 10.0, 37.0, 1e3, 1e5)]
    sols = list(lc.solve_singular_dares(plants))
    assert stacks == [(30, 4), (30, 2)] + [(60, 1)] * 6
    for p, sol in zip(plants, sols):
        assert np.array_equal(sol.X, lc.solve_singular_dare(p).X)


def test_stacks_are_solved_as_their_first_member_comes(monkeypatch):
    stacks = []
    solve_group = lc.riccati._solve_group

    def counted(plants, *args):
        stacks.append((plants[0].n, len(plants)))
        return solve_group(plants, *args)

    monkeypatch.setattr(lc.riccati, "_solve_group", counted)
    twos = random_plants(seed=11, count=3, n=2)
    threes = random_plants(seed=12, count=2, n=3)
    solutions = lc.solve_singular_dares([twos[0], threes[0], twos[1], threes[1],
                                         twos[2]])
    assert stacks == []
    next(solutions)
    assert stacks == [(2, 3)]
    next(solutions)
    assert stacks == [(2, 3), (3, 2)]
    assert len(list(solutions)) == 3 and len(stacks) == 2
    # no stack behind the first failure in input order is solved
    del stacks[:]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(lc.NoConvergenceError):
            list(lc.solve_singular_dares([twos[0], OVERFLOW_PLANT, threes[0]]))
    assert stacks == [(2, 2)]


def test_max_iter_in_a_stack_raises_the_first_members_lone_error():
    plants = _mixed_plants()
    with pytest.raises(lc.NoConvergenceError) as alone:
        lc.solve_singular_dare(plants[0], max_iter=1)
    with pytest.raises(lc.NoConvergenceError) as stacked:
        list(lc.solve_singular_dares(plants, max_iter=1))
    assert _error_state(stacked.value) == _error_state(alone.value)
    assert stacked.value.iterations == 1


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field, where", [("A", (1, 0)), ("b_diag", (1,)),
                                          ("d_diag", (0,))])
def test_non_finite_plant_is_refused_before_the_solve(field, where, value):
    data = {"A": np.array([[1.0, 0.0], [2.0, 0.5]]), "b_diag": np.array([1.0, 1.5]),
            "d_diag": np.array([0.5, 0.25])}
    data[field][where] = value
    p = lc.Plant(**data, x0=[1.0, 0.0], w0=[0.0, 1.0])
    name = {"A": "A", "b_diag": "B_diag", "d_diag": "D_diag"}[field]
    index = "".join(f"[{k + 1}]" for k in where)
    good = lc.worst_case_family(1, 2, 3.0, 1.0, 2)
    # the solvers refuse it with augment's error, before any iteration,
    # whose overflow would warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for refuse in (lc.augment, lc.solve_singular_dare,
                       lambda q: list(lc.solve_singular_dares([good, q]))):
            with pytest.raises(lc.InvalidSpecError) as exc:
                refuse(p)
            assert str(exc.value) == f"{name}{index} = {value!r} is not finite"
        with pytest.raises(lc.InvalidSpecError):
            lc.centralized_optimal(p)


def test_first_non_finite_entry_is_named():
    p = lc.Plant(A=[[1.0, math.inf], [math.nan, 0.5]], b_diag=[1.0, math.nan],
                 d_diag=[0.5, 0.25], x0=[1.0, 0.0], w0=[0.0, 1.0])
    with pytest.raises(lc.InvalidSpecError, match=r"^A\[1\]\[2\] = inf "):
        lc.augment(p)


def test_family_solution_matches_iteration():
    for eps_b in (0.5, 1.0, 2.0):
        for r in (0.5, 1.0, 2.0, 7.0):
            explicit = lc.worst_case_family_solution(1, 2, r, eps_b)
            p = lc.worst_case_family(1, 2, r, eps_b)
            iterated = lc.solve_singular_dare(lc.augment(p))
            scale = 1.0 + float(np.max(np.abs(iterated.X)))
            tol = 64.0 * np.finfo(float).eps * scale + 1e-12
            assert np.max(np.abs(explicit - iterated.X)) <= tol
            assert lc.dare_residual(explicit, p) <= 1e-10 * scale


def test_family_solution_explicit_blocks():
    x = lc.worst_case_family_solution(1, 2, 10.0, 1.0)
    p = lc.worst_case_family(1, 2, 10.0, 1.0)
    assert x.shape == (4, 4)
    assert np.array_equal(x, x.T)
    assert np.array_equal(x[:2, :2], np.eye(2) + p.A.T @ p.A)
    assert np.array_equal(x[:2, 2:], p.A.T)
    assert np.allclose(x[2:, 2:], 2.0 * np.eye(2) + 0.5 * p.A.T @ p.A,
                       atol=1e-12)


def sink_graph_plant(seed, n, density=0.2):
    # self-loops, random cross edges, and one sink vertex fed by another
    rng = np.random.default_rng([seed, n])
    mask = (rng.random((n, n)) < density).astype(np.int8)
    np.fill_diagonal(mask, 1)
    v = int(rng.integers(n))
    mask[:, v] = 0
    mask[v, v] = 1
    mask[v, (v + 1 + int(rng.integers(n - 1))) % n] = 1
    spec = lc.EnsembleSpec(n=n, plant_graph=lc.from_adjacency(mask),
                           seed=seed, count=1)
    return lc.sample_ensemble(spec)[0]


def dense_defect(x, p):
    """Riccati defect by the 2n-dim triple products, as an oracle."""
    a_t, b_t = augmented_pair(p)
    cross = b_t.T @ x @ a_t
    return (cross.T @ np.linalg.solve(b_t.T @ x @ b_t, cross)
            - a_t.T @ x @ a_t + x - np.eye(len(x)))


def test_matches_2n_value_iteration():
    # the singular 2n-dim value iteration from X = I, kept as a reference
    for p in random_plants(seed=29, count=5, n=3):
        sol = lc.solve_singular_dare(lc.augment(p))
        a_t, b_t = augmented_pair(p)
        x = np.eye(6)
        for _ in range(sol.iterations):
            cross = b_t.T @ x @ a_t
            x = (np.eye(6) + a_t.T @ x @ a_t
                 - cross.T @ np.linalg.solve(x[3:, 3:], cross))
            x = 0.5 * (x + x.T)
        scale = float(np.max(np.abs(x)))
        assert np.max(np.abs(sol.X - x)) <= 1e-12 * scale


@pytest.mark.parametrize("n", [50, 100])
def test_large_solution_matches_scipy(n):
    linalg = pytest.importorskip("scipy.linalg")
    p = sink_graph_plant(seed=7, n=n)
    sol = lc.solve_singular_dare(lc.augment(p))
    a_t, b_t = augmented_pair(p)
    scale = float(np.max(np.abs(sol.X)))
    x_ref = linalg.solve_discrete_are(a_t, b_t, np.eye(2 * n), np.zeros((n, n)))
    assert np.max(np.abs(sol.X - x_ref)) <= 1e-9 * scale
    assert sol.residual <= 1e-11 * scale
    # X22 = I + BPB carries the state-sized (A, B, I, I) solution
    p_ref = linalg.solve_discrete_are(p.A, p.B, np.eye(n), np.eye(n))
    b_inv = np.diag(1.0 / p.b_diag)
    assembled = b_inv @ (sol.X[n:, n:] - np.eye(n)) @ b_inv
    assert np.max(np.abs(assembled - p_ref)) <= 1e-9 * np.max(np.abs(p_ref))
    # and the gains are the 2n-dim ones of that X
    g = -np.linalg.solve(sol.X[n:, n:], b_t.T @ sol.X @ a_t)
    assert np.allclose(np.hstack([sol.G1, sol.G2]), g, atol=1e-9 * scale)


def test_family_solution_matches_iteration_at_n60():
    for eps_b in (0.5, 2.0):
        for r in (1.0, 1e3):
            p = lc.worst_case_family(1, 2, r, eps_b, 60)
            explicit = lc.worst_case_family_solution(1, 2, r, eps_b, 60)
            iterated = lc.solve_singular_dare(lc.augment(p))
            scale = float(np.max(np.abs(explicit)))
            assert np.max(np.abs(explicit - iterated.X)) <= 1e-12 * scale


def test_block_residual_matches_dense_defect():
    # an identity of the map, so it holds away from the fixed point too
    rng = np.random.default_rng(5)
    for p in random_plants(seed=41, count=4, n=4):
        m = rng.standard_normal((8, 8))
        x = np.eye(8) + m @ m.T
        expected = float(np.max(np.abs(dense_defect(x, p))))
        assert lc.dare_residual(x, p) == pytest.approx(expected, rel=1e-10)


# A = [[0.5, 1], [0, 0.3]] with b = (0, 1) is a plant the old rank probe
# admitted, and on which every design then divided by zero. Vertex 2 feeds
# vertex 1, so row 2 is sink_aware's non-sink (deadbeat) row.
ZERO_GAIN_ENTRY_POINTS = {
    "augment": lc.augment,
    "solve_singular_dare": lc.solve_singular_dare,
    # a stack of two, so the stack's own gate refuses it
    "solve_singular_dares": lambda p: list(lc.solve_singular_dares(
        [lc.worst_case_family(1, 2, 3.0, 1.0, 2), p])),
    "centralized_optimal": lc.centralized_optimal,
    "strategy_cost_centralized": lambda p: strategy_cost(p, "centralized"),
    "per_plant_ratio": lambda p: lc.per_plant_ratio(p, "deadbeat"),
    "deadbeat": lc.deadbeat,
    "sink_aware": lambda p: lc.sink_aware(
        p, lc.from_edge_list(2, [(1, 1), (2, 2), (2, 1)])),
    "deadbeat_cost_closed_form": lc.deadbeat_cost_closed_form,
    "centralized_lower_bound": lc.centralized_lower_bound,
}


@pytest.mark.parametrize("zero_row", [1, 2])
@pytest.mark.parametrize("entry", sorted(ZERO_GAIN_ENTRY_POINTS))
def test_zero_gain_is_refused(entry, zero_row):
    b = [1.0, 1.0]
    b[zero_row - 1] = 0.0
    p = lc.Plant(A=[[0.5, 1.0], [0.0, 0.3]], b_diag=b, d_diag=[0.2, 0.4],
                 x0=[1.0, 1.0], w0=[1.0, 1.0])
    with pytest.raises(lc.ZeroGainError) as exc:
        ZERO_GAIN_ENTRY_POINTS[entry](p)
    # augment's message, from every entry point
    assert str(exc.value) == \
        f"input gain b[{zero_row}] is zero; the designs divide by b_ii"


def test_nilpotent_centralized_refuses_zero_gain():
    p = lc.Plant(A=[[0.0, 1.0], [0.0, 0.0]], b_diag=[1.0, 0.0],
                 d_diag=[0.2, 0.4], x0=[1.0, 1.0], w0=[1.0, 1.0])
    with pytest.raises(lc.ZeroGainError, match=r"b\[2\]"):
        lc.nilpotent_centralized(p)
