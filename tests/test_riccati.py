"""Augmented-pair construction and the singular Riccati fixed point."""

import numpy as np
import pytest

import limoctrl as lc


def scalar_plant(a, b, d, x0=0.0, w0=0.0):
    return lc.Plant(A=[[a]], b_diag=[b], d_diag=[d], x0=[x0], w0=[w0])


def random_plants(seed, count, n):
    g = lc.complete_graph(n)
    return lc.sample_ensemble(
        lc.EnsembleSpec(n=n, plant_graph=g, seed=seed, count=count))


def test_augment_block_layout():
    p = lc.Plant(A=[[1.0, 0.0], [2.0, 0.5]], b_diag=[1.0, -2.0],
                 d_diag=[0.5, 0.25], x0=[0, 0], w0=[0, 0])
    sys = lc.augment(p)
    assert sys.n == 2
    assert np.array_equal(sys.a_tilde[:2, :2], p.A)
    assert np.array_equal(sys.a_tilde[:2, 2:], p.B)
    assert np.array_equal(sys.a_tilde[2:, :2], np.zeros((2, 2)))
    assert np.array_equal(sys.a_tilde[2:, 2:], p.D)
    assert np.array_equal(sys.b_tilde[:2, :], np.zeros((2, 2)))
    assert np.array_equal(sys.b_tilde[2:, :], np.eye(2))


def test_augment_rejects_zero_gain_row():
    with pytest.raises(lc.UncontrollablePairError):
        lc.augment(scalar_plant(1.0, 0.0, 0.5))


def test_trivial_fixed_point():
    # memoryless subsystem: one step pays for x0, one more for the input
    sol = lc.solve_singular_dare(lc.augment(scalar_plant(0.0, 1.0, 0.0)))
    assert np.allclose(sol.X, [[1.0, 0.0], [0.0, 2.0]], atol=1e-12)
    assert sol.iterations == 2
    assert sol.residual <= 1e-12


def test_solution_satisfies_stationarity():
    for p in random_plants(seed=11, count=6, n=3):
        sys = lc.augment(p)
        sol = lc.solve_singular_dare(sys)
        scale = 1.0 + float(np.max(np.abs(sol.X)))
        assert lc.dare_residual(sol.X, sys) <= 1e-11 * scale
        assert np.allclose(sol.X, sol.X.T, atol=1e-10 * scale)
        assert np.all(np.linalg.eigvalsh(sol.X) >= -1e-9 * scale)


def test_value_iteration_is_monotone_from_identity():
    p = random_plants(seed=3, count=1, n=2)[0]
    sys = lc.augment(p)
    sol = lc.solve_singular_dare(sys)
    x = np.eye(4)
    for _ in range(5):
        inner = sys.b_tilde.T @ x @ sys.b_tilde
        cross = sys.b_tilde.T @ x @ sys.a_tilde
        nxt = (np.eye(4) + sys.a_tilde.T @ x @ sys.a_tilde
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
        # input-facing gain recovered from the solution blocks
        g2 = -(np.linalg.solve(sol.X22, sol.X12.T) @ p.B + p.D)
        assert np.allclose(sol.G2, g2, atol=1e-9 * scale)
        # the state block compresses to a saturated input-size fixed point
        schur = sol.X11 - sol.X12 @ np.linalg.solve(sol.X22, sol.X12.T)
        b_inv = np.diag(1.0 / p.b_diag)
        assert np.allclose(schur, b_inv @ (sol.X22 - np.eye(p.n)) @ b_inv,
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


def test_no_convergence_error_carries_state():
    sys = lc.augment(scalar_plant(1.0, 1.0, 1.0))
    with pytest.raises(lc.NoConvergenceError) as exc:
        lc.solve_singular_dare(sys, max_iter=1)
    assert exc.value.iterations == 1
    assert exc.value.residual > 0.0


def test_family_solution_matches_iteration():
    for eps_b in (0.5, 1.0, 2.0):
        for r in (0.5, 1.0, 2.0, 7.0):
            explicit = lc.worst_case_family_solution(1, 2, r, eps_b)
            p = lc.worst_case_family(1, 2, r, eps_b)
            iterated = lc.solve_singular_dare(lc.augment(p))
            scale = 1.0 + float(np.max(np.abs(iterated.X)))
            tol = 64.0 * np.finfo(float).eps * scale + 1e-12
            assert np.max(np.abs(explicit - iterated.X)) <= tol
            assert lc.dare_residual(explicit, lc.augment(p)) <= 1e-10 * scale


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


def pbh_controllable_2n(p):
    """The augmented-pair PBH test at every eigenvalue of A~, on the full
    2n-dim pencil, as an oracle that shares no code with augment."""
    n = p.n
    a_t = np.block([[p.A, p.B], [np.zeros((n, n)), p.D]])
    b_t = np.vstack([np.zeros((n, n)), np.eye(n)])
    for lam in np.linalg.eigvals(a_t):
        pencil = np.hstack([lam * np.eye(2 * n) - a_t, b_t])
        if np.linalg.matrix_rank(pencil) < 2 * n:
            return False
    return True


def dense_defect(x, sys):
    """Riccati defect by the 2n-dim triple products, as an oracle."""
    a_t, b_t = sys.a_tilde, sys.b_tilde
    cross = b_t.T @ x @ a_t
    return (cross.T @ np.linalg.solve(b_t.T @ x @ b_t, cross)
            - a_t.T @ x @ a_t + x - np.eye(len(x)))


def test_matches_2n_value_iteration():
    # the singular 2n-dim value iteration from X = I, kept as a reference
    for p in random_plants(seed=29, count=5, n=3):
        sys = lc.augment(p)
        sol = lc.solve_singular_dare(sys)
        x = np.eye(6)
        for _ in range(sol.iterations):
            cross = sys.b_tilde.T @ x @ sys.a_tilde
            x = (np.eye(6) + sys.a_tilde.T @ x @ sys.a_tilde
                 - cross.T @ np.linalg.solve(x[3:, 3:], cross))
            x = 0.5 * (x + x.T)
        scale = float(np.max(np.abs(x)))
        assert np.max(np.abs(sol.X - x)) <= 1e-12 * scale


@pytest.mark.parametrize("n", [50, 100])
def test_large_solution_matches_scipy(n):
    linalg = pytest.importorskip("scipy.linalg")
    p = sink_graph_plant(seed=7, n=n)
    sys = lc.augment(p)
    sol = lc.solve_singular_dare(sys)
    scale = float(np.max(np.abs(sol.X)))
    x_ref = linalg.solve_discrete_are(sys.a_tilde, sys.b_tilde,
                                      np.eye(2 * n), np.zeros((n, n)))
    assert np.max(np.abs(sol.X - x_ref)) <= 1e-9 * scale
    assert sol.residual <= 1e-11 * scale
    # X22 = I + BPB carries the state-sized (A, B, I, I) solution
    p_ref = linalg.solve_discrete_are(p.A, p.B, np.eye(n), np.eye(n))
    b_inv = np.diag(1.0 / p.b_diag)
    assembled = b_inv @ (sol.X22 - np.eye(n)) @ b_inv
    assert np.max(np.abs(assembled - p_ref)) <= 1e-9 * np.max(np.abs(p_ref))
    # and the gains are the 2n-dim ones of that X
    g = -np.linalg.solve(sol.X22, (sys.b_tilde.T @ sol.X @ sys.a_tilde))
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
        sys = lc.augment(p)
        m = rng.standard_normal((8, 8))
        x = np.eye(8) + m @ m.T
        expected = float(np.max(np.abs(dense_defect(x, sys))))
        assert lc.dare_residual(x, sys) == pytest.approx(expected, rel=1e-10)


def test_augment_agrees_with_2n_pbh_on_zero_gain_plants():
    rng = np.random.default_rng(17)
    outcomes = set()
    for _ in range(60):
        n = int(rng.integers(1, 5))
        mask = rng.random((n, n)) < 0.4
        np.fill_diagonal(mask, True)
        b = rng.uniform(1.0, 3.0, n) * (rng.random(n) < 0.6)
        p = lc.Plant(A=rng.uniform(-2.0, 2.0, (n, n)) * mask, b_diag=b,
                     d_diag=rng.uniform(-1.0, 1.0, n), x0=np.zeros(n),
                     w0=np.zeros(n))
        controllable = pbh_controllable_2n(p)
        outcomes.add(controllable)
        if controllable:
            lc.augment(p)
        else:
            with pytest.raises(lc.UncontrollablePairError):
                lc.augment(p)
    assert outcomes == {True, False}


def test_zero_gain_driven_through_a_coupling_is_controllable():
    # b_11 = 0, but subsystem 2 is driven and couples into subsystem 1
    p = lc.Plant(A=[[0.5, 1.0], [0.0, 0.3]], b_diag=[0.0, 1.0],
                 d_diag=[0.2, 0.4], x0=[1.0, 0.0], w0=[0.0, 1.0])
    assert pbh_controllable_2n(p)
    lc.augment(p)


def test_zero_gain_without_driven_inflow_is_uncontrollable():
    # b_11 = 0 and nothing couples into subsystem 1
    p = lc.Plant(A=[[0.5, 0.0], [1.0, 0.3]], b_diag=[0.0, 1.0],
                 d_diag=[0.2, 0.4], x0=[1.0, 0.0], w0=[0.0, 1.0])
    assert not pbh_controllable_2n(p)
    with pytest.raises(lc.UncontrollablePairError):
        lc.augment(p)
