"""Closed-loop assembly, cost simulation, and the three closed cost forms."""

import math

import numpy as np
import pytest

import limoctrl as lc


def scalar_plant(a, b, d, x0=0.0, w0=0.0):
    return lc.Plant(A=[[a]], b_diag=[b], d_diag=[d], x0=[x0], w0=[w0])


def zero_controller(n):
    z = np.zeros((n, n))
    return lc.Controller(A_K=z, B_K=z, C_K=z, D_K=z)


# 2x2 plant whose optimal design pays more than deadbeat once x0 is nonzero
FLIP_PLANT = lc.Plant(A=[[1.0, 0.0], [2.0, 1.0]], b_diag=[1.0, 1.0],
                      d_diag=[0.0, 0.0], x0=[2.0, 0.0], w0=[0.0, 1.0])


def test_closed_loop_block_layout():
    p = lc.Plant(A=[[1.0, 0.0], [2.0, 0.5]], b_diag=[1.0, -2.0],
                 d_diag=[0.5, 0.25], x0=[1, 0], w0=[0, 1])
    k = lc.deadbeat(p)
    cl = lc.closed_loop(p, k)
    b = p.b_diag[:, None]
    assert np.array_equal(cl.transition[:2, :2], p.A + b * k.D_K)
    assert np.array_equal(cl.transition[:2, 2:4], p.B)
    assert np.array_equal(cl.transition[:2, 4:], b * k.C_K)
    assert np.array_equal(cl.transition[2:4, 2:4], p.D)
    assert np.array_equal(cl.transition[2:4, :2], np.zeros((2, 2)))
    assert np.array_equal(cl.transition[4:, :2], k.B_K)
    assert np.array_equal(cl.transition[4:, 4:], k.A_K)
    assert np.array_equal(cl.mix_map, np.hstack([k.D_K, np.eye(2), k.C_K]))
    assert np.array_equal(cl.initial_state(p), [1, 0, 0, 1, 0, 0])
    with pytest.raises(lc.DimensionMismatchError):
        lc.closed_loop(p, zero_controller(3))


def test_trajectory_hand_example():
    p = scalar_plant(0.0, 1.0, 1.0, x0=0.0, w0=1.0)
    states, mix = lc.simulate_trajectory(p, lc.deadbeat(p), 5)
    x = states[:, 0]
    costs = x ** 2 + mix[:, 0] ** 2
    assert np.array_equal(x, [0, 1, 0, 0, 0, 0])
    assert np.array_equal(costs, [1, 1, 0, 0, 0, 0])


def test_trajectory_is_linear_in_initial_data():
    p = lc.Plant(A=[[1.0, 0.0], [2.0, 1.0]], b_diag=[1.0, 1.0],
                 d_diag=[0.5, 0.25], x0=[1.0, -1.0], w0=[0.5, 2.0])
    doubled = lc.Plant(A=p.A, b_diag=p.b_diag, d_diag=p.d_diag,
                       x0=2.0 * p.x0, w0=2.0 * p.w0)
    k = lc.deadbeat(p)
    s1, m1 = lc.simulate_trajectory(p, k, 8)
    s2, m2 = lc.simulate_trajectory(doubled, k, 8)
    assert np.allclose(s2, 2.0 * s1, rtol=0, atol=1e-12)
    assert np.allclose(m2, 2.0 * m1, rtol=0, atol=1e-12)


def test_simulate_cost_hand_examples():
    silent = lc.simulate_cost(scalar_plant(1.0, 1.0, 0.5), zero_controller(1))
    assert silent.total == 0.0 and silent.converged and silent.steps_used == 10

    two = lc.simulate_cost(scalar_plant(1.0, 1.0, 0.0, x0=1.0), lc.deadbeat(
        scalar_plant(1.0, 1.0, 0.0, x0=1.0)))
    assert two.total == 2.0
    assert two.converged and not two.diverged
    assert two.steps_used == 11
    assert two.tail_estimate < 1e-12

    p = scalar_plant(0.0, 1.0, 1.0, w0=1.0)
    report = lc.simulate_cost(p, lc.deadbeat(p))
    assert report.total == 2.0
    assert report.steps_used == 12

    keys = set(report.as_dict())
    assert keys == {"total", "steps_used", "converged", "diverged",
                    "tail_estimate"}


def test_simulate_cost_divergence():
    report = lc.simulate_cost(scalar_plant(2.0, 1.0, 0.0, x0=1.0),
                              zero_controller(1))
    assert report.diverged and not report.converged
    assert report.total == math.inf
    assert report.tail_estimate == math.inf


def test_simulate_cost_step_budget_exhaustion():
    # marginally stable loop: unit cost every step, no convergence, no blow-up
    report = lc.simulate_cost(scalar_plant(1.0, 1.0, 0.0, x0=1.0),
                              zero_controller(1))
    assert not report.converged and not report.diverged
    assert report.steps_used == 10000
    assert report.total == 10000.0
    assert report.tail_estimate == 1.0


def test_simulate_cost_is_degree_two_homogeneous():
    g = lc.complete_graph(2)
    p = lc.sample_ensemble(lc.EnsembleSpec(n=2, plant_graph=g, seed=14))[0]
    s = 3.7
    scaled = lc.Plant(A=p.A, b_diag=p.b_diag, d_diag=p.d_diag,
                      x0=s * p.x0, w0=s * p.w0)
    k = lc.deadbeat(p)
    base = lc.simulate_cost(p, k).total
    assert math.isclose(lc.simulate_cost(scaled, k).total, s * s * base,
                        rel_tol=1e-10)


def test_deadbeat_closed_form_scalar_examples():
    assert lc.deadbeat_cost_closed_form(scalar_plant(0.0, 1.0, 1.0, w0=1.0)) == 2.0
    assert lc.deadbeat_cost_closed_form(scalar_plant(1.0, 1.0, 0.0, x0=1.0)) == 2.0
    assert lc.deadbeat_cost_closed_form(scalar_plant(1.0, 1.0, 0.5)) == 0.0


def test_deadbeat_closed_form_matches_simulation():
    g = lc.complete_graph(3)
    spec = lc.EnsembleSpec(n=3, plant_graph=g, seed=29, count=10)
    for p in lc.sample_ensemble(spec):
        closed = lc.deadbeat_cost_closed_form(p)
        simulated = lc.simulate_cost(p, lc.deadbeat(p))
        assert simulated.converged
        assert abs(simulated.total - closed) <= 1e-9 * (1.0 + closed)


def test_lower_bound_reference_values():
    p = lc.Plant(A=np.zeros((2, 2)), b_diag=[1.0, 1.0], d_diag=[0.0, 0.0],
                 x0=[1.0, 0.0], w0=[0.0, 0.0])
    assert lc.centralized_lower_bound(p) == 1.0
    assert lc.centralized_lower_bound(scalar_plant(0.0, 1.0, 1.0, w0=1.0)) == 2.0
    assert lc.centralized_lower_bound(FLIP_PLANT) == 16.5


def test_lower_bound_sits_below_the_optimal_cost():
    g = lc.complete_graph(2)
    spec = lc.EnsembleSpec(n=2, plant_graph=g, seed=41, count=10)
    for p in lc.sample_ensemble(spec):
        sol = lc.solve_singular_dare(lc.augment(p))
        optimal = lc.centralized_cost_closed_form(p, sol)
        assert lc.centralized_lower_bound(p) <= optimal + 1e-8


def test_centralized_closed_form_matches_simulation():
    g = lc.complete_graph(2)
    spec = lc.EnsembleSpec(n=2, plant_graph=g, seed=55, count=8)
    for p in lc.sample_ensemble(spec):
        sol = lc.solve_singular_dare(lc.augment(p))
        closed = lc.centralized_cost_closed_form(p, sol)
        report = lc.simulate_cost(p, lc.centralized_optimal(p, sol=sol))
        assert report.converged
        assert math.isclose(report.total, closed, rel_tol=1e-6)
        assert closed >= 0.0


def test_centralized_closed_form_zero_start():
    p = scalar_plant(1.0, 1.0, 0.5)
    sol = lc.solve_singular_dare(lc.augment(p))
    assert lc.centralized_cost_closed_form(p, sol) == 0.0


def test_family_cost_reference_point():
    p = lc.worst_case_family(1, 2, 10.0, 1.0)
    sol = lc.solve_singular_dare(lc.augment(p))
    closed = lc.centralized_cost_closed_form(p, sol)
    assert math.isclose(closed, 7.3407893370497845, rel_tol=1e-12)
    report = lc.simulate_cost(p, lc.centralized_optimal(p))
    assert math.isclose(report.total, closed, rel_tol=1e-6)


def test_optimal_design_can_lose_to_deadbeat_with_nonzero_start():
    # the optimal design commits its first input before seeing anything,
    # so a nonzero x0 lets the two-step design open better
    p = FLIP_PLANT
    sol = lc.solve_singular_dare(lc.augment(p))
    optimal = lc.centralized_cost_closed_form(p, sol)
    assert math.isclose(optimal, 20.31801633448093, rel_tol=1e-12)
    assert lc.deadbeat_cost_closed_form(p) == 19.0
    assert lc.simulate_cost(p, lc.deadbeat(p)).total == 19.0
    assert optimal > lc.deadbeat_cost_closed_form(p)
    # the same data with x0 = 0 restores the expected ordering
    rest = lc.Plant(A=p.A, b_diag=p.b_diag, d_diag=p.d_diag,
                    x0=[0.0, 0.0], w0=p.w0)
    sol0 = lc.solve_singular_dare(lc.augment(rest))
    assert (lc.centralized_cost_closed_form(rest, sol0)
            <= lc.deadbeat_cost_closed_form(rest) + 1e-9)


def test_ordering_holds_on_zero_start_ensembles():
    g = lc.complete_graph(2)
    spec = lc.EnsembleSpec(n=2, plant_graph=g, seed=77, count=10)
    for raw in lc.sample_ensemble(spec):
        p = lc.Plant(A=raw.A, b_diag=raw.b_diag, d_diag=raw.d_diag,
                     x0=np.zeros(2), w0=raw.w0)
        sol = lc.solve_singular_dare(lc.augment(p))
        optimal = lc.centralized_cost_closed_form(p, sol)
        assert lc.centralized_lower_bound(p) <= optimal + 1e-8
        assert optimal <= lc.deadbeat_cost_closed_form(p) + 1e-8
