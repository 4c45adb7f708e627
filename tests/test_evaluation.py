"""Closed-loop assembly, cost simulation, and the three closed cost forms."""

import math
from fractions import Fraction

import numpy as np
import pytest

import limoctrl as lc


def scalar_plant(a, b, d, x0=0.0, w0=0.0):
    return lc.Plant(A=[[a]], b_diag=[b], d_diag=[d], x0=[x0], w0=[w0])


def zero_controller(n):
    z = np.zeros((n, n))
    return lc.Controller(a_diag=np.zeros(n), B_K=z, c_diag=np.zeros(n), D_K=z)


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


def _block_closed_loop(p, k):
    """The loop assembled with np.block, as closed_loop once built it."""
    n = p.n
    b = p.b_diag[:, None]
    zeros = np.zeros((n, n))
    transition = np.block([
        [p.A + b * k.D_K, np.diag(p.b_diag), b * k.C_K],
        [zeros, np.diag(p.d_diag), zeros],
        [k.B_K, zeros, k.A_K],
    ])
    return transition, np.hstack([k.D_K, np.eye(n), k.C_K])


def _sink_plant(rng, n, density):
    """A seeded plant on a random graph in which vertex 1 is a sink that
    vertex 2 feeds (vertex 1 alone when n = 1)."""
    mask = (rng.random((n, n)) < density).astype(np.int8)
    np.fill_diagonal(mask, 1)
    mask[:, 0] = 0
    mask[0, 0] = 1
    if n > 1:
        mask[0, 1] = 1                      # adj[i][j]: edge j+1 -> i+1
    g = lc.from_adjacency(mask)
    assert 1 in lc.sinks(g)
    spec = lc.EnsembleSpec(n=n, plant_graph=g, seed=int(rng.integers(1 << 30)))
    return lc.sample_ensemble(spec)[0], g


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 50])
def test_closed_loop_matches_block_assembly(n):
    rng = np.random.default_rng(n)
    for _ in range(3 if n <= 5 else 1):
        p, g = _sink_plant(rng, n, 0.5 if n <= 5 else 0.05)
        # a hand-built controller whose c_diag is not all ones
        general = lc.Controller(a_diag=rng.uniform(-1, 1, n), B_K=rng.standard_normal((n, n)),
                                c_diag=rng.uniform(-2, 2, n), D_K=rng.standard_normal((n, n)))
        for k in (lc.centralized_optimal(p), lc.deadbeat(p), lc.sink_aware(p, g), general):
            cl = lc.closed_loop(p, k)
            transition, mix_map = _block_closed_loop(p, k)
            assert np.array_equal(cl.transition, transition)
            assert np.array_equal(cl.mix_map, mix_map)


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


def exact_family_cost(p):
    """v'Xv in exact rationals on a worst_case_family plant at eps_b = 1,
    from the family's closed form X = [[I + A'A, A'], [A, A'A/2 + 2I]] and
    v = (x0, D_K x0 + w0) with D_K = -A/2 - I, on the plant's float A, x0
    and w0."""
    n = p.n
    a = [[Fraction(v) for v in row] for row in p.A.tolist()]
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    ata = [[sum(a[k][i] * a[k][j] for k in range(n) if a[k][i]) for j in range(n)]
           for i in range(n)]
    x = ([[eye[i][j] + ata[i][j] for j in range(n)] + [a[j][i] for j in range(n)]
          for i in range(n)]
         + [[a[i][j] for j in range(n)] + [ata[i][j] / 2 + 2 * eye[i][j] for j in range(n)]
            for i in range(n)])
    x0 = [Fraction(v) for v in p.x0.tolist()]
    xi0 = [sum((-a[i][j] / 2 - eye[i][j]) * x0[j] for j in range(n)) + Fraction(w)
           for i, w in enumerate(p.w0.tolist())]
    v = x0 + xi0
    return sum(v[i] * x[i][j] * v[j] for i in range(2 * n) for j in range(2 * n))


@pytest.mark.parametrize("r", [1.0, 10.0, 1e3, 1e5])
@pytest.mark.parametrize("n", [2, 30])
def test_centralized_cost_matches_the_exact_family_cost(n, r):
    p = lc.worst_case_family(1, 2, r, 1.0, n)
    exact = exact_family_cost(p)
    cost = lc.centralized_cost_closed_form(p, lc.solve_singular_dare(p))
    assert abs(Fraction(cost) - exact) <= 4 * Fraction(np.finfo(float).eps) * exact


def test_centralized_cost_matches_the_lifted_quadratic_form():
    # the n-dim form against v'Xv on the lifted X, on verify's seed-2000
    # ensemble of criteria 04a and 04b
    plants = [p for p, _ in lc.verify._sampled_plants(2000, 200)]
    for p, sol in zip(plants, lc.solve_singular_dares(plants)):
        xi0 = (sol.G2 / p.b_diag) @ p.x0 + p.w0
        v = np.concatenate([p.x0, xi0])
        lifted = float(v @ sol.X @ v)
        assert lc.centralized_cost_closed_form(p, sol) == pytest.approx(lifted, rel=1e-13)


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


# The n = 2 sink plant on which theta's simulated cost runs out of steps:
# the sink's input gain 3e-4 leaves a loop pole near 1, and the cost is
# admissible at eps_b = 1e-4.
WITNESS = lc.Plant(A=[[0.5, 0.0], [1.0, 1.0]], b_diag=[1.0, 3e-4],
                   d_diag=[0.5, 0.9], x0=[1.0, 1.0], w0=[1.0, 1.0])
WITNESS_GRAPH = lc.from_edge_list(2, [(1, 1), (2, 2), (1, 2)])


def _bits(value):
    return np.asarray(value, dtype=float).view(np.uint64).tolist()


def _report_bits(r):
    return (_bits(r.total), r.steps_used, r.converged, r.diverged, _bits(r.tail_estimate))


def _stacked_cost_loop(pairs):
    """evaluation._cost_group as the stacked simulation ran it: every
    member steps in one stack and leaves it at its own exit."""
    from collections import deque
    from limoctrl.evaluation import (DIVERGENCE_CAP, MAX_STEPS, QUIET_STEPS,
                                     TOL_ABS, _closed_loops, _initial_states)
    n = pairs[0][0].n
    transition, mix_map = _closed_loops(pairs)
    s = _initial_states([p for p, _ in pairs])
    total = np.zeros(len(pairs))
    recent = deque(maxlen=QUIET_STEPS)
    results = [None] * len(pairs)
    live = range(len(pairs))
    bound = 0.0
    quiet = 0
    for steps_used in range(1, MAX_STEPS + 1):
        x = s[:, :n]
        mix = np.matvec(mix_map, s)
        cost = np.vecdot(x, x) + np.vecdot(mix, mix)
        total = total + cost
        recent.append(cost)
        costs = cost.tolist()
        quiet = 0 if min(costs) >= TOL_ABS else quiet + 1
        bound += max(costs)
        if quiet < QUIET_STEPS and bound <= DIVERGENCE_CAP:
            s = np.matvec(transition, s)
            continue
        totals = total.tolist()
        converged = [False] * len(live) if quiet < QUIET_STEPS else \
            (np.array(recent) < TOL_ABS).all(axis=0).tolist()
        keep = []
        for j, pos in enumerate(live):
            if totals[j] > DIVERGENCE_CAP:
                results[pos] = lc.CostReport(math.inf, steps_used, False, True, math.inf)
            elif converged[j]:
                results[pos] = lc.CostReport(totals[j], steps_used, True, False, costs[j])
            else:
                keep.append(j)
        if not keep:
            break
        bound = max(totals[j] for j in keep)
        if len(keep) < len(live):
            live = [live[j] for j in keep]
            costs = [costs[j] for j in keep]
            s, transition, mix_map = s[keep], transition[keep], mix_map[keep]
            total = total[keep]
            recent = deque((c[keep] for c in recent), maxlen=QUIET_STEPS)
        s = np.matvec(transition, s)
    else:
        for pos, last_total, last_cost in zip(live, total.tolist(), costs):
            results[pos] = lc.CostReport(last_total, MAX_STEPS, False, False, last_cost)
    return results


def test_simulate_cost_keeps_the_stacked_loop_bits_at_each_exit():
    rng = np.random.default_rng(8)
    converged = []
    for n in (1, 2, 3, 5, 20):
        p, g = _sink_plant(rng, n, 0.5 if n <= 5 else 0.1)
        converged += [(p, lc.deadbeat(p)), (p, lc.sink_aware(p, g))]
    out_of_steps = (WITNESS, lc.sink_aware(WITNESS, WITNESS_GRAPH))
    unstable = lc.Plant(A=[[1.5, 0.0], [1.0, 0.5]], b_diag=[1.0, 2.0],
                        d_diag=[0.5, -0.3], x0=[1.0, 0.5], w0=[0.2, 1.0])
    weak = lc.Controller(a_diag=[0.2, 0.3], B_K=[[0.1, 0.0], [0.0, 0.1]],
                         c_diag=[1.0, 1.0], D_K=[[-0.1, 0.0], [0.0, -0.1]])
    for p, k in converged + [out_of_steps, (unstable, weak)]:
        report = lc.simulate_cost(p, k)
        assert _report_bits(report) == _report_bits(_stacked_cost_loop([(p, k)])[0])
    assert all(lc.simulate_cost(p, k).converged for p, k in converged)
    report = lc.simulate_cost(*out_of_steps)
    assert (report.total, report.steps_used, report.tail_estimate) == \
        (9014510.416585168, 10000, 0.012699782040917429)
    assert not report.converged and not report.diverged
    report = lc.simulate_cost(unstable, weak)
    assert report.diverged and report.total == math.inf


def _float_loop_cost(p, k, steps=1 << 20, block=1 << 10):
    """The sum of x'x + (u+w)'(u+w) over the first `steps` steps of the loop,
    assembled here with np.block in (x, w, x_K). Each block of steps takes
    the powers T^j, j < block, built by repeated products, to its first
    state; the block's last power steps to the next block."""
    n = p.n
    zeros = np.zeros((n, n))
    t = np.block([[p.A + p.b_diag[:, None] * k.D_K, np.diag(p.b_diag),
                   p.b_diag[:, None] * k.C_K],
                  [zeros, np.diag(p.d_diag), zeros],
                  [k.B_K, zeros, k.A_K]])
    mix_map = np.hstack([k.D_K, np.eye(n), k.C_K])
    powers = [np.eye(3 * n)]
    for _ in range(block):
        powers.append(t @ powers[-1])
    powers = np.array(powers)
    s = np.concatenate([p.x0, p.w0, np.zeros(n)])
    costs = []
    for _ in range(steps // block):
        states = powers[:block] @ s
        mix = states @ mix_map.T
        costs += ((states[:, :n] ** 2).sum(axis=1) + (mix ** 2).sum(axis=1)).tolist()
        s = powers[block] @ s
    return math.fsum(costs)


def test_exact_cost_of_the_witness_matches_a_long_float_loop():
    k = lc.sink_aware(WITNESS, WITNESS_GRAPH)
    oracle = _float_loop_cost(WITNESS, k)
    cost = lc.exact_cost(WITNESS, k)
    assert not cost.diverged and cost.squarings < lc.evaluation.MAX_SQUARINGS
    assert cost.total == pytest.approx(oracle, rel=1e-12)
    assert lc.ratio.strategy_cost(WITNESS, "theta", WITNESS_GRAPH) == cost.total
    # the simulation stops 2.3e-6 short
    assert oracle - lc.simulate_cost(WITNESS, k).total > 1e-6 * oracle


@pytest.mark.parametrize("n", [2, 5, 20, 50])
def test_exact_cost_matches_the_converged_simulation(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(4 if n <= 5 else 2):
        p, g = _sink_plant(rng, n, 0.5 if n <= 5 else 0.1)
        for k in (lc.deadbeat(p), lc.sink_aware(p, g), lc.centralized_optimal(p)):
            report = lc.simulate_cost(p, k)
            assert report.converged
            cost = lc.exact_cost(p, k)
            assert not cost.diverged
            assert cost.total == pytest.approx(report.total, rel=1e-14)


@pytest.mark.parametrize("d", [1.0, -1.0])
def test_exact_cost_with_disturbance_poles_on_the_unit_circle(d):
    # with D = +-I the disturbance never decays, and the designs cancel it:
    # in (x, w, x_K) a marginal mode that the cost does not see, which
    # doubling there amplifies until W is garbage
    rng = np.random.default_rng(17)
    for n in (2, 3, 4, 5):
        for _ in range(3):
            sampled, g = _sink_plant(rng, n, 0.5)
            p = lc.Plant(A=sampled.A, b_diag=sampled.b_diag, d_diag=d * np.ones(n),
                         x0=sampled.x0, w0=sampled.w0)
            for k in (lc.deadbeat(p), lc.sink_aware(p, g)):
                cost = lc.exact_cost(p, k)
                assert not cost.diverged and cost.squarings < 10
                report = lc.simulate_cost(p, k)
                assert report.converged
                assert cost.total == pytest.approx(report.total, rel=1e-14)
            assert lc.exact_cost(p, lc.deadbeat(p)).total == pytest.approx(
                lc.deadbeat_cost_closed_form(p), rel=1e-14)


def test_exact_cost_hand_examples():
    two = lc.exact_cost(scalar_plant(1.0, 1.0, 0.0, x0=1.0),
                        lc.deadbeat(scalar_plant(1.0, 1.0, 0.0, x0=1.0)))
    assert two == (2.0, 2, False)
    # a stable scalar loop: sum of 0.25^t
    assert lc.exact_cost(scalar_plant(0.5, 1.0, 0.0, x0=1.0),
                         zero_controller(1)).total == pytest.approx(4.0 / 3.0, rel=1e-15)
    # unstable, and marginal with a unit cost every step: no finite sum
    for a in (2.0, 1.0):
        cost = lc.exact_cost(scalar_plant(a, 1.0, 0.0, x0=1.0), zero_controller(1))
        assert cost.diverged and cost.total == math.inf
    assert lc.exact_cost(scalar_plant(1.0, 1.0, 0.0, x0=1.0),
                         zero_controller(1)).squarings == lc.evaluation.MAX_SQUARINGS
    with pytest.raises(lc.DimensionMismatchError):
        lc.exact_cost(FLIP_PLANT, zero_controller(3))


# ------------------------------------------- closed forms, dense-diagonal pin

def _dense_diagonal_forms(p):
    """deadbeat_cost_closed_form and centralized_lower_bound of p, as they
    were written with D, B^-2 and I as dense (1, n, n) matrices and every
    product with them a matrix product."""
    n = p.n
    a, b, d = p.A[None], p.b_diag[None], p.d_diag[None]
    dm = np.zeros((1, n, n))
    dm[:, range(n), range(n)] = d
    bi2 = np.zeros((1, n, n))
    bi2[:, range(n), range(n)] = 1.0 / (b * b)
    eye = np.eye(n)

    def form(m11, m12, m22):
        v = np.concatenate([p.x0, p.b_diag * p.w0])[None]
        top = np.matvec(m11, v[:, :n]) + np.matvec(m12, v[:, n:])
        bot = np.matvec(m12.transpose(0, 2, 1), v[:, :n]) + np.matvec(m22, v[:, n:])
        return np.vecdot(v, np.concatenate([top, bot], axis=1)).item()

    at_bi2 = a.transpose(0, 2, 1) @ bi2
    q11 = eye + dm @ dm @ (eye + bi2) + at_bi2 @ a \
        + dm @ at_bi2 @ a @ dm + at_bi2 @ dm + dm @ bi2 @ a
    q12 = -dm - at_bi2 - dm @ bi2 - dm @ at_bi2 @ a
    q22 = at_bi2 @ a + bi2 + eye
    w_mat = a.transpose(0, 2, 1) @ ((1.0 / (1.0 + b * b))[:, :, None] * a) + eye
    v11 = w_mat + dm @ dm @ bi2 + dm @ w_mat @ dm
    v12 = -dm @ (w_mat + bi2)
    v22 = w_mat + bi2
    return form(q11, q12, q22), form(v11, v12, v22)


def _ensemble_sink_plant(n):
    """The first seed-1 plant of size n of the sink-graph ensembles: cross
    edges at density 0.2, self-loops, one sink vertex that another feeds."""
    rng = np.random.default_rng([1, n, 0])
    mask = (rng.random((n, n)) < 0.2).astype(np.int8)
    np.fill_diagonal(mask, 1)
    v = int(rng.integers(n))
    mask[:, v] = 0
    mask[v, v] = 1
    u = int(rng.integers(n - 1))
    mask[v, u + (u >= v)] = 1
    return lc.Plant(A=rng.uniform(-2.0, 2.0, (n, n)) * mask,
                    b_diag=np.where(rng.random(n) < 0.5, -1.0, 1.0)
                    * (1.0 + rng.uniform(0.0, 2.0, n)),
                    d_diag=rng.uniform(-1.0, 1.0, n),
                    x0=rng.standard_normal(n), w0=rng.standard_normal(n))


@pytest.mark.parametrize("plants", [
    pytest.param(lambda: [_ensemble_sink_plant(n) for n in (5, 20, 50, 100, 200)],
                 id="ensemble"),
    pytest.param(lambda: [p for p, _ in lc.verify._sampled_plants(2000, 200)],
                 id="verify"),
    pytest.param(lambda: [lc.worst_case_family(1, 2, r, eps_b, n)
                          for n in (2, 30, 200) for r in (1.0, 1e5)
                          for eps_b in (0.5, 2.0)], id="family"),
])
def test_closed_forms_keep_their_dense_diagonal_bits(plants):
    plants = plants()
    expected = [_dense_diagonal_forms(p) for p in plants]
    stacked = zip(lc.deadbeat_cost_closed_forms(plants),
                  lc.centralized_lower_bounds(plants))
    for p, want, got in zip(plants, expected, stacked):
        lone = (lc.deadbeat_cost_closed_form(p), lc.centralized_lower_bound(p))
        assert [_bits(v) for v in got] == [_bits(v) for v in want]
        assert [_bits(v) for v in lone] == [_bits(v) for v in want]
