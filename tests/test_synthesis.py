"""Controller constructions: shapes, golden values, structural guarantees."""

import math

import numpy as np
import pytest

import limoctrl as lc


def scalar_plant(a, b, d, x0=0.0, w0=0.0):
    return lc.Plant(A=[[a]], b_diag=[b], d_diag=[d], x0=[x0], w0=[w0])


SINK_GRAPH = lc.from_edge_list(2, [(1, 1), (2, 2), (1, 2)])
SINK_CHAIN = lc.from_edge_list(3, [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)])
SINK_PLANT = lc.Plant(A=[[1.0, 0.0], [-2.0, 1.0]], b_diag=[1.0, 1.0],
                      d_diag=[0.0, 1.0], x0=[2.0, 1.0], w0=[0.0, 0.0])


def test_controller_validation():
    eye = np.eye(2)
    with pytest.raises(lc.InvalidSpecError, match="share state"):
        lc.Controller(A_K=[[1.0, 0.5], [0.0, 1.0]], B_K=eye, C_K=eye, D_K=eye)
    with pytest.raises(lc.InvalidSpecError):
        lc.Controller(A_K=eye, B_K=eye, C_K=[[1.0, 0.0], [2.0, 1.0]], D_K=eye)
    with pytest.raises(lc.DimensionMismatchError):
        lc.Controller(A_K=np.eye(3), B_K=eye, C_K=eye, D_K=eye)
    k = lc.Controller(A_K=eye, B_K=[[1.0, 2.0], [3.0, 4.0]], C_K=eye, D_K=eye)
    assert k.n == 2
    assert not k.D_K.flags.writeable


def test_controller_dict_round_trip():
    k = lc.deadbeat(SINK_PLANT)
    again = lc.controller_from_dict(lc.controller_to_dict(k))
    for name in ("A_K", "B_K", "C_K", "D_K"):
        assert np.array_equal(getattr(again, name), getattr(k, name))


def test_deadbeat_scalar_golden():
    k = lc.deadbeat(scalar_plant(2.0, 1.0, 0.5))
    assert k.A_K[0, 0] == 0.5
    assert k.B_K[0, 0] == -0.25
    assert k.C_K[0, 0] == 1.0
    assert k.D_K[0, 0] == -2.5


def test_deadbeat_reads_one_row_per_subsystem():
    p = lc.Plant(A=[[1.0, 3.0], [0.5, -1.0]], b_diag=[2.0, -1.0],
                 d_diag=[0.5, 0.25], x0=[0, 0], w0=[0, 0])
    k = lc.deadbeat(p)
    assert np.array_equal(k.A_K, p.D)
    assert np.array_equal(k.C_K, np.eye(2))
    assert np.array_equal(k.D_K, -(p.A + p.D) / p.b_diag[:, None])
    assert np.array_equal(k.B_K, np.diag(-p.d_diag ** 2 / p.b_diag))


def test_deadbeat_drives_mix_to_zero_in_two_steps():
    p = lc.Plant(A=[[1.0, 2.0], [0.0, -1.0]], b_diag=[1.0, 2.0],
                 d_diag=[0.5, -0.25], x0=[1.0, -2.0], w0=[0.5, 3.0])
    states, mix = lc.simulate_trajectory(p, lc.deadbeat(p), 6)
    assert np.max(np.abs(states[2:, :2])) <= 1e-12
    assert np.max(np.abs(mix[2:])) <= 1e-12
    assert np.abs(mix[0:2]).max() > 0.0


def test_centralized_scalar_golden():
    k = lc.centralized_optimal(scalar_plant(1.0, 1.0, 1.0))
    golden_ratio = (1.0 + math.sqrt(5.0)) / 2.0
    assert math.isclose(k.D_K[0, 0], -golden_ratio, rel_tol=1e-12)
    assert math.isclose(k.B_K[0, 0], -(golden_ratio - 1.0), rel_tol=1e-12)
    assert k.A_K[0, 0] == 1.0
    assert k.C_K[0, 0] == 1.0


def test_centralized_accepts_presolved_fixed_point():
    p = SINK_PLANT
    sol = lc.solve_singular_dare(lc.augment(p))
    direct = lc.centralized_optimal(p)
    seeded = lc.centralized_optimal(p, sol=sol)
    assert np.array_equal(direct.D_K, seeded.D_K)
    # feedthrough is the gain divided by the input gains, bit for bit
    assert np.array_equal(seeded.D_K, sol.G2 / p.b_diag[None, :])


def test_nilpotent_centralized_matches_iterative():
    p = lc.worst_case_family(1, 2, 10.0, 1.0)
    short = lc.nilpotent_centralized(p)
    full = lc.centralized_optimal(p)
    for name in ("A_K", "B_K", "C_K", "D_K"):
        assert np.allclose(getattr(short, name), getattr(full, name), atol=1e-8)


def test_nilpotent_centralized_rejects_general_coupling():
    with pytest.raises(lc.NotNilpotentError):
        lc.nilpotent_centralized(scalar_plant(1.0, 1.0, 0.0))


def test_sink_gain_golden_and_exact_branch():
    assert lc.sink_gain(1.0, 1.0) == 2.0 / (3.0 + math.sqrt(5.0))
    # with a_ii = 0 the discriminant is a perfect square and f is exact
    assert lc.sink_gain(0.0, 2.0) == 0.2
    assert lc.sink_gain(0.0, 1.0) == 0.5
    with pytest.raises(lc.ZeroGainError):
        lc.sink_gain(1.0, 0.0)


def test_sink_gain_stays_in_unit_interval():
    rng = np.random.default_rng(1)
    for a, b in zip(rng.uniform(-5, 5, 200), rng.uniform(0.1, 5, 200)):
        f = lc.sink_gain(float(a), float(b))
        assert 0.0 < f <= 1.0


def test_sink_aware_rows_follow_hand_formula():
    k = lc.sink_aware(SINK_PLANT, SINK_GRAPH)
    f = lc.sink_gain(1.0, 1.0)
    # sink row keeps an f-scaled share of its coupling row
    hand_d = ((f - 1.0) * np.array([-2.0, 1.0])) / 1.0
    hand_d[1] -= 1.0 / 1.0
    assert np.array_equal(k.D_K[1], hand_d)
    hand_b = ((1.0 * f) * np.array([-2.0, 1.0])) / 1.0
    hand_b[1] -= 1.0 * 1.0 / 1.0
    assert np.array_equal(k.B_K[1], hand_b)
    assert np.array_equal(k.A_K, SINK_PLANT.D)
    assert np.array_equal(k.C_K, np.eye(2))


def test_sink_aware_nonsink_rows_equal_deadbeat_rows():
    k = lc.sink_aware(SINK_PLANT, SINK_GRAPH)
    db = lc.deadbeat(SINK_PLANT)
    assert np.array_equal(k.D_K[0], db.D_K[0])
    assert np.array_equal(k.B_K[0], db.B_K[0])


def test_sink_aware_without_sinks_is_deadbeat():
    g = lc.from_edge_list(2, [(1, 1), (2, 2), (1, 2), (2, 1)])
    p = lc.Plant(A=[[1.0, 0.5], [-2.0, 1.0]], b_diag=[1.0, 1.5],
                 d_diag=[0.25, 0.5], x0=[0, 0], w0=[1, 1])
    k = lc.sink_aware(p, g)
    db = lc.deadbeat(p)
    for name in ("A_K", "B_K", "C_K", "D_K"):
        assert np.array_equal(getattr(k, name), getattr(db, name))


def test_sink_aware_sinks_come_from_graph_not_values():
    # A numeric zero coupling does not turn subsystem 1 into a sink
    g = lc.from_edge_list(2, [(1, 1), (2, 2), (1, 2), (2, 1)])
    p = lc.Plant(A=[[1.0, 0.0], [0.0, 1.0]], b_diag=[1.0, 1.0],
                 d_diag=[0.0, 0.0], x0=[0, 0], w0=[0, 0])
    k = lc.sink_aware(p, g)
    assert np.array_equal(k.D_K, lc.deadbeat(p).D_K)
    with pytest.raises(lc.DimensionMismatchError):
        lc.sink_aware(p, lc.self_loops_only(3))


def test_transfer_eval_values():
    k = lc.deadbeat(scalar_plant(2.0, 1.0, 0.5))
    val = lc.transfer_eval(k, 2.0)
    assert abs(val[0, 0] - (-8.0 / 3.0)) <= 1e-15
    assert val[0, 0].imag == 0.0
    far = lc.transfer_eval(k, 1e8)
    assert 0.0 < abs(far[0, 0] - k.D_K[0, 0]) <= 1e-8
    with pytest.raises(lc.SingularResolventError):
        lc.transfer_eval(k, 0.5)


def test_transfer_eval_matches_row_formula():
    p = lc.Plant(A=[[1.0, 3.0], [0.5, -1.0]], b_diag=[2.0, -1.0],
                 d_diag=[0.5, 0.25], x0=[0, 0], w0=[0, 0])
    k = lc.deadbeat(p)
    rng = np.random.default_rng(7)
    for _ in range(8):
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(z - 0.5) < 0.1 or abs(z - 0.25) < 0.1:
            continue
        val = lc.transfer_eval(k, z)
        for i in range(2):
            for j in range(2):
                direct = -(p.A[i, j] + (p.d_diag[i] if i == j else 0.0)) / p.b_diag[i]
                if i == j:
                    direct += -p.d_diag[i] ** 2 / ((z - p.d_diag[i]) * p.b_diag[i])
                assert abs(val[i, j] - direct) <= 1e-12


def test_sparsity_pattern_tracks_couplings():
    g = lc.from_edge_list(2, [(1, 1), (2, 2), (1, 2)])
    p = lc.Plant(A=[[1.0, 0.0], [2.0, 1.0]], b_diag=[1.0, 1.0],
                 d_diag=[0.5, 0.5], x0=[0, 0], w0=[0, 0])
    assert np.array_equal(lc.sparsity_pattern(lc.deadbeat(p)),
                          [[1, 0], [1, 1]])
    assert lc.validate(p, g, 1.0) == []


def test_sparsity_pattern_retries_when_probe_hits_a_mode():
    # controller mode at 3 lands on the first probe ring; row 2 is silent
    p = lc.Plant(A=[[0.0, 2.0], [0.0, 0.0]], b_diag=[1.0, 1.0],
                 d_diag=[3.0, 0.0], x0=[0, 0], w0=[0, 0])
    with pytest.warns(lc.DisturbanceGrowthWarning):
        assert lc.validate(p, lc.complete_graph(2), 1.0) == []
    assert np.array_equal(lc.sparsity_pattern(lc.deadbeat(p)),
                          [[1, 1], [0, 0]])


_ORACLE_POINTS = [2.5 * complex(math.cos(t), math.sin(t)) for t in (0.3, 1.7, 2.9, 4.4)]


def _probed_pattern(k):
    """Oracle: entries of C_K (zI - A_K)^-1 B_K + D_K nonzero at some point."""
    values = np.stack([np.abs(lc.transfer_eval(k, z)) for z in _ORACLE_POINTS])
    return (values.max(axis=0) > 0).astype(np.int8)


@pytest.mark.parametrize("graph", [SINK_CHAIN, lc.from_edge_list(
    4, [(1, 1), (2, 2), (1, 3), (3, 1), (2, 4), (4, 3)])])
def test_sparsity_pattern_matches_transfer_eval_for_every_construction(graph):
    spec = lc.EnsembleSpec(n=graph.n, plant_graph=graph, seed=31, count=6)
    for p in lc.sample_ensemble(spec):
        for k in (lc.centralized_optimal(p), lc.deadbeat(p), lc.sink_aware(p, graph)):
            assert np.array_equal(lc.sparsity_pattern(k), _probed_pattern(k))


def test_sparsity_pattern_reads_structure_exactly():
    """Hand-built controllers: an entry carried only by C_K B_K, a zero C_K
    row that silences its B_K row, and a feedthrough entry of 1e-12, which
    a probe with a 1e-9 modulus threshold reads as 0 and the exact read
    reports as 1."""
    modes = np.diag([0.5, -0.25])
    through_state = lc.Controller(A_K=modes, B_K=[[0.0, 2.0], [0.0, 0.0]],
                                  C_K=np.eye(2), D_K=np.zeros((2, 2)))
    silenced = lc.Controller(A_K=modes, B_K=[[0.0, 0.0], [3.0, -1.0]],
                             C_K=np.diag([1.0, 0.0]), D_K=[[1.0, 0.0], [0.0, 0.0]])
    tiny = lc.Controller(A_K=modes, B_K=np.zeros((2, 2)), C_K=np.eye(2),
                         D_K=[[0.0, 0.0], [1e-12, 0.0]])
    for k, want in ((through_state, [[0, 1], [0, 0]]),
                    (silenced, [[1, 0], [0, 0]]),
                    (tiny, [[0, 0], [1, 0]])):
        assert np.array_equal(lc.sparsity_pattern(k), want)
        assert np.array_equal(_probed_pattern(k), want)
    assert np.abs(lc.transfer_eval(tiny, 3.0)).max() < 1e-9


def test_cancellation_defect_is_exactly_zero_for_divided_forms():
    assert lc.coupling_cancellation_defect(SINK_PLANT, lc.deadbeat(SINK_PLANT)) == 0.0
    assert lc.coupling_cancellation_defect(SINK_PLANT, lc.deadbeat(SINK_PLANT),
                                           rows=[1]) == 0.0
    # the sink-aware design cancels on non-sink rows but keeps an f-share
    # of the coupling on sink rows
    theta = lc.sink_aware(SINK_PLANT, SINK_GRAPH)
    assert lc.coupling_cancellation_defect(SINK_PLANT, theta, rows=[1]) == 0.0
    assert lc.coupling_cancellation_defect(SINK_PLANT, theta, rows=[2]) > 0.5


def test_cancellation_defect_product_form_witness():
    # the same cancellation written as a + b * gain leaves an ulp behind
    p = lc.Plant(A=[[0.0, 1.0], [0.0, 0.0]], b_diag=[49.0, 1.0],
                 d_diag=[0.0, 0.0], x0=[0, 0], w0=[0, 0])
    k = lc.deadbeat(p)
    assert lc.coupling_cancellation_defect(p, k) == 0.0
    product_residue = p.A[0, 1] + p.b_diag[0] * k.D_K[0, 1]
    assert product_residue != 0.0
    assert abs(product_residue) < 1e-15


def test_apply_row_perturbation_replaces_one_row():
    g = lc.from_edge_list(3, [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)])
    p = lc.Plant(A=[[1.0, 0.0, 0.0], [2.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
                 b_diag=[1.0, 1.5, 2.0], d_diag=[0.5, 0.0, 0.25],
                 x0=[1, 0, 0], w0=[0, 1, 0])
    pert = lc.RowPerturbation(a_row=(1.5, 0.0, 0.0), b=2.0, d=0.1)
    q = lc.apply_row_perturbation(p, g, 1, pert, 1.0)
    assert q.A[0, 0] == 1.5 and q.b_diag[0] == 2.0 and q.d_diag[0] == 0.1
    assert np.array_equal(q.A[1:], p.A[1:])
    assert np.array_equal(q.x0, p.x0) and np.array_equal(q.w0, p.w0)


def test_apply_row_perturbation_rejects_leaving_the_structured_set():
    g = lc.from_edge_list(2, [(1, 1), (2, 2), (1, 2)])
    p = lc.Plant(A=[[1.0, 0.0], [2.0, 1.0]], b_diag=[1.0, 1.0],
                 d_diag=[0, 0], x0=[0, 0], w0=[0, 0])
    with pytest.raises(lc.InvalidPerturbationError):
        lc.apply_row_perturbation(p, g, 3, lc.RowPerturbation(b=2.0), 1.0)
    with pytest.raises(lc.InvalidPerturbationError):
        lc.apply_row_perturbation(p, g, 1, lc.RowPerturbation(a_row=(1.0,)), 1.0)
    with pytest.raises(lc.InvalidPerturbationError):
        # row 1 may not couple to 2: no edge 2 -> 1
        lc.apply_row_perturbation(p, g, 1, lc.RowPerturbation(a_row=(1.0, 0.5)), 1.0)
    with pytest.raises(lc.InvalidPerturbationError):
        lc.apply_row_perturbation(p, g, 2, lc.RowPerturbation(b=0.0), 1.0)
    with pytest.raises(lc.InvalidPerturbationError):
        lc.apply_row_perturbation(p, g, 2, lc.RowPerturbation(b=0.5), eps_b=1.0)
    # under the floor check a half gain is fine when the floor allows it
    q = lc.apply_row_perturbation(p, g, 2, lc.RowPerturbation(b=0.5), eps_b=0.25)
    assert q.b_diag[1] == 0.5


def test_limited_info_check_per_strategy():
    g = lc.from_edge_list(3, [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)])
    p = lc.Plant(A=[[1.0, 0.0, 0.0], [2.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
                 b_diag=[1.0, 1.5, 2.0], d_diag=[0.5, 0.0, 0.25],
                 x0=[1, 0, 0], w0=[0, 1, 0])
    pert = lc.RowPerturbation(a_row=(1.5, 0.0, 0.0), b=2.0, d=0.1)
    assert lc.limited_info_check("deadbeat", p, g, 1, pert, 1.0)
    assert lc.limited_info_check("theta", p, g, 1, pert, 1.0)
    assert not lc.limited_info_check("centralized", p, g, 1, pert, 1.0)
    with pytest.raises(lc.InvalidSpecError):
        lc.limited_info_check("unknown", p, g, 1, pert, 1.0)
