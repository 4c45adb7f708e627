"""Plant container, admissibility checks, weight folding, sampling, family."""

import dataclasses
import math

import numpy as np
import pytest

import limoctrl as lc


def scalar_plant(a, b, d, x0=0.0, w0=0.0):
    return lc.Plant(A=[[a]], b_diag=[b], d_diag=[d], x0=[x0], w0=[w0])


def test_plant_coerces_and_freezes():
    p = lc.Plant(A=[[0.0, 1.0], [0.0, 0.0]], b_diag=[1, 2], d_diag=[0, 0],
                 x0=[1, 0], w0=[0, 1])
    assert p.n == 2
    assert p.A.dtype == float
    assert not p.A.flags.writeable
    assert not p.x0.flags.writeable
    assert np.array_equal(p.B, [[1.0, 0.0], [0.0, 2.0]])
    assert np.array_equal(p.D, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        p.A[0, 0] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.x0 = np.zeros(2)


def test_plant_rejects_bad_shapes():
    with pytest.raises(lc.DimensionMismatchError):
        lc.Plant(A=[[0, 0], [0, 0]], b_diag=[1], d_diag=[0], x0=[0], w0=[0])
    with pytest.raises(lc.DimensionMismatchError):
        lc.Plant(A=[[0]], b_diag=[1], d_diag=[0, 0], x0=[0], w0=[0])
    with pytest.raises(lc.DimensionMismatchError):
        lc.Plant(A=[[0]], b_diag=[], d_diag=[], x0=[], w0=[])


def test_plant_dict_round_trip():
    p = lc.Plant(A=[[0.5, 0.0], [2.0, 0.25]], b_diag=[1.0, -3.0],
                 d_diag=[0.5, 0.9], x0=[0.1, 0.2], w0=[-1.0, 4.0])
    d = lc.plant_to_dict(p)
    assert d["n"] == 2
    q = lc.plant_from_dict(d)
    for field in ("A", "b_diag", "d_diag", "x0", "w0"):
        assert np.array_equal(getattr(q, field), getattr(p, field))
    with pytest.raises(lc.DimensionMismatchError):
        lc.plant_from_dict({**d, "n": 3})
    for n in (1.9, 2.0, True):
        with pytest.raises(lc.DimensionMismatchError, match='"n" must be an integer'):
            lc.plant_from_dict({**d, "n": n})


def test_validate_accepts_admissible_plant():
    g = lc.from_edge_list(2, [(1, 1), (2, 2), (1, 2)])
    p = lc.Plant(A=[[1.0, 0.0], [2.0, 1.0]], b_diag=[1.0, 1.5],
                 d_diag=[0.5, -0.5], x0=[0, 0], w0=[1, 1])
    assert lc.validate(p, g, 1.0) == []


def test_validate_flags_sparsity_and_gain_floor():
    g = lc.self_loops_only(2)
    p = lc.Plant(A=[[1.0, 0.9], [0.0, 1.0]], b_diag=[0.5, 1.0],
                 d_diag=[0, 0], x0=[0, 0], w0=[0, 0])
    out = lc.validate(p, g, 1.0)
    kinds = sorted(v.constraint for v in out)
    assert kinds == ["coupling_sparsity", "input_gain_floor"]
    sparsity = next(v for v in out if v.constraint == "coupling_sparsity")
    assert sparsity.where == (1, 2)
    assert "no edge 2 -> 1" in sparsity.message
    floor = next(v for v in out if v.constraint == "input_gain_floor")
    assert floor.where == (1,)
    assert "0.5" in floor.message
    as_dict = sparsity.as_dict()
    assert as_dict["where"] == [1, 2] and as_dict["constraint"] == "coupling_sparsity"


def test_validate_errors_and_warning():
    g = lc.self_loops_only(1)
    p = scalar_plant(1.0, 1.0, 1.5)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(lc.NonPositiveEpsilonError):
            lc.validate(p, g, bad)
    with pytest.raises(lc.DimensionMismatchError):
        lc.validate(p, lc.self_loops_only(2), 1.0)
    with pytest.warns(lc.DisturbanceGrowthWarning, match=r"poles \[1\]"):
        assert lc.validate(p, g, 1.0) == []


def test_validate_flags_non_finite_entries():
    g = lc.complete_graph(2)
    p = lc.Plant(A=[[0.0, math.inf], [0.0, 0.0]], b_diag=[math.nan, 1.5],
                 d_diag=[0.3, math.inf], x0=[0.0, -math.inf], w0=[math.nan, 0.0])
    with pytest.warns(lc.DisturbanceGrowthWarning, match=r"poles \[2\]"):
        out = [v for v in lc.validate(p, g, 1.0) if v.constraint == "finite_entries"]
    assert [v.where for v in out] == [(1, 2), (1,), (2,), (2,), (1,)]
    assert [v.message.split(" = ")[0] for v in out] == [
        "A[1][2]", "B_diag[1]", "D_diag[2]", "x0[2]", "w0[1]"]
    assert all("not finite" in v.message for v in out)
    assert out[0].as_dict()["where"] == [1, 2]


def test_normalize_scalar_examples():
    p = scalar_plant(1.0, 1.0, 0.5, x0=1.0, w0=1.0)
    state_w = lc.normalize(p, [4.0], [1.0])
    assert state_w.A[0, 0] == 1.0
    assert state_w.b_diag[0] == 2.0
    assert state_w.x0[0] == 2.0
    assert state_w.w0[0] == 1.0
    input_w = lc.normalize(p, [1.0], [4.0])
    assert input_w.b_diag[0] == 0.5
    assert input_w.w0[0] == 2.0
    assert input_w.x0[0] == 1.0
    assert input_w.d_diag[0] == 0.5


def test_normalize_preserves_sparsity_and_composes():
    p = lc.Plant(A=[[1.0, 0.0], [2.0, 1.0]], b_diag=[1.0, 2.0],
                 d_diag=[0.5, 0.25], x0=[1, 2], w0=[3, 4])
    q = [4.0, 9.0]
    r = [16.0, 25.0]
    bar = lc.normalize(p, q, r)
    assert (bar.A != 0).tolist() == (p.A != 0).tolist()
    assert np.array_equal(bar.d_diag, p.d_diag)
    # folding weights twice equals folding the products once
    twice = lc.normalize(lc.normalize(p, q, [1.0, 1.0]), [1.0, 1.0], r)
    for field in ("A", "b_diag", "d_diag", "x0", "w0"):
        assert np.allclose(getattr(twice, field), getattr(bar, field),
                           rtol=1e-14, atol=0)


def test_normalize_weighted_cost_equivalence():
    p = scalar_plant(1.0, 1.0, 0.5, x0=1.0, w0=1.0)
    for q, r in (([4.0], [1.0]), ([1.0], [4.0]), ([9.0], [4.0])):
        bar = lc.normalize(p, q, r)
        k = lc.deadbeat(p)
        states, mix = lc.simulate_trajectory(p, k, 40)
        weighted = float(np.sum(q[0] * states[:, 0] ** 2 + r[0] * mix[:, 0] ** 2))
        report = lc.simulate_cost(bar, lc.deadbeat(bar))
        assert report.converged
        assert math.isclose(report.total, weighted, rel_tol=1e-12)


def test_normalize_rejects_bad_weights():
    p = scalar_plant(1.0, 1.0, 0.0)
    with pytest.raises(lc.NonPositiveWeightError):
        lc.normalize(p, [0.0], [1.0])
    with pytest.raises(lc.NonPositiveWeightError):
        lc.normalize(p, [1.0], [-2.0])
    with pytest.raises(lc.DimensionMismatchError):
        lc.normalize(p, [1.0, 1.0], [1.0])


def test_sample_ensemble_is_deterministic_and_admissible():
    g = lc.from_edge_list(3, [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)])
    spec = lc.EnsembleSpec(n=3, plant_graph=g, eps_b=1.0, seed=7, count=12)
    first = lc.sample_ensemble(spec)
    second = lc.sample_ensemble(spec)
    assert len(first) == 12
    for p, q in zip(first, second):
        assert np.array_equal(p.A, q.A)
        assert np.array_equal(p.x0, q.x0)
    for p in first:
        assert lc.validate(p, g, spec.eps_b) == []
        assert np.all(np.abs(p.b_diag) >= spec.eps_b)
        assert np.all(np.abs(p.d_diag) <= 1.0)


def test_sample_ensemble_substreams_are_index_local():
    g = lc.complete_graph(2)
    big = lc.sample_ensemble(lc.EnsembleSpec(n=2, plant_graph=g, seed=5, count=4))
    # plant k depends only on seed + k, not on how many came before
    tail = lc.sample_ensemble(lc.EnsembleSpec(n=2, plant_graph=g, seed=8, count=1))
    assert np.array_equal(big[3].A, tail[0].A)
    assert np.array_equal(big[3].w0, tail[0].w0)


def test_sample_ensemble_edge_cases():
    g = lc.self_loops_only(1)
    assert lc.sample_ensemble(lc.EnsembleSpec(n=1, plant_graph=g, count=0)) == []
    with pytest.raises(lc.InvalidSpecError):
        lc.sample_ensemble(lc.EnsembleSpec(n=1, plant_graph=g, count=-1))
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(lc.InvalidSpecError):
            lc.sample_ensemble(lc.EnsembleSpec(n=1, plant_graph=g, eps_b=bad))
    with pytest.raises(lc.InvalidSpecError):
        lc.sample_ensemble(lc.EnsembleSpec(n=2, plant_graph=g))


def test_sample_ensemble_golden_draws():
    # exact draws for one spec, so that a changed range or draw order fails
    g = lc.from_edge_list(3, [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (3, 1)])
    spec = lc.EnsembleSpec(n=3, plant_graph=g, eps_b=0.5, seed=7, count=2)
    golden = [
        {"A": [[0.5003818664186679, 0.0, 1.102742760980774],
               [-1.0991712400376326, -0.7993348603550983, 0.0],
               [0.0, 1.2849136735310651, 1.188277715008185]],
         "b_diag": [-1.4358699056874416, -1.106064853638627, 1.0568512242015466],
         "d_diag": [0.10699470414898493, 0.9910005668687853, 0.5853238384275061],
         "x0": [-1.901222739800844, -1.289537739784976, -1.8417350377917323],
         "w0": [-0.23509113107468127, -1.2674464814437032, 0.2712643588217015]},
        {"A": [[-0.6921108935777571, 0.0, -0.7251566460579331],
               [1.1541957432801158, 1.4795860467848643, 0.0],
               [0.0, -0.5090043876425878, -1.5721856141089026]],
         "b_diag": [-1.457930908325434, -0.9827042901693646, 1.0142904971022595],
         "d_diag": [-0.15403162371154733, -0.4881589896835479, 0.18180570353082315],
         "x0": [-0.8368950200968434, -0.3015466095655266, 0.36233859316943917],
         "w0": [0.25811026702099754, -1.6394479624476481, 0.360155232237386]},
    ]
    plants = lc.sample_ensemble(spec)
    assert len(plants) == len(golden)
    for p, want in zip(plants, golden):
        for field, values in want.items():
            assert np.array_equal(getattr(p, field), values), field


def test_worst_case_family_reference_point():
    p = lc.worst_case_family(1, 2, 1.0, 1.0)
    root = math.sqrt(5.0)
    assert p.n == 2
    assert p.A[1, 0] == 1.0 and np.count_nonzero(p.A) == 1
    assert np.array_equal(p.b_diag, [1.0, 1.0])
    assert np.array_equal(p.d_diag, [1.0, 1.0])
    assert math.isclose(p.x0[0], root + 1.0, rel_tol=1e-15)
    assert p.x0[1] == 0.0
    assert math.isclose(p.w0[0], root + 1.0, rel_tol=1e-15)
    assert p.w0[1] == -1.0


def test_worst_case_family_scaling_and_structure():
    p = lc.worst_case_family(2, 3, 10.0, 1.0, n=4)
    assert p.n == 4
    assert p.A[2, 1] == 10.0 and np.count_nonzero(p.A) == 1
    assert lc.is_nilpotent_deg2(p.A)
    # the source initial state shrinks like 1/r
    assert math.isclose(p.x0[1], (math.sqrt(5.0) + 1.0) / 10.0, rel_tol=1e-15)
    g = lc.from_edge_list(4, [(1, 1), (2, 2), (3, 3), (4, 4), (2, 3)])
    assert lc.validate(p, g, 1.0) == []


def test_worst_case_family_rejects_bad_parameters():
    with pytest.raises(lc.SameIndexError):
        lc.worst_case_family(2, 2, 1.0, 1.0)
    with pytest.raises(lc.ZeroParameterError):
        lc.worst_case_family(1, 2, 0.0, 1.0)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(lc.NonPositiveEpsilonError):
            lc.worst_case_family(1, 2, 1.0, bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(lc.InvalidSpecError):
            lc.worst_case_family(1, 2, bad, 1.0)
    with pytest.raises(lc.DimensionMismatchError):
        lc.worst_case_family(1, 5, 1.0, 1.0, n=3)


def test_is_nilpotent_deg2():
    assert lc.is_nilpotent_deg2([[0.0, 0.0], [3.0, 0.0]])
    assert lc.is_nilpotent_deg2(np.zeros((3, 3)))
    assert not lc.is_nilpotent_deg2(np.eye(2))
    assert not lc.is_nilpotent_deg2([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    with pytest.raises(lc.NonSquareError):
        lc.is_nilpotent_deg2(np.zeros((2, 3)))
