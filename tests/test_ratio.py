"""Competitive-ratio experiments: bound, per-plant ratios, sweeps, domination."""

import math
import tracemalloc

import numpy as np
import pytest

import limoctrl as lc
from limoctrl.ratio import strategy_cost
from limoctrl.synthesis import STRATEGIES


SINK_CHAIN = lc.from_edge_list(3, [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)])
FLIP_PLANT = lc.Plant(A=[[1.0, 0.0], [2.0, 1.0]], b_diag=[1.0, 1.0],
                      d_diag=[0.0, 0.0], x0=[2.0, 0.0], w0=[0.0, 1.0])


def test_ratio_bound_reference_values():
    assert math.isclose(lc.ratio_bound(1.0), (3.0 + math.sqrt(5.0)) / 2.0,
                        rel_tol=1e-15)
    assert math.isclose(lc.ratio_bound(0.5), 3.0 + 2.0 * math.sqrt(2.0),
                        rel_tol=1e-15)
    assert math.isclose(lc.ratio_bound(1000.0), 1.001000500125, rel_tol=1e-12)


def test_ratio_bound_shape():
    values = [lc.ratio_bound(e) for e in (0.25, 0.5, 1.0, 10.0, 1000.0)]
    assert all(v > 1.0 for v in values)
    assert values == sorted(values, reverse=True)
    # large gain floors push the bound down to 1
    assert lc.ratio_bound(1e6) - 1.0 < 2e-6
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(lc.NonPositiveEpsilonError):
            lc.ratio_bound(bad)


def test_per_plant_ratio_conventions():
    zero_start = lc.Plant(A=[[1.0]], b_diag=[1.0], d_diag=[0.5],
                          x0=[0.0], w0=[0.0])
    assert lc.per_plant_ratio(zero_start, "deadbeat") == 1.0
    assert lc.per_plant_ratio(FLIP_PLANT, "centralized") == 1.0
    with pytest.raises(lc.InvalidSpecError):
        lc.per_plant_ratio(FLIP_PLANT, "theta")
    with pytest.raises(lc.InvalidSpecError):
        lc.per_plant_ratio(FLIP_PLANT, "no_such_strategy")
    with pytest.raises(lc.InvalidSpecError):
        strategy_cost(FLIP_PLANT, "no_such_strategy")


def test_per_plant_ratio_can_dip_below_one_with_nonzero_start():
    # deadbeat beats the optimal design on this plant, so the ratio is < 1
    r = lc.per_plant_ratio(FLIP_PLANT, "deadbeat")
    assert math.isclose(r, 0.9351306587816757, rel_tol=1e-12)
    assert r < 1.0


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_strategy_cost_agrees_with_simulating_the_built_controller(strategy):
    entry = STRATEGIES[strategy]
    spec = lc.EnsembleSpec(n=3, plant_graph=SINK_CHAIN, seed=5, count=8)
    for p in lc.sample_ensemble(spec):
        assert lc.validate(p, SINK_CHAIN, spec.eps_b) == []
        simulated = lc.simulate_cost(p, entry.build(p, SINK_CHAIN)).total
        cost = next(entry.cost([(p, SINK_CHAIN)]))
        assert math.isclose(cost, simulated, rel_tol=1e-9)
        assert strategy_cost(p, strategy, SINK_CHAIN) == cost


def test_plant_ratios_match_the_lone_cost_routes():
    # two plant sizes, interleaved, so the denominators are two stacks
    g2 = lc.complete_graph(2)
    threes = lc.sample_ensemble(lc.EnsembleSpec(n=3, plant_graph=SINK_CHAIN,
                                                seed=5, count=4))
    twos = lc.sample_ensemble(lc.EnsembleSpec(n=2, plant_graph=g2, seed=6,
                                              count=4))
    pairs = [pair for duo in zip([(p, SINK_CHAIN) for p in threes],
                                 [(p, g2) for p in twos]) for pair in duo]
    for strategy in STRATEGIES:
        for (p, g), (num, den, ratio) in zip(pairs, lc.plant_ratios(pairs, strategy)):
            lone = lc.centralized_cost_closed_form(
                p, lc.solve_singular_dare(lc.augment(p)))
            assert den == lone == strategy_cost(p, "centralized", g)
            assert num == strategy_cost(p, strategy, g)
            assert ratio == num / den


def test_plant_ratios_take_each_numerator_after_its_own_denominator():
    # the first plant's numerator fails (theta without a graph) before the
    # second plant's denominator, solved in the same stack, would
    good = lc.worst_case_family(1, 2, 3.0, 1.0, 2)
    overflow = lc.Plant(A=[[1e200, 0.0], [1.0, 0.5]], b_diag=[1.0, 1.5],
                        d_diag=[0.5, 0.25], x0=[1.0, 0.0], w0=[0.0, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(lc.InvalidSpecError, match="plant graph"):
            lc.plant_ratios([(good, None), (overflow, None)], "theta")
        with pytest.raises(lc.NoConvergenceError):
            lc.plant_ratios([(good, None), (overflow, None)], "deadbeat")


def test_a_later_plant_the_solver_refuses_waits_for_its_turn():
    # the zero-gain plant shares the good plant's stack, but its error comes
    # after the good plant's numerator error (theta without a graph)
    good = lc.worst_case_family(1, 2, 3.0, 1.0, 2)
    zero = lc.Plant(A=good.A, b_diag=[1.0, 0.0], d_diag=good.d_diag,
                    x0=good.x0, w0=good.w0)
    with pytest.raises(lc.InvalidSpecError, match="needs the plant graph"):
        lc.plant_ratios([(good, None), (zero, None)], "theta")
    with pytest.raises(lc.ZeroGainError, match=r"b\[2\]"):
        lc.plant_ratios([(good, None), (zero, None)], "deadbeat")


def test_plant_ratios_call_augment_once_per_plant(monkeypatch):
    # perfbench's tracer counts solved plants at riccati.augment
    seen = []
    augment = lc.riccati.augment

    def counted(p):
        seen.append(id(p))
        return augment(p)

    monkeypatch.setattr(lc.riccati, "augment", counted)
    plants = [lc.worst_case_family(1, 2, r, 1.0, n)
              for r, n in ((1.0, 2), (2.0, 3), (3.0, 2), (4.0, 5), (5.0, 2))]
    lc.plant_ratios([(p, None) for p in plants], "deadbeat")
    assert sorted(seen) == sorted(id(p) for p in plants)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_plant_ratios_memory_does_not_grow_with_the_list():
    # one n = 80 solution holds about 0.3 MB, and n = 80 plants are solved
    # one per stack; only floats outlive a stack, so ten more plants held
    # would show as 3 MB
    plants = [(lc.worst_case_family(1, 2, r, 1.0, 80), None)
              for r in np.geomspace(1.0, 1e4, 12)]
    two = _peak_bytes(lambda: lc.plant_ratios(plants[:2], "deadbeat"))
    many = _peak_bytes(lambda: lc.plant_ratios(plants, "deadbeat"))
    assert many < two + 0.1e6


def test_ratio_sweep_solves_each_point_alone(monkeypatch):
    lone = []
    solve = lc.riccati.solve_singular_dare

    def counted(p, *args):
        lone.append(p.n)
        return solve(p, *args)

    monkeypatch.setattr(lc.riccati, "solve_singular_dare", counted)
    lc.ratio_sweep(1, 2, 1.0, [1.0, 10.0, 100.0], n=5)
    assert lone == [5, 5, 5]


def test_theta_ratio_is_one_on_pure_cross_coupling():
    g = lc.from_edge_list(2, [(1, 2)])
    spec = lc.EnsembleSpec(n=2, plant_graph=g, seed=19, count=6)
    for p in lc.sample_ensemble(spec):
        assert abs(lc.per_plant_ratio(p, "theta", g) - 1.0) <= 1e-9


def test_worst_case_optimal_cost_reference_values():
    assert math.isclose(lc.worst_case_optimal_cost(1.0, 10.0),
                        7.294608997162286, rel_tol=1e-12)
    assert math.isclose(lc.worst_case_optimal_cost(1.0, 1.0),
                        13.090169943749475, rel_tol=1e-12)
    with pytest.raises(lc.ZeroParameterError):
        lc.worst_case_optimal_cost(1.0, 0.0)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(lc.NonPositiveEpsilonError):
            lc.worst_case_optimal_cost(bad, 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(lc.InvalidSpecError):
            lc.worst_case_optimal_cost(1.0, bad)


def test_ratio_sweep_reference_points():
    report = lc.ratio_sweep(1, 2, 1.0, [1.0, 10.0, 100.0, 1000.0])
    ratios = [e.ratio for e in report.per_plant]
    assert math.isclose(ratios[0], 1.661173994671003, rel_tol=1e-12)
    assert math.isclose(ratios[3], 2.618031647112497, rel_tol=1e-12)
    assert [e.plant_id for e in report.per_plant] == [
        "family_r_1", "family_r_10", "family_r_100", "family_r_1000"]
    assert [e.r_param for e in report.per_plant] == [1.0, 10.0, 100.0, 1000.0]
    assert math.isclose(report.per_plant[1].J_centralized,
                        7.3407893370497845, rel_tol=1e-12)
    assert report.sup_estimate == ratios[3]
    assert math.isclose(report.analytic_bound, 2.618033988749895, rel_tol=1e-15)
    assert report.family_params == {"i": 1, "j": 2, "eps_b": 1.0,
                                    "r_grid": [1.0, 10.0, 100.0, 1000.0]}
    with pytest.raises(lc.InvalidSpecError):
        lc.ratio_sweep(1, 2, 1.0, [])


def test_ratio_sweep_approaches_the_bound_from_below():
    report = lc.ratio_sweep(1, 2, 1.0, [1.0, 10.0, 100.0, 1000.0, 1e5])
    ratios = [e.ratio for e in report.per_plant]
    assert ratios == sorted(ratios)
    assert all(r < report.analytic_bound for r in ratios)
    assert math.isclose(ratios[-1], 2.6180339885157315, rel_tol=1e-12)
    assert report.analytic_bound - ratios[-1] < 1e-9


def test_ensemble_ratio_report_is_deterministic():
    spec = lc.EnsembleSpec(n=2, plant_graph=lc.complete_graph(2),
                           seed=12, count=6)
    first = lc.ensemble_ratio_report(spec, "deadbeat")
    second = lc.ensemble_ratio_report(spec, "deadbeat")
    assert [e.plant_id for e in first.per_plant] == [
        f"sample_{k}" for k in range(6)]
    for a, b in zip(first.per_plant, second.per_plant):
        assert a.ratio == b.ratio
    assert all(math.isfinite(e.ratio) for e in first.per_plant)
    assert first.sup_estimate == max(e.ratio for e in first.per_plant)


def test_ensemble_ratio_report_centralized_is_exactly_one():
    spec = lc.EnsembleSpec(n=2, plant_graph=lc.complete_graph(2),
                           seed=12, count=4)
    report = lc.ensemble_ratio_report(spec, "centralized")
    assert all(e.ratio == 1.0 for e in report.per_plant)


def test_domination_self_comparison():
    spec = lc.EnsembleSpec(n=3, plant_graph=SINK_CHAIN, seed=3, count=25)
    report = lc.domination_check("deadbeat", "deadbeat", spec)
    assert report.a_never_worse
    assert not report.a_strictly_better_somewhere
    assert not report.dominates_on_sample
    for a, b in (("no_such_strategy", "deadbeat"), ("deadbeat", "no_such_strategy")):
        with pytest.raises(lc.InvalidSpecError):
            lc.domination_check(a, b, spec)


def test_domination_sink_aware_vs_deadbeat_mixed_outcome():
    # with nonzero starts the sink-aware design wins on some plants and
    # loses on others, so neither direction dominates
    spec = lc.EnsembleSpec(n=3, plant_graph=SINK_CHAIN, seed=3, count=25)
    report = lc.domination_check("theta", "deadbeat", spec)
    assert len(report.pairs) == 25
    assert not report.a_never_worse
    assert report.a_strictly_better_somewhere
    assert not report.dominates_on_sample
    d = report.as_dict()
    assert d["strategy_a"] == "theta" and d["dominates_on_sample"] is False


def test_domination_coincides_without_sinks():
    g = lc.from_edge_list(2, [(1, 1), (2, 2), (1, 2), (2, 1)])
    spec = lc.EnsembleSpec(n=2, plant_graph=g, seed=9, count=10)
    report = lc.domination_check("theta", "deadbeat", spec)
    assert report.a_never_worse
    assert not report.a_strictly_better_somewhere


def test_sink_aware_ratio_case_labels():
    label, value = lc.sink_aware_ratio_case(SINK_CHAIN, 1.0)
    assert label == "bound_case"
    assert value == lc.ratio_bound(1.0)
    assert lc.sink_aware_ratio_case(lc.from_edge_list(2, [(1, 2)]), 1.0) == (
        "exact_one_case", 1.0)
    open_graph = lc.from_edge_list(2, [(1, 1), (2, 2), (1, 2)])
    assert lc.sink_aware_ratio_case(open_graph, 1.0) == ("open_case", None)
    with pytest.raises(lc.InvalidSpecError):
        lc.sink_aware_ratio_case(lc.self_loops_only(2), 1.0)


def test_csv_report_layout_and_round_trip():
    report = lc.ratio_sweep(1, 2, 1.0, [1.0, 10.0])
    text = lc.ratio_report_to_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "plant_id,r_param,J_strategy,J_centralized,ratio,bound"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "family_r_1"
    assert float(first[1]) == 1.0
    # shortest-repr cells parse back to the exact floats
    assert float(first[4]) == report.per_plant[0].ratio
    assert float(first[5]) == report.analytic_bound
    closing = lines[3].split(",")
    assert closing[0] == "analytic_bound"
    assert closing[1] == "" and closing[4] == ""
    assert float(closing[5]) == report.analytic_bound
    assert report.denominator_note
    assert report.as_dict()["denominator_note"] == report.denominator_note


def test_report_json_round_trip():
    import json

    report = lc.ratio_sweep(1, 2, 1.0, [1.0, 10.0])
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["sup_estimate"] == report.sup_estimate
    assert payload["per_plant"][1]["ratio"] == report.per_plant[1].ratio
    assert payload["family_params"]["r_grid"] == [1.0, 10.0]
