"""The stacked forms against their lone forms, bit for bit.

Each stacked form evaluates the members of one plant size as one stack
(stacks.in_stacks) and yields results in input order. The lists here mix
sizes in shuffled order, so every form sees several interleaved stacks.
"""

import math
import random

import numpy as np
import pytest

import limoctrl as lc
from limoctrl import evaluation, graphs, stacks, verify
from limoctrl.synthesis import STRATEGIES


def _bits(value):
    return np.asarray(value, dtype=float).view(np.uint64).tolist()


def _report_bits(report):
    return (_bits(report.total), report.steps_used, report.converged,
            report.diverged, _bits(report.tail_estimate))


def _shuffled(items, seed):
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def _mixed_pairs(seed):
    """(plant, graph) pairs of n = 1..5 in shuffled order, half of them on
    sink graphs."""
    return _shuffled(verify._sampled_plants(seed, 60)
                     + verify._sampled_plants(seed + 1, 40, mode="sink"), seed)


def _scalar(a, b=1.0, x0=1.0):
    return lc.Plant(A=[[a]], b_diag=[b], d_diag=[0.0], x0=[x0], w0=[0.0])


def _zero_controller(n):
    z = np.zeros((n, n))
    return lc.Controller(a_diag=np.zeros(n), B_K=z, c_diag=np.zeros(n), D_K=z)


def _until_error(stream):
    """The results a stream yields before it raises, and the error."""
    out = []
    with pytest.raises(lc.LimoctrlError) as info:
        for result in stream:
            out.append(result)
    return out, info.value


@pytest.mark.parametrize("seed", [0, 1])
def test_simulate_costs_match_the_lone_runs(seed):
    pairs = [(p, lc.sink_aware(p, g) if k % 2 else lc.deadbeat(p))
             for k, (p, g) in enumerate(_mixed_pairs(seed))]
    stacked = list(lc.simulate_costs(pairs))
    assert [_report_bits(r) for r in stacked] == \
        [_report_bits(lc.simulate_cost(p, k)) for p, k in pairs]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_each_exit_leaves_the_stack_at_its_own_step():
    # converged, diverged and out of steps, interleaved with 2x2 plants: a
    # diverged member left in the stack would overflow long before the
    # marginal member runs out of its 10000 steps, and warn
    converged = (_scalar(1.0), lc.deadbeat(_scalar(1.0)))
    diverged = (_scalar(2.0), _zero_controller(1))
    marginal = (_scalar(1.0), _zero_controller(1))
    p2 = lc.worst_case_family(1, 2, 3.0, 1.0, 2)
    pairs = [marginal, (p2, lc.deadbeat(p2)), diverged, converged,
             (p2, _zero_controller(2)), diverged, converged]
    reports = list(lc.simulate_costs(pairs))
    assert [_report_bits(r) for r in reports] == \
        [_report_bits(lc.simulate_cost(p, k)) for p, k in pairs]
    flags = [(r.converged, r.diverged) for r in reports]
    assert flags[0] == (False, False) and reports[0].steps_used == lc.evaluation.MAX_STEPS
    assert flags[2] == flags[5] == (False, True)
    assert flags[3] == flags[6] == (True, False)
    assert reports[2].total == math.inf


def test_simulate_costs_raise_a_size_mismatch_at_its_turn():
    p2 = lc.worst_case_family(1, 2, 3.0, 1.0, 2)
    pairs = [(p2, lc.deadbeat(p2)), (_scalar(0.5), lc.deadbeat(_scalar(0.5))),
             (p2, _zero_controller(3)), (p2, lc.deadbeat(p2))]
    out, error = _until_error(lc.simulate_costs(pairs))
    assert isinstance(error, lc.DimensionMismatchError)
    assert [_report_bits(r) for r in out] == \
        [_report_bits(lc.simulate_cost(p, k)) for p, k in pairs[:2]]


def test_no_stack_behind_the_first_failure_is_evaluated(monkeypatch):
    evaluated = []
    group = evaluation._cost_group

    def recorded(pairs):
        evaluated.append([p.n for p, _ in pairs])
        return group(pairs)

    monkeypatch.setattr(evaluation, "_cost_group", recorded)
    p2 = lc.worst_case_family(1, 2, 3.0, 1.0, 2)
    p3 = lc.worst_case_family(1, 2, 3.0, 1.0, 3)
    good2, good3 = (p2, lc.deadbeat(p2)), (p3, lc.deadbeat(p3))
    bad2 = (p2, _zero_controller(1))
    out, error = _until_error(lc.simulate_costs([good2, bad2, good2, good3, good3]))
    assert isinstance(error, lc.DimensionMismatchError) and len(out) == 1
    # the n = 2 stack ran (its bad member held back its error); the n = 3
    # stack, whose first member comes after the failure, never did
    assert evaluated == [[2, 2, 2]]


def test_stacks_are_capped(monkeypatch):
    sizes = []
    group = evaluation._deadbeat_group

    def recorded(plants):
        sizes.append(len(plants))
        return group(plants)

    monkeypatch.setattr(evaluation, "_deadbeat_group", recorded)
    monkeypatch.setattr(stacks, "STACK_ENTRIES", 3 * 4)
    plants = [lc.worst_case_family(1, 2, r, 1.0, 2) for r in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)]
    values = list(lc.deadbeat_cost_closed_forms(plants))
    # three members of n = 2 per stack; the seventh plant is a stack of one,
    # which goes through the lone form, itself the group on one plant
    assert sizes == [3, 3, 1]
    assert _bits(values) == _bits([lc.deadbeat_cost_closed_form(p) for p in plants])


@pytest.mark.parametrize("seed", [0, 1])
def test_closed_forms_match_the_lone_forms(seed):
    plants = [p for p, _ in _mixed_pairs(seed)]
    assert _bits(list(lc.deadbeat_cost_closed_forms(plants))) == \
        _bits([lc.deadbeat_cost_closed_form(p) for p in plants])
    assert _bits(list(lc.centralized_lower_bounds(plants))) == \
        _bits([lc.centralized_lower_bound(p) for p in plants])


@pytest.mark.parametrize("form", [lc.deadbeat_cost_closed_forms,
                                  lc.centralized_lower_bounds])
def test_closed_forms_raise_a_zero_gain_at_its_turn(form):
    plants = [p for p, _ in verify._sampled_plants(3, 8)]
    zero = lc.Plant(A=plants[2].A, b_diag=np.where(np.arange(plants[2].n) == 0,
                                                   0.0, plants[2].b_diag),
                    d_diag=plants[2].d_diag, x0=plants[2].x0, w0=plants[2].w0)
    out, error = _until_error(form(plants[:2] + [zero] + plants[2:]))
    assert isinstance(error, lc.ZeroGainError)
    assert _bits(out) == _bits(list(form(plants[:2])))


def test_trajectories_match_the_lone_rolls():
    pairs = [(p, lc.deadbeat(p)) for p, _ in _mixed_pairs(4)]
    for (p, k), (states, mix) in zip(pairs, lc.simulate_trajectories(pairs, 20)):
        lone_states, lone_mix = lc.simulate_trajectory(p, k, 20)
        assert _bits(states) == _bits(lone_states)
        assert _bits(mix) == _bits(lone_mix)


def _random_graph(rng, n, density, loops):
    mask = (rng.random((n, n)) < density).astype(np.int8)
    if loops:
        np.fill_diagonal(mask, 1)
    return lc.from_adjacency(mask)


def test_design_conditions_match_the_lone_search():
    rng = np.random.default_rng(5)
    pairs = []
    for _ in range(400):
        n = int(rng.integers(1, 8))
        pairs.append((_random_graph(rng, n, rng.uniform(0.1, 0.9), False),
                      _random_graph(rng, n, rng.uniform(0.1, 0.9), True)))
    got = list(lc.design_conditions(pairs))
    assert got == [lc.design_condition_applies(*pair) for pair in pairs]
    witnesses = [w for found, w in got if found]
    assert len(witnesses) > 100 and len(witnesses) < len(got)
    assert all(type(v) is int for w in witnesses for v in w)


def test_design_conditions_raise_at_their_turn():
    g3 = lc.from_edge_list(3, [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)])
    c3 = lc.complete_graph(3)
    loopless = lc.from_edge_list(3, [(1, 1), (2, 3)])
    good = [(g3, c3), (g3, lc.self_loops_only(3))]
    out, error = _until_error(lc.design_conditions(good + [(g3, loopless), (g3, c3)]))
    assert isinstance(error, lc.MissingSelfLoopError) and out == list(lc.design_conditions(good))
    out, error = _until_error(lc.design_conditions(good + [(g3, lc.complete_graph(2))]))
    assert isinstance(error, lc.DimensionMismatchError) and len(out) == 2


def test_design_conditions_on_criterion_10_pairs():
    masks = [graphs.from_adjacency(m) for m in
             (np.eye(3, dtype=np.int8), np.ones((3, 3), dtype=np.int8),
              np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1]], dtype=np.int8))]
    pairs = [(a, b) for a in masks for b in masks]
    assert list(lc.design_conditions(pairs)) == \
        [verify._design_condition_oracle(a, b) for a, b in pairs]


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_cost_column_matches_the_lone_costs(strategy):
    pairs = [(p, g) for p, g in _mixed_pairs(6)]
    column = list(STRATEGIES[strategy].cost(pairs))
    assert _bits(column) == _bits([lc.ratio.strategy_cost(p, strategy, g)
                                   for p, g in pairs])


def test_theta_cost_column_raises_a_failed_build_at_its_turn():
    pairs = [(p, g) for p, g in verify._sampled_plants(8, 6, mode="sink")]
    broken = pairs[:3] + [(pairs[3][0], None)] + pairs[4:]
    with pytest.raises(lc.InvalidSpecError, match="plant graph"):
        out = []
        for cost in STRATEGIES["theta"].cost(broken):
            out.append(cost)
    assert _bits(out) == _bits(list(STRATEGIES["theta"].cost(pairs[:3])))
