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


def _cost_bits(cost):
    return (_bits(cost.total), cost.squarings, cost.diverged)


@pytest.mark.parametrize("seed", [0, 1])
def test_exact_costs_match_the_lone_costs(seed):
    # criterion 07a's sink ensemble, its sink-aware and deadbeat designs
    pairs = verify._sampled_plants(seed + 4000, 200, mode="sink")
    designs = _shuffled([(p, k) for (p, _), k in zip(pairs, lc.sink_awares(pairs))]
                        + [(p, lc.deadbeat(p)) for p, _ in pairs], seed)
    assert [_cost_bits(c) for c in lc.exact_costs(designs)] == \
        [_cost_bits(lc.exact_cost(p, k)) for p, k in designs]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_each_exit_leaves_the_stack_at_its_own_step():
    # converged, diverged by overflow and diverged at the squaring cap,
    # interleaved with 2x2 plants: a diverged member's T overflows to inf
    # and NaN in the stack, which must neither warn nor touch its mates
    converged = (_scalar(0.5), lc.deadbeat(_scalar(0.5)))
    diverged = (_scalar(2.0), _zero_controller(1))
    marginal = (_scalar(1.0), _zero_controller(1))
    slow = (_scalar(0.999), _zero_controller(1))
    p2 = lc.worst_case_family(1, 2, 3.0, 1.0, 2)
    pairs = [marginal, (p2, lc.deadbeat(p2)), diverged, converged,
             (p2, _zero_controller(2)), slow, diverged, converged]
    costs = list(lc.exact_costs(pairs))
    assert [_cost_bits(c) for c in costs] == \
        [_cost_bits(lc.exact_cost(p, k)) for p, k in pairs]
    mates = [pair for pair, c in zip(pairs, costs) if not c.diverged]
    assert [_cost_bits(c) for c in costs if not c.diverged] == \
        [_cost_bits(c) for c in lc.exact_costs(mates)]
    # the zero controller leaves the family's constant disturbance in u + w
    assert [c.diverged for c in costs] == [True, False, True, False, True, False, True, False]
    assert costs[0].total == costs[2].total == math.inf
    assert costs[0].squarings == lc.evaluation.MAX_SQUARINGS
    # each member froze at its own squaring
    assert costs[3].squarings < costs[5].squarings < lc.evaluation.MAX_SQUARINGS


def test_exact_costs_raise_a_size_mismatch_at_its_turn():
    p2 = lc.worst_case_family(1, 2, 3.0, 1.0, 2)
    pairs = [(p2, lc.deadbeat(p2)), (_scalar(0.5), lc.deadbeat(_scalar(0.5))),
             (p2, _zero_controller(3)), (p2, lc.deadbeat(p2))]
    out, error = _until_error(lc.exact_costs(pairs))
    assert isinstance(error, lc.DimensionMismatchError)
    assert [_cost_bits(c) for c in out] == \
        [_cost_bits(lc.exact_cost(p, k)) for p, k in pairs[:2]]


def test_no_stack_behind_the_first_failure_is_evaluated(monkeypatch):
    evaluated = []
    group = evaluation._exact_cost_group

    def recorded(pairs):
        evaluated.append([p.n for p, _ in pairs])
        return group(pairs)

    monkeypatch.setattr(evaluation, "_exact_cost_group", recorded)
    p2 = lc.worst_case_family(1, 2, 3.0, 1.0, 2)
    p3 = lc.worst_case_family(1, 2, 3.0, 1.0, 3)
    good2, good3 = (p2, lc.deadbeat(p2)), (p3, lc.deadbeat(p3))
    bad2 = (p2, _zero_controller(1))
    out, error = _until_error(lc.exact_costs([good2, bad2, good2, good3, good3]))
    assert isinstance(error, lc.DimensionMismatchError) and len(out) == 1
    # the n = 2 stack ran without its bad member, whose error was held
    # back to its turn; the n = 3 stack, whose first member comes after
    # the failure, never did
    assert evaluated == [[2, 2]]


def test_the_driver_gates_each_member_at_its_turn():
    # one size, so one stack; a negative item fails its check
    evaluated = []

    def error_of(item):
        return lc.InvalidSpecError(f"bad item {item}") if item < 0 else None

    def evaluate(members):
        evaluated.append(members)
        return [10 * item for item in members]

    def run(items):
        return stacks.in_stacks(items, lambda item: 1, error_of, evaluate,
                                lambda item: stacks.alone(item, error_of, evaluate))

    out, error = _until_error(run([1, -2, 3]))
    assert out == [10] and str(error) == "bad item -2"
    assert evaluated == [[1, 3]]
    # a stack of one goes through lone, with the same error
    evaluated.clear()
    out, lone_error = _until_error(run([-2]))
    assert out == [] and evaluated == []
    assert type(lone_error) is type(error) and str(lone_error) == str(error)


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


def _controller_bits(k):
    return tuple(_bits(getattr(k, field))
                 for field in ("a_diag", "B_K", "c_diag", "D_K"))


def _plant_bits(p):
    return tuple(_bits(getattr(p, field))
                 for field in ("A", "b_diag", "d_diag", "x0", "w0"))


def _with_zero_gain(p):
    return lc.Plant(A=p.A, b_diag=np.where(np.arange(p.n) == p.n - 1, 0.0, p.b_diag),
                    d_diag=p.d_diag, x0=p.x0, w0=p.w0)


def _draws(seed, count):
    """(graph, eps_b, seed) triples of n = 1..5 in shuffled order."""
    return _shuffled([(g, (0.5, 1.0, 2)[k % 3], 1000 * seed + 7 * k)
                      for k, (_, g) in enumerate(_mixed_pairs(seed)[:count])], seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_sample_plants_match_the_lone_draws(seed):
    draws = _draws(seed, 80)
    stacked = list(lc.sample_plants(draws))
    assert [_plant_bits(p) for p in stacked] == [
        _plant_bits(lc.sample_ensemble(lc.EnsembleSpec(
            n=g.n, plant_graph=g, eps_b=eps_b, seed=s, count=1))[0])
        for g, eps_b, s in draws]


def _sample_loop(g, eps_b, seed):
    """The plant sample_ensemble drew for one seed when each field was its
    own uniform, random or standard_normal call."""
    n = g.n
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2.0, 2.0, size=(n, n)) * g.adj
    magnitude = eps_b + rng.uniform(0.0, 2.0, size=n)
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    d = rng.uniform(-1.0, 1.0, size=n)
    return lc.Plant(A=a, b_diag=sign * magnitude, d_diag=d,
                    x0=rng.standard_normal(n), w0=rng.standard_normal(n))


def test_sample_plants_match_the_separate_draws():
    draws = _draws(3, 100)
    assert [_plant_bits(p) for p in lc.sample_plants(draws)] == \
        [_plant_bits(_sample_loop(*draw)) for draw in draws]


def test_sample_ensemble_is_sample_plants_over_its_seeds():
    g = lc.from_edge_list(3, [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (3, 1)])
    spec = lc.EnsembleSpec(n=3, plant_graph=g, eps_b=0.5, seed=7, count=12)
    plants = list(lc.sample_plants((g, 0.5, 7 + k) for k in range(12)))
    assert [_plant_bits(p) for p in plants] == \
        [_plant_bits(p) for p in lc.sample_ensemble(spec)]


def test_sample_plants_raise_a_bad_eps_b_at_its_turn():
    draws = _draws(2, 10)
    g = draws[3][0]
    out, error = _until_error(lc.sample_plants(draws[:3] + [(g, math.nan, 1)] + draws[3:]))
    assert isinstance(error, lc.InvalidSpecError) and "eps_b" in str(error)
    assert [_plant_bits(p) for p in out] == \
        [_plant_bits(p) for p in lc.sample_plants(draws[:3])]


def _sink_graph_loop(rng, n):
    """verify._sink_graph as it was written, one vertex at a time."""
    mask = (rng.random((n, n)) < 0.5).astype(np.int8)
    v = int(rng.integers(n))
    for i in range(n):
        if i != v:
            mask[i, v] = 0
    if n > 1:
        u = int(rng.integers(n - 1))
        u = u if u < v else u + 1
        mask[v, u] = 1
    return mask


def test_sink_graph_matches_the_per_vertex_loop():
    for seed in range(300):
        n = seed % 6 + 1
        rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(verify._sink_graph(rng, n).adj,
                              _sink_graph_loop(loop_rng, n))
        # the same draws were taken, so the streams go on alike
        assert rng.random() == loop_rng.random()


@pytest.mark.parametrize("seed", [0, 1])
def test_structured_builds_match_the_lone_builds(seed):
    pairs = _mixed_pairs(seed)
    plants = [p for p, _ in pairs]
    assert [_controller_bits(k) for k in lc.deadbeats(plants)] == \
        [_controller_bits(lc.deadbeat(p)) for p in plants]
    tuned = list(lc.sink_awares(pairs))
    assert [_controller_bits(k) for k in tuned] == \
        [_controller_bits(lc.sink_aware(p, g)) for p, g in pairs]
    # members without a sink are the deadbeat design, signed zeros included
    plain = [(p, k) for (p, g), k in zip(pairs, tuned) if not lc.sinks(g)]
    assert plain and all(_controller_bits(k) == _controller_bits(lc.deadbeat(p))
                         for p, k in plain)


def test_structured_builds_raise_at_their_turn():
    pairs = _mixed_pairs(3)[:12]
    plants = [p for p, _ in pairs]
    out, error = _until_error(lc.deadbeats(plants[:4] + [_with_zero_gain(plants[4])]
                                           + plants[4:]))
    assert isinstance(error, lc.ZeroGainError)
    assert [_controller_bits(k) for k in out] == \
        [_controller_bits(lc.deadbeat(p)) for p in plants[:4]]
    p, g = pairs[4]
    other = lc.complete_graph(p.n + 1)
    for bad, kind in (((_with_zero_gain(p), g), lc.ZeroGainError),
                      ((p, other), lc.DimensionMismatchError),
                      ((p, None), lc.InvalidSpecError)):
        out, error = _until_error(lc.sink_awares(pairs[:4] + [bad] + pairs[4:]))
        assert isinstance(error, kind)
        assert [_controller_bits(k) for k in out] == \
            [_controller_bits(lc.sink_aware(*pair)) for pair in pairs[:4]]
        with pytest.raises(kind):
            lc.sink_aware(*bad)


def test_design_condition_errors_are_the_lone_errors():
    rng = np.random.default_rng(9)
    pairs = []
    for k in range(60):
        g_p = _random_graph(rng, 3, 0.5, False)
        # every fifth design graph has another size, every seventh lacks a
        # self-loop
        g_c = _random_graph(rng, 4 if k % 5 == 0 else 3, 0.5, k % 7 != 0)
        pairs.append((g_p, g_c))

    def lone(pair):
        try:
            return lc.design_condition_applies(*pair)
        except lc.LimoctrlError as exc:
            return type(exc), str(exc)

    # the size gate first, as the driver applies it, then one kernel call
    # on the pairs that pass
    gate = [graphs._size_error(g_p.n, g_c.n) for g_p, g_c in pairs]
    kernel = iter(graphs._condition_group(
        [pair for pair, error in zip(pairs, gate) if not error]))
    got = [(type(r), str(r)) if isinstance(r, Exception) else r
           for r in (error or next(kernel) for error in gate)]
    assert got == [lone(pair) for pair in pairs]
    assert sum(isinstance(r, tuple) and isinstance(r[0], type) for r in got) > 10


def _limited_info_loop(strategy, p, g_p, row, pert, eps_b):
    """synthesis.limited_info_check as it was written, one row at a time."""
    build = STRATEGIES[strategy].build
    base = build(p, g_p)
    perturbed = build(lc.apply_row_perturbation(p, g_p, row, pert, eps_b), g_p)
    for j in range(p.n):
        if j == row - 1:
            continue
        if not (np.array_equal(base.B_K[j], perturbed.B_K[j])
                and np.array_equal(base.D_K[j], perturbed.D_K[j])
                and base.a_diag[j] == perturbed.a_diag[j]
                and base.c_diag[j] == perturbed.c_diag[j]):
            return False
    return True


def test_limited_info_check_matches_the_row_loop():
    rng = np.random.default_rng(12)
    outcomes = set()
    for p, g in verify._sampled_plants(12, 30, mode="sink", n_lo=2):
        row = int(rng.integers(1, p.n + 1))
        pert = lc.RowPerturbation(
            a_row=tuple(rng.uniform(-2.0, 2.0, size=p.n) * g.adj[row - 1]),
            b=float(1.0 + rng.uniform(0.0, 2.0)), d=float(rng.uniform(-1.0, 1.0)))
        for strategy in STRATEGIES:
            got = lc.limited_info_check(strategy, p, g, row, pert, 1.0)
            assert got == _limited_info_loop(strategy, p, g, row, pert, 1.0)
            outcomes.add(got)
    assert outcomes == {True, False}


def _owner(array):
    return array if array.base is None else array.base


def test_handed_over_arrays_are_read_only_to_their_owner():
    # the stacked builders hand rows of their stacks to Plant and Controller
    # uncopied, so the stacks themselves must be frozen
    pairs = _mixed_pairs(7)
    built = list(lc.sink_awares(pairs)) + list(lc.deadbeats(p for p, _ in pairs))
    built += [lc.deadbeat(pairs[0][0]), lc.sink_aware(*pairs[0])]
    arrays = [getattr(k, field) for k in built
              for field in ("a_diag", "B_K", "c_diag", "D_K")]
    arrays += [getattr(p, field) for p, _ in pairs
               for field in ("A", "b_diag", "d_diag", "x0", "w0")]
    assert not any(a.flags.writeable or _owner(a).flags.writeable for a in arrays)
