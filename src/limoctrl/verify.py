"""Acceptance suite: one check per advertised numerical guarantee.

Each check returns a CheckResult; run_acceptance collects all of them. The
test suite asserts on the same results the `limoctrl verify` command
prints, so there is exactly one implementation of every check.

Ensembles are drawn from (seed, count), so two checks that quote the same
seed and count see the same plants. Two pairs of checks quote the same
ensemble, and run_acceptance draws each once and hands it to both:
criteria 01 and 02 take its (plant, deadbeat controller) pairs, and 04a and
04b take its (plant, optimal-design cost) pairs.
"""
from dataclasses import dataclass
import itertools

import numpy as np

from . import evaluation, graphs, plant, ratio, riccati, synthesis

RATIO_BOUND_1 = 2.6180340
RATIO_BOUND_HALF = 5.8284271


def _plain(value):
    """Strip numpy scalar wrappers so reports serialize as plain JSON."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float | str
    tolerance: float | str
    detail: str = ""
    skipped: bool = False

    def as_dict(self):
        return {"name": self.name, "passed": _plain(self.passed),
                "measured": _plain(self.measured),
                "tolerance": _plain(self.tolerance),
                "detail": self.detail, "skipped": _plain(self.skipped)}


def _skipped(name):
    return CheckResult(name=name, passed=True, measured="skipped",
                       tolerance="", detail="ensemble empty at this scale",
                       skipped=True)


# ---------------------------------------------------------------- ensembles

def _random_graph(rng, n):
    return graphs.from_adjacency(rng.random((n, n)) < 0.5)


def _sink_graph(rng, n):
    """Random graph guaranteed to contain at least one sink."""
    mask = rng.random((n, n)) < 0.5
    v = int(rng.integers(n))
    mask[np.arange(n) != v, v] = 0
    if n > 1:
        u = int(rng.integers(n - 1))
        u = u if u < v else u + 1
        mask[v, u] = 1
    return graphs.from_adjacency(mask)


def _no_sink_graph(rng, n):
    """Random graph in which every vertex feeds some other vertex."""
    mask = rng.random((n, n)) < 0.4
    for i in range(n):
        cross = [j for j in range(n) if j != i and mask[j, i]]
        if not cross:
            j = int(rng.integers(n - 1))
            j = j if j < i else j + 1
            mask[j, i] = 1
    return graphs.from_adjacency(mask)


def _cross_only_graph(rng, n):
    """Edges run from feeder vertices into the rest, nothing else: no
    self-loops, no feeder-to-feeder coupling, no isolated vertex."""
    n_src = int(rng.integers(1, n))
    order = rng.permutation(n)
    feeders = list(order[:n_src])
    receivers = list(order[n_src:])
    mask = np.zeros((n, n), dtype=bool)
    for s in feeders:
        targets = [t for t in receivers if rng.random() < 0.6]
        if not targets:
            targets = [receivers[int(rng.integers(len(receivers)))]]
        for t in targets:
            mask[t, s] = 1
    for t in receivers:
        if not mask[t, :].any():
            mask[t, feeders[int(rng.integers(len(feeders)))]] = 1
    return graphs.from_adjacency(mask)


_GRAPH_BUILDERS = {
    "any": (_random_graph, 1),
    "sink": (_sink_graph, 1),
    "no_sink": (_no_sink_graph, 2),
    "cross_only": (_cross_only_graph, 2),
}


def _sampled_plants(seed, count, eps_b=1.0, mode="any", n_lo=None):
    """Deterministic (plant, graph) pairs, per-plant graphs, n in n_lo..5."""
    build, mode_lo = _GRAPH_BUILDERS[mode]
    n_lo = mode_lo if n_lo is None else max(n_lo, mode_lo)
    rng = np.random.default_rng(seed)
    drawn = [build(rng, int(rng.integers(n_lo, 6))) for _ in range(count)]
    plants = plant.sample_plants((g, eps_b, seed * 100003 + 17 * k + 1)
                                 for k, g in enumerate(drawn))
    return list(zip(plants, drawn))


def _deadbeat_designs(seed, count):
    """(plant, deadbeat controller) pairs of criteria 01 and 02, the
    controllers built together, one stack per plant size."""
    plants = [p for p, _ in _sampled_plants(seed, count)]
    return list(zip(plants, synthesis.deadbeats(plants)))


def _optimal_costs(seed, count):
    """(plant, optimal-design cost) pairs of criteria 04a and 04b, the
    Riccati equations solved together, one stack per plant size."""
    plants = [p for p, _ in _sampled_plants(seed, count)]
    return list(zip(plants, synthesis.centralized_costs(plants)))


# ------------------------------------------------------------------- checks

def check_deadbeat_two_step(designs):
    name = "criterion_01_deadbeat_two_step"
    if not designs:
        return _skipped(name)
    worst = 0.0
    for (p, _), (states, mix) in zip(
            designs, evaluation.simulate_trajectories(designs, steps=20)):
        scale = 1.0 + float(np.linalg.norm(p.x0)) + float(np.linalg.norm(p.w0))
        late_x = np.abs(states[2:, :p.n]).max() if p.n else 0.0
        late_mix = np.abs(mix[2:]).max()
        worst = max(worst, max(late_x, late_mix) / scale)
    return CheckResult(name=name, passed=worst <= 1e-9, measured=worst,
                       tolerance=1e-9,
                       detail=f"max scaled |x(k)| and |u+w|(k) for k >= 2 over "
                              f"{len(designs)} plants")


def check_deadbeat_cost_match(designs):
    name = "criterion_02_deadbeat_cost_closed_form"
    if not designs:
        return _skipped(name)
    worst = 0.0
    reports = evaluation.simulate_costs(designs)
    closed_forms = evaluation.deadbeat_cost_closed_forms(p for p, _ in designs)
    for report, closed in zip(reports, closed_forms):
        worst = max(worst, abs(report.total - closed) / (1.0 + closed))
    return CheckResult(name=name, passed=worst <= 1e-9, measured=worst,
                       tolerance=1e-9,
                       detail=f"max |simulated - closed| / (1 + closed) over "
                              f"{len(designs)} plants")


def check_dare_explicit_oracle():
    name = "criterion_03_dare_explicit_oracle"
    worst_x = 0.0
    worst_k = 0.0
    for r in (0.5, 1.0, 2.0):
        p = plant.worst_case_family(1, 2, r, 1.0, 2)
        sol = riccati.solve_singular_dare(p)
        explicit = riccati.worst_case_family_solution(1, 2, r, 1.0, 2)
        worst_x = max(worst_x, float(np.max(np.abs(sol.X - explicit))))
        k_iter = synthesis.centralized_optimal(p, sol=sol)
        k_closed = synthesis.nilpotent_centralized(p)
        for a, b in ((k_iter.a_diag, k_closed.a_diag), (k_iter.B_K, k_closed.B_K),
                     (k_iter.c_diag, k_closed.c_diag), (k_iter.D_K, k_closed.D_K)):
            worst_k = max(worst_k, float(np.max(np.abs(a - b))))
    worst = max(worst_x, worst_k)
    return CheckResult(name=name, passed=worst <= 1e-8, measured=worst,
                       tolerance=1e-8,
                       detail=f"solver X vs closed form {worst_x:.3e}, "
                              f"controller vs closed form {worst_k:.3e}")


def check_lower_bound_order(costs):
    name = "criterion_04a_lower_bound_order"
    if not costs:
        return _skipped(name)
    worst = -np.inf
    bounds = evaluation.centralized_lower_bounds(p for p, _ in costs)
    for (_, optimal), bound in zip(costs, bounds):
        worst = max(worst, bound - optimal)
    return CheckResult(name=name, passed=worst <= 1e-8, measured=worst,
                       tolerance=1e-8,
                       detail=f"max lower-bound excess over the optimal-design "
                              f"cost across {len(costs)} plants")


def check_optimal_vs_deadbeat(costs):
    name = "criterion_04b_optimal_vs_deadbeat_order"
    if not costs:
        return _skipped(name)
    worst = -np.inf
    violations = 0
    plants = [p for p, _ in costs]
    reports = evaluation.simulate_costs(zip(plants, synthesis.deadbeats(plants)))
    for (_, optimal), report in zip(costs, reports):
        gap = optimal - report.total
        worst = max(worst, gap)
        if gap > 1e-8:
            violations += 1
    return CheckResult(name=name, passed=worst <= 1e-8, measured=worst,
                       tolerance=1e-8,
                       detail=f"max J(optimal design) - J(deadbeat) over "
                              f"{len(costs)} plants; {violations} plants exceed the "
                              f"slack. The optimal design's first input is "
                              f"pinned by its zero controller state before any "
                              f"disturbance information arrives, so with "
                              f"nonzero x0 another design can open better; "
                              f"with x0 = 0 the ordering holds on the same "
                              f"ensembles")


def check_ratio_bound_ensemble(seed, count):
    name = "criterion_05_ensemble_ratio_bound"
    if count == 0:
        return _skipped(name)
    worst_excess = -np.inf
    sups = {}
    for eps_b, bound in ((1.0, RATIO_BOUND_1), (0.5, RATIO_BOUND_HALF)):
        pairs = _sampled_plants(seed + int(eps_b * 10), count, eps_b=eps_b)
        sup = max([0.0] + [r for _, _, r in ratio.plant_ratios(pairs, "deadbeat")])
        sups[eps_b] = sup
        worst_excess = max(worst_excess, sup - bound)
    return CheckResult(name=name, passed=worst_excess <= 1e-6,
                       measured=worst_excess, tolerance=1e-6,
                       detail=f"sampled sup at eps_b=1: {sups[1.0]:.7f} "
                              f"(bound {RATIO_BOUND_1}), at eps_b=0.5: "
                              f"{sups[0.5]:.7f} (bound {RATIO_BOUND_HALF})")


def check_sweep_attainment():
    name = "criterion_06a_sweep_attainment"
    report = ratio.ratio_sweep(1, 2, 1.0, [1e3, 1e5], 2)
    r3, r5 = (e.ratio for e in report.per_plant)
    gap3 = abs(r3 - RATIO_BOUND_1) / RATIO_BOUND_1
    gap5 = abs(r5 - RATIO_BOUND_1) / RATIO_BOUND_1
    passed = gap3 <= 1e-2 and gap5 <= 1e-4
    return CheckResult(name=name, passed=passed, measured=gap5,
                       tolerance=1e-4,
                       detail=f"ratio {r3:.7f} at r=1e3 (rel gap {gap3:.2e}, "
                              f"tol 1e-2), {r5:.10f} at r=1e5 (rel gap "
                              f"{gap5:.2e}, tol 1e-4)")


def check_family_cost_formula():
    name = "criterion_06b_family_cost_formula"
    formula = ratio.worst_case_optimal_cost(1.0, 10.0)
    p = plant.worst_case_family(1, 2, 10.0, 1.0, 2)
    sol = riccati.solve_singular_dare(p)
    simulated = evaluation.simulate_cost(p, synthesis.centralized_optimal(p, sol=sol)).total
    exact = evaluation.centralized_cost_closed_form(p, sol)
    rel = abs(simulated - formula) / formula
    return CheckResult(
        name=name, passed=rel <= 1e-6, measured=rel, tolerance=1e-6,
        detail=f"reference formula {formula:.10f} vs simulated optimal cost "
               f"{simulated:.10f} (exact quadratic form {exact:.10f}, lower "
               f"bound form {evaluation.centralized_lower_bound(p):.10f}); "
               f"the three computed routes agree with each other, not with "
               f"the formula's 1/r^2 term")


def check_sink_domination(seed, count):
    name = "criterion_07a_sink_domination"
    if count == 0:
        return _skipped(name)
    worst_gap = -np.inf
    violations = 0
    pairs = _sampled_plants(seed, count, mode="sink")
    reports = evaluation.simulate_costs(
        zip((p for p, _ in pairs), synthesis.sink_awares(pairs)))
    deadbeat_costs = evaluation.deadbeat_cost_closed_forms(p for p, _ in pairs)
    for report, deadbeat_cost in zip(reports, deadbeat_costs):
        gap = report.total - deadbeat_cost
        worst_gap = max(worst_gap, gap)
        if gap > 1e-9:
            violations += 1
    return CheckResult(name=name, passed=worst_gap <= 1e-9, measured=worst_gap,
                       tolerance=1e-9,
                       detail=f"max J(sink-aware) - J(deadbeat) over {count} "
                              f"sink plants; {violations} plants exceed the "
                              f"slack. The per-sink gain is tuned for the "
                              f"steady disturbance; with nonzero x0 the "
                              f"transient inflow from coupled states can favor "
                              f"the deadbeat rows, while with x0 = 0 the "
                              f"sink-aware design never loses on the same "
                              f"ensembles")


def check_cross_coupling_match(seed, count):
    name = "criterion_07b_cross_coupling_match"
    if count == 0:
        return _skipped(name)
    worst_match = 0.0
    worst_ratio = 0.0
    pairs = _sampled_plants(seed, count, mode="cross_only")
    for (p, _), kt, (_, _, theta_ratio) in zip(
            pairs, synthesis.sink_awares(pairs), ratio.plant_ratios(pairs, "theta")):
        kc = synthesis.nilpotent_centralized(p)
        for a, b in ((kt.a_diag, kc.a_diag), (kt.B_K, kc.B_K),
                     (kt.c_diag, kc.c_diag), (kt.D_K, kc.D_K)):
            worst_match = max(worst_match, float(np.max(np.abs(a - b))))
        worst_ratio = max(worst_ratio, abs(theta_ratio - 1.0))
    passed = worst_match <= 1e-8 and worst_ratio <= 1e-6
    return CheckResult(name=name, passed=passed, measured=worst_match,
                       tolerance=1e-8,
                       detail=f"max entry gap to the nilpotent optimal design "
                              f"{worst_match:.3e} (tol 1e-8) and ratio offset "
                              f"from 1 {worst_ratio:.3e} (tol 1e-6) over "
                              f"{count} cross-coupling plants")


def check_no_sink_identity(seed, count):
    name = "criterion_07c_no_sink_identity"
    if count == 0:
        return _skipped(name)
    differing = 0
    pairs = _sampled_plants(seed, count, mode="no_sink")
    for kt, kd in zip(synthesis.sink_awares(pairs),
                      synthesis.deadbeats(p for p, _ in pairs)):
        if not all(np.array_equal(a, b) for a, b in
                   ((kt.a_diag, kd.a_diag), (kt.B_K, kd.B_K),
                    (kt.c_diag, kd.c_diag), (kt.D_K, kd.D_K))):
            differing += 1
    return CheckResult(name=name, passed=differing == 0, measured=differing,
                       tolerance=0,
                       detail=f"{differing} of {count} no-sink plants differ "
                              f"bitwise between the sink-aware and deadbeat "
                              f"designs")


def check_limited_information(seed, trials):
    name = "criterion_08_limited_information_rows"
    if trials == 0:
        return _skipped(name)
    rng = np.random.default_rng(seed)
    eps_b = 1.0
    failures = 0
    total = 0
    for strategy in ("deadbeat", "theta"):
        mode = "sink" if strategy == "theta" else "any"
        pairs = _sampled_plants(seed + (1 if strategy == "theta" else 0),
                                trials, eps_b=eps_b, mode=mode, n_lo=2)
        for p, g in pairs:
            row = int(rng.integers(1, p.n + 1))
            new_row = rng.uniform(-2.0, 2.0, size=p.n) * g.adj[row - 1]
            pert = synthesis.RowPerturbation(
                a_row=tuple(new_row),
                b=float((1.0 + rng.uniform(0.0, 2.0)) * (1 if rng.random() < 0.5 else -1)),
                d=float(rng.uniform(-1.0, 1.0)))
            total += 1
            if not synthesis.limited_info_check(strategy, p, g, row, pert, eps_b):
                failures += 1
    return CheckResult(name=name, passed=failures == 0, measured=failures,
                       tolerance=0,
                       detail=f"{failures} of {total} row-perturbation trials "
                              f"changed some other subcontroller")


def check_sparsity_boundedness(seed, count):
    name = "criterion_09_sparsity_and_cancellation"
    if count == 0:
        return _skipped(name)
    off_mask = 0
    worst_cancel = 0.0
    pairs = _sampled_plants(seed, count)
    for (p, g), kd, kt in zip(pairs, synthesis.deadbeats(p for p, _ in pairs),
                              synthesis.sink_awares(pairs)):
        allowed = (g.adj | np.eye(p.n, dtype=np.int8)).astype(bool)
        for k, rows in ((kd, None),
                        (kt, sorted(set(range(1, p.n + 1)) - graphs.sinks(g)))):
            off_mask += int(synthesis.sparsity_pattern(k)[~allowed].sum())
            if rows is not None and not rows:
                continue
            worst_cancel = max(worst_cancel,
                               synthesis.coupling_cancellation_defect(p, k, rows))
    passed = off_mask == 0 and worst_cancel == 0.0
    return CheckResult(name=name, passed=passed, measured=worst_cancel,
                       tolerance=0.0,
                       detail=f"{off_mask} off-mask transfer entries, max "
                              f"cancellation residue {worst_cancel:g} over "
                              f"{count} plants (exact zero required)")


def _oracle_paths(g_p):
    """Every path i -> j -> l of g_p through distinct vertices, in
    lexicographic order, by a scan of all vertex triples."""
    edges = set(g_p.edges())
    return [t for t in itertools.permutations(range(1, g_p.n + 1), 3)
            if (t[0], t[1]) in edges and (t[1], t[2]) in edges]


def _oracle_on_paths(paths, edges_c):
    hits = [t for t in paths if (t[2], t[1]) not in edges_c]
    return (True, min(hits)) if hits else (False, None)


def _design_condition_oracle(g_p, g_c):
    return _oracle_on_paths(_oracle_paths(g_p), set(g_c.edges()))


def check_design_condition_exhaustive():
    name = "criterion_10_design_condition_exhaustive"
    positions = [(i, j) for i in range(3) for j in range(3) if i != j]
    masks = []
    for bits in range(64):
        m = np.eye(3, dtype=np.int8)
        for b, (i, j) in enumerate(positions):
            if bits >> b & 1:
                m[i, j] = 1
        masks.append(graphs.from_adjacency(m))
    paths = [_oracle_paths(g) for g in masks]
    edge_sets = [set(g.edges()) for g in masks]
    pairs = [(g_p, g_c) for g_p in masks for g_c in masks]
    wants = (_oracle_on_paths(paths_p, edges_c)
             for paths_p in paths for edges_c in edge_sets)
    cases = len(pairs)
    disagreements = sum(got != want for got, want
                        in zip(graphs.design_conditions(pairs), wants))
    return CheckResult(name=name, passed=disagreements == 0,
                       measured=disagreements, tolerance=0,
                       detail=f"{cases} graph pairs compared against the "
                              f"permutation-scan oracle, witnesses included")


def run_acceptance(seed=0, scale=1.0):
    """Run every acceptance check; scale multiplies the ensemble sizes.

    At scale 0 the ensemble checks are skipped (reported as such); the
    fixed-input checks still run. Each shared ensemble is drawn once, handed
    to its two checks and dropped before the next is drawn.
    """
    c_big = round(200 * scale)
    c_mid = round(100 * scale)
    c_small = round(50 * scale)
    designs = _deadbeat_designs(seed + 1000, c_big)
    results = [check_deadbeat_two_step(designs), check_deadbeat_cost_match(designs)]
    del designs
    results.append(check_dare_explicit_oracle())
    costs = _optimal_costs(seed + 2000, c_big)
    results += [check_lower_bound_order(costs), check_optimal_vs_deadbeat(costs)]
    del costs
    return results + [
        check_ratio_bound_ensemble(seed + 3000, c_big),
        check_sweep_attainment(),
        check_family_cost_formula(),
        check_sink_domination(seed + 4000, c_big),
        check_cross_coupling_match(seed + 4001, max(0, c_mid // 2)),
        check_no_sink_identity(seed + 4002, max(0, c_mid // 2)),
        check_limited_information(seed + 5000, c_small),
        check_sparsity_boundedness(seed + 6000, c_mid),
        check_design_condition_exhaustive(),
    ]
