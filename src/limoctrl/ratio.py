"""Competitive-ratio machinery.

Every ratio here divides a strategy's cost by the cost of the centralized
design, the optimal disturbance-accommodating controller built with the
full model. That cost does not bound every structured design's cost from
below: with x0 != 0 a structured design can cost less, so its ratio can
fall below 1. On the single-coupling worst-case family the sweep's
ratios climb toward the analytic bound from below. The 0/0 case is
defined as 1.
"""
from dataclasses import dataclass
import csv
import io
import math

import numpy as np

from .errors import (
    IndeterminateRatioError,
    InvalidSpecError,
    NonPositiveEpsilonError,
    ZeroParameterError,
)
from .graphs import isolated_nodes, sink_partition
from .plant import positive_finite, sample_ensemble, worst_case_family
# bound but unused here: perfbench's tracer tests read these two names
from .riccati import augment, solve_singular_dare  # noqa: F401
from .synthesis import centralized_costs, strategy_entry

_SLACK = 1e-9


def ratio_bound(eps_b):
    """Analytic worst-case ratio of the deadbeat strategy at gain floor eps_b."""
    if not positive_finite(eps_b):
        raise NonPositiveEpsilonError(
            f"eps_b must be positive and finite, got {eps_b}")
    e2 = eps_b * eps_b
    return (2.0 * e2 + 1.0 + math.sqrt(4.0 * e2 + 1.0)) / (2.0 * e2)


def _safe_ratio(numerator, denominator):
    if denominator == 0.0:
        if numerator == 0.0:
            return 1.0
        raise IndeterminateRatioError(
            f"strategy cost {numerator} over zero optimal cost; a valid plant "
            f"with nonzero initial data cannot produce this")
    return numerator / denominator


def strategy_cost(p, strategy, g_p=None):
    """Cost of one strategy on one plant, by its table entry's cost route."""
    return next(strategy_entry(strategy).cost([(p, g_p)]))


@dataclass(frozen=True)
class PlantRatio:
    plant_id: str
    J_strategy: float
    J_centralized: float
    ratio: float
    r_param: float | None = None

    def as_dict(self):
        return {"plant_id": self.plant_id, "r_param": self.r_param,
                "J_strategy": self.J_strategy,
                "J_centralized": self.J_centralized, "ratio": self.ratio}


def plant_ratios(pairs, strategy):
    """(J(strategy), J(centralized design), ratio) of each (plant, graph)
    pair, in order, 0/0 read as 1.

    This is the one route to a ratio's denominator
    (synthesis.centralized_costs). The numerators come from the strategy's
    cost route, which is passed the pairs; both streams evaluate plants of
    one size as stacks and raise a plant's error at its turn, each
    numerator right after its own denominator.
    """
    pairs = list(pairs)
    denominators = centralized_costs(p for p, _ in pairs)
    if strategy == "centralized":
        costs = ((denominator, denominator) for denominator in denominators)
    else:
        costs = zip(denominators, strategy_entry(strategy).cost(pairs))
    return [(numerator, denominator, _safe_ratio(numerator, denominator))
            for denominator, numerator in costs]


def per_plant_ratio(p, strategy, g_p=None):
    """J(strategy) / J(centralized design) for one plant, 0/0 read as 1."""
    return plant_ratios([(p, g_p)], strategy)[0][2]


@dataclass(frozen=True)
class RatioReport:
    per_plant: tuple
    sup_estimate: float
    analytic_bound: float
    family_params: dict | None = None
    denominator_note = (
        "denominator is the cost of the centralized design, the optimal "
        "controller with full model information; with x0 != 0 a structured "
        "design can cost less, so a ratio can fall below 1")

    def as_dict(self):
        return {"per_plant": [e.as_dict() for e in self.per_plant],
                "sup_estimate": self.sup_estimate,
                "analytic_bound": self.analytic_bound,
                "family_params": self.family_params,
                "denominator_note": self.denominator_note}


def _sup(entries):
    finite = [e.ratio for e in entries if math.isfinite(e.ratio)]
    return max(finite) if finite else float("nan")


def ratio_sweep(i, j, eps_b, r_grid, n=2):
    """Deadbeat-vs-optimal ratio along the single-coupling family.

    One entry per grid value of the coupling weight r; the ratio climbs
    toward the analytic bound as |r| grows. On these plants the coupling
    matrix squares to zero, and the centralized design has the closed form
    of nilpotent_centralized.
    """
    grid = list(r_grid)
    if not grid:
        raise InvalidSpecError("r grid must be nonempty")
    # point by point, each a lone solve: perfbench's tracer counts solves
    # at solve_singular_dare, and a stacked grid would hide them from it
    entries = []
    for r in grid:
        (costs,) = plant_ratios([(worst_case_family(i, j, r, eps_b, n), None)],
                                "deadbeat")
        entries.append(PlantRatio(f"family_r_{r:g}", *costs, r_param=float(r)))
    return RatioReport(per_plant=tuple(entries), sup_estimate=_sup(entries),
                       analytic_bound=ratio_bound(eps_b),
                       family_params={"i": i, "j": j, "eps_b": eps_b,
                                      "r_grid": [float(r) for r in grid]})


def ensemble_ratio_report(spec, strategy):
    """Per-plant ratios over a sampled ensemble, with the sampled supremum."""
    pairs = [(p, spec.plant_graph) for p in sample_ensemble(spec)]
    entries = [PlantRatio(f"sample_{idx}", *costs)
               for idx, costs in enumerate(plant_ratios(pairs, strategy))]
    return RatioReport(per_plant=tuple(entries), sup_estimate=_sup(entries),
                       analytic_bound=ratio_bound(spec.eps_b))


def worst_case_optimal_cost(eps_b, r):
    """Closed-form reference for the optimal cost on the single-coupling
    family at initial data scaled by 1/r.

    Caution: the 1/r^2 term of this reference does not agree with the
    exactly computed optimal cost (centralized_cost_closed_form or a
    converged simulation) on the same plant; the constant term does. The
    formula is kept as is and the acceptance suite reports the mismatch
    rather than hiding it.
    """
    if not positive_finite(eps_b):
        raise NonPositiveEpsilonError(
            f"eps_b must be positive and finite, got {eps_b}")
    if r == 0:
        raise ZeroParameterError("family parameter r must be nonzero")
    if not math.isfinite(r):
        raise InvalidSpecError(f"family parameter r must be finite, got {r}")
    e2 = eps_b * eps_b
    s = math.sqrt(4.0 * e2 + 1.0)
    main = (e2 * s + 5.0 * e2 + 4.0 * e2 * e2 + s + 1.0) / (2.0 * e2)
    tail = (2.0 * e2 + s + 1.0) * s / (2.0 * e2 * r * r)
    return main + tail


@dataclass(frozen=True)
class DominationReport:
    strategy_a: str
    strategy_b: str
    pairs: tuple
    a_never_worse: bool
    a_strictly_better_somewhere: bool

    @property
    def dominates_on_sample(self):
        return self.a_never_worse and self.a_strictly_better_somewhere

    def as_dict(self):
        return {"strategy_a": self.strategy_a, "strategy_b": self.strategy_b,
                "pairs": [list(t) for t in self.pairs],
                "a_never_worse": self.a_never_worse,
                "a_strictly_better_somewhere": self.a_strictly_better_somewhere,
                "dominates_on_sample": self.dominates_on_sample}


def domination_check(strategy_a, strategy_b, spec):
    """Compare two strategies plant by plant over a sampled ensemble.

    Each side's costs are its STRATEGIES cost column on spec.plant_graph, a
    closed form or an exact doubling sum, so no truncated sum fakes a strict
    improvement; costs within 1e-9 of each other tie. Evidence on a finite
    sample only, never a proof over the whole structured set.
    """
    cost_a, cost_b = strategy_entry(strategy_a).cost, strategy_entry(strategy_b).cost
    pairs = [(p, spec.plant_graph) for p in sample_ensemble(spec)]
    costs = list(zip(cost_a(pairs), cost_b(pairs)))
    return DominationReport(
        strategy_a=strategy_a, strategy_b=strategy_b, pairs=tuple(costs),
        a_never_worse=not any(a > b + _SLACK for a, b in costs),
        a_strictly_better_somewhere=any(a < b - _SLACK for a, b in costs))


def sink_aware_ratio_case(g_p, eps_b):
    """Classify what is known about the sink-aware strategy's ratio on a
    given plant graph.

    Returns (label, value): ("bound_case", analytic bound) when non-sinks
    couple to each other; ("exact_one_case", 1.0) when the only edges run
    from non-sinks into sinks and nobody has a self-loop; ("open_case",
    None) otherwise. The graph must have no isolated vertex.
    """
    isolated = isolated_nodes(g_p)
    if isolated:
        raise InvalidSpecError(f"graph has isolated vertices {sorted(isolated)}")
    part = sink_partition(g_p)
    k = g_p.n - part.c
    off_diag = part.nonsink_block[~np.eye(k, dtype=bool)] if k else np.array([])
    if off_diag.size and off_diag.any():
        return "bound_case", ratio_bound(eps_b)
    if not part.nonsink_block.any() and not part.sink_block.any():
        return "exact_one_case", 1.0
    return "open_case", None


_CSV_COLUMNS = ("plant_id", "r_param", "J_strategy", "J_centralized", "ratio", "bound")


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def ratio_report_to_csv(report):
    """Render a report as CSV, one row per plant plus a closing row that
    repeats the analytic bound. Floats use shortest round-trip decimals."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for e in report.per_plant:
        writer.writerow([_csv_cell(v) for v in
                         (e.plant_id, e.r_param, e.J_strategy, e.J_centralized,
                          e.ratio, report.analytic_bound)])
    writer.writerow([_csv_cell(v) for v in
                     ("analytic_bound", None, None, None, None,
                      report.analytic_bound)])
    return buf.getvalue()
