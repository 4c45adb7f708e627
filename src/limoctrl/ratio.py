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
from .evaluation import (
    centralized_cost_closed_form,
    deadbeat_cost_closed_form,
    simulate_cost,
)
from .graphs import isolated_nodes, sink_partition
from .plant import sample_ensemble, worst_case_family
from .riccati import augment, solve_singular_dare
from .synthesis import strategy_builder

DENOMINATOR_NOTE = (
    "denominator is the cost of the centralized design, the optimal "
    "controller with full model information; with x0 != 0 a structured "
    "design can cost less, so a ratio can fall below 1"
)


def ratio_bound(eps_b):
    """Analytic worst-case ratio of the deadbeat strategy at gain floor eps_b."""
    if eps_b <= 0:
        raise NonPositiveEpsilonError(f"eps_b must be positive, got {eps_b}")
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


def _centralized_cost(p):
    return centralized_cost_closed_form(p, solve_singular_dare(augment(p)))


# strategies whose cost has an exact closed form; as in synthesis.STRATEGIES,
# entries look their function up by module-level name at call time
_CLOSED_FORMS = {
    "centralized": _centralized_cost,
    "deadbeat": lambda p: deadbeat_cost_closed_form(p),
}


def strategy_cost(p, strategy, g_p=None):
    """Cost of one strategy on one plant, by the tightest available route.

    deadbeat and centralized use their exact closed forms; every other
    strategy is built from its table entry and simulated.
    """
    closed = _CLOSED_FORMS.get(strategy)
    if closed is not None:
        return closed(p)
    return simulate_cost(p, strategy_builder(strategy)(p, g_p)).total


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


def _plant_ratio(p, strategy, g_p, plant_id=None, r_param=None):
    """One PlantRatio, the centralized cost solved once for the plant."""
    denominator = _centralized_cost(p)
    numerator = denominator if strategy == "centralized" \
        else strategy_cost(p, strategy, g_p)
    return PlantRatio(plant_id=plant_id, J_strategy=numerator,
                      J_centralized=denominator,
                      ratio=_safe_ratio(numerator, denominator), r_param=r_param)


def per_plant_ratio(p, strategy, g_p=None):
    """J(strategy) / J(centralized design) for one plant, 0/0 read as 1."""
    return _plant_ratio(p, strategy, g_p).ratio


@dataclass(frozen=True)
class RatioReport:
    per_plant: tuple
    sup_estimate: float
    analytic_bound: float
    family_params: dict | None = None
    denominator_note: str = DENOMINATOR_NOTE

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
    entries = [_plant_ratio(worst_case_family(i, j, r, eps_b, n), "deadbeat",
                            None, f"family_r_{r:g}", float(r)) for r in grid]
    return RatioReport(per_plant=tuple(entries), sup_estimate=_sup(entries),
                       analytic_bound=ratio_bound(eps_b),
                       family_params={"i": i, "j": j, "eps_b": eps_b,
                                      "r_grid": [float(r) for r in grid]})


def ensemble_ratio_report(spec, strategy, g_p=None):
    """Per-plant ratios over a sampled ensemble, with the sampled supremum."""
    g_p = g_p if g_p is not None else spec.plant_graph
    entries = [_plant_ratio(p, strategy, g_p, f"sample_{idx}")
               for idx, p in enumerate(sample_ensemble(spec))]
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
    if eps_b <= 0:
        raise NonPositiveEpsilonError(f"eps_b must be positive, got {eps_b}")
    if r == 0:
        raise ZeroParameterError("family parameter r must be nonzero")
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


def domination_check(strategy_a, strategy_b, spec, g_p=None, slack=1e-9):
    """Compare two strategies plant by plant over a sampled ensemble.

    Both sides are simulated with identical settings so that identical
    controllers give identical totals and truncation cannot fake a strict
    improvement. Evidence on a finite sample only, never a proof over the
    whole structured set.
    """
    g_p = g_p if g_p is not None else spec.plant_graph
    build_a = strategy_builder(strategy_a)
    build_b = strategy_builder(strategy_b)
    pairs = []
    never_worse = True
    strictly_better = False
    for p in sample_ensemble(spec):
        cost_a = simulate_cost(p, build_a(p, g_p)).total
        cost_b = simulate_cost(p, build_b(p, g_p)).total
        pairs.append((cost_a, cost_b))
        if cost_a > cost_b + slack:
            never_worse = False
        if cost_a < cost_b - slack:
            strictly_better = True
    return DominationReport(strategy_a=strategy_a, strategy_b=strategy_b,
                            pairs=tuple(pairs), a_never_worse=never_worse,
                            a_strictly_better_somewhere=strictly_better)


def scalar_quadratic_bound(a, b):
    """Minimum over x of x^2 + (a + b x)^2, namely a^2 / (1 + b^2)."""
    return a * a / (1.0 + b * b)


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
