"""Outside-in tracing of limoctrl's layer boundaries.

The traced run wraps a fixed list of public functions, the boundaries
between the package's modules, at every name that binds them. Modules
import each other by name (``from .riccati import augment`` in ``synthesis``
and ``ratio``, ``from .plant import validate`` in ``cli``), so patching the
defining module alone would miss those calls. Nothing in the package
changes; ``Tracer.uninstall`` puts the original functions back.

Only boundaries are wrapped: wrapping every public function (``has_edge``
runs millions of times in the path-condition scan) inflated a verify pass
by about half. Spans stay in memory until the caller writes them out.
"""
import functools
import json
import sys
import time

# module -> functions wrapped as spans named "<module>.<function>"; verify's
# check_* functions are wrapped too, each span named after the check it ran.
BOUNDARIES = {
    "cli": ("main",),
    "verify": ("run_acceptance",),
    "ratio": ("ratio_sweep", "per_plant_ratio", "strategy_cost",
              "ensemble_ratio_report", "domination_check",
              "ratio_report_to_csv"),
    "synthesis": ("centralized_optimal", "nilpotent_centralized", "deadbeat",
                  "sink_aware", "sparsity_pattern", "transfer_eval",
                  "limited_info_check", "coupling_cancellation_defect",
                  "controller_to_dict"),
    "evaluation": ("simulate_cost", "simulate_trajectory",
                   "deadbeat_cost_closed_form", "centralized_cost_closed_form",
                   "centralized_lower_bound"),
    "riccati": ("augment", "solve_singular_dare"),
    "plant": ("sample_ensemble", "validate", "plant_from_dict",
              "worst_case_family"),
    "graphs": ("design_condition_applies", "sinks", "graph_from_dict",
               "from_adjacency"),
}
MODULES = tuple(BOUNDARIES)
VERIFY_CHECKS = (
    "criterion_01_deadbeat_two_step", "criterion_02_deadbeat_cost_closed_form",
    "criterion_03_dare_explicit_oracle", "criterion_04a_lower_bound_order",
    "criterion_04b_optimal_vs_deadbeat_order",
    "criterion_05_ensemble_ratio_bound", "criterion_06a_sweep_attainment",
    "criterion_06b_family_cost_formula", "criterion_07a_sink_domination",
    "criterion_07b_cross_coupling_match", "criterion_07c_no_sink_identity",
    "criterion_08_limited_information_rows",
    "criterion_09_sparsity_and_cancellation",
    "criterion_10_design_condition_exhaustive",
)
_CLOSED_FORMS = ("evaluation.deadbeat_cost_closed_form",
                 "evaluation.centralized_cost_closed_form",
                 "evaluation.centralized_lower_bound")

# span fields; a span is a list so that appending one stays cheap
NAME, START, END, PARENT, JOB, INFO = range(6)


def _solution_info(result):
    return {"iterations": result.iterations, "residual": result.residual}


def _cost_info(result):
    return {"steps": result.steps_used, "converged": result.converged,
            "diverged": result.diverged}


def _no_convergence_info(exc):
    return {"iterations": getattr(exc, "iterations", None) or 0}


# counts read from the objects a boundary returns or raises
_ON_RESULT = {"riccati.solve_singular_dare": _solution_info,
              "evaluation.simulate_cost": _cost_info}
_ON_ERROR = {"riccati.solve_singular_dare": _no_convergence_info}


class Tracer:
    """Span recorder for one process, with at most one job open at a time."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._job = None
        self._patched = []

    def _begin(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else None,
                           self._job, None])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _end(self, idx, info):
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[INFO] = info
        while self._open and self._open.pop() != idx:
            pass

    def begin_job(self, job_id, kind):
        self._job = job_id
        return self._begin(f"job.{kind}")

    def end_job(self, idx, error=None):
        """Close the job span, and any span an interrupt left open in it."""
        now = time.perf_counter()
        for span in self.spans[idx:]:
            if span[END] is None:
                span[END] = now
                span[INFO] = {"error": error or "interrupted"}
        self.spans[idx][INFO] = {"error": error} if error else None
        self._open.clear()
        self._job = None

    def _wrap(self, name, fn):
        on_result = _ON_RESULT.get(name)
        on_error = _ON_ERROR.get(name)
        is_check = name.startswith("verify.check_")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info = on_error(exc) if on_error else {}
                info["error"] = type(exc).__name__
                self._end(idx, info)
                raise
            if is_check:
                self.spans[idx][NAME] = f"verify.{result.name}"
            self._end(idx, on_result(result) if on_result else None)
            return result
        return traced

    def install(self):
        """Wrap every boundary at every limoctrl name bound to it."""
        targets = {}
        for module, names in BOUNDARIES.items():
            mod = sys.modules[f"limoctrl.{module}"]
            for name in names:
                targets[id(getattr(mod, name))] = f"{module}.{name}"
        for name, fn in vars(sys.modules["limoctrl.verify"]).items():
            if name.startswith("check_") and callable(fn):
                targets[id(fn)] = f"verify.{name}"
        wrappers = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "limoctrl":
                continue
            for attr, value in list(vars(mod).items()):
                label = targets.get(id(value))
                if label is None:
                    continue
                if label not in wrappers:
                    wrappers[label] = self._wrap(label, value)
                self._patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[label])

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def write(self, path):
        """Write the spans as JSON lines [name, start, end, parent, job, info];
        parent is the line number (from 0) of the enclosing span."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def stopped_in(spans, lo, hi):
    """Innermost span named at each timeout among spans[lo:hi], as a list."""
    timed_out = [i for i in range(lo, hi)
                 if (spans[i][INFO] or {}).get("error") == "JobTimeout"]
    outer = {spans[i][PARENT] for i in timed_out}
    return [spans[i][NAME] for i in timed_out if i not in outer]


def per_layer(spans, lo, hi):
    """Per-layer metrics of the closed spans spans[lo:hi] (whole jobs).

    Self time is a span's duration minus its direct children's; a module's
    busy time is the summed self time of its spans.
    """
    self_time = {}
    total = {}
    calls = {}
    m = {}
    for mod in MODULES:
        m[f"{mod}.busy_s"] = 0.0
        m[f"{mod}.timeouts"] = 0
    iterations = []
    residuals = []
    steps = []
    m["riccati.dare_failed"] = 0
    m["evaluation.nonconverged"] = 0
    m["evaluation.diverged"] = 0
    for i in range(lo, hi):
        name, start, end, parent, _, info = spans[i]
        dur = end - start
        self_time[i] = self_time.get(i, 0.0) + dur
        if parent is not None:
            self_time[parent] = self_time.get(parent, 0.0) - dur
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        info = info or {}
        if name == "riccati.solve_singular_dare":
            iterations.append(info.get("iterations", 0))
            if "residual" in info:
                residuals.append(info["residual"])
            elif info.get("error") != "JobTimeout":
                m["riccati.dare_failed"] += 1
        elif name == "evaluation.simulate_cost" and "steps" in info:
            steps.append(info["steps"])
            if info["diverged"]:
                m["evaluation.diverged"] += 1
            elif not info["converged"]:
                m["evaluation.nonconverged"] += 1
    for i, t in self_time.items():
        mod = spans[i][NAME].split(".")[0]
        if mod in MODULES:
            m[f"{mod}.busy_s"] += t
    for name in stopped_in(spans, lo, hi):
        mod = name.split(".")[0]
        if mod in MODULES:
            m[f"{mod}.timeouts"] += 1
    for check in VERIFY_CHECKS:
        m[f"verify.{check}_s"] = total.get(f"verify.{check}", 0.0)
    m["riccati.augment_s"] = total.get("riccati.augment", 0.0)
    m["riccati.augment_calls"] = calls.get("riccati.augment", 0)
    m["riccati.dare_s"] = total.get("riccati.solve_singular_dare", 0.0)
    m["riccati.dare_iterations_sum"] = sum(iterations)
    m["riccati.dare_iterations_max"] = max(iterations, default=0)
    m["riccati.residual_max"] = max(residuals, default=0.0)
    m["graphs.design_condition_s"] = total.get(
        "graphs.design_condition_applies", 0.0)
    m["plant.sample_ensemble_s"] = total.get("plant.sample_ensemble", 0.0)
    m["synthesis.sparsity_pattern_s"] = total.get(
        "synthesis.sparsity_pattern", 0.0)
    m["synthesis.transfer_evals"] = calls.get("synthesis.transfer_eval", 0)
    m["evaluation.simulate_cost_s"] = total.get("evaluation.simulate_cost", 0.0)
    m["evaluation.simulate_steps_sum"] = sum(steps)
    m["evaluation.simulate_steps_max"] = max(steps, default=0)
    m["evaluation.closed_form_s"] = sum(total.get(n, 0.0) for n in _CLOSED_FORMS)
    return m
