"""The committed BENCH_*.json files carry the rows their recorder writes.

Names only: the values are measurements of one host and are not checked.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
VERIFY_SIZES = range(1, 6)
# the ensemble draw and the two structured designs
CONSTRUCTIONS = ("sample", "deadbeat", "sink_aware")
ROWS = {
    "BENCH_riccati.json": (
        {f"lone_family_n{n}" for n in (2, 30, 60, 200)}
        | {f"lone_sink_n{n}" for n in (20, 50, 100)}
        | {f"lone_verify_n{n}" for n in VERIFY_SIZES}
        | {f"stacked_verify_n{n}" for n in VERIFY_SIZES}),
    "BENCH_costs.json": (
        {f"lone_simulate_{design}_n{n}" for design in ("deadbeat", "theta")
         for n in (5, 20, 50, 200)}
        | {f"lone_exact_cost_{design}_n{n}" for design in ("deadbeat", "theta")
           for n in (5, 20, 50, 200)}
        | {f"lone_simulate_verify_n{n}" for n in VERIFY_SIZES}
        | {f"stacked_exact_cost_verify_n{n}" for n in VERIFY_SIZES}
        | {"lone_deadbeat_cost_family_n60", "lone_deadbeat_cost_sink_n200"}
        | {f"stacked_deadbeat_cost_verify_n{n}" for n in VERIFY_SIZES}
        | {"lone_design_condition_c10", "stacked_design_condition_c10",
           "lone_design_condition_n200"}
        | {f"lone_{kind}_n{n}" for kind in CONSTRUCTIONS for n in (5, 20, 50, 200)}
        | {f"{form}_{kind}_verify_n{n}" for form in ("lone", "stacked")
           for kind in CONSTRUCTIONS for n in VERIFY_SIZES}),
}


def _load(name):
    data = json.loads((ROOT / name).read_text())
    assert {"env", "rounds", "repeats", "baseline", "rows"} <= set(data)
    assert {"python", "numpy", "blas", "cpu", "nproc"} <= set(data["env"])
    assert set(data["rows"]) == ROWS[name]
    for row_name, row in data["rows"].items():
        assert {"unit", "tree", "baseline"} <= set(row), row_name
        if row_name.startswith("lone_"):
            assert "tree_over_baseline" in row, row_name
    return data["rows"]


def test_riccati_bench_names_its_rows():
    for name, row in _load("BENCH_riccati.json").items():
        if name.startswith("lone_"):
            assert "iterations" in row, name


@pytest.mark.parametrize("prefix, info", [("lone_simulate_", "steps"),
                                          ("lone_exact_cost_", "squarings"),
                                          ("stacked_exact_cost_", "plants"),
                                          ("stacked_design_", "pairs")]
                         + [(f"{form}_{kind}_", "plants")
                            for form in ("lone", "stacked")
                            for kind in CONSTRUCTIONS])
def test_cost_bench_names_its_rows(prefix, info):
    rows = _load("BENCH_costs.json")
    named = [name for name in rows if name.startswith(prefix)]
    assert named and all(info in rows[name] for name in named)
