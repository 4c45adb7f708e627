"""The committed BENCH_*.json files carry the rows their recorder writes.

Names only: the values are measurements of one host and are not checked.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_riccati_bench_names_its_rows():
    data = json.loads((ROOT / "BENCH_riccati.json").read_text())
    assert {"env", "rounds", "repeats", "baseline", "rows"} <= set(data)
    assert {"python", "numpy", "blas", "cpu", "nproc"} <= set(data["env"])
    expected = ({f"lone_family_n{n}" for n in (2, 30, 60, 200)}
                | {f"lone_verify_n{n}" for n in range(1, 6)}
                | {f"stacked_verify_n{n}" for n in range(1, 6)})
    assert set(data["rows"]) == expected
    for name, row in data["rows"].items():
        assert {"unit", "tree", "baseline"} <= set(row), name
        if name.startswith("lone_"):
            assert "iterations" in row and "tree_over_baseline" in row, name
