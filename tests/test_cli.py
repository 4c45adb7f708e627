"""Command-line entry points, exercised in process via main(argv)."""

import json

import numpy as np
import pytest

import limoctrl as lc
from limoctrl.cli import _parser, main
from limoctrl.synthesis import STRATEGIES


GOOD_PLANT = lc.Plant(A=[[1.0, 0.0], [2.0, 1.0]], b_diag=[1.0, 1.5],
                      d_diag=[0.5, 0.25], x0=[1.0, 0.0], w0=[0.0, 1.0])
GOOD_GRAPH = lc.from_edge_list(2, [(1, 1), (2, 2), (1, 2)])


@pytest.fixture
def files(tmp_path):
    paths = {}
    paths["plant"] = tmp_path / "plant.json"
    paths["plant"].write_text(json.dumps(lc.plant_to_dict(GOOD_PLANT)))
    paths["graph"] = tmp_path / "graph.json"
    paths["graph"].write_text(json.dumps(lc.graph_to_dict(GOOD_GRAPH)))
    paths["loops"] = tmp_path / "loops.json"
    paths["loops"].write_text(json.dumps(lc.graph_to_dict(lc.self_loops_only(2))))
    paths["tmp"] = tmp_path
    return paths


def test_validate_admissible_plant(files, capsys):
    rc = main(["validate", "--plant", str(files["plant"]),
               "--graph", str(files["graph"])])
    out = capsys.readouterr()
    assert rc == 0
    assert out.out == ""


def test_validate_reports_violations_as_json_lines(files, capsys):
    rc = main(["validate", "--plant", str(files["plant"]),
               "--graph", str(files["loops"])])
    out = capsys.readouterr()
    assert rc == 1
    lines = out.out.strip().split("\n")
    payloads = [json.loads(line) for line in lines]
    assert [v["constraint"] for v in payloads] == ["coupling_sparsity"]
    assert payloads[0]["where"] == [2, 1]
    assert "violation(s)" in out.err


def test_validate_design_graph_report(files, capsys):
    chain = files["tmp"] / "chain.json"
    chain.write_text(json.dumps(lc.graph_to_dict(
        lc.from_edge_list(2, [(1, 1), (2, 2), (1, 2), (2, 1)]))))
    rc = main(["validate", "--plant", str(files["plant"]),
               "--graph", str(files["graph"]),
               "--design-graph", str(files["loops"])])
    out = capsys.readouterr()
    assert rc == 0
    payload = json.loads(out.out.strip())
    assert payload["design_condition_applies"] is False
    assert payload["witness"] is None


def test_validate_usage_errors_exit_two(files, capsys):
    bad = files["tmp"] / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--plant", str(bad), "--graph", str(files["graph"])])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--plant", str(files["tmp"] / "missing.json"),
              "--graph", str(files["graph"])])
    assert exc.value.code == 2
    shapeless = files["tmp"] / "shapeless.json"
    shapeless.write_text(json.dumps({"rows": 2}))
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--plant", str(shapeless),
              "--graph", str(files["graph"])])
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_command_and_strategy_exit_two(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "--plant", str(files["plant"]),
              "--graph", str(files["graph"]), "--strategy", "optimal-ish"])
    assert exc.value.code == 2
    # the solver tolerance is not a synthesize option
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "--plant", str(files["plant"]),
              "--graph", str(files["graph"]), "--strategy", "centralized",
              "--tol", "1e-10"])
    assert exc.value.code == 2
    capsys.readouterr()
    synthesize = next(a for a in _parser()._subparsers._group_actions[0]
                      .choices["synthesize"]._actions if a.dest == "strategy")
    assert list(synthesize.choices) == list(STRATEGIES)


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_synthesize_emits_controller_json(files, capsys, strategy):
    rc = main(["synthesize", "--plant", str(files["plant"]),
               "--graph", str(files["graph"]), "--strategy", strategy])
    out = capsys.readouterr()
    assert rc == 0
    payload = json.loads(out.out)
    assert set(payload) == {"A_K", "B_K", "C_K", "D_K"}
    k = lc.controller_from_dict(payload)
    assert k.n == 2
    if strategy == "deadbeat":
        assert np.array_equal(k.D_K, lc.deadbeat(GOOD_PLANT).D_K)
    built = STRATEGIES[strategy](GOOD_PLANT, GOOD_GRAPH)
    for name in ("A_K", "B_K", "C_K", "D_K"):
        assert np.array_equal(getattr(k, name), getattr(built, name))


def test_synthesize_with_cost_appends_report(files, capsys):
    rc = main(["synthesize", "--plant", str(files["plant"]),
               "--graph", str(files["graph"]), "--strategy", "deadbeat",
               "--with-cost"])
    out = capsys.readouterr()
    assert rc == 0
    payload = json.loads(out.out)
    assert set(payload["cost"]) == {"total", "steps_used", "converged",
                                    "diverged", "tail_estimate"}
    assert payload["cost"]["converged"] is True
    assert payload["cost"]["total"] == lc.simulate_cost(
        GOOD_PLANT, lc.deadbeat(GOOD_PLANT)).total


def test_synthesize_writes_one_matrix_row_per_line(files):
    out = files["tmp"] / "controller.json"
    rc = main(["synthesize", "--plant", str(files["plant"]),
               "--graph", str(files["graph"]), "--strategy", "centralized",
               "--with-cost", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    k = lc.centralized_optimal(GOOD_PLANT)
    payload = lc.controller_to_dict(k)
    payload["cost"] = lc.simulate_cost(GOOD_PLANT, k).as_dict()
    # same object as an indented dump, floats equal bit for bit
    assert json.dumps(json.loads(text)) == json.dumps(payload)
    rows = [line.strip().rstrip(",") for line in text.splitlines()
            if line.lstrip().startswith("[")]
    assert len(rows) == 4 * GOOD_PLANT.n
    assert all(len(json.loads(row)) == GOOD_PLANT.n for row in rows)


def test_synthesize_refuses_inadmissible_plant(files, capsys):
    rc = main(["synthesize", "--plant", str(files["plant"]),
               "--graph", str(files["loops"]), "--strategy", "deadbeat"])
    out = capsys.readouterr()
    assert rc == 1
    assert out.out == ""
    assert "not synthesizing" in out.err


def test_synthesize_out_file(files, capsys):
    target = files["tmp"] / "controller.json"
    rc = main(["synthesize", "--plant", str(files["plant"]),
               "--graph", str(files["graph"]), "--strategy", "theta",
               "--out", str(target)])
    out = capsys.readouterr()
    assert rc == 0
    assert out.out == ""
    payload = json.loads(target.read_text())
    hand = lc.sink_aware(GOOD_PLANT, GOOD_GRAPH)
    assert np.array_equal(np.array(payload["D_K"]), hand.D_K)


def test_ratio_sweep_csv_default(files, capsys):
    rc = main(["ratio-sweep", "--r-grid", "1,10"])
    out = capsys.readouterr()
    assert rc == 0
    lines = out.out.strip().split("\n")
    assert lines[0] == "plant_id,r_param,J_strategy,J_centralized,ratio,bound"
    assert len(lines) == 4
    assert lines[1].startswith("family_r_1,")


def test_ratio_sweep_json_format(files, capsys):
    rc = main(["ratio-sweep", "--r-grid", "1,10", "--format", "json"])
    out = capsys.readouterr()
    assert rc == 0
    payload = json.loads(out.out)
    assert payload["family_params"] == {"i": 1, "j": 2, "eps_b": 1.0,
                                        "r_grid": [1.0, 10.0]}
    assert len(payload["per_plant"]) == 2
    assert payload["denominator_note"]


def test_ratio_sweep_bad_grid_and_domain_errors(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ratio-sweep", "--r-grid", "1,banana"])
    assert exc.value.code == 2
    capsys.readouterr()
    rc = main(["ratio-sweep", "--i", "2", "--j", "2", "--r-grid", "1,10"])
    out = capsys.readouterr()
    assert rc == 1
    assert out.err.startswith("error: SameIndexError")


def test_verify_small_scale_reports_and_fails(files, capsys):
    rc = main(["verify", "--scale", "0.05"])
    out = capsys.readouterr()
    assert rc == 1
    lines = out.out.strip().split("\n")
    payloads = [json.loads(line) for line in lines]
    assert len(payloads) == 14
    for item in payloads:
        assert set(item) == {"name", "passed", "measured", "tolerance",
                             "detail", "skipped"}
    names = [item["name"] for item in payloads]
    assert "criterion_06b_family_cost_formula" in names
    family = next(i for i in payloads if i["name"] == "criterion_06b_family_cost_formula")
    assert family["passed"] is False
    assert "checks passed" in out.err
    assert "FAILED criterion_06b_family_cost_formula" in out.err


def test_verify_scale_zero_skips_ensembles(files, capsys):
    rc = main(["verify", "--scale", "0"])
    out = capsys.readouterr()
    assert rc == 1
    payloads = [json.loads(line) for line in out.out.strip().split("\n")]
    skipped = [item["name"] for item in payloads if item["skipped"]]
    assert skipped
    fixed = [item for item in payloads if not item["skipped"]]
    # fixed-input checks still run and the family-cost check still fails
    assert any(item["name"] == "criterion_06b_family_cost_formula"
               and not item["passed"] for item in fixed)
    assert any(item["name"] == "criterion_03_dare_explicit_oracle"
               and item["passed"] for item in fixed)
