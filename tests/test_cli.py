"""Command-line entry points, exercised in process via main(argv), and
in a subprocess where the process's own stdout is under test."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import limoctrl as lc
from limoctrl.cli import EXIT_CLOSED_STDOUT, _parser, _write_controller, main
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
    built = STRATEGIES[strategy].build(GOOD_PLANT, GOOD_GRAPH)
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


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_ends_quietly(files, unbuffered):
    # the pipe's read end is closed before the command starts, so its first
    # write (unbuffered) or its flush (buffered) meets the closed pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.path.dirname(os.path.dirname(lc.__file__)))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "limoctrl.cli", "synthesize",
             "--plant", str(files["plant"]), "--graph", str(files["graph"]),
             "--strategy", "centralized", "--with-cost"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.stderr == b""        # no traceback, no "Exception ignored"
    assert proc.returncode == EXIT_CLOSED_STDOUT == 141


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("args", [["--help"], ["synthesize", "--help"]])
def test_help_to_a_closed_stdout_ends_quietly(args, unbuffered):
    # argparse writes the help and exits inside parse_args; buffered, the
    # write failed only at the flush at exit, unbuffered argparse dropped it
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.path.dirname(os.path.dirname(lc.__file__)))
    try:
        proc = subprocess.run([sys.executable, "-m", "limoctrl.cli", *args],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=60)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == EXIT_CLOSED_STDOUT


def test_help_is_written_to_stdout(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr()
    assert out.out.startswith("usage: limoctrl synthesize")
    assert out.err == ""


def test_synthesize_refuses_inadmissible_plant(files, capsys):
    rc = main(["synthesize", "--plant", str(files["plant"]),
               "--graph", str(files["loops"]), "--strategy", "deadbeat"])
    out = capsys.readouterr()
    assert rc == 1
    assert out.out == ""
    assert "not synthesizing" in out.err


@pytest.mark.filterwarnings("ignore::limoctrl.errors.DisturbanceGrowthWarning")
@pytest.mark.parametrize("field, values, where", [
    ("B_diag", [float("nan"), 1.5], [1]),
    ("D_diag", [0.3, float("inf")], [2]),
])
def test_non_finite_plant_is_refused(files, capsys, field, values, where):
    bad = files["tmp"] / "non_finite.json"
    bad.write_text(json.dumps({**lc.plant_to_dict(GOOD_PLANT), field: values}))
    assert "NaN" in bad.read_text() or "Infinity" in bad.read_text()
    rc = main(["validate", "--plant", str(bad), "--graph", str(files["graph"])])
    out = capsys.readouterr()
    assert rc == 1
    payloads = [json.loads(line) for line in out.out.strip().split("\n")]
    assert [(v["constraint"], v["where"]) for v in payloads] == [
        ("finite_entries", where)]
    assert field in payloads[0]["message"]
    rc = main(["synthesize", "--plant", str(bad), "--graph", str(files["graph"]),
               "--strategy", "deadbeat", "--with-cost"])
    out = capsys.readouterr()
    assert rc == 1
    assert out.out == ""
    assert "finite_entries" in out.err and "not synthesizing" in out.err


@pytest.mark.parametrize("edge", [[1.5, 2], [2.0, 1], [True, True], ["1", 2],
                                  [None, 1]])
def test_non_integer_vertex_index_exits_one(files, capsys, edge):
    bad = files["tmp"] / "fractional.json"
    bad.write_text(json.dumps({"n": 2, "edges": [[1, 1], [2, 2], edge]}))
    for argv in (["validate"], ["synthesize", "--strategy", "deadbeat"]):
        rc = main([*argv, "--plant", str(files["plant"]), "--graph", str(bad)])
        out = capsys.readouterr()
        assert rc == 1
        assert out.out == ""
        assert out.err.startswith("error: DimensionMismatchError: ")


@pytest.mark.parametrize("what, n", [("graph", 2.7), ("graph", True),
                                     ("plant", 1.9), ("plant", False)])
def test_non_integer_size_exits_one(files, capsys, what, n):
    payload = json.loads(files[what].read_text())
    bad = files["tmp"] / f"bad_{what}.json"
    bad.write_text(json.dumps({**payload, "n": n}))
    paths = {"plant": str(files["plant"]), "graph": str(files["graph"]),
             what: str(bad)}
    for argv in (["validate"], ["synthesize", "--strategy", "deadbeat"]):
        rc = main([*argv, "--plant", paths["plant"], "--graph", paths["graph"]])
        out = capsys.readouterr()
        assert rc == 1
        assert out.out == ""
        assert out.err.startswith('error: DimensionMismatchError: "n" must be an integer')


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


@pytest.mark.parametrize("argv, error", [
    (["ratio-sweep", "--r-grid", "nan"], "InvalidSpecError"),
    (["ratio-sweep", "--r-grid", "1,inf"], "InvalidSpecError"),
    (["ratio-sweep", "--eps-b", "nan"], "NonPositiveEpsilonError"),
    (["ratio-sweep", "--eps-b", "inf"], "NonPositiveEpsilonError"),
])
def test_ratio_sweep_refuses_non_finite_parameters_at_once(capsys, argv, error):
    # a NaN or infinite r or eps_b once ran the DARE for 100000 iterations
    start = time.perf_counter()
    rc = main(argv)
    elapsed = time.perf_counter() - start
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {error}")
    assert elapsed < 1.0


def test_validate_refuses_non_finite_eps_b(files, capsys):
    rc = main(["validate", "--plant", str(files["plant"]),
               "--graph", str(files["graph"]), "--eps-b", "nan"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: NonPositiveEpsilonError")


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
    # every check but 03, 06a, 06b and 10 draws an ensemble, shared or not
    assert len(skipped) == 10
    fixed = [item for item in payloads if not item["skipped"]]
    # fixed-input checks still run and the family-cost check still fails
    assert any(item["name"] == "criterion_06b_family_cost_formula"
               and not item["passed"] for item in fixed)
    assert any(item["name"] == "criterion_03_dare_explicit_oracle"
               and item["passed"] for item in fixed)


# ------------------------------------------------ controller writer, parser

def _reference_write(fh, k, cost):
    """The controller writer as it was before entries were formatted
    sparsely: every row through json.dumps(row.tolist())."""
    for idx, name in enumerate(("A_K", "B_K", "C_K", "D_K")):
        fh.write(("{" if idx == 0 else ",") + f'\n  "{name}": [')
        for r, row in enumerate(getattr(k, name)):
            fh.write(("," if r else "") + "\n    " + json.dumps(row.tolist()))
        fh.write("\n  ]")
    if cost is not None:
        fh.write(',\n  "cost": ' + json.dumps(cost.as_dict()))
    fh.write("\n}\n")


def _written(writer, k, cost=None):
    fh = io.StringIO()
    writer(fh, k, cost)
    return fh.getvalue()


def _controller_around(m):
    """A controller whose B_K and D_K are m and whose A_K and C_K are the
    diagonal of m."""
    diag = np.diag(m)
    return lc.Controller(a_diag=diag, B_K=m, c_diag=diag, D_K=m)


_TINY = 5e-324                                  # smallest subnormal
_WRITER_MATRICES = {
    "signed_zeros": [[0.0, -0.0, 1.5], [-0.0, 0.0, 0.0], [0.0, 0.0, -0.0]],
    "subnormals": [[_TINY, 0.0, -_TINY], [2.2250738585072014e-308 / 3, 0.0, 0.0],
                   [0.0, -1e-310, 0.0]],
    "huge": [[1e300, -1e300, 0.0], [0.0, 1.7976931348623157e308, 0.0],
             [-0.0, 0.0, 1e-300]],
    "dense": np.random.default_rng(7).standard_normal((4, 4)).tolist(),
    "n1_zero": [[0.0]],
    "n1_negative_zero": [[-0.0]],
    "n1_value": [[0.1]],
}


@pytest.mark.parametrize("name", list(_WRITER_MATRICES))
def test_controller_writer_matches_row_dumps(name):
    k = _controller_around(np.array(_WRITER_MATRICES[name], dtype=float))
    text = _written(_write_controller, k)
    assert text == _written(_reference_write, k)
    assert json.dumps(json.loads(text)) == json.dumps(lc.controller_to_dict(k))


def test_controller_writer_spells_non_finite_entries_as_json_dumps():
    m = np.array([[np.nan, 0.0, -0.0], [np.inf, 1.0, 0.0], [0.0, -np.inf, 2.5]])
    k = _controller_around(m)
    text = _written(_write_controller, k)
    assert text == _written(_reference_write, k)
    assert "NaN" in text and "-Infinity" in text and "-0.0" in text


def _sink_plant(n, seed):
    """Admissible plant on a random graph with self-loops, cross edges at
    density 0.2 and vertex 1 a sink that vertex n feeds."""
    rng = np.random.default_rng(seed)
    mask = (rng.random((n, n)) < 0.2).astype(np.int8)
    np.fill_diagonal(mask, 1)
    mask[1:, 0] = 0
    mask[0, n - 1] = 1
    g = lc.from_adjacency(mask)
    return lc.sample_ensemble(lc.EnsembleSpec(n=n, plant_graph=g, seed=seed))[0], g


def test_synthesize_output_matches_row_dumps(tmp_path):
    negative_zeros = 0
    for n in (2, 5, 20, 50):
        p, g = _sink_plant(n, seed=n)
        plant_path, graph_path = tmp_path / "plant.json", tmp_path / "graph.json"
        plant_path.write_text(json.dumps(lc.plant_to_dict(p)))
        graph_path.write_text(json.dumps(lc.graph_to_dict(g)))
        for strategy, entry in STRATEGIES.items():
            out = tmp_path / f"{strategy}_{n}.json"
            rc = main(["synthesize", "--plant", str(plant_path),
                       "--graph", str(graph_path), "--strategy", strategy,
                       "--with-cost", "--out", str(out)])
            assert rc == 0
            k = entry.build(p, g)
            text = out.read_text()
            assert text == _written(_reference_write, k, lc.simulate_cost(p, k))
            negative_zeros += text.count("-0.0,") + text.count("-0.0]")
    # the structured designs emit -0.0, which must keep its sign
    assert negative_zeros > 0


# sha256 of `synthesize --strategy S` (no cost) on _sink_plant(n, seed=n).
# Both designs are elementwise arithmetic on the plant data, so the bytes do
# not depend on the BLAS build.
_PINNED_SYNTHESIZE_SHA256 = {
    ("deadbeat", 2): "2a9e133adb7d5ab7b7cab0885d7bc80a5936a6bc3ec2f924af9f5899c54100e7",
    ("theta", 2): "45aafdfc9733e81aa7a3116acce67c9b8028a4b991dabfad23ace74bf2d5ad78",
    ("deadbeat", 5): "0ecc3cb624bd152e6ffa9ab3cb4db331c1ff0afc79d48cad0a73fa4629eac327",
    ("theta", 5): "ae5551c401392ccc3141c4428fd154f683eb459e572b12154b6fa3e83c2c3fc4",
    ("deadbeat", 20): "43b17df6516d28a2d2d37dacc0bf7af5be4a636c8883f63ba0e3971ff0a288a4",
    ("theta", 20): "c7fa97f488d5130fb912fa6a5ec1fa656f15583ca5eac74be9836a1dda929a2a",
}


# sha256 of `synthesize --strategy S --with-cost` on _sink_plant(n, seed=n).
# The simulated cost follows the BLAS kernels' summation order, so these are
# checked only under the BLAS build they were recorded with (conftest.py).
_PINNED_WITH_COST_SHA256 = {
    ("deadbeat", 2): "a42451de6918d385c1f3f49ab7b8c2897fbd4ebadac1725958579bbeb48b31b7",
    ("theta", 2): "69a343e9d04d519da431eb0998c3e77e41cd03bb7fdade9629294288a13917a3",
    ("deadbeat", 5): "5cef1a34e2ecd8cfdb229dd73e2d866861e41d264d7b4824c6cf96666a6c600a",
    ("theta", 5): "da971b4936c35afe9c36225e8906452c6d1b3d002b407415d51e9c5080008c7e",
    ("deadbeat", 20): "58ed22bdf7657dac07211f7cfea55ad0e0d3083fe9a5789b41b12b04d6ef207b",
    ("theta", 20): "185f5d9ca5e4cbf2c96df47ddf8d71b417366a648c9e597a52e8f23ea9527c70",
}


def _synthesized(tmp_path, p, g, strategy, *options):
    """The bytes `synthesize --strategy strategy *options` writes for p on g."""
    plant_path, graph_path = tmp_path / "plant.json", tmp_path / "graph.json"
    plant_path.write_text(json.dumps(lc.plant_to_dict(p)))
    graph_path.write_text(json.dumps(lc.graph_to_dict(g)))
    out = tmp_path / "controller.json"
    rc = main(["synthesize", "--plant", str(plant_path), "--graph", str(graph_path),
               "--strategy", strategy, "--out", str(out), *options])
    assert rc == 0
    return out.read_bytes()


@pytest.mark.parametrize("strategy, n", list(_PINNED_SYNTHESIZE_SHA256))
def test_synthesize_structured_bytes_are_pinned(tmp_path, strategy, n):
    p, g = _sink_plant(n, seed=n)
    digest = hashlib.sha256(_synthesized(tmp_path, p, g, strategy)).hexdigest()
    assert digest == _PINNED_SYNTHESIZE_SHA256[strategy, n]


@pytest.mark.parametrize("strategy, n", list(_PINNED_WITH_COST_SHA256))
def test_synthesize_with_cost_bytes_are_pinned(tmp_path, pinned_blas, strategy, n):
    p, g = _sink_plant(n, seed=n)
    digest = hashlib.sha256(
        _synthesized(tmp_path, p, g, strategy, "--with-cost")).hexdigest()
    assert digest == _PINNED_WITH_COST_SHA256[strategy, n]


def test_centralized_output_round_trips_through_controller_from_dict(tmp_path):
    p, g = _sink_plant(5, seed=5)
    k = lc.controller_from_dict(json.loads(_synthesized(tmp_path, p, g, "centralized")))
    built = lc.centralized_optimal(p)
    for name in ("a_diag", "B_K", "c_diag", "D_K"):
        assert np.array_equal(getattr(k, name), getattr(built, name))


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parser_is_built_once_and_reused(files, capsys):
    plant, graph = str(files["plant"]), str(files["graph"])
    synthesize = ["synthesize", "--plant", plant, "--graph", graph,
                  "--strategy", "theta", "--with-cost"]
    sequences = [
        ([["synthesize", "--plant", plant, "--graph", graph,
           "--strategy", "optimal-ish"], synthesize], [2, 0]),
        ([["validate", "--plant", plant, "--graph", graph,
           "--design-graph", str(files["loops"])],
          ["ratio-sweep", "--r-grid", "1,10,100", "--n", "3"], synthesize],
         [0, 0, 0]),
    ]
    for sequence, codes in sequences:
        alone = []
        for argv in sequence:
            _parser.cache_clear()
            alone.append(_outcome(argv, capsys))
        _parser.cache_clear()
        reused = [_outcome(argv, capsys) for argv in sequence]
        assert reused == alone
        assert [code for code, _, _ in reused] == codes
        assert all(out for code, out, _ in reused if code == 0)
    assert _parser() is _parser()
