"""Command-line behavior: outputs, exit codes, and error formatting.

Exit codes are 0 for success, 1 for usage or input problems (with one JSON
line on stderr), and 2 when a verification report finds violations. Exact
quantities must round-trip as strings, never floats.
"""

import contextlib
import io
import json
import time
from fractions import Fraction

import pytest
from conftest import wheel

from treescore import (
    count_spanning_trees,
    graph_to_json_str,
    grid_tree_number,
    load_graph,
    make_grid,
    save_graph,
)
from treescore.cli import main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def grid_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "grid3x3.json"
    save_graph(make_grid(3, 3), path)
    return str(path)


@pytest.fixture(scope="module")
def grid44_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli44") / "grid4x4.json"
    save_graph(make_grid(4, 4), path)
    return str(path)


@pytest.fixture(scope="module")
def partition44_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli44p") / "p.json"
    path.write_text(
        json.dumps({"m": 2, "assignment": {str(v): 0 if v % 4 < 2 else 1 for v in range(16)}})
    )
    return str(path)


def test_make_grid_canonical(tmp_path):
    out_file = tmp_path / "g.json"
    code, _, _ = run_cli("make-grid", "--width", "3", "--height", "3",
                         "--output", str(out_file))
    assert code == 0
    assert out_file.read_text() == graph_to_json_str(make_grid(3, 3))
    # written and re-read graphs serialize identically
    assert graph_to_json_str(load_graph(out_file)) == out_file.read_text()
    code, stdout, _ = run_cli("make-grid", "--width", "3", "--height", "3")
    assert code == 0
    assert stdout == out_file.read_text()


def test_count_trees(grid_file):
    code, stdout, _ = run_cli("count-trees", "--graph", grid_file)
    assert code == 0
    data = json.loads(stdout)
    assert data["spanning_trees"] == "192"
    assert isinstance(data["spanning_trees"], str)
    assert data["exact"] is True


def test_count_trees_checks_connectivity_once(grid_file, monkeypatch):
    from treescore.graphs import EmbeddedMultiGraph

    checks = []
    real = EmbeddedMultiGraph.is_connected

    def is_connected(g):
        checks.append(g)
        return real(g)

    monkeypatch.setattr(EmbeddedMultiGraph, "is_connected", is_connected)
    code, stdout, _ = run_cli("count-trees", "--graph", grid_file)
    assert code == 0 and json.loads(stdout)["spanning_trees"] == "192"
    assert len(checks) == 1


@pytest.mark.parametrize(
    "graph,code,stdout,stderr",
    [
        ({"vertices": [], "edges": [], "rotation": {}},
         1, "", '{"error": "graph is not connected"}\n'),
        ({"vertices": [5], "edges": [], "rotation": {"5": []}},
         0, '{\n  "exact": true,\n  "spanning_trees": "1"\n}\n', ""),
        ({"vertices": [0, 1], "edges": [], "rotation": {"0": [], "1": []}},
         1, "", '{"error": "graph is not connected"}\n'),
    ],
    ids=["empty", "one-vertex", "disconnected"],
)
def test_count_trees_degenerate_graphs(tmp_path, graph, code, stdout, stderr):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    assert run_cli("count-trees", "--graph", str(path)) == (code, stdout, stderr)


@pytest.mark.parametrize("field", ["rotation", "labels"])
def test_count_trees_list_where_an_object_belongs_is_an_input_error(tmp_path, field):
    graph = json.loads(graph_to_json_str(make_grid(2, 2)))
    graph[field] = [[0, 0]]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    code, stdout, stderr = run_cli("count-trees", "--graph", str(path))
    assert (code, stdout) == (1, "")
    assert len(stderr.splitlines()) == 1
    assert "malformed graph object" in json.loads(stderr)["error"]


def test_count_trees_refuses_a_minor_too_large_to_eliminate(tmp_path):
    g = wheel(1000)  # 1,001 vertices, bandwidth ~1,000
    assert g.trace_faces().euler == 2
    path = tmp_path / "wheel.json"
    save_graph(g, path)
    start = time.perf_counter()
    code, stdout, stderr = run_cli("count-trees", "--graph", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, stdout) == (1, "")
    error = json.loads(stderr)["error"]
    assert "1000 rows" in error and "bandwidth" in error and "primes" in error


def test_count_trees_is_exact_above_two_thousand_vertices(tmp_path):
    path = tmp_path / "ladder.json"
    save_graph(make_grid(1100, 2), path)  # 2,200 vertices, bandwidth 2
    code, stdout, _ = run_cli("count-trees", "--graph", str(path))
    assert code == 0
    assert json.loads(stdout) == {"exact": True, "spanning_trees": str(grid_tree_number(1100))}


def test_count_trees_refuses_rather_than_approximates_a_large_wheel(tmp_path):
    path = tmp_path / "wheel.json"
    save_graph(wheel(2100), path)  # 2,101 vertices, bandwidth ~2,100
    start = time.perf_counter()
    code, stdout, stderr = run_cli("count-trees", "--graph", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, stdout) == (1, "")
    assert "word operations, above the limit" in json.loads(stderr)["error"]


def test_resistance_refuses_rather_than_approximates_a_large_wheel(tmp_path):
    path = tmp_path / "wheel.json"
    save_graph(wheel(1000), path)  # 1,001 vertices; grounded at a rim vertex, bandwidth ~500
    start = time.perf_counter()
    code, stdout, stderr = run_cli("resistance", "--graph", str(path), "--edge", "1000")
    assert time.perf_counter() - start < 1.0
    assert (code, stdout) == (1, "")
    assert "word operations, above the limit" in json.loads(stderr)["error"]


def test_resistance_exact_string(grid_file):
    code, stdout, _ = run_cli("resistance", "--graph", grid_file, "--edge", "0")
    assert code == 0
    data = json.loads(stdout)
    assert data["resistance"] == "17/24"
    assert data["approx"] == pytest.approx(17 / 24)


def test_resistance_unknown_edge(grid_file):
    code, stdout, stderr = run_cli("resistance", "--graph", grid_file, "--edge", "99")
    assert code == 1
    assert stdout == ""
    assert json.loads(stderr.strip())["error"]


def test_sample_tree_resistance_sampler(grid_file, tmp_path):
    trace_file = tmp_path / "trace.jsonl"
    code, stdout, _ = run_cli(
        "sample-tree", "--graph", grid_file, "--seed", "7", "--trace", str(trace_file)
    )
    assert code == 0
    data = json.loads(stdout)
    assert data["sampler"] == "alg1"
    assert len(data["tree"]) == 8
    assert data["probability-product"] == "1/192"
    assert data["complete"] is True
    lines = trace_file.read_text().strip().splitlines()
    assert len(lines) == data["steps"]
    assert all(json.loads(line)["action"] in ("contracted", "deleted") for line in lines)
    # same seed, same outcome
    code2, stdout2, _ = run_cli("sample-tree", "--graph", grid_file, "--seed", "7")
    assert json.loads(stdout2)["tree"] == data["tree"]


def test_sample_tree_wilson(grid_file):
    code, stdout, _ = run_cli(
        "sample-tree", "--graph", grid_file, "--seed", "3", "--sampler", "wilson"
    )
    assert code == 0
    data = json.loads(stdout)
    assert len(data["tree"]) == 8
    assert "probability-product" not in data


def test_sample_tree_wilson_rejects_trace(grid_file, tmp_path):
    code, _, stderr = run_cli(
        "sample-tree", "--graph", grid_file, "--seed", "3",
        "--sampler", "wilson", "--trace", str(tmp_path / "t.jsonl"),
    )
    assert code == 1
    assert "trace" in json.loads(stderr.strip())["error"]


def test_sample_tree_requires_seed(grid_file):
    code, _, stderr = run_cli("sample-tree", "--graph", grid_file)
    assert code == 1
    assert json.loads(stderr.strip())["error"]


def test_enumerate(tmp_path):
    path = tmp_path / "g.json"
    save_graph(make_grid(2, 2), path)
    code, stdout, _ = run_cli("enumerate", "--graph", str(path))
    assert code == 0
    data = json.loads(stdout)
    assert data["spanning_trees"] == "4"
    assert len(data["trees"]) == 4


def test_enumerate_cap(grid_file):
    code, _, stderr = run_cli("enumerate", "--graph", grid_file, "--limit", "10")
    assert code == 1
    assert "cap" in json.loads(stderr.strip())["error"]


def test_distribution_json(grid44_file):
    code, stdout, _ = run_cli("distribution", "--graph", grid44_file, "--m", "2")
    assert code == 0
    data = json.loads(stdout)
    assert len(data["entries"]) == 70
    total = sum(Fraction(e["probability"]) for e in data["entries"])
    assert total == 1
    assert data["graph-trees"] == "100352"


def test_distribution_csv(grid44_file):
    code, stdout, _ = run_cli(
        "distribution", "--graph", grid44_file, "--m", "2", "--format", "csv"
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0].startswith("partition-hash,")
    assert len(lines) == 71


def test_recom_runs_and_is_deterministic(grid44_file, partition44_file, tmp_path):
    hist_file = tmp_path / "hist.json"
    args = (
        "recom", "--graph", grid44_file, "--partition", partition44_file,
        "--steps", "40", "--seed", "3", "--histogram", str(hist_file),
    )
    code, csv1, _ = run_cli(*args)
    assert code == 0
    assert csv1.splitlines()[0] == "step,cut_edges,partition_hash"
    assert len(csv1.strip().splitlines()) == 42
    code, csv2, _ = run_cli(*args)
    assert csv1 == csv2
    hist = json.loads(hist_file.read_text())
    assert sum(hist["histogram"].values()) == 41


def test_recom_json_format(grid44_file, partition44_file):
    code, stdout, _ = run_cli(
        "recom", "--graph", grid44_file, "--partition", partition44_file,
        "--steps", "5", "--seed", "1", "--format", "json",
    )
    assert code == 0
    data = json.loads(stdout)
    assert data["steps"] == 5
    assert len(data["samples"]) == 6


def test_recom_config_file(grid44_file, partition44_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"steps": 8, "seed": 2}')
    code, stdout, _ = run_cli(
        "recom", "--graph", grid44_file, "--partition", partition44_file,
        "--config", str(cfg),
    )
    assert code == 0
    assert len(stdout.strip().splitlines()) == 10


@pytest.mark.parametrize(
    "deleted", ["recom-tree-sampler", "resistance-method", "config-tree-sampler"]
)
def test_deleted_options_are_refused(grid44_file, partition44_file, tmp_path, deleted):
    config = tmp_path / "cfg.json"
    config.write_text('{"steps": 2, "seed": 1, "tree-sampler": "wilson"}')
    recom = ["recom", "--graph", grid44_file, "--partition", partition44_file]
    argv, message = {
        "recom-tree-sampler": (
            [*recom, "--steps", "2", "--seed", "1", "--tree-sampler", "wilson"],
            "unrecognized arguments: --tree-sampler wilson",
        ),
        "resistance-method": (
            ["resistance", "--graph", grid44_file, "--edge", "0", "--method", "tree-ratio"],
            "unrecognized arguments: --method tree-ratio",
        ),
        "config-tree-sampler": (
            [*recom, "--config", str(config)], "unknown config fields: tree-sampler"
        ),
    }[deleted]
    code, stdout, stderr = run_cli(*argv)
    assert (code, stdout) == (1, "")
    assert len(stderr.splitlines()) == 1
    assert message in json.loads(stderr)["error"]


@pytest.mark.parametrize(
    "config",
    ["[1]", "5", '{"steps": null, "seed": 1}', '{"steps": 2.5, "seed": 1}'],
    ids=["list", "number", "null-steps", "fractional-steps"],
)
def test_recom_malformed_config_is_an_input_error(grid44_file, partition44_file, tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(config)
    code, stdout, stderr = run_cli(
        "recom", "--graph", grid44_file, "--partition", partition44_file, "--config", str(path)
    )
    assert (code, stdout) == (1, "")
    assert len(stderr.splitlines()) == 1 and json.loads(stderr)["error"]


HALVES = {str(v): 0 if v % 4 < 2 else 1 for v in range(16)}  # a valid plan of the 4x4 grid


@pytest.mark.parametrize("m", [100000, 17, 0, -3])
def test_recom_refuses_m_outside_one_to_the_vertex_count(grid44_file, tmp_path, m):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"m": m, "assignment": HALVES}))
    code, stdout, stderr = run_cli(
        "recom", "--graph", grid44_file, "--partition", str(path), "--steps", "2", "--seed", "1"
    )
    assert (code, stdout) == (1, "")
    assert len(stderr.splitlines()) == 1 and len(stderr) < 200
    assert f"m = {m} is not between 1 and the 16 vertices" in json.loads(stderr)["error"]


@pytest.mark.parametrize(
    "path,value",
    [(("vertices", 0), 0.2), (("edges", 0, "u"), 0.7), (("edges", 0, "v"), True),
     (("edges", 0, "id"), "0"), (("rotation", "0", 0, 1), False)],
    ids=["float-vertex", "float-end", "bool-end", "string-id", "bool-side"],
)
def test_count_trees_refuses_a_graph_id_that_is_not_an_integer(tmp_path, path, value):
    graph = json.loads(graph_to_json_str(make_grid(3, 3)))
    target = graph
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    file = tmp_path / "g.json"
    file.write_text(json.dumps(graph))
    code, stdout, stderr = run_cli("count-trees", "--graph", str(file))
    assert (code, stdout) == (1, "")
    assert "malformed graph object" in json.loads(stderr)["error"]


@pytest.mark.parametrize(
    "partition",
    [{"m": 2.9, "assignment": HALVES},
     {"m": 2, "assignment": {**HALVES, "2": 1.8}},
     {"m": 2, "assignment": {**{k: d for k, d in HALVES.items() if k != "0"}, "00": 0}}],
    ids=["float-m", "float-district", "padded-key"],
)
def test_recom_refuses_a_partition_number_that_is_not_an_integer(grid44_file, tmp_path, partition):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(partition))
    code, stdout, stderr = run_cli(
        "recom", "--graph", grid44_file, "--partition", str(path), "--steps", "2", "--seed", "1"
    )
    assert (code, stdout) == (1, "")
    assert "malformed partition object" in json.loads(stderr)["error"]


def test_recom_requires_plan(grid44_file, partition44_file):
    code, _, stderr = run_cli(
        "recom", "--graph", grid44_file, "--partition", partition44_file
    )
    assert code == 1
    assert "steps" in json.loads(stderr.strip())["error"]


def test_verify_eq4(grid44_file):
    code, stdout, _ = run_cli(
        "verify", "--claim", "eq4", "--graph", grid44_file,
        "--m", "2", "--k1", "4", "--k2", "4",
    )
    assert code == 0
    data = json.loads(stdout)
    assert data["claim"] == "eq4"
    assert data["holds"] is True
    assert data["instances-checked"] == 70
    assert data["violations"] == []


def test_verify_lemma32(grid_file):
    code, stdout, _ = run_cli(
        "verify", "--claim", "lemma32", "--graph", grid_file,
        "--k1", "4", "--k2", "4", "--runs", "5", "--seed", "0",
    )
    assert code == 0
    assert json.loads(stdout)["holds"] is True


def test_verify_lemma32_requires_seed(grid_file):
    code, _, stderr = run_cli(
        "verify", "--claim", "lemma32", "--graph", grid_file, "--k1", "4", "--k2", "4"
    )
    assert code == 1
    assert "seed" in json.loads(stderr.strip())["error"]


def test_verify_partition_claims_require_m(grid44_file):
    code, _, stderr = run_cli(
        "verify", "--claim", "theorem31", "--graph", grid44_file, "--k1", "4", "--k2", "4"
    )
    assert code == 1
    assert "--m" in json.loads(stderr.strip())["error"]


def test_verify_theorem31_and_corollary(grid44_file):
    for claim in ("theorem31", "corollary"):
        code, stdout, _ = run_cli(
            "verify", "--claim", claim, "--graph", grid44_file,
            "--m", "2", "--k1", "4", "--k2", "4",
        )
        assert code == 0
        data = json.loads(stdout)
        assert data["holds"] is True


def test_check_bounded_exit_codes(grid44_file):
    code, stdout, _ = run_cli("check-bounded", "--graph", grid44_file,
                              "--k1", "4", "--k2", "4")
    assert code == 0
    assert json.loads(stdout)["holds"] is True
    code, stdout, _ = run_cli("check-bounded", "--graph", grid44_file,
                              "--k1", "3", "--k2", "4")
    assert code == 2
    assert json.loads(stdout)["holds"] is False


def test_lambda_value():
    code, stdout, _ = run_cli(
        "lambda", "--k1", "4", "--k2", "4", "--alpha", "1", "--epsilon", "0.001"
    )
    assert code == 0
    assert json.loads(stdout)["lambda"] == pytest.approx(7.229262518959628)


def test_counterexample_face_family():
    code, stdout, _ = run_cli("counterexample", "--theorem", "3.3", "--n", "6")
    assert code == 0
    data = json.loads(stdout)
    assert data["ratio-bound-ok"] is True
    code, _, stderr = run_cli("counterexample", "--theorem", "3.3", "--n", "5")
    assert code == 1
    assert json.loads(stderr.strip())["error"]


def test_counterexample_degree_family():
    code, stdout, _ = run_cli("counterexample", "--theorem", "3.4", "--n", "16")
    assert code == 0
    data = json.loads(stdout)
    assert data["resistances"]["holds"] is True
    assert data["log-bounds"]["n"] == 16


def test_unknown_subcommand_error_stream():
    code, stdout, stderr = run_cli("explode")
    assert code == 1
    assert stdout == ""
    lines = stderr.strip().splitlines()
    assert len(lines) == 1
    assert "explode" in json.loads(lines[0])["error"]


def test_missing_subcommand():
    code, _, stderr = run_cli()
    assert code == 1
    assert "subcommand" in json.loads(stderr.strip())["error"]


def test_missing_graph_file():
    code, _, stderr = run_cli("count-trees", "--graph", "/nonexistent/g.json")
    assert code == 1
    assert json.loads(stderr.strip())["error"]


def test_output_flag_redirects(grid_file, tmp_path):
    out_file = tmp_path / "out.json"
    code, stdout, _ = run_cli(
        "count-trees", "--graph", grid_file, "--output", str(out_file)
    )
    assert code == 0
    assert stdout == ""
    assert json.loads(out_file.read_text())["spanning_trees"] == "192"


def test_sample_tree_float_path(tmp_path):
    """Above the exact threshold the certificate is a float JSON number."""
    g = make_grid(9, 9)
    graph, trace = tmp_path / "g.json", tmp_path / "t.jsonl"
    save_graph(g, graph)
    code, stdout, stderr = run_cli("sample-tree", "--graph", str(graph), "--seed", "1",
                                   "--trace", str(trace))
    assert code == 0, stderr
    data = json.loads(stdout)
    assert len(data["tree"]) == 80 and data["complete"] is True
    product = data["probability-product"]
    assert isinstance(product, float)
    assert product == pytest.approx(1 / int(count_spanning_trees(g)), rel=1e-9)
    steps = [json.loads(line) for line in trace.read_text().splitlines()]
    prod = 1.0
    for rec in steps:
        prod *= rec["p"]
    assert product == prod
