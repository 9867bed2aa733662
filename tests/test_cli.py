import csv
import json

import numpy as np
import pytest

from cfspn import circuit as cm
from cfspn import counterfactual as cf
from cfspn import data, grad, inference
from cfspn.cli import main
from cfspn.structure import StructureConfig, build_circuit
from conftest import blob, set_blob

MOONS_CONFIG = {
    "seed": 7,
    "dataset": {"kind": "moons", "n": 240, "noise": 0.1},
    "split": {"train_fraction": 0.7},
    "structure": {"repetitions": 3, "sum_nodes_per_region": 2,
                  "leaf_distributions_per_region": 5},
    "train": {"epochs": 10, "variance_floor": 0.02},
    "counterfactual": {"epsilon1": 0.1, "epsilon2": 0.01},
    "baseline": {"max_iters": 40},
}


def read_results(path):
    """The results of a JSON-lines file that ``save_results`` wrote."""
    with open(path, encoding="utf-8") as fh:
        return [cf.CfResult(**{**r, **{k: np.array(r[k]) for k in ("x", "u", "x_prime")}})
                for r in map(json.loads, fh)]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(MOONS_CONFIG))
    model = root / "model.json"
    code = main(["train", "--config", str(config), "--out", str(model)])
    assert code == 0
    return root, config, model


def test_train_writes_model_and_sidecars(trained, capsys):
    root, config, model = trained
    assert model.exists()
    circuit = cm.load(model)
    assert circuit.num_variables == 2
    report = json.loads((root / "model.report.json").read_text())
    assert 0.0 <= report["test_accuracy"] <= 1.0
    assert report["n_train"] == 168
    assert (root / "model.meta.json").exists()


def test_train_is_reproducible(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(MOONS_CONFIG))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["train", "--config", str(config), "--out", str(a)]) == 0
    assert main(["train", "--config", str(config), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_flag_changes_the_model(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(MOONS_CONFIG))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["train", "--config", str(config), "--out", str(a)]) == 0
    assert main(["train", "--config", str(config), "--out", str(b),
                 "--seed", "981"]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_train_requires_dataset_path(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": {"kind": "csv"}}))
    code = main(["train", "--config", str(config),
                 "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_config_json_exits_two(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("{not json")
    assert main(["train", "--config", str(config)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_config_option_is_named(tmp_path, capsys):
    bad = dict(MOONS_CONFIG)
    bad["structure"] = {"depth": 1, "fanout": 3}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(bad))
    assert main(["train", "--config", str(config),
                 "--out", str(tmp_path / "m.json")]) == 2
    assert "fanout" in capsys.readouterr().err


def test_missing_model_path_names_the_file(tmp_path, trained, capsys):
    _, config, _ = trained
    missing = tmp_path / "nope.json"
    code = main(["counterfactual", "--config", str(config),
                 "--model", str(missing),
                 "--target-class", "1",
                 "--out", str(tmp_path / "r.jsonl")])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_counterfactual_requires_target(trained, tmp_path, capsys):
    _, config, model = trained
    code = main(["counterfactual", "--config", str(config),
                 "--model", str(model),
                 "--out", str(tmp_path / "r.jsonl")])
    assert code == 2
    assert "target-class" in capsys.readouterr().err


def test_counterfactual_writes_results(trained, tmp_path, capsys):
    _, config, model = trained
    out = tmp_path / "results.jsonl"
    code = main(["counterfactual", "--config", str(config),
                 "--model", str(model), "--target-class", "1",
                 "--out", str(out)])
    assert code == 0
    results = read_results(out)
    assert results
    assert all(r.y_prime == 1 for r in results)
    assert all(r.grad_evals == 2 for r in results)
    assert "success rate" in capsys.readouterr().out


def test_counterfactual_flag_overrides(trained, tmp_path):
    _, config, model = trained
    out = tmp_path / "results.jsonl"
    code = main(["counterfactual", "--config", str(config),
                 "--model", str(model), "--target-class", "0",
                 "--epsilon1", "1.0", "--epsilon2", "0.1",
                 "--grad-mode", "log_density",
                 "--out", str(out)])
    assert code == 0
    assert read_results(out)


@pytest.mark.parametrize("flag", ["--epsilon1", "--epsilon2"])
def test_counterfactual_rejects_non_finite_step_sizes(trained, tmp_path, capsys,
                                                      flag):
    _, config, model = trained
    out = tmp_path / "results.jsonl"
    code = main(["counterfactual", "--config", str(config),
                 "--model", str(model), "--target-class", "1",
                 flag, "nan", "--out", str(out)])
    assert code == 2
    assert flag.lstrip("-") in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_reports_mean_l1_distance(trained, tmp_path, capsys):
    _, config, model = trained
    results_path = tmp_path / "results.jsonl"
    bench = tmp_path / "bench.json"
    assert main(["counterfactual", "--config", str(config),
                 "--model", str(model), "--target-class", "1",
                 "--out", str(results_path)]) == 0
    assert main(["benchmark", "--config", str(config),
                 "--model", str(model), "--target-class", "1",
                 "--method", "two_step", "--out", str(bench)]) == 0
    results = read_results(results_path)
    record = json.loads(bench.read_text())["records"][0]
    assert record["n"] == len(results)
    assert record["mean_l1_distance"] == np.mean(
        [np.abs(r.x_prime - r.x).sum() for r in results])
    assert record["mean_l1_distance"] > 0
    assert "mean_l1=" in capsys.readouterr().out


def test_benchmark_reports_one_hot_consistency(tmp_path, capsys):
    config = tmp_path / "onehot.json"
    config.write_text(json.dumps({
        "seed": 3,
        "dataset": {"kind": "onehot", "n": 240},
        "structure": {"repetitions": 2, "sum_nodes_per_region": 2,
                      "leaf_distributions_per_region": 3},
        "train": {"epochs": 4, "variance_floor": 0.02},
        "counterfactual": {"epsilon1": 0.1, "epsilon2": 0.01},
        "baseline": {"max_iters": 20},
    }))
    model = tmp_path / "model.json"
    results_path = tmp_path / "results.jsonl"
    bench = tmp_path / "bench.json"
    assert main(["train", "--config", str(config), "--out", str(model)]) == 0
    assert main(["counterfactual", "--config", str(config),
                 "--model", str(model), "--target-class", "1",
                 "--out", str(results_path)]) == 0
    assert main(["benchmark", "--config", str(config),
                 "--model", str(model), "--target-class", "1",
                 "--method", "both", "--out", str(bench)]) == 0
    meta = data.FeatureMeta.from_dict(
        json.loads((tmp_path / "model.meta.json").read_text()))
    assert meta.group_slices()
    results = read_results(results_path)
    two_step, wachter = json.loads(bench.read_text())["records"]
    assert two_step["n"] == len(results) > 0
    assert two_step["median_abs_group_sum"] == cf.one_hot_consistency(
        results, meta).median_abs_sum
    assert wachter["median_abs_group_sum"] >= 0.0
    assert capsys.readouterr().out.count("median_abs_group_sum=") == 2


def test_removed_optimizer_option_is_named(tmp_path, capsys):
    bad = dict(MOONS_CONFIG, train={"epochs": 1, "optimizer": "sgd"})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(bad))
    assert main(["train", "--config", str(config),
                 "--out", str(tmp_path / "m.json")]) == 2
    assert "optimizer" in capsys.readouterr().err


def test_categorical_leaves_are_refused_by_train(tmp_path, capsys):
    bad = dict(MOONS_CONFIG, structure={
        "repetitions": 2, "sum_nodes_per_region": 2, "leaf_distributions_per_region": 2,
        "leaf_family": "categorical", "categorical_cardinalities": [2, 2]})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(bad))
    out = tmp_path / "m.json"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 2
    assert "cannot train categorical leaves" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, value, key", [
    ("dataset", {"kind": "moons", "N": 100}, "N"),
    ("dataset", {"kind": "onehot", "n": 100, "noise": 0.1}, "noise"),
    ("split", {"train_fraction": 0.7, "test_fraction": 0.3}, "test_fraction"),
])
def test_unknown_data_option_is_named(tmp_path, capsys, section, value, key):
    bad = dict(MOONS_CONFIG, **{section: value})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(bad))
    out = tmp_path / "m.json"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert key in err and section in err
    assert not out.exists()


def test_unknown_top_level_key_is_named(tmp_path, capsys):
    bad = dict(MOONS_CONFIG, trian={"epochs": 1})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(bad))
    out = tmp_path / "m.json"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "top-level" in err and "trian" in err
    assert not out.exists()


def run_grid(tmp_path, model, grid):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"grid": grid}))
    out = tmp_path / "grid.csv"
    code = main(["grid", "--config", str(config), "--model", str(model),
                 "--resolution", "3", "--out", str(out)])
    assert code == 2 and not out.exists()


def test_unknown_grid_key_is_named(trained, tmp_path, capsys):
    run_grid(tmp_path, trained[2], {"X1": [0, 2]})
    err = capsys.readouterr().err
    assert "grid" in err and "X1" in err


@pytest.mark.parametrize("bounds", [[0], [1, 0], [0, 0], [0, float("nan")],
                                    [0, float("inf")], [float("-inf"), 0], "ab", 3,
                                    [0, True], [0, "1"]])
def test_bad_grid_bounds_are_named(trained, tmp_path, capsys, bounds):
    run_grid(tmp_path, trained[2], {"x1": [0, 1], "x2": bounds})
    assert "grid.x2 must be two finite numbers lo < hi" in capsys.readouterr().err


def test_grid_off_the_categories_of_a_categorical_model_exits_two(tmp_path, capsys):
    # Grid points 0, 0.5 and 1 on x2: 0.5 is no category of variable 1.
    model = tmp_path / "categorical.json"
    cm.save(build_circuit(2, StructureConfig(
        num_classes=2, seed=0, repetitions=2, sum_nodes_per_region=2,
        leaf_distributions_per_region=2, leaf_family="categorical",
        categorical_cardinalities=(3, 3))), model)
    run_grid(tmp_path, model, {"x1": [0, 2]})
    assert ("variable 1 has categorical value 0.5, not an integer in [0, 3)"
            in capsys.readouterr().err)


def test_invalid_model_document_exits_two(trained, tmp_path, capsys):
    doc = json.loads(trained[2].read_text())
    root = doc["class_roots"][0]
    log_weights = blob(doc, "log_weights")
    log_weights[blob(doc, "ptr")[root]] += 1.0      # the root's first edge
    set_blob(doc, "log_weights", log_weights)
    model = tmp_path / "bad.json"
    model.write_text(json.dumps(doc))
    code = main(["grid", "--model", str(model), "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert f"[weight-normalization] node {doc['class_roots'][0]}" in capsys.readouterr().err


def test_counterfactual_with_no_queries_warns_and_succeeds(tmp_path, capsys):
    csv_path = tmp_path / "flat.csv"
    rows = ["x1,x2,y"] + [f"0.{i},0.{9 - i},only" for i in range(10)] * 4
    csv_path.write_text("\n".join(rows) + "\n")
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps({"label": "y", "columns": [
        {"name": "x1", "kind": "continuous"},
        {"name": "x2", "kind": "continuous"}]}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "structure": {"repetitions": 2, "sum_nodes_per_region": 2,
                      "leaf_distributions_per_region": 2},
        "train": {"epochs": 2},
    }))
    model = tmp_path / "m.json"
    assert main(["train", "--config", str(config), "--data", str(csv_path),
                 "--schema", str(schema_path), "--out", str(model)]) == 0
    out = tmp_path / "r.jsonl"
    code = main(["counterfactual", "--config", str(config),
                 "--data", str(csv_path), "--schema", str(schema_path),
                 "--model", str(model), "--target-class", "0",
                 "--out", str(out)])
    assert code == 0
    assert "no queries" in capsys.readouterr().err
    assert read_results(out) == []


@pytest.mark.parametrize("command", ["counterfactual", "benchmark"])
def test_clip_to_unit_refuses_standardized_columns(tmp_path, capsys, command):
    # Clamping a standardized column to [0, 1] silently moved x = -2.4 to 0.
    rng = np.random.default_rng(0)
    csv_path = tmp_path / "std.csv"
    rows = ["x1,x2,y"] + [f"{a:.3f},{b:.3f},{'ab'[int(a + b > 0)]}"
                          for a, b in rng.normal(0.0, 1.0, size=(60, 2))]
    csv_path.write_text("\n".join(rows) + "\n")
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps({"label": "y", "columns": [
        {"name": "x1", "kind": "continuous"},
        {"name": "x2", "kind": "continuous", "scaling": "standard"}]}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "structure": {"repetitions": 2, "sum_nodes_per_region": 2,
                      "leaf_distributions_per_region": 2},
        "train": {"epochs": 2},
    }))
    model = tmp_path / "m.json"
    data_args = ["--config", str(config), "--data", str(csv_path),
                 "--schema", str(schema_path)]
    assert main(["train", *data_args, "--out", str(model)]) == 0
    code = main([command, *data_args, "--model", str(model), "--target-class", "0",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "column 'x2' is standardized" in err
    assert '"counterfactual": {"clip_to_unit": false}' in err


def test_benchmark_compares_methods(trained, tmp_path, capsys):
    _, config, model = trained
    out = tmp_path / "bench.json"
    code = main(["benchmark", "--config", str(config),
                 "--model", str(model), "--target-class", "1",
                 "--method", "both", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    methods = [r["method"] for r in doc["records"]]
    assert methods == ["two_step", "wachter"]
    for record in doc["records"]:
        assert 0.0 <= record["success_rate"] <= 1.0
        assert record["n"] > 0
        assert "mean_time_seconds" in record
        assert "median_abs_group_sum" not in record
    two_step = doc["records"][0]
    assert two_step["mean_grad_evals"] == 2.0


def test_benchmark_single_method_and_query_caps(trained, tmp_path):
    root, config, model = trained
    capped = dict(MOONS_CONFIG)
    capped["counterfactual"] = {"epsilon1": 0.1, "epsilon2": 0.01,
                                "max_queries": 6}
    capped["baseline"] = {"max_iters": 25, "max_queries": 3}
    cfg2 = tmp_path / "capped.json"
    cfg2.write_text(json.dumps(capped))
    out = tmp_path / "bench.json"
    code = main(["benchmark", "--config", str(cfg2),
                 "--model", str(model), "--target-class", "1",
                 "--method", "both", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    by_method = {r["method"]: r for r in doc["records"]}
    assert by_method["two_step"]["n"] == 6
    assert by_method["wachter"]["n"] == 3


@pytest.mark.parametrize("section", ["counterfactual", "baseline"])
@pytest.mark.parametrize("value", [-1, 2.7, "3", True])
def test_max_queries_must_be_a_non_negative_integer(trained, tmp_path, capsys,
                                                     section, value):
    _, _, model = trained
    bad = dict(MOONS_CONFIG)
    bad[section] = {**MOONS_CONFIG[section], "max_queries": value}
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(bad))
    out = tmp_path / "bench.json"
    code = main(["benchmark", "--config", str(cfg),
                 "--model", str(model), "--target-class", "1",
                 "--method", "both", "--out", str(out)])
    assert code == 2
    assert f"{section}.max_queries" in capsys.readouterr().err
    assert not out.exists()


def test_grid_exports_csv_fields(trained, tmp_path, passes):
    _, config, model = trained
    out = tmp_path / "grid.csv"
    code = main(["grid", "--model", str(model), "--resolution", "5",
                 "--out", str(out)])
    assert code == 0
    # the log-ratio gradient's pass also gives the log density and log ratio
    assert passes == {"forward": 2, "backward": 2}
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header == ["x1", "x2", "log_density", "log_ratio",
                      "dlogratio_dx1", "dlogratio_dx2",
                      "dlogdensity_dx1", "dlogdensity_dx2"]
    assert len(body) == 25
    values = np.array([[float(v) for v in row] for row in body])
    assert np.all(np.isfinite(values))
    # the class boundary crosses the unit square
    assert values[:, 3].min() < 0 < values[:, 3].max()
    # every value is the Python API's, bit for bit
    circuit = cm.load(model)
    points = values[:, :2]
    g1, g2 = np.meshgrid(np.linspace(0, 1, 5), np.linspace(0, 1, 5), indexing="ij")
    assert np.array_equal(points, np.column_stack([g1.ravel(), g2.ravel()]))
    cld = inference.class_log_densities(circuit, points)
    assert np.array_equal(values[:, 2], inference.log_density(circuit, points))
    assert np.array_equal(values[:, 3], cld[:, 1] - cld[:, 0])
    assert np.array_equal(values[:, 4:6], grad.grad_log_ratio(circuit, points, 0, 1))
    assert np.array_equal(values[:, 6:],
                          grad.grad_density(circuit, points, "log_density").values)


def test_grid_rejects_bad_resolution(trained, tmp_path, capsys):
    _, _, model = trained
    code = main(["grid", "--model", str(model), "--resolution", "1",
                 "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert "resolution" in capsys.readouterr().err


@pytest.mark.parametrize("flag, grid, message", [
    (["--resolution", "0"], {}, "--resolution must be an integer >= 2, got 0"),
    ([], {"resolution": 3.7}, "grid.resolution must be an integer >= 2, got 3.7"),
], ids=["flag-zero", "config-fraction"])
def test_grid_resolution_is_an_integer_of_at_least_two(trained, tmp_path, capsys,
                                                        flag, grid, message):
    # 0 does not fall back to the default, and 3.7 is not truncated to 3
    _, _, model = trained
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"grid": grid}))
    out = tmp_path / "g.csv"
    code = main(["grid", "--config", str(config), "--model", str(model), *flag,
                 "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, name", [
    (None, "seed", 7.5, "seed"),
    ("dataset", "n", 100.7, "dataset.n"),
    ("dataset", "seed", 2.9, "dataset.seed"),
    ("split", "seed", 1.5, "split.seed"),
    ("structure", "repetitions", "2", "repetitions"),
    ("structure", "seed", -1, "seed"),
    ("train", "epochs", 1.5, "epochs"),
    ("train", "batch_size", 2.5, "batch_size"),
    ("train", "patience", True, "patience"),
])
def test_train_refuses_config_integers_that_are_not_integers(tmp_path, capsys,
                                                            section, key, value, name):
    # a float is refused, not truncated, and a string or bool is bad input (exit 2)
    cfg = json.loads(json.dumps(MOONS_CONFIG))
    (cfg if section is None else cfg.setdefault(section, {}))[key] = value
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "m.json"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 2
    assert f"error: {name} must be an integer >= " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, message", [
    ("train", "learning_rate", "0.1", "learning_rate must be a finite number > 0, got '0.1'"),
    ("train", "variance_floor", True, "variance_floor must be a finite number > 0, got True"),
    ("counterfactual", "epsilon1", "0.1", "epsilon1 must be a finite number > 0, got '0.1'"),
    ("baseline", "lam", "1", "lam must be a finite number >= 0, got '1'"),
    ("dataset", "noise", True, "dataset.noise must be a finite number >= 0, got True"),
    ("dataset", "noise", "0.1", "dataset.noise must be a finite number >= 0, got '0.1'"),
    ("dataset", "noise", float("nan"), "dataset.noise must be a finite number >= 0, got nan"),
    ("split", "train_fraction", "0.5",
     "split.train_fraction must be a finite number > 0 and < 1, got '0.5'"),
    ("structure", "categorical_cardinalities", 3,
     "categorical_cardinalities must be a list of integers, got 3"),
])
def test_config_numbers_of_the_wrong_type_exit_two(trained, tmp_path, capsys,
                                                   section, key, value, message):
    _, _, model = trained
    cfg = json.loads(json.dumps(MOONS_CONFIG))
    cfg[section][key] = value
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(cfg))
    command = (["train", "--out", str(tmp_path / "m.json")]
               if section in ("train", "structure", "dataset", "split") else
               ["benchmark", "--model", str(model), "--target-class", "1",
                "--out", str(tmp_path / "bench.json")])
    assert main([command[0], "--config", str(config), *command[1:]]) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_benchmark_refuses_a_fractional_iteration_cap(trained, tmp_path, capsys):
    _, _, model = trained
    bad = {**MOONS_CONFIG, "baseline": {"max_iters": 2.5}}
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(bad))
    code = main(["benchmark", "--config", str(config), "--model", str(model),
                 "--target-class", "1", "--out", str(tmp_path / "bench.json")])
    assert code == 2
    assert "max_iters must be an integer >= 1, got 2.5" in capsys.readouterr().err


def test_output_must_not_overwrite_inputs(trained, tmp_path, capsys):
    _, config, model = trained
    code = main(["train", "--config", str(config), "--out", str(config)])
    assert code == 2
    assert "collides" in capsys.readouterr().err
    # nor may a sidecar that train writes next to its model
    for tag in ("report", "meta"):
        sidecar = tmp_path / f"m.{tag}.json"
        sidecar.write_bytes(config.read_bytes())
        code = main(["train", "--config", str(sidecar), "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "collides" in capsys.readouterr().err
        assert sidecar.read_bytes() == config.read_bytes()
        assert not (tmp_path / "m.json").exists()


def test_unknown_command_exits_with_usage_error(capsys):
    assert main(["explode"]) == 2
