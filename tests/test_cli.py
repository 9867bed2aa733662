import csv
import json

import numpy as np
import pytest

from cfspn import circuit as cm
from cfspn import counterfactual as cf
from cfspn import data
from cfspn.cli import main

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
    results = cf.load_results(out)
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
    assert cf.load_results(out)


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
    results = cf.load_results(results_path)
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
    results = cf.load_results(results_path)
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
    assert cf.load_results(out) == []


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


def test_grid_exports_csv_fields(trained, tmp_path):
    _, config, model = trained
    out = tmp_path / "grid.csv"
    code = main(["grid", "--model", str(model), "--resolution", "5",
                 "--out", str(out)])
    assert code == 0
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


def test_grid_rejects_bad_resolution(trained, tmp_path, capsys):
    _, _, model = trained
    code = main(["grid", "--model", str(model), "--resolution", "1",
                 "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert "resolution" in capsys.readouterr().err


def test_output_must_not_overwrite_inputs(trained, capsys):
    _, config, model = trained
    code = main(["train", "--config", str(config), "--out", str(config)])
    assert code == 2
    assert "collides" in capsys.readouterr().err


def test_unknown_command_exits_with_usage_error(capsys):
    assert main(["explode"]) == 2
