"""Command-line pipeline: train, counterfactual, benchmark, grid.

One JSON config file drives every command; a handful of flags override the
common knobs.  All outputs are machine-readable (model JSON, report JSON,
results JSON-lines, metrics JSON, grid CSV) and byte-reproducible given the
same config, seed and inputs, timing fields aside.

Exit codes: 0 success, 1 internal fault, 2 bad user input.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import circuit as circuit_mod
from . import counterfactual as cf
from . import data as data_mod
from . import grad, inference
from .structure import StructureConfig, build_circuit
from .training import TrainConfig, fit


def _read_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return cfg


def _section(cfg: dict, name: str) -> dict:
    value = cfg.get(name, {})
    if not isinstance(value, dict):
        raise ValueError(f"config section {name!r} must be an object")
    return dict(value)


#: The keys each dataset kind reads, besides ``kind``; and the split's keys.
_DATASET_KEYS = {
    "mnist": {"dir", "digits"},
    "csv": {"path", "schema"},
    "moons": {"n", "noise", "seed"},
    "rings": {"n", "noise", "seed"},
    "onehot": {"n", "seed"},
}
_SPLIT_KEYS = {"train_fraction", "seed"}


def _check_keys(where: str, keys, allowed: set[str]) -> None:
    unknown = sorted(set(keys) - allowed)
    if unknown:
        raise ValueError(f"unknown {where} option(s): {', '.join(unknown)}")


def _build_config(cls, section: dict, **overrides):
    _check_keys(cls.__name__, section, {f.name for f in dataclasses.fields(cls)})
    merged = {**section, **{k: v for k, v in overrides.items() if v is not None}}
    if "categorical_cardinalities" in merged and merged["categorical_cardinalities"]:
        merged["categorical_cardinalities"] = tuple(
            merged["categorical_cardinalities"])
    return cls(**merged)


def _global_seed(cfg: dict, args) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    return int(cfg.get("seed", 0))


def _load_pair(cfg: dict, args, seed: int):
    """Materialize (train, test) datasets from the config's dataset section."""
    section = _section(cfg, "dataset")
    given = set(section)
    if getattr(args, "data", None):
        section.setdefault("kind", "csv")
        section["path"] = args.data
    if getattr(args, "schema", None):
        section["schema"] = args.schema
    kind = section.get("kind", "csv")
    if kind not in _DATASET_KEYS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    _check_keys(f"{kind} dataset", given, _DATASET_KEYS[kind] | {"kind"})
    split_cfg = _section(cfg, "split")
    _check_keys("split", split_cfg, _SPLIT_KEYS)
    fraction = float(split_cfg.get("train_fraction", 0.7))
    split_seed = int(split_cfg.get("seed", seed))

    if kind == "mnist":
        if "dir" not in section:
            raise ValueError("dataset.dir is required for MNIST data")
        digits = section.get("digits", [1, 3, 4, 7, 8])
        train = data_mod.load_mnist(section["dir"], digits, part="train")
        test = data_mod.load_mnist(section["dir"], digits, part="t10k")
        return train, test
    if kind == "csv":
        if "path" not in section:
            raise ValueError("dataset.path (or --data) is required for CSV data")
        if "schema" not in section:
            raise ValueError("dataset.schema (or --schema) is required for CSV data")
        schema = data_mod.Schema.from_json(section["schema"])
        dataset = data_mod.load_csv(section["path"], schema)
    elif kind in ("moons", "rings"):
        maker = data_mod.make_moons if kind == "moons" else data_mod.make_rings
        dataset = maker(int(section.get("n", 2000)),
                        float(section.get("noise", 0.1)),
                        int(section.get("seed", seed)))
    elif kind == "onehot":
        dataset = data_mod.make_onehot_tabular(int(section.get("n", 1200)),
                                               int(section.get("seed", seed)))
    return data_mod.split(dataset, fraction, split_seed)


def _check_distinct(inputs, outputs) -> None:
    used = {str(Path(p)) for p in inputs if p}
    for out in outputs:
        if out and str(Path(out)) in used:
            raise ValueError(f"output path {out} collides with an input path")


def _sidecar(model_path: str, tag: str) -> Path:
    path = Path(model_path)
    return path.with_name(path.stem + f".{tag}.json")


def cmd_train(args) -> int:
    cfg = _read_config(args.config)
    seed = _global_seed(cfg, args)
    out = args.out or "model.json"
    train_ds, test_ds = _load_pair(cfg, args, seed)
    _check_distinct([args.config, args.data, args.schema], [out])

    structure = _build_config(
        StructureConfig, _section(cfg, "structure"),
        num_classes=train_ds.num_classes,
        seed=seed if "seed" not in _section(cfg, "structure") else None)
    train_cfg = _build_config(
        TrainConfig, _section(cfg, "train"),
        seed=seed if "seed" not in _section(cfg, "train") else None)

    model = build_circuit(train_ds.dimension, structure)
    fitted, report = fit(model, train_ds, train_cfg)
    circuit_mod.save(fitted, out)

    test_accuracy = inference.accuracy(fitted, test_ds.features, test_ds.labels)
    doc = {
        "train_report": report.to_dict(),
        "test_accuracy": test_accuracy,
        "structure": {k: (list(v) if isinstance(v, tuple) else v)
                      for k, v in vars(structure).items()},
        "train_config": vars(train_cfg),
        "n_train": len(train_ds),
        "n_test": len(test_ds),
    }
    with open(_sidecar(out, "report"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    if train_ds.meta is not None:
        with open(_sidecar(out, "meta"), "w", encoding="utf-8") as fh:
            json.dump(train_ds.meta.to_dict(), fh, indent=1)
            fh.write("\n")
    print(f"model written to {out}; test accuracy {test_accuracy:.4f} "
          f"({report.epochs_run} epochs)")
    return 0


def _query_setup(args, default_out: str):
    """Set-up shared by counterfactual and benchmark: the config, the model,
    the output path, the test set, the two-step config with flag overrides,
    and the queries (x, y, y'), test rows predicted as another class."""
    cfg = _read_config(args.config)
    seed = _global_seed(cfg, args)
    if not args.model:
        raise ValueError("--model is required")
    model = circuit_mod.load(args.model)
    out = args.out or default_out
    _check_distinct([args.config, args.model, args.data, args.schema], [out])
    _, test_ds = _load_pair(cfg, args, seed)
    if test_ds.dimension != model.num_variables:
        raise ValueError(f"dataset has {test_ds.dimension} features, model "
                         f"has {model.num_variables}")
    if args.target_class is None:
        raise ValueError("--target-class is required")
    y_prime = int(args.target_class)
    if not (0 <= y_prime < model.num_classes):
        raise ValueError(f"target class {y_prime} out of range "
                         f"[0, {model.num_classes})")

    cf_section = _section(cfg, "counterfactual")
    limit = cf_section.pop("max_queries", None)
    cf_cfg = _build_config(
        cf.CfConfig, cf_section,
        epsilon1=args.epsilon1, epsilon2=args.epsilon2, grad_mode=args.grad_mode)
    preds = inference.predict(model, test_ds.features)
    rows = np.flatnonzero(preds != y_prime)
    if limit is not None:
        rows = rows[:int(limit)]
    queries = [(test_ds.features[i], int(preds[i]), y_prime) for i in rows]
    return cfg, model, out, test_ds, cf_cfg, queries


def cmd_counterfactual(args) -> int:
    _, model, out, _, cf_cfg, queries = _query_setup(args, "cf_results.jsonl")
    results = cf.run_queries(model, queries, "two_step", cf_cfg)
    cf.save_results(out, results)
    if not results:
        print("warning: no queries (every test row already predicts the "
              "target class)", file=sys.stderr)
        return 0
    metrics = cf.summarize(results)
    print(f"{len(results)} counterfactuals written to {out}")
    print(f"success rate {metrics.success_rate:.3f}, mean log density "
          f"{metrics.mean_log_density:.3f}, mean time {metrics.mean_time:.4f}s")
    return 0


def cmd_benchmark(args) -> int:
    cfg, model, out, test_ds, cf_cfg, queries = _query_setup(args,
                                                             "benchmark.json")
    baseline_section = _section(cfg, "baseline")
    wachter_limit = baseline_section.pop("max_queries", None)
    baseline_cfg = _build_config(cf.BaselineConfig, baseline_section)
    methods = list(cf.METHODS) if args.method == "both" else [args.method]
    if not queries:
        print("warning: no queries for the benchmark", file=sys.stderr)
        methods = []

    dataset_name = _section(cfg, "dataset").get("kind", "csv")
    one_hot = test_ds.meta is not None and bool(test_ds.meta.group_slices())
    records = []
    for method in methods:
        method_queries = queries
        if method == "wachter" and wachter_limit is not None:
            method_queries = queries[:int(wachter_limit)]
        config = cf_cfg if method == "two_step" else baseline_cfg
        results = cf.run_queries(model, method_queries, method,
                                 cf_cfg, baseline_cfg)
        metrics = cf.summarize(results)
        record = cf.metrics_record(metrics, method, dataset_name, config)
        line = (f"{method}: n={metrics.n} success={metrics.success_rate:.3f} "
                f"mean_logdens={metrics.mean_log_density:.3f} "
                f"mean_time={metrics.mean_time:.4f}s "
                f"mean_l1={metrics.mean_l1_distance:.4f} "
                f"mean_grad_evals={metrics.mean_grad_evals:.1f}")
        if one_hot:
            record["median_abs_group_sum"] = cf.one_hot_consistency(
                results, test_ds.meta).median_abs_sum
            line += f" median_abs_group_sum={record['median_abs_group_sum']:.4f}"
        records.append(record)
        print(line)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"dataset": cfg.get("dataset", {}), "records": records},
                  fh, indent=1)
        fh.write("\n")
    print(f"benchmark written to {out}")
    return 0


def cmd_grid(args) -> int:
    cfg = _read_config(args.config)
    if not args.model:
        raise ValueError("--model is required")
    model = circuit_mod.load(args.model)
    if model.num_variables != 2:
        raise ValueError(f"grid export needs a 2-variable model, this one "
                         f"has {model.num_variables}")
    out = args.out or "grid.csv"
    _check_distinct([args.config, args.model], [out])

    resolution = int(args.resolution or cfg.get("grid", {}).get("resolution", 50))
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    bounds = cfg.get("grid", {})
    x1_lo, x1_hi = bounds.get("x1", [0.0, 1.0])
    x2_lo, x2_hi = bounds.get("x2", [0.0, 1.0])

    y_prime = int(args.target_class) if args.target_class is not None else 1
    if not (0 <= y_prime < model.num_classes):
        raise ValueError(f"target class {y_prime} out of range")
    y = 0 if y_prime != 0 else 1
    if y >= model.num_classes:
        raise ValueError("grid log-ratio needs at least two classes")

    xs = np.linspace(x1_lo, x1_hi, resolution)
    ys = np.linspace(x2_lo, x2_hi, resolution)
    g1, g2 = np.meshgrid(xs, ys, indexing="ij")
    points = np.column_stack([g1.ravel(), g2.ravel()])

    logdens = inference.log_density(model, points)
    cld = inference.class_log_densities(model, points)
    logratio = cld[:, y_prime] - cld[:, y]
    dlr = grad.grad_log_ratio_batch(model, points, y, y_prime)
    dld = grad.grad_log_density_batch(model, points)

    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "log_density", "log_ratio",
                         "dlogratio_dx1", "dlogratio_dx2",
                         "dlogdensity_dx1", "dlogdensity_dx2"])
        for i in range(points.shape[0]):
            writer.writerow([repr(float(v)) for v in (
                points[i, 0], points[i, 1], logdens[i], logratio[i],
                dlr[i, 0], dlr[i, 1], dld[i, 0], dld[i, 1])])
    print(f"{points.shape[0]} grid rows written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfspn",
        description="Class-conditional probabilistic circuits with "
                    "two-gradient-step counterfactuals")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, model: bool = False) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="global seed override")
        p.add_argument("--out", help="output path")
        p.add_argument("--data", help="CSV dataset path")
        p.add_argument("--schema", help="JSON schema sidecar path")
        if model:
            p.add_argument("--model", help="trained model JSON")

    p_train = sub.add_parser("train", help="fit a model and write it to disk")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_cf = sub.add_parser("counterfactual",
                          help="generate counterfactuals for test queries")
    common(p_cf, model=True)
    p_cf.add_argument("--target-class", type=int)
    p_cf.add_argument("--epsilon1", type=float)
    p_cf.add_argument("--epsilon2", type=float)
    p_cf.add_argument("--grad-mode", choices=list(grad.GRAD_MODES))
    p_cf.set_defaults(func=cmd_counterfactual)

    p_bench = sub.add_parser("benchmark",
                             help="compare methods on one query set")
    common(p_bench, model=True)
    p_bench.add_argument("--target-class", type=int)
    p_bench.add_argument("--epsilon1", type=float)
    p_bench.add_argument("--epsilon2", type=float)
    p_bench.add_argument("--grad-mode", choices=list(grad.GRAD_MODES))
    p_bench.add_argument("--method", choices=["two_step", "wachter", "both"],
                         default="both")
    p_bench.set_defaults(func=cmd_benchmark)

    p_grid = sub.add_parser("grid", help="export density/gradient fields on "
                                         "a 2D grid as CSV")
    p_grid.add_argument("--config", help="JSON config file")
    p_grid.add_argument("--model", help="trained model JSON")
    p_grid.add_argument("--out", help="output CSV path")
    p_grid.add_argument("--resolution", type=int)
    p_grid.add_argument("--target-class", type=int)
    p_grid.set_defaults(func=cmd_grid)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal fault
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
