"""Layered benchmark of cfspn: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload moons-explain --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` sets the model up several times, runs rounds of the
workload's phases between and after the set-ups until ``--seconds`` of rounds
are measured, and prints the end-to-end metrics named in ``BENCHMARK.json``.  ``--trace 1`` sets up
once with tracing on, runs one round untraced and the same round traced,
sweeps the engine over batch sizes and prints the per-layer metrics.
``--workload all`` runs every workload in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record
(versions, thread caps, samples behind each metric, per-phase counts) and,
when traced, the spans go to ``perfbench/out/``.

Exit status: 0 when every output check passed, 1 when one failed, 2 when
the command line is wrong or no cfspn source is found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def cap_threads() -> tuple[dict[str, int], int]:
    """Cap BLAS and OpenMP threads at the usable CPUs; call before importing numpy."""
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for var in THREAD_VARS:
        try:
            value = min(int(os.environ[var]), nproc)
        except (KeyError, ValueError):
            value = nproc
        os.environ[var] = str(max(value, 1))
        caps[var] = max(value, 1)
    return caps, nproc


def import_cfspn():
    """Import cfspn from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "cfspn" / "__init__.py").is_file():
        raise FileNotFoundError(f"no cfspn package under {src}")
    sys.path.insert(0, str(src))
    import cfspn
    if Path(cfspn.__file__).resolve().parent != (src / "cfspn").resolve():
        raise ImportError(f"cfspn imported from {cfspn.__file__}, not {src}")


def run_record(args, caps: dict, nproc: int) -> dict:
    import numpy as np
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cfspn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": caps, "nproc": nproc, "machine": platform.machine(),
    }


def nearest_rank(values: list[float], pct: float) -> float:
    """Percentile without interpolation, so a failed call (inf) stays inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * pct / 100) - 1)]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def end_to_end(rec, setups, prep) -> dict[str, tuple[float, int, str]]:
    """name -> (value, samples, how the value was taken); NaN where every call failed.

    ``setups`` holds (set-up seconds, fit rows per second) of each set-up.
    """
    s = rec.samples
    lat, wach = s["cf_latency"], s["wachter_latency"]
    outcomes = rec.cf_success.values()
    return {
        "setup_s": (median(t for t, _ in setups), len(setups), "median of set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1,
                        "process peak resident set"),
        "cf_p50_ms": (nearest_rank(lat, 50) * 1e3, len(lat), "p50 of generate calls"),
        "cf_p90_ms": (nearest_rank(lat, 90) * 1e3, len(lat), "p90 of generate calls"),
        "cf_qps": (rec.cf_completed / rec.cf_seconds if rec.cf_seconds else math.nan,
                   rec.cf_completed,
                   "completed queries / seconds in two-step calls"),
        "cf_success_rate": (sum(outcomes) / len(outcomes), len(outcomes),
                            "share of distinct two-step queries"),
        "wachter_p50_ms": (nearest_rank(wach, 50) * 1e3, len(wach), "p50 of wachter calls"),
        "infer_rows_per_s": (median(s["infer_rows_per_s"]), len(s["infer_rows_per_s"]),
                             "median over posterior calls"),
        "grad_rows_per_s": (median(s["grad_rows_per_s"]), len(s["grad_rows_per_s"]),
                            "median over gradient batches"),
        "fit_rows_per_s": (median(r for _, r in setups), len(setups),
                           "median of set-up fits"),
        "fit_test_accuracy": (prep["accuracy"], 1, "held-out rows"),
    }


def measure(workload, seed: int, seconds: float):
    """Set up SETUPS times with a round of phases after each but the last,
    then run rounds until ``seconds`` of rounds are measured.

    Spreading the rounds over the whole run, set-ups included, lets every
    metric sample more of the slow drift in processor speed on shared hosts.
    """
    from workloads import SETUPS, Recorder, check_same_model, set_up

    rec = Recorder()
    setups, measured, rounds = [], 0.0, 0
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for i in range(SETUPS):
            new = set_up(workload, rec, Path(tmp))
            setups.append((new.setup_s, new.fit_rows_per_s))
            if i == 0:
                model = new
                prep = workload.prepare(model, seed, rec)
                workload.warm_up(model, prep, rec)
                rec.clear_samples()
            else:
                # Only the first model is kept, so later set-ups add no
                # circuit of the benchmark's own to the peak resident set.
                check_same_model(rec, new, model)
            del new
            last = i == SETUPS - 1
            while measured < seconds and (last or rounds <= i):
                t0 = time.perf_counter()
                workload.round(rounds, model, prep, rec)
                measured += time.perf_counter() - t0
                rounds += 1
    return rec, end_to_end(rec, setups, prep), {"rounds": rounds, "measured_s": measured}


def trace(workload, seed: int, spans_path: Path):
    from spans import Tracer, layer_metrics
    from workloads import Recorder, set_up, sweep

    tracer = Tracer()
    rec = Recorder(quiet=tracer.paused)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp, tracer:
        model = set_up(workload, rec, Path(tmp))
    prep = workload.prepare(model, seed, rec)
    workload.warm_up(model, prep, rec)

    rec.clear_samples()
    t0 = time.perf_counter()
    workload.round(0, model, prep, rec)
    plain_s = time.perf_counter() - t0
    timed = [(dt, r) for dt, r in rec.cf_results if r is not None and dt == dt]
    wall = sum(dt for dt, _ in timed)
    step_share = sum(sum(r.elapsed) for _, r in timed) / wall if wall else math.nan
    per_iter = list(rec.samples["wachter_ms_per_iter"])

    with tracer:
        t0 = time.perf_counter()
        workload.round(0, model, prep, rec)
        traced_s = time.perf_counter() - t0
    tracer.write_jsonl(spans_path)

    metrics = {name: (value, 1, "traced run")
               for name, value in layer_metrics(tracer.spans).items()}
    for name, value in sweep(model, prep["sweep_rows"], workload.sweep_reps).items():
        metrics[name] = (value, workload.sweep_reps[int(name.rsplit("b", 1)[1])],
                         "median of untraced calls")
    metrics.update({
        "structure.nodes": (len(model.circuit.nodes), 1, "built circuit"),
        "counterfactual.step_share": (step_share, len(timed), "untraced round"),
        "counterfactual.wachter.ms_per_iter": (
            median(per_iter), len(per_iter), "untraced round"),
        "trace.overhead_s": (traced_s - plain_s, 1, "traced minus untraced round"),
    })
    return rec, metrics, {"untraced_round_s": plain_s, "traced_round_s": traced_s,
                          "spans": len(tracer.spans)}


def run(workload, args, units: dict[str, str], caps: dict,
        nproc: int) -> tuple[dict, dict]:
    """One workload run: (the result line's object, the full run record)."""
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        rec, metrics, info = trace(workload, args.seed, OUT / f"{stem}.spans.jsonl")
    else:
        rec, metrics, info = measure(workload, args.seed, args.seconds)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise KeyError(f"metrics not produced: {', '.join(missing)}")
    result = {
        "correct": not rec.bad_checks,
        "attempted": sum(rec.attempted.values()),
        "failed": sum(rec.failed.values()),
        "metrics": {name: {"value": _number(metrics[name][0]), "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "record": run_record(args, caps, nproc), **info,
        "phases": {p: {"attempted": rec.attempted[p], "failed": rec.failed[p],
                       "checks": rec.checked[p]}
                   for p in sorted(set(rec.attempted) | set(rec.checked))},
        "failed_checks": rec.bad_checks, "errors": rec.errors,
        "metrics": {name: {"value": _number(v), "unit": units.get(name),
                           "samples": n, "taken_as": how}
                    for name, (v, n, how) in metrics.items()},
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return result, record


def _number(value):
    """A float for JSON; None stands for a value no call could produce."""
    value = float(value)
    return value if math.isfinite(value) else None


def report(record: dict) -> None:
    r = record["record"]
    print(f"cfspn benchmark: {r['workload']}, seed {r['seed']}, trace {r['trace']}, "
          f"git {r['git_sha']}, source {r['source_sha256'][:12]}")
    print(f"python {r['python']}, numpy {r['numpy']}, scipy {r['scipy']}, "
          f"blas {r['blas']}, nproc {r['nproc']}, thread caps {r['thread_caps']}")
    print(f"{'phase':<12} {'attempted':>9} {'failed':>6} {'checks':>7}")
    for phase, c in record["phases"].items():
        print(f"{phase:<12} {c['attempted']:>9} {c['failed']:>6} {c['checks']:>7}")
    for line in record["failed_checks"] + record["errors"]:
        print(f"FAILED {line}")
    print(f"{'metric':<38} {'value':>14} {'unit':<10} {'samples':>7}  taken as")
    for name, m in record["metrics"].items():
        value = "-" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:<38} {value:>14} {m['unit'] or '':<10} {m['samples']:>7}  "
              f"{m['taken_as']}")
    fwd = record["metrics"].get("engine.forward.us_per_row.b1")
    if fwd:
        for kind in ("forward", "backward"):
            base = record["metrics"][f"engine.{kind}.us_per_row.b1"]["value"]
            for B in (32, 256):
                per_row = record["metrics"][f"engine.{kind}.us_per_row.b{B}"]["value"]
                print(f"engine.{kind} cost per row at B={B}: {per_row:.4g} us "
                      f"= {per_row / base:.3g} x the B=1 base of {base:.4g} us")


def main(argv=None) -> int:
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        status = 0
        for name in names:
            done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], check=False)
            status = max(status, done.returncode)
        return status

    caps, nproc = cap_threads()
    try:
        import_cfspn()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[group]}
    from workloads import WORKLOADS

    result, record = run(WORKLOADS[args.workload], args, units, caps, nproc)
    report(record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
