"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at reduced size, untraced and traced, and requires each
run to pass its output checks and emit every metric ``BENCHMARK.json``
names.  Two traced runs of the same seed must give the same counts.  Then it
doctors cfspn's outputs one way at a time and requires the run to report
``correct: false``.  Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

import run

COUNTS = ("engine.forward.calls", "engine.forward.rows", "engine.backward.calls",
          "engine.backward.rows", "counterfactual.forward_per_query",
          "counterfactual.backward_per_query", "counterfactual.grad_evals_per_query",
          "inference.calls", "inference.rows", "grad.calls", "grad.evals",
          "structure.nodes")


def small_workloads():
    from workloads import MoonsExplain, WideBatch

    return [
        MoonsExplain(n=300, repetitions=3, epochs=1, grid=8, wachter_queries=2,
                     wachter_iters=3),
        WideBatch(d=8, depth=2, repetitions=2, fit_rows=48, test_rows=16,
                  pool_rows=16, queries=4, queries_per_round=2, wachter_queries=2,
                  wachter_iters=3),
    ]


@contextlib.contextmanager
def doctored(module, name: str, change):
    """Replace ``module.name`` with a version whose output passes through ``change``."""
    original = getattr(module, name)
    setattr(module, name, lambda *args: change(original(*args)))
    try:
        yield
    finally:
        setattr(module, name, original)


def main() -> int:
    caps, nproc = run.cap_threads()
    run.import_cfspn()
    import numpy as np
    from cfspn import counterfactual, grad, inference

    bench = run.spec()
    units = {t: {m["name"]: m["unit"] for m in bench[g]}
             for t, g in ((0, "end_to_end"), (1, "per_layer"))}
    failures = []

    def go(workload, trace: int) -> dict:
        args = argparse.Namespace(workload=workload.name, seed=0, seconds=0.1, trace=trace)
        return run.run(workload, args, units[trace], caps, nproc)[0]

    def expect(ok: bool, what: str) -> None:
        print(("ok      " if ok else "FAILED  ") + what)
        if not ok:
            failures.append(what)

    workloads = small_workloads()
    for w in workloads:
        for trace in (0, 1):
            result = go(w, trace)
            values = {k: m["value"] for k, m in result["metrics"].items()}
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{w.name} trace {trace}: checks pass, nothing fails")
            expect(set(values) == set(units[trace])
                   and all(isinstance(v, float) and math.isfinite(v) for v in values.values()),
                   f"{w.name} trace {trace}: every metric emitted as a finite number")
            if trace == 0:
                # success rate and accuracy of these tiny models may well be 0
                expect(all(v != 0 for k, v in values.items()
                           if units[0][k] != "ratio"),
                       f"{w.name}: no end-to-end time, rate or size is 0")
            else:
                expect(values["counterfactual.grad_evals_per_query"] == 2,
                       f"{w.name}: two gradient evaluations per two-step query")
                again = go(w, trace)["metrics"]
                expect(all(again[k]["value"] == values[k] for k in COUNTS),
                       f"{w.name}: traced counts repeat exactly")

    def extra_eval(r):
        r.grad_evals += 1
        return r

    def nan_row(G):
        G = G.copy()
        G[0, 0] = np.nan
        return G

    def shifted_row(G):
        G = G.copy()
        G[-1] += 1e-3
        return G

    cases = [
        (counterfactual, "generate", extra_eval, "a query reports 3 gradient evaluations"),
        (inference, "posterior", lambda P: P + 0.1, "the posterior does not normalize"),
        (grad, "grad_log_density_batch", nan_row, "a grid gradient is NaN"),
        (grad, "grad_log_ratio_batch", shifted_row,
         "a batched gradient row differs from the single-row one"),
    ]
    moons = workloads[0]
    for module, name, change, what in cases:
        with doctored(module, name, change):
            result = go(moons, 0)
        expect(not result["correct"], f"doctored: {what} -> correct is false")

    print(f"{len(failures)} self-test case(s) failed" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
