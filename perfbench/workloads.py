"""The benchmark's two workloads: set-up, measured rounds and output checks.

Both workloads drive cfspn the way a user does, through its public
functions, with one client in one process (a closed loop: each call starts
when the previous one returns).  Each sets up a model (build, fit, save,
load) from fixed training and held-out sets, so every run explains the same
model and scores the same rows; the run's seed orders the queries, picks the
``wachter`` subset and draws the rows the engine sweep (and, on
``wide-batch``, the batch phases) run on.  Then it runs rounds of phases:

* ``moons-explain``: the README model (8,362 nodes) on two moons.  The
  circuit is tiny, so per-call overhead and the number of passes per query
  dominate.  Phases: a closed loop of ``generate`` calls over every held-out
  row predicted as class 0, one ``run_queries`` over the same set,
  ``wachter`` on a fixed subset at a fixed iteration count, and the ``grid``
  path on a 40x40 lattice (posterior plus both gradient batches).
* ``wide-batch``: a d=64, depth-3 model (64,602 nodes) on a two-class
  Gaussian set.  The padded sum levels and their memory dominate.  Phases:
  the posterior over 256 rows, a 256-row gradient batch, 50 single two-step
  queries toward the other class, and ``wachter`` on 4 queries at a fixed
  iteration count.

Every operation is timed from outside; one that raises counts as failed and
as missing every latency limit.  Outputs are checked as they arrive; see
``check_*`` below.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

from cfspn import circuit, data, engine, grad, inference, structure, training
from cfspn import counterfactual as cf

#: Set-ups per run; ``setup_s`` and ``fit_rows_per_s`` are their medians.
SETUPS = 3

#: Seed of every model's training set, structure and fit.
MODEL_SEED = 7

#: Tolerance for batch output against single-row output, and for normalization.
ATOL = 1e-9


class Recorder:
    """Samples, attempted and failed operations, and checks, per phase."""

    def __init__(self, quiet=contextlib.nullcontext):
        self.quiet = quiet           # context in which checks run untraced
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.checked: Counter = Counter()
        self.errors: list[str] = []
        self.bad_checks: list[str] = []
        self.cf_results: list = []   # (wall seconds, CfResult or None) per query
        self.cf_success: dict = {}   # query key -> reached its target on every run
        self.cf_completed = 0        # two-step queries that returned ...
        self.cf_seconds = 0.0        # ... and the seconds spent in them

    def call(self, phase: str, fn, *args, count: int = 1):
        """Run and time one call of ``count`` operations.

        Returns (result, seconds), or (None, inf) if the call raised, in
        which case all ``count`` operations count as failed.
        """
        self.attempted[phase] += count
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed[phase] += count
            self.errors.append(f"{phase}: {type(exc).__name__}: {exc}")
            return None, math.inf
        return out, time.perf_counter() - t0

    def clear_samples(self) -> None:
        """Forget timings and results so far (after a warm-up); keep the counts."""
        self.samples.clear()
        self.cf_results.clear()
        self.cf_success.clear()
        self.cf_completed, self.cf_seconds = 0, 0.0

    def check(self, phase: str, ok: bool, what: str) -> None:
        self.checked[phase] += 1
        if not ok:
            self.bad_checks.append(f"{phase}: {what}")

    def cf_outcome(self, key, r) -> None:
        self.cf_success[key] = self.cf_success.get(key, True) and r is not None and r.success

    def rate(self, name: str, rows: int, seconds: float) -> None:
        self.samples[name].append(rows / seconds if seconds > 0 else 0.0)


@dataclass
class Model:
    circuit: circuit.Circuit
    test: data.Dataset
    setup_s: float
    fit_rows_per_s: float


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(v)) for v in values)


def _sample_rows(n: int) -> list[int]:
    return sorted({0, n // 2, n - 1})


def check_cf(rec: Recorder, phase: str, r) -> None:
    rec.check(phase, r.grad_evals == 2,
              f"query reports {r.grad_evals} gradient evaluations, not 2")
    rec.check(phase, _finite(r.x, r.u, r.x_prime, r.logdens_x, r.logdens_u,
                             r.logdens_x_prime), "non-finite counterfactual value")


def check_posterior(rec: Recorder, phase: str, model, X, P) -> None:
    rec.check(phase, _finite(P), "non-finite posterior")
    rec.check(phase, bool(np.all(np.abs(logsumexp(P, axis=1)) <= ATOL)),
              "posterior does not normalize")
    with rec.quiet():
        for i in _sample_rows(len(X)):
            single = inference.posterior(model, X[i])
            rec.check(phase, bool(np.allclose(single, P[i], rtol=0, atol=ATOL)),
                      f"batched posterior row {i} differs from the single-row posterior")


def check_grads(rec: Recorder, phase: str, G, X, single) -> None:
    rec.check(phase, _finite(G), "non-finite gradient")
    with rec.quiet():
        for i in _sample_rows(len(X)):
            rec.check(phase, bool(np.allclose(G[i], single(X[i]), rtol=1e-7, atol=ATOL)),
                      f"batched gradient row {i} differs from the single-row gradient")


def set_up(workload, rec: Recorder, workdir: Path) -> Model:
    """Generate data, build, fit, save and load; timed as one set-up.

    The data, structure and fit come from the fixed model seed, so every
    set-up of every run gives the same model.
    """
    t0 = time.perf_counter()
    train, test = workload.data()
    built = structure.build_circuit(train.dimension, workload.structure())
    config = workload.train_config()
    t_fit = time.perf_counter()
    fitted, _ = training.fit(built, train, config)
    fit_s = time.perf_counter() - t_fit
    path = workdir / "model.json"
    circuit.save(fitted, path)
    loaded = circuit.load(path)
    setup_s = time.perf_counter() - t0
    with rec.quiet():
        rec.check("setup", circuit.structural_equal(loaded, fitted),
                  "loaded circuit differs from the saved one")
    n_train = len(train) - int(round(config.validation_fraction * len(train)))
    return Model(loaded, test, setup_s, n_train * config.epochs / fit_s)


def check_same_model(rec: Recorder, model: Model, first: Model) -> None:
    with rec.quiet():
        rec.check("setup", circuit.structural_equal(model.circuit, first.circuit),
                  "repeated set-up with the same seed gave another model")


def _queries(features, preds, targets, order) -> list:
    """Two-step queries as (key, (x, y, y_prime)), keyed by row, in ``order``."""
    return [(int(i), (features[i], int(preds[i]), int(targets[i]))) for i in order]


def _two_step_loop(rec: Recorder, model, queries, config) -> list:
    """Closed loop of ``generate`` calls; returns the results, None where one raised."""
    timed = [rec.call("two_step", cf.generate, model, *q, config) for _, q in queries]
    for (key, _), (r, dt) in zip(queries, timed):
        rec.samples["cf_latency"].append(dt)
        rec.cf_results.append((dt, r))
        rec.cf_outcome(key, r)
        if r is not None:
            check_cf(rec, "two_step", r)
    rec.cf_completed += sum(r is not None for r, _ in timed)
    rec.cf_seconds += sum(dt for r, dt in timed if r is not None)
    return [r for r, _ in timed]


def _wachter(rec: Recorder, model, queries, config) -> None:
    for _, (x, _, y_prime) in queries:
        r, dt = rec.call("wachter", cf.wachter_baseline, model, x, y_prime, config)
        rec.samples["wachter_latency"].append(dt)
        if r is not None:
            rec.samples["wachter_ms_per_iter"].append(r.elapsed[0] * 1e3 / r.iterations)
            rec.check("wachter", r.iterations == config.max_iters == r.grad_evals,
                      f"{r.iterations} iterations and {r.grad_evals} gradient "
                      f"evaluations for a fixed {config.max_iters}")
            rec.check("wachter", _finite(r.x_prime, r.logdens_x_prime),
                      "non-finite counterfactual value")


def _posterior(rec: Recorder, model, X) -> None:
    P, dt = rec.call("posterior", inference.posterior, model, X)
    if P is not None:
        rec.rate("infer_rows_per_s", len(X), dt)
        check_posterior(rec, "posterior", model, X, P)


def _grad_batch(rec: Recorder, model, X, mode: str, y: int, y_prime: int) -> None:
    if mode == "log_ratio":
        G, dt = rec.call("grad", grad.grad_log_ratio_batch, model, X, y, y_prime)
        single = lambda x: grad.grad_log_ratio(model, x, y, y_prime)  # noqa: E731
    else:
        G, dt = rec.call("grad", grad.grad_log_density_batch, model, X)
        single = lambda x: grad.grad_density(model, x, "log_density").values  # noqa: E731
    if G is not None:
        rec.rate("grad_rows_per_s", len(X), dt)
        check_grads(rec, "grad", G, X, single)


@dataclass(frozen=True)
class MoonsExplain:
    """Two moons, README data and structure, 5-epoch fit; explain the held-out
    rows predicted as class 0."""

    name = "moons-explain"
    n: int = 2000
    repetitions: int = 19
    epochs: int = 5
    grid: int = 40
    wachter_queries: int = 10
    wachter_iters: int = 100
    two_step = cf.CfConfig(epsilon1=0.1, epsilon2=0.01)    # the README's steps
    sweep_reps = {1: 50, 32: 20, 256: 5}

    def data(self):
        """The README's (train, test): make_moons(n), split at 0.7."""
        return data.split(data.make_moons(self.n, 0.1, MODEL_SEED), 0.7, MODEL_SEED)

    def structure(self):
        return structure.StructureConfig(repetitions=self.repetitions,
                                         num_classes=2, seed=MODEL_SEED)

    def train_config(self):
        return training.TrainConfig(epochs=self.epochs, patience=0,
                                    variance_floor=0.02, seed=MODEL_SEED)

    def prepare(self, model: Model, seed: int, rec: Recorder) -> dict:
        test, rng = model.test, np.random.default_rng((seed, 1))
        with rec.quiet():
            preds = inference.predict(model.circuit, test.features)
            accuracy = float(np.mean(preds == test.labels))
        order = rng.permutation(np.flatnonzero(preds != 1))
        queries = _queries(test.features, preds, np.ones_like(preds), order)
        g = np.linspace(0.0, 1.0, self.grid)
        g1, g2 = np.meshgrid(g, g, indexing="ij")
        return {"queries": queries, "accuracy": accuracy,
                "grid": np.column_stack([g1.ravel(), g2.ravel()]),
                "sweep_rows": test.features[rng.permutation(len(test))],
                "wachter": cf.BaselineConfig(max_iters=self.wachter_iters,
                                             early_stop=False)}

    def warm_up(self, model: Model, prep: dict, rec: Recorder) -> None:
        m = model.circuit
        _two_step_loop(rec, m, prep["queries"][:5], self.two_step)
        _posterior(rec, m, prep["grid"][:64])
        _grad_batch(rec, m, prep["grid"][:64], "log_density", 0, 1)

    def round(self, k: int, model: Model, prep: dict, rec: Recorder) -> None:
        # The generate loop and the grid posterior run in thirds between the
        # other phases, so that every metric samples the whole round.
        m, queries, grid = model.circuit, prep["queries"], prep["grid"]
        singles = [None] * len(queries)
        for third in range(3):
            singles[third::3] = _two_step_loop(rec, m, queries[third::3], self.two_step)
            _posterior(rec, m, grid)
            _wachter(rec, m, queries[third:self.wachter_queries:3], prep["wachter"])
            if third == 1:
                _grad_batch(rec, m, grid, "log_ratio", 0, 1)
                _grad_batch(rec, m, grid, "log_density", 0, 1)

        results, dt = rec.call("run_queries", cf.run_queries, m, [q for _, q in queries],
                               "two_step", self.two_step, count=len(queries))
        if results is not None:
            rec.cf_completed += len(results)
            rec.cf_seconds += dt
            for (key, _), r, single in zip(queries, results, singles):
                rec.cf_results.append((math.nan, r))
                rec.cf_outcome(key, r)
                check_cf(rec, "run_queries", r)
                rec.check("run_queries", single is not None
                          and np.array_equal(r.x_prime, single.x_prime),
                          "run_queries and generate disagree on a query")


@dataclass(frozen=True)
class WideBatch:
    """d=64 two-class Gaussians, depth-3 structure, one short epoch of fitting."""

    name = "wide-batch"
    d: int = 64
    depth: int = 3
    repetitions: int = 19
    fit_rows: int = 64
    test_rows: int = 256
    pool_rows: int = 256
    queries: int = 100
    queries_per_round: int = 50
    wachter_queries: int = 4
    wachter_iters: int = 10
    # Density mode scales step 2 by S(u), about e^35 on this model, which
    # throws every query to a corner of the unit cube; log mode keeps
    # step 2 a gradient step.
    two_step = cf.CfConfig(epsilon1=3.0, epsilon2=0.01, grad_mode="log_density")
    sweep_reps = {1: 10, 32: 3, 256: 1}

    def _gaussians(self, n: int, rng: np.random.Generator):
        """Two classes with means 0.5 -+ 0.03 along a fixed sign pattern."""
        sign = np.random.default_rng(MODEL_SEED).choice([-1.0, 1.0], self.d)
        labels = rng.integers(0, 2, n)
        mean = 0.5 + 0.03 * np.where(labels[:, None] == 0, -1.0, 1.0) * sign
        X = np.clip(mean + rng.normal(0.0, 0.12, (n, self.d)), 0.0, 1.0)
        return data.Dataset(X, labels, 2, None)

    def data(self):
        """(train, test) from the model seed; the batch pool comes from the run's."""
        return (self._gaussians(self.fit_rows, np.random.default_rng((MODEL_SEED, 0))),
                self._gaussians(self.test_rows, np.random.default_rng((MODEL_SEED, 1))))

    def structure(self):
        return structure.StructureConfig(depth=self.depth, repetitions=self.repetitions,
                                         num_classes=2, seed=MODEL_SEED)

    def train_config(self):
        return training.TrainConfig(epochs=1, batch_size=16, patience=0, seed=MODEL_SEED)

    def prepare(self, model: Model, seed: int, rec: Recorder) -> dict:
        test, rng = model.test, np.random.default_rng((seed, 1))
        with rec.quiet():
            preds = inference.predict(model.circuit, test.features)
            accuracy = float(np.mean(preds == test.labels))
        queries = _queries(test.features, preds, 1 - preds, rng.permutation(self.queries))
        pool = self._gaussians(self.pool_rows, rng).features
        return {"queries": queries, "accuracy": accuracy, "pool": pool,
                "sweep_rows": pool,
                "wachter": cf.BaselineConfig(max_iters=self.wachter_iters,
                                             early_stop=False)}

    def warm_up(self, model: Model, prep: dict, rec: Recorder) -> None:
        m = model.circuit
        _two_step_loop(rec, m, prep["queries"][:2], self.two_step)
        _posterior(rec, m, prep["pool"][:8])
        _grad_batch(rec, m, prep["pool"][:8], "log_density", 0, 1)

    def round(self, k: int, model: Model, prep: dict, rec: Recorder) -> None:
        # Queries and wachter run in halves around the posterior, so that
        # every metric samples the whole round.
        m, per = model.circuit, self.queries_per_round
        start = (k * per) % len(prep["queries"])
        part = prep["queries"][start:start + per]
        wachter = prep["queries"][:self.wachter_queries]
        _two_step_loop(rec, m, part[0::2], self.two_step)
        _wachter(rec, m, wachter[0::2], prep["wachter"])
        _posterior(rec, m, prep["pool"])
        _two_step_loop(rec, m, part[1::2], self.two_step)
        _wachter(rec, m, wachter[1::2], prep["wachter"])
        _grad_batch(rec, m, prep["pool"], ("log_density", "log_ratio")[k % 2], 0, 1)


WORKLOADS = {w.name: w for w in (MoonsExplain(), WideBatch())}


def sweep(model: Model, rows: np.ndarray, reps: dict[int, int]) -> dict[str, float]:
    """Engine cost per row at B = 1, 32, 256: median over ``reps[B]`` calls."""
    compiled = engine.compile_circuit(model.circuit)
    root = model.circuit.class_roots[0]
    out = {}
    for B, n in reps.items():
        X = np.resize(rows, (B, rows.shape[1]))
        fwd, bwd = [], []
        for _ in range(n):
            t0 = time.perf_counter()
            V = compiled.forward(X)
            t1 = time.perf_counter()
            compiled.backward(V, X, {root: np.ones(B)})
            fwd.append(t1 - t0)
            bwd.append(time.perf_counter() - t1)
            del V
        out[f"engine.forward.us_per_row.b{B}"] = float(np.median(fwd)) / B * 1e6
        out[f"engine.backward.us_per_row.b{B}"] = float(np.median(bwd)) / B * 1e6
    return out
