"""Two-gradient-step counterfactual generation, an iterative baseline,
and comparison metrics.

The two-step method moves a query x of class y toward target class y' with
one closed-form step across the decision boundary,

    u = x + eps1 * grad_x [log S(x|y') - log S(x|y)],

then one step up the modeled data density,

    x' = u + eps2 * grad_u S(u)     (or grad_u log S(u) in log mode).

The baseline instead minimizes -log P(y'|z) + lam * ||z - x||_1 by plain
gradient descent from z = x, the standard iterative recipe.

Both take one query or a batch, and a batch runs in the engine passes of
one query; since the engine gives every row the same bits in any batch,
each row's result is the one it gets alone.
"""

from __future__ import annotations

import itertools
import json
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import grad, inference
from .circuit import Circuit, _classes, _integer, _number, _points

METHODS = ("two_step", "wachter")


@dataclass
class CfConfig:
    """Step sizes and options of the two-step method.

    ``clip_to_unit`` clamps every column to [0, 1], the range of min-max
    scaled and one-hot columns; the CLI refuses it on data with a
    standardized column.
    """

    epsilon1: float = 10.0
    epsilon2: float = 1.0
    grad_mode: str = "density"
    clip_to_unit: bool = True
    # Optional Table-5-style tuning: on failure, retry with eps1 doubled,
    # up to three times.  Off by default; the plain method takes single steps.
    retry_epsilon_schedule: bool = False

    def __post_init__(self):
        for name in ("epsilon1", "epsilon2"):
            setattr(self, name, _number(getattr(self, name), name, 0, strict=True))
        if self.grad_mode not in grad.GRAD_MODES:
            raise ValueError(f"grad_mode must be one of {grad.GRAD_MODES}")


@dataclass
class BaselineConfig:
    lam: float = 0.1               # weight of the L1 distance penalty
    learning_rate: float = 0.05
    max_iters: int = 1000
    early_stop: bool = True

    def __post_init__(self):
        self.lam = _number(self.lam, "lam", 0)
        self.learning_rate = _number(self.learning_rate, "learning_rate", 0, strict=True)
        self.max_iters = _integer(self.max_iters, "max_iters", 1)


@dataclass
class CfResult:
    """One query's full trace: input, intermediate, counterfactual, diagnostics.

    ``elapsed`` lists wall-clock seconds per stage (two entries for the
    two-step method, one for the baseline): the seconds the call that made
    the result spent in that stage, divided by the queries it ran at once.
    A single query's are its own; a batch's rows share the batch's.  The
    baseline has no intermediate point, so its ``u`` equals ``x_prime``.
    """

    x: np.ndarray
    u: np.ndarray
    x_prime: np.ndarray
    y: int
    y_prime: int
    pred_x: int
    pred_u: int
    pred_x_prime: int
    logdens_x: float
    logdens_u: float
    logdens_x_prime: float
    elapsed: list[float]
    success: bool
    grad_evals: int = 0
    iterations: int | None = None
    density_underflow: bool = False

    def to_dict(self) -> dict:
        """Every field in declaration order, arrays as lists."""
        return {**vars(self), "x": self.x.tolist(), "u": self.u.tolist(),
                "x_prime": self.x_prime.tolist(), "elapsed": list(self.elapsed)}


@dataclass
class CfMetrics:
    mean_log_density: float
    success_rate: float
    mean_time: float
    mean_l1_distance: float
    n: int
    mean_grad_evals: float | None = None


def _finite_or_raise(v: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise ValueError(f"non-finite {what}")
    return v


def _clip(v: np.ndarray, config: CfConfig) -> np.ndarray:
    return np.clip(v, 0.0, 1.0) if config.clip_to_unit else v


def _score(circuit: Circuit, class_log_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """inference.predict and inference.log_density of each point, (B,) each,
    from the (B, C) class-root log values of a forward pass already made
    there."""
    posterior, log_density = inference._posterior_and_density(circuit, class_log_values)
    return np.argmax(posterior, axis=1), log_density


def _check(circuit: Circuit, x, y, y_prime, queries=None):
    """One query (d,) or a batch (B, d), with a source class y (None for the
    baseline, which reads none) and a target class y_prime, each one for
    every row or one per row, checked at once: the (B, d) batch, the (B,)
    classes, and whether x is one query.  Only if that raises is each of
    ``queries`` (by default each row of x with its classes) checked alone,
    so that the first bad query raises its own message."""
    try:
        X, single = _points(x, circuit.num_variables, missing=False, what="query")
        Y_prime = _classes(y_prime, circuit.num_classes, "target class", len(X))
        if y is None:
            return X, None, Y_prime, single
        Y = _classes(y, circuit.num_classes, "source class", len(X))
        if (Y == Y_prime).any():
            raise ValueError("source and target class must differ")
        return X, Y, Y_prime, single
    except ValueError:
        if queries is None:
            X = np.asarray(x, dtype=np.float64)
            each = (v if np.ndim(v) else itertools.repeat(v) for v in (y, y_prime))
            queries = zip(X, *each) if X.ndim == 2 else ()
        for query in queries:
            _check(circuit, *query, queries=())
        raise


def generate(circuit: Circuit, x, y, y_prime,
             config: CfConfig | None = None) -> CfResult | list[CfResult]:
    """Two-step counterfactuals; exactly two gradient evaluations per query.

    x is one query (d,) of class y toward class y_prime, which gives one
    result, or a batch (B, d) with a class per row (or one for every row),
    which gives a list of B.  Points must be finite and classes integers in
    range (1.9 or True raises ValueError); a batch is checked as one array,
    and row by row only if that raises.  Every row's result is bit for bit
    the one it gets alone, but for its ``elapsed``.  A batch costs the
    passes of one query: the forward pass of each gradient step also scores
    its points (the prediction and log density at x and at u), and one more
    forward pass scores x', so 3 forward and 2 backward passes in all.  With
    retry_epsilon_schedule, step 2 is retried from a doubled eps1 for the
    rows short of their target; each retry adds 2 forward and 1 backward
    pass, and one gradient evaluation to each row it retries.  Warns
    (without failing) once for each row whose y differs from the model's
    prediction at x.  With clip_to_unit, both steps clamp to [0, 1]^d, the
    range of min-max scaled features.
    """
    X, Y, Y_prime, single = _check(circuit, x, y, y_prime)
    results = _two_step(circuit, [np.asarray(x, dtype=np.float64)] if single else X,
                        X, Y, Y_prime, config or CfConfig())
    return results[0] if single else results


def _two_step(circuit: Circuit, points, X: np.ndarray, Y: np.ndarray,
              Y_prime: np.ndarray, config: CfConfig) -> list[CfResult]:
    """``generate`` on a checked batch; each result's x is from ``points``."""
    B = len(X)
    if not B:
        return []
    rows = np.arange(B)
    weights = np.zeros((B, circuit.num_classes))
    weights[rows, Y_prime] = 1.0
    weights[rows, Y] = -1.0
    t0 = time.perf_counter()
    step1 = grad.gradient(circuit, X, weights)
    g1 = _finite_or_raise(step1.values, "gradient in step 1")
    elapsed = [time.perf_counter() - t0, 0.0]
    pred_x, logdens_x = _score(circuit, step1.class_log_values)
    for y, pred in zip(Y.tolist(), pred_x.tolist()):
        if pred != y:
            warnings.warn(f"query is labeled class {y} but the model predicts "
                          f"{pred}", RuntimeWarning, stacklevel=3)

    # Each round of step 2 runs on the rows still short of their target (at
    # first, every row); a row's result is its last round's.
    factors = (1.0, 2.0, 4.0, 8.0) if config.retry_epsilon_schedule else (1.0,)
    todo, out = slice(None), None
    for grad_evals, factor in enumerate(factors, start=2):
        t1 = time.perf_counter()
        u = _clip(X[todo] + factor * config.epsilon1 * g1[todo], config)
        step2 = grad.grad_density(circuit, u, config.grad_mode)
        x_prime = _clip(u + config.epsilon2 * _finite_or_raise(
            step2.values, "gradient in step 2"), config)
        elapsed[1] += time.perf_counter() - t1
        _finite_or_raise(x_prime, "counterfactual")
        pred_x_prime, logdens_x_prime = _score(
            circuit, inference.class_log_densities(circuit, x_prime))
        found = (u, x_prime, *_score(circuit, step2.class_log_values),
                 pred_x_prime, logdens_x_prime,
                 np.full(len(u), step2.underflow), np.full(len(u), grad_evals))
        if out is None:
            out = found
        else:
            for column, values in zip(out, found):
                column[todo] = values
        todo = rows[todo][pred_x_prime != Y_prime[todo]]
        if not todo.size:
            break

    # Each result owns its arrays, so that none keeps the batch's alive.
    U, X_prime, *scores = out
    elapsed = [t / B for t in elapsed]
    return [CfResult(x=x, u=u.copy(), x_prime=x_prime.copy(), y=y, y_prime=y_prime,
                     pred_x=pred_x, pred_u=pred_u, pred_x_prime=pred_x_prime,
                     logdens_x=logdens_x, logdens_u=logdens_u,
                     logdens_x_prime=logdens_x_prime,
                     elapsed=list(elapsed),
                     success=pred_x_prime == y_prime,
                     grad_evals=grad_evals,
                     density_underflow=underflow)
            for (x, u, x_prime, y, y_prime, pred_x, logdens_x, pred_u, logdens_u,
                 pred_x_prime, logdens_x_prime, underflow, grad_evals)
            in zip(points, U, X_prime, *(a.tolist() for a in (Y, Y_prime, pred_x, logdens_x,
                                                               *scores)))]


def wachter_baseline(circuit: Circuit, x, y_prime,
                     config: BaselineConfig | None = None) -> CfResult | list[CfResult]:
    """Iterative counterfactual search minimizing -log P(y'|z) + lam*||z-x||_1.

    Plain gradient descent from z = x; one gradient evaluation per
    iteration.  x is one query (d,) or a batch (B, d), with y_prime, their
    checks and the results as in :func:`generate`.  With early_stop, a row
    stops as soon as its prediction flips to the target class.  The forward
    pass of the gradient at each point also scores it, so a batch whose
    longest row runs n iterations makes n + 1 forward and n + 1 backward
    passes; the last gradient only scores the final z.
    """
    X, _, Y_prime, single = _check(circuit, x, None, y_prime)
    results = _wachter(circuit, [np.asarray(x, dtype=np.float64)] if single else X,
                       X, Y_prime, config or BaselineConfig())
    return results[0] if single else results


def _wachter(circuit: Circuit, points, X: np.ndarray, Y_prime: np.ndarray,
             config: BaselineConfig) -> list[CfResult]:
    """``wachter_baseline`` on a checked batch; each result's x is from ``points``."""
    B = len(X)
    if not B:
        return []
    weights = np.zeros((B, circuit.num_classes))
    weights[np.arange(B), Y_prime] = 1.0
    t0 = time.perf_counter()
    step = grad.gradient(circuit, X, weights, density_weight=-1.0)
    pred_x, logdens_x = _score(circuit, step.class_log_values)
    Z, values, g = X.copy(), step.class_log_values, step.values
    iterations = np.full(B, config.max_iters)
    live = slice(None)          # the rows still searching: all, until one stops
    for it in range(1, config.max_iters + 1):
        g = _finite_or_raise(g, "gradient in baseline iteration")
        z = Z[live]
        z = z + config.learning_rate * (g - config.lam * np.sign(z - X[live]))
        Z[live] = z
        step = grad.gradient(circuit, z, weights[live], density_weight=-1.0)
        values[live] = step.class_log_values
        g = step.values
        if config.early_stop:
            stop = _score(circuit, step.class_log_values)[0] == Y_prime[live]
            if stop.any():
                rows = np.arange(B)[live]
                iterations[rows[stop]] = it
                live, g = rows[~stop], g[~stop]
                if not live.size:
                    break
    elapsed = (time.perf_counter() - t0) / B
    pred_z, logdens_z = _score(circuit, values)

    return [CfResult(x=x, u=z.copy(), x_prime=z.copy(), y=pred_x, y_prime=y_prime,
                     pred_x=pred_x, pred_u=pred_z, pred_x_prime=pred_z,
                     logdens_x=logdens_x, logdens_u=logdens_z,
                     logdens_x_prime=logdens_z,
                     elapsed=[elapsed],
                     success=pred_z == y_prime,
                     grad_evals=n,
                     iterations=n)
            for x, z, y_prime, pred_x, logdens_x, pred_z, logdens_z, n
            in zip(points, Z, *(a.tolist() for a in (Y_prime, pred_x, logdens_x, pred_z,
                                                      logdens_z, iterations)))]


def run_queries(circuit: Circuit, queries, method: str = "two_step",
                config: CfConfig | None = None,
                baseline: BaselineConfig | None = None) -> list[CfResult]:
    """Run one method over (x, y, y_prime) query triples as one batch.

    The set is checked as one array, with the rules of :func:`generate`;
    only if that raises is each query checked alone, and the first bad one
    raises the ValueError it raises alone.  Each result's ``x`` is the
    query's own point (the very object, for a float64 array), never a row
    of the stacked batch.  Each result is bit for bit the one the query
    gets alone, but for its ``elapsed``; the whole set costs the passes of
    one query.  The baseline reads no source class y.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    queries = list(queries)
    if not queries:
        return []
    x, y, y_prime = zip(*queries)
    y = y if method == "two_step" else None
    X, Y, Y_prime, single = _check(circuit, x, y, y_prime,
                                   zip(x, itertools.repeat(None) if y is None else y, y_prime))
    if single:
        # the points were scalars, read as one point; alone, each is refused
        _check(circuit, x[0], None, y_prime[0], queries=())
    points = [np.asarray(q, dtype=np.float64) for q in x]
    if method == "two_step":
        return _two_step(circuit, points, X, Y, Y_prime, config or CfConfig())
    return _wachter(circuit, points, X, Y_prime, baseline or BaselineConfig())


def summarize(results: list[CfResult]) -> CfMetrics:
    """Aggregate counterfactual-quality metrics over a result list."""
    if not results:
        raise ValueError("no results to summarize")
    return CfMetrics(
        mean_log_density=float(np.mean([r.logdens_x_prime for r in results])),
        success_rate=float(np.mean([r.success for r in results])),
        mean_time=float(np.mean([sum(r.elapsed) for r in results])),
        mean_l1_distance=float(np.mean([np.abs(r.x_prime - r.x).sum()
                                        for r in results])),
        n=len(results),
        mean_grad_evals=float(np.mean([r.grad_evals for r in results])),
    )


def metrics_record(metrics: CfMetrics, method: str, dataset: str,
                   config) -> dict:
    """JSON-ready record of one method's metrics on one dataset."""
    cfg = dict(vars(config)) if config is not None else {}
    return {
        "method": method,
        "dataset": dataset,
        "n": metrics.n,
        "mean_log_density": metrics.mean_log_density,
        "success_rate": metrics.success_rate,
        "mean_time_seconds": metrics.mean_time,
        "mean_l1_distance": metrics.mean_l1_distance,
        "mean_grad_evals": metrics.mean_grad_evals,
        "config": cfg,
    }


@dataclass
class GroupPerturbations:
    """Per-result, per-group sums of counterfactual perturbations."""

    groups: list[int]
    sums: np.ndarray          # (n_results, n_groups)
    median_abs_sum: float


def one_hot_consistency(results: list[CfResult], meta) -> GroupPerturbations:
    """Sum of perturbations within each one-hot group, per result.

    A perturbation consistent with "exactly one category on" sums to zero
    inside each group; the median absolute sum summarizes how far a method
    strays from that.
    """
    slices = meta.group_slices()
    if not slices:
        raise ValueError("feature metadata has no one-hot groups")
    groups = sorted(slices)
    sums = np.empty((len(results), len(groups)))
    for i, r in enumerate(results):
        delta = r.x_prime - r.x
        for j, g in enumerate(groups):
            sums[i, j] = float(delta[slices[g]].sum())
    if sums.size == 0:
        raise ValueError("no results to summarize")
    return GroupPerturbations(groups=groups, sums=sums,
                              median_abs_sum=float(np.median(np.abs(sums))))


def save_results(path: str | Path, results: list[CfResult]) -> None:
    """Write results as JSON lines, one record per query."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in results:
            fh.write(json.dumps(r.to_dict()) + "\n")
