"""Two-gradient-step counterfactual generation, an iterative baseline,
and comparison metrics.

The two-step method moves a query x of class y toward target class y' with
one closed-form step across the decision boundary,

    u = x + eps1 * grad_x [log S(x|y') - log S(x|y)],

then one step up the modeled data density,

    x' = u + eps2 * grad_u S(u)     (or grad_u log S(u) in log mode).

The baseline instead minimizes -log P(y'|z) + lam * ||z - x||_1 by plain
gradient descent from z = x, the standard iterative recipe.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import grad, inference
from .circuit import Circuit

METHODS = ("two_step", "wachter")


@dataclass
class CfConfig:
    epsilon1: float = 10.0
    epsilon2: float = 1.0
    grad_mode: str = "density"
    clip_to_unit: bool = True
    # Optional Table-5-style tuning: on failure, retry with eps1 doubled,
    # up to three times.  Off by default; the plain method takes single steps.
    retry_epsilon_schedule: bool = False

    def __post_init__(self):
        for name in ("epsilon1", "epsilon2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.grad_mode not in grad.GRAD_MODES:
            raise ValueError(f"grad_mode must be one of {grad.GRAD_MODES}")


@dataclass
class BaselineConfig:
    lam: float = 0.1               # weight of the L1 distance penalty
    learning_rate: float = 0.05
    max_iters: int = 1000
    early_stop: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, "
                             f"got {self.learning_rate}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class CfResult:
    """One query's full trace: input, intermediate, counterfactual, diagnostics.

    ``elapsed`` lists wall-clock seconds per stage (two entries for the
    two-step method, one for the baseline).  The baseline has no
    intermediate point, so its ``u`` equals ``x_prime``.
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
        return {
            "x": self.x.tolist(), "u": self.u.tolist(),
            "x_prime": self.x_prime.tolist(),
            "y": self.y, "y_prime": self.y_prime,
            "pred_x": self.pred_x, "pred_u": self.pred_u,
            "pred_x_prime": self.pred_x_prime,
            "logdens_x": self.logdens_x, "logdens_u": self.logdens_u,
            "logdens_x_prime": self.logdens_x_prime,
            "elapsed": list(self.elapsed), "success": self.success,
            "grad_evals": self.grad_evals, "iterations": self.iterations,
            "density_underflow": self.density_underflow,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "CfResult":
        return cls(
            x=np.asarray(obj["x"], dtype=np.float64),
            u=np.asarray(obj["u"], dtype=np.float64),
            x_prime=np.asarray(obj["x_prime"], dtype=np.float64),
            y=int(obj["y"]), y_prime=int(obj["y_prime"]),
            pred_x=int(obj["pred_x"]), pred_u=int(obj["pred_u"]),
            pred_x_prime=int(obj["pred_x_prime"]),
            logdens_x=float(obj["logdens_x"]),
            logdens_u=float(obj["logdens_u"]),
            logdens_x_prime=float(obj["logdens_x_prime"]),
            elapsed=[float(t) for t in obj["elapsed"]],
            success=bool(obj["success"]),
            grad_evals=int(obj.get("grad_evals", 0)),
            iterations=obj.get("iterations"),
            density_underflow=bool(obj.get("density_underflow", False)),
        )


@dataclass
class CfMetrics:
    mean_log_density: float
    success_rate: float
    mean_time: float
    mean_l1_distance: float
    n: int
    mean_grad_evals: float | None = None


def _prepare(circuit: Circuit, x, y_prime: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (circuit.num_variables,):
        raise ValueError(f"query shape {x.shape} does not match "
                         f"{circuit.num_variables} variables")
    if not np.all(np.isfinite(x)):
        raise ValueError("query must be fully observed and finite")
    if not (0 <= y_prime < circuit.num_classes):
        raise ValueError(f"target class {y_prime} out of range")
    return x


def _finite_or_raise(v: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise ValueError(f"non-finite {what}")
    return v


def _clip(v: np.ndarray, config: CfConfig) -> np.ndarray:
    return np.clip(v, 0.0, 1.0) if config.clip_to_unit else v


def _score(circuit: Circuit, class_log_values: np.ndarray) -> tuple[int, float]:
    """inference.predict and inference.log_density of a point, from the
    class-root log values of a forward pass already made there."""
    return (int(np.argmax(inference.posterior_of(circuit, class_log_values))),
            float(inference.log_density_of(circuit, class_log_values)))


def generate(circuit: Circuit, x, y: int, y_prime: int,
             config: CfConfig | None = None) -> CfResult:
    """Two-step counterfactual for one query; exactly two gradient evaluations.

    The forward pass of each gradient step also scores its point (the
    prediction and log density at x and at u), and one more forward pass
    scores x': 3 forward and 2 backward passes.  With retry_epsilon_schedule,
    each retry of step 2 from a larger eps1 adds one gradient evaluation.
    Warns (without failing) when y differs from the model's prediction at x.
    With clip_to_unit, both steps clamp to [0, 1]^d, the range of min-max
    scaled features.
    """
    config = config or CfConfig()
    x = _prepare(circuit, x, y_prime)
    if not (0 <= y < circuit.num_classes):
        raise ValueError(f"source class {y} out of range")
    if y == y_prime:
        raise ValueError("source and target class must differ")

    t0 = time.perf_counter()
    step1 = grad.gradient(circuit, x, {y_prime: 1.0, y: -1.0})
    g1 = _finite_or_raise(step1.values, "gradient in step 1")
    elapsed = [time.perf_counter() - t0, 0.0]
    pred_x, logdens_x = _score(circuit, step1.class_log_values)
    if pred_x != y:
        warnings.warn(f"query is labeled class {y} but the model predicts "
                      f"{pred_x}", RuntimeWarning, stacklevel=2)

    factors = (1.0, 2.0, 4.0, 8.0) if config.retry_epsilon_schedule else (1.0,)
    for grad_evals, factor in enumerate(factors, start=2):
        t1 = time.perf_counter()
        u = _clip(x + factor * config.epsilon1 * g1, config)
        step2 = grad.grad_density(circuit, u, config.grad_mode)
        x_prime = _clip(u + config.epsilon2 * _finite_or_raise(
            step2.values, "gradient in step 2"), config)
        elapsed[1] += time.perf_counter() - t1
        _finite_or_raise(x_prime, "counterfactual")
        pred_x_prime, logdens_x_prime = _score(
            circuit, inference.class_log_densities(circuit, x_prime))
        if pred_x_prime == y_prime:
            break

    pred_u, logdens_u = _score(circuit, step2.class_log_values)
    return CfResult(
        x=x, u=u, x_prime=x_prime, y=y, y_prime=y_prime,
        pred_x=pred_x, pred_u=pred_u, pred_x_prime=pred_x_prime,
        logdens_x=logdens_x, logdens_u=logdens_u,
        logdens_x_prime=logdens_x_prime,
        elapsed=elapsed,
        success=pred_x_prime == y_prime,
        grad_evals=grad_evals,
        density_underflow=step2.underflow,
    )


def wachter_baseline(circuit: Circuit, x, y_prime: int,
                     config: BaselineConfig | None = None) -> CfResult:
    """Iterative counterfactual search minimizing -log P(y'|z) + lam*||z-x||_1.

    Plain gradient descent from z = x; one gradient evaluation per
    iteration.  With early_stop, the loop exits as soon as the prediction
    flips to the target class.
    """
    config = config or BaselineConfig()
    x = _prepare(circuit, x, y_prime)
    pred_x = inference.predict(circuit, x)
    lr = config.learning_rate
    z = x.copy()
    iterations = 0
    t0 = time.perf_counter()
    for _ in range(config.max_iters):
        g = grad.grad_log_posterior(circuit, z, y_prime)
        _finite_or_raise(g, "gradient in baseline iteration")
        z = z + lr * (g - config.lam * np.sign(z - x))
        iterations += 1
        if config.early_stop and inference.predict(circuit, z) == y_prime:
            break
    t1 = time.perf_counter()

    pred_z = inference.predict(circuit, z)
    logdens_z = inference.log_density(circuit, z)
    return CfResult(
        x=x, u=z.copy(), x_prime=z, y=pred_x, y_prime=y_prime,
        pred_x=pred_x, pred_u=pred_z, pred_x_prime=pred_z,
        logdens_x=inference.log_density(circuit, x),
        logdens_u=logdens_z,
        logdens_x_prime=logdens_z,
        elapsed=[t1 - t0],
        success=pred_z == y_prime,
        grad_evals=iterations,
        iterations=iterations,
    )


def run_queries(circuit: Circuit, queries, method: str = "two_step",
                config: CfConfig | None = None,
                baseline: BaselineConfig | None = None) -> list[CfResult]:
    """Run one method over (x, y, y_prime) query triples."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    results = []
    for x, y, y_prime in queries:
        if method == "two_step":
            results.append(generate(circuit, x, y, y_prime,
                                    config or CfConfig()))
        else:
            results.append(wachter_baseline(circuit, x, y_prime,
                                            baseline or BaselineConfig()))
    return results


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


def evaluate(circuit: Circuit, queries, method: str = "two_step",
             config: CfConfig | None = None,
             baseline: BaselineConfig | None = None) -> CfMetrics:
    """run_queries followed by summarize; the Tables 3-5 style protocol."""
    queries = list(queries)
    if not queries:
        raise ValueError("empty query set")
    return summarize(run_queries(circuit, queries, method, config, baseline))


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


def load_results(path: str | Path) -> list[CfResult]:
    results = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                results.append(CfResult.from_dict(json.loads(line)))
    return results
