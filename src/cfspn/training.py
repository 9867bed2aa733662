"""Maximum-likelihood estimation of circuit parameters from labeled data.

Mini-batch Adam ascent on the mean joint log-likelihood
log S(x|y) + log P(y).  Constraints hold at every step by construction:
sum weights are trained as unconstrained logits mapped through a normalized
exponential, Gaussian variances as floor + exp(raw), Bernoulli means through
a sigmoid.  The class prior is set to the empirical class frequencies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, logsumexp, validate
from .engine import CompiledCircuit
from .structure import StructureConfig, build_circuit


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 200
    batch_size: int = 128
    variance_floor: float = 1e-3
    seed: int = 0
    validation_fraction: float = 0.1
    patience: int = 10
    # Re-seed leaf parameters from training-data statistics before the first
    # epoch (means from random rows, variances from per-column spread).
    # Far-from-data initial leaves give every mixture component the same
    # responsibility, a near-stationary start that plain ascent escapes
    # only very slowly.
    init_from_data: bool = True

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.variance_floor <= 0:
            raise ValueError(f"variance_floor must be > 0, got {self.variance_floor}")
        if not (0.0 <= self.validation_fraction < 1.0):
            raise ValueError("validation_fraction must be in [0, 1), got "
                             f"{self.validation_fraction}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")


@dataclass
class TrainReport:
    train_log_likelihood: list[float]
    validation_log_likelihood: float | None
    epochs_run: int
    converged: bool

    def to_dict(self) -> dict:
        return {
            "train_log_likelihood": [float(v) for v in self.train_log_likelihood],
            "validation_log_likelihood": (
                None if self.validation_log_likelihood is None
                else float(self.validation_log_likelihood)),
            "epochs_run": self.epochs_run,
            "converged": self.converged,
        }


class _Adam:
    """Moment estimates for a fixed list of arrays; one shared step counter.

    Root mixture weights see gradients scaled by 1/fan-in (thousands of
    children), so fixed-rate ascent leaves them frozen; per-parameter moment
    scaling moves them at a useful pace.
    """

    def __init__(self, shapes: list[tuple[int, ...]], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros(shape) for shape in shapes]
        self.v = [np.zeros(shape) for shape in shapes]
        self.t = 0

    def directions(self, grads: list[np.ndarray]) -> list[np.ndarray]:
        self.t += 1
        out = []
        for m, v, g in zip(self.m, self.v, grads):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** self.t)
            v_hat = v / (1.0 - self.beta2 ** self.t)
            out.append(m_hat / (np.sqrt(v_hat) + self.eps))
        return out


def _sigmoid(t: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-t)), without a warning where exp(-t) overflows to inf."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t))


def _log_normalize(theta: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax."""
    return theta - logsumexp(theta, axis=1, keepdims=True)


class _Parameters:
    """The trainable values, held unconstrained and pushed into a CompiledCircuit.

    Sum weights are logits in the compiled form's own layout, one
    (sums, children) array per bucket, so every update is one array
    operation per array.
    """

    def __init__(self, compiled: CompiledCircuit, floor: float):
        self.floor = floor
        self.compiled = compiled
        self.theta = [w.copy() for w in compiled.sum_log_weights]
        self.mean = compiled.gaussian_mean.copy()
        self.rho = np.log(np.maximum(compiled.gaussian_variance - floor, 1e-12))
        p = np.clip(compiled.bernoulli_p, 1e-6, 1.0 - 1e-6)
        self.tau = np.log(p) - np.log1p(-p)
        self.adam = _Adam([a.shape for a in self.arrays])
        self.push()

    @property
    def arrays(self) -> list[np.ndarray]:
        return [*self.theta, self.mean, self.rho, self.tau]

    def push(self) -> None:
        """Write the constrained parameters into the compiled circuit."""
        c = self.compiled
        c.gaussian_mean[:] = self.mean
        c.gaussian_variance[:] = self.floor + np.exp(self.rho)
        c.bernoulli_p[:] = _sigmoid(self.tau)
        for dst, th in zip(c.sum_log_weights, self.theta):
            dst[:] = _log_normalize(th)

    def ascend(self, result, lr: float) -> None:
        """One Adam ascent step from a backward result, then push."""
        # chain rule through the softmax: g - w * sum(g), row by row
        grads = [g - np.exp(_log_normalize(th)) * g.sum(axis=1, keepdims=True)
                 for th, g in zip(self.theta, result.sum_log_weight_grads)]
        p = _sigmoid(self.tau)
        grads += [result.gaussian_mean_grads,
                  result.gaussian_variance_grads * np.exp(self.rho),
                  result.bernoulli_p_grads * p * (1.0 - p)]
        for a, g in zip(self.arrays, self.adam.directions(grads)):
            a += lr * g
        self.push()

    def snapshot(self) -> list[np.ndarray]:
        return [a.copy() for a in self.arrays]

    def restore(self, snap: list[np.ndarray]) -> None:
        for a, saved in zip(self.arrays, snap):
            a[:] = saved
        self.push()


def _class_seeds(circuit: Circuit, labels: np.ndarray, scale: float) -> dict[int, np.ndarray]:
    seeds: dict[int, np.ndarray] = {}
    for y, root in enumerate(circuit.class_roots):
        seeds[root] = seeds.get(root, 0.0) + (labels == y).astype(np.float64) * scale
    return seeds


def _mean_joint_ll_compiled(compiled: CompiledCircuit, log_prior: np.ndarray,
                            X: np.ndarray, y: np.ndarray, chunk: int = 256) -> float:
    total = 0.0
    for start in range(0, X.shape[0], chunk):
        Xb = X[start:start + chunk]
        yb = y[start:start + chunk]
        values = compiled.root_values(compiled.forward(Xb))
        total += float(np.sum(values[np.arange(Xb.shape[0]), yb] + log_prior[yb]))
    return total / X.shape[0]


def mean_joint_log_likelihood(circuit: Circuit, features, labels) -> float:
    """Mean log S(x|y) + log P(y) over a labeled sample."""
    from . import engine
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    return _mean_joint_ll_compiled(engine.compile_circuit(circuit),
                                   circuit.log_prior, X, y)


def fit(circuit: Circuit, dataset, config: TrainConfig) -> tuple[Circuit, TrainReport]:
    """Fit the circuit's parameters to (features, labels) by gradient ascent.

    Returns a new circuit with the input's structure; the input is immutable
    and left as it is.

    A validation_fraction share of the data is held out; when the held-out
    log-likelihood fails to improve for `patience` consecutive epochs,
    training stops and the best-scoring parameters are restored (patience 0
    disables early stopping).  Deterministic for a fixed config seed.
    """
    X = np.asarray(dataset.features, dtype=np.float64)
    y = np.asarray(dataset.labels, dtype=np.int64)
    if X.shape[0] == 0:
        raise ValueError("empty dataset")
    C = circuit.num_classes
    if y.min() < 0 or y.max() >= C:
        raise ValueError(f"labels outside [0, {C})")
    if X.shape[1] != circuit.num_variables:
        raise ValueError(f"data has {X.shape[1]} features, circuit has "
                         f"{circuit.num_variables}")
    report = validate(circuit)
    if not report.ok:
        raise ValueError(f"invalid circuit: {report.summary()}")

    counts = np.bincount(y, minlength=C).astype(np.float64)
    with np.errstate(divide="ignore"):
        log_prior = np.log(counts / counts.sum())

    rng = np.random.default_rng(config.seed)
    n_val = int(round(config.validation_fraction * X.shape[0]))
    order = rng.permutation(X.shape[0])
    val_idx, train_idx = order[:n_val], order[n_val:]
    if train_idx.size == 0:
        raise ValueError("validation split leaves no training rows")
    use_early_stop = n_val > 0 and config.patience > 0

    # A private compiled form: the trainer writes its parameters into it.
    compiled = CompiledCircuit(circuit)
    if config.init_from_data:
        Xtr = X[train_idx]
        if compiled.gaussian_mean.size:
            rows = rng.integers(0, Xtr.shape[0], size=compiled.gaussian_mean.size)
            compiled.gaussian_mean[:] = Xtr[rows, compiled.gaussian_vars]
            spread = Xtr.var(axis=0)
            compiled.gaussian_variance[:] = np.maximum(
                spread[compiled.gaussian_vars], config.variance_floor * 10.0)
        if compiled.bernoulli_p.size:
            freq = Xtr.mean(axis=0)
            compiled.bernoulli_p[:] = np.clip(
                freq[compiled.bernoulli_vars], 0.05, 0.95)
    params = _Parameters(compiled, config.variance_floor)

    train_ll: list[float] = []
    best_val = -np.inf
    last_val = None
    best_snap = None
    bad_epochs = 0
    converged = False
    epochs_run = 0
    for epoch in range(config.epochs):
        epochs_run = epoch + 1
        epoch_order = train_idx[rng.permutation(train_idx.size)]
        ll_sum = 0.0
        for bi, start in enumerate(range(0, epoch_order.size, config.batch_size)):
            idx = epoch_order[start:start + config.batch_size]
            Xb, yb = X[idx], y[idx]
            V = compiled.forward(Xb)
            batch_ll = (compiled.root_values(V)[np.arange(idx.size), yb]
                        + log_prior[yb])
            if not np.all(np.isfinite(batch_ll)):
                raise ValueError(
                    f"non-finite loss in epoch {epoch}, batch {bi}")
            ll_sum += float(batch_ll.sum())
            seeds = _class_seeds(circuit, yb, 1.0 / idx.size)
            back = compiled.backward(V, Xb, seeds, want_input=False,
                                     want_params=True)
            params.ascend(back, config.learning_rate)
        train_ll.append(ll_sum / epoch_order.size)

        if n_val > 0:
            val_ll = _mean_joint_ll_compiled(compiled, log_prior,
                                             X[val_idx], y[val_idx])
            last_val = val_ll
            if val_ll > best_val:
                best_val = val_ll
                best_snap = params.snapshot()
                bad_epochs = 0
            else:
                bad_epochs += 1
                if use_early_stop and bad_epochs >= config.patience:
                    converged = True
                    break

    if use_early_stop and best_snap is not None:
        params.restore(best_snap)
    fitted = compiled.to_circuit(log_prior)
    final_report = validate(fitted, variance_floor=config.variance_floor)
    if not final_report.ok:
        raise RuntimeError(f"training produced an invalid circuit: "
                           f"{final_report.summary()}")
    # the reported validation score matches the returned parameters
    final_val = best_val if use_early_stop and best_snap is not None else last_val
    report = TrainReport(
        train_log_likelihood=train_ll,
        validation_log_likelihood=(float(final_val) if final_val is not None
                                   and np.isfinite(final_val) else None),
        epochs_run=epochs_run,
        converged=converged,
    )
    return fitted, report


@dataclass
class GridPoint:
    structure: StructureConfig
    train: TrainConfig
    mean_validation_ll: float
    fold_lls: list[float] = field(default_factory=list)


@dataclass
class CrossValidationResult:
    best: GridPoint
    results: list[GridPoint]


def cross_validate(dataset, structure_grid, train_grid, folds: int,
                   seed: int = 0) -> CrossValidationResult:
    """k-fold model selection over a structure x training grid.

    Scores each grid point by mean held-out joint log-likelihood across
    folds; fold assignment is a deterministic function of the seed.  Returns
    the first best point plus per-point scores.
    """
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    structure_grid = list(structure_grid)
    train_grid = list(train_grid)
    if not structure_grid or not train_grid:
        raise ValueError("empty configuration grid")
    n = len(dataset)
    if folds > n:
        raise ValueError(f"{folds} folds for {n} rows")

    perm = np.random.default_rng(seed).permutation(n)
    results: list[GridPoint] = []
    for sc, tc in itertools.product(structure_grid, train_grid):
        fold_lls = []
        for j in range(folds):
            held = perm[j::folds]
            rest = np.concatenate([perm[k::folds] for k in range(folds) if k != j])
            circuit = build_circuit(dataset.dimension, sc)
            fitted, _ = fit(circuit, dataset.subset(rest), tc)
            fold_lls.append(mean_joint_log_likelihood(
                fitted, dataset.features[held], dataset.labels[held]))
        results.append(GridPoint(sc, tc, float(np.mean(fold_lls)), fold_lls))
    best = max(results, key=lambda g: g.mean_validation_ll)
    return CrossValidationResult(best=best, results=results)
