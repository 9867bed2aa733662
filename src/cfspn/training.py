"""Maximum-likelihood estimation of circuit parameters from labeled data.

Mini-batch Adam ascent on the mean joint log-likelihood
log S(x|y) + log P(y).  Constraints hold at every step by construction:
sum weights are trained as unconstrained logits mapped through a normalized
exponential, Gaussian variances as floor + exp(raw), Bernoulli means through
a sigmoid.  The class prior is set to the empirical class frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import (CATEGORICAL, Circuit, _classes, _flag, _integer, _number, _points,
                      logsumexp)
from .engine import CompiledCircuit, compile_circuit


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
        for name, minimum in (("epochs", 1), ("batch_size", 1), ("seed", 0), ("patience", 0)):
            setattr(self, name, _integer(getattr(self, name), name, minimum))
        for name in ("learning_rate", "variance_floor"):
            setattr(self, name, _number(getattr(self, name), name, 0, strict=True))
        self.validation_fraction = _number(self.validation_fraction,
                                           "validation_fraction", 0, below=1)
        self.init_from_data = _flag(self.init_from_data, "init_from_data")


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
        self.scratch = [np.empty(shape) for shape in shapes]
        self.t = 0

    def directions(self, grads: list[np.ndarray]) -> list[np.ndarray]:
        """m_hat / (sqrt(v_hat) + eps) per array, as new arrays.  Updated in
        place through one scratch array each, in the order of the plain
        formula, so each step gives that formula's bits."""
        self.t += 1
        m_scale, v_scale = 1.0 - self.beta1 ** self.t, 1.0 - self.beta2 ** self.t
        out = []
        for m, v, tmp, g in zip(self.m, self.v, self.scratch, grads):
            np.multiply(g, 1.0 - self.beta1, out=tmp)
            m *= self.beta1
            m += tmp
            np.multiply(g, 1.0 - self.beta2, out=tmp)
            tmp *= g
            v *= self.beta2
            v += tmp
            np.divide(v, v_scale, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            d = m / m_scale
            d /= tmp
            out.append(d)
        return out


def _sigmoid(t: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-t)), without a warning where exp(-t) overflows to inf."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t))


def _log_normalize(theta: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax."""
    return theta - logsumexp(theta, axis=1, keepdims=True)


class _Parameters:
    """The trainable values, held unconstrained, and the compiled circuit
    that holds them constrained.

    Sum weights are logits in the compiled form's own layout, one
    (sums, children) array per bucket, so every update is one array
    operation per array.
    """

    def __init__(self, compiled: CompiledCircuit, mean: np.ndarray, variance: np.ndarray,
                 p: np.ndarray, floor: float):
        self.floor = floor
        self.compiled = compiled
        self.theta = [w.copy() for w in compiled.sum_log_weights]
        self.mean = np.array(mean)
        self.rho = np.log(np.maximum(variance - floor, 1e-12))
        p = np.clip(p, 1e-6, 1.0 - 1e-6)
        self.tau = np.log(p) - np.log1p(-p)
        self.adam = _Adam([a.shape for a in self.arrays])
        self.push()

    @property
    def arrays(self) -> list[np.ndarray]:
        return [*self.theta, self.mean, self.rho, self.tau]

    def push(self) -> None:
        """Swap in a compiled circuit holding the constrained parameters."""
        self.compiled = self.compiled.with_parameters(
            self.mean, self.floor + np.exp(self.rho), _sigmoid(self.tau),
            [_log_normalize(th) for th in self.theta])

    def ascend(self, result, lr: float) -> None:
        """One Adam ascent step from a backward result, then push."""
        # chain rule through the softmax: g - w * sum(g), row by row, with the
        # constrained values that the last push compiled
        grads = [g - np.exp(w) * g.sum(axis=1, keepdims=True)
                 for w, g in zip(self.compiled.sum_log_weights, result.sum_log_weight_grads)]
        p = self.compiled.bernoulli_p
        grads += [result.gaussian_mean_grads,
                  result.gaussian_variance_grads * np.exp(self.rho),
                  result.bernoulli_p_grads * p * (1.0 - p)]
        for a, g in zip(self.arrays, self.adam.directions(grads)):
            g *= lr
            a += g
        self.push()


def _mean_joint_ll_compiled(compiled: CompiledCircuit, log_prior: np.ndarray,
                            X: np.ndarray, y: np.ndarray) -> float:
    values = compiled.evaluate(X)[0]
    return float(np.sum(values[np.arange(X.shape[0]), y] + log_prior[y])) / X.shape[0]


def mean_joint_log_likelihood(circuit: Circuit, features, labels) -> float:
    """Mean log S(x|y) + log P(y) over a labeled sample."""
    X, _ = _points(features, circuit.num_variables, what="features")
    y = _classes(labels, circuit.num_classes, "label", len(X))
    return _mean_joint_ll_compiled(compile_circuit(circuit),
                                   circuit.log_prior, X, y)


def fit(circuit: Circuit, dataset, config: TrainConfig) -> tuple[Circuit, TrainReport]:
    """Fit the circuit's parameters to (features, labels) by gradient ascent.

    Returns a new circuit with the input's structure, compiled by the
    trainer; the input is immutable and left as it is.

    A validation_fraction share of the data is held out; when the held-out
    log-likelihood fails to improve for `patience` consecutive epochs,
    training stops and the best-scoring parameters are returned (patience 0
    disables early stopping).  Deterministic for a fixed config seed.
    Circuits with categorical leaves are refused, since their probabilities
    are not trained.
    """
    C = circuit.num_classes
    X, _ = _points(dataset.features, circuit.num_variables, missing=False,
                   what="features")
    y = _classes(dataset.labels, C, "label")
    if X.shape[0] == 0:
        raise ValueError("empty dataset")
    if np.any(circuit.kind == CATEGORICAL):
        raise ValueError("fit cannot train categorical leaves: their probabilities "
                         "would keep their initial values")

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

    compiled = compile_circuit(circuit)
    mean, variance, p = compiled.gaussian_mean, compiled.gaussian_variance, compiled.bernoulli_p
    if config.init_from_data:
        Xtr = X[train_idx]
        if mean.size:
            rows = rng.integers(0, Xtr.shape[0], size=mean.size)
            mean = Xtr[rows, compiled.gaussian_vars]
            variance = np.maximum(Xtr.var(axis=0)[compiled.gaussian_vars],
                                  config.variance_floor * 10.0)
        if p.size:
            p = np.clip(Xtr.mean(axis=0)[compiled.bernoulli_vars], 0.05, 0.95)
    params = _Parameters(compiled, mean, variance, p, config.variance_floor)

    train_ll: list[float] = []
    best_val = -np.inf
    last_val = None
    best = None     # the compiled circuit of the best validation score
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
            seeds = np.equal.outer(yb, np.arange(C)) / idx.size

            def adjoints(values, rows):
                # Every label present has a finite log prior, so the loss is
                # finite where log S(x|y) is.  Checked before each column
                # block's backward pass, so none runs on a non-finite loss.
                if not np.all(np.isfinite(values[np.arange(values.shape[0]), yb[rows]])):
                    raise ValueError(f"non-finite loss in epoch {epoch}, batch {bi}")
                return seeds[rows]

            values, back = params.compiled.evaluate(Xb, adjoints, want_input=False,
                                                    want_params=True)
            ll_sum += float((values[np.arange(idx.size), yb] + log_prior[yb]).sum())
            params.ascend(back, config.learning_rate)
        train_ll.append(ll_sum / epoch_order.size)

        if n_val > 0:
            val_ll = _mean_joint_ll_compiled(params.compiled, log_prior,
                                             X[val_idx], y[val_idx])
            last_val = val_ll
            if val_ll > best_val:
                best_val = val_ll
                best = params.compiled
                bad_epochs = 0
            else:
                bad_epochs += 1
                if use_early_stop and bad_epochs >= config.patience:
                    converged = True
                    break

    use_best = use_early_stop and best is not None
    compiled = best if use_best else params.compiled
    if not np.all(compiled.gaussian_variance >= config.variance_floor - 1e-12):
        raise RuntimeError("training left a Gaussian variance below the floor "
                           f"{config.variance_floor}")
    fitted = compiled.to_circuit(log_prior)
    # the reported validation score matches the returned parameters
    final_val = best_val if use_best else last_val
    report = TrainReport(
        train_log_likelihood=train_ll,
        validation_log_likelihood=(float(final_val) if final_val is not None
                                   and np.isfinite(final_val) else None),
        epochs_run=epochs_run,
        converged=converged,
    )
    return fitted, report

