"""Density evaluation, marginalization and Bayes-rule classification.

Evidence is a length-d float vector; NaN marks a marginalized variable.
Every operation accepts a single row or a (B, d) batch and returns a scalar
or vector accordingly.  All quantities are log-space nats.
"""

from __future__ import annotations

import numpy as np

from . import engine
from .circuit import Circuit, logsumexp

#: Rows per evaluation chunk; bounds peak memory on wide circuits.
CHUNK = 256

#: A posterior is a length-C (or (B, C)) vector of normalized log probabilities.
Posterior = np.ndarray


def as_evidence(values, num_variables: int | None = None) -> np.ndarray:
    """Build an evidence vector from a sequence with None for missing entries."""
    x = np.array([np.nan if v is None else float(v) for v in values],
                 dtype=np.float64)
    if num_variables is not None and x.shape != (num_variables,):
        raise ValueError(f"expected {num_variables} values, got {x.shape}")
    return x


def _as_batch(circuit: Circuit, evidence) -> tuple[np.ndarray, bool]:
    x = np.asarray(evidence, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != circuit.num_variables:
        raise ValueError(
            f"evidence shape {np.shape(evidence)} does not match "
            f"{circuit.num_variables} variables")
    if np.any(np.isinf(x)):
        raise ValueError("evidence contains non-finite present values")
    return x, single


def _root_values(circuit: Circuit, X: np.ndarray) -> np.ndarray:
    """Log values of every class root, shape (B, C); chunked over rows."""
    compiled = engine.compile_circuit(circuit)
    out = np.empty((X.shape[0], circuit.num_classes))
    for start in range(0, X.shape[0], CHUNK):
        rows = slice(start, start + CHUNK)
        out[rows] = compiled.root_values(compiled.forward(X[rows]))
    # A fully marginalized row integrates a normalized density: exactly 1.
    all_missing = np.all(np.isnan(X), axis=1)
    if np.any(all_missing):
        out[all_missing] = 0.0
    return out


def class_log_densities(circuit: Circuit, evidence) -> np.ndarray:
    """log S(x|y) for every class y; shape (C,) or (B, C)."""
    X, single = _as_batch(circuit, evidence)
    values = _root_values(circuit, X)
    return values[0] if single else values


def class_log_density(circuit: Circuit, y: int, evidence):
    """log S(x|y), the log value at class root y."""
    if not (0 <= y < circuit.num_classes):
        raise ValueError(f"class {y} out of range [0, {circuit.num_classes})")
    values = class_log_densities(circuit, evidence)
    return float(values[y]) if values.ndim == 1 else values[:, y]


def log_density(circuit: Circuit, evidence):
    """log S(x) = log sum_y exp(log S(x|y) + log P(y))."""
    X, single = _as_batch(circuit, evidence)
    values = log_density_of(circuit, _root_values(circuit, X))
    all_missing = np.all(np.isnan(X), axis=1)
    if np.any(all_missing):
        values[all_missing] = 0.0
    return float(values[0]) if single else values


def log_density_of(circuit: Circuit, class_log_values) -> np.ndarray:
    """log S(x) from the class-root log values log S(x|y), (C,) or (B, C)."""
    return logsumexp(np.asarray(class_log_values) + circuit.log_prior, axis=-1)


def posterior(circuit: Circuit, evidence) -> Posterior:
    """Normalized log P(y|x) by Bayes' rule; shape (C,) or (B, C)."""
    X, single = _as_batch(circuit, evidence)
    log_probs = posterior_of(circuit, _root_values(circuit, X))
    return log_probs[0] if single else log_probs


def posterior_of(circuit: Circuit, class_log_values) -> Posterior:
    """posterior from the class-root log values log S(x|y), (C,) or (B, C).

    When every class-conditional density underflows to -inf the posterior
    falls back to the prior (the limit of the ratio is prior-weighted).
    """
    joint = np.atleast_2d(class_log_values) + circuit.log_prior
    norm = logsumexp(joint, axis=1)
    dead = ~np.isfinite(norm)
    if np.any(dead):
        joint[dead] = circuit.log_prior
        norm[dead] = 0.0
    return (joint - norm[:, None]).reshape(np.shape(class_log_values))


def predict(circuit: Circuit, evidence):
    """Most probable class; exact ties resolve to the lowest class index."""
    log_probs = posterior(circuit, evidence)
    if log_probs.ndim == 1:
        return int(np.argmax(log_probs))
    return np.argmax(log_probs, axis=1)


def accuracy(circuit: Circuit, features, labels) -> float:
    """Share of rows whose predicted class matches the label."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("no rows to score")
    return float(np.mean(predict(circuit, features) == labels))
