"""Density evaluation, marginalization and Bayes-rule classification.

Evidence is a length-d float vector; NaN (or None, in a list) marks a
marginalized variable, and an infinite value raises ValueError.  Every
operation accepts a single row or a (B, d) batch and returns a scalar or
vector accordingly.  All quantities are log-space nats.
"""

from __future__ import annotations

import numpy as np

from . import engine
from .circuit import Circuit, _classes, _points, logsumexp

#: A posterior is a length-C (or (B, C)) vector of normalized log probabilities.
Posterior = np.ndarray


def _root_values(circuit: Circuit, X: np.ndarray) -> np.ndarray:
    """Log values of every class root, shape (B, C)."""
    out = engine.compile_circuit(circuit).evaluate(X)[0]
    # A fully marginalized row integrates a normalized density: exactly 1.
    all_missing = np.all(np.isnan(X), axis=1)
    if np.any(all_missing):
        out[all_missing] = 0.0
    return out


def class_log_densities(circuit: Circuit, evidence) -> np.ndarray:
    """log S(x|y) for every class y; shape (C,) or (B, C)."""
    X, single = _points(evidence, circuit.num_variables, what="evidence")
    values = _root_values(circuit, X)
    return values[0] if single else values


def log_density(circuit: Circuit, evidence):
    """log S(x) = log sum_y exp(log S(x|y) + log P(y))."""
    X, single = _points(evidence, circuit.num_variables, what="evidence")
    values = log_density_of(circuit, _root_values(circuit, X))
    # the prior mixture of the class roots' exact zeros may miss 0 by an ulp
    all_missing = np.all(np.isnan(X), axis=1)
    if np.any(all_missing):
        values[all_missing] = 0.0
    return float(values[0]) if single else values


def log_density_of(circuit: Circuit, class_log_values) -> np.ndarray:
    """log S(x) from the class-root log values log S(x|y), (C,) or (B, C)."""
    return logsumexp(np.asarray(class_log_values) + circuit.log_prior, axis=-1)


def posterior(circuit: Circuit, evidence) -> Posterior:
    """Normalized log P(y|x) by Bayes' rule; shape (C,) or (B, C)."""
    X, single = _points(evidence, circuit.num_variables, what="evidence")
    log_probs = posterior_of(circuit, _root_values(circuit, X))
    return log_probs[0] if single else log_probs


def posterior_of(circuit: Circuit, class_log_values) -> Posterior:
    """posterior from the class-root log values log S(x|y), (C,) or (B, C)."""
    log_probs, _ = _posterior_and_density(circuit, np.atleast_2d(class_log_values))
    return log_probs.reshape(np.shape(class_log_values))


def _posterior_and_density(circuit: Circuit,
                           class_log_values: np.ndarray) -> tuple[Posterior, np.ndarray]:
    """The (B, C) posterior and the (B,) log density from (B, C) class-root
    log values, with one log-sum-exp: the log density is the posterior's
    normalizer.

    When every class-conditional density underflows to -inf the posterior
    falls back to the prior (the limit of the ratio is prior-weighted).
    """
    joint = class_log_values + circuit.log_prior
    norm = logsumexp(joint, axis=1)
    dead = ~np.isfinite(norm)
    joint[dead] = circuit.log_prior
    return joint - np.where(dead, 0.0, norm)[:, None], norm


def predict(circuit: Circuit, evidence):
    """Most probable class; exact ties resolve to the lowest class index."""
    log_probs = posterior(circuit, evidence)
    if log_probs.ndim == 1:
        return int(np.argmax(log_probs))
    return np.argmax(log_probs, axis=1)


def accuracy(circuit: Circuit, features, labels) -> float:
    """Share of rows whose predicted class matches the label."""
    predictions = np.atleast_1d(predict(circuit, features))
    labels = _classes(labels, circuit.num_classes, "label", len(predictions))
    if labels.size == 0:
        raise ValueError("no rows to score")
    return float(np.mean(predictions == labels))
