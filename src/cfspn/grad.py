"""Exact reverse-mode input gradients of circuit outputs.

Every gradient is one forward and one backward sweep over the compiled
circuit per chunk of rows (``gradient``), propagating adjoints of log node
values top-down and converting to input partials at the leaves.  Working
in log space until the leaf conversion avoids the underflow that direct
density differentiation hits in high dimension.  The named functions below
only choose the class-root seeds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import engine
from .circuit import LOG_TINY, Circuit, logsumexp
from .inference import CHUNK

GRAD_MODES = ("density", "log_density")

#: Gradient vectors are plain length-d arrays, nats (or density) per input unit.
GradientVector = np.ndarray


@dataclass(frozen=True)
class Gradient:
    """An input gradient and the class-root log values of the same forward pass.

    ``values`` has the input's shape, (d,) or (B, d); ``class_log_values``
    holds log S(x|y) per class, (C,) or (B, C).  In density mode, where
    log S(u) falls below the smallest positive normal float, the true
    gradient is numerically zero: it is reported as exact zeros with
    ``underflow`` set (a bool per point) rather than as garbage.
    """

    values: np.ndarray
    class_log_values: np.ndarray
    underflow: bool | list[bool] = False


def _points(circuit: Circuit, x) -> tuple[np.ndarray, bool]:
    """x as a (B, d) batch, and whether it was a single (d,) point."""
    X = np.asarray(x, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != circuit.num_variables:
        raise ValueError(f"input shape {np.shape(x)} does not match "
                         f"{circuit.num_variables} variables")
    if np.any(np.isnan(X)):
        raise ValueError("input has missing values; gradients need full observations")
    if np.any(np.isinf(X)):
        raise ValueError("input contains non-finite values")
    return X, single


def gradient(circuit: Circuit, x, class_weights: dict[int, float],
             density_weight: float = 0.0) -> Gradient:
    """grad_x [sum_y class_weights[y] log S(x|y) + density_weight log S(x)].

    x is one point (d,) or a batch (B, d), evaluated in chunks of
    ``inference.CHUNK`` rows.  Per chunk, the forward pass gives every
    class-root log value; the quantity's partials with respect to them,
    class_weights[y] + density_weight * P(y|x), seed a single backward pass.
    """
    X, single = _points(circuit, x)
    weights = np.zeros(circuit.num_classes)
    for y, w in class_weights.items():
        if not (0 <= y < circuit.num_classes):
            raise ValueError(f"class {y} out of range [0, {circuit.num_classes})")
        weights[y] = w
    compiled = engine.compile_circuit(circuit)
    G = np.empty_like(X)
    values = np.empty((X.shape[0], circuit.num_classes))
    for start in range(0, X.shape[0], CHUNK):
        rows = slice(start, start + CHUNK)
        V = compiled.forward(X[rows])
        values[rows] = compiled.root_values(V)
        adjoints = np.broadcast_to(weights, values[rows].shape)
        if density_weight:
            # P(y|x) as a softmax of the joint log values, shifted by their max
            joint = values[rows] + circuit.log_prior
            e = np.exp(joint - joint.max(axis=1, keepdims=True))
            adjoints = adjoints + density_weight * (e / e.sum(axis=1, keepdims=True))
        seeds: dict[int, np.ndarray] = {}
        for k, root in enumerate(circuit.class_roots):
            seeds[root] = seeds.get(root, 0.0) + adjoints[:, k]
        G[rows] = compiled.backward(V, X[rows], seeds).input_grads
    return Gradient(G[0], values[0]) if single else Gradient(G, values)


def grad_log_ratio(circuit: Circuit, x, y: int, y_prime: int) -> GradientVector:
    """grad_x [log S(x|y') - log S(x|y)], the cross-boundary ascent direction.

    Antisymmetric in (y, y') by construction: both class-root adjoints are
    seeded in a single backward pass with opposite signs.
    """
    if y == y_prime:
        raise ValueError("y and y_prime must differ")
    return gradient(circuit, x, {y_prime: 1.0, y: -1.0}).values


def grad_log_ratio_batch(circuit: Circuit, X, y: int, y_prime: int) -> np.ndarray:
    """grad_log_ratio for every row of X in one backward pass; shape (B, d)."""
    return grad_log_ratio(circuit, X, y, y_prime)


def grad_density(circuit: Circuit, u, mode: str = "density") -> Gradient:
    """Gradient of the mixture density S(u), or of log S(u) in log mode.

    Density mode returns exp(log S(u)) * grad log S(u), the stable factorized
    form of the same quantity.
    """
    if mode not in GRAD_MODES:
        raise ValueError(f"mode must be one of {GRAD_MODES}, got {mode!r}")
    g = gradient(circuit, u, {}, density_weight=1.0)
    if mode == "log_density":
        return g
    log_s = logsumexp(g.class_log_values + circuit.log_prior, axis=-1)
    underflow = log_s < LOG_TINY
    values = np.where(underflow[..., None], 0.0, np.exp(log_s)[..., None] * g.values)
    return dataclasses.replace(g, values=values, underflow=underflow.tolist())


def grad_log_density_batch(circuit: Circuit, X) -> np.ndarray:
    """grad log S(x) for every row of X in one backward pass; shape (B, d)."""
    return grad_density(circuit, X, "log_density").values


def grad_log_posterior(circuit: Circuit, x, y_prime: int) -> GradientVector:
    """grad_x log P(y'|x), the ascent direction used by the iterative baseline.

    log P(y'|x) = log S(x|y') + log P(y') - log S(x); one backward pass.
    """
    return gradient(circuit, x, {y_prime: 1.0}, density_weight=-1.0).values
