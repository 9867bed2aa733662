"""Exact reverse-mode input gradients of circuit outputs.

Every gradient is one fused pass of the compiled circuit over the whole
batch (``gradient``, through ``CompiledCircuit.evaluate``): per column
block, a forward sweep gives the class-root log values, the seeds are
derived from them, and a backward sweep propagates adjoints of log node
values top-down and converts them to input partials at the leaves.  Working
in log space until the leaf conversion avoids the underflow that direct
density differentiation hits in high dimension.  The named functions below
only choose the class-root seeds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import engine
from .circuit import LOG_TINY, Circuit, _classes, _points, logsumexp

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


def gradient(circuit: Circuit, x, class_weights: dict[int, float] | np.ndarray,
             density_weight: float = 0.0) -> Gradient:
    """grad_x [sum_y class_weights[y] log S(x|y) + density_weight log S(x)].

    x is one point (d,) or a batch (B, d) of any size, evaluated in one
    call of ``CompiledCircuit.evaluate``: a forward and a backward sweep per
    column block of rows.  ``class_weights`` maps classes to weights that
    every point shares, or is a (B, C) array with a row of weights per
    point.  The forward sweep gives every class-root log value; the
    quantity's partials with respect to them, class_weights[y] +
    density_weight * P(y|x), seed the backward sweep.
    """
    X, single = _points(x, circuit.num_variables, missing=False)
    C = circuit.num_classes
    if isinstance(class_weights, dict):
        weights = np.zeros(C)
        weights[_classes(list(class_weights), C)] = list(class_weights.values())
    else:
        weights = np.asarray(class_weights, dtype=np.float64)
        if weights.shape != (len(X), C):
            raise ValueError(f"class weights of shape {weights.shape} do not match "
                             f"{len(X)} points and {C} classes")
    weights = np.broadcast_to(weights, (len(X), C))

    def adjoints(values: np.ndarray, rows: slice) -> np.ndarray:
        adjoint = weights[rows]
        if density_weight:
            # P(y|x) as a softmax of the joint log values, shifted by their
            # max; where every class root is -inf, the prior, as in
            # inference.posterior_of, and those dead roots pass no adjoint
            joint = values + circuit.log_prior
            top = joint.max(axis=1, keepdims=True)
            dead = top[:, 0] == -np.inf
            if dead.any():
                joint[dead] = circuit.log_prior
                top[dead] = circuit.log_prior.max()
            e = np.exp(joint - top)
            adjoint = adjoint + density_weight * (e / e.sum(axis=1, keepdims=True))
        return adjoint

    values, back = engine.compile_circuit(circuit).evaluate(X, adjoints)
    G = back.input_grads
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
    """grad_log_ratio for every row of X in one engine call; shape (B, d)."""
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
    """grad log S(x) for every row of X in one engine call; shape (B, d)."""
    return grad_density(circuit, X, "log_density").values
