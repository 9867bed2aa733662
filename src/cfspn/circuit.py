"""Circuit representation, validation, serialization and log-space arithmetic.

A circuit is a DAG of sum, product and univariate leaf nodes stored in a flat
arena in topological order (children before parents), with one root per class
plus a class prior.  All evaluation happens in log space; linear-space
probabilities only appear at API boundaries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Union

import numpy as np

FORMAT_VERSION = 1

#: Normalization tolerance for weight vectors, leaf simplices and priors.
NORMALIZATION_TOL = 1e-9

#: log of the smallest positive normal float64; densities below this underflow.
LOG_TINY = math.log(np.finfo(np.float64).tiny)

LOG_2PI = math.log(2.0 * math.pi)


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(a))) along one axis; -inf if no term is above -inf.

    The largest terms leave the sum and return through log1p, the arithmetic
    of ``scipy.special.logsumexp``, whose results this matches bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    top = np.max(a, axis=axis, keepdims=True, initial=-np.inf)
    is_top = a == top
    count = is_top.sum(axis=axis, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = np.exp(np.where(is_top, -np.inf, a - top)).sum(axis=axis, keepdims=True)
        out = np.log1p(rest / count) + np.log(count) + top
    out = np.where(np.isfinite(top), out, top)
    return out if keepdims else np.squeeze(out, axis=axis)


class CircuitFormatError(ValueError):
    """A model document could not be parsed into a valid circuit."""


def _frozen_array(values) -> np.ndarray:
    """A private read-only float64 copy, so no caller can write through it."""
    out = np.array(values, dtype=np.float64)
    out.flags.writeable = False
    return out


class _Immutable:
    """Copies and unpickled instances go through the constructor, so their
    arrays are read-only too and a circuit is validated again."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)
class GaussianLeaf(_Immutable):
    variable: int
    mean: float
    variance: float

    kind = "gaussian"


@dataclass(frozen=True, eq=False)
class BernoulliLeaf(_Immutable):
    variable: int
    p: float

    kind = "bernoulli"


@dataclass(frozen=True, eq=False)
class CategoricalLeaf(_Immutable):
    variable: int
    probabilities: np.ndarray

    kind = "categorical"

    def __post_init__(self):
        object.__setattr__(self, "probabilities", _frozen_array(self.probabilities))


@dataclass(frozen=True, eq=False)
class SumNode(_Immutable):
    children: tuple[int, ...]
    log_weights: np.ndarray

    kind = "sum"

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        object.__setattr__(self, "log_weights", _frozen_array(self.log_weights))


@dataclass(frozen=True, eq=False)
class ProductNode(_Immutable):
    children: tuple[int, ...]

    kind = "product"

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))


LeafNode = Union[GaussianLeaf, BernoulliLeaf, CategoricalLeaf]
Node = Union[GaussianLeaf, BernoulliLeaf, CategoricalLeaf, SumNode, ProductNode]


def uniform_log_weights(n: int) -> np.ndarray:
    return np.full(n, -math.log(n), dtype=np.float64)


@dataclass(frozen=True, eq=False)
class Circuit(_Immutable):
    """Flat-arena circuit with per-class roots.

    ``nodes`` must list children before parents so one bottom-up pass
    evaluates the whole DAG.  Circuits and their nodes are immutable:
    sequences are stored as tuples and parameter arrays are read-only, so a
    compiled form cached per instance can never go stale.  To change a
    parameter, build a new circuit (``dataclasses.replace`` reuses every
    node left as it is).  Circuits are valid by construction: the constructor,
    and so ``dataclasses.replace``, copies and unpickling, raises
    ``ValueError`` listing every violation :func:`validate` finds.
    """

    nodes: tuple[Node, ...]
    class_roots: tuple[int, ...]
    log_prior: np.ndarray
    num_variables: int
    format_version: int = FORMAT_VERSION

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "class_roots", tuple(self.class_roots))
        object.__setattr__(self, "log_prior", _frozen_array(self.log_prior))
        validate(self)

    @property
    def num_classes(self) -> int:
        return len(self.class_roots)

    @cached_property
    def scopes(self) -> tuple[frozenset[int], ...]:
        """Variable scope of every node, computed bottom-up."""
        scopes: list[frozenset[int]] = []
        for node in self.nodes:
            if isinstance(node, (GaussianLeaf, BernoulliLeaf, CategoricalLeaf)):
                scopes.append(frozenset((node.variable,)))
            else:
                merged: set[int] = set()
                for c in node.children:
                    merged |= scopes[c]
                scopes.append(frozenset(merged))
        return tuple(scopes)


def validate(circuit: Circuit) -> None:
    """Check every structural invariant of a circuit; raise on any violation.

    Checks node references and topological order, smoothness of sum nodes,
    decomposability of product nodes, weight/prior normalization, leaf
    parameter domains and class-root scopes.  One ``ValueError`` lists every
    violation found, as ``[kind] node i: message; ...``.  The :class:`Circuit`
    constructor calls this, so every circuit that exists is valid.
    """
    violations = [f"[{kind}] node {node}: {message}"
                  for node, kind, message in _violations(circuit)]
    if violations:
        raise ValueError("invalid circuit: " + "; ".join(violations))


def _violations(circuit: Circuit):
    """(node or None, kind, message) of each violated invariant."""
    n = len(circuit.nodes)
    if n == 0:
        yield (None, "structure", "circuit has no nodes")
        return
    if circuit.num_variables < 1:
        yield (None, "structure",
               f"num_variables must be >= 1, got {circuit.num_variables}")

    # Child references must resolve and respect children-before-parents order.
    refs_ok = True
    for i, node in enumerate(circuit.nodes):
        if isinstance(node, (SumNode, ProductNode)):
            if len(node.children) < 1:
                yield (i, "structure", f"{node.kind} node has no children")
                refs_ok = False
                continue
            for c in node.children:
                if not (0 <= c < n):
                    yield (i, "node-ref", f"child id {c} out of range")
                    refs_ok = False
                elif c >= i:
                    yield (i, "topological-order",
                           f"child {c} does not precede parent {i}")
                    refs_ok = False

    # Leaf parameter domains.
    for i, node in enumerate(circuit.nodes):
        if isinstance(node, (GaussianLeaf, BernoulliLeaf, CategoricalLeaf)):
            if not (0 <= node.variable < circuit.num_variables):
                yield (i, "leaf-domain", f"variable {node.variable} out of range")
        if isinstance(node, GaussianLeaf):
            if not (node.variance > 0.0) or not np.isfinite(node.variance):
                yield (i, "leaf-domain", f"variance {node.variance} is not positive")
            if not np.isfinite(node.mean):
                yield (i, "leaf-domain", f"mean {node.mean} is not finite")
        elif isinstance(node, BernoulliLeaf):
            if not (0.0 <= node.p <= 1.0):
                yield (i, "leaf-domain", f"p {node.p} outside [0, 1]")
        elif isinstance(node, CategoricalLeaf):
            probs = node.probabilities
            if probs.ndim != 1 or probs.size < 1:
                yield (i, "leaf-domain", "probabilities must be a non-empty vector")
            elif np.any(probs < 0) or abs(probs.sum() - 1.0) > NORMALIZATION_TOL:
                yield (i, "leaf-domain", "probabilities are not a simplex")

    # Sum-weight normalization.
    for i, node in enumerate(circuit.nodes):
        if isinstance(node, SumNode):
            lw = node.log_weights
            if lw.shape != (len(node.children),):
                yield (i, "weight-normalization",
                       f"{lw.size} weights for {len(node.children)} children")
                continue
            if np.any(np.isnan(lw)) or np.any(lw == np.inf):
                yield (i, "weight-normalization", "log weights contain nan or +inf")
                continue
            total = np.exp(lw).sum()
            if abs(total - 1.0) > NORMALIZATION_TOL:
                yield (i, "weight-normalization", f"weights sum to {float(total)!r}")

    if not refs_ok:
        # Scope-dependent checks need resolvable references.
        return

    scopes = circuit.scopes
    for i, node in enumerate(circuit.nodes):
        if isinstance(node, SumNode):
            first = scopes[node.children[0]]
            for c in node.children[1:]:
                if scopes[c] != first:
                    yield (i, "smoothness",
                           f"children {node.children[0]} and {c} differ in scope")
                    break
        elif isinstance(node, ProductNode):
            seen: set[int] = set()
            for c in node.children:
                if seen & scopes[c]:
                    yield (i, "decomposability",
                           f"child {c} overlaps the scope of a sibling")
                    break
                seen |= scopes[c]

    # Class roots and prior.
    if not circuit.class_roots:
        yield (None, "structure", "circuit has no class roots")
    full = frozenset(range(circuit.num_variables))
    for y, r in enumerate(circuit.class_roots):
        if not (0 <= r < n):
            yield (None, "node-ref", f"class root {y} id {r} out of range")
        elif scopes[r] != full:
            yield (r, "scope", f"class root {y} does not cover all variables")

    prior = circuit.log_prior
    if prior.shape != (len(circuit.class_roots),):
        yield (None, "prior",
               f"log_prior length {prior.size} != {len(circuit.class_roots)} classes")
    elif np.any(np.isnan(prior)) or np.any(prior == np.inf):
        yield (None, "prior", "log_prior contains nan or +inf")
    elif abs(np.exp(prior).sum() - 1.0) > NORMALIZATION_TOL:
        yield (None, "prior", f"prior sums to {float(np.exp(prior).sum())!r}")


def _node_to_dict(node: Node) -> dict:
    if isinstance(node, GaussianLeaf):
        return {"kind": "gaussian", "variable": node.variable,
                "mean": node.mean, "variance": node.variance}
    if isinstance(node, BernoulliLeaf):
        return {"kind": "bernoulli", "variable": node.variable, "p": node.p}
    if isinstance(node, CategoricalLeaf):
        return {"kind": "categorical", "variable": node.variable,
                "probabilities": node.probabilities.tolist()}
    if isinstance(node, SumNode):
        return {"kind": "sum", "children": list(node.children),
                "log_weights": node.log_weights.tolist()}
    if isinstance(node, ProductNode):
        return {"kind": "product", "children": list(node.children)}
    raise TypeError(f"unknown node type {type(node)!r}")


def _node_from_dict(obj: dict, index: int) -> Node:
    try:
        kind = obj["kind"]
        if kind == "gaussian":
            return GaussianLeaf(int(obj["variable"]), float(obj["mean"]),
                                float(obj["variance"]))
        if kind == "bernoulli":
            return BernoulliLeaf(int(obj["variable"]), float(obj["p"]))
        if kind == "categorical":
            return CategoricalLeaf(int(obj["variable"]), obj["probabilities"])
        if kind == "sum":
            return SumNode([int(c) for c in obj["children"]], obj["log_weights"])
        if kind == "product":
            return ProductNode([int(c) for c in obj["children"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise CircuitFormatError(f"malformed node {index}: {exc}") from exc
    raise CircuitFormatError(f"node {index} has unknown kind {kind!r}")


def save(circuit: Circuit, destination: str | Path) -> None:
    """Write a circuit as a versioned JSON document.

    Floats are emitted as shortest decimal strings that round-trip to the
    identical float64, so ``load(save(c))`` is bit-equal parameter-wise.
    """
    doc = {
        "format_version": circuit.format_version,
        "num_variables": circuit.num_variables,
        "log_prior": circuit.log_prior.tolist(),
        "class_roots": list(circuit.class_roots),
        "nodes": [_node_to_dict(n) for n in circuit.nodes],
    }
    with open(destination, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load(source: str | Path) -> Circuit:
    """Load a circuit saved by :func:`save`.

    Raises :class:`CircuitFormatError` on version mismatch, malformed
    documents or circuits that fail validation after parsing.
    """
    try:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CircuitFormatError(f"not a JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise CircuitFormatError("top level is not an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise CircuitFormatError(
            f"format_version {version!r} not supported (expected {FORMAT_VERSION})")
    try:
        circuit = Circuit(
            nodes=[_node_from_dict(o, i) for i, o in enumerate(doc["nodes"])],
            class_roots=[int(r) for r in doc["class_roots"]],
            log_prior=doc["log_prior"],
            num_variables=int(doc["num_variables"]),
            format_version=int(version),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, CircuitFormatError):
            raise
        raise CircuitFormatError(f"malformed document: {exc}") from exc
    return circuit


def structural_equal(a: Circuit, b: Circuit) -> bool:
    """Node-by-node equality with bit-exact parameter comparison."""
    if (a.num_variables != b.num_variables or a.format_version != b.format_version
            or a.class_roots != b.class_roots
            or not np.array_equal(a.log_prior, b.log_prior)
            or len(a.nodes) != len(b.nodes)):
        return False
    for na, nb in zip(a.nodes, b.nodes):
        if type(na) is not type(nb):
            return False
        if isinstance(na, GaussianLeaf):
            if (na.variable, na.mean, na.variance) != (nb.variable, nb.mean, nb.variance):
                return False
        elif isinstance(na, BernoulliLeaf):
            if (na.variable, na.p) != (nb.variable, nb.p):
                return False
        elif isinstance(na, CategoricalLeaf):
            if na.variable != nb.variable or not np.array_equal(na.probabilities,
                                                                nb.probabilities):
                return False
        elif isinstance(na, SumNode):
            if (na.children != nb.children
                    or not np.array_equal(na.log_weights, nb.log_weights)):
                return False
        else:
            if na.children != nb.children:
                return False
    return True
