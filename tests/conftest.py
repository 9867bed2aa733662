"""Shared test helpers: a naive reference evaluator and parameter randomizers."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cfspn import circuit as cm
from cfspn.structure import StructureConfig, build_circuit


def naive_log_value(circuit, node_id, evidence):
    """Recursive log evaluation of one node, written for clarity not speed.

    evidence is a 1-D float array with NaN marking missing variables.
    Marginalized leaves contribute log 1 = 0.
    """
    node = circuit.nodes[node_id]
    if node.kind == "sum":
        terms = [lw + naive_log_value(circuit, child, evidence)
                 for child, lw in zip(node.children, node.log_weights)]
        top = max(terms)
        if top == -math.inf:
            return -math.inf
        return top + math.log(sum(math.exp(t - top) for t in terms))
    if node.kind == "product":
        return sum(naive_log_value(circuit, child, evidence)
                   for child in node.children)
    x = evidence[node.variable]
    if math.isnan(x):
        return 0.0
    if node.kind == "gaussian":
        return (-0.5 * math.log(2.0 * math.pi * node.variance)
                - (x - node.mean) ** 2 / (2.0 * node.variance))
    if node.kind == "bernoulli":
        return x * math.log(node.p) + (1.0 - x) * math.log1p(-node.p)
    if node.kind == "categorical":
        k = int(round(x))
        k = min(max(k, 0), node.probabilities.size - 1)
        return math.log(node.probabilities[k])
    raise AssertionError(f"unknown node kind {node.kind!r}")


def naive_class_log_density(circuit, y, evidence):
    return naive_log_value(circuit, circuit.class_roots[y], evidence)


def randomize_parameters(circuit, rng):
    """A copy of the circuit with every parameter replaced by a random valid draw."""
    nodes = []
    for node in circuit.nodes:
        if node.kind == "sum":
            node = replace(node, log_weights=np.log(
                rng.dirichlet(np.ones(len(node.children)))))
        elif node.kind == "gaussian":
            node = replace(node, mean=float(rng.normal(0.5, 0.3)),
                           variance=float(rng.uniform(0.05, 0.4)))
        elif node.kind == "bernoulli":
            node = replace(node, p=float(rng.uniform(0.1, 0.9)))
        elif node.kind == "categorical":
            node = replace(node, probabilities=rng.dirichlet(
                np.ones(node.probabilities.size)))
        nodes.append(node)
    return replace(circuit, nodes=nodes, log_prior=np.log(
        rng.dirichlet(np.ones(circuit.num_classes))))


def random_circuit(rng, num_variables=None, leaf_family="gaussian",
                   num_classes=None, max_repetitions=3):
    """A small random circuit with random parameters, for oracle tests."""
    d = int(num_variables if num_variables is not None else rng.integers(2, 9))
    k = int(num_classes if num_classes is not None else rng.integers(1, 4))
    cards = None
    if leaf_family == "categorical":
        cards = tuple(int(rng.integers(2, 5)) for _ in range(d))
    cfg = StructureConfig(
        depth=1,
        repetitions=int(rng.integers(1, max_repetitions + 1)),
        sum_nodes_per_region=int(rng.integers(1, 4)),
        leaf_distributions_per_region=int(rng.integers(1, 4)),
        num_classes=k,
        leaf_family=leaf_family,
        seed=int(rng.integers(100000)),
        categorical_cardinalities=cards,
    )
    return randomize_parameters(build_circuit(d, cfg), rng)


def two_gaussian_classifier(mean0=-1.0, mean1=1.0, variance=0.25):
    """One-variable model with a single Gaussian leaf per class."""
    nodes = [
        cm.GaussianLeaf(variable=0, mean=mean0, variance=variance),
        cm.GaussianLeaf(variable=0, mean=mean1, variance=variance),
    ]
    return cm.Circuit(
        nodes=nodes,
        class_roots=[0, 1],
        log_prior=cm.uniform_log_weights(2),
        num_variables=1,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)
