"""Shared test helpers: node records for hand-built circuits, a naive reference
evaluator and parameter randomizers."""

import base64
import math
from typing import NamedTuple

import numpy as np
import pytest

from cfspn import circuit as cm
from cfspn import engine
from cfspn.engine import CompiledCircuit
from cfspn.structure import StructureConfig, build_circuit


class GaussianLeaf(NamedTuple):
    variable: int
    mean: float
    variance: float
    kind: str = "gaussian"


class BernoulliLeaf(NamedTuple):
    variable: int
    p: float
    kind: str = "bernoulli"


class CategoricalLeaf(NamedTuple):
    variable: int
    probabilities: np.ndarray
    kind: str = "categorical"


class SumNode(NamedTuple):
    children: tuple[int, ...]
    log_weights: np.ndarray
    kind: str = "sum"


class ProductNode(NamedTuple):
    children: tuple[int, ...]
    kind: str = "product"


def from_nodes(nodes, class_roots, log_prior, num_variables):
    """A circuit from node records listed children before parents, read
    like the node objects of a version-1 model document."""
    return cm.Circuit(**cm._node_arrays([n._asdict() for n in nodes]),
                      class_roots=class_roots, log_prior=log_prior,
                      num_variables=num_variables)


def nodes_of(circuit):
    """The circuit's nodes as records (GaussianLeaf, ...), in id order."""
    gaussians = iter(zip(circuit.mean, circuit.variance))
    bernoullis = iter(circuit.p)
    categoricals = iter(np.split(circuit.probs, circuit.probs_ptr[1:-1]))
    nodes = []
    for i, code in enumerate(circuit.kind):
        kind, v = cm.KINDS[code], int(circuit.variable[i])
        edges = slice(circuit.ptr[i], circuit.ptr[i + 1])
        children = tuple(int(c) for c in circuit.ids[edges])
        if kind == "gaussian":
            mean, variance = next(gaussians)
            nodes.append(GaussianLeaf(v, float(mean), float(variance)))
        elif kind == "bernoulli":
            nodes.append(BernoulliLeaf(v, float(next(bernoullis))))
        elif kind == "categorical":
            nodes.append(CategoricalLeaf(v, next(categoricals)))
        elif kind == "sum":
            nodes.append(SumNode(children, circuit.log_weights[edges]))
        else:
            nodes.append(ProductNode(children))
    return nodes


def naive_log_value(circuit, node_id, evidence):
    """Recursive log evaluation of one node, written for clarity not speed.

    evidence is a 1-D float array with NaN marking missing variables.
    Marginalized leaves contribute log 1 = 0.
    """
    return _naive_log_value(nodes_of(circuit), node_id, evidence)


def _naive_log_value(nodes, node_id, evidence):
    node = nodes[node_id]
    if node.kind == "sum":
        terms = [lw + _naive_log_value(nodes, child, evidence)
                 for child, lw in zip(node.children, node.log_weights)]
        top = max(terms)
        if top == -math.inf:
            return -math.inf
        return top + math.log(sum(math.exp(t - top) for t in terms))
    if node.kind == "product":
        return sum(_naive_log_value(nodes, child, evidence)
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
        assert x == int(x) and 0 <= x < node.probabilities.size, x
        return math.log(node.probabilities[int(x)])
    raise AssertionError(f"unknown node kind {node.kind!r}")


def naive_class_log_density(circuit, y, evidence):
    return naive_log_value(circuit, circuit.class_roots[y], evidence)


def blob(doc, name):
    """Array ``name`` of a version-3 model document, decoded and writable."""
    return np.frombuffer(base64.b64decode(doc[name]), dtype=cm._dtype(name)).copy()


def set_blob(doc, name, values):
    """Store ``values`` as array ``name`` of a version-3 model document."""
    doc[name] = base64.b64encode(
        np.asarray(values, dtype=cm._dtype(name)).tobytes()).decode("ascii")


def randomize_parameters(circuit, rng):
    """A copy of the circuit with every parameter replaced by a random valid draw."""
    nodes = []
    for node in nodes_of(circuit):
        if node.kind == "sum":
            node = node._replace(log_weights=np.log(
                rng.dirichlet(np.ones(len(node.children)))))
        elif node.kind == "gaussian":
            node = node._replace(mean=float(rng.normal(0.5, 0.3)),
                                 variance=float(rng.uniform(0.05, 0.4)))
        elif node.kind == "bernoulli":
            node = node._replace(p=float(rng.uniform(0.1, 0.9)))
        elif node.kind == "categorical":
            node = node._replace(probabilities=rng.dirichlet(
                np.ones(node.probabilities.size)))
        nodes.append(node)
    return from_nodes(nodes, circuit.class_roots, np.log(
        rng.dirichlet(np.ones(circuit.num_classes))), circuit.num_variables)


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


def categories(circuit, rng, rows):
    """A (rows, d) batch whose every value is a category of its variable's
    categorical leaves, for a circuit with such leaves on every variable."""
    high = np.zeros(circuit.num_variables, dtype=np.int64)
    leaves = np.flatnonzero(circuit.kind == cm.CATEGORICAL)
    high[circuit.variable[leaves]] = np.diff(circuit.probs_ptr)
    return rng.integers(0, high, size=(rows, circuit.num_variables)).astype(float)


def two_gaussian_classifier(mean0=-1.0, mean1=1.0, variance=0.25):
    """One-variable model with a single Gaussian leaf per class."""
    nodes = [
        GaussianLeaf(variable=0, mean=mean0, variance=variance),
        GaussianLeaf(variable=0, mean=mean1, variance=variance),
    ]
    return from_nodes(
        nodes=nodes,
        class_roots=[0, 1],
        log_prior=cm.uniform_log_weights(2),
        num_variables=1,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def passes(monkeypatch):
    """Counts of engine forward and backward passes made during a test.

    A call of ``CompiledCircuit.evaluate`` is one forward pass, and one
    backward pass too when it is given adjoints.
    """
    counts = {"forward": 0, "backward": 0}

    def counted(name):
        original = getattr(CompiledCircuit, name)

        def wrapper(self, *args, **kwargs):
            counts[name] += 1
            return original(self, *args, **kwargs)
        return wrapper

    original_evaluate = CompiledCircuit.evaluate

    def evaluate(self, X, adjoints=None, **kwargs):
        counts["forward"] += 1
        counts["backward"] += adjoints is not None
        return original_evaluate(self, X, adjoints, **kwargs)

    for name in counts:
        monkeypatch.setattr(CompiledCircuit, name, counted(name))
    monkeypatch.setattr(CompiledCircuit, "evaluate", evaluate)
    return counts


@pytest.fixture
def structure_counts(monkeypatch):
    """The structures checked, and those lowered, during a test, in order:
    ``validate`` is called on a structure for its structural checks, and the
    engine makes a ``_Lowering`` of it."""
    checked, lowered = [], []
    validate, lower = cm.validate, engine._Lowering.__init__

    def counted_validate(item):
        if isinstance(item, cm.Structure):
            checked.append(item)
        validate(item)

    def counted_lower(self, structure):
        lowered.append(structure)
        lower(self, structure)

    monkeypatch.setattr(cm, "validate", counted_validate)
    monkeypatch.setattr(engine._Lowering, "__init__", counted_lower)
    return checked, lowered
