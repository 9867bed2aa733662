"""Random region-graph construction and instantiation into multi-root circuits.

A region graph is built by repeatedly drawing random balanced 2-partitions
of the variable set, independently per repetition, down to a fixed depth.
Instantiation places leaf distributions on leaf regions, sum nodes on
internal regions, cross-paired products at partitions, and one sum root per
class on the root region.  Repetitions never share nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .circuit import (
    BernoulliLeaf,
    CategoricalLeaf,
    Circuit,
    GaussianLeaf,
    Node,
    ProductNode,
    SumNode,
    uniform_log_weights,
)

LEAF_FAMILIES = ("gaussian", "bernoulli", "categorical")


@dataclass
class RegionGraph:
    """Forest of per-repetition binary partition trees over one shared root.

    ``regions[0]`` is the root scope; every other region belongs to exactly
    one repetition.  ``partitions`` holds (parent index, (left index, right
    index)) triples; only the root parent appears more than once.
    """

    regions: list[tuple[int, ...]]
    partitions: list[tuple[int, tuple[int, int]]]
    depth: int
    repetitions: int


@dataclass
class StructureConfig:
    depth: int = 1
    repetitions: int = 19
    sum_nodes_per_region: int = 10
    leaf_distributions_per_region: int = 20
    num_classes: int = 2
    leaf_family: str = "gaussian"
    seed: int = 0
    # required when leaf_family == "categorical": one cardinality per variable
    categorical_cardinalities: tuple[int, ...] | None = None

    def __post_init__(self):
        for name in ("depth", "repetitions", "sum_nodes_per_region",
                     "leaf_distributions_per_region", "num_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.leaf_family not in LEAF_FAMILIES:
            raise ValueError(f"unknown leaf_family {self.leaf_family!r}")


def build_region_graph(num_variables: int, depth: int, repetitions: int,
                       seed) -> RegionGraph:
    """Draw ``repetitions`` independent recursive balanced 2-splits.

    Odd-sized regions split ceil/floor.  Requires 2**depth <= num_variables
    so every leaf region is non-empty.  Deterministic given the seed.
    """
    if num_variables < 2:
        raise ValueError(f"need at least 2 variables, got {num_variables}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if 2 ** depth > num_variables:
        raise ValueError(
            f"2**{depth} regions cannot tile {num_variables} variables")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    regions: list[tuple[int, ...]] = [tuple(range(num_variables))]
    partitions: list[tuple[int, tuple[int, int]]] = []

    def split(region_index: int, level: int) -> None:
        scope = regions[region_index]
        if level > depth or len(scope) < 2:
            return
        order = rng.permutation(len(scope))
        half = (len(scope) + 1) // 2
        left = tuple(sorted(scope[i] for i in order[:half]))
        right = tuple(sorted(scope[i] for i in order[half:]))
        li = len(regions)
        regions.append(left)
        ri = len(regions)
        regions.append(right)
        partitions.append((region_index, (li, ri)))
        split(li, level + 1)
        split(ri, level + 1)

    for _ in range(repetitions):
        split(0, 1)
    return RegionGraph(regions, partitions, depth, repetitions)


def _make_leaf(variable: int, config: StructureConfig,
               rng: np.random.Generator) -> Node:
    if config.leaf_family == "gaussian":
        return GaussianLeaf(variable, mean=float(rng.uniform(0.0, 1.0)),
                            variance=1.0)
    if config.leaf_family == "bernoulli":
        return BernoulliLeaf(variable, p=float(rng.uniform(0.1, 0.9)))
    sizes = config.categorical_cardinalities
    if sizes is None or variable >= len(sizes):
        raise ValueError("categorical leaves need categorical_cardinalities "
                         "covering every variable")
    probs = rng.dirichlet(np.ones(sizes[variable]))
    return CategoricalLeaf(variable, probs)


def instantiate(region_graph: RegionGraph, config: StructureConfig) -> Circuit:
    """Materialize a region graph into a circuit with C class roots.

    Leaf regions get I distribution nodes (products of per-variable leaves
    when the region spans several variables); internal regions get S sum
    nodes over the cross-paired products of their partition; the root gets
    C sum nodes over every repetition's top products, uniformly weighted.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    nodes: list[Node] = []

    def add(node: Node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    children_of: dict[int, tuple[int, int]] = {}
    root_partitions: list[tuple[int, int]] = []
    for parent, pair in region_graph.partitions:
        if parent == 0:
            root_partitions.append(pair)
        else:
            if parent in children_of:
                raise ValueError(f"region {parent} has multiple partitions")
            children_of[parent] = pair
    if not root_partitions:
        raise ValueError("region graph has no root partition")

    def region_nodes(region_index: int) -> list[int]:
        scope = region_graph.regions[region_index]
        pair = children_of.get(region_index)
        if pair is None:
            out = []
            for _ in range(config.leaf_distributions_per_region):
                leaves = [add(_make_leaf(v, config, rng)) for v in scope]
                out.append(leaves[0] if len(leaves) == 1
                           else add(ProductNode(leaves)))
            return out
        left = region_nodes(pair[0])
        right = region_nodes(pair[1])
        products = [add(ProductNode([a, b]))
                    for a, b in itertools.product(left, right)]
        S = config.sum_nodes_per_region
        lw = uniform_log_weights(len(products))
        return [add(SumNode(products, lw)) for _ in range(S)]

    top_products: list[int] = []
    for li, ri in root_partitions:
        left = region_nodes(li)
        right = region_nodes(ri)
        top_products.extend(add(ProductNode([a, b]))
                            for a, b in itertools.product(left, right))

    lw = uniform_log_weights(len(top_products))
    class_roots = [add(SumNode(top_products, lw))
                   for _ in range(config.num_classes)]

    return Circuit(
        nodes=nodes,
        class_roots=class_roots,
        log_prior=uniform_log_weights(config.num_classes),
        num_variables=len(region_graph.regions[0]),
    )


def _single_variable_circuit(config: StructureConfig) -> Circuit:
    # One variable admits no partition: each class root mixes I leaves directly.
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    nodes: list[Node] = []
    I = config.leaf_distributions_per_region
    for _ in range(I):
        nodes.append(_make_leaf(0, config, rng))
    lw = uniform_log_weights(I)
    class_roots = []
    for _ in range(config.num_classes):
        nodes.append(SumNode(range(I), lw))
        class_roots.append(len(nodes) - 1)
    return Circuit(nodes=nodes, class_roots=class_roots,
                   log_prior=uniform_log_weights(config.num_classes),
                   num_variables=1)


def build_circuit(num_variables: int, config: StructureConfig) -> Circuit:
    """Region graph plus instantiation in one call, from config.seed alone."""
    if num_variables < 1:
        raise ValueError(f"need at least 1 variable, got {num_variables}")
    if num_variables == 1:
        return _single_variable_circuit(config)
    graph = build_region_graph(num_variables, config.depth,
                               config.repetitions, config.seed)
    return instantiate(graph, config)
