"""Random region-graph construction and instantiation into multi-root circuits.

A region graph is built by repeatedly drawing random balanced 2-partitions
of the variable set, independently per repetition, down to a fixed depth.
Instantiation places leaf distributions on leaf regions, sum nodes on
internal regions, cross-paired products at partitions, and one sum root per
class on the root region.  Repetitions never share nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import KINDS, PRODUCT, SUM, Circuit, _integer, uniform_log_weights

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
                     "leaf_distributions_per_region", "num_classes", "seed"):
            setattr(self, name, _integer(getattr(self, name), name, 0 if name == "seed" else 1))
        if self.categorical_cardinalities is not None:
            if not isinstance(self.categorical_cardinalities, (list, tuple, np.ndarray)):
                raise ValueError("categorical_cardinalities must be a list of integers, "
                                 f"got {self.categorical_cardinalities!r}")
            self.categorical_cardinalities = tuple(_integer(k, "categorical_cardinalities", 1)
                                                   for k in self.categorical_cardinalities)
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


class _Arena:
    """Nodes appended in blocks; each block's ids follow the previous block's."""

    def __init__(self):
        self.blocks: list[list[np.ndarray]] = []
        self.size = 0

    def add(self, count: int, kind, variable=-1, arity=0, children=(),
            log_weight: float = 0.0) -> np.ndarray:
        """Append ``count`` nodes with the given (per-node or shared) kind code,
        variable and number of children, whose child ids are ``children``
        flattened; return the new ids."""
        children = np.asarray(children, dtype=np.int64).ravel()
        self.blocks.append([np.broadcast_to(a, count) for a in (kind, variable, arity)]
                           + [children, np.full(children.size, log_weight)])
        self.size += count
        return np.arange(self.size - count, self.size)

    def products(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Binary products of every (a, b) in left x right, row-major."""
        pairs = np.stack(np.meshgrid(left, right, indexing="ij"), axis=-1)
        return self.add(pairs.size // 2, PRODUCT, arity=2, children=pairs)

    def sums(self, count: int, children: np.ndarray) -> np.ndarray:
        """``count`` uniformly weighted sums over the same children."""
        return self.add(count, SUM, arity=children.size,
                        children=np.tile(children, count),
                        log_weight=-math.log(children.size))

    def circuit(self, config: StructureConfig, rng: np.random.Generator,
                class_roots: np.ndarray, num_variables: int) -> Circuit:
        """The circuit, with leaf parameters drawn in node order."""
        kind, variable, arity, ids, log_weights = (np.concatenate(parts)
                                                   for parts in zip(*self.blocks))
        leaf_vars = variable[kind < SUM]
        if config.leaf_family == "gaussian":
            params = {"mean": rng.uniform(0.0, 1.0, leaf_vars.size),
                      "variance": np.ones(leaf_vars.size)}
        elif config.leaf_family == "bernoulli":
            params = {"p": rng.uniform(0.1, 0.9, leaf_vars.size)}
        else:
            sizes = config.categorical_cardinalities
            if sizes is None or leaf_vars.max() >= len(sizes):
                raise ValueError("categorical leaves need categorical_cardinalities "
                                 "covering every variable")
            probs = [rng.dirichlet(np.ones(sizes[v])) for v in leaf_vars]
            params = {"probs_ptr": np.cumsum([0] + [q.size for q in probs]),
                      "probs": np.concatenate(probs)}
        return Circuit(kind=kind, variable=variable,
                       ptr=np.concatenate([[0], np.cumsum(arity)]), ids=ids,
                       log_weights=log_weights, class_roots=class_roots,
                       log_prior=uniform_log_weights(config.num_classes),
                       num_variables=num_variables, **params)


def instantiate(region_graph: RegionGraph, config: StructureConfig) -> Circuit:
    """Materialize a region graph into a circuit with C class roots.

    Leaf regions get I distribution nodes (products of per-variable leaves
    when the region spans several variables); internal regions get S sum
    nodes over the cross-paired products of their partition; the root gets
    C sum nodes over every repetition's top products, uniformly weighted.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    arena = _Arena()
    leaf = KINDS.index(config.leaf_family)
    I, S = config.leaf_distributions_per_region, config.sum_nodes_per_region

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

    def region_nodes(region_index: int) -> np.ndarray:
        scope = region_graph.regions[region_index]
        pair = children_of.get(region_index)
        if pair is None:
            k = len(scope)
            if k == 1:
                return arena.add(I, leaf, scope[0])
            # each distribution: its k leaves, then their product
            base = arena.size + (k + 1) * np.arange(I)[:, None]
            ids = arena.add(I * (k + 1), np.tile([leaf] * k + [PRODUCT], I),
                            np.tile([*scope, -1], I), np.tile([0] * k + [k], I),
                            base + np.arange(k))
            return ids[k::k + 1]
        products = arena.products(region_nodes(pair[0]), region_nodes(pair[1]))
        return arena.sums(S, products)

    top_products = np.concatenate([arena.products(region_nodes(li), region_nodes(ri))
                                   for li, ri in root_partitions])
    class_roots = arena.sums(config.num_classes, top_products)
    return arena.circuit(config, rng, class_roots, len(region_graph.regions[0]))


def _single_variable_circuit(config: StructureConfig) -> Circuit:
    # One variable admits no partition: each class root mixes I leaves directly.
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    arena = _Arena()
    leaves = arena.add(config.leaf_distributions_per_region,
                       KINDS.index(config.leaf_family), 0)
    class_roots = arena.sums(config.num_classes, leaves)
    return arena.circuit(config, rng, class_roots, 1)


def build_circuit(num_variables: int, config: StructureConfig) -> Circuit:
    """Region graph plus instantiation in one call, from config.seed alone."""
    if num_variables < 1:
        raise ValueError(f"need at least 1 variable, got {num_variables}")
    if num_variables == 1:
        return _single_variable_circuit(config)
    graph = build_region_graph(num_variables, config.depth,
                               config.repetitions, config.seed)
    return instantiate(graph, config)
