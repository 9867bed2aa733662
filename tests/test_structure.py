import numpy as np
import pytest

from cfspn import circuit as cm
from cfspn.structure import (RegionGraph, StructureConfig, build_circuit,
                             build_region_graph)
from conftest import nodes_of


def test_region_graph_splits_are_balanced():
    g = build_region_graph(num_variables=9, depth=2, repetitions=3, seed=0)
    for parent, (left, right) in g.partitions:
        p, l, r = g.regions[parent], g.regions[left], g.regions[right]
        assert sorted(l + r) == sorted(p)
        assert len(l) == (len(p) + 1) // 2
        assert len(r) == len(p) // 2


def test_region_graph_scopes_are_sorted_tuples():
    g = build_region_graph(num_variables=7, depth=1, repetitions=4, seed=3)
    for region in g.regions:
        assert list(region) == sorted(region)


def test_region_graph_is_deterministic():
    a = build_region_graph(num_variables=8, depth=2, repetitions=5, seed=11)
    b = build_region_graph(num_variables=8, depth=2, repetitions=5, seed=11)
    assert a.regions == b.regions
    assert a.partitions == b.partitions


def test_region_graph_varies_with_seed():
    a = build_region_graph(num_variables=8, depth=2, repetitions=1, seed=0)
    b = build_region_graph(num_variables=8, depth=2, repetitions=1, seed=1)
    assert a.regions != b.regions


def test_categorical_cardinalities_must_be_a_sequence():
    for bad in (3, 2.0, "22", {"a": 2}):
        with pytest.raises(ValueError, match="categorical_cardinalities must be a list "
                                             "of integers, got "):
            StructureConfig(categorical_cardinalities=bad)
    assert StructureConfig(categorical_cardinalities=np.array([2, 3])
                           ).categorical_cardinalities == (2, 3)


def test_region_graph_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_region_graph(num_variables=1, depth=1, repetitions=1, seed=0)
    with pytest.raises(ValueError):
        build_region_graph(num_variables=4, depth=0, repetitions=1, seed=0)
    with pytest.raises(ValueError):
        build_region_graph(num_variables=4, depth=1, repetitions=0, seed=0)
    with pytest.raises(ValueError):
        build_region_graph(num_variables=4, depth=3, repetitions=1, seed=0)


def test_structure_config_rejects_bad_values():
    with pytest.raises(ValueError):
        StructureConfig(depth=0)
    with pytest.raises(ValueError):
        StructureConfig(sum_nodes_per_region=0)
    with pytest.raises(ValueError):
        StructureConfig(leaf_family="poisson")
    with pytest.raises(ValueError):
        StructureConfig(num_classes=0)


def count_nodes(d, depth, reps, s, i, classes):
    cfg = StructureConfig(depth=depth, repetitions=reps,
                          sum_nodes_per_region=s,
                          leaf_distributions_per_region=i,
                          num_classes=classes, seed=0)
    return build_circuit(d, cfg)


def test_node_count_small_example():
    # d=4, depth 1, 2 repetitions, S=2, I=2, 2 classes:
    # each repetition has two 2-variable leaf regions (2 products + 4 leaves
    # each) and 4 top products; class roots add 2 sums.
    c = count_nodes(4, 1, 2, 2, 2, 2)
    assert len(c.nodes) == 2 * (2 * 6 + 4) + 2
    for root in c.class_roots:
        assert len(nodes_of(c)[root].children) == 2 * 2 * 2


def test_node_count_default_structure():
    cfg = StructureConfig(num_classes=2, seed=0)
    c = build_circuit(2, cfg)
    # 19 repetitions x (2 single-variable regions x 20 leaves + 400 top
    # products) + 2 class roots.
    assert len(c.nodes) == 19 * (40 + 400) + 2
    for root in c.class_roots:
        assert len(nodes_of(c)[root].children) == 19 * 400


def test_class_roots_share_children_across_classes():
    c = count_nodes(6, 2, 3, 2, 3, 3)
    children = [tuple(nodes_of(c)[r].children) for r in c.class_roots]
    assert len(set(children)) == 1
    assert len(set(c.class_roots)) == len(c.class_roots)


def test_repetitions_do_not_share_nodes():
    one = count_nodes(5, 1, 1, 2, 2, 1)
    two = count_nodes(5, 1, 2, 2, 2, 1)
    per_rep = len(one.nodes) - 1
    assert len(two.nodes) == 2 * per_rep + 1


def test_built_circuits_validate():
    for d, depth in ((2, 1), (4, 2), (9, 2), (16, 3)):
        cfg = StructureConfig(depth=depth, repetitions=3,
                              sum_nodes_per_region=2,
                              leaf_distributions_per_region=2,
                              num_classes=2, seed=5)
        c = build_circuit(d, cfg)
        cm.validate(c)  # raises on any violation


def test_internal_sums_start_uniform():
    c = count_nodes(8, 2, 2, 3, 2, 2)
    for node in nodes_of(c):
        if node.kind == "sum":
            assert np.allclose(node.log_weights,
                               -np.log(len(node.children)))


def test_build_is_deterministic():
    cfg = StructureConfig(num_classes=2, seed=9, repetitions=3)
    a = build_circuit(6, cfg)
    b = build_circuit(6, cfg)
    assert cm.structural_equal(a, b)


def test_single_variable_circuit():
    cfg = StructureConfig(num_classes=3, seed=0,
                          leaf_distributions_per_region=4)
    c = build_circuit(1, cfg)
    cm.validate(c)  # raises on any violation
    assert len(c.class_roots) == 3
    for root in c.class_roots:
        node = nodes_of(c)[root]
        assert node.kind == "sum"
        assert len(node.children) == 4


def test_depth_must_fit_variable_count():
    cfg = StructureConfig(depth=2, num_classes=2, seed=0)
    with pytest.raises(ValueError):
        build_circuit(3, cfg)


def test_bernoulli_and_categorical_families():
    cfg = StructureConfig(num_classes=2, seed=1, repetitions=2,
                          leaf_family="bernoulli")
    c = build_circuit(4, cfg)
    kinds = {n.kind for n in nodes_of(c) if n.kind not in ("sum", "product")}
    assert kinds == {"bernoulli"}

    cfg = StructureConfig(num_classes=2, seed=1, repetitions=2,
                          leaf_family="categorical",
                          categorical_cardinalities=(3, 2, 4, 2))
    c = build_circuit(4, cfg)
    for n in nodes_of(c):
        if n.kind == "categorical":
            assert n.probabilities.size == (3, 2, 4, 2)[n.variable]


def test_categorical_requires_cardinalities():
    cfg = StructureConfig(num_classes=2, seed=1, leaf_family="categorical")
    with pytest.raises(ValueError):
        build_circuit(4, cfg)


def test_region_graph_dataclass_round_trip():
    g = build_region_graph(num_variables=6, depth=1, repetitions=2, seed=4)
    assert isinstance(g, RegionGraph)
    assert g.depth == 1
    assert g.repetitions == 2
    assert g.regions[0] == tuple(range(6)) or tuple(range(6)) in g.regions
