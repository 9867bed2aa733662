import copy
import dataclasses
import gc
import math
import pickle
import re
import sys
import threading
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest

from cfspn import circuit as cm
from cfspn import engine, grad, inference, structure, training
from conftest import (BernoulliLeaf, CategoricalLeaf, GaussianLeaf, ProductNode,
                      SumNode, categories, from_nodes, naive_log_value, nodes_of,
                      random_circuit, randomize_parameters)


def forward_roots(circuit, X):
    comp = engine.compile_circuit(circuit)
    V = comp.forward(np.atleast_2d(X))
    return comp, V


def assert_roots_match_naive(circuit, X, atol=1e-10):
    comp, V = forward_roots(circuit, X)
    R = comp.root_values(V)
    for b in range(X.shape[0]):
        for k, root in enumerate(circuit.class_roots):
            assert R[b, k] == pytest.approx(
                naive_log_value(circuit, root, X[b]), abs=atol)


def central_difference(circuit, array_of, j, h, objective, X):
    """(f(+h) - f(-h)) / 2h, where f moves array_of(parameters)[j] of a copy
    of the compiled form's parameters, passes them to with_parameters, as a
    trainer does, and takes objective of the new instance's root values."""
    compiled = engine.compile_circuit(circuit)
    values = []
    for delta in (h, -h):
        p = types.SimpleNamespace(
            gaussian_mean=compiled.gaussian_mean.copy(),
            gaussian_variance=compiled.gaussian_variance.copy(),
            bernoulli_p=compiled.bernoulli_p.copy(),
            sum_log_weights=[w.copy() for w in compiled.sum_log_weights],
            per_sum_node=compiled.per_sum_node)
        array_of(p)[j] += delta
        moved = compiled.with_parameters(p.gaussian_mean, p.gaussian_variance,
                                         p.bernoulli_p, p.sum_log_weights)
        values.append(objective(moved.root_values(moved.forward(X))))
    return (values[0] - values[1]) / (2 * h)


def test_forward_matches_naive_on_batches(rng):
    for _ in range(10):
        c = random_circuit(rng)
        assert_roots_match_naive(c, rng.normal(0.5, 0.5, size=(7, c.num_variables)))


def test_forward_handles_missing_values(rng):
    c = random_circuit(rng, num_variables=5)
    X = rng.normal(0.5, 0.5, size=(4, 5))
    X[0, 2] = np.nan
    X[1, :] = np.nan
    X[3, [0, 4]] = np.nan
    assert_roots_match_naive(c, X)


def test_forward_bernoulli_and_categorical(rng):
    for family in ("bernoulli", "categorical"):
        c = random_circuit(rng, num_variables=4, leaf_family=family)
        assert_roots_match_naive(c, rng.integers(0, 2, size=(6, 4)).astype(float))


def test_input_gradient_matches_finite_differences(rng):
    h = 1e-6
    for _ in range(10):
        c = random_circuit(rng)
        root = c.class_roots[0]
        x = rng.normal(0.5, 0.4, size=c.num_variables)
        comp, V = forward_roots(c, x)
        out = comp.backward(V, np.atleast_2d(x), {root: np.ones(1)})
        g = out.input_grads[0]
        for j in range(c.num_variables):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (naive_log_value(c, root, xp) - naive_log_value(c, root, xm)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def test_gradient_of_marginalized_variable_is_zero(rng):
    c = random_circuit(rng, num_variables=4)
    x = np.array([0.1, np.nan, 0.9, 0.4])
    comp, V = forward_roots(c, x)
    out = comp.backward(V, np.atleast_2d(x), {c.class_roots[0]: np.ones(1)})
    assert out.input_grads[0, 1] == 0.0


def test_bernoulli_input_gradient_is_logit():
    nodes = [BernoulliLeaf(variable=0, p=0.8)]
    c = from_nodes(nodes=nodes, class_roots=[0],
                   log_prior=np.array([0.0]), num_variables=1)
    comp = engine.compile_circuit(c)
    X = np.array([[1.0]])
    V = comp.forward(X)
    out = comp.backward(V, X, {0: np.ones(1)})
    assert out.input_grads[0, 0] == pytest.approx(math.log(0.8 / 0.2))


@pytest.mark.parametrize("dead_p", [1.0, 0.0])
def test_dead_bernoulli_leaf_with_infinite_logit_adds_zero(dead_p):
    # At x = 0 a leaf with p = 1 has value -inf, and at x = 1 so does a leaf
    # with p = 0; their logits and p-derivatives are infinite, but a zero
    # adjoint must add exactly 0.
    x = 1.0 - dead_p
    nodes = [BernoulliLeaf(0, dead_p), BernoulliLeaf(0, 0.3),
             SumNode([0, 1], np.log([0.5, 0.5]))]
    c = from_nodes(nodes, class_roots=[2], log_prior=np.array([0.0]), num_variables=1)
    comp = engine.compile_circuit(c)
    X = np.array([[x]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = comp.backward(comp.forward(X), X, {2: np.ones(1)}, want_params=True)
    assert out.input_grads[0, 0] == math.log(0.3) - math.log1p(-0.3)
    assert out.bernoulli_p_grads[0] == 0.0
    assert out.bernoulli_p_grads[1] == pytest.approx(x / 0.3 - (1.0 - x) / 0.7)


def test_live_bernoulli_leaf_with_p_one_has_exact_gradients():
    # At x = 1 a leaf with p = 1 has value log 1 = 0 and is live; its
    # p-derivative is the one-sided x / p = 1, and its logit is infinite.
    nodes = [BernoulliLeaf(0, 1.0), BernoulliLeaf(0, 0.3),
             SumNode([0, 1], np.log([0.5, 0.5]))]
    c = from_nodes(nodes, class_roots=[2], log_prior=np.array([0.0]), num_variables=1)
    comp = engine.compile_circuit(c)
    X = np.array([[1.0]])
    V = comp.forward(X)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = comp.backward(V, X, {2: np.ones(1)}, want_input=False, want_params=True)
    share = np.array([0.5, 0.5 * 0.3]) / 0.65      # adjoint of each leaf
    np.testing.assert_allclose(out.bernoulli_p_grads, share / [1.0, 0.3], rtol=1e-12)
    with pytest.raises(ValueError, match="non-finite input gradient"):
        comp.backward(V, X, {2: np.ones(1)})
    with pytest.raises(ValueError, match="non-finite input gradient"):
        grad.gradient(c, X[0], {0: 1.0})


def test_sum_adjoint_splits_by_posterior_weight():
    means, prior = np.array([-1.0, 1.0]), np.array([0.3, 0.7])
    nodes = [
        GaussianLeaf(variable=0, mean=means[0], variance=1.0),
        GaussianLeaf(variable=0, mean=means[1], variance=1.0),
        SumNode(children=[0, 1], log_weights=np.log(prior)),
    ]
    c = from_nodes(nodes=nodes, class_roots=[2],
                   log_prior=np.array([0.0]), num_variables=1)
    comp = engine.compile_circuit(c)
    X = np.array([[0.25]])
    V = comp.forward(X)
    out = comp.backward(V, X, {2: np.ones(1)}, want_params=True)
    # posterior weight of each child, from closed-form leaf log densities
    leaf = -0.5 * ((X[0, 0] - means) ** 2 + math.log(2 * math.pi))
    w = prior * np.exp(leaf) / np.sum(prior * np.exp(leaf))
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert out.input_grads[0, 0] == pytest.approx(
        np.sum(w * -(X[0, 0] - means)), abs=1e-12)
    assert np.allclose(comp.per_sum_node(out.sum_log_weight_grads)[2], w,
                       rtol=0, atol=1e-12)


def test_product_passes_adjoint_through():
    nodes = [
        GaussianLeaf(variable=0, mean=0.0, variance=1.0),
        GaussianLeaf(variable=1, mean=0.0, variance=1.0),
        ProductNode(children=[0, 1]),
    ]
    c = from_nodes(nodes=nodes, class_roots=[2],
                   log_prior=np.array([0.0]), num_variables=2)
    comp = engine.compile_circuit(c)
    X = np.array([[0.5, -0.5]])
    V = comp.forward(X)
    out = comp.backward(V, X, {2: np.full(1, 3.0)})
    assert out.input_grads[0] == pytest.approx(3.0 * -(X[0] - 0.0) / 1.0)


def test_parameter_gradients_match_finite_differences(rng):
    h = 1e-6
    c = random_circuit(rng, num_variables=4, num_classes=1)
    root = c.class_roots[0]
    x = np.atleast_2d(rng.normal(0.5, 0.4, size=4))
    comp = engine.compile_circuit(c)
    V = comp.forward(x)
    out = comp.backward(V, x, {root: np.ones(1)},
                        want_input=False, want_params=True)

    nid = np.flatnonzero(c.kind == cm.SUM)[0]
    got = comp.per_sum_node(out.sum_log_weight_grads)[nid]
    for j in range(len(nodes_of(c)[nid].children)):
        fd = central_difference(
            c, lambda p: p.per_sum_node(p.sum_log_weights)[nid], j, h,
            lambda R: R[0, 0], x)
        assert got[j] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    # gaussian row 0 is node gaussian_ids[0]
    for attr, grads in (("gaussian_mean", out.gaussian_mean_grads),
                        ("gaussian_variance", out.gaussian_variance_grads)):
        fd = central_difference(c, lambda p: getattr(p, attr), 0, h,
                                lambda R: R[0, 0], x)
        assert grads[0] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def test_compile_cache_reuses_per_instance(rng):
    c = random_circuit(rng)
    a = engine.compile_circuit(c)
    b = engine.compile_circuit(c)
    assert a is b


def test_compiled_form_dies_with_its_circuit(rng):
    # No reference cycle: a circuit goes the moment it is dropped, and with it
    # its compiled form and its arrays, without waiting for the garbage
    # collector.  The form handed to a new circuit refers to that circuit only.
    c = random_circuit(rng)
    fitted = engine.compile_circuit(c).to_circuit(c.log_prior)
    source = [weakref.ref(x) for x in (c, engine.compile_circuit(c), c.log_weights)]
    handed = [weakref.ref(x) for x in (fitted, engine.compile_circuit(fitted))]
    gc.disable()
    try:
        del c
        assert all(r() is None for r in source)
        del fitted
        assert all(r() is None for r in handed)
    finally:
        gc.enable()


def test_copies_of_a_circuit_start_without_a_compiled_form(rng):
    c = random_circuit(rng)
    compiled = engine.compile_circuit(c)
    for twin in (dataclasses.replace(c), copy.copy(c), copy.deepcopy(c),
                 pickle.loads(pickle.dumps(c))):
        assert engine.compile_circuit(twin) is not compiled


def test_circuits_are_immutable_so_the_cache_cannot_go_stale(rng):
    c = random_circuit(rng, num_variables=3, num_classes=2)
    x = rng.normal(0.5, 0.4, size=3)
    before = inference.class_log_densities(c, x)

    with pytest.raises(dataclasses.FrozenInstanceError):
        c.mean = c.mean + 3.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.log_prior = np.log([0.9, 0.1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.log_weights = np.zeros(c.ids.size)
    with pytest.raises(ValueError):
        c.log_weights[0] = 0.0
    with pytest.raises(ValueError):
        c.log_prior[0] = 0.0
    with pytest.raises(ValueError):
        c.mean[0] = 3.0
    with pytest.raises(ValueError):
        engine.compile_circuit(c).gaussian_mean[:] += 1.0
    for twin in (copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert cm.structural_equal(twin, c)
        with pytest.raises(ValueError):
            twin.log_weights[0] = 0.0
        with pytest.raises(ValueError):
            twin.log_prior[0] = 0.0
    assert np.array_equal(inference.class_log_densities(c, x), before)

    mean = np.array(c.mean)
    mean[0] = 3.0
    changed = dataclasses.replace(c, mean=mean)
    mean[0] = -3.0      # the new circuit holds a copy
    comp = engine.compile_circuit(changed)
    got = comp.root_values(comp.forward(x[None, :]))
    for y, root in enumerate(c.class_roots):
        expected = naive_log_value(changed, root, x)
        assert got[0, y] == pytest.approx(expected, abs=1e-10)
        assert inference.class_log_densities(changed, x)[y] == pytest.approx(
            expected, abs=1e-10)
    assert nodes_of(changed)[comp.gaussian_ids[0]].mean == 3.0
    assert not np.allclose(inference.class_log_densities(changed, x), before)


def test_dead_branch_adjoint_is_zero():
    # A zero-weight child is unreachable: nothing may flow into it, although
    # its log value is the larger one at x = 1.
    live_p, dead_p = 0.3, 0.8
    nodes = [
        BernoulliLeaf(variable=0, p=live_p),
        BernoulliLeaf(variable=0, p=dead_p),
        SumNode(children=[0, 1], log_weights=np.array([0.0, -np.inf])),
    ]
    c = from_nodes(nodes=nodes, class_roots=[2],
                   log_prior=np.array([0.0]), num_variables=1)
    comp = engine.compile_circuit(c)
    X = np.array([[1.0]])
    V = comp.forward(X)
    out = comp.backward(V, X, {2: np.ones(1)}, want_params=True)
    assert out.input_grads[0, 0] == math.log(live_p) - math.log1p(-live_p)
    assert comp.per_sum_node(out.sum_log_weight_grads)[2][1] == 0.0


def test_batch_forward_equals_per_row(rng):
    c = random_circuit(rng)
    X = rng.normal(0.5, 0.5, size=(9, c.num_variables))
    comp = engine.compile_circuit(c)
    V = comp.forward(X)
    for b in range(9):
        Vb = comp.forward(X[b:b + 1])
        assert np.allclose(V[:, b], Vb[:, 0], equal_nan=True)


@pytest.fixture(scope="module")
def wide():
    """The benchmark's wide structure (d=64, depth 3, 19 repetitions), with
    random parameters."""
    cfg = structure.StructureConfig(depth=3, repetitions=19, num_classes=2, seed=7)
    return randomize_parameters(structure.build_circuit(64, cfg), np.random.default_rng(3))


def test_wide_batch_rows_equal_single_rows(wide):
    c = wide
    comp = engine.compile_circuit(c)
    X = np.random.default_rng(4).uniform(0.0, 1.0, size=(256, 64))
    seeds = {c.class_roots[0]: np.linspace(-1.0, 1.0, 256),
             c.class_roots[1]: np.full(256, 0.5)}
    V = comp.forward(X)
    G = comp.backward(V, X, seeds).input_grads
    for b in range(256):
        Vb = comp.forward(X[b:b + 1])
        Gb = comp.backward(Vb, X[b:b + 1],
                           {r: s[b:b + 1] for r, s in seeds.items()}).input_grads
        assert np.array_equal(V[:, b], Vb[:, 0])
        assert np.array_equal(G[b], Gb[0])


def test_children_spanning_a_thousand_nats_match_naive():
    # Leaf log values at x = 0 range from about 1 to about -12,000 nats, so
    # each block's max shift has to keep its largest term and let the
    # others underflow harmlessly.
    means, variance = (0.0, 10.0, 20.0, 45.0), 0.08
    nodes = [GaussianLeaf(v, m, variance) for v in (0, 1) for m in means]
    left, right = range(0, 4), range(4, 8)
    nodes += [ProductNode([a, b]) for a in left for b in right]
    rng = np.random.default_rng(5)
    products = list(range(8, 24))
    nodes += [SumNode(products, np.log(rng.dirichlet(np.ones(16)))) for _ in range(2)]
    c = from_nodes(nodes, class_roots=[24, 25], log_prior=cm.uniform_log_weights(2),
                   num_variables=2)
    X = np.array([[0.0, 0.0], [0.0, 45.0], [20.0, 10.0], [-3.0, 60.0], [0.0, np.nan]])
    for x in X:
        children = [naive_log_value(c, p, x) for p in products]
        assert max(children) - min(children) > 1000.0
    assert_roots_match_naive(c, X, atol=1e-9)


def shared_child_circuit():
    """Leaves 0-5, 3-ary products 6 and 7 read by two sum groups of one
    level (8 and 9), a sum (10) over two leaves, a unary product (11), a
    sum (12) over a leaf, that product and that sum, and a product (13) of
    sum 12 and two leaves, mixed with sum 8 under the second root (14)."""
    nodes = [GaussianLeaf(v % 3, m, s) for v, (m, s) in enumerate(
        [(0.2, 0.3), (0.6, 0.2), (0.4, 0.5), (0.8, 0.1), (0.1, 0.4), (0.5, 0.3)])]
    nodes += [
        ProductNode([0, 1, 2]),
        ProductNode([3, 4, 5]),
        SumNode([6, 7], np.log([0.35, 0.65])),
        SumNode([7, 6], np.log([0.9, 0.1])),
        SumNode([0, 3], np.log([0.6, 0.4])),
        ProductNode([3]),
        SumNode([0, 11, 10], np.log([0.2, 0.5, 0.3])),
        ProductNode([12, 4, 5]),
        SumNode([13, 8], np.log([0.45, 0.55])),
    ]
    return from_nodes(nodes, class_roots=[9, 14], log_prior=cm.uniform_log_weights(2),
                      num_variables=3)


def test_node_shared_by_two_groups_and_mixed_sum_match_naive_and_finite_differences(rng):
    c = shared_child_circuit()
    comp = engine.compile_circuit(c)
    # 10 is alone at level 1; 8 and 9 share a bucket and 12 has its own at
    # level 2; 14 is alone at level 4
    assert [w.shape for w in comp.sum_log_weights] == [(1, 2), (2, 2), (1, 3), (1, 2)]
    X = rng.normal(0.5, 0.4, size=(5, 3))
    assert_roots_match_naive(c, X)

    h = 1e-6
    x = X[0]
    V = comp.forward(X[:1])
    seeds = {9: np.array([0.7]), 14: np.array([-1.3])}
    out = comp.backward(V, X[:1], seeds, want_params=True)

    def objective(circuit, point):
        return (0.7 * naive_log_value(circuit, 9, point)
                - 1.3 * naive_log_value(circuit, 14, point))

    for j in range(3):
        step = h * (np.arange(3) == j)
        fd = (objective(c, x + step) - objective(c, x - step)) / (2 * h)
        assert out.input_grads[0, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)
    grads = comp.per_sum_node(out.sum_log_weight_grads)
    for i in (8, 9, 10, 12, 14):
        for j in range(len(nodes_of(c)[i].children)):
            fd = central_difference(
                c, lambda p: p.per_sum_node(p.sum_log_weights)[i], j, h,
                lambda R: 0.7 * R[0, 0] - 1.3 * R[0, 1], X[:1])
            assert grads[i][j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_seed_raises(bad):
    c = shared_child_circuit()
    comp = engine.compile_circuit(c)
    X = np.full((2, 3), 0.5)
    V = comp.forward(X)
    with pytest.raises(ValueError, match="non-finite adjoint"):
        comp.backward(V, X, {9: np.array([1.0, bad])})


def test_backward_refuses_a_seed_off_the_class_roots():
    comp = engine.compile_circuit(shared_child_circuit())
    X = np.full((2, 3), 0.5)
    V = comp.forward(X)
    with pytest.raises(ValueError, match="seed at node 8, which is not a class root"):
        comp.backward(V, X, {9: np.ones(2), 8: np.ones(2)})


def test_backward_refuses_node_values_of_another_batch_width():
    comp = engine.compile_circuit(shared_child_circuit())
    X = np.full((3, 3), 0.5)
    V = comp.forward(X[:2])
    with pytest.raises(ValueError, match="V has 2 columns, X has 3 rows"):
        comp.backward(V, X, {9: np.ones(3)})
    with pytest.raises(ValueError, match="V has 3 columns, X has 2 rows"):
        comp.backward(comp.forward(X), X[:2], {9: np.ones(2)})


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_infinite_inputs_raise_in_every_pass(bad):
    comp = engine.compile_circuit(shared_child_circuit())
    X = np.full((2, 3), 0.5)
    V = comp.forward(X)
    X[1, 2] = bad
    with pytest.raises(ValueError, match="infinite"):
        comp.evaluate(X)
    with pytest.raises(ValueError, match="infinite"):
        comp.evaluate(X, lambda values, rows: np.ones_like(values))
    with pytest.raises(ValueError, match="infinite"):
        comp.forward(X)
    with pytest.raises(ValueError, match="infinite"):
        comp.backward(V, X, {9: np.ones(2)})


def test_a_single_point_is_a_batch_of_one(rng):
    c = random_circuit(rng, num_variables=3, num_classes=2)
    comp = engine.compile_circuit(c)
    x = rng.normal(0.5, 0.4, size=3)
    x[1] = np.nan

    def adjoints(values, rows):
        return np.ones_like(values)

    values, back = comp.evaluate(x, adjoints)
    batch_values, batch_back = comp.evaluate(x[None, :], adjoints)
    assert values.shape == (1, 2)
    assert np.array_equal(values, batch_values)
    assert np.array_equal(back.input_grads, batch_back.input_grads)
    assert np.array_equal(comp.forward(x), comp.forward(x[None, :]))


def region_shapes(comp):
    """(regions, distributions, variables) of each leaf-region bucket."""
    return [r.leaves.shape for r in comp._regions]


#: Leaf-region buckets by variable count: the 380 leaves of each moons
#: variable are one region; wide has 152 8-variable regions of 20
#: distributions each.
REGION_BUCKETS = {2: [(2, 380, 1)], 64: [(152, 20, 8)]}


@pytest.mark.parametrize("d, depth, weight_shapes, rows", [
    # moons: one bucket, the two class roots over 19 blocks of 20 x 20
    (2, 1, [(2, 7600)], 19 * 40 + 2),
    # wide: 16-variable regions, 32-variable regions and the class roots over
    # the leaf regions
    (64, 3, [(760, 400), (380, 100), (2, 1900)], 19 * 8 * 20 + 760 + 380 + 2),
])
def test_region_sums_compile_to_cross_product_buckets(tmp_path, d, depth,
                                                      weight_shapes, rows):
    cfg = structure.StructureConfig(depth=depth, repetitions=19, num_classes=2, seed=7)
    built = structure.build_circuit(d, cfg)
    cm.save(built, tmp_path / "model.json")
    for c in (built, cm.load(tmp_path / "model.json")):
        comp = engine.CompiledCircuit(c)
        assert [w.shape for w in comp.sum_log_weights] == weight_shapes
        assert region_shapes(comp) == REGION_BUCKETS[d]
        # every cross product and every leaf-region product is absorbed, and
        # a leaf-region product's leaves with it: only the distributions of
        # leaf regions and the sums are materialized
        assert not any(isinstance(step, engine._Products) for step in comp._steps)
        assert comp.n_rows == rows
        assert cm.structural_equal(comp.to_circuit(c.log_prior), c)


@pytest.fixture(scope="module")
def deep():
    """Depth 2 over 12 variables: leaf regions of 3 variables, with random
    parameters."""
    cfg = structure.StructureConfig(depth=2, repetitions=2, sum_nodes_per_region=2,
                                    leaf_distributions_per_region=3, num_classes=2, seed=5)
    return randomize_parameters(structure.build_circuit(12, cfg), np.random.default_rng(6))


def reference_blocks(pairs):
    """Product pairs split into L x R runs one row at a time: the lowering's
    loop before it detected runs as array passes."""
    blocks = []
    p, n = 0, len(pairs)
    while p < n:
        J = int(np.argmax(np.append(pairs[p:, 0] != pairs[p, 0], True)))
        R = pairs[p:p + J, 1]
        q = p + J
        while (q + J <= n and np.array_equal(pairs[q:q + J, 1], R)
               and np.all(pairs[q:q + J, 0] == pairs[q, 0])):
            q += J
        blocks.append((pairs[p:q:J, 0], R))
        p = q
    if len({(len(L), len(R)) for L, R in blocks}) != 1:
        return None
    return blocks


def reference_lowering(s):
    """A structure's lowering as it was made before array passes: sum groups
    and leaf-region scopes by np.unique(axis=0), each group's readers by its
    own np.unique, reference_blocks per group and levels swept over every
    edge."""
    low = object.__new__(engine._Lowering)
    n = len(s.kind)
    low.d = s.num_variables
    kind, ptr, ids = s.kind, s.ptr, s.ids
    arity = np.diff(ptr)
    sums = np.flatnonzero(kind == cm.SUM)
    first = np.empty(n, dtype=np.int64)
    for k in np.unique(arity[sums]):
        members = sums[arity[sums] == k]
        _, at, inverse = np.unique(ids[ptr[members][:, None] + np.arange(k)], axis=0,
                                   return_index=True, return_inverse=True)
        first[members] = members[at][inverse.ravel()]
    heads = np.unique(first[sums])
    group_sums = [sums[first[sums] == h] for h in heads]
    group_children = [ids[ptr[h]:ptr[h + 1]] for h in heads]
    owner = np.full(n, -2, dtype=np.int64)
    for g, children in enumerate(group_children):
        children = np.unique(children)
        owner[children] = np.where(owner[children] == -2, g, -1)
    owner[ids[np.repeat(kind == cm.PRODUCT, arity)]] = -1
    owner[list(s.class_roots)] = -1
    readers = np.bincount(ids, minlength=n)
    readers[list(s.class_roots)] += 1
    gaussian = kind == cm.GAUSSIAN
    in_region = np.zeros(n, dtype=bool)
    distributions = {}
    all_products = np.flatnonzero(kind == cm.PRODUCT)
    for k in np.unique(arity[all_products]):
        members = all_products[arity[all_products] == k]
        children = ids[ptr[members][:, None] + np.arange(k)]
        children = np.take_along_axis(
            children, np.argsort(s.variable[children], axis=1, kind="stable"), axis=1)
        ok = (np.all(gaussian[children] & (readers[children] == 1), axis=1)
              & np.all(np.diff(s.variable[children], axis=1) > 0, axis=1))
        in_region[members[ok]] = True
        gaussian[children[ok]] = False
        distributions.setdefault(int(k), []).append((members[ok], children[ok]))
    single = np.flatnonzero(gaussian)
    distributions.setdefault(1, []).append((single, single[:, None]))
    absorbed = np.zeros(n, dtype=bool)
    group_blocks = []
    for g, children in enumerate(group_children):
        blocks = None
        if np.all((kind[children] == cm.PRODUCT) & (arity[children] == 2)
                  & (owner[children] == g) & ~in_region[children]):
            blocks = reference_blocks(ids[ptr[children][:, None] + np.arange(2)])
            absorbed[children] = blocks is not None
        group_blocks.append(blocks)
    internal = np.flatnonzero(kind >= cm.SUM)
    level = np.zeros(n, dtype=np.int64)
    while internal.size:
        new = (np.maximum.reduceat(level[ids], ptr[internal])
               + ~(absorbed | in_region)[internal])
        if np.array_equal(new, level[internal]):
            break
        level[internal] = new
    buckets = {}
    for g, (head, blocks) in enumerate(zip(heads, group_blocks)):
        if blocks is None:
            shape = (1, arity[head], 1, False)
        else:
            shape = (len(blocks), len(blocks[0][0]), len(blocks[0][1]), True)
        buckets.setdefault((level[head], len(group_sums[g]), *shape), []).append(g)
    products = np.flatnonzero((kind == cm.PRODUCT) & ~absorbed & ~in_region)

    low.gaussian_ids = np.flatnonzero(kind == cm.GAUSSIAN)
    low.gaussian_vars = s.variable[low.gaussian_ids]
    low.bernoulli_ids = np.flatnonzero(kind == cm.BERNOULLI)
    low.bernoulli_vars = s.variable[low.bernoulli_ids]
    low.categorical_ids = np.flatnonzero(kind == cm.CATEGORICAL)
    low.categorical_vars = s.variable[low.categorical_ids]
    low.categorical_offsets = s.probs_ptr[:-1]
    low.categorical_sizes = np.diff(s.probs_ptr)
    low._bernoulli = engine._ByVariable(low.bernoulli_vars)
    row_of = np.full(n, -1, dtype=np.int64)
    top = 0

    def take(ids):
        nonlocal top
        row_of[ids] = np.arange(top, top + len(ids))
        top += len(ids)
        return slice(top - len(ids), top)

    leaf_index = np.full(n, -1, dtype=np.int64)
    leaf_index[low.gaussian_ids] = np.arange(low.gaussian_ids.size)
    low._regions = []
    for k, parts in sorted(distributions.items()):
        outputs, leaves = (np.concatenate(a) for a in zip(*parts))
        scopes, region = np.unique(s.variable[leaves], axis=0, return_inverse=True)
        first = np.full(len(scopes), len(outputs))
        np.minimum.at(first, region.ravel(), np.arange(len(outputs)))
        by_node = np.argsort(first)
        scopes, region = scopes[by_node], np.argsort(by_node)[region.ravel()]
        by_region = np.argsort(region, kind="stable")
        sizes = np.bincount(region, minlength=len(scopes))
        starts = np.cumsum(sizes) - sizes
        for I in np.unique(sizes):
            members = by_region[starts[sizes == I][:, None] + np.arange(I)]
            variables = scopes[sizes == I]
            low._regions.append(engine._LeafRegions(
                take(outputs[members].ravel()), leaf_index[leaves[members]],
                variables, engine._ByVariable(variables.ravel())))
    low._bernoulli_rows = take(low.bernoulli_ids[low._bernoulli.order])
    low._categorical_rows = take(low.categorical_ids)
    low._steps, low._sums = [], []
    for lev in range(1, int(level.max(initial=0)) + 1):
        at_level = products[level[products] == lev]
        for k in np.unique(arity[at_level]):
            members = at_level[arity[at_level] == k]
            rows = take(members)
            children = row_of[ids[ptr[members][:, None] + np.arange(k)]]
            low._steps.append(engine._Products(
                rows, children, all(np.unique(c).size == c.size for c in children.T)))
        for key, members in buckets.items():
            if key[0] != lev:
                continue
            sum_ids = np.concatenate([group_sums[g] for g in members])
            rows = take(sum_ids)
            if key[-1]:
                left = row_of[np.array([[L for L, _ in group_blocks[g]] for g in members])]
                right = row_of[np.array([[R for _, R in group_blocks[g]] for g in members])]
            else:
                children = np.array([group_children[g] for g in members])
                left, right = row_of[children][:, None, :], None
            step = engine._Sums(rows, sum_ids, left, right,
                                np.unique(left).size == left.size
                                and (right is None or np.unique(right).size == right.size))
            low._steps.append(step)
            low._sums.append(step)
    low.n_rows = top
    low._root_rows = row_of[list(s.class_roots)]
    low._roots_unique = np.unique(low._root_rows).size == low._root_rows.size
    widest = max([step.width for step in low._sums]
                 + [3 * r.variables.size for r in low._regions] + [low.n_rows])
    low._block_cols = max(engine._WIDTH, min(engine._BLOCK_COLS,
                                             engine._BLOCK_ELEMENTS // widest)
                          // engine._WIDTH * engine._WIDTH)
    return low


def assert_same_lowering(a, b):
    """Every step, leaf region, row slice and block width of two lowerings."""
    assert (a.d, a.n_rows, a._block_cols, a._roots_unique) == (
        b.d, b.n_rows, b._block_cols, b._roots_unique)
    for name in ("gaussian_ids", "gaussian_vars", "bernoulli_ids", "bernoulli_vars",
                 "categorical_ids", "categorical_vars", "categorical_offsets",
                 "categorical_sizes", "_root_rows"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a._bernoulli_rows, a._categorical_rows) == (b._bernoulli_rows, b._categorical_rows)
    for x, y in [(a._bernoulli, b._bernoulli)] + [
            (p.by_variable, q.by_variable) for p, q in zip(a._regions, b._regions)]:
        assert all(np.array_equal(getattr(x, f), getattr(y, f))
                   for f in ("order", "variables", "starts"))
    assert len(a._regions) == len(b._regions)
    for p, q in zip(a._regions, b._regions):
        assert p.rows == q.rows
        assert np.array_equal(p.leaves, q.leaves) and np.array_equal(p.variables, q.variables)
    assert [type(x) for x in a._steps] == [type(y) for y in b._steps]
    assert [a._steps.index(x) for x in a._sums] == [b._steps.index(y) for y in b._sums]
    for x, y in zip(a._steps, b._steps):
        assert (x.rows, x.unique) == (y.rows, y.unique)
        if isinstance(x, engine._Products):
            assert np.array_equal(x.children, y.children)
        else:
            assert np.array_equal(x.ids, y.ids) and np.array_equal(x.left, y.left)
            assert (x.right is None) == (y.right is None)
            assert x.right is None or np.array_equal(x.right, y.right)


def shared_product_circuit():
    """Binary products 4-7 listing {0, 1} x {2, 3}, read by class root 8 and,
    products 4 and 5 only, by class root 9: no group reads 4 and 5 alone."""
    nodes = [GaussianLeaf(v, m, 0.3) for v in (0, 1) for m in (0.2, 0.7)]
    nodes += [ProductNode([a, b]) for a in (0, 1) for b in (2, 3)]
    nodes += [SumNode([4, 5, 6, 7], np.log([0.1, 0.2, 0.3, 0.4])),
              SumNode([4, 5], np.log([0.5, 0.5]))]
    return from_nodes(nodes, class_roots=[8, 9], log_prior=cm.uniform_log_weights(2),
                      num_variables=2)


def lowering_cases():
    """Structures of each kind: the benchmark's moons and a small wide one,
    depth 2 over 12 variables, Bernoulli and categorical leaves, and
    hand-built ones with shared children and mixed sums."""
    rng = np.random.default_rng(11)
    moons = structure.build_circuit(2, structure.StructureConfig(num_classes=2, seed=7))
    small_wide = structure.build_circuit(16, structure.StructureConfig(
        depth=3, repetitions=3, sum_nodes_per_region=3, leaf_distributions_per_region=4,
        num_classes=2, seed=7))
    deep = structure.build_circuit(12, structure.StructureConfig(
        depth=2, repetitions=2, sum_nodes_per_region=2, leaf_distributions_per_region=3,
        num_classes=2, seed=5))
    return [randomize_parameters(c, rng) for c in (moons, small_wide, deep)] + [
        random_circuit(rng, leaf_family=family, max_repetitions=4)
        for family in ("gaussian", "bernoulli", "categorical")] + [
        shared_child_circuit(), shared_product_circuit()]


def test_lowering_equals_the_reference_lowering(rng, wide):
    for c in lowering_cases() + [wide]:
        assert_same_lowering(engine._lowering(c.structure), reference_lowering(c.structure))
        # evaluated on the reference lowering, the values and gradients are the same bits
        twin = cm.Circuit(**{f.name: getattr(c, f.name) for f in dataclasses.fields(c)})
        vars(twin.structure)["_lowering"] = reference_lowering(twin.structure)
        X = (categories(c, rng, 9) if cm.CATEGORICAL in c.kind
             else rng.integers(0, 3, size=(9, c.num_variables)).astype(float))
        X[2, 0] = np.nan
        adjoints = posterior_adjoints(c, rng, 9)
        values, back = engine.CompiledCircuit(c).evaluate(X, adjoints, want_params=True)
        twin_values, twin_back = engine.CompiledCircuit(twin).evaluate(
            X, adjoints, want_params=True)
        assert np.array_equal(values, twin_values)
        for field in dataclasses.fields(back):
            got, want = getattr(back, field.name), getattr(twin_back, field.name)
            assert len(got) == len(want) and all(map(np.array_equal, got, want)), field.name


def test_blocks_equal_the_reference_loop_on_random_pairs(rng):
    # Runs of L x R pairs, some with a pair changed, and pairs drawn at random.
    for _ in range(3000):
        if rng.random() < 0.25:
            pairs = rng.integers(0, 3, size=(int(rng.integers(1, 13)), 2))
        else:
            K, I, J = rng.integers(1, 4, size=3)
            top = int(rng.choice([4, 20]))
            pairs = np.concatenate([
                np.stack(np.meshgrid(rng.integers(0, top, I), rng.integers(0, top, J),
                                     indexing="ij"), axis=-1).reshape(-1, 2)
                for _ in range(K)])
            if rng.random() < 0.3:
                pairs[rng.integers(len(pairs)), rng.integers(2)] = rng.integers(0, top)
        got, want = engine._blocks(pairs), reference_blocks(pairs)
        assert (got is None) == (want is None), pairs
        if got is not None:
            assert np.array_equal(got[0], [L for L, _ in want])
            assert np.array_equal(got[1], [R for _, R in want])


def test_leaf_regions_match_naive_with_missing_values(rng, deep):
    comp = engine.compile_circuit(deep)
    assert {k for _, _, k in region_shapes(comp)} == {3}
    X = rng.normal(0.5, 0.5, size=(5, 12))
    scope = comp._regions[0].variables[0]
    X[1, scope[:2]] = np.nan     # inside one region
    X[2, scope] = np.nan         # the whole region
    X[3] = np.nan                # every variable
    assert_roots_match_naive(deep, X)


def test_leaf_region_gradients_match_finite_differences(rng, deep):
    h = 1e-6
    comp = engine.compile_circuit(deep)
    x = rng.normal(0.5, 0.4, size=12)
    roots = deep.class_roots
    out = comp.backward(comp.forward(x[None]), x[None],
                        {roots[0]: np.array([0.8]), roots[1]: np.array([-0.3])},
                        want_params=True)

    def objective(circuit, point):
        return (0.8 * naive_log_value(circuit, roots[0], point)
                - 0.3 * naive_log_value(circuit, roots[1], point))

    for j in range(12):
        step = h * (np.arange(12) == j)
        fd = (objective(deep, x + step) - objective(deep, x - step)) / (2 * h)
        assert out.input_grads[0, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)
    for attr, grads in (("gaussian_mean", out.gaussian_mean_grads),
                        ("gaussian_variance", out.gaussian_variance_grads)):
        for j in range(0, grads.size, 5):
            fd = central_difference(deep, lambda p: getattr(p, attr), j, h,
                                    lambda R: 0.8 * R[0, 0] - 0.3 * R[0, 1], x[None])
            assert grads[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_leaf_regions_at_the_variance_floor_far_from_zero_match_naive(rng, deep):
    # Standardized data at |x| ~ 5 and variance 1e-3: uncentered, the terms
    # x^2 / v of a leaf's value reach 2.5e4.
    sign = np.where(deep.variable[deep.kind == cm.GAUSSIAN] % 2 == 0, 1.0, -1.0)
    c = dataclasses.replace(deep, mean=sign * (5.0 + rng.normal(0.0, 0.05, sign.size)),
                            variance=np.full(sign.size, 1e-3))
    X = np.where(np.arange(12) % 2 == 0, 1.0, -1.0) * (5.0 + rng.normal(0.0, 0.05, (4, 12)))
    assert_roots_match_naive(c, X)


def parameter_arrays(comp):
    """An instance's parameter arrays and every array derived from them."""
    return [comp.gaussian_mean, comp.gaussian_variance, comp.bernoulli_p,
            comp.categorical_log_probs, *comp.sum_log_weights, *comp._bernoulli_params,
            *(a for p in comp._natural for a in p),
            *(pair[1] for pair in comp._weights if pair)]


def test_with_parameters_matches_a_fresh_compile_and_leaves_its_source_alone(rng, deep):
    source = engine.CompiledCircuit(deep)
    cached = engine.compile_circuit(deep)
    X = rng.normal(0.5, 0.4, size=(5, 12))
    adjoints = posterior_adjoints(deep, rng, 5)
    before = source.evaluate(X, adjoints, want_params=True)
    # as a trainer makes them
    moved = source.with_parameters(
        rng.normal(0.5, 0.3, source.gaussian_mean.size),
        rng.uniform(0.05, 0.4, source.gaussian_variance.size), source.bernoulli_p,
        [t - cm.logsumexp(t, axis=1, keepdims=True)
         for t in (w + rng.normal(0.0, 0.1, w.shape) for w in source.sum_log_weights)])
    assert moved._steps is source._steps and moved._regions is source._regions
    values, back = moved.evaluate(X, adjoints, want_params=True)
    fresh = engine.CompiledCircuit(moved.to_circuit(deep.log_prior))
    fresh_values, fresh_back = fresh.evaluate(X, adjoints, want_params=True)
    assert not np.allclose(values, before[0])
    assert np.array_equal(values, fresh_values)
    fields = ("input_grads", "gaussian_mean_grads", "gaussian_variance_grads",
              "bernoulli_p_grads", "sum_log_weight_grads")
    for field in fields:
        assert all(map(np.array_equal, getattr(back, field), getattr(fresh_back, field))), field

    # the source and the cached form still evaluate with the circuit's parameters
    for comp in (source, cached):
        again_values, again_back = comp.evaluate(X, adjoints, want_params=True)
        assert np.array_equal(again_values, before[0])
        for field in fields:
            assert all(map(np.array_equal, getattr(again_back, field),
                           getattr(before[1], field))), field
        assert np.array_equal(comp.gaussian_mean, deep.mean)
        assert np.array_equal(comp.gaussian_variance, deep.variance)

    for comp in (source, cached, moved, fresh):
        arrays = parameter_arrays(comp)
        assert len(arrays) == 7 + 4 * len(comp._natural) + 2 * len(comp._sums)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 0.0

    with pytest.raises(ValueError, match="parameter shapes differ"):
        source.with_parameters(source.gaussian_mean[1:], source.gaussian_variance,
                               source.bernoulli_p, source.sum_log_weights)


def test_parameters_written_in_place_reach_the_next_evaluation(rng, deep):
    comp = engine.CompiledCircuit(deep)
    X = rng.normal(0.5, 0.4, size=(5, 12))
    adjoints = posterior_adjoints(deep, rng, 5)
    before = comp.evaluate(X)[0]
    mean = rng.normal(0.5, 0.3, comp.gaussian_mean.size)
    variance = rng.uniform(0.05, 0.4, comp.gaussian_variance.size)
    # a write in place is refused; new parameters go through with_parameters
    with pytest.raises(ValueError, match="read-only"):
        comp.gaussian_mean[:] = mean
    moved = comp.with_parameters(mean, variance, comp.bernoulli_p, comp.sum_log_weights)
    values, back = moved.evaluate(X, adjoints, want_params=True)
    fresh = engine.CompiledCircuit(moved.to_circuit(deep.log_prior))
    fresh_values, fresh_back = fresh.evaluate(X, adjoints, want_params=True)
    assert not np.allclose(values, before)
    assert np.array_equal(values, fresh_values)
    for field in ("input_grads", "gaussian_mean_grads", "gaussian_variance_grads"):
        assert np.array_equal(getattr(back, field), getattr(fresh_back, field)), field


def test_frozen_form_keeps_parameters_derived_once(rng, deep):
    bernoulli = random_circuit(rng, num_variables=4, leaf_family="bernoulli")
    for c in (deep, bernoulli):
        frozen = engine.compile_circuit(c)
        natural, weights, leaves = frozen._natural, frozen._weights, frozen._bernoulli_params
        fresh = engine.CompiledCircuit(c)
        kept = parameter_arrays(frozen)[4:]
        derived = parameter_arrays(fresh)[4:]
        assert len(kept) == len(derived) == 3 + 4 * len(frozen._regions) + 2 * len(frozen._sums)
        for a, b in zip(kept, derived):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
            with pytest.raises(ValueError):
                a.flat[0] = 0.0
        # every call reads the kept arrays; none derives them again
        X = rng.normal(0.5, 0.4, size=(3, c.num_variables))
        if c is bernoulli:
            X = (X > 0.5).astype(float)
        frozen.evaluate(X, posterior_adjoints(c, rng, 3), want_params=True)
        assert (frozen._natural is natural and frozen._weights is weights
                and frozen._bernoulli_params is leaves)
        assert all(a is b for a, b in zip(parameter_arrays(frozen)[4:], kept))


def test_to_circuit_refuses_invalid_parameters(rng):
    c = random_circuit(rng, num_classes=1)
    comp = engine.compile_circuit(c)
    variance = comp.gaussian_variance.copy()
    variance[0] = -1.0
    log_weights = [w.copy() for w in comp.sum_log_weights]
    log_weights[0][0, 0] += 1.0
    # the leaf regions' theta takes log(-1), which warns; to_circuit names the fault
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        invalid = comp.with_parameters(comp.gaussian_mean, variance, comp.bernoulli_p,
                                       log_weights)
    with pytest.raises(ValueError, match=r"\[leaf-domain\].*\[weight-normalization\]"):
        invalid.to_circuit(c.log_prior)


def _faulty(c, comp, fault):
    """(with_parameters arguments, log prior) of the compiled form, with one fault."""
    mean, variance = comp.gaussian_mean.copy(), comp.gaussian_variance.copy()
    log_weights, log_prior = [w.copy() for w in comp.sum_log_weights], c.log_prior
    if fault == "variance":
        variance[0] = -1.0
    elif fault == "mean":
        mean[0] = np.nan
    elif fault == "weights":
        log_weights[0][0, 0] += 1.0
    else:
        log_prior = np.log([0.9, 0.9])
    return (mean, variance, comp.bernoulli_p, log_weights), log_prior


@pytest.mark.parametrize("fault, message", [
    ("variance", r"\[leaf-domain\] node 0: variance -1.0 is not positive"),
    ("mean", r"\[leaf-domain\] node 0: mean nan is not finite"),
    ("weights", r"\[weight-normalization\] node \d+: weights sum to"),
    ("prior", r"\[prior\] node None: prior sums to 1.8"),
])
def test_parameter_faults_raise_without_checking_the_structure_again(
        rng, structure_counts, fault, message):
    c = random_circuit(rng, num_classes=2)
    comp = engine.compile_circuit(c)
    checked, lowered = structure_counts
    counts = len(checked), len(lowered)
    arrays, log_prior = _faulty(c, comp, fault)
    with pytest.raises(ValueError, match=message):
        comp.with_parameters(*arrays).to_circuit(log_prior)
    mean, variance, _, log_weights = arrays
    flat = np.array(c.log_weights)
    for edges, w in zip(comp._sum_edges(), log_weights):
        flat[edges] = w
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(c, mean=mean, variance=variance, log_weights=flat,
                            log_prior=log_prior)
    assert (len(checked), len(lowered)) == counts


def test_dead_class_root_passes_no_adjoint():
    # At x0 = 0 the categorical leaves 0 and 1 have probability 0, so every
    # block of root 8 is -inf: its value is -inf and its seed must change
    # nothing.  Root 12 reads leaf 9 on x0 instead, and stays finite.
    nodes = [CategoricalLeaf(0, [0.0, 1.0]), CategoricalLeaf(0, [0.0, 1.0]),
             GaussianLeaf(1, 0.2, 0.3), GaussianLeaf(1, 0.7, 0.2)]
    nodes += [ProductNode([a, b]) for a in (0, 1) for b in (2, 3)]
    nodes += [SumNode([4, 5, 6, 7], np.log([0.1, 0.2, 0.3, 0.4])),
              CategoricalLeaf(0, [0.4, 0.6]),
              ProductNode([9, 2]), ProductNode([9, 3]),
              SumNode([10, 11], np.log([0.5, 0.5]))]
    c = from_nodes(nodes, class_roots=[8, 12], log_prior=cm.uniform_log_weights(2),
                   num_variables=2)
    comp = engine.compile_circuit(c)
    X = np.array([[0.0, 0.3], [1.0, 0.3]])
    assert_roots_match_naive(c, X[1:])
    V = comp.forward(X)
    assert comp.root_values(V)[0, 0] == -np.inf
    dead = comp.backward(V, X, {8: np.array([1.0, 0.0])}, want_params=True)
    assert np.all(dead.input_grads == 0.0)
    assert np.all(comp.per_sum_node(dead.sum_log_weight_grads)[8] == 0.0)
    both = comp.backward(V, X, {8: np.ones(2), 12: np.ones(2)})
    live = comp.backward(V, X, {12: np.ones(2)})
    assert np.array_equal(both.input_grads[0], live.input_grads[0])


def test_sums_whose_heaviest_children_have_zero_weight_are_exact():
    # At x = (0, 0) the children with mean 0 dominate by about 800 nats, but
    # the sums 9 and 11 give them weight 0: their values come from children
    # far below every block shift.  Sums 8 and 10 share their groups.  Sum 11
    # is a class root; sum 9, over x0 alone, reaches root 12 through a product.
    leaves = [GaussianLeaf(v, m, 0.01) for v in (0, 1) for m in (0.0, 4.0)]
    products = [ProductNode([a, b]) for a in (0, 1) for b in (2, 3)]
    nodes = leaves + products + [
        SumNode([0, 1], [0.0, -np.inf]),
        SumNode([0, 1], [-np.inf, 0.0]),
        SumNode([4, 5, 6, 7], np.log([0.25, 0.25, 0.25, 0.25])),
        SumNode([4, 5, 6, 7], [-np.inf, np.log(0.3), np.log(0.7), -np.inf]),
        ProductNode([9, 2]),
    ]
    c = from_nodes(nodes, class_roots=[12, 11], log_prior=cm.uniform_log_weights(2),
                   num_variables=2)
    comp = engine.compile_circuit(c)
    X = np.array([[0.0, 0.0], [0.1, -0.2], [4.0, 0.0], [2.0, 2.0]])
    assert naive_log_value(c, 11, X[0]) < -700.0
    assert_roots_match_naive(c, X, atol=1e-9)

    h = 1e-6
    V = comp.forward(X)
    seeds = {12: np.full(4, 0.6), 11: np.full(4, -1.1)}
    out = comp.backward(V, X, seeds, want_params=True)

    def objective(circuit, x):
        return (0.6 * naive_log_value(circuit, 12, x)
                - 1.1 * naive_log_value(circuit, 11, x))

    for row, x in enumerate(X):
        for j in range(2):
            step = h * (np.arange(2) == j)
            fd = (objective(c, x + step) - objective(c, x - step)) / (2 * h)
            assert out.input_grads[row, j] == pytest.approx(fd, rel=1e-5, abs=1e-6)
    grads = comp.per_sum_node(out.sum_log_weight_grads)
    for i, live in ((9, (1,)), (11, (1, 2))):
        for j in live:
            fd = central_difference(
                c, lambda p: p.per_sum_node(p.sum_log_weights)[i], j, h,
                lambda R: np.sum(0.6 * R[:, 0] - 1.1 * R[:, 1]), X)
            assert grads[i][j] == pytest.approx(fd, rel=1e-5)
    assert grads[9][0] == 0.0
    assert grads[11][0] == 0.0 and grads[11][3] == 0.0


def unfused(comp, circuit, X, adjoints, **wanted):
    """evaluate's reference: forward, root_values and backward, with each
    class root seeded by the adjoints of every class it serves."""
    V = comp.forward(X)
    values = comp.root_values(V)
    adjoint = adjoints(values, slice(0, X.shape[0]))
    seeds = {}
    for k, root in enumerate(circuit.class_roots):
        seeds[root] = seeds.get(root, 0.0) + adjoint[:, k]
    return values, comp.backward(V, X, seeds, **wanted)


def posterior_adjoints(circuit, rng, B):
    """Adjoints that depend on the row and on the class-root values: a random
    weight per row and class, plus -P(y|x) as grad.gradient seeds them."""
    weights = rng.normal(size=(B, circuit.num_classes))

    def adjoints(values, rows):
        return weights[rows] - np.exp(inference.posterior_of(circuit, values))
    return adjoints


def assert_fused_equals_unfused(circuit, X, rng):
    comp = engine.compile_circuit(circuit)
    adjoints = posterior_adjoints(circuit, rng, X.shape[0])
    values, none = comp.evaluate(X)
    assert none is None
    assert values.shape == (X.shape[0], circuit.num_classes)
    assert np.array_equal(values, comp.root_values(comp.forward(X)))
    for wanted in ({}, {"want_params": True}, {"want_input": False, "want_params": True}):
        got_values, got = comp.evaluate(X, adjoints, **wanted)
        ref_values, ref = unfused(comp, circuit, X, adjoints, **wanted)
        assert np.array_equal(got_values, ref_values)
        for field in dataclasses.fields(engine.BackwardResult):
            a, b = getattr(got, field.name), getattr(ref, field.name)
            assert (a is None) == (b is None), field.name
            if a is not None:
                assert len(a) == len(b)
                assert all(np.array_equal(u, v) for u, v in zip(a, b)), field.name


@pytest.mark.parametrize("family", ["gaussian", "bernoulli", "categorical"])
def test_fused_pass_equals_forward_then_backward(rng, family):
    for _ in range(4):
        c = random_circuit(rng, leaf_family=family)
        if family == "gaussian":
            X = rng.normal(0.5, 0.5, size=(7, c.num_variables))
        elif family == "categorical":
            X = categories(c, rng, 7)
        else:
            X = rng.integers(0, 2, size=(7, c.num_variables)).astype(float)
        X[0, 0] = np.nan
        X[3] = np.nan
        assert_fused_equals_unfused(c, X, rng)


def test_fused_pass_adds_the_adjoints_of_classes_sharing_a_root(rng):
    # classes 0 and 2 both read root 9
    shared = shared_child_circuit()
    c = dataclasses.replace(shared, class_roots=(9, 14, 9),
                            log_prior=np.log([0.2, 0.5, 0.3]))
    X = rng.normal(0.5, 0.4, size=(5, 3))
    assert_fused_equals_unfused(c, X, rng)
    comp = engine.compile_circuit(c)
    _, got = comp.evaluate(X, lambda values, rows: np.tile([0.25, -1.0, 0.75], (5, 1)))
    _, ref = comp.evaluate(X, lambda values, rows: np.tile([1.0, -1.0, 0.0], (5, 1)))
    assert np.array_equal(got.input_grads, ref.input_grads)


def test_fused_pass_equals_forward_then_backward_over_column_blocks(rng, wide):
    comp = engine.compile_circuit(wide)
    assert [cols.stop - cols.start for cols in comp._column_blocks(256)] == [68, 68, 68, 52]
    X = rng.uniform(0.0, 1.0, size=(256, 64))
    assert_fused_equals_unfused(wide, X, rng)


def test_fused_pass_on_no_rows(rng):
    c = random_circuit(rng, num_classes=3)
    X = np.empty((0, c.num_variables))
    assert_fused_equals_unfused(c, X, rng)
    values, out = engine.compile_circuit(c).evaluate(
        X, lambda values, rows: values, want_params=True)
    assert values.shape == (0, 3)
    assert out.input_grads.shape == (0, c.num_variables)
    assert all(np.all(g == 0.0) for g in out.sum_log_weight_grads)
    assert np.all(out.gaussian_mean_grads == 0.0)


def test_column_blocks_are_at_most_128_wide(rng):
    for _ in range(5):
        comp = engine.compile_circuit(random_circuit(rng))
        widths = [cols.stop - cols.start for cols in comp._column_blocks(1000)]
        assert sum(widths) == 1000
        assert max(widths) == 128


def test_a_default_training_batch_is_one_column_block():
    # A fit's parameter gradients are summed block by block, so a batch that
    # spans blocks would make the fitted bits depend on the block width.
    moons = structure.build_circuit(2, structure.StructureConfig(num_classes=2, seed=7))
    B = training.TrainConfig().batch_size
    assert engine.compile_circuit(moons)._column_blocks(B) == [slice(0, B)]


def test_parameter_gradients_add_in_block_order(rng):
    # 300 rows run as blocks of 128, 128 and 44; each parameter gradient is
    # the sum, in block order, of the blocks' own gradients.
    c = random_circuit(rng, num_variables=5, num_classes=2)
    comp = engine.compile_circuit(c)
    X = rng.normal(0.5, 0.5, size=(300, 5))
    adjoints = posterior_adjoints(c, rng, 300)
    _, whole = comp.evaluate(X, adjoints, want_params=True)
    blocks = comp._column_blocks(300)
    assert [cols.stop - cols.start for cols in blocks] == [128, 128, 44]
    parts = [comp.evaluate(X[cols], lambda v, rows, cols=cols: adjoints(
        v, slice(cols.start + rows.start, cols.start + rows.stop)), want_params=True)[1]
        for cols in blocks]
    for name in ("gaussian_mean_grads", "gaussian_variance_grads"):
        total = np.zeros_like(getattr(whole, name))
        for part in parts:
            total += getattr(part, name)
        assert np.array_equal(getattr(whole, name), total), name
    for i, got in enumerate(whole.sum_log_weight_grads):
        total = np.zeros_like(got)
        for part in parts:
            total += part.sum_log_weight_grads[i]
        assert np.array_equal(got, total)


def block_peaks(rng, adjoints):
    """tracemalloc peaks of a 128-row and a 1,024-row (eight-block) evaluate
    call on a 2,282-node circuit."""
    cfg = structure.StructureConfig(repetitions=19, sum_nodes_per_region=10,
                                    leaf_distributions_per_region=10, num_classes=2,
                                    seed=1)
    comp = engine.compile_circuit(
        randomize_parameters(structure.build_circuit(2, cfg), rng))
    X = rng.normal(0.5, 0.4, size=(1024, 2))
    assert len(comp._column_blocks(1024)) == 8
    peaks = []
    for B in (128, 1024):
        tracemalloc.start()
        try:
            comp.evaluate(X[:B], adjoints)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_column_blocks_free_their_arrays_before_the_next_block(rng):
    # One block's node values, adjoints and saved factors are alive at a
    # time, so eight 128-row blocks peak no higher than one.
    peaks = block_peaks(rng, lambda values, rows: np.ones_like(values))
    assert peaks[1] <= 1.05 * peaks[0]


def test_a_forward_only_batch_peaks_no_higher_than_one_block(rng):
    # The workspace holds one block's arrays, and without adjoints each step
    # gives its arrays back to it before the next step.
    peaks = block_peaks(rng, None)
    assert peaks[1] <= 1.05 * peaks[0]


def test_adjoints_of_another_shape_raise(rng):
    # Broadcast along the batch axis, [1, -1] would weigh row j by w[j] on
    # every class: the gradient of another quantity.
    comp = engine.compile_circuit(
        structure.build_circuit(2, structure.StructureConfig(repetitions=3, seed=1)))
    with pytest.raises(ValueError, match=re.escape(
            "adjoints returned an array of shape (2,) for values of shape (2, 2)")):
        comp.evaluate(rng.uniform(size=(2, 2)), lambda values, rows: np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match=re.escape(
            "adjoints returned an array of shape (2,) for values of shape (3, 2)")):
        comp.evaluate(rng.uniform(size=(3, 2)), lambda values, rows: np.array([1.0, -1.0]))


def assert_same_pass(got, want):
    """Two evaluate results, values and every gradient, bit for bit."""
    assert np.array_equal(got[0], want[0])
    for field in dataclasses.fields(want[1]):
        a, b = getattr(got[1], field.name), getattr(want[1], field.name)
        if isinstance(b, list):
            assert all(np.array_equal(u, v) for u, v in zip(a, b)), field.name
        else:
            assert np.array_equal(a, b), field.name


def test_an_adjoints_function_that_evaluates_again_gets_the_same_bits(rng):
    # Each call has its own workspace: a call made from inside another's
    # adjoints, on the same compiled circuit, writes none of the outer
    # call's arrays.
    c = random_circuit(rng, num_variables=5, num_classes=2)
    comp = engine.compile_circuit(c)
    X, other = rng.normal(0.5, 0.5, size=(300, 5)), rng.normal(0.5, 0.5, size=(200, 5))
    adjoints = posterior_adjoints(c, rng, 300)

    def nested(values, rows):
        comp.evaluate(other)
        comp.evaluate(other, lambda v, r: np.ones_like(v), want_params=True)
        return adjoints(values, rows)
    assert_same_pass(comp.evaluate(X, nested, want_params=True),
                     comp.evaluate(X, adjoints, want_params=True))


def test_two_threads_sharing_a_compiled_circuit_get_the_sequential_bits(rng):
    c = random_circuit(rng, num_variables=5, num_classes=2)
    comp = engine.compile_circuit(c)
    Xs = [rng.normal(0.5, 0.5, size=(300, 5)) for _ in range(2)]
    adjoints = [posterior_adjoints(c, rng, 300) for _ in range(2)]
    want = [comp.evaluate(X, a, want_params=True) for X, a in zip(Xs, adjoints)]
    got = [[], []]

    def run(i):
        for _ in range(5):
            got[i].append(comp.evaluate(Xs[i], adjoints[i], want_params=True))
    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for results, expected in zip(got, want):
        assert len(results) == 5
        for result in results:
            assert_same_pass(result, expected)


def test_large_batch_equals_its_256_row_slices(rng):
    # 2,282 nodes: sum buckets wide enough that one matrix product per call
    # would round differently at 600 columns than at 256
    cfg = structure.StructureConfig(repetitions=19, sum_nodes_per_region=10,
                                    leaf_distributions_per_region=10, num_classes=2,
                                    seed=1)
    c = randomize_parameters(structure.build_circuit(2, cfg), rng)
    comp = engine.compile_circuit(c)
    X = rng.normal(0.5, 0.4, size=(600, 2))
    adjoints = posterior_adjoints(c, rng, 600)
    values, back = comp.evaluate(X, adjoints)
    for start in range(0, 600, 256):
        rows = slice(start, start + 256)
        part_values, part = comp.evaluate(
            X[rows], lambda v, block: adjoints(v, slice(start + block.start,
                                                        start + block.stop)))
        assert np.array_equal(values[rows], part_values)
        assert np.array_equal(back.input_grads[rows], part.input_grads)


@pytest.mark.parametrize("B", [259, 262])
def test_a_padded_last_block_equals_single_rows(rng, deep, B):
    # Blocks of 128, 128 and 3 or 6 rows: the last block's products run
    # their last columns padded to _WIDTH, as a single row's do.
    comp = engine.compile_circuit(deep)
    widths = [cols.stop - cols.start for cols in comp._column_blocks(B)]
    assert widths == [128, 128, B - 256] and widths[-1] % engine._WIDTH
    X = rng.normal(0.5, 0.5, size=(B, deep.num_variables))
    X[::11, 0] = np.nan
    adjoints = posterior_adjoints(deep, rng, B)
    forward, _ = comp.evaluate(X)
    values, back = comp.evaluate(X, adjoints)
    assert np.array_equal(forward, values)
    for b in range(B):
        row_forward, _ = comp.evaluate(X[b:b + 1])
        row_values, row = comp.evaluate(
            X[b:b + 1], lambda v, rows, b=b: adjoints(v, slice(b, b + 1)))
        assert np.array_equal(values[b], row_forward[0])
        assert np.array_equal(values[b], row_values[0])
        assert np.array_equal(back.input_grads[b], row.input_grads[0])


@pytest.mark.parametrize("family", ["gaussian", "bernoulli", "categorical", "regions"])
def test_rows_equal_single_rows_bit_for_bit(rng, deep, family):
    # Every matrix product runs by blocks of one width, and every sum over
    # nodes adds in order, so a row gets the same bits at any batch width.
    for c in [deep] if family == "regions" else [random_circuit(rng, leaf_family=family)
                                                 for _ in range(3)]:
        comp = engine.compile_circuit(c)
        if family in ("gaussian", "regions"):
            X = rng.normal(0.5, 0.5, size=(300, c.num_variables))
            X[::11, 0] = np.nan
        elif family == "categorical":
            X = categories(c, rng, 300)
        else:
            X = rng.integers(0, 2, size=(300, c.num_variables)).astype(float)
        adjoints = posterior_adjoints(c, rng, 300)
        values, back = comp.evaluate(X, adjoints)
        for b in range(300):
            row_values, row = comp.evaluate(
                X[b:b + 1], lambda v, rows, b=b: adjoints(v, slice(b, b + 1)))
            assert np.array_equal(values[b], row_values[0])
            assert np.array_equal(back.input_grads[b], row.input_grads[0])
