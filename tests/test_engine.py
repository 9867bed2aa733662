import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from cfspn import circuit as cm
from cfspn import engine, inference
from conftest import naive_log_value, random_circuit


def forward_roots(circuit, X):
    comp = engine.compile_circuit(circuit)
    V = comp.forward(np.atleast_2d(X))
    return comp, V


def test_forward_matches_naive_on_batches(rng):
    for _ in range(10):
        c = random_circuit(rng)
        X = rng.normal(0.5, 0.5, size=(7, c.num_variables))
        comp, V = forward_roots(c, X)
        for b in range(7):
            for root in c.class_roots:
                assert V[root, b] == pytest.approx(
                    naive_log_value(c, root, X[b]), abs=1e-10)


def test_forward_handles_missing_values(rng):
    c = random_circuit(rng, num_variables=5)
    X = rng.normal(0.5, 0.5, size=(4, 5))
    X[0, 2] = np.nan
    X[1, :] = np.nan
    X[3, [0, 4]] = np.nan
    comp, V = forward_roots(c, X)
    for b in range(4):
        for root in c.class_roots:
            assert V[root, b] == pytest.approx(
                naive_log_value(c, root, X[b]), abs=1e-10)


def test_forward_bernoulli_and_categorical(rng):
    for family in ("bernoulli", "categorical"):
        c = random_circuit(rng, num_variables=4, leaf_family=family)
        X = rng.integers(0, 2, size=(6, 4)).astype(float)
        comp, V = forward_roots(c, X)
        for b in range(6):
            for root in c.class_roots:
                assert V[root, b] == pytest.approx(
                    naive_log_value(c, root, X[b]), abs=1e-10)


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
    nodes = [cm.BernoulliLeaf(variable=0, p=0.8)]
    c = cm.Circuit(nodes=nodes, class_roots=[0],
                   log_prior=np.array([0.0]), num_variables=1)
    comp = engine.compile_circuit(c)
    X = np.array([[1.0]])
    V = comp.forward(X)
    out = comp.backward(V, X, {0: np.ones(1)})
    assert out.input_grads[0, 0] == pytest.approx(math.log(0.8 / 0.2))


def test_sum_adjoint_splits_by_posterior_weight():
    nodes = [
        cm.GaussianLeaf(variable=0, mean=-1.0, variance=1.0),
        cm.GaussianLeaf(variable=0, mean=1.0, variance=1.0),
        cm.SumNode(children=[0, 1], log_weights=np.log([0.3, 0.7])),
    ]
    c = cm.Circuit(nodes=nodes, class_roots=[2],
                   log_prior=np.array([0.0]), num_variables=1)
    comp = engine.compile_circuit(c)
    X = np.array([[0.25]])
    V = comp.forward(X)
    out = comp.backward(V, X, {2: np.ones(1)})
    w = np.exp(np.log([0.3, 0.7]) + V[[0, 1], 0] - V[2, 0])
    assert out.adjoints[0, 0] == pytest.approx(w[0], abs=1e-12)
    assert out.adjoints[1, 0] == pytest.approx(w[1], abs=1e-12)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_product_passes_adjoint_through():
    nodes = [
        cm.GaussianLeaf(variable=0, mean=0.0, variance=1.0),
        cm.GaussianLeaf(variable=1, mean=0.0, variance=1.0),
        cm.ProductNode(children=[0, 1]),
    ]
    c = cm.Circuit(nodes=nodes, class_roots=[2],
                   log_prior=np.array([0.0]), num_variables=2)
    comp = engine.compile_circuit(c)
    X = np.array([[0.5, -0.5]])
    V = comp.forward(X)
    out = comp.backward(V, X, {2: np.full(1, 3.0)})
    assert out.adjoints[0, 0] == pytest.approx(3.0)
    assert out.adjoints[1, 0] == pytest.approx(3.0)


def test_parameter_gradients_match_finite_differences(rng):
    h = 1e-6
    c = random_circuit(rng, num_variables=4, num_classes=1)
    root = c.class_roots[0]
    x = np.atleast_2d(rng.normal(0.5, 0.4, size=4))
    comp = engine.compile_circuit(c)
    V = comp.forward(x)
    out = comp.backward(V, x, {root: np.ones(1)},
                        want_input=False, want_params=True)

    def root_value(nid, **changes):
        nodes = list(c.nodes)
        nodes[nid] = dataclasses.replace(nodes[nid], **changes)
        perturbed = dataclasses.replace(c, nodes=nodes)
        return engine.compile_circuit(perturbed).forward(x)[root, 0]

    sum_ids = [i for i, n in enumerate(c.nodes) if n.kind == "sum"]
    nid = sum_ids[0]
    got = comp.per_sum_node(out.sum_log_weight_grads)[nid]
    keep = c.nodes[nid].log_weights
    for j in range(len(c.nodes[nid].children)):
        step = h * (np.arange(keep.size) == j)
        up = root_value(nid, log_weights=keep + step)
        dn = root_value(nid, log_weights=keep - step)
        assert got[j] == pytest.approx((up - dn) / (2 * h), rel=1e-4, abs=1e-7)

    gid = int(comp.gaussian_ids[0])
    node = c.nodes[gid]
    for attr, grads in (("mean", out.gaussian_mean_grads),
                        ("variance", out.gaussian_variance_grads)):
        keep = getattr(node, attr)
        up = root_value(gid, **{attr: keep + h})
        dn = root_value(gid, **{attr: keep - h})
        assert grads[0] == pytest.approx((up - dn) / (2 * h), rel=1e-4, abs=1e-7)


def test_compile_cache_reuses_per_instance(rng):
    c = random_circuit(rng)
    a = engine.compile_circuit(c)
    b = engine.compile_circuit(c)
    assert a is b


def test_circuits_are_immutable_so_the_cache_cannot_go_stale(rng):
    c = random_circuit(rng, num_variables=3, num_classes=2)
    x = rng.normal(0.5, 0.4, size=3)
    before = inference.class_log_densities(c, x)
    gid = next(i for i, n in enumerate(c.nodes) if n.kind == "gaussian")
    sid = next(i for i, n in enumerate(c.nodes) if n.kind == "sum")

    with pytest.raises(dataclasses.FrozenInstanceError):
        c.nodes[gid].mean = 3.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.log_prior = np.log([0.9, 0.1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.nodes[sid].log_weights = np.zeros(len(c.nodes[sid].children))
    with pytest.raises(ValueError):
        c.nodes[sid].log_weights[0] = 0.0
    with pytest.raises(ValueError):
        c.log_prior[0] = 0.0
    with pytest.raises(TypeError):
        c.nodes[gid] = cm.GaussianLeaf(0, 3.0, 1.0)
    with pytest.raises(ValueError):
        engine.compile_circuit(c).gaussian_mean[:] += 1.0
    for twin in (copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert cm.structural_equal(twin, c)
        with pytest.raises(ValueError):
            twin.nodes[sid].log_weights[0] = 0.0
        with pytest.raises(ValueError):
            twin.log_prior[0] = 0.0
    assert np.array_equal(inference.class_log_densities(c, x), before)

    nodes = list(c.nodes)
    nodes[gid] = dataclasses.replace(nodes[gid], mean=3.0)
    changed = dataclasses.replace(c, nodes=nodes)
    got = engine.compile_circuit(changed).forward(x[None, :])
    for y, root in enumerate(c.class_roots):
        expected = naive_log_value(changed, root, x)
        assert got[root, 0] == pytest.approx(expected, abs=1e-10)
        assert inference.class_log_densities(changed, x)[y] == pytest.approx(
            expected, abs=1e-10)
    assert not np.allclose(inference.class_log_densities(changed, x), before)


def test_dead_branch_adjoint_is_zero():
    # A zero-weight child is unreachable; its adjoint must be exactly 0.
    nodes = [
        cm.BernoulliLeaf(variable=0, p=0.5),
        cm.BernoulliLeaf(variable=0, p=0.5),
        cm.SumNode(children=[0, 1], log_weights=np.array([0.0, -np.inf])),
    ]
    c = cm.Circuit(nodes=nodes, class_roots=[2],
                   log_prior=np.array([0.0]), num_variables=1)
    comp = engine.compile_circuit(c)
    X = np.array([[1.0]])
    V = comp.forward(X)
    out = comp.backward(V, X, {2: np.ones(1)})
    assert out.adjoints[1, 0] == 0.0
    assert out.adjoints[0, 0] == pytest.approx(1.0)


def test_batch_forward_equals_per_row(rng):
    c = random_circuit(rng)
    X = rng.normal(0.5, 0.5, size=(9, c.num_variables))
    comp = engine.compile_circuit(c)
    V = comp.forward(X)
    for b in range(9):
        Vb = comp.forward(X[b:b + 1])
        assert np.allclose(V[:, b], Vb[:, 0], equal_nan=True)
