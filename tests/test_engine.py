import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from cfspn import circuit as cm
from cfspn import engine, inference, structure
from conftest import naive_log_value, random_circuit, randomize_parameters


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
    nodes = [cm.BernoulliLeaf(variable=0, p=0.8)]
    c = cm.Circuit(nodes=nodes, class_roots=[0],
                   log_prior=np.array([0.0]), num_variables=1)
    comp = engine.compile_circuit(c)
    X = np.array([[1.0]])
    V = comp.forward(X)
    out = comp.backward(V, X, {0: np.ones(1)})
    assert out.input_grads[0, 0] == pytest.approx(math.log(0.8 / 0.2))


def test_sum_adjoint_splits_by_posterior_weight():
    means, prior = np.array([-1.0, 1.0]), np.array([0.3, 0.7])
    nodes = [
        cm.GaussianLeaf(variable=0, mean=means[0], variance=1.0),
        cm.GaussianLeaf(variable=0, mean=means[1], variance=1.0),
        cm.SumNode(children=[0, 1], log_weights=np.log(prior)),
    ]
    c = cm.Circuit(nodes=nodes, class_roots=[2],
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

    def root_value(nid, **changes):
        nodes = list(c.nodes)
        nodes[nid] = dataclasses.replace(nodes[nid], **changes)
        perturbed = dataclasses.replace(c, nodes=nodes)
        comp = engine.compile_circuit(perturbed)
        return comp.root_values(comp.forward(x))[0, 0]

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
    comp = engine.compile_circuit(changed)
    got = comp.root_values(comp.forward(x[None, :]))
    for y, root in enumerate(c.class_roots):
        expected = naive_log_value(changed, root, x)
        assert got[0, y] == pytest.approx(expected, abs=1e-10)
        assert inference.class_log_densities(changed, x)[y] == pytest.approx(
            expected, abs=1e-10)
    assert not np.allclose(inference.class_log_densities(changed, x), before)


def test_dead_branch_adjoint_is_zero():
    # A zero-weight child is unreachable: nothing may flow into it, although
    # its log value is the larger one at x = 1.
    live_p, dead_p = 0.3, 0.8
    nodes = [
        cm.BernoulliLeaf(variable=0, p=live_p),
        cm.BernoulliLeaf(variable=0, p=dead_p),
        cm.SumNode(children=[0, 1], log_weights=np.array([0.0, -np.inf])),
    ]
    c = cm.Circuit(nodes=nodes, class_roots=[2],
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


def test_wide_batch_rows_equal_single_rows():
    # The benchmark's wide structure: d=64, depth 3, 19 repetitions.
    cfg = structure.StructureConfig(depth=3, repetitions=19, num_classes=2, seed=7)
    c = randomize_parameters(structure.build_circuit(64, cfg), np.random.default_rng(3))
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
        np.testing.assert_allclose(V[:, b], Vb[:, 0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(G[b], Gb[0], rtol=1e-12, atol=1e-12 * np.abs(Gb).max())


def test_children_spanning_a_thousand_nats_match_naive():
    # Leaf log values at x = 0 range from about 1 to about -12,000 nats, so
    # each block's max shift has to keep its largest term and let the
    # others underflow harmlessly.
    means, variance = (0.0, 10.0, 20.0, 45.0), 0.08
    nodes = [cm.GaussianLeaf(v, m, variance) for v in (0, 1) for m in means]
    left, right = range(0, 4), range(4, 8)
    nodes += [cm.ProductNode([a, b]) for a in left for b in right]
    rng = np.random.default_rng(5)
    products = list(range(8, 24))
    nodes += [cm.SumNode(products, np.log(rng.dirichlet(np.ones(16)))) for _ in range(2)]
    c = cm.Circuit(nodes, class_roots=[24, 25], log_prior=cm.uniform_log_weights(2),
                   num_variables=2)
    X = np.array([[0.0, 0.0], [0.0, 45.0], [20.0, 10.0], [-3.0, 60.0], [0.0, np.nan]])
    for x in X:
        children = [naive_log_value(c, p, x) for p in products]
        assert max(children) - min(children) > 1000.0
    assert_roots_match_naive(c, X, atol=1e-9)


def shared_child_circuit():
    """Leaves 0-5, 3-ary products 6 and 7 read by two sum groups of one
    level (8 and 9), a sum (10) over a leaf, a 3-ary product and a sum, and
    a product (11) of that sum and a leaf under the second root (12)."""
    nodes = [cm.GaussianLeaf(v % 3, m, s) for v, (m, s) in enumerate(
        [(0.2, 0.3), (0.6, 0.2), (0.4, 0.5), (0.8, 0.1), (0.1, 0.4), (0.5, 0.3)])]
    nodes += [
        cm.ProductNode([0, 1, 2]),
        cm.ProductNode([3, 4, 5]),
        cm.SumNode([6, 7], np.log([0.35, 0.65])),
        cm.SumNode([7, 6], np.log([0.9, 0.1])),
        cm.SumNode([0, 6, 8], np.log([0.2, 0.5, 0.3])),
        cm.ProductNode([10, 5]),
        cm.SumNode([11, 6], np.log([0.45, 0.55])),
    ]
    return cm.Circuit(nodes, class_roots=[9, 12], log_prior=cm.uniform_log_weights(2),
                      num_variables=3)


def test_node_shared_by_two_groups_and_mixed_sum_match_naive_and_finite_differences(rng):
    c = shared_child_circuit()
    comp = engine.compile_circuit(c)
    # 8 and 9 share a bucket; 10 and 12 have buckets of their own
    assert [w.shape for w in comp.sum_log_weights] == [(2, 2), (1, 3), (1, 2)]
    X = rng.normal(0.5, 0.4, size=(5, 3))
    assert_roots_match_naive(c, X)

    h = 1e-6
    x = X[0]
    V = comp.forward(X[:1])
    seeds = {9: np.array([0.7]), 12: np.array([-1.3])}
    out = comp.backward(V, X[:1], seeds, want_params=True)

    def objective(circuit, point):
        return (0.7 * naive_log_value(circuit, 9, point)
                - 1.3 * naive_log_value(circuit, 12, point))

    for j in range(3):
        step = h * (np.arange(3) == j)
        fd = (objective(c, x + step) - objective(c, x - step)) / (2 * h)
        assert out.input_grads[0, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)
    grads = comp.per_sum_node(out.sum_log_weight_grads)
    for i in (8, 9, 10, 12):
        lw = c.nodes[i].log_weights
        for j in range(lw.size):
            step = h * (np.arange(lw.size) == j)
            shifted = []
            for sign in (1.0, -1.0):
                nodes = list(c.nodes)
                nodes[i] = dataclasses.replace(nodes[i], log_weights=lw + sign * step)
                shifted.append(objective(dataclasses.replace(c, nodes=nodes), x))
            fd = (shifted[0] - shifted[1]) / (2 * h)
            assert grads[i][j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_seed_raises(bad):
    c = shared_child_circuit()
    comp = engine.compile_circuit(c)
    X = np.full((2, 3), 0.5)
    V = comp.forward(X)
    with pytest.raises(ValueError, match="non-finite adjoint"):
        comp.backward(V, X, {9: np.array([1.0, bad])})


@pytest.mark.parametrize("d, depth, weight_shapes, rows", [
    # moons: one bucket, the two class roots over 19 blocks of 20 x 20
    (2, 1, [(2, 7600)], 19 * 40 + 2),
    # wide: 16-variable regions, 32-variable regions and the class roots
    (64, 3, [(760, 400), (380, 100), (2, 1900)], 19 * 8 * 20 * 9 + 760 + 380 + 2),
])
def test_region_sums_compile_to_cross_product_buckets(tmp_path, d, depth,
                                                      weight_shapes, rows):
    cfg = structure.StructureConfig(depth=depth, repetitions=19, num_classes=2, seed=7)
    built = structure.build_circuit(d, cfg)
    cm.save(built, tmp_path / "model.json")
    for c in (built, cm.load(tmp_path / "model.json")):
        comp = engine.CompiledCircuit(c)
        assert [w.shape for w in comp.sum_log_weights] == weight_shapes
        # every cross product is absorbed: only leaves, leaf-region products
        # and sums are materialized
        assert comp.n_rows == rows
        assert cm.structural_equal(comp.to_circuit(c.log_prior), c)


def test_dead_class_root_passes_no_adjoint():
    # At x0 = 0 both categorical leaves have probability 0, so every block of
    # root 8 is -inf: its value is -inf and its seed must change nothing.
    nodes = [cm.CategoricalLeaf(0, [0.0, 1.0]), cm.CategoricalLeaf(0, [0.0, 1.0]),
             cm.GaussianLeaf(1, 0.2, 0.3), cm.GaussianLeaf(1, 0.7, 0.2)]
    nodes += [cm.ProductNode([a, b]) for a in (0, 1) for b in (2, 3)]
    nodes += [cm.SumNode([4, 5, 6, 7], np.log([0.1, 0.2, 0.3, 0.4])),
              cm.SumNode([2, 3], np.log([0.5, 0.5]))]
    c = cm.Circuit(nodes, class_roots=[8, 9], log_prior=cm.uniform_log_weights(2),
                   num_variables=2)
    comp = engine.compile_circuit(c)
    X = np.array([[0.0, 0.3], [1.0, 0.3]])
    assert_roots_match_naive(c, X[1:])
    V = comp.forward(X)
    assert comp.root_values(V)[0, 0] == -np.inf
    dead = comp.backward(V, X, {8: np.array([1.0, 0.0])}, want_params=True)
    assert np.all(dead.input_grads == 0.0)
    assert np.all(comp.per_sum_node(dead.sum_log_weight_grads)[8] == 0.0)
    both = comp.backward(V, X, {8: np.ones(2), 9: np.ones(2)})
    live = comp.backward(V, X, {9: np.ones(2)})
    assert np.array_equal(both.input_grads[0], live.input_grads[0])


def test_sums_whose_heaviest_children_have_zero_weight_are_exact():
    # At x = (0, 0) the children with mean 0 dominate by about 800 nats, but
    # the roots 9 and 11 give them weight 0: their values come from children
    # far below every block shift.  Sums 8 and 10 share the roots' groups.
    leaves = [cm.GaussianLeaf(v, m, 0.01) for v in (0, 1) for m in (0.0, 4.0)]
    products = [cm.ProductNode([a, b]) for a in (0, 1) for b in (2, 3)]
    nodes = leaves + products + [
        cm.SumNode([0, 1], [0.0, -np.inf]),
        cm.SumNode([0, 1], [-np.inf, 0.0]),
        cm.SumNode([4, 5, 6, 7], np.log([0.25, 0.25, 0.25, 0.25])),
        cm.SumNode([4, 5, 6, 7], [-np.inf, np.log(0.3), np.log(0.7), -np.inf]),
    ]
    c = cm.Circuit(nodes, class_roots=[9, 11], log_prior=cm.uniform_log_weights(2),
                   num_variables=2)
    comp = engine.compile_circuit(c)
    X = np.array([[0.0, 0.0], [0.1, -0.2], [4.0, 0.0], [2.0, 2.0]])
    assert naive_log_value(c, 11, X[0]) < -700.0
    assert_roots_match_naive(c, X, atol=1e-9)

    h = 1e-6
    V = comp.forward(X)
    seeds = {9: np.full(4, 0.6), 11: np.full(4, -1.1)}
    out = comp.backward(V, X, seeds, want_params=True)

    def objective(circuit, x):
        return (0.6 * naive_log_value(circuit, 9, x)
                - 1.1 * naive_log_value(circuit, 11, x))

    for row, x in enumerate(X):
        for j in range(2):
            step = h * (np.arange(2) == j)
            fd = (objective(c, x + step) - objective(c, x - step)) / (2 * h)
            assert out.input_grads[row, j] == pytest.approx(fd, rel=1e-5, abs=1e-6)
    lw = c.nodes[11].log_weights
    got = comp.per_sum_node(out.sum_log_weight_grads)[11]
    for j in (1, 2):
        step = h * (np.arange(4) == j)
        shifted = []
        for sign in (1.0, -1.0):
            nodes = list(c.nodes)
            nodes[11] = dataclasses.replace(nodes[11], log_weights=lw + sign * step)
            changed = dataclasses.replace(c, nodes=nodes)
            shifted.append(sum(objective(changed, x) for x in X))
        assert got[j] == pytest.approx((shifted[0] - shifted[1]) / (2 * h), rel=1e-5)
    assert got[0] == 0.0 and got[3] == 0.0
