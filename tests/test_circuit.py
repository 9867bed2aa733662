import base64
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from cfspn import circuit as cm
from cfspn import grad, inference, structure
from conftest import (BernoulliLeaf, CategoricalLeaf, GaussianLeaf, ProductNode,
                      SumNode, blob, from_nodes, naive_log_value, nodes_of, random_circuit,
                      randomize_parameters, set_blob, two_gaussian_classifier)


def with_node(circuit, index, **changes):
    """A copy of the circuit whose node ``index`` has the given fields changed."""
    nodes = nodes_of(circuit)
    nodes[index] = nodes[index]._replace(**changes)
    return from_nodes(nodes, circuit.class_roots, circuit.log_prior,
                      circuit.num_variables)


def gaussian_log_pdf(x, mean, variance):
    return (-0.5 * math.log(2.0 * math.pi * variance)
            - (x - mean) ** 2 / (2.0 * variance))


def test_gaussian_leaf_log_value():
    c = two_gaussian_classifier(mean0=0.0, mean1=1.0, variance=1.0)
    got = inference.class_log_densities(c, np.array([0.0]))[0]
    assert got == pytest.approx(-0.5 * math.log(2.0 * math.pi), abs=1e-15)


def test_bernoulli_leaf_log_value():
    nodes = [BernoulliLeaf(variable=0, p=0.3)]
    c = from_nodes(nodes=nodes, class_roots=[0],
                   log_prior=np.array([0.0]), num_variables=1)
    got = inference.class_log_densities(c, np.array([[1.0], [0.0]]))[:, 0]
    assert got[0] == pytest.approx(math.log(0.3))
    assert got[1] == pytest.approx(math.log(0.7))


def test_categorical_leaf_log_value():
    nodes = [CategoricalLeaf(variable=0, probabilities=np.array([0.2, 0.5, 0.3]))]
    c = from_nodes(nodes=nodes, class_roots=[0],
                   log_prior=np.array([0.0]), num_variables=1)
    got = inference.class_log_densities(c, np.array([[1.0], [2.0]]))[:, 0]
    assert got[0] == pytest.approx(math.log(0.5))
    assert got[1] == pytest.approx(math.log(0.3))


def test_categorical_values_outside_the_categories_are_refused(rng):
    # They used to be rounded and clamped: 2, 5 and 99 scored alike on a
    # 3-category leaf, and -3 scored as category 0.
    nodes = [CategoricalLeaf(variable=0, probabilities=np.array([0.2, 0.5, 0.3])),
             CategoricalLeaf(variable=1, probabilities=np.array([0.4, 0.6])),
             ProductNode(children=[0, 1])]
    c = from_nodes(nodes=nodes, class_roots=[2], log_prior=np.array([0.0]), num_variables=2)
    assert inference.log_density(c, [2.0, 1.0]) == pytest.approx(math.log(0.3 * 0.6))
    for x, variable, value in (([5.0, 0.0], 0, "5.0"), ([99.0, 0.0], 0, "99.0"),
                               ([-3.0, 0.0], 0, "-3.0"), ([1.5, 0.0], 0, "1.5"),
                               ([0.0, 2.0], 1, "2.0")):
        message = f"variable {variable} has categorical value {value}, not an integer"
        with pytest.raises(ValueError, match=message):
            inference.log_density(c, x)
        with pytest.raises(ValueError, match=message):
            grad.grad_density(c, np.array([x, [0.0, 0.0]]))
    # NaN still marginalizes the variable
    assert inference.log_density(c, [np.nan, 1.0]) == pytest.approx(math.log(0.6))
    assert inference.log_density(c, [np.nan, np.nan]) == 0.0
    random = random_circuit(rng, leaf_family="categorical")
    X = np.zeros((3, random.num_variables))
    X[1, -1] = 99.0
    with pytest.raises(ValueError, match=f"variable {random.num_variables - 1} has"):
        inference.class_log_densities(random, X)


def test_sum_node_is_log_mixture():
    nodes = [
        GaussianLeaf(variable=0, mean=-1.0, variance=1.0),
        GaussianLeaf(variable=0, mean=2.0, variance=1.0),
        SumNode(children=[0, 1], log_weights=np.log([0.25, 0.75])),
    ]
    c = from_nodes(nodes=nodes, class_roots=[2],
                   log_prior=np.array([0.0]), num_variables=1)
    x = np.array([0.5])
    expected = math.log(0.25 * math.exp(gaussian_log_pdf(0.5, -1.0, 1.0))
                        + 0.75 * math.exp(gaussian_log_pdf(0.5, 2.0, 1.0)))
    assert inference.class_log_densities(c, x)[0] == pytest.approx(expected, abs=1e-12)


def test_product_node_adds_logs():
    nodes = [
        GaussianLeaf(variable=0, mean=0.0, variance=1.0),
        GaussianLeaf(variable=1, mean=1.0, variance=2.0),
        ProductNode(children=[0, 1]),
    ]
    c = from_nodes(nodes=nodes, class_roots=[2],
                   log_prior=np.array([0.0]), num_variables=2)
    x = np.array([0.3, -0.7])
    expected = gaussian_log_pdf(0.3, 0.0, 1.0) + gaussian_log_pdf(-0.7, 1.0, 2.0)
    assert inference.class_log_densities(c, x)[0] == pytest.approx(expected, abs=1e-12)


def test_log_value_matches_naive_on_random_circuits(rng):
    for _ in range(20):
        c = random_circuit(rng)
        x = rng.normal(0.5, 0.5, size=c.num_variables)
        got = inference.class_log_densities(c, x)
        for y, root in enumerate(c.class_roots):
            assert got[y] == pytest.approx(naive_log_value(c, root, x), abs=1e-10)


def test_marginalized_leaf_contributes_log_one(rng):
    c = random_circuit(rng, num_variables=4)
    x = np.array([0.2, np.nan, 0.8, np.nan])
    assert inference.class_log_densities(c, x)[0] == pytest.approx(
        naive_log_value(c, c.class_roots[0], x), abs=1e-10)


def test_all_missing_evidence_is_exactly_zero(rng):
    for _ in range(5):
        c = random_circuit(rng)
        x = np.full(c.num_variables, np.nan)
        assert np.all(inference.class_log_densities(c, x) == 0.0)


def test_logsumexp_matches_scipy_bit_for_bit(rng):
    from scipy.special import logsumexp
    a = rng.normal(0.0, 30.0, size=(50, 7))
    a[3] = -np.inf                      # every term -inf
    a[4, 2:5] = -np.inf                 # some terms -inf
    a[5] = 1.5                          # all tied
    a[6, [1, 4]] = a[6].max() + 1.0     # a tied maximum
    for axis in (0, 1, -1):
        assert np.array_equal(cm.logsumexp(a, axis=axis), logsumexp(a, axis=axis))
        assert np.array_equal(cm.logsumexp(a, axis=axis, keepdims=True),
                              logsumexp(a, axis=axis, keepdims=True))
    assert cm.logsumexp(np.zeros((0, 0)), axis=1, keepdims=True).shape == (0, 1)
    assert np.array_equal(cm.logsumexp(np.zeros((2, 0)), axis=1), [-np.inf, -np.inf])


def test_scopes_cover_variables(rng):
    c = random_circuit(rng, num_variables=6)
    for root in c.class_roots:
        assert np.array_equal(c.scopes[root], [2 ** 6 - 1])


def test_validate_accepts_random_circuits(rng):
    for _ in range(10):
        assert cm.validate(random_circuit(rng)) is None


def test_validate_rejects_unnormalized_weights():
    c = two_gaussian_classifier()
    nodes = nodes_of(c) + [SumNode(children=[0, 1],
                                   log_weights=np.log([0.5, 0.6]))]
    with pytest.raises(ValueError, match=r"\[weight-normalization\] node 2"):
        from_nodes(nodes=nodes, class_roots=[2, 2],
                   log_prior=c.log_prior, num_variables=1)


def test_validate_rejects_nonpositive_variance():
    with pytest.raises(ValueError, match=r"\[leaf-domain\] node 0: variance 0.0"):
        with_node(two_gaussian_classifier(), 0, variance=0.0)


def test_validate_rejects_bad_child_reference():
    nodes = [
        GaussianLeaf(variable=0, mean=0.0, variance=1.0),
        SumNode(children=[0, 5], log_weights=cm.uniform_log_weights(2)),
    ]
    with pytest.raises(ValueError, match=r"\[node-ref\] node 1: child id 5"):
        from_nodes(nodes=nodes, class_roots=[1],
                   log_prior=np.array([0.0]), num_variables=1)


def test_validate_rejects_forward_reference():
    nodes = [
        SumNode(children=[1, 2], log_weights=cm.uniform_log_weights(2)),
        GaussianLeaf(variable=0, mean=0.0, variance=1.0),
        GaussianLeaf(variable=0, mean=1.0, variance=1.0),
    ]
    with pytest.raises(ValueError, match=r"\[topological-order\] node 0"):
        from_nodes(nodes=nodes, class_roots=[0],
                   log_prior=np.array([0.0]), num_variables=1)


def test_validate_rejects_smoothness_violation():
    nodes = [
        GaussianLeaf(variable=0, mean=0.0, variance=1.0),
        GaussianLeaf(variable=1, mean=0.0, variance=1.0),
        SumNode(children=[0, 1], log_weights=cm.uniform_log_weights(2)),
        GaussianLeaf(variable=0, mean=1.0, variance=1.0),
        GaussianLeaf(variable=1, mean=1.0, variance=1.0),
        ProductNode(children=[3, 4]),
    ]
    with pytest.raises(ValueError, match=r"\[smoothness\] node 2"):
        from_nodes(nodes=nodes, class_roots=[5],
                   log_prior=np.array([0.0]), num_variables=2)


def test_validate_rejects_decomposability_violation():
    nodes = [
        GaussianLeaf(variable=0, mean=0.0, variance=1.0),
        GaussianLeaf(variable=0, mean=1.0, variance=1.0),
        GaussianLeaf(variable=1, mean=0.0, variance=1.0),
        ProductNode(children=[0, 1, 2]),
    ]
    with pytest.raises(ValueError, match=r"\[decomposability\] node 3"):
        from_nodes(nodes=nodes, class_roots=[3],
                   log_prior=np.array([0.0]), num_variables=2)


def test_validate_rejects_partial_scope_root():
    nodes = [
        GaussianLeaf(variable=0, mean=0.0, variance=1.0),
    ]
    with pytest.raises(ValueError, match=r"\[scope\] node 0: class root 0"):
        from_nodes(nodes=nodes, class_roots=[0],
                   log_prior=np.array([0.0]), num_variables=2)


def test_validate_rejects_bad_prior():
    with pytest.raises(ValueError, match=r"\[prior\] node None: prior sums to"):
        dataclasses.replace(two_gaussian_classifier(), log_prior=np.log([0.9, 0.9]))


@pytest.mark.parametrize("nodes, roots, message", [
    ([], [], "circuit has no nodes"),
    ([GaussianLeaf(0, 0.0, 1.0), ProductNode([])], [0], "product node has no children"),
    ([GaussianLeaf(0, 0.0, 1.0)], [], "circuit has no class roots"),
])
def test_validate_rejects_structure_errors(nodes, roots, message):
    with pytest.raises(ValueError, match=r"\[structure\] node \w+: " + message):
        from_nodes(nodes, class_roots=roots, log_prior=cm.uniform_log_weights(1),
                   num_variables=1)


def test_validation_error_lists_every_violation():
    nodes = [
        GaussianLeaf(variable=0, mean=0.0, variance=-1.0),
        GaussianLeaf(variable=1, mean=0.0, variance=1.0),
        SumNode(children=[0, 1], log_weights=np.log([0.5, 0.6])),
    ]
    with pytest.raises(ValueError) as info:
        from_nodes(nodes, class_roots=[2], log_prior=np.log([0.5]), num_variables=2)
    assert str(info.value) == (
        "invalid circuit: [leaf-domain] node 0: variance -1.0 is not positive; "
        "[weight-normalization] node 2: weights sum to 1.1; "
        "[smoothness] node 2: children 0 and 1 differ in scope; "
        "[prior] node None: prior sums to 0.5")


def test_circuits_that_gave_silently_wrong_answers_are_refused():
    # Weights summing to 1.8 made a "density" whose total over {0, 1} was 1.8.
    with pytest.raises(ValueError, match="weight-normalization"):
        from_nodes([BernoulliLeaf(0, 0.5), BernoulliLeaf(0, 0.2),
                    SumNode([0, 1], np.log([0.9, 0.9]))],
                   class_roots=[2], log_prior=np.array([0.0]), num_variables=1)
    # A sum reading later nodes was evaluated before its children existed.
    with pytest.raises(ValueError, match="topological-order"):
        from_nodes([SumNode([1, 2], cm.uniform_log_weights(2)),
                    BernoulliLeaf(0, 0.5), BernoulliLeaf(0, 0.2)],
                   class_roots=[0], log_prior=np.array([0.0]), num_variables=1)


def test_save_load_round_trip(tmp_path, rng):
    path = tmp_path / "model.json"
    for _ in range(10):
        c = random_circuit(rng)
        cm.save(c, path)
        back = cm.load(path)
        assert cm.structural_equal(c, back)
        x = rng.normal(0.5, 0.5, size=c.num_variables)
        assert np.array_equal(inference.class_log_densities(back, x),
                              inference.class_log_densities(c, x))


def assert_bit_equal(a, b):
    """Every array of two circuits holds the same bytes."""
    for f in dataclasses.fields(cm.Circuit):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


def test_save_load_round_trip_is_bit_exact(tmp_path, rng):
    # -0.0 means and probabilities, a dead edge's -inf log-weight, and p at
    # both ends of its domain.
    edge = from_nodes([GaussianLeaf(0, -0.0, 1.0), GaussianLeaf(0, 0.5, 2.0),
                       SumNode([0, 1], np.array([0.0, -np.inf])),
                       BernoulliLeaf(1, 0.0), BernoulliLeaf(1, 1.0),
                       SumNode([3, 4], np.log([0.25, 0.75])),
                       CategoricalLeaf(2, np.array([-0.0, 0.3, 0.7])),
                       ProductNode([2, 5, 6]), ProductNode([1, 3, 6])],
                      class_roots=[7, 8], log_prior=np.log([0.4, 0.6]), num_variables=3)
    assert np.signbit(edge.mean[0]) and np.signbit(edge.probs[0])
    assert -np.inf in edge.log_weights and set(edge.p) == {0.0, 1.0}
    path, again = tmp_path / "model.json", tmp_path / "again.json"
    for c in [edge] + [random_circuit(rng, leaf_family=family)
                       for family in ("gaussian", "bernoulli", "categorical")]:
        cm.save(c, path)
        assert "Infinity" not in path.read_text()
        back = cm.load(path)
        assert_bit_equal(back, c)
        cm.save(back, again)
        assert again.read_bytes() == path.read_bytes()


def test_save_writes_the_document_json_dumps_writes(tmp_path, rng):
    # The README moons structure, depth 2 over 12 variables, and Bernoulli and
    # categorical leaves.
    moons = structure.build_circuit(2, structure.StructureConfig(num_classes=2, seed=7))
    deep = structure.build_circuit(12, structure.StructureConfig(
        depth=2, repetitions=2, sum_nodes_per_region=2, leaf_distributions_per_region=3,
        num_classes=2, seed=5))
    path = tmp_path / "model.json"
    for c in [moons, randomize_parameters(deep, rng)] + [
            random_circuit(rng, leaf_family=family) for family in ("bernoulli", "categorical")]:
        cm.save(c, path)
        doc = {"format_version": cm.FORMAT_VERSION, "num_variables": c.num_variables,
               "class_roots": list(c.class_roots)}
        doc.update((f.name, base64.b64encode(np.asarray(
            getattr(c, f.name), dtype=cm._dtype(f.name)).tobytes()).decode("ascii"))
            for f in dataclasses.fields(c) if f.name not in doc)
        assert path.read_bytes() == (json.dumps(doc) + "\n").encode("utf-8")


def test_save_refuses_invalid_circuit(tmp_path):
    # No invalid circuit exists to be saved: building one raises first.
    path = tmp_path / "bad.json"
    with pytest.raises(ValueError, match="leaf-domain"):
        cm.save(with_node(two_gaussian_classifier(), 0, variance=-1.0), path)
    assert not path.exists()


def test_load_rejects_wrong_format_version(tmp_path, rng):
    path = tmp_path / "model.json"
    cm.save(random_circuit(rng), path)
    doc = json.loads(path.read_text())
    doc["format_version"] = cm.FORMAT_VERSION + 1
    path.write_text(json.dumps(doc))
    with pytest.raises(cm.CircuitFormatError):
        cm.load(path)


def test_load_rejects_malformed_document(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format_version": 1, "nodes": "nope"}')
    with pytest.raises(cm.CircuitFormatError):
        cm.load(path)


def test_load_rejects_a_document_that_is_not_utf_8(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(cm.CircuitFormatError, match="not a UTF-8 JSON document"):
        cm.load(path)


def test_load_rejects_invalid_circuit_content(tmp_path, rng):
    path = tmp_path / "model.json"
    c = random_circuit(rng, leaf_family="gaussian")
    cm.save(c, path)
    doc = json.loads(path.read_text())
    variance = blob(doc, "variance")
    variance[0] = -3.0
    set_blob(doc, "variance", variance)
    path.write_text(json.dumps(doc))
    with pytest.raises(cm.CircuitFormatError, match=r"\[leaf-domain\] node \d+: variance -3.0"):
        cm.load(path)


# A version-1 model written before the flat-array format, with every node
# kind, the same model as the version-2 writer saved it, and its class log
# densities at V1_POINTS.  These are the engine's own figures, so that a
# load must reproduce them bit for bit; they moved by at most 1.8e-15 when Gaussian leaves became leaf regions (the values of a
# leaf are summed in another order), and agree with naive_log_value to 1e-15.
V1_MODEL = Path(__file__).parent / "data" / "model_v1.json"
V2_MODEL = Path(__file__).parent / "data" / "model_v2.json"
V1_POINTS = np.array([[0.0, 0.0, 0.0], [1.1, 1.0, 2.0], [-2.3, 1.0, 1.0],
                      [0.4, np.nan, 1.0]])
V1_DENSITIES = np.array([[-3.5601170648842855, -3.527645070699074],
                         [-2.214787592130603, -2.7204003004701462],
                         [-6.273762585509787, -5.851768185451342],
                         [-2.709361111567547, -3.325258266593867]])


def test_version_1_model_loads_and_saves_as_version_3(tmp_path):
    assert json.loads(V1_MODEL.read_text())["format_version"] == 1
    c = cm.load(V1_MODEL)
    assert set(c.kind) == set(range(len(cm.KINDS)))
    assert np.array_equal(inference.class_log_densities(c, V1_POINTS), V1_DENSITIES)
    naive = [[naive_log_value(c, root, x) for root in c.class_roots] for x in V1_POINTS]
    np.testing.assert_allclose(V1_DENSITIES, naive, rtol=0, atol=1e-15)
    path = tmp_path / "model.json"
    cm.save(c, path)
    assert json.loads(path.read_text())["format_version"] == 3
    back = cm.load(path)
    assert_bit_equal(back, c)
    assert np.array_equal(inference.class_log_densities(back, V1_POINTS), V1_DENSITIES)


def test_version_2_model_loads_bit_for_bit():
    assert json.loads(V2_MODEL.read_text())["format_version"] == 2
    c = cm.load(V2_MODEL)
    assert_bit_equal(c, cm.load(V1_MODEL))
    assert np.array_equal(inference.class_log_densities(c, V1_POINTS), V1_DENSITIES)


def _set(name, index, value):
    def edit(doc):
        doc[name][index] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_set("ids", 0, 1.5), "ids must be a list of integers"),
    (_set("ids", 0, 99), r"\[node-ref\] node 6: child id 99 out of range"),
    (_set("variable", 0, 0.5), "variable must be a list of integers"),
    (_set("variable", 0, 3), r"\[leaf-domain\] node 0: variable 3 out of range"),
    (_set("ptr", 8, 2), r"\[structure\] node None: ptr decreases after entry 7"),
    (_set("ptr", -1, 15), r"ptr runs from 0 to 15, not from 0 to len\(ids\) = 14"),
    (lambda doc: doc["log_weights"].pop(), "log_weights has 13 entries, expected 14"),
    (lambda doc: doc["mean"].pop(), "mean has 1 entries, expected 2"),
    (_set("kind", 0, "gaussian"), "kind must be a list of integers"),
    (_set("log_prior", 0, "-1.0"), "log_prior must be a list of numbers"),
    (_set("p", 0, True), "p must be a list of numbers"),
    (lambda doc: doc.update(num_variables=10 ** 12),
     r"\[scope\] node 9: class root 0 does not cover all variables"),
])
def test_load_rejects_malformed_version_2_document(tmp_path, edit, message):
    path = tmp_path / "model.json"
    doc = json.loads(V2_MODEL.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(cm.CircuitFormatError, match=message):
        cm.load(path)


def _edit_blob(name, change):
    def edit(doc):
        set_blob(doc, name, change(blob(doc, name)))
    return edit


def _append_bytes(name, extra):
    def edit(doc):
        doc[name] = base64.b64encode(base64.b64decode(doc[name]) + extra).decode("ascii")
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(ids=blob(doc, "ids").tolist()), "ids must be a base64 string"),
    (lambda doc: doc.update(mean="*" + doc["mean"][1:]), "mean is not valid base64"),
    (lambda doc: doc.update(mean="\u00e9" + doc["mean"][1:]), "mean is not valid base64"),
    (_append_bytes("log_weights", bytes(7)),
     "log_weights holds 119 bytes, not a whole number of 8-byte values"),
    (_edit_blob("log_weights", lambda w: w[:-1]), "log_weights has 13 entries, expected 14"),
    (_edit_blob("ptr", lambda ptr: ptr[:-1]), "ptr has 11 entries, expected 12"),
    (_set("class_roots", 0, 9.0), "class_roots must be a list of integers"),
    (_edit_blob("variance", lambda v: -v), r"\[leaf-domain\] node 0: variance -0.7"),
])
def test_load_rejects_malformed_version_3_document(tmp_path, edit, message):
    path = tmp_path / "model.json"
    cm.save(cm.load(V1_MODEL), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(cm.CircuitFormatError, match=message):
        cm.load(path)


def test_structural_equal_detects_parameter_change(rng):
    a = random_circuit(rng)
    b = dataclasses.replace(a)
    assert b is not a
    assert cm.structural_equal(a, b)
    gid = next(i for i, node in enumerate(nodes_of(a)) if node.kind == "gaussian")
    b = with_node(a, gid, mean=nodes_of(a)[gid].mean + 1e-9)
    assert not cm.structural_equal(a, b)
