import dataclasses
import json

import numpy as np
import pytest
from scipy.special import logsumexp

from cfspn import circuit as cm
from cfspn import data, engine, inference, training
from cfspn.structure import StructureConfig, build_circuit
from conftest import GaussianLeaf, ProductNode, SumNode, from_nodes, nodes_of


def count_compiles(monkeypatch) -> list:
    """The circuits that CompiledCircuit is built for from now on."""
    built = []
    init = engine.CompiledCircuit.__init__

    def counting(self, circuit):
        built.append(circuit)
        init(self, circuit)

    monkeypatch.setattr(engine.CompiledCircuit, "__init__", counting)
    return built


def single_gaussian_circuit():
    cfg = StructureConfig(num_classes=1, leaf_distributions_per_region=1, seed=0)
    return build_circuit(1, cfg)


def test_train_config_rejects_bad_values():
    with pytest.raises(ValueError):
        training.TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        training.TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        training.TrainConfig(variance_floor=0.0)
    with pytest.raises(ValueError):
        training.TrainConfig(validation_fraction=1.0)
    with pytest.raises(TypeError):
        training.TrainConfig(optimizer="sgd")


def test_config_integers_accept_numpy_integers_and_refuse_the_rest():
    tc = training.TrainConfig(epochs=np.int64(3), batch_size=np.uint8(8))
    assert type(tc.epochs) is int and type(tc.batch_size) is int
    sc = StructureConfig(repetitions=np.int32(2), categorical_cardinalities=[2, np.int64(3)])
    assert type(sc.repetitions) is int and sc.categorical_cardinalities == (2, 3)
    for bad in (1.5, 2.0, "2", True, np.float64(2.0), np.bool_(True), None):
        with pytest.raises(ValueError, match="epochs must be an integer >= 1"):
            training.TrainConfig(epochs=bad)
        with pytest.raises(ValueError, match="depth must be an integer >= 1"):
            StructureConfig(depth=bad)
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
        training.TrainConfig(seed=-1)
    with pytest.raises(ValueError, match="categorical_cardinalities must be an integer"):
        StructureConfig(categorical_cardinalities=(2, 2.5))


def test_train_config_floats_are_finite_numbers():
    tc = training.TrainConfig(learning_rate=np.float32(0.5), variance_floor=1,
                              validation_fraction=np.int64(0))
    assert (tc.learning_rate, tc.variance_floor, tc.validation_fraction) == (0.5, 1.0, 0.0)
    assert all(type(v) is float for v in (tc.learning_rate, tc.variance_floor,
                                          tc.validation_fraction))
    for bad in (True, np.bool_(True), "0.1", None, float("nan"), float("inf"), 10 ** 400):
        for name in ("learning_rate", "variance_floor", "validation_fraction"):
            with pytest.raises(ValueError, match=f"{name} must be a finite number"):
                training.TrainConfig(**{name: bad})
    with pytest.raises(ValueError, match="validation_fraction must be a finite number "
                                         ">= 0 and < 1, got 1.0"):
        training.TrainConfig(validation_fraction=1.0)


def test_single_gaussian_reaches_closed_form_mle():
    # MLE for data {0, 2}: mean 1, population variance 1.
    features = np.array([[0.0], [2.0]] * 64)
    dataset = data.Dataset(features, np.zeros(128, dtype=np.int64), 1)
    cfg = training.TrainConfig(epochs=400, batch_size=128, seed=0,
                               validation_fraction=0.0, patience=0)
    fitted, report = training.fit(single_gaussian_circuit(), dataset, cfg)
    assert fitted.mean[0] == pytest.approx(1.0, abs=1e-3)
    assert fitted.variance[0] == pytest.approx(1.0, abs=1e-2)
    assert report.epochs_run == 400


def test_fit_returns_copy_and_keeps_input_circuit():
    features = np.array([[0.0], [2.0]] * 8)
    dataset = data.Dataset(features, np.zeros(16, dtype=np.int64), 1)
    base = single_gaussian_circuit()
    before = base.mean.copy()
    fitted, _ = training.fit(base, dataset, training.TrainConfig(epochs=2))
    assert np.array_equal(base.mean, before)
    assert fitted is not base


def test_fit_is_deterministic():
    ds = data.make_moons(300, 0.1, seed=3)
    cfg = StructureConfig(num_classes=2, seed=3, repetitions=3,
                          sum_nodes_per_region=2,
                          leaf_distributions_per_region=4)
    tc = training.TrainConfig(epochs=8, seed=3)
    a, _ = training.fit(build_circuit(2, cfg), ds, tc)
    b, _ = training.fit(build_circuit(2, cfg), ds, tc)
    assert cm.structural_equal(a, b)


def test_two_gaussian_classes_learn_separation():
    rng = np.random.default_rng(0)
    X = np.concatenate([rng.normal(-1.0, 0.3, 300),
                        rng.normal(1.0, 0.3, 300)])[:, None]
    labels = np.repeat([0, 1], 300)
    dataset = data.Dataset(X, labels, 2)
    cfg = StructureConfig(num_classes=2, seed=0,
                          leaf_distributions_per_region=3)
    tc = training.TrainConfig(epochs=60, seed=0)
    fitted, _ = training.fit(build_circuit(1, cfg), dataset, tc)
    assert inference.accuracy(fitted, X, labels) >= 0.95


def test_training_improves_log_likelihood():
    ds = data.make_moons(400, 0.1, seed=1)
    cfg = StructureConfig(num_classes=2, seed=1, repetitions=4,
                          sum_nodes_per_region=2,
                          leaf_distributions_per_region=5)
    tc = training.TrainConfig(epochs=15, seed=1)
    fitted, report = training.fit(build_circuit(2, cfg), ds, tc)
    lls = report.train_log_likelihood
    assert len(lls) == report.epochs_run
    assert lls[-1] > lls[0]


def test_report_serializes_to_json():
    features = np.array([[0.0], [2.0]] * 8)
    dataset = data.Dataset(features, np.zeros(16, dtype=np.int64), 1)
    _, report = training.fit(single_gaussian_circuit(), dataset,
                             training.TrainConfig(epochs=3))
    text = json.dumps(report.to_dict())
    assert "train_log_likelihood" in text


def test_variance_floor_is_respected():
    rng = np.random.default_rng(0)
    X = rng.normal(0.5, 0.01, size=(200, 2))
    dataset = data.Dataset(X, np.zeros(200, dtype=np.int64), 1)
    cfg = StructureConfig(num_classes=1, seed=0, repetitions=2,
                          sum_nodes_per_region=2,
                          leaf_distributions_per_region=3)
    tc = training.TrainConfig(epochs=30, seed=0, variance_floor=0.05)
    fitted, _ = training.fit(build_circuit(2, cfg), dataset, tc)
    assert np.all(fitted.variance >= 0.05 - 1e-12)


def test_sum_weights_stay_normalized_after_training():
    ds = data.make_moons(300, 0.1, seed=2)
    cfg = StructureConfig(num_classes=2, seed=2, repetitions=3,
                          sum_nodes_per_region=2,
                          leaf_distributions_per_region=4)
    base = build_circuit(2, cfg)
    fitted, _ = training.fit(base, ds, training.TrainConfig(epochs=10, seed=2))
    cm.validate(fitted)  # raises on any violation
    # the structure is shared; the trained parameters are new arrays
    for name in ("kind", "variable", "ptr", "ids"):
        assert getattr(fitted, name) is getattr(base, name)
    for name in ("log_weights", "mean", "variance"):
        assert getattr(fitted, name) is not getattr(base, name)


def test_empirical_prior_matches_label_frequencies():
    rng = np.random.default_rng(4)
    X = rng.random((100, 2))
    labels = np.array([0] * 75 + [1] * 25)
    dataset = data.Dataset(X, labels, 2)
    cfg = StructureConfig(num_classes=2, seed=4, repetitions=2,
                          sum_nodes_per_region=2,
                          leaf_distributions_per_region=2)
    tc = training.TrainConfig(epochs=2, seed=4, validation_fraction=0.0)
    fitted, _ = training.fit(build_circuit(2, cfg), dataset, tc)
    assert np.allclose(np.exp(fitted.log_prior), [0.75, 0.25], atol=1e-12)


def test_early_stopping_returns_best_parameters():
    ds = data.make_moons(300, 0.1, seed=5)
    cfg = StructureConfig(num_classes=2, seed=5, repetitions=3,
                          sum_nodes_per_region=2,
                          leaf_distributions_per_region=4)
    tc = training.TrainConfig(epochs=100, seed=5, patience=3,
                              validation_fraction=0.2)
    fitted, report = training.fit(build_circuit(2, cfg), ds, tc)
    assert report.validation_log_likelihood is not None
    # this config stops early, so the parameters returned are an earlier epoch's
    assert report.converged
    assert report.epochs_run < 100
    # fit holds out the first n_val rows of its seeded permutation
    n = len(ds)
    held = np.random.default_rng(tc.seed).permutation(n)[:int(round(0.2 * n))]
    assert report.validation_log_likelihood == training.mean_joint_log_likelihood(
        fitted, ds.features[held], ds.labels[held])


def test_adam_step_on_mixed_fan_in_sums_matches_per_node_update():
    # Sums 5 (fan-in 2) and 6 (fan-in 3) sit at one level in buckets of
    # their own; the roots 7 and 8 share a third.
    leaves = [GaussianLeaf(0, m, 1.0) for m in (-1.0, 0.0, 1.0, 2.0, 3.0)]
    nodes = leaves + [
        SumNode([0, 1], np.log([0.3, 0.7])),
        SumNode([2, 3, 4], np.log([0.2, 0.3, 0.5])),
        SumNode([5, 6], np.log([0.4, 0.6])),
        SumNode([5, 6], np.log([0.5, 0.5])),
    ]
    circuit = from_nodes(nodes, class_roots=[7, 8],
                         log_prior=cm.uniform_log_weights(2), num_variables=1)
    comp = engine.CompiledCircuit(circuit)

    rng = np.random.default_rng(0)
    X = rng.normal(1.0, 1.5, size=(40, 1))
    labels = np.repeat([0, 1], 20)
    lr = 0.5
    tc = training.TrainConfig(learning_rate=lr, epochs=1, batch_size=64,
                              validation_fraction=0.0, patience=0,
                              init_from_data=False)
    fitted, _ = training.fit(circuit, data.Dataset(X, labels, 2), tc)

    V = comp.forward(X)
    seeds = {7: (labels == 0) / 40.0, 8: (labels == 1) / 40.0}
    back = comp.backward(V, X, seeds, want_input=False, want_params=True)
    grads = comp.per_sum_node(back.sum_log_weight_grads)
    for i in (5, 6, 7, 8):
        lw = nodes_of(circuit)[i].log_weights
        g = grads[i] - np.exp(lw) * grads[i].sum()
        # Adam's bias-corrected first step is g / (|g| + eps) per parameter
        theta = lw + lr * g / (np.abs(g) + 1e-8)
        got = nodes_of(fitted)[i].log_weights
        assert got.shape == (len(nodes_of(circuit)[i].children),)
        assert not np.any(np.isnan(got))
        assert np.allclose(got, theta - logsumexp(theta), rtol=0, atol=1e-12)
        assert not np.allclose(got, lw, rtol=0, atol=1e-6)


def test_adam_directions_equal_the_plain_formula_bit_for_bit():
    shapes = [(3, 7), (5,), (2, 4, 6), (1,)]
    adam = training._Adam(shapes)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = [np.zeros(shape) for shape in shapes]
    v = [np.zeros(shape) for shape in shapes]
    rng = np.random.default_rng(0)
    for t in range(1, 6):
        grads = [rng.normal(0.0, 10.0 ** rng.integers(-6, 3), size=shape) for shape in shapes]
        got = adam.directions(grads)
        for i, g in enumerate(grads):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
            m_hat = m[i] / (1.0 - beta1 ** t)
            v_hat = v[i] / (1.0 - beta2 ** t)
            assert np.array_equal(got[i], m_hat / (np.sqrt(v_hat) + eps))


def test_patience_zero_disables_early_stopping():
    ds = data.make_moons(200, 0.1, seed=6)
    cfg = StructureConfig(num_classes=2, seed=6, repetitions=2,
                          sum_nodes_per_region=2,
                          leaf_distributions_per_region=3)
    tc = training.TrainConfig(epochs=12, seed=6, patience=0)
    _, report = training.fit(build_circuit(2, cfg), ds, tc)
    assert report.epochs_run == 12
    assert not report.converged


def test_fit_rejects_bad_inputs():
    ds = data.make_moons(100, 0.1, seed=0)
    cfg = StructureConfig(num_classes=2, seed=0, repetitions=2,
                          sum_nodes_per_region=2,
                          leaf_distributions_per_region=2)
    c = build_circuit(2, cfg)
    tc = training.TrainConfig(epochs=1)

    empty = data.Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 2)
    with pytest.raises(ValueError):
        training.fit(c, empty, tc)

    # out-of-range labels never get as far as fit
    with pytest.raises(ValueError):
        data.Dataset(ds.features, np.full(len(ds), 7), 2)

    narrow = build_circuit(3, StructureConfig(num_classes=2, seed=0,
                                              repetitions=2,
                                              sum_nodes_per_region=2,
                                              leaf_distributions_per_region=2))
    with pytest.raises(ValueError):
        training.fit(narrow, ds, tc)


def test_zero_probability_training_row_is_a_non_finite_loss():
    # The second row, x0 = 1e200, is so far from every leaf on x0 that class 0
    # gives it probability 0: (x0 - c)^2 overflows to inf.  Left to the data,
    # the leaves would move there, hence init_from_data=False; and the BLAS
    # kernels may flag an invalid value on the way, hence the errstate.
    # (Categorical leaves with a zero probability cannot be fit at all.)
    nodes = [GaussianLeaf(0, 0.0, 1.0), GaussianLeaf(0, 1.0, 1.0),
             GaussianLeaf(1, 0.2, 0.3), GaussianLeaf(1, 0.7, 0.2),
             ProductNode([0, 2]), ProductNode([0, 3]), ProductNode([1, 2]),
             SumNode([4, 5], np.log([0.5, 0.5]))]
    c = from_nodes(nodes, class_roots=[7, 6], log_prior=cm.uniform_log_weights(2),
                   num_variables=2)
    ds = data.Dataset(np.array([[1.0, 0.3], [1e200, 0.4], [1.0, 0.6]]), [0, 0, 1], 2)
    tc = training.TrainConfig(epochs=2, validation_fraction=0.0, patience=0,
                              init_from_data=False)
    with (np.errstate(over="ignore", invalid="ignore"),
          pytest.raises(ValueError, match=r"^non-finite loss in epoch 0, batch 0$")):
        training.fit(c, ds, tc)


def test_fit_refuses_categorical_leaves():
    # fit trains no categorical probabilities: it would return them as they
    # came in, with every other parameter fit around them.
    cfg = StructureConfig(num_classes=2, seed=0, repetitions=2, sum_nodes_per_region=2,
                          leaf_distributions_per_region=2, leaf_family="categorical",
                          categorical_cardinalities=(3, 3))
    rng = np.random.default_rng(0)
    ds = data.Dataset(rng.integers(0, 3, size=(40, 2)).astype(float),
                      np.repeat([0, 1], 20), 2)
    with pytest.raises(ValueError, match="cannot train categorical leaves"):
        training.fit(build_circuit(2, cfg), ds, training.TrainConfig(epochs=1))


def test_mean_joint_log_likelihood_matches_manual():
    ds = data.make_moons(50, 0.1, seed=0)
    cfg = StructureConfig(num_classes=2, seed=0, repetitions=2,
                          sum_nodes_per_region=2,
                          leaf_distributions_per_region=2)
    c = build_circuit(2, cfg)
    got = training.mean_joint_log_likelihood(c, ds.features, ds.labels)
    manual = np.mean([
        inference.class_log_densities(c, x)[y] + c.log_prior[y]
        for x, y in zip(ds.features, ds.labels)])
    assert got == pytest.approx(manual, abs=1e-10)
    # label -1 is not the last class, and every row needs its own label
    labels = ds.labels.copy()
    labels[3] = -1
    with pytest.raises(ValueError, match=r"label -1 out of range \[0, 2\)"):
        training.mean_joint_log_likelihood(c, ds.features, labels)
    with pytest.raises(ValueError, match=r"label values of shape \(49,\) do not match 50 rows"):
        training.mean_joint_log_likelihood(c, ds.features, ds.labels[1:])


def test_a_structure_is_checked_and_lowered_once(monkeypatch, tmp_path, structure_counts):
    checked, lowered = structure_counts
    ds = data.make_moons(200, 0.1, seed=3)
    circuit = build_circuit(2, StructureConfig(num_classes=2, seed=3, repetitions=2,
                                               sum_nodes_per_region=2,
                                               leaf_distributions_per_region=3))
    built = count_compiles(monkeypatch)
    fitted, _ = training.fit(circuit, ds, training.TrainConfig(epochs=3, seed=3))
    # fits with other settings on other rows of the same circuit compile it
    # no more, and each fitted circuit comes compiled
    refits = [training.fit(circuit, ds.subset(np.arange(k, 200, 3)),
                           training.TrainConfig(epochs=2, seed=3, patience=p))[0]
              for k, p in ((0, 10), (1, 0))]
    moved = dataclasses.replace(fitted, mean=fitted.mean + 0.01)
    for c in (circuit, fitted, *refits, moved):
        inference.accuracy(c, ds.features, ds.labels)
        assert c.structure is circuit.structure
    assert built == [circuit, moved]
    assert checked == lowered == [circuit.structure]
    # a loaded model is a new structure, checked and lowered once
    cm.save(fitted, tmp_path / "model.json")
    loaded = cm.load(tmp_path / "model.json")
    inference.accuracy(loaded, ds.features, ds.labels)
    assert checked == lowered == [circuit.structure, loaded.structure]


def test_fitted_circuit_comes_compiled_as_a_fresh_compile_would(monkeypatch):
    ds = data.make_moons(200, 0.1, seed=3)
    circuit = build_circuit(2, StructureConfig(num_classes=2, seed=3, repetitions=2,
                                               sum_nodes_per_region=2,
                                               leaf_distributions_per_region=3))
    built = count_compiles(monkeypatch)
    fitted, _ = training.fit(circuit, ds, training.TrainConfig(epochs=3, seed=3))
    inference.accuracy(fitted, ds.features, ds.labels)
    assert built == [circuit]
    handed = engine.compile_circuit(fitted)
    assert built == [circuit]
    assert cm.structural_equal(handed.to_circuit(fitted.log_prior), fitted)
    fresh = engine.CompiledCircuit(fitted)
    X = np.vstack([ds.features[:40], [[np.nan, 0.5]]])
    seeds = np.random.default_rng(3).normal(size=(X.shape[0], 2))
    (values, back), (fresh_values, fresh_back) = (
        c.evaluate(X, lambda v, rows: seeds[rows], want_params=True)
        for c in (handed, fresh))
    assert np.array_equal(values, fresh_values)
    for f in dataclasses.fields(back):
        got, want = getattr(back, f.name), getattr(fresh_back, f.name)
        if isinstance(got, list):
            assert all(map(np.array_equal, got, want)) and len(got) == len(want)
        else:
            assert np.array_equal(got, want)
