import json

import numpy as np
import pytest
from scipy.special import logsumexp

from cfspn import circuit as cm
from cfspn import data, engine, inference, training
from cfspn.structure import StructureConfig, build_circuit


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


def test_single_gaussian_reaches_closed_form_mle():
    # MLE for data {0, 2}: mean 1, population variance 1.
    features = np.array([[0.0], [2.0]] * 64)
    dataset = data.Dataset(features, np.zeros(128, dtype=np.int64), 1)
    cfg = training.TrainConfig(epochs=400, batch_size=128, seed=0,
                               validation_fraction=0.0, patience=0)
    fitted, report = training.fit(single_gaussian_circuit(), dataset, cfg)
    leaf = next(n for n in fitted.nodes if n.kind == "gaussian")
    assert leaf.mean == pytest.approx(1.0, abs=1e-3)
    assert leaf.variance == pytest.approx(1.0, abs=1e-2)
    assert report.epochs_run == 400


def test_fit_returns_copy_and_keeps_input_circuit():
    features = np.array([[0.0], [2.0]] * 8)
    dataset = data.Dataset(features, np.zeros(16, dtype=np.int64), 1)
    base = single_gaussian_circuit()
    before = [n.mean for n in base.nodes if n.kind == "gaussian"]
    fitted, _ = training.fit(base, dataset, training.TrainConfig(epochs=2))
    after = [n.mean for n in base.nodes if n.kind == "gaussian"]
    assert before == after
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
    for node in fitted.nodes:
        if node.kind == "gaussian":
            assert node.variance >= 0.05 - 1e-12


def test_sum_weights_stay_normalized_after_training():
    ds = data.make_moons(300, 0.1, seed=2)
    cfg = StructureConfig(num_classes=2, seed=2, repetitions=3,
                          sum_nodes_per_region=2,
                          leaf_distributions_per_region=4)
    base = build_circuit(2, cfg)
    fitted, _ = training.fit(base, ds, training.TrainConfig(epochs=10, seed=2))
    report = cm.validate(fitted)
    assert report.ok, report.summary()
    for new, old in zip(fitted.nodes, base.nodes):
        assert (new is old) == (old.kind == "product")


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


def test_early_stopping_restores_best_snapshot():
    ds = data.make_moons(300, 0.1, seed=5)
    cfg = StructureConfig(num_classes=2, seed=5, repetitions=3,
                          sum_nodes_per_region=2,
                          leaf_distributions_per_region=4)
    tc = training.TrainConfig(epochs=100, seed=5, patience=3,
                              validation_fraction=0.2)
    fitted, report = training.fit(build_circuit(2, cfg), ds, tc)
    assert report.validation_log_likelihood is not None
    if report.converged:
        assert report.epochs_run < 100
    # fit holds out the first n_val rows of its seeded permutation
    n = len(ds)
    held = np.random.default_rng(tc.seed).permutation(n)[:int(round(0.2 * n))]
    assert report.validation_log_likelihood == training.mean_joint_log_likelihood(
        fitted, ds.features[held], ds.labels[held])


def test_adam_step_on_mixed_fan_in_sums_matches_per_node_update():
    # Sums 5 (fan-in 2) and 6 (fan-in 3) sit at one level in buckets of
    # their own; the roots 7 and 8 share a third.
    leaves = [cm.GaussianLeaf(0, m, 1.0) for m in (-1.0, 0.0, 1.0, 2.0, 3.0)]
    nodes = leaves + [
        cm.SumNode([0, 1], np.log([0.3, 0.7])),
        cm.SumNode([2, 3, 4], np.log([0.2, 0.3, 0.5])),
        cm.SumNode([5, 6], np.log([0.4, 0.6])),
        cm.SumNode([5, 6], np.log([0.5, 0.5])),
    ]
    circuit = cm.Circuit(nodes, class_roots=[7, 8],
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
        lw = circuit.nodes[i].log_weights
        g = grads[i] - np.exp(lw) * grads[i].sum()
        # Adam's bias-corrected first step is g / (|g| + eps) per parameter
        theta = lw + lr * g / (np.abs(g) + 1e-8)
        got = fitted.nodes[i].log_weights
        assert got.shape == (len(circuit.nodes[i].children),)
        assert not np.any(np.isnan(got))
        assert np.allclose(got, theta - logsumexp(theta), rtol=0, atol=1e-12)
        assert not np.allclose(got, lw, rtol=0, atol=1e-6)


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


def test_mean_joint_log_likelihood_matches_manual():
    ds = data.make_moons(50, 0.1, seed=0)
    cfg = StructureConfig(num_classes=2, seed=0, repetitions=2,
                          sum_nodes_per_region=2,
                          leaf_distributions_per_region=2)
    c = build_circuit(2, cfg)
    got = training.mean_joint_log_likelihood(c, ds.features, ds.labels)
    manual = np.mean([
        inference.class_log_density(c, int(y), x) + c.log_prior[int(y)]
        for x, y in zip(ds.features, ds.labels)])
    assert got == pytest.approx(manual, abs=1e-10)


def test_cross_validate_prefers_reasonable_variance_floor():
    ds = data.make_moons(240, 0.1, seed=8)
    structures = [StructureConfig(num_classes=2, seed=8, repetitions=2,
                                  sum_nodes_per_region=2,
                                  leaf_distributions_per_region=3)]
    trains = [training.TrainConfig(epochs=6, seed=8, variance_floor=10.0),
              training.TrainConfig(epochs=6, seed=8, variance_floor=1e-3)]
    out = training.cross_validate(ds, structures, trains, folds=2, seed=8)
    assert len(out.results) == 2
    assert out.best.train.variance_floor == 1e-3
    assert out.best.mean_validation_ll == max(r.mean_validation_ll
                                              for r in out.results)
    for point in out.results:
        assert len(point.fold_lls) == 2


def test_cross_validate_rejects_bad_arguments():
    ds = data.make_moons(40, 0.1, seed=0)
    s = [StructureConfig(num_classes=2, seed=0, repetitions=2,
                         sum_nodes_per_region=2,
                         leaf_distributions_per_region=2)]
    t = [training.TrainConfig(epochs=1)]
    with pytest.raises(ValueError):
        training.cross_validate(ds, s, t, folds=1)
    with pytest.raises(ValueError):
        training.cross_validate(ds, [], t, folds=2)
    with pytest.raises(ValueError):
        training.cross_validate(ds, s, [], folds=2)
