import dataclasses
import json
import warnings

import numpy as np
import pytest

from cfspn import counterfactual as cf
from cfspn import data, grad, inference, training
from cfspn.data import FeatureColumn, FeatureMeta
from cfspn.structure import StructureConfig, build_circuit
from conftest import CategoricalLeaf, SumNode, from_nodes, two_gaussian_classifier


@pytest.fixture(scope="module")
def moons_model():
    ds = data.make_moons(600, 0.1, seed=7)
    train, test = data.split(ds, 0.7, seed=7)
    cfg = StructureConfig(num_classes=2, seed=7, repetitions=5,
                          sum_nodes_per_region=2,
                          leaf_distributions_per_region=8)
    tc = training.TrainConfig(epochs=25, seed=7, variance_floor=0.02)
    fitted, _ = training.fit(build_circuit(2, cfg), train, tc)
    return fitted, test


def source_queries(circuit, test, limit):
    preds = inference.predict(circuit, test.features)
    rows = np.flatnonzero(preds != 1)[:limit]
    return [(test.features[i], int(preds[i]), 1) for i in rows]


def test_two_step_analytic_one_dimensional():
    c = two_gaussian_classifier(mean0=-1.0, mean1=1.0, variance=0.25)
    cfg = cf.CfConfig(epsilon1=0.25, epsilon2=1e-3, grad_mode="log_density",
                      clip_to_unit=False)
    res = cf.generate(c, np.array([-1.0]), 0, 1, cfg)
    # log-ratio gradient is the constant 8, so u = -1 + 0.25 * 8 = 1.
    assert res.u[0] == pytest.approx(1.0, abs=1e-12)
    assert res.pred_x == 0
    assert res.pred_u == 1
    assert res.success
    assert res.grad_evals == 2
    assert len(res.elapsed) == 2
    assert res.iterations is None


def test_two_step_uses_exactly_two_gradient_evaluations(passes):
    c = two_gaussian_classifier()
    res = cf.generate(c, np.array([-1.0]), 0, 1,
                      cf.CfConfig(epsilon1=0.25, epsilon2=0.1,
                                  clip_to_unit=False))
    # two gradient sweeps, which also score x and u, and one forward at x'
    assert passes == {"forward": 3, "backward": 2}
    assert res.grad_evals == 2


def test_each_retry_adds_one_gradient_evaluation(passes):
    c = two_gaussian_classifier()
    x = np.array([-2.0])
    seen = []
    for eps1 in (0.05, 0.1, 0.2, 0.4):
        before = dict(passes)
        res = cf.generate(c, x, 0, 1,
                          cf.CfConfig(epsilon1=eps1, epsilon2=1e-6,
                                      clip_to_unit=False,
                                      retry_epsilon_schedule=True))
        retries = res.grad_evals - 2
        assert passes["backward"] - before["backward"] == 2 + retries
        assert passes["forward"] - before["forward"] == 3 + 2 * retries
        seen.append(retries)
    # u = -2 + 8 * factor * eps1 crosses the boundary at 0 once factor * eps1 > 0.25
    assert seen == [3, 2, 1, 0]


def assert_fields_match_inference(circuit, res):
    for point, pred, logdens in ((res.x, res.pred_x, res.logdens_x),
                                 (res.u, res.pred_u, res.logdens_u),
                                 (res.x_prime, res.pred_x_prime, res.logdens_x_prime)):
        assert np.array_equal(pred, inference.predict(circuit, point))
        assert np.array_equal(logdens, inference.log_density(circuit, point))
    assert res.success == (res.pred_x_prime == res.y_prime)


def test_result_fields_match_inference_at_x_u_and_x_prime(moons_model):
    circuit, test = moons_model
    for grad_mode in grad.GRAD_MODES:
        cfg = cf.CfConfig(epsilon1=0.1, epsilon2=0.01, grad_mode=grad_mode,
                          retry_epsilon_schedule=True)
        for x, y, y_prime in source_queries(circuit, test, 15):
            assert_fields_match_inference(circuit, cf.generate(circuit, x, y, y_prime, cfg))


def test_where_no_class_reaches_a_point_its_prediction_is_the_prior_one():
    # At x = 1 both class roots are -inf, so the posterior is the prior.
    c = from_nodes([CategoricalLeaf(0, np.array([1.0, 0.0])),
                    CategoricalLeaf(0, np.array([1.0, 0.0])),
                    SumNode((0,), np.zeros(1)), SumNode((1,), np.zeros(1))],
                   [2, 3], np.log([0.3, 0.7]), 1)
    queries = [(np.array([1.0]), 1, 0), (np.array([0.0]), 1, 0)]
    results = cf.run_queries(c, queries, "two_step", cf.CfConfig(clip_to_unit=False))
    for res in results:
        assert_fields_match_inference(c, res)
    assert results[0].pred_x_prime == 1 and results[0].logdens_x_prime == -np.inf


def test_clip_keeps_both_points_in_unit_box():
    c = two_gaussian_classifier()
    x = np.array([0.5])
    y = inference.predict(c, x)
    res = cf.generate(c, x, y, 1 - y, cf.CfConfig(epsilon1=1.0, epsilon2=0.5))
    assert res.u[0] == 0.0
    assert 0.0 <= res.x_prime[0] <= 1.0


def test_vanishing_steps_leave_query_unchanged():
    c = two_gaussian_classifier()
    x = np.array([-0.5])
    res = cf.generate(c, x, 0, 1,
                      cf.CfConfig(epsilon1=1e-9, epsilon2=1e-9,
                                  clip_to_unit=False))
    assert abs(res.x_prime[0] - x[0]) < 1e-6


def test_small_density_step_is_ascent(moons_model):
    circuit, test = moons_model
    queries = source_queries(circuit, test, 40)
    cfg = cf.CfConfig(epsilon1=0.1, epsilon2=1e-4, clip_to_unit=True)
    for x, y, y_prime in queries:
        res = cf.generate(circuit, x, y, y_prime, cfg)
        assert res.logdens_x_prime >= res.logdens_u - 1e-9


def test_log_density_mode_also_ascends(moons_model):
    circuit, test = moons_model
    queries = source_queries(circuit, test, 20)
    cfg = cf.CfConfig(epsilon1=0.1, epsilon2=1e-4,
                      grad_mode="log_density", clip_to_unit=True)
    for x, y, y_prime in queries:
        res = cf.generate(circuit, x, y, y_prime, cfg)
        assert res.logdens_x_prime >= res.logdens_u - 1e-9


def test_generate_warns_on_mislabeled_query():
    c = two_gaussian_classifier()
    x = np.array([-1.0])
    with pytest.warns(RuntimeWarning):
        cf.generate(c, x, 1, 0, cf.CfConfig(clip_to_unit=False))


def test_generate_rejects_bad_queries():
    c = two_gaussian_classifier()
    with pytest.raises(ValueError):
        cf.generate(c, np.array([0.0]), 0, 0)
    with pytest.raises(ValueError):
        cf.generate(c, np.array([0.0]), 0, 5)
    with pytest.raises(ValueError):
        cf.generate(c, np.array([np.nan]), 0, 1)
    with pytest.raises(ValueError):
        cf.generate(c, np.zeros(2), 0, 1)


def test_retry_schedule_recovers_a_short_first_step():
    c = two_gaussian_classifier()
    cfg = cf.CfConfig(epsilon1=0.05, epsilon2=1e-6, clip_to_unit=False,
                      retry_epsilon_schedule=True)
    res = cf.generate(c, np.array([-2.0]), 0, 1, cfg)
    # 0.05 * 8 = 0.4 falls short; the x8 retry reaches -2 + 3.2 = 1.2.
    assert res.success
    assert res.u[0] == pytest.approx(1.2, abs=1e-9)
    assert res.grad_evals == 5

    plain = cf.generate(c, np.array([-2.0]), 0, 1,
                        cf.CfConfig(epsilon1=0.05, epsilon2=1e-6,
                                    clip_to_unit=False))
    assert not plain.success
    assert plain.grad_evals == 2


def test_density_underflow_is_flagged_not_fatal():
    c = two_gaussian_classifier()
    res = cf.generate(c, np.array([50.0]), 1, 0,
                      cf.CfConfig(epsilon1=1e-3, epsilon2=1.0,
                                  clip_to_unit=False))
    assert res.density_underflow
    assert np.allclose(res.x_prime, res.u)


def test_wachter_reaches_target_without_penalty():
    c = two_gaussian_classifier()
    cfg = cf.BaselineConfig(lam=0.0, learning_rate=0.05, max_iters=500)
    res = cf.wachter_baseline(c, np.array([-1.0]), 1, cfg)
    assert res.success
    assert res.iterations < 500
    assert res.grad_evals == res.iterations
    assert np.array_equal(res.u, res.x_prime)
    assert len(res.elapsed) == 1


def test_wachter_update_rule_matches_hand_computation():
    c = two_gaussian_classifier()
    x = np.array([-1.0])
    lam, lr = 0.3, 0.05
    z = x.copy()
    for _ in range(2):
        g = grad.gradient(c, z, {1: 1.0}, density_weight=-1.0).values
        z = z + lr * (g - lam * np.sign(z - x))
    cfg = cf.BaselineConfig(lam=lam, learning_rate=lr, max_iters=2,
                            early_stop=False)
    res = cf.wachter_baseline(c, x, 1, cfg)
    assert res.x_prime[0] == pytest.approx(z[0], abs=1e-12)
    assert res.iterations == 2


def test_wachter_without_early_stop_runs_all_iterations():
    c = two_gaussian_classifier()
    cfg = cf.BaselineConfig(lam=0.0, learning_rate=0.05, max_iters=60,
                            early_stop=False)
    res = cf.wachter_baseline(c, np.array([-0.2]), 1, cfg)
    assert res.iterations == 60
    assert res.grad_evals == 60
    assert res.success


@pytest.mark.parametrize("early_stop", [True, False])
def test_wachter_makes_one_forward_pass_per_iteration(passes, early_stop):
    c = two_gaussian_classifier()
    cfg = cf.BaselineConfig(lam=0.0, learning_rate=0.05, max_iters=30,
                            early_stop=early_stop)
    res = cf.wachter_baseline(c, np.array([-1.0]), 1, cfg)
    # one gradient at x and one after each update, which also scores z
    assert res.success
    assert res.grad_evals == res.iterations
    assert passes["forward"] <= res.iterations + 1
    assert passes["backward"] <= res.iterations + 1
    assert (res.iterations < 30) == early_stop


@pytest.fixture(scope="module")
def three_class_model():
    """A 3-class model of three blobs, and 12 queries toward mixed targets:
    11 in the unit square and one so far out that its density underflows."""
    rng = np.random.default_rng(3)
    centers = np.array([[0.25, 0.3], [0.75, 0.3], [0.5, 0.75]])
    labels = rng.integers(0, 3, 300)
    X = np.clip(centers[labels] + rng.normal(0.0, 0.1, (300, 2)), 0.0, 1.0)
    cfg = StructureConfig(num_classes=3, seed=3, repetitions=3,
                          sum_nodes_per_region=2, leaf_distributions_per_region=4)
    fitted, _ = training.fit(build_circuit(2, cfg), data.Dataset(X, labels, 3, None),
                             training.TrainConfig(epochs=10, seed=3, variance_floor=0.01))
    Q = np.vstack([rng.uniform(0.0, 1.0, (11, 2)), [[40.0, -40.0]]])
    Y = inference.predict(fitted, Q)
    Y_prime = (Y + 1 + rng.integers(0, 2, len(Y))) % 3
    return fitted, list(zip(Q, Y.tolist(), Y_prime.tolist()))


def assert_same_results(batch, singles):
    """Results equal field by field, arrays bit for bit; ``elapsed`` is a
    share of the batch's seconds and only keeps its length."""
    assert len(batch) == len(singles)
    for a, b in zip(batch, singles):
        for field in dataclasses.fields(cf.CfResult):
            got, want = getattr(a, field.name), getattr(b, field.name)
            if field.name == "elapsed":
                assert len(got) == len(want)
            elif isinstance(want, np.ndarray):
                assert np.array_equal(got, want), field.name
            else:
                assert type(got) is type(want) and got == want, field.name


@pytest.mark.parametrize("grad_mode", grad.GRAD_MODES)
@pytest.mark.parametrize("clip_to_unit", [True, False])
@pytest.mark.parametrize("retry", [True, False])
def test_run_queries_equals_generate_one_by_one(three_class_model, grad_mode,
                                                clip_to_unit, retry):
    circuit, queries = three_class_model
    cfg = cf.CfConfig(epsilon1=0.03, epsilon2=0.01, grad_mode=grad_mode,
                      clip_to_unit=clip_to_unit, retry_epsilon_schedule=retry)
    singles = [cf.generate(circuit, *q, cfg) for q in queries]
    batch = cf.run_queries(circuit, queries, "two_step", cfg)
    assert_same_results(batch, singles)
    X, Y, Y_prime = (np.array(a) for a in zip(*queries))
    assert_same_results(cf.generate(circuit, X, Y, Y_prime, cfg), singles)
    # the set covers every source and target class, retries and underflow
    assert {r.y for r in singles} == {r.y_prime for r in singles} == {0, 1, 2}
    evals = {r.grad_evals for r in singles}
    assert evals == ({2, 3, 4, 5} if retry else {2})
    underflow = grad_mode == "density" and not clip_to_unit
    assert [r.density_underflow for r in singles] == [False] * 11 + [underflow]


def test_batched_wachter_equals_single_runs(moons_model):
    circuit, test = moons_model
    queries = source_queries(circuit, test, 15)
    cfg = cf.BaselineConfig(lam=0.1, learning_rate=3e-4, max_iters=40)
    singles = [cf.wachter_baseline(circuit, x, y_prime, cfg) for x, _, y_prime in queries]
    batch = cf.run_queries(circuit, queries, "wachter", baseline=cfg)
    assert_same_results(batch, singles)
    X = np.array([x for x, _, _ in queries])
    assert_same_results(cf.wachter_baseline(circuit, X, 1, cfg), singles)
    # rows stop at different iterations, and some never do
    iterations = [r.iterations for r in singles]
    assert len(set(iterations)) > 2 and max(iterations) == 40


def test_a_batch_costs_the_passes_of_one_query(passes):
    c = two_gaussian_classifier()
    queries = [(np.array([x]), 0, 1) for x in (-2.0, -1.0, -0.5, -0.2, -0.1)]
    results = cf.run_queries(c, queries, "two_step",
                             cf.CfConfig(epsilon1=0.25, epsilon2=0.1, clip_to_unit=False))
    assert passes == {"forward": 3, "backward": 2}
    assert [r.grad_evals for r in results] == [2] * 5
    results = cf.run_queries(c, queries, "wachter",
                             baseline=cf.BaselineConfig(max_iters=7, early_stop=False))
    assert passes == {"forward": 3 + 8, "backward": 2 + 8}
    assert [r.grad_evals for r in results] == [7] * 5


@pytest.mark.parametrize("density_weight", [0.0, -1.0, 1.0])
def test_per_row_class_weights_equal_per_row_calls(three_class_model, density_weight):
    circuit, _ = three_class_model
    # 300 rows make two column blocks, each of which reads its own weights
    rng = np.random.default_rng(5)
    X = rng.uniform(0.0, 1.0, (300, 2))
    W = rng.normal(0.0, 1.0, (len(X), 3))
    out = grad.gradient(circuit, X, W, density_weight)
    for x, w, g, values in zip(X, W, out.values, out.class_log_values):
        row = grad.gradient(circuit, x, dict(enumerate(w)), density_weight)
        assert np.array_equal(g, row.values)
        assert np.array_equal(values, row.class_log_values)
    with pytest.raises(ValueError, match="class weights of shape"):
        grad.gradient(circuit, X, W[:-1], density_weight)


#: Queries to the 2-variable, 3-class model that generate refuses, each for its own reason.
BAD_QUERIES = {"shape": (np.zeros(3), 0, 1),
               "non-finite": (np.array([0.5, np.inf]), 0, 1),
               "missing": (np.array([np.nan, 0.5]), 0, 1),
               "target": (np.array([0.5, 0.5]), 0, 3),
               "source": (np.array([0.5, 0.5]), -1, 1),
               "same": (np.array([0.5, 0.5]), 2, 2)}


@pytest.mark.parametrize("what", BAD_QUERIES)
def test_a_bad_query_in_a_set_raises_its_own_message(three_class_model, what):
    circuit, queries = three_class_model
    bad = BAD_QUERIES[what]
    with pytest.raises(ValueError) as alone:
        cf.generate(circuit, *bad)
    with pytest.raises(ValueError) as in_set:
        cf.run_queries(circuit, [queries[0], bad, queries[1]], "two_step")
    assert str(in_set.value) == str(alone.value)
    if what in ("shape", "non-finite", "missing", "target"):
        # the baseline reads no source class
        with pytest.raises(ValueError) as alone:
            cf.wachter_baseline(circuit, bad[0], bad[2])
        with pytest.raises(ValueError) as in_set:
            cf.run_queries(circuit, [queries[0], bad], "wachter")
        assert str(in_set.value) == str(alone.value)


@pytest.mark.parametrize("first, second", [("target", "missing"), ("shape", "same"),
                                           ("source", "non-finite")])
def test_a_set_with_two_bad_queries_raises_the_first_ones_message(three_class_model,
                                                                  first, second):
    circuit, queries = three_class_model
    with pytest.raises(ValueError) as alone:
        cf.generate(circuit, *BAD_QUERIES[first])
    with pytest.raises(ValueError) as in_set:
        cf.run_queries(circuit, [queries[0], BAD_QUERIES[first], queries[1],
                                 BAD_QUERIES[second]], "two_step")
    assert str(in_set.value) == str(alone.value)


def test_a_batch_with_per_row_targets_raises_its_first_bad_rows_message(three_class_model):
    circuit, _ = three_class_model
    X = np.full((4, 2), 0.5)
    X[3, 0] = np.nan
    # row 1 has the source class as its target, row 2 a target out of range,
    # row 3 a missing value; the set as a whole fails on the last first
    for targets, bad in (([1, 0, 3, 2], 1), ([1, 2, 3, 2], 2)):
        with pytest.raises(ValueError) as alone:
            cf.generate(circuit, X[bad], 0, targets[bad])
        with pytest.raises(ValueError) as in_set:
            cf.generate(circuit, X, 0, np.array(targets))
        assert str(in_set.value) == str(alone.value)
    with pytest.raises(ValueError) as alone:
        cf.wachter_baseline(circuit, X[2], 3)
    with pytest.raises(ValueError) as in_set:
        cf.wachter_baseline(circuit, X, [1, 0, 3, 2])
    assert str(in_set.value) == str(alone.value)


def test_classes_that_are_not_integers_are_refused(three_class_model):
    # a target of 1.9 is not class 1, nor True class 1
    circuit, queries = three_class_model
    x, y, _ = queries[0]
    target = (y + 1) % 3
    for bad in (target + 0.9, float(target), True):
        with pytest.raises(ValueError, match="is not an integer"):
            cf.generate(circuit, x, y, bad)
        with pytest.raises(ValueError, match="is not an integer"):
            cf.run_queries(circuit, [queries[1], (x, y, bad)])
        with pytest.raises(ValueError, match="is not an integer"):
            cf.wachter_baseline(circuit, x, bad)
    with pytest.raises(ValueError, match=f"source class {float(y)} is not an integer"):
        cf.generate(circuit, x, float(y), target)
    with pytest.raises(ValueError, match="target class 1.2 is not an integer"):
        cf.generate(circuit, np.stack([x, x]), 0, [1.2, 1.0])


def test_run_queries_results_keep_the_callers_points(three_class_model):
    circuit, queries = three_class_model
    for method in cf.METHODS:
        results = cf.run_queries(circuit, queries, method,
                                 baseline=cf.BaselineConfig(max_iters=3))
        assert all(r.x is x for r, (x, _, _) in zip(results, queries))
    # a point given as a list becomes an array of its own, not a row of the batch
    results = cf.run_queries(circuit, [(x.tolist(), y, y_prime)
                                       for x, y, y_prime in queries[:3]])
    assert all(r.x.base is None for r in results)


def test_each_mislabeled_row_warns_once(three_class_model):
    circuit, queries = three_class_model
    x, y, y_prime = queries[0]
    mislabeled = [(x, z, w) for z, w in ((y_prime, y), (3 - y - y_prime, y))]
    queries = [queries[1], mislabeled[0], queries[2], mislabeled[1]]
    with warnings.catch_warnings(record=True) as alone:
        warnings.simplefilter("always")
        for q in mislabeled:
            cf.generate(circuit, *q)
    with warnings.catch_warnings(record=True) as in_set:
        warnings.simplefilter("always")
        cf.run_queries(circuit, queries, "two_step")
    assert len(alone) == 2
    assert ([(w.category, str(w.message)) for w in in_set]
            == [(w.category, str(w.message)) for w in alone])
    assert all(w.category is RuntimeWarning for w in in_set)


def test_a_set_of_scalar_points_is_refused_as_each_one_is_alone():
    c = two_gaussian_classifier()
    with pytest.raises(ValueError) as alone:
        cf.generate(c, 0.5, 0, 1)
    for method in cf.METHODS:
        with pytest.raises(ValueError) as in_set:
            cf.run_queries(c, [(0.5, 0, 1)], method)
        assert str(in_set.value) == str(alone.value)


def test_run_queries_validates_method():
    c = two_gaussian_classifier()
    with pytest.raises(ValueError):
        cf.run_queries(c, [(np.array([-1.0]), 0, 1)], "dice")


def test_summarize_and_evaluate_reject_empty():
    with pytest.raises(ValueError):
        cf.summarize([])
    c = two_gaussian_classifier()
    with pytest.raises(ValueError, match="no results to summarize"):
        cf.summarize(cf.run_queries(c, [], "two_step"))


def test_summarize_aggregates_fields():
    c = two_gaussian_classifier()
    queries = [(np.array([-1.0]), 0, 1), (np.array([-0.5]), 0, 1)]
    results = cf.run_queries(c, queries, "two_step",
                             config=cf.CfConfig(epsilon1=0.25, epsilon2=0.01,
                                                clip_to_unit=False))
    m = cf.summarize(results)
    assert m.n == 2
    assert m.mean_grad_evals == 2.0
    assert 0.0 <= m.success_rate <= 1.0
    assert m.mean_time > 0


def test_metrics_record_is_json_ready():
    c = two_gaussian_classifier()
    cfg = cf.CfConfig(epsilon1=0.25, epsilon2=0.01, clip_to_unit=False)
    m = cf.summarize(cf.run_queries(c, [(np.array([-1.0]), 0, 1)], "two_step", config=cfg))
    record = cf.metrics_record(m, "two_step", "toy", cfg)
    text = json.dumps(record)
    assert record["method"] == "two_step"
    assert record["dataset"] == "toy"
    assert record["config"]["epsilon1"] == 0.25
    assert "mean_time_seconds" in text


def test_results_round_trip_through_jsonl(tmp_path):
    c = two_gaussian_classifier()
    queries = [(np.array([-1.0]), 0, 1), (np.array([-0.3]), 0, 1)]
    results = cf.run_queries(c, queries, "two_step",
                             config=cf.CfConfig(epsilon1=0.25, epsilon2=0.01,
                                                clip_to_unit=False))
    results += cf.run_queries(c, queries[:1], "wachter",
                              baseline=cf.BaselineConfig(max_iters=30))
    path = tmp_path / "results.jsonl"
    cf.save_results(path, results)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    for r, line in zip(results, lines):
        back, want = json.loads(line), r.to_dict()
        assert list(back) == list(want)
        for field in want:
            assert back[field] == want[field], field


def onehot_meta():
    columns = [
        FeatureColumn(name="color", kind="onehot", group=0, category="red"),
        FeatureColumn(name="color", kind="onehot", group=0, category="green"),
        FeatureColumn(name="color", kind="onehot", group=0, category="blue"),
        FeatureColumn(name="size", kind="continuous",
                      scaling_kind="minmax", scaling=(0.0, 1.0)),
    ]
    return FeatureMeta(columns=columns, label_name="y", classes=["0", "1"])


def fabricated_result(x, x_prime):
    x = np.asarray(x, dtype=np.float64)
    x_prime = np.asarray(x_prime, dtype=np.float64)
    return cf.CfResult(
        x=x, u=x_prime, x_prime=x_prime, y=0, y_prime=1,
        pred_x=0, pred_u=1, pred_x_prime=1,
        logdens_x=0.0, logdens_u=0.0, logdens_x_prime=0.0,
        elapsed=[0.0, 0.0], success=True)


def test_one_hot_consistency_measures_group_sums():
    meta = onehot_meta()
    results = [
        fabricated_result([1, 0, 0, 0.5], [0.5, 0.5, 0.0, 0.7]),
        fabricated_result([0, 1, 0, 0.2], [0.3, 1.0, 0.0, 0.2]),
    ]
    out = cf.one_hot_consistency(results, meta)
    assert out.groups == [0]
    assert out.sums.shape == (2, 1)
    assert out.sums[0, 0] == pytest.approx(0.0)
    assert out.sums[1, 0] == pytest.approx(0.3)
    assert out.median_abs_sum == pytest.approx(0.15)


def test_one_hot_consistency_needs_groups():
    ds = data.make_moons(10, 0.1, seed=0)
    results = [fabricated_result([0.5, 0.5], [0.6, 0.6])]
    with pytest.raises(ValueError):
        cf.one_hot_consistency(results, ds.meta)


def test_cf_config_validation():
    with pytest.raises(ValueError):
        cf.CfConfig(epsilon1=0.0)
    with pytest.raises(ValueError):
        cf.CfConfig(grad_mode="hessian")
    with pytest.raises(ValueError):
        cf.BaselineConfig(lam=-1.0)
    with pytest.raises(ValueError):
        cf.BaselineConfig(max_iters=0)


@pytest.mark.parametrize("cls, field", [
    (cf.CfConfig, "epsilon1"), (cf.CfConfig, "epsilon2"),
    (cf.BaselineConfig, "lam"), (cf.BaselineConfig, "learning_rate")])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_configs_reject_non_finite_step_sizes(cls, field, value):
    with pytest.raises(ValueError, match=field):
        cls(**{field: value})


@pytest.mark.parametrize("cls, field", [
    (cf.CfConfig, "epsilon1"), (cf.CfConfig, "epsilon2"),
    (cf.BaselineConfig, "lam"), (cf.BaselineConfig, "learning_rate")])
def test_config_step_sizes_are_real_numbers_kept_as_floats(cls, field):
    kept = cls(**{field: np.float32(0.5)}), cls(**{field: 2})
    assert [getattr(c, field) for c in kept] == [0.5, 2.0]
    assert all(type(getattr(c, field)) is float for c in kept)
    for bad in (True, np.bool_(True), "0.1", None):
        with pytest.raises(ValueError, match=f"{field} must be a finite number >=? 0, "
                                             f"got {bad!r}"):
            cls(**{field: bad})
