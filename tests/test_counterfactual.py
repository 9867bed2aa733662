import numpy as np
import pytest

from cfspn import counterfactual as cf
from cfspn import data, grad, inference, training
from cfspn.data import FeatureColumn, FeatureMeta
from cfspn.structure import StructureConfig, build_circuit
from conftest import two_gaussian_classifier


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


def test_result_fields_match_inference_at_x_u_and_x_prime(moons_model):
    circuit, test = moons_model
    for grad_mode in grad.GRAD_MODES:
        cfg = cf.CfConfig(epsilon1=0.1, epsilon2=0.01, grad_mode=grad_mode,
                          retry_epsilon_schedule=True)
        for x, y, y_prime in source_queries(circuit, test, 15):
            res = cf.generate(circuit, x, y, y_prime, cfg)
            for point, pred, logdens in ((res.x, res.pred_x, res.logdens_x),
                                         (res.u, res.pred_u, res.logdens_u),
                                         (res.x_prime, res.pred_x_prime,
                                          res.logdens_x_prime)):
                assert np.array_equal(pred, inference.predict(circuit, point))
                assert np.array_equal(logdens,
                                      inference.log_density(circuit, point))
            assert res.success == (res.pred_x_prime == y_prime)


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
        g = grad.grad_log_posterior(c, z, 1)
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


def test_run_queries_validates_method():
    c = two_gaussian_classifier()
    with pytest.raises(ValueError):
        cf.run_queries(c, [(np.array([-1.0]), 0, 1)], "dice")


def test_summarize_and_evaluate_reject_empty():
    with pytest.raises(ValueError):
        cf.summarize([])
    c = two_gaussian_classifier()
    with pytest.raises(ValueError):
        cf.evaluate(c, [], "two_step")


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
    import json
    c = two_gaussian_classifier()
    cfg = cf.CfConfig(epsilon1=0.25, epsilon2=0.01, clip_to_unit=False)
    m = cf.evaluate(c, [(np.array([-1.0]), 0, 1)], "two_step", config=cfg)
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
    back = cf.load_results(path)
    assert len(back) == 3
    for a, b in zip(results, back):
        assert np.allclose(a.x, b.x)
        assert np.allclose(a.x_prime, b.x_prime)
        assert a.success == b.success
        assert a.grad_evals == b.grad_evals
        assert a.iterations == b.iterations


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
