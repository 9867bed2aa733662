import dataclasses
import math

import numpy as np
import pytest

from cfspn import grad, inference
from conftest import random_circuit, two_gaussian_classifier


H = 1e-5


def central_fd(f, x, h=H):
    out = np.zeros_like(x)
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        out[j] = (f(xp) - f(xm)) / (2 * h)
    return out


def assert_close_to_fd(got, fd, rtol=1e-4):
    scale = max(np.linalg.norm(got), np.linalg.norm(fd), 1e-3)
    assert np.linalg.norm(got - fd) <= rtol * scale


def test_grad_log_ratio_matches_finite_differences(rng):
    for _ in range(10):
        c = random_circuit(rng, num_classes=2)
        x = rng.normal(0.5, 0.4, size=c.num_variables)
        got = grad.grad_log_ratio(c, x, 0, 1)
        fd = central_fd(lambda v: inference.class_log_density(c, 1, v)
                        - inference.class_log_density(c, 0, v), x)
        assert_close_to_fd(got, fd)


def test_grad_log_ratio_is_antisymmetric(rng):
    c = random_circuit(rng, num_classes=2)
    x = rng.normal(0.5, 0.4, size=c.num_variables)
    ab = grad.grad_log_ratio(c, x, 0, 1)
    ba = grad.grad_log_ratio(c, x, 1, 0)
    assert np.allclose(ab, -ba, atol=1e-12)


def test_grad_log_ratio_rejects_identical_classes(rng):
    c = random_circuit(rng, num_classes=2)
    x = rng.normal(0.5, 0.4, size=c.num_variables)
    with pytest.raises(ValueError):
        grad.grad_log_ratio(c, x, 1, 1)
    with pytest.raises(ValueError):
        grad.grad_log_ratio_batch(c, np.stack([x, x]), 1, 1)


def test_grad_log_ratio_shared_root_is_zero(rng):
    c = random_circuit(rng, num_classes=1)
    c = dataclasses.replace(c, class_roots=[c.class_roots[0]] * 2,
                            log_prior=np.log([0.5, 0.5]))
    x = rng.normal(0.5, 0.4, size=c.num_variables)
    assert np.array_equal(grad.grad_log_ratio(c, x, 0, 1),
                          np.zeros(c.num_variables))
    assert np.array_equal(grad.grad_log_ratio_batch(c, np.stack([x, x]), 0, 1),
                          np.zeros((2, c.num_variables)))


def test_grad_log_ratio_analytic_two_gaussians():
    c = two_gaussian_classifier(mean0=-1.0, mean1=1.0, variance=0.25)
    for x in (-1.0, 0.0, 0.7, 2.0):
        got = grad.grad_log_ratio(c, np.array([x]), 0, 1)
        assert got[0] == pytest.approx(8.0, abs=1e-12)


def test_grad_class_log_density_matches_finite_differences(rng):
    c = random_circuit(rng, num_classes=3)
    x = rng.normal(0.5, 0.4, size=c.num_variables)
    for y in range(3):
        got = grad.gradient(c, x, {y: 1.0}).values
        fd = central_fd(lambda v: inference.class_log_density(c, y, v), x)
        assert_close_to_fd(got, fd)


def test_grad_density_both_modes_match_finite_differences(rng):
    for _ in range(10):
        c = random_circuit(rng)
        x = rng.normal(0.5, 0.4, size=c.num_variables)
        dens = grad.grad_density(c, x, mode="density")
        fd = central_fd(lambda v: math.exp(inference.log_density(c, v)), x)
        assert_close_to_fd(dens.values, fd)
        assert not dens.underflow

        logd = grad.grad_density(c, x, mode="log_density")
        fd = central_fd(lambda v: inference.log_density(c, v), x)
        assert_close_to_fd(logd.values, fd)


def test_grad_density_identity_between_modes(rng):
    c = random_circuit(rng)
    x = rng.normal(0.5, 0.4, size=c.num_variables)
    dens = grad.grad_density(c, x, mode="density").values
    logd = grad.grad_density(c, x, mode="log_density").values
    scale = math.exp(inference.log_density(c, x))
    assert np.allclose(dens, scale * logd, rtol=1e-12, atol=1e-300)


def test_grad_density_flags_underflow():
    c = two_gaussian_classifier(mean0=0.0, mean1=0.0, variance=1e-4)
    out = grad.grad_density(c, np.array([1e6]), mode="density")
    assert out.underflow
    assert np.array_equal(out.values, np.zeros(1))
    # log mode keeps a usable direction at the same point
    logd = grad.grad_density(c, np.array([1e6]), mode="log_density")
    assert not logd.underflow
    assert logd.values[0] < 0


def test_grad_density_rejects_unknown_mode(rng):
    c = random_circuit(rng)
    with pytest.raises(ValueError):
        grad.grad_density(c, np.zeros(c.num_variables), mode="both")


def test_grad_rejects_missing_values(rng):
    c = random_circuit(rng, num_variables=3, num_classes=2)
    x = np.array([0.1, np.nan, 0.3])
    with pytest.raises(ValueError):
        grad.grad_log_ratio(c, x, 0, 1)
    with pytest.raises(ValueError):
        grad.grad_density(c, x)


def test_grad_log_posterior_matches_finite_differences(rng):
    for _ in range(5):
        c = random_circuit(rng, num_classes=3)
        x = rng.normal(0.5, 0.4, size=c.num_variables)
        got = grad.grad_log_posterior(c, x, 1)
        fd = central_fd(lambda v: inference.posterior(c, v)[1], x)
        assert_close_to_fd(got, fd)


def test_each_gradient_is_one_forward_and_one_backward_pass(rng, passes):
    c = random_circuit(rng, num_classes=3)
    x = rng.normal(0.5, 0.4, size=c.num_variables)
    X = rng.normal(0.5, 0.4, size=(4, c.num_variables))
    calls = [lambda: grad.grad_log_ratio(c, x, 0, 1),
             lambda: grad.grad_log_ratio_batch(c, X, 0, 2),
             lambda: grad.grad_density(c, x),
             lambda: grad.grad_density(c, x, "log_density"),
             lambda: grad.grad_log_density_batch(c, X),
             lambda: grad.grad_log_posterior(c, x, 1)]
    for k, call in enumerate(calls, start=1):
        call()
        assert passes == {"forward": k, "backward": k}


def test_gradient_returns_the_class_log_values_of_its_forward_pass(rng):
    c = random_circuit(rng, num_classes=3)
    X = rng.normal(0.5, 0.4, size=(5, c.num_variables))
    batch = grad.gradient(c, X, {0: 1.0}, density_weight=-0.5)
    assert np.array_equal(batch.class_log_values,
                          inference.class_log_densities(c, X))
    single = grad.grad_density(c, X[2], "log_density")
    assert np.array_equal(single.class_log_values,
                          inference.class_log_densities(c, X[2]))
    with pytest.raises(ValueError):
        grad.gradient(c, X, {3: 1.0})


def test_batch_gradients_match_per_row(rng):
    c = random_circuit(rng, num_classes=2)
    X = rng.normal(0.5, 0.4, size=(6, c.num_variables))
    batch = grad.grad_log_ratio_batch(c, X, 0, 1)
    assert batch.shape == X.shape
    for b in range(6):
        row = grad.grad_log_ratio(c, X[b], 0, 1)
        assert np.allclose(batch[b], row, atol=1e-12)

    batch = grad.grad_log_density_batch(c, X)
    for b in range(6):
        row = grad.grad_density(c, X[b], mode="log_density").values
        assert np.allclose(batch[b], row, atol=1e-12)

    dens = grad.grad_density(c, X)
    for b in range(6):
        row = grad.grad_density(c, X[b])
        assert np.allclose(dens.values[b], row.values, rtol=1e-12, atol=1e-300)
        assert dens.underflow[b] == row.underflow


@pytest.mark.parametrize("density_weight", [0.0, -1.0])
def test_batch_gradient_runs_in_chunks_and_equals_single_rows(rng, passes, density_weight):
    c = random_circuit(rng, num_variables=4, num_classes=3)
    X = rng.normal(0.5, 0.4, size=(600, 4))
    weights = {0: 1.0, 2: -0.5}
    batch = grad.gradient(c, X, weights, density_weight=density_weight)
    chunks = -(-600 // inference.CHUNK)
    assert passes == {"forward": chunks, "backward": chunks}
    for b in range(600):
        single = grad.gradient(c, X[b], weights, density_weight=density_weight)
        np.testing.assert_allclose(batch.values[b], single.values, rtol=1e-12, atol=0)
        np.testing.assert_allclose(batch.class_log_values[b], single.class_log_values,
                                   rtol=1e-12, atol=0)
