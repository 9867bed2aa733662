import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfspn import circuit as cm
from cfspn import inference
from conftest import (naive_class_log_density, random_circuit,
                      two_gaussian_classifier)


def test_none_in_evidence_is_missing(rng):
    # a None in a list is read as NaN, a marginalized variable
    c = random_circuit(rng, num_variables=3)
    x = np.array([0.5, np.nan, 1.0])
    assert inference.log_density(c, [0.5, None, 1.0]) == inference.log_density(c, x)
    assert np.array_equal(inference.class_log_densities(c, [[0.5, None, 1.0]]),
                          inference.class_log_densities(c, x[None]))


def test_class_log_density_matches_naive(rng):
    for _ in range(10):
        c = random_circuit(rng)
        x = rng.normal(0.5, 0.5, size=c.num_variables)
        for y in range(c.num_classes):
            assert inference.class_log_densities(c, x)[y] == pytest.approx(
                naive_class_log_density(c, y, x), abs=1e-10)


def test_log_density_is_prior_mixture(rng):
    c = random_circuit(rng, num_classes=3)
    x = rng.normal(0.5, 0.5, size=c.num_variables)
    joint = c.log_prior + inference.class_log_densities(c, x)
    top = max(joint)
    expected = top + math.log(sum(math.exp(v - top) for v in joint))
    assert inference.log_density(c, x) == pytest.approx(expected, abs=1e-12)


def test_posterior_sums_to_one(rng):
    for _ in range(10):
        c = random_circuit(rng)
        X = rng.normal(0.5, 0.5, size=(5, c.num_variables))
        post = inference.posterior(c, X)
        assert post.shape == (5, c.num_classes)
        assert np.allclose(np.exp(post).sum(axis=1), 1.0, atol=1e-12)
        assert (post <= 0).all()


def test_posterior_matches_bayes_rule(rng):
    c = random_circuit(rng, num_classes=2)
    x = rng.normal(0.5, 0.5, size=c.num_variables)
    post = inference.posterior(c, x)
    joint = c.log_prior + inference.class_log_densities(c, x)
    expected = joint - inference.log_density(c, x)
    assert np.allclose(post, expected, atol=1e-12)


def test_uniform_prior_identity(rng):
    for _ in range(20):
        c = dataclasses.replace(random_circuit(rng, num_classes=2),
                                log_prior=cm.uniform_log_weights(2))
        x = rng.normal(0.5, 0.5, size=c.num_variables)
        post = inference.posterior(c, x)
        post_ratio = post[1] - post[0]
        cond = inference.class_log_densities(c, x)
        cond_ratio = cond[1] - cond[0]
        assert post_ratio == pytest.approx(cond_ratio, abs=1e-12)


def test_posterior_analytic_two_gaussians():
    c = two_gaussian_classifier(mean0=-1.0, mean1=1.0, variance=0.25)
    post = inference.posterior(c, np.array([1.0]))
    # log ratio = (distance of means) * (x - midpoint) / variance = 8
    assert math.exp(post[1]) == pytest.approx(1.0 / (1.0 + math.exp(-8.0)), abs=1e-12)


def test_predict_takes_argmax_and_breaks_ties_low():
    c = two_gaussian_classifier(mean0=-1.0, mean1=1.0, variance=0.25)
    X = np.array([[-2.0], [2.0], [0.0]])
    pred = inference.predict(c, X)
    assert pred.tolist() == [0, 1, 0]


def test_accuracy_counts_matches():
    c = two_gaussian_classifier(mean0=-1.0, mean1=1.0, variance=0.25)
    X = np.array([[-1.5], [-0.5], [0.5], [1.5]])
    labels = np.array([0, 0, 0, 1])
    assert inference.accuracy(c, X, labels) == pytest.approx(0.75)
    # one label is not a label for every row, and -1 is not the last class
    for bad in ([1], [0, 0, 0, -1]):
        with pytest.raises(ValueError, match="label"):
            inference.accuracy(c, X, bad)
    with pytest.raises(ValueError, match="no rows to score"):
        inference.accuracy(c, X[:0], [])


def test_bernoulli_marginal_is_exact_sum(rng):
    c = random_circuit(rng, num_variables=4, leaf_family="bernoulli",
                       num_classes=2)
    x = np.array([1.0, np.nan, 0.0, 1.0])
    marginal = inference.class_log_densities(c, x)[0]
    total = 0.0
    for v in (0.0, 1.0):
        filled = x.copy()
        filled[1] = v
        total += math.exp(inference.class_log_densities(c, filled)[0])
    assert marginal == pytest.approx(math.log(total), abs=1e-10)


def test_gaussian_marginal_matches_quadrature(rng):
    c = random_circuit(rng, num_variables=3, num_classes=1)
    x = np.array([0.4, np.nan, 0.6])
    marginal = inference.class_log_densities(c, x)[0]
    grid = np.linspace(-8.0, 9.0, 2001)
    filled = np.tile(x, (grid.size, 1))
    filled[:, 1] = grid
    dens = np.exp([inference.class_log_densities(c, row)[0] for row in filled])
    # np.trapezoid is new in numpy 2.0; numpy 2.4 has removed np.trapz.
    trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
    assert marginal == pytest.approx(math.log(trapezoid(dens, grid)), abs=1e-3)


def test_all_missing_log_density_is_exactly_zero(rng):
    # log_density zeroes an all-missing row itself: from class-root values of
    # exactly 0, the mixture under the prior log [0.3, 0.7] is -1.1e-16
    uneven = dataclasses.replace(two_gaussian_classifier(), log_prior=np.log([0.3, 0.7]))
    assert cm.logsumexp(uneven.log_prior) != 0.0
    for c in [random_circuit(rng) for _ in range(5)] + [uneven]:
        x = np.full(c.num_variables, np.nan)
        assert inference.log_density(c, x) == 0.0


def test_all_missing_posterior_is_prior(rng):
    c = random_circuit(rng, num_classes=3)
    x = np.full(c.num_variables, np.nan)
    post = inference.posterior(c, x)
    assert np.allclose(np.exp(post), np.exp(c.log_prior), atol=1e-12)


def test_infinite_evidence_is_rejected(rng):
    c = random_circuit(rng)
    x = np.zeros(c.num_variables)
    x[0] = np.inf
    with pytest.raises(ValueError):
        inference.log_density(c, x)


def test_wrong_width_is_rejected(rng):
    c = random_circuit(rng, num_variables=4)
    with pytest.raises(ValueError):
        inference.log_density(c, np.zeros(3))


def test_large_batches_match_per_row(rng):
    c = random_circuit(rng, num_variables=3)
    X = rng.normal(0.5, 0.5, size=(600, 3))
    batched = inference.log_density(c, X)
    singles = np.array([inference.log_density(c, row) for row in X[:10]])
    assert np.allclose(batched[:10], singles, atol=1e-12)
    assert batched.shape == (600,)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-2.0, max_value=3.0,
                          allow_nan=False, allow_infinity=False),
                min_size=4, max_size=4),
       st.integers(min_value=0, max_value=10**6))
def test_posterior_simplex_property(values, seed):
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, num_variables=4)
    post = inference.posterior(c, np.array(values))
    assert np.exp(post).sum() == pytest.approx(1.0, abs=1e-9)
    assert (post <= 0).all()
