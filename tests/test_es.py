"""Evolutionary search on toy objectives with known optima."""
import numpy as np
import pytest

from qinitopt.distributions import (GAUSSIAN, HyperParams, child_rng,
                                    sample_params)
from qinitopt.es import EsConfig, EsTrace, es_optimize, perturbation_matrix


def quadratic(lam, rng):
    return -float((lam[0] - 3.0) ** 2)


def test_config_validation():
    with pytest.raises(ValueError):
        EsConfig(eta=0.0)
    with pytest.raises(ValueError):
        EsConfig(sigma_es=-0.1)
    with pytest.raises(ValueError):
        EsConfig(n_samples=1)
    with pytest.raises(ValueError):
        EsConfig(n_samples=7, antithetic=True)
    with pytest.raises(ValueError):
        EsConfig(eps_converge=0.0)
    EsConfig(n_samples=7, antithetic=False)  # odd is fine without pairing


@pytest.mark.parametrize("field", ["eta", "sigma_es", "eps_converge"])
def test_config_rejects_nan(field):
    with pytest.raises(ValueError, match=field):
        EsConfig(**{field: float("nan")})


def test_perturbation_matrix_antithetic_structure():
    gamma = perturbation_matrix(4, 2, True, child_rng(1))
    assert gamma.shape == (4, 2)
    assert np.array_equal(gamma[2], -gamma[0])
    assert np.array_equal(gamma[3], -gamma[1])
    assert np.array_equal(gamma[:2] + gamma[2:], np.zeros((2, 2)))
    with pytest.raises(ValueError):
        perturbation_matrix(5, 2, True, child_rng(1))
    with pytest.raises(ValueError):
        perturbation_matrix(4, 0, True, child_rng(1))


def test_perturbation_matrix_statistics_and_seeding():
    gamma = perturbation_matrix(10_000, 3, False, child_rng(2))
    assert np.max(np.abs(gamma.mean(axis=0))) < 3.0 / np.sqrt(10_000)
    assert np.max(np.abs(gamma.std(axis=0) - 1.0)) < 0.05
    again = perturbation_matrix(10_000, 3, False, child_rng(2))
    assert np.array_equal(gamma, again)


def test_toy_quadratic_converges():
    cfg = EsConfig(eta=0.1, sigma_es=0.1, n_samples=50, n_iters=200,
                   eps_converge=1e-8, antithetic=True, use_utility=False)
    for seed, start in ((0, 0.0), (1, 1.0), (2, 6.0)):
        lam, trace = es_optimize(quadratic, np.array([start]), cfg, seed)
        assert abs(lam[0] - 3.0) < 0.1
        assert trace.n_iterations <= 200


def test_toy_quadratic_with_utility_shaping():
    cfg = EsConfig(eta=0.1, sigma_es=0.1, n_samples=50, n_iters=200,
                   eps_converge=1e-8, antithetic=True, use_utility=True)
    lam, _ = es_optimize(quadratic, np.array([0.0]), cfg, 0)
    # rank shaping keeps a constant step size, so expect a looser orbit
    assert abs(lam[0] - 3.0) < 0.3


def test_distance_decreases_over_20_iteration_windows():
    cfg = EsConfig(eta=0.1, sigma_es=0.1, n_samples=50, n_iters=100,
                   eps_converge=1e-12, antithetic=True, use_utility=False)
    _, trace = es_optimize(quadratic, np.array([0.0]), cfg, 5)
    dist = [3.0] + [abs(u[0] - 3.0) for u in trace.unconstrained]
    for i in range(len(dist) - 20):
        if dist[i] > 1e-6:
            assert dist[i + 20] < dist[i]


def test_constant_score_is_a_fixed_point():
    cfg = EsConfig(n_iters=5, use_utility=False)
    lam, trace = es_optimize(lambda l, r: 7.0, np.array([1.5, -2.0]), cfg, 0)
    assert np.array_equal(lam, [1.5, -2.0])
    assert trace.update_l1[0] == 0.0
    assert trace.converged and trace.n_iterations == 1


def test_an_update_of_exactly_eps_converge_converges():
    """The convergence test is |update|_1 <= eps_converge: a first step
    whose L1 equals the threshold exactly stops the search."""
    cfg = EsConfig(n_iters=5)
    _, first = es_optimize(quadratic, np.array([0.0]), cfg, 3)
    l1 = first.update_l1[0]
    assert l1 > cfg.eps_converge and not first.converged
    exact = EsConfig(n_iters=5, eps_converge=l1)
    _, trace = es_optimize(quadratic, np.array([0.0]), exact, 3)
    assert trace.update_l1 == [l1]
    assert trace.converged


def test_linear_score_gradient_direction():
    a = np.array([1.0, 2.0, -2.0])
    cfg = EsConfig(eta=1.0, sigma_es=0.1, n_samples=16, n_iters=1,
                   eps_converge=1e-12, antithetic=True, use_utility=False)
    total = np.zeros(3)
    for seed in range(2000):
        lam, _ = es_optimize(lambda l, r: float(a @ l), np.zeros(3), cfg, seed)
        total += lam  # one eta=1 step equals the gradient estimate
    mean = total / 2000
    cosine = mean @ a / (np.linalg.norm(mean) * np.linalg.norm(a))
    assert cosine >= 0.99


def test_monotone_transform_invariance_with_utility():
    cfg = EsConfig(n_iters=15, eps_converge=1e-12, use_utility=True)
    base, tr_base = es_optimize(quadratic, np.array([0.0]), cfg, 11)
    warped = lambda l, r: float(np.exp(quadratic(l, r)))
    same, tr_same = es_optimize(warped, np.array([0.0]), cfg, 11)
    assert np.array_equal(base, same)
    assert tr_base.unconstrained == tr_same.unconstrained


def test_batch_form_matches_per_rollout():
    noisy = lambda lam, rng: -float(np.sum((lam - 2.0) ** 2)) + 0.01 * rng.random()
    calls = []

    def batched(lams, rngs):
        calls.append(len(lams))
        return [noisy(lam, rng) for lam, rng in zip(lams, rngs)]

    scorer = lambda lam, rng: pytest.fail("per-rollout form called")
    scorer.batch = batched
    cfg = EsConfig(n_iters=10, eps_converge=1e-12)
    serial = es_optimize(noisy, np.zeros(3), cfg, 42)
    pooled = es_optimize(scorer, np.zeros(3), cfg, 42)
    assert calls == [cfg.n_samples] * 10
    assert np.array_equal(serial[0], pooled[0])
    assert serial[1] == pooled[1]


def test_batch_form_shape_and_value_checks():
    cfg = EsConfig(n_iters=1)
    short = lambda lam, rng: 0.0
    short.batch = lambda lams, rngs: np.zeros(len(lams) - 1)
    with pytest.raises(RuntimeError, match="iteration 0"):
        es_optimize(short, np.zeros(2), cfg, 0)
    nan = lambda lam, rng: 0.0
    nan.batch = lambda lams, rngs: np.r_[np.zeros(len(lams) - 1), np.nan]
    with pytest.raises(FloatingPointError):
        es_optimize(nan, np.zeros(2), cfg, 0)


def test_hyperparams_input_stays_valid():
    # objective prefers small sigma; search happens in log-space so sigma
    # stays positive no matter how far the update pushes
    prefer_small = lambda hp, rng: -hp.sigma - (hp.mu - 0.2) ** 2
    cfg = EsConfig(eta=0.3, n_iters=40, eps_converge=1e-12)
    hp0 = HyperParams(GAUSSIAN, (0.4, 0.9))
    tuned, trace = es_optimize(prefer_small, hp0, cfg, 3)
    assert isinstance(tuned, HyperParams)
    assert tuned.sigma > 0
    assert tuned.sigma < 0.9
    assert all(values[1] > 0 for values in trace.hyperparams)


def test_score_failure_is_diagnosable():
    def broken(lam, rng):
        raise ZeroDivisionError("boom")

    with pytest.raises(RuntimeError, match="iteration 0"):
        es_optimize(broken, np.zeros(2), EsConfig(), 0)
    with pytest.raises(FloatingPointError):
        es_optimize(lambda l, r: float("nan"), np.zeros(2), EsConfig(), 0)



def test_an_overflowing_draw_reaches_the_caller_unchanged():
    # sigma near the float maximum: sigma * z overflows for |z| > 1.8
    draw = lambda hp, rng: float(sample_params(hp, 40, rng).sum())
    hp0 = HyperParams(GAUSSIAN, (0.0, 1e308))
    with pytest.raises(FloatingPointError,
                       match=r"^Gaussian\(mu=.*, sigma=.*\) draws overflow"):
        es_optimize(draw, hp0, EsConfig(n_iters=1), 0)

def test_trace_shape():
    cfg = EsConfig(n_iters=7, eps_converge=1e-15)
    _, trace = es_optimize(quadratic, np.array([0.0]), cfg, 1)
    assert isinstance(trace, EsTrace)
    assert trace.n_iterations == 7
    for column in (trace.hyperparams, trace.unconstrained, trace.mean_score,
                   trace.best_score, trace.update_l1):
        assert len(column) == 7
    assert all(b >= m for b, m in zip(trace.best_score, trace.mean_score))
