"""Distribution sampling checked against closed-form moments."""
import math

from hypothesis import given
from hypothesis import strategies as st
import numpy as np
import pytest

from qinitopt.distributions import (BETA, DEFAULT_BETA_SCALE, FAMILIES,
                                    GAUSSIAN, HyperParams, beta_samples,
                                    child_rng, from_unconstrained,
                                    gamma_samples, init_guess, manual_baseline,
                                    sample_params, standard_normals,
                                    to_unconstrained)


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams("uniform", (0.0, 1.0))
    with pytest.raises(ValueError):
        HyperParams(BETA, (0.0, 1.0))
    with pytest.raises(ValueError):
        HyperParams(BETA, (1.0, -2.0))
    with pytest.raises(ValueError):
        HyperParams(GAUSSIAN, (0.0, 0.0))
    with pytest.raises(ValueError):
        HyperParams(GAUSSIAN, (math.nan, 1.0))
    for values in ((1.0,), (1.0, 2.0, 3.0), ()):
        with pytest.raises(ValueError, match=(
                f"takes exactly two hyperparameters, got {len(values)}")):
            HyperParams(BETA, values)
    hp = HyperParams(GAUSSIAN, (0.3, 1.2))
    with pytest.raises(AttributeError):
        hp.alpha


def test_unconstrained_round_trip():
    for hp in (HyperParams(BETA, (1.0, 1.0)), HyperParams(BETA, (0.1, 1.5)),
               HyperParams(GAUSSIAN, (0.0, 1.0)), HyperParams(GAUSSIAN, (-2.3, 0.04))):
        vec = to_unconstrained(hp)
        back = from_unconstrained(hp.family, vec)
        assert np.max(np.abs(np.array(back.values) - np.array(hp.values))) < 1e-12


def test_unconstrained_known_values():
    assert np.allclose(to_unconstrained(HyperParams(BETA, (1.0, 1.0))), [0.0, 0.0])
    assert np.allclose(to_unconstrained(HyperParams(GAUSSIAN, (0.0, 1.0))), [0.0, 0.0])
    assert np.allclose(to_unconstrained(HyperParams(BETA, (math.e, math.e ** 2))),
                       [1.0, 2.0], atol=1e-12)


def test_unconstrained_always_maps_to_valid():
    rng = np.random.default_rng(31)
    for _ in range(100):
        vec = rng.uniform(-20, 20, 2)
        hp = from_unconstrained(BETA, vec)
        assert hp.alpha > 0 and hp.beta > 0
        hp = from_unconstrained(GAUSSIAN, vec)
        assert hp.sigma > 0
    with pytest.raises(ValueError):
        from_unconstrained(BETA, [0.0, math.inf])
    with pytest.raises(ValueError):
        from_unconstrained("cauchy", [0.0, 0.0])


def test_manual_baselines():
    beta = manual_baseline(BETA)
    assert beta.values == (0.1, 1.5)
    gauss = manual_baseline(GAUSSIAN)
    assert gauss.values == (0.0, 1.0)
    for hp in (beta, gauss):
        back = from_unconstrained(hp.family, to_unconstrained(hp))
        assert np.max(np.abs(np.array(back.values) - np.array(hp.values))) < 1e-12


def test_init_guess_ranges():
    for seed in range(50):
        gauss = init_guess(GAUSSIAN, child_rng(seed))
        assert 0.1 <= gauss.mu <= 0.5
        assert 0.5 <= gauss.sigma <= 1.0
        beta = init_guess(BETA, child_rng(seed))
        log_a, log_b = to_unconstrained(beta)
        assert 0.0 <= log_a <= math.log(5.0)
        assert 0.0 <= log_b <= math.log(5.0)
    assert init_guess(GAUSSIAN, child_rng(7)) == init_guess(GAUSSIAN, child_rng(7))


def test_child_rng_reproducible_and_distinct():
    a = child_rng(123, "perturb", 4).random(16)
    b = child_rng(123, "perturb", 4).random(16)
    assert np.array_equal(a, b)
    c = child_rng(123, "perturb", 5).random(16)
    assert not np.array_equal(a, c)
    d = child_rng(124, "perturb", 4).random(16)
    assert not np.array_equal(a, d)
    with pytest.raises(ValueError):
        child_rng(-1)


def test_standard_normals_moments():
    z = standard_normals(100_000, child_rng(40))
    assert abs(z.mean()) < 3.0 / math.sqrt(len(z))
    assert abs(z.std() - 1.0) < 3.0 / math.sqrt(2 * len(z))
    # one-sigma mass of a standard normal
    assert abs(np.mean(np.abs(z) < 1.0) - 0.6827) < 0.01
    assert standard_normals(5, child_rng(41)).shape == (5,)


def test_gamma_moments():
    n = 200_000
    for shape in (0.1, 0.7, 1.0, 2.5, 9.0):
        g = gamma_samples(shape, n, child_rng(42, int(shape * 10)))
        assert np.all(g > 0)
        se_mean = math.sqrt(shape / n)
        assert abs(g.mean() - shape) < 4 * se_mean, shape
    with pytest.raises(ValueError):
        gamma_samples(0.0, 1, child_rng(0))


@pytest.mark.parametrize("shape", [math.nan, math.inf])
def test_gamma_and_beta_reject_non_finite_shapes(shape):
    """Every Marsaglia-Tsang comparison is false at a NaN or inf shape, so
    the rejection loop would never end; the guard raises first."""
    with pytest.raises(ValueError, match="shape"):
        gamma_samples(shape, 3, child_rng(0))
    with pytest.raises(ValueError, match="shape"):
        beta_samples(shape, 1.0, 3, child_rng(0))
    with pytest.raises(ValueError, match="shape"):
        beta_samples(1.0, shape, 3, child_rng(0))


def test_beta_moments():
    n = 100_000
    for alpha, beta in ((1.0, 1.0), (0.1, 1.5), (2.0, 5.0)):
        b = beta_samples(alpha, beta, n, child_rng(43, int(alpha * 10)))
        assert np.all((b >= 0) & (b <= 1))
        mean = alpha / (alpha + beta)
        var = alpha * beta / ((alpha + beta) ** 2 * (alpha + beta + 1))
        assert abs(b.mean() - mean) < 4 * math.sqrt(var / n)
        assert abs(b.var() - var) < 0.05 * var + 1e-4


def test_beta_uniform_mean_half():
    b = beta_samples(1.0, 1.0, 100_000, child_rng(44))
    assert abs(b.mean() - 0.5) < 0.01


def test_beta_manual_mean_sixteenth():
    b = beta_samples(0.1, 1.5, 100_000, child_rng(45))
    assert abs(b.mean() - 0.0625) < 0.005


def test_beta_finite_at_tiny_shapes():
    # both boosted gammas underflow to 0 for most rows at these shapes; at
    # 1e-310 the exponent 1/a overflows as well
    for a in (1e-4, 1e-310):
        draws = beta_samples(a, a, 2000, child_rng(0))
        assert np.all(np.isfinite(draws))
        assert np.all((draws >= 0) & (draws <= 1))
        # Beta(a, a) tends to a fair coin on {0, 1} as a -> 0
        assert abs(np.mean(draws < 0.5) - 0.5) < 0.05
        skewed = beta_samples(a, 3 * a, 2000, child_rng(1))
        assert np.all(np.isfinite(skewed))
        assert abs(np.mean(skewed > 0.5) - 0.25) < 0.05


def test_beta_finite_at_huge_shapes():
    # X + Y overflows to inf at these shapes; a plain quotient would give 0
    for a in (1e308, 1.7e308):
        draws = beta_samples(a, a, 200, child_rng(2))
        assert np.all(np.isfinite(draws))
        assert np.all((draws >= 0) & (draws <= 1))
        assert np.max(np.abs(draws - 0.5)) < 1e-12
    lopsided = beta_samples(1e308, 1.0, 50, child_rng(3))
    assert np.all(lopsided == 1.0)


def test_beta_draws_pinned_at_manual_baseline():
    draws = beta_samples(0.1, 1.5, 6, child_rng(46))
    assert [float(x).hex() for x in draws] == [
        "0x1.dce68f24e2d49p-4", "0x1.f2abdea8a2171p-12",
        "0x1.b2cb51c297a37p-28", "0x1.36678434aed36p-10",
        "0x1.7c50390d07cb8p-19", "0x1.23f5fd4128f4ap-18"]


def test_sample_params_gaussian():
    hp = HyperParams(GAUSSIAN, (0.3, 1e-9))
    theta = sample_params(hp, 4, child_rng(46))
    assert np.max(np.abs(theta - 0.3)) < 1e-6
    hp = HyperParams(GAUSSIAN, (-1.0, 2.0))
    theta = sample_params(hp, 100_000, child_rng(47))
    assert abs(theta.mean() + 1.0) < 4 * 2.0 / math.sqrt(len(theta))
    assert abs(theta.std() - 2.0) < 4 * 2.0 / math.sqrt(2 * len(theta))


def test_sample_params_beta_scaled():
    hp = HyperParams(BETA, (1.0, 1.0))
    theta = sample_params(hp, 50_000, child_rng(48))
    assert np.all((theta >= 0) & (theta <= DEFAULT_BETA_SCALE))
    assert abs(theta.mean() - math.pi) < 0.05
    half = sample_params(hp, 1000, child_rng(48), scale=math.pi)
    assert np.all(half <= math.pi)


def test_sample_params_errors_and_reproducibility():
    hp = manual_baseline(GAUSSIAN)
    with pytest.raises(ValueError):
        sample_params(hp, 0, child_rng(0))
    huge = HyperParams(GAUSSIAN, (1e308, 1e308))
    with pytest.raises(FloatingPointError,
                       match=r"Gaussian\(mu=1e\+308, sigma=1e\+308\)"):
        sample_params(huge, 8, child_rng(51))
    a = sample_params(hp, 32, child_rng(50, "theta", 1))
    b = sample_params(hp, 32, child_rng(50, "theta", 1))
    assert np.array_equal(a, b)


@given(st.sampled_from(FAMILIES), st.floats(-30.0, 30.0),
       st.floats(-30.0, 30.0), st.integers(0, 2 ** 32 - 1))
def test_sample_params_finite_over_the_search_box(family, u0, u1, seed):
    # unconstrained (log alpha, log beta) or (mu, log sigma) in [-30, 30]^2:
    # shapes and sigma from e^-30 to e^30
    hp = from_unconstrained(family, [u0, u1])
    theta = sample_params(hp, 16, child_rng(seed, "box"))
    assert theta.shape == (16,)
    assert np.all(np.isfinite(theta))
    if family == BETA:
        assert np.all((theta >= 0.0) & (theta <= DEFAULT_BETA_SCALE))
