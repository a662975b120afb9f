"""Distribution sampling checked against closed-form moments."""
import json
import math
import os
import pathlib
import platform
import subprocess
import sys
import tracemalloc

from hypothesis import given
from hypothesis import strategies as st
import numpy as np
from numpy.lib.introspect import opt_func_info
import pytest

from qinitopt import distributions
from qinitopt.distributions import (BETA, DEFAULT_BETA_SCALE, FAMILIES,
                                    GAUSSIAN, HyperParams, beta_samples,
                                    child_rng, from_unconstrained,
                                    gamma_samples, init_guess, manual_baseline,
                                    sample_params, sample_params_lockstep,
                                    standard_normals, to_unconstrained)


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


# The draws pass through numpy's float64 log, whose kernel numpy picks at
# import from the CPU's features, so the pin is per dispatch target of
# float64 log: the first five draws hold at every level, the sixth moves
# by one ulp below AVX-512.
BETA_DRAWS_FIRST_FIVE = [
    "0x1.dce68f24e2d49p-4", "0x1.f2abdea8a2171p-12",
    "0x1.b2cb51c297a37p-28", "0x1.36678434aed36p-10",
    "0x1.7c50390d07cb8p-19"]
BETA_DRAW_SIX_BY_LOG_TARGET = {
    "X86_V4": "0x1.23f5fd4128f4ap-18",
    "X86_V3": "0x1.23f5fd4128f4bp-18",
    "baseline(X86_V2)": "0x1.23f5fd4128f4bp-18"}


def pinned_beta_draws() -> tuple[str, list[str]]:
    """(float64 log dispatch target, the six draws as float hex)."""
    info = opt_func_info(func_name="^log$", signature="float64")
    target = next(iter(info["log"].values()))["current"]
    draws = beta_samples(0.1, 1.5, 6, child_rng(46))
    return target, [float(x).hex() for x in draws]


def check_pinned_beta_draws(target: str, draws: list[str]) -> None:
    assert target in BETA_DRAW_SIX_BY_LOG_TARGET, (
        f"no pin for float64 log dispatch target {target}; draws {draws}")
    assert draws == BETA_DRAWS_FIRST_FIVE + [
        BETA_DRAW_SIX_BY_LOG_TARGET[target]], (target, draws)


def test_beta_draws_pinned_at_manual_baseline():
    check_pinned_beta_draws(*pinned_beta_draws())


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the dispatch targets named are x86-64's")
def test_beta_draws_pinned_under_avx2_dispatch():
    """The pin below AVX-512: a child process draws with numpy's AVX-512
    targets disabled, which numpy reads from NPY_DISABLE_CPU_FEATURES at
    import."""
    tests = pathlib.Path(__file__).resolve().parent
    src = pathlib.Path(distributions.__file__).resolve().parents[1]
    env = {**os.environ,
           "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4",
           "PYTHONPATH": os.pathsep.join(filter(None, (
               str(src), str(tests), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c", "import json, test_distributions as t; "
         "print(json.dumps(t.pinned_beta_draws()))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    target, draws = json.loads(done.stdout)
    assert target != "X86_V4", (target, draws)
    check_pinned_beta_draws(target, draws)


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
    # the default scaling spans the full rotation period [0, 2*pi]
    assert theta.min() < 0.01 and theta.max() > DEFAULT_BETA_SCALE - 0.01
    unit = beta_samples(1.0, 1.0, 50_000, child_rng(48))
    assert np.array_equal(theta, DEFAULT_BETA_SCALE * unit)


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


def reference_sample_params(hp, p, rng, hits=None):
    """The sampler on one generator, written as a plain loop: Box-Muller
    normals, Marsaglia-Tsang rounds with separate uniform calls, and
    beta_samples' quotient with its underflow and overflow branches. hits,
    when given, counts the draws that take each branch. The lockstep draw
    is pinned to this."""
    def normals(n):
        pairs = (n + 1) // 2
        u1 = 1.0 - rng.random(pairs)
        u2 = rng.random(pairs)
        radius = np.sqrt(-2.0 * np.log(u1))
        return np.concatenate([radius * np.cos(2.0 * np.pi * u2),
                               radius * np.sin(2.0 * np.pi * u2)])[:n]

    def gamma(shape):
        u, a = (rng.random(p), shape + 1.0) if shape < 1.0 else (None, shape)
        d = a - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        g = np.empty(0)
        while g.size < p:
            x = normals(p - g.size)
            v = (1.0 + c * x) ** 3
            uniform = rng.random(p - g.size)
            ok = v > 0
            logv = np.log(np.where(ok, v, 1.0))
            ok &= np.log(uniform) < 0.5 * x * x + d - d * v + d * logv
            g = np.concatenate([g, d * v[ok]])
        return g, u

    def log_boosted(g, u, shape, rows, unit):
        log_g = np.log(g[rows]) * unit
        return log_g if u is None else log_g + np.log(u[rows]) * (unit / shape)

    if hp.family == GAUSSIAN:
        with np.errstate(over="ignore"):
            theta = hp.mu + hp.sigma * normals(p)
        if not np.isfinite(theta).all():
            raise FloatingPointError(
                f"Gaussian(mu={hp.mu}, sigma={hp.sigma}) draws overflow "
                f"the float range")
        return theta
    (gx, ux), (gy, uy) = gamma(hp.alpha), gamma(hp.beta)
    x = gx if ux is None else gx * ux ** (1.0 / hp.alpha)
    y = gy if uy is None else gy * uy ** (1.0 / hp.beta)
    with np.errstate(over="ignore"):
        total = x + y
    under, over = total == 0.0, np.isinf(total)
    out = x / np.where(under, 1.0, total)
    out[over] = x[over] / 2.0 / (x[over] / 2.0 + y[over] / 2.0)
    if under.any():
        unit = min(hp.alpha, hp.beta)
        with np.errstate(over="ignore"):
            t = (log_boosted(gy, uy, hp.beta, under, unit)
                 - log_boosted(gx, ux, hp.alpha, under, unit)) / unit
        out[under] = np.exp(-np.logaddexp(0.0, t))
    if hits is not None:
        hits["under"] += int(under.sum())
        hits["over"] += int(over.sum())
    return DEFAULT_BETA_SCALE * out


def lockstep_rows(pick, count):
    """count hyperparameters: mostly Beta shapes e^U(-2.5, 2.5), about half
    of them below 1, with Beta(1e-3, 1e-3) rows, whose boosted gammas both
    underflow, Beta(1e308, b) rows, whose X + Y overflows, and Gaussian
    rows."""
    rows = []
    for kind in pick.choice(["shapes", "tiny", "huge", "gaussian"], count,
                            p=[0.55, 0.15, 0.15, 0.15]):
        if kind == "shapes":
            values = tuple(float(v) for v in np.exp(pick.uniform(-2.5, 2.5,
                                                                  2)))
        elif kind == "tiny":
            values = (1e-3, 1e-3)
        elif kind == "huge":
            values = (1e308, float(pick.choice([1.0, 1e308])))
        else:
            values = (float(pick.normal()), float(np.exp(pick.uniform(-2, 2))))
        rows.append(HyperParams(GAUSSIAN if kind == "gaussian" else BETA,
                                values))
    return rows


@pytest.mark.parametrize("count", [1, 3, 16, 48])
def test_lockstep_draws_equal_per_generator_draws(count):
    """Each generator of a lockstep draw gives the bytes of its own draws
    one after another, by the loop reference and by sample_params, and
    ends in the same state, with a p of its own per generator and one to
    three draws each; the rows reach both of beta_samples' branches."""
    pick = np.random.default_rng(count)
    hits = {"under": 0, "over": 0}
    for trial in range(max(12, 200 // count)):
        hps = lockstep_rows(pick, count)
        ps = [int(p) for p in pick.integers(1, 97, count)]
        draws = 1 + trial % 3
        seeds = [int(seed) for seed in pick.integers(0, 2 ** 32, count)]
        stepped = [child_rng(seed, "lockstep") for seed in seeds]
        got = sample_params_lockstep(hps, ps, stepped, draws)
        for k, seed in enumerate(seeds):
            one, loop = child_rng(seed, "lockstep"), child_rng(seed,
                                                               "lockstep")
            alone = [sample_params(hps[k], ps[k], one) for _ in range(draws)]
            want = [reference_sample_params(hps[k], ps[k], loop, hits)
                    for _ in range(draws)]
            assert got[k].shape == (draws, ps[k])
            assert got[k].tobytes() == np.stack(want).tobytes()
            assert np.stack(alone).tobytes() == np.stack(want).tobytes()
            assert stepped[k].bytes(32) == one.bytes(32) == loop.bytes(32)
    assert hits["under"] and hits["over"]


def first_failures(hps, p, seeds, draws):
    """{k: (i, error)}: the first draw i at which generator k fails when it
    draws its draws alone, with its error, for each k that fails."""
    failed = {}
    for k, (hp, seed) in enumerate(zip(hps, seeds)):
        rng = child_rng(seed, "order")
        for i in range(draws):
            try:
                reference_sample_params(hp, p, rng)
            except FloatingPointError as exc:
                failed[k] = (i, exc)
                break
    return failed


def test_lockstep_raises_the_error_of_one_generator_after_another():
    """A lockstep draw finishes, then raises the lowest failed generator's
    error, which drawing one generator after another raises first, also
    when that generator fails at a later draw than a higher one; with no
    error every row equals the reference's."""
    hps = [HyperParams(BETA, (0.1, 1.5)),
           *(HyperParams(GAUSSIAN, (0.5, 1e308 + k * 1e307))
             for k in range(5))]
    p, draws, later = 2, 3, 0
    for seed in range(40):
        seeds = [seed * 10 + k for k in range(len(hps))]
        failed = first_failures(hps, p, seeds, draws)
        rngs = [child_rng(s, "order") for s in seeds]
        if not failed:
            got = sample_params_lockstep(hps, [p] * len(hps), rngs, draws)
            for hp, s, rows in zip(hps, seeds, got):
                rng = child_rng(s, "order")
                assert rows.tobytes() == np.stack([reference_sample_params(
                    hp, p, rng) for _ in range(draws)]).tobytes()
            continue
        with pytest.raises(FloatingPointError) as caught:
            sample_params_lockstep(hps, [p] * len(hps), rngs, draws)
        lowest = min(failed)
        assert str(caught.value) == str(failed[lowest][1])
        later += failed[lowest][0] > min(i for i, _ in failed.values())
    assert later


def test_lockstep_validates_its_rows():
    hp = manual_baseline(BETA)
    rng = child_rng(0)
    with pytest.raises(ValueError, match="its own generator"):
        sample_params_lockstep([hp, hp], [3, 3], [rng, rng])
    with pytest.raises(ValueError, match="one p and one generator"):
        sample_params_lockstep([hp, hp], [3], [rng, child_rng(1)])
    with pytest.raises(ValueError, match="at least one parameter"):
        sample_params_lockstep([hp, hp], [3, 0], [rng, child_rng(1)])
    with pytest.raises(ValueError, match="at least one draw"):
        sample_params_lockstep([hp], [3], [rng], 0)
    assert sample_params_lockstep([], [], []) == []


def test_lockstep_buffers_stay_bounded_for_any_population():
    """Generators step in groups of about LOCKSTEP_VALUES (2,048)
    parameters, so a draw's buffers beyond its result stay bounded however
    many generators it steps: under 0.3 MB for 96 generators at p = 96
    (9,216 parameters), where one group of all of them took about 1 MB."""
    hps = [HyperParams(BETA, (1.5, 2.0))] * 96
    rngs = [child_rng(5, k) for k in range(96)]
    tracemalloc.start()
    try:
        rows = sample_params_lockstep(hps, [96] * 96, rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sum(r.nbytes for r in rows) < 0.3e6, peak
