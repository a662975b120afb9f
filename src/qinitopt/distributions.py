"""Initializing distributions for circuit parameters.

Two families: Beta(alpha, beta) scaled onto [0, scale] (full rotation period
2*pi by default) and Gaussian(mu, sigma). Hyperparameter search happens in an
unconstrained view (log alpha, log beta) or (mu, log sigma), so any update
maps back to valid constrained values.

Sampling is built from uniform draws only (Box-Muller normals, Marsaglia-Tsang
gammas): which uniforms a draw consumes then depends on nothing but this
file and the counter-based bit stream, whatever the parallel schedule. The
bits of a draw also pass through numpy's float64 log, exp and power, whose
kernels numpy picks at import from the CPU's features, so draws repeat bit
for bit per numpy build and CPU dispatch level. Under numpy 2.4.6, AVX2
dispatch moves one pinned Beta draw by 1 ulp from AVX-512 dispatch.
"""
from __future__ import annotations

from dataclasses import dataclass
import math
import zlib

import numpy as np

BETA = "beta"
GAUSSIAN = "gaussian"
FAMILIES = (BETA, GAUSSIAN)

DEFAULT_BETA_SCALE = 2.0 * math.pi


@dataclass(frozen=True)
class HyperParams:
    """Distribution hyperparameters: (alpha, beta) or (mu, sigma)."""

    family: str
    values: tuple[float, float]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if len(self.values) != 2:
            raise ValueError(f"{self.family} takes exactly two hyperparameters, "
                             f"got {len(self.values)}")
        a, b = self.values
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("hyperparameters must be finite")
        if self.family == BETA and (a <= 0 or b <= 0):
            raise ValueError("Beta needs alpha > 0 and beta > 0")
        if self.family == GAUSSIAN and b <= 0:
            raise ValueError("Gaussian needs sigma > 0")

    @property
    def alpha(self) -> float:
        if self.family != BETA:
            raise AttributeError("alpha is a Beta hyperparameter")
        return self.values[0]

    @property
    def beta(self) -> float:
        if self.family != BETA:
            raise AttributeError("beta is a Beta hyperparameter")
        return self.values[1]

    @property
    def mu(self) -> float:
        if self.family != GAUSSIAN:
            raise AttributeError("mu is a Gaussian hyperparameter")
        return self.values[0]

    @property
    def sigma(self) -> float:
        if self.family != GAUSSIAN:
            raise AttributeError("sigma is a Gaussian hyperparameter")
        return self.values[1]


def to_unconstrained(hp: HyperParams) -> np.ndarray:
    """(log alpha, log beta) for Beta; (mu, log sigma) for Gaussian."""
    if hp.family == BETA:
        return np.array([math.log(hp.alpha), math.log(hp.beta)])
    return np.array([hp.mu, math.log(hp.sigma)])


def from_unconstrained(family: str, vec) -> HyperParams:
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (2,) or not np.all(np.isfinite(vec)):
        raise ValueError("unconstrained vector must be two finite reals")
    if family == BETA:
        return HyperParams(BETA, (math.exp(vec[0]), math.exp(vec[1])))
    if family == GAUSSIAN:
        return HyperParams(GAUSSIAN, (float(vec[0]), math.exp(vec[1])))
    raise ValueError(f"unknown family {family!r}")


def child_rng(master_seed: int, *labels) -> np.random.Generator:
    """Counter-based generator for the stream (master_seed, *labels).

    Labels are ints or short strings; equal label paths give bit-identical
    streams, which makes every parallel rollout reproducible on its own.
    """
    parts = [int(master_seed)]
    for label in labels:
        parts.append(zlib.crc32(label.encode()) if isinstance(label, str)
                     else int(label))
    if any(part < 0 for part in parts):
        raise ValueError("seeds and labels must be non-negative")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(parts)))


def standard_normals(n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. N(0,1) draws via Box-Muller on this generator's uniforms."""
    pairs = (n + 1) // 2
    u1 = 1.0 - rng.random(pairs)  # (0, 1], keeps the log finite
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(2.0 * np.pi * u2),
                        radius * np.sin(2.0 * np.pi * u2)])
    return z[:n]


def _gamma_parts(shape: float, n: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray | None]:
    """n Gamma(shape, 1) draws as (g, u): g * u^(1/shape) with g from
    Marsaglia-Tsang at shape + 1 when shape < 1, else g itself (u None)."""
    if not 0 < shape < math.inf:  # NaN fails too, where the loop never ends
        raise ValueError(f"gamma shape must be positive and finite, "
                         f"got {shape}")
    u = None
    a = shape
    if a < 1.0:
        # Gamma(a) = Gamma(a+1) * U^(1/a)
        u = rng.random(n)
        a = a + 1.0
    d = a - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n)
    filled = 0
    while filled < n:
        need = n - filled
        x = standard_normals(need, rng)
        v = (1.0 + c * x) ** 3
        uniform = rng.random(need)
        ok = v > 0
        logv = np.log(np.where(ok, v, 1.0))
        ok &= np.log(uniform) < 0.5 * x * x + d - d * v + d * logv
        accepted = d * v[ok]
        out[filled:filled + accepted.size] = accepted
        filled += accepted.size
    return out, u


def _boosted(g: np.ndarray, u: np.ndarray | None, shape: float) -> np.ndarray:
    return g if u is None else g * u ** (1.0 / shape)


def _log_boosted(g: np.ndarray, u: np.ndarray | None, shape: float,
                 rows: np.ndarray, unit: float) -> np.ndarray:
    """unit * log of _boosted(g, u, shape)[rows]: finite where that
    underflows, and for unit <= shape also where 1/shape overflows."""
    log_g = np.log(g[rows]) * unit
    return log_g if u is None else log_g + np.log(u[rows]) * (unit / shape)


def gamma_samples(shape: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Gamma(shape, 1) draws via Marsaglia-Tsang squeeze rejection."""
    return _boosted(*_gamma_parts(shape, n, rng), shape)


def beta_samples(alpha: float, beta: float, n: int,
                 rng: np.random.Generator) -> np.ndarray:
    """n Beta(alpha, beta) draws as X / (X + Y) of Gamma(alpha) and
    Gamma(beta) draws.

    At small shapes both U^(1/a)-boosted gammas can underflow to 0; only
    those rows take the ratio in log space, as the logistic of
    log X - log Y. At huge shapes X + Y can overflow; only those rows halve
    both draws before adding. Every other draw keeps the plain quotient's
    bits.
    """
    gx, ux = _gamma_parts(alpha, n, rng)
    gy, uy = _gamma_parts(beta, n, rng)
    x = _boosted(gx, ux, alpha)
    y = _boosted(gy, uy, beta)
    with np.errstate(over="ignore"):
        total = x + y
    under = total == 0.0
    out = x / np.where(under, 1.0, total)
    over = np.isinf(total)  # halving is exact at these magnitudes
    out[over] = x[over] / 2.0 / (x[over] / 2.0 + y[over] / 2.0)
    if under.any():
        unit = min(alpha, beta)
        with np.errstate(over="ignore"):  # |t| = inf still gives 0 or 1
            log_ratio = (_log_boosted(gy, uy, beta, under, unit)
                         - _log_boosted(gx, ux, alpha, under, unit)) / unit
        # 1 / (1 + e^t) without overflow for large t
        out[under] = np.exp(-np.logaddexp(0.0, log_ratio))
    return out


def sample_params(hp: HyperParams, p: int, rng: np.random.Generator,
                  scale: float = DEFAULT_BETA_SCALE) -> np.ndarray:
    """Draw a circuit parameter vector theta of length p from p(theta | hp).

    Raises FloatingPointError when a Gaussian draw overflows, as finite
    mu and sigma near the float maximum can make it."""
    if p < 1:
        raise ValueError("need at least one parameter")
    if hp.family == GAUSSIAN:
        with np.errstate(over="ignore"):
            theta = hp.mu + hp.sigma * standard_normals(p, rng)
        if not np.isfinite(theta).all():
            raise FloatingPointError(
                f"Gaussian(mu={hp.mu}, sigma={hp.sigma}) draws overflow "
                f"the float range")
        return theta
    return scale * beta_samples(hp.alpha, hp.beta, p, rng)


def init_guess(family: str, rng: np.random.Generator) -> HyperParams:
    """Starting hyperparameters for the search: mu ~ U(0.1, 0.5) and
    sigma ~ U(0.5, 1.0); log alpha and log beta each the log of a U(1, 5) draw."""
    if family == GAUSSIAN:
        mu = 0.1 + 0.4 * rng.random()
        sigma = 0.5 + 0.5 * rng.random()
        return HyperParams(GAUSSIAN, (mu, sigma))
    if family == BETA:
        log_a = math.log(1.0 + 4.0 * rng.random())
        log_b = math.log(1.0 + 4.0 * rng.random())
        return from_unconstrained(BETA, [log_a, log_b])
    raise ValueError(f"unknown family {family!r}")


def manual_baseline(family: str) -> HyperParams:
    """Hand-picked reference hyperparameters the searched ones are compared to."""
    if family == BETA:
        return HyperParams(BETA, (0.1, 1.5))
    if family == GAUSSIAN:
        return HyperParams(GAUSSIAN, (0.0, 1.0))
    raise ValueError(f"unknown family {family!r}")
