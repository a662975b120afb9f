"""Score functions rating how trainable a parameter initialization is.

Three scores, all maximized: S1 reduces the QFIM to a scalar capacity
measure, S2 is the mean t-th power of gradient magnitudes, and S3 blends the
two with weight w. Rank-based utility shaping turns raw population scores
into the zero-sum targets the evolutionary update consumes.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .differentiation import hermitian_eigenvalues, qfim
from .distributions import DEFAULT_BETA_SCALE, HyperParams, sample_params
from .simulator import Circuit

S1 = "s1"
S2 = "s2"
S3 = "s3"
SCORE_KINDS = (S1, S2, S3)

TRACE = "trace"
LOG_DET = "log_det"
HARMONIC = "harmonic"
OMEGA_KINDS = (TRACE, LOG_DET, HARMONIC)


@dataclass(frozen=True)
class ScoreSpec:
    kind: str = S3
    omega: str = TRACE
    t: int = 2
    w: float = 0.9
    eps: float = 1e-6
    k_eigs: int = 5
    big_k: float = 1.0

    def __post_init__(self):
        if self.kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {self.kind!r}")
        if self.omega not in OMEGA_KINDS:
            raise ValueError(f"unknown omega reduction {self.omega!r}")
        if not isinstance(self.t, int) or self.t < 1:
            raise ValueError("t must be an integer >= 1")
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("w must lie in [0, 1]")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.k_eigs < 1:
            raise ValueError("k_eigs must be >= 1")
        if not math.isfinite(self.big_k):
            raise ValueError("harmonic prefactor must be finite")


@dataclass
class ScoreValue:
    raw: float

    def __post_init__(self):
        if not math.isfinite(self.raw):
            raise ValueError("raw score must be finite")


def omega_reduce(fisher, spec: ScoreSpec) -> float:
    """Scalar capacity of a QFIM: trace, eigenvalue log-sum, or the harmonic
    sum over the top k_eigs eigenvalues. eps regularizes every variant."""
    entries = np.asarray(getattr(fisher, "entries", fisher), dtype=float)
    p = entries.shape[0]
    if spec.omega == TRACE:
        return float(np.trace(entries) + p * spec.eps)
    values = hermitian_eigenvalues(entries) + spec.eps
    if spec.omega == LOG_DET:
        if np.any(values <= 0):
            raise ValueError("log-det needs eigenvalues above -eps")
        return float(np.sum(np.log(values)))
    return float(spec.big_k * np.sum(1.0 / values[:min(spec.k_eigs, p)]))


def order_statistic(grad, t: int) -> float:
    """Mean t-th power of gradient magnitudes, (1/p) sum |g_mu|^t."""
    grad = np.asarray(grad, dtype=float)
    if grad.size == 0:
        raise ValueError("gradient is empty")
    if t < 1:
        raise ValueError("t must be >= 1")
    return float(np.mean(np.abs(grad) ** t))


def score(theta, circuit: Circuit, task_gradient=None,
          spec: ScoreSpec = ScoreSpec(), features=None) -> ScoreValue:
    """Rate one parameter vector. task_gradient(theta) returns the task
    cost's (p,) gradient; it is required whenever the score reads gradients
    (S2 and S3) and feeds the empirical QFIM fallback."""
    theta = np.asarray(theta, dtype=float)
    fisher_part = None
    if spec.kind in (S1, S3):
        fisher = qfim(circuit, theta, features, gradient_fn=task_gradient)
        fisher_part = omega_reduce(fisher, spec)
    grad_part = None
    if spec.kind in (S2, S3):
        if task_gradient is None:
            raise ValueError("gradient-based scores need a task gradient")
        grad_part = order_statistic(task_gradient(theta), spec.t)
    if spec.kind == S1:
        raw = fisher_part
    elif spec.kind == S2:
        raw = grad_part
    else:
        raw = (1.0 - spec.w) * fisher_part + spec.w * grad_part
    return ScoreValue(raw=float(raw))


def utility_shape(raw_scores) -> np.ndarray:
    """Zero-sum rank utilities u_k = k/(N_s - 1) - 0.5.

    The lowest raw score gets rank 0 (utility -0.5) and the highest gets
    +0.5, so ascent moves toward better scores; ties break by position.
    """
    raw = np.asarray(raw_scores, dtype=float)
    n = raw.shape[0]
    if raw.ndim != 1 or n < 2:
        raise ValueError("need a flat population of at least two scores")
    order = np.argsort(raw, kind="stable")
    ranks = np.empty(n)
    ranks[order] = np.arange(n)
    return ranks / (n - 1) - 0.5


def initialization_objective(circuit: Circuit, spec: ScoreSpec,
                             task_gradient=None, features=None,
                             scale: float = DEFAULT_BETA_SCALE,
                             theta_draws: int = 1):
    """Objective for the hyperparameter search: theta ~ p(theta | hp), then
    score(theta), averaged over theta_draws independent draws."""
    if theta_draws < 1:
        raise ValueError("theta_draws must be >= 1")

    def objective(hp: HyperParams, rng: np.random.Generator) -> float:
        total = 0.0
        for _ in range(theta_draws):
            theta = sample_params(hp, circuit.num_params, rng, scale)
            total += score(theta, circuit, task_gradient, spec,
                           features).raw
        return total / theta_draws

    return objective
