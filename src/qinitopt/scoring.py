"""Score functions rating how trainable a parameter initialization is.

Three scores, all maximized: S1 reduces the QFIM to a scalar capacity
measure, S2 is the mean t-th power of gradient magnitudes, and S3 blends the
two with weight w. score rates one (p,) parameter vector or each row of a
(B, p) stack, by one path, and so do the reductions it is built from:
omega_reduce takes one QFIM or a (B, p, p) stack, and order_statistic one
gradient or a (B, p) stack. At the default omega=trace the exact and the
block-diagonal QFIM enter only through their shared trace,
sum_mu (1 - <G_mu>^2), which differentiation.qfim_trace takes from one
forward run; log_det and harmonic reduce the whole QFIM stack, which
differentiation.qfim builds by forward derivative sweeps, or score itself
as g g^T of the task gradient on the empirical rung. A Pauli-sum
task gradient comes from the exact QFIM's sweeps when the score builds
one (S3 at p <= 64 and omega log_det or harmonic), and from adjoint
passes otherwise. A task gradient given as a callable gets what
score got, a (p,) theta or the whole (B, p) stack, in one call. The
search objective scores a whole ES population through score in one call.
Rank-based utility shaping turns raw population scores into the zero-sum
targets the evolutionary update consumes.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .differentiation import (FIDELITY_BLOCK, FIDELITY_EMPIRICAL,
                              FIDELITY_EXACT, hermitian_eigenvalues,
                              observable_gradient, qfim,
                              qfim_and_observable_gradient, qfim_empirical,
                              qfim_fidelity, qfim_trace)
from .distributions import HyperParams, sample_params
from .simulator import Circuit, Observable, _batch_of

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
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.k_eigs < 1:
            raise ValueError("k_eigs must be >= 1")
        if not math.isfinite(self.big_k):
            raise ValueError("harmonic prefactor must be finite")


def _scalar_or_rows(values: np.ndarray):
    """A 0-d result as a float, a stack's (B,) results as they are."""
    return float(values) if values.ndim == 0 else values


def omega_reduce(fisher, spec: ScoreSpec):
    """Scalar capacity of a (p, p) QFIM as a float, or of each matrix of
    a (B, p, p) stack as a (B,) array: trace, eigenvalue log-sum, or the
    harmonic sum over the top k_eigs eigenvalues. eps regularizes every
    variant."""
    fisher = np.asarray(fisher, dtype=float)
    p = fisher.shape[-1]
    if spec.omega == TRACE:
        return _scalar_or_rows(np.trace(fisher, axis1=-2, axis2=-1)
                               + p * spec.eps)
    values = hermitian_eigenvalues(fisher) + spec.eps
    if spec.omega == LOG_DET:
        if np.any(values <= 0):
            raise ValueError("log-det needs eigenvalues above -eps")
        return _scalar_or_rows(np.sum(np.log(values), axis=-1))
    with np.errstate(over="ignore", divide="ignore"):
        total = spec.big_k * np.sum(1.0 / values[..., :spec.k_eigs], axis=-1)
    if not np.all(np.isfinite(total)):
        bad = total[~np.isfinite(total)].flat[0]
        raise ValueError(
            f"raw score must be finite, but the harmonic sum is {bad} at "
            f"score.big_k = {spec.big_k:g} and score.eps = {spec.eps:g}")
    return _scalar_or_rows(total)


def order_statistic(grad, t: int):
    """Mean t-th power of gradient magnitudes, (1/p) sum |g_mu|^t, of a
    (p,) gradient as a float or of each row of a (B, p) stack as a (B,)
    array."""
    grad = np.asarray(grad, dtype=float)
    if grad.size == 0:
        raise ValueError("gradient is empty")
    if t < 1:
        raise ValueError("t must be >= 1")
    return _scalar_or_rows(np.mean(np.abs(grad) ** t, axis=-1))


def score(theta, circuit: Circuit, task_gradient=None,
          spec: ScoreSpec = ScoreSpec(), features=None):
    """The raw score of a (p,) parameter vector as a float, or of each row
    of a (B, p) stack as a (B,) array.

    task_gradient is the task cost's gradient, required whenever the score
    reads gradients (S2, S3 and the empirical QFIM): the Pauli sum H of a
    cost <psi|H|psi> as an Observable, or a callable. At omega=trace the
    exact and the block-diagonal rung read the QFIM's trace off qfim_trace,
    one forward run of one row per theta, and no derivative sweep runs.
    At log_det or harmonic one qfim call builds the QFIM stack, or on the
    exact rung with a Pauli sum's gradient one qfim_and_observable_gradient
    call, whose sweeps give both; one omega_reduce call reduces the stack.
    Other gradients come from observable_gradient's adjoint or the callable.
    The empirical rung keeps the rank-one surrogate, whose trace is |g|^2.
    The path depends on the fidelity and omega alone, not on B, so a row
    scores the same bits in any batch. A callable is called once with what
    score was given: a (p,) theta, returning (p,), or the whole (B, p)
    stack, returning (B, p). Row b of its result must hold the bits theta
    b gives alone, as QmlTask.gradient's and observable_gradient's rows
    do, for the batch to keep that property.
    Raises ValueError on a non-finite raw score.
    """
    thetas, batched = _batch_of(theta, circuit.num_params)
    fidelity = qfim_fidelity(circuit) if spec.kind in (S1, S3) else None
    needs_grad = spec.kind in (S2, S3) or fidelity == FIDELITY_EMPIRICAL
    if needs_grad and task_gradient is None:
        raise ValueError(
            "gradient-based scores need a task gradient" if spec.kind != S1
            else "untagged circuit above the exact threshold needs a task "
            "gradient for the empirical QFIM")
    is_pauli_sum = isinstance(task_gradient, Observable)
    fisher = fisher_part = grads = None
    if spec.omega == TRACE and fidelity in (FIDELITY_EXACT, FIDELITY_BLOCK):
        fisher_part = (qfim_trace(circuit, thetas, features)
                       + circuit.num_params * spec.eps)
    elif needs_grad and is_pauli_sum and fidelity == FIDELITY_EXACT:
        # the exact QFIM's forward sweep has the state derivatives anyway
        fisher, grads = qfim_and_observable_gradient(
            circuit, thetas, task_gradient, features)
    elif fidelity in (FIDELITY_EXACT, FIDELITY_BLOCK):
        fisher = qfim(circuit, thetas, features)
    if grads is None and needs_grad:
        grads = (observable_gradient(circuit, thetas, task_gradient, features)
                 if is_pauli_sum else
                 np.asarray(task_gradient(thetas if batched else thetas[0]),
                            dtype=float).reshape(thetas.shape))
    if fidelity == FIDELITY_EMPIRICAL:
        fisher = qfim_empirical(grads)
    if fisher is not None:
        fisher_part = omega_reduce(fisher, spec)
    if spec.kind == S1:
        raw = fisher_part
    else:
        grad_part = order_statistic(grads, spec.t)
        raw = (grad_part if spec.kind == S2 else
               (1.0 - spec.w) * fisher_part + spec.w * grad_part)
    if not np.all(np.isfinite(raw)):
        raise ValueError("raw score must be finite")
    return raw if batched else float(raw[0])


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
                             theta_draws: int = 1):
    """Objective for the hyperparameter search: theta ~ p(theta | hp), then
    score(theta), averaged over theta_draws independent draws.

    objective(hp, rng) scores one rollout. objective.batch(hps, rngs)
    scores a population, (N_s,) values, with one score call; rollout
    j draws its thetas from rngs[j] alone, so both forms give equal values.
    A callable task_gradient therefore always gets a (N_s * theta_draws, p)
    stack, (theta_draws, p) for one rollout, and returns one gradient row
    per theta (see score).
    """
    if theta_draws < 1:
        raise ValueError("theta_draws must be >= 1")
    p = circuit.num_params

    def batch(hps, rngs) -> np.ndarray:
        thetas = np.empty((len(hps), theta_draws, p))
        for j, (hp, rng) in enumerate(zip(hps, rngs)):
            for d in range(theta_draws):
                thetas[j, d] = sample_params(hp, p, rng)
        raw = score(thetas.reshape(-1, p), circuit, task_gradient, spec,
                    features).reshape(len(hps), theta_draws)
        total = np.zeros(len(hps))
        for d in range(theta_draws):
            total += raw[:, d]
        return total / theta_draws

    def objective(hp: HyperParams, rng: np.random.Generator) -> float:
        return float(batch([hp], [rng])[0])

    objective.batch = batch
    return objective
