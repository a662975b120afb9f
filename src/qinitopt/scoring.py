"""Score functions rating how trainable a parameter initialization is.

Three scores, all maximized: S1 reduces the QFIM to a scalar capacity
measure, S2 is the mean t-th power of gradient magnitudes, and S3 blends the
two with weight w. score rates one (p,) parameter vector or each row of a
(B, p) stack, by one path. A Pauli-sum task gradient comes from the forward
sweep of the exact QFIM when the score builds one (S3 at p <= 64), and from
adjoint passes otherwise (S2 always; S3 and the empirical S1 above the
threshold). The search objective scores a whole ES population through it.
Rank-based utility shaping turns raw population scores into the zero-sum
targets the evolutionary update consumes.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .differentiation import (FIDELITY_BLOCK, FIDELITY_EMPIRICAL,
                              FIDELITY_EXACT, _in_chunks, _theta_batch,
                              hermitian_eigenvalues, observable_gradient,
                              pauli_sum_gradients, qfim_block_diagonal,
                              qfim_fidelity, qfims_from_states,
                              state_derivatives)
from .distributions import DEFAULT_BETA_SCALE, HyperParams, sample_params
from .simulator import Circuit, Observable

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
    with np.errstate(over="ignore", divide="ignore"):
        total = spec.big_k * np.sum(1.0 / values[:min(spec.k_eigs, p)])
    if not np.isfinite(total):
        raise ValueError(
            f"raw score must be finite, but the harmonic sum is {total} at "
            f"score.big_k = {spec.big_k:g} and score.eps = {spec.eps:g}")
    return float(total)


def order_statistic(grad, t: int) -> float:
    """Mean t-th power of gradient magnitudes, (1/p) sum |g_mu|^t."""
    grad = np.asarray(grad, dtype=float)
    if grad.size == 0:
        raise ValueError("gradient is empty")
    if t < 1:
        raise ValueError("t must be >= 1")
    return float(np.mean(np.abs(grad) ** t))


def score(theta, circuit: Circuit, task_gradient=None,
          spec: ScoreSpec = ScoreSpec(), features=None):
    """The raw score of a (p,) parameter vector as a float, or of each row
    of a (B, p) stack as a (B,) array.

    task_gradient is the task cost's gradient, required whenever the score
    reads gradients (S2, S3 and the empirical QFIM): a callable
    theta -> (p,), called per row, or the Pauli sum H of a cost
    <psi|H|psi> as an Observable. The exact QFIM takes one forward sweep
    per chunk of sweep_batch_size thetas, and the Pauli-sum gradients
    2 Re<H psi|d_mu psi> read that sweep's derivatives. On every other
    path they come from observable_gradient's adjoint passes, two rows per
    theta, and block-diagonal QFIMs take forward sweeps of their own; each
    pass is chunked by the height of its own buffer, and each chunk's QFIMs
    are reduced before the next chunk runs. The path depends on the
    fidelity alone, not on B, so a row scores the same bits in any batch.
    Raises ValueError on a non-finite raw score.
    """
    thetas, batched = _theta_batch(circuit, theta)
    fidelity = qfim_fidelity(circuit) if spec.kind in (S1, S3) else None
    needs_grad = spec.kind in (S2, S3) or fidelity == FIDELITY_EMPIRICAL
    if needs_grad and task_gradient is None:
        raise ValueError(
            "gradient-based scores need a task gradient" if spec.kind != S1
            else "untagged circuit above the exact threshold needs a task "
            "gradient for the empirical QFIM")
    is_pauli_sum = isinstance(task_gradient, Observable)
    # the exact QFIM's forward sweep has the state derivatives anyway
    swept = needs_grad and is_pauli_sum and fidelity == FIDELITY_EXACT

    def reduced(fishers):
        return np.array([omega_reduce(f, spec) for f in fishers])

    def exact(chunk):
        states = state_derivatives(circuit, chunk, features)
        fisher = reduced(qfims_from_states(*states))
        if not swept:
            return (fisher,)
        return fisher, pauli_sum_gradients(*states, task_gradient)

    def block(chunk):
        blocks = qfim_block_diagonal(circuit, chunk, features)
        return (reduced(blocks.entries),)

    fisher_part = grads = None
    if fidelity == FIDELITY_EXACT:
        fisher_part, *swept_grads = _in_chunks(circuit, thetas, None, exact)
    elif fidelity == FIDELITY_BLOCK:
        fisher_part, = _in_chunks(circuit, thetas, None, block)
    if swept:
        grads, = swept_grads
    elif needs_grad and is_pauli_sum:
        grads = observable_gradient(circuit, thetas, task_gradient, features)
    elif needs_grad:
        grads = np.array([task_gradient(row) for row in thetas],
                         dtype=float).reshape(thetas.shape)
    if fidelity == FIDELITY_EMPIRICAL:
        fisher_part = reduced(np.outer(g, g) for g in grads)
    if spec.kind == S1:
        raw = fisher_part
    else:
        grad_part = np.array([order_statistic(g, spec.t) for g in grads])
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
                             scale: float = DEFAULT_BETA_SCALE,
                             theta_draws: int = 1):
    """Objective for the hyperparameter search: theta ~ p(theta | hp), then
    score(theta), averaged over theta_draws independent draws.

    objective(hp, rng) scores one rollout. objective.batch(hps, rngs)
    scores a population, (N_s,) values, with one score call; rollout
    j draws its thetas from rngs[j] alone, so both forms give equal values.
    """
    if theta_draws < 1:
        raise ValueError("theta_draws must be >= 1")
    p = circuit.num_params

    def batch(hps, rngs) -> np.ndarray:
        thetas = np.empty((len(hps), theta_draws, p))
        for j, (hp, rng) in enumerate(zip(hps, rngs)):
            for d in range(theta_draws):
                thetas[j, d] = sample_params(hp, p, rng, scale)
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
