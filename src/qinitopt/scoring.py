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
score got, a (p,) theta or the (k, p) stack of the rows that read
gradients, in one call. score takes a score kind per row as well as one
for the whole stack: each row gets the bits its kind gives alone, with
one Fisher call over the S1 and S3 rows and at most one gradient call
over the rest. The search objective draws a whole ES population's thetas
in lockstep and scores them through score in one call, or the union
population of several searches (es.es_lockstep) with each rollout's own
kind.
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
from .distributions import HyperParams, sample_params_lockstep
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
          spec: ScoreSpec = ScoreSpec(), features=None, kinds=None):
    """The raw score of a (p,) parameter vector as a float, or of each row
    of a (B, p) stack as a (B,) array.

    kinds, when given, names the score kind of each row (B entries, one
    for a (p,) theta) in place of spec.kind; spec's other fields apply to
    every row. S1 and S3 rows read the QFIM, S2 and S3 rows (and every row
    on the empirical rung) read the task gradient. One Fisher call runs
    over the rows that read the QFIM and at most one gradient call over
    the other rows that read gradients. A one-kind stack runs this same
    code, and no mix of kinds changes a row's bits.

    task_gradient is the task cost's gradient, required whenever a row
    reads gradients: the Pauli sum H of a cost <psi|H|psi> as an
    Observable, or a callable. At omega=trace the exact and the
    block-diagonal rung read the QFIM's trace off qfim_trace, one forward
    run of one row per theta, and no derivative sweep runs. At log_det or
    harmonic one qfim call builds the QFIM stack, or on the exact rung,
    when S3 rows take a Pauli sum's gradient, one
    qfim_and_observable_gradient call, whose sweeps give both; one
    omega_reduce call reduces the stack. Other gradients come from one
    observable_gradient adjoint call or one call of the callable. The
    empirical rung keeps the rank-one surrogate, whose trace is |g|^2.
    A row's bits depend on its kind, the fidelity and omega alone, not on
    B or the other rows, so a row scores the same bits in any batch. Its
    path does too, but for S1 rows beside S3 rows in that swept call:
    they share it, and the gradient it takes of them goes unused (a small
    share of that call, less than a second Fisher call costs).
    A callable gets a (p,) theta when score was given one, returning
    (p,), and otherwise the (k, p) stack of the rows it serves, returning
    (k, p). Row b of its result must hold the bits theta b gives alone, as
    QmlTask.gradient's and observable_gradient's rows do, for the batch
    to keep that property.
    Raises ValueError on a non-finite raw score.
    """
    thetas, batched = _batch_of(theta, circuit.num_params)
    kinds = [spec.kind] * len(thetas) if kinds is None else list(kinds)
    if len(kinds) != len(thetas) or not set(kinds) <= set(SCORE_KINDS):
        raise ValueError(f"kinds must name one of {', '.join(SCORE_KINDS)} "
                         f"per theta")
    graded = np.array([kind != S1 for kind in kinds])  # has a gradient part
    fisher_rows = np.flatnonzero([kind != S2 for kind in kinds])
    fidelity = qfim_fidelity(circuit) if len(fisher_rows) else None
    grad_rows = (np.arange(len(thetas)) if fidelity == FIDELITY_EMPIRICAL
                 else np.flatnonzero(graded))
    if len(grad_rows) and task_gradient is None:
        raise ValueError(
            "gradient-based scores need a task gradient" if graded.any()
            else "untagged circuit above the exact threshold needs a task "
            "gradient for the empirical QFIM")
    is_pauli_sum = isinstance(task_gradient, Observable)
    fisher = None
    fisher_part = np.zeros(len(thetas))
    grads = np.zeros(thetas.shape)
    unswept = grad_rows
    if spec.omega == TRACE and fidelity in (FIDELITY_EXACT, FIDELITY_BLOCK):
        fisher_part[fisher_rows] = (
            qfim_trace(circuit, thetas[fisher_rows], features)
            + circuit.num_params * spec.eps)
    elif fidelity == FIDELITY_EXACT and is_pauli_sum and S3 in kinds:
        # the exact QFIM's forward sweep has the state derivatives anyway
        fisher, grads[fisher_rows] = qfim_and_observable_gradient(
            circuit, thetas[fisher_rows], task_gradient, features)
        unswept = np.flatnonzero([kind == S2 for kind in kinds])
    elif fidelity in (FIDELITY_EXACT, FIDELITY_BLOCK):
        fisher = qfim(circuit, thetas[fisher_rows], features)
    if len(unswept):
        grads[unswept] = (
            observable_gradient(circuit, thetas[unswept], task_gradient,
                                features) if is_pauli_sum else
            np.asarray(task_gradient(thetas[unswept] if batched
                                     else thetas[0]),
                       dtype=float).reshape(len(unswept), circuit.num_params))
    if fidelity == FIDELITY_EMPIRICAL:
        fisher = qfim_empirical(grads[fisher_rows])
    if fisher is not None:
        fisher_part[fisher_rows] = omega_reduce(fisher, spec)
    raw = fisher_part
    if graded.any():
        part = order_statistic(grads[graded], spec.t)
        blend = np.array([kind == S3 for kind in kinds if kind != S1])
        part[blend] = ((1.0 - spec.w) * fisher_part[graded][blend]
                       + spec.w * part[blend])
        raw[graded] = part
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

    objective(hp, rng) scores one rollout. objective.batch(hps, rngs,
    kinds=None) scores a population, (N_s,) values, with one score call.
    It draws every rollout's thetas with one lockstep call
    (distributions.sample_params_lockstep): rollout j draws its
    theta_draws thetas from rngs[j] alone, in order, so both forms give
    equal values, and a failed draw raises the error that drawing the
    rollouts one after another raises. kinds, when given, names each
    rollout's score kind in place of spec.kind, so one call can score the
    union population of several searches (es.es_lockstep) and each
    rollout still gets the value its own search's call gives it. A
    callable task_gradient gets one stack of the thetas whose kind reads
    gradients (every theta on the empirical rung), theta_draws rows per
    such rollout, and returns one gradient row per theta (see score).
    """
    if theta_draws < 1:
        raise ValueError("theta_draws must be >= 1")
    p = circuit.num_params

    def batch(hps, rngs, kinds=None) -> np.ndarray:
        thetas = np.stack(sample_params_lockstep(hps, [p] * len(hps), rngs,
                                                 theta_draws))
        raw = score(thetas.reshape(-1, p), circuit, task_gradient, spec,
                    features, None if kinds is None else
                    [kind for kind in kinds for _ in range(theta_draws)]
                    ).reshape(len(hps), theta_draws)
        total = np.zeros(len(hps))
        for d in range(theta_draws):
            total += raw[:, d]
        return total / theta_draws

    def objective(hp: HyperParams, rng: np.random.Generator) -> float:
        return float(batch([hp], [rng])[0])

    objective.batch = batch
    return objective
