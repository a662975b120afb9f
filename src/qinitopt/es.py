"""Evolutionary search over distribution hyperparameters.

Each iteration perturbs the unconstrained hyperparameter vector with N_s
Gaussian rows (antithetic pairs by default), scores one parameter sample per
perturbation, optionally rank-shapes the scores, and ascends the resulting
gradient estimate. Every rollout draws from its own child stream keyed by
(master_seed, iteration, rollout). An objective with a batch form scores the
whole population of an iteration in one call (the initialization objective
sweeps it in chunks, scoring.score); the trajectory is bit-identical
to scoring the rollouts one at a time.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import (HyperParams, child_rng, from_unconstrained,
                            standard_normals, to_unconstrained)
from .scoring import utility_shape


@dataclass(frozen=True)
class EsConfig:
    eta: float = 0.05
    sigma_es: float = 0.1
    n_samples: int = 16
    n_iters: int = 50
    eps_converge: float = 1e-3
    antithetic: bool = True
    use_utility: bool = True

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if not self.sigma_es > 0:
            raise ValueError("sigma_es must be positive")
        if self.n_samples < 2:
            raise ValueError("need at least two rollouts")
        if self.antithetic and self.n_samples % 2:
            raise ValueError("antithetic sampling needs an even population")
        if self.n_iters < 0:
            raise ValueError("n_iters must be non-negative")
        if not self.eps_converge > 0:
            raise ValueError("eps_converge must be positive")


@dataclass
class EsTrace:
    """Per-iteration record of the search; one entry per completed iteration."""

    hyperparams: list = field(default_factory=list)  # constrained values
    unconstrained: list = field(default_factory=list)
    mean_score: list = field(default_factory=list)
    best_score: list = field(default_factory=list)
    update_l1: list = field(default_factory=list)
    converged: bool = False

    @property
    def n_iterations(self) -> int:
        return len(self.update_l1)


def perturbation_matrix(n_samples: int, dim: int, antithetic: bool,
                        rng: np.random.Generator) -> np.ndarray:
    """(n_samples, dim) standard-normal rows; antithetic mirrors the first half."""
    if n_samples < 1 or dim < 1:
        raise ValueError("population and dimension must be at least 1")
    if antithetic:
        if n_samples % 2:
            raise ValueError("antithetic sampling needs an even population")
        half = standard_normals(n_samples // 2 * dim, rng).reshape(-1, dim)
        return np.vstack([half, -half])
    return standard_normals(n_samples * dim, rng).reshape(n_samples, dim)


def es_optimize(score_eval, hp0, cfg: EsConfig, master_seed: int):
    """Maximize E[score] over hyperparameters by evolutionary ascent.

    hp0 may be a HyperParams (searched through its unconstrained view) or a
    plain real vector (searched as-is, useful for direct objectives).
    score_eval(candidate, rng) must return a finite scalar. When score_eval
    has a `batch` attribute, batch(candidates, rngs) scores the whole
    population in one call and returns N_s values; rollout j's rng is the
    same in both forms. Returns the tuned hyperparameters in the input's
    form plus the iteration trace.
    """
    is_hp = isinstance(hp0, HyperParams)
    if is_hp:
        lam = to_unconstrained(hp0)
        materialize = lambda vec: from_unconstrained(hp0.family, vec)
    else:
        lam = np.array(hp0, dtype=float).reshape(-1)
        if lam.size == 0:
            raise ValueError("empty hyperparameter vector")
        materialize = lambda vec: vec.copy()
    batch = getattr(score_eval, "batch", None)
    trace = EsTrace()

    def settle(vec, iteration, hint):
        # a step that leaves the range the family maps back from (an exp
        # over- or underflows) is a step too large, not a bad score; hint
        # names the settings that size the step
        try:
            if np.all(np.isfinite(vec)):
                return materialize(vec)
        except (OverflowError, ValueError):
            pass
        raise FloatingPointError(
            f"ES diverged at iteration {iteration}: the hyperparameters left "
            f"the finite range; lower {hint}")

    for iteration in range(cfg.n_iters):
        gamma = perturbation_matrix(cfg.n_samples, lam.size, cfg.antithetic,
                                    child_rng(master_seed, "perturb", iteration))
        rngs = [child_rng(master_seed, "rollout", iteration, j)
                for j in range(cfg.n_samples)]
        candidates = [settle(lam_p, iteration, "es.sigma_es or es.eta")
                      for lam_p in lam[None, :] + cfg.sigma_es * gamma]
        try:
            if batch is not None:
                raw = np.array(batch(candidates, rngs), dtype=float)
                if raw.shape != (cfg.n_samples,):
                    raise ValueError(f"batch returned shape {raw.shape}, "
                                     f"expected ({cfg.n_samples},)")
            else:
                raw = np.array([float(score_eval(candidate, rng))
                                for candidate, rng in zip(candidates, rngs)])
        except FloatingPointError:
            raise
        except Exception as exc:
            raise RuntimeError(
                f"score evaluation failed at iteration {iteration}") from exc
        if not np.all(np.isfinite(raw)):
            raise FloatingPointError("score evaluation returned a non-finite value")
        zeta = utility_shape(raw) if cfg.use_utility else raw
        if cfg.antithetic:
            # paired form: exact cancellation when both halves score equally
            half = cfg.n_samples // 2
            grad = gamma[:half].T @ (zeta[:half] - zeta[half:])
            grad /= cfg.n_samples * cfg.sigma_es
        else:
            grad = gamma.T @ zeta / (cfg.n_samples * cfg.sigma_es)
        with np.errstate(over="ignore", invalid="ignore"):
            delta = cfg.eta * grad
            lam = lam + delta
        constrained = settle(lam, iteration, "es.eta")
        trace.unconstrained.append(tuple(lam))
        trace.hyperparams.append(tuple(constrained.values) if is_hp
                                 else tuple(constrained))
        trace.mean_score.append(float(raw.mean()))
        trace.best_score.append(float(raw.max()))
        l1 = float(np.sum(np.abs(delta)))
        trace.update_l1.append(l1)
        if l1 <= cfg.eps_converge:
            trace.converged = True
            break
    return materialize(lam), trace
