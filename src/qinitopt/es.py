"""Evolutionary search over distribution hyperparameters.

Each iteration perturbs the unconstrained hyperparameter vector with N_s
Gaussian rows (antithetic pairs by default), scores one parameter sample per
perturbation, optionally rank-shapes the scores, and ascends the resulting
gradient estimate. Every rollout draws from its own child stream keyed by
(master_seed, iteration, rollout). An objective with a batch form scores the
whole population of an iteration in one call (the initialization objective
sweeps it in chunks, scoring.score); the trajectory is bit-identical
to scoring the rollouts one at a time.

EsSearch is one search as an ask/tell stepper: ask() gives an iteration's
candidates and rollout generators, tell(raw) takes their scores and does
the rest of the iteration (the checks, the update, the trace and the
convergence test). es_lockstep is the one loop over steppers: it steps
several searches together, in list order, and scores the union of their
populations with one batch call per iteration; a search leaves once it
converges or reaches n_iters. Each search keeps its own streams, so its
trajectory is the one it has alone, and a failure is reported as a run of
the searches one after another reports it. es_optimize is es_lockstep on
one search. The driver holds every iteration's rollout generators in one
place.
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


class EsSearch:
    """One search as an ask/tell stepper.

    hp0 may be a HyperParams (searched through its unconstrained view) or a
    plain real vector (searched as-is, useful for direct objectives). ask()
    returns the iteration's candidates in hp0's form and their rollout
    generators; tell(raw) takes their N_s raw scores and takes the step.
    ask() depends only on the search's state, so asking again before tell
    gives the same candidates and fresh generators of the same streams.
    done is set once the search converges or has run n_iters iterations;
    result() gives the hyperparameters in hp0's form and the trace.
    """

    def __init__(self, hp0, cfg: EsConfig, master_seed: int):
        self.cfg = cfg
        self.master_seed = master_seed
        self._family = hp0.family if isinstance(hp0, HyperParams) else None
        if self._family is not None:
            self._lam = to_unconstrained(hp0)
        else:
            self._lam = np.array(hp0, dtype=float).reshape(-1)
            if self._lam.size == 0:
                raise ValueError("empty hyperparameter vector")
        self.trace = EsTrace()
        self._gamma = None

    @property
    def iteration(self) -> int:
        return self.trace.n_iterations

    @property
    def done(self) -> bool:
        return self.trace.converged or self.iteration >= self.cfg.n_iters

    def _materialize(self, vec):
        return (vec.copy() if self._family is None
                else from_unconstrained(self._family, vec))

    def _settle(self, vec, hint):
        # a step that leaves the range the family maps back from (an exp
        # over- or underflows) is a step too large, not a bad score; hint
        # names the settings that size the step
        try:
            if np.all(np.isfinite(vec)):
                return self._materialize(vec)
        except (OverflowError, ValueError):
            pass
        raise FloatingPointError(
            f"ES diverged at iteration {self.iteration}: the hyperparameters "
            f"left the finite range; lower {hint}")

    def ask(self):
        """(candidates, rngs) of this iteration's N_s rollouts."""
        cfg, iteration = self.cfg, self.iteration
        self._gamma = perturbation_matrix(
            cfg.n_samples, self._lam.size, cfg.antithetic,
            child_rng(self.master_seed, "perturb", iteration))
        rngs = [child_rng(self.master_seed, "rollout", iteration, j)
                for j in range(cfg.n_samples)]
        with np.errstate(over="ignore", invalid="ignore"):
            perturbed = self._lam[None, :] + cfg.sigma_es * self._gamma
        return [self._settle(lam_p, "es.sigma_es or es.eta")
                for lam_p in perturbed], rngs

    def tell(self, raw) -> None:
        """Step on the (N_s,) raw scores of the last ask's candidates."""
        cfg, gamma, iteration = self.cfg, self._gamma, self.iteration
        raw = np.asarray(raw, dtype=float)
        if not np.all(np.isfinite(raw)):
            raise FloatingPointError("score evaluation returned a non-finite value")
        zeta = utility_shape(raw) if cfg.use_utility else raw
        with np.errstate(over="ignore", invalid="ignore"):
            if cfg.antithetic:
                # paired form: exact cancellation when both halves score
                # equally
                half = cfg.n_samples // 2
                grad = gamma[:half].T @ (zeta[:half] - zeta[half:])
                grad /= cfg.n_samples * cfg.sigma_es
            else:
                grad = gamma.T @ zeta / (cfg.n_samples * cfg.sigma_es)
            delta = cfg.eta * grad
            lam = self._lam + delta
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError(
                f"ES diverged at iteration {iteration}: the search gradient "
                f"overflowed; raise es.sigma_es")
        constrained = self._settle(lam, "es.eta")
        self._lam = lam
        trace = self.trace
        trace.unconstrained.append(tuple(lam))
        trace.hyperparams.append(tuple(constrained.values)
                                 if self._family is not None
                                 else tuple(constrained))
        trace.mean_score.append(float(raw.mean()))
        trace.best_score.append(float(raw.max()))
        l1 = float(np.sum(np.abs(delta)))
        trace.update_l1.append(l1)
        trace.converged = l1 <= cfg.eps_converge

    def result(self):
        """(hyperparameters in hp0's form, EsTrace)."""
        return self._materialize(self._lam), self.trace


def es_optimize(score_eval, hp0, cfg: EsConfig, master_seed: int):
    """Maximize E[score] over hyperparameters by evolutionary ascent.

    hp0 may be a HyperParams (searched through its unconstrained view) or a
    plain real vector (searched as-is, useful for direct objectives).
    score_eval(candidate, rng) must return a finite scalar. When score_eval
    has a `batch` attribute, batch(candidates, rngs) scores the whole
    population in one call and returns N_s values; rollout j's rng is the
    same in both forms. Returns the tuned hyperparameters in the input's
    form plus the iteration trace. This is es_lockstep on one search.
    """
    batch = getattr(score_eval, "batch", None) or (
        lambda candidates, rngs: [float(score_eval(candidate, rng))
                                  for candidate, rng in zip(candidates, rngs)])
    outcome, = es_lockstep(lambda candidates, rngs, owners:
                           batch(candidates, rngs),
                           [EsSearch(hp0, cfg, master_seed)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _union_scores(batch, searches, asked: dict) -> dict:
    """{k: raw scores} of each asked search k, from one batch call over the
    union of the asked populations. asked maps k to ask()'s (candidates,
    rngs); owners[j] is the k that union rollout j belongs to. A
    FloatingPointError passes unchanged; any other failure, a wrong shape
    included, is raised as "score evaluation failed at iteration i" from
    its cause."""
    candidates, rngs, owners = [], [], []
    for k, (own, gens) in asked.items():
        candidates += own
        rngs += gens
        owners += [k] * len(own)
    try:
        raw = np.array(batch(candidates, rngs, owners), dtype=float)
        if raw.shape != (len(candidates),):
            raise ValueError(f"batch returned shape {raw.shape}, "
                             f"expected ({len(candidates)},)")
    except FloatingPointError:
        raise
    except Exception as exc:
        iteration = searches[next(iter(asked))].iteration
        raise RuntimeError(
            f"score evaluation failed at iteration {iteration}") from exc
    scores, start = {}, 0
    for k, (own, _) in asked.items():
        scores[k] = raw[start:start + len(own)].copy()
        start += len(own)
    return scores


def es_lockstep(batch, searches: list) -> list:
    """Step several EsSearch objects together, in list order, with one
    batch(candidates, rngs, owners) call per iteration over the union of
    the populations of the searches still running; owners[j] is the list
    index of the search that rollout j belongs to. A search leaves the
    stack once it is done. Row j of a batch must score the bits its
    candidate and generator give alone, as initialization_objective's do,
    so each search's trajectory is the one it has alone.

    Returns, in list order, each search's (hyperparameters, trace) up to
    the first search that failed, whose entry is the exception it raised:
    the error a run of the searches one after another raises, where a
    later search never starts. So a search that fails stops every later
    one, and the earlier ones run on. When a union call fails, the
    iteration scores each search's population alone, with fresh generators
    from a second ask, so every search gets the scores or the error that
    its own run gets (a non-finite score fails only its own search).
    """
    failed = {}  # list index -> the exception that search raised
    while True:
        asked = {}
        for k in range(min(failed, default=len(searches))):
            if searches[k].done:
                continue
            try:
                asked[k] = searches[k].ask()
            except Exception as exc:
                failed[k] = exc
                break
        if not asked:
            break
        try:
            scores = _union_scores(batch, searches, asked)
        except Exception as exc:
            scores = {k: exc for k in asked} if len(asked) == 1 else (
                _alone(batch, searches, asked))
        for k, raw in scores.items():
            if not isinstance(raw, Exception):
                try:
                    searches[k].tell(raw)
                    continue
                except Exception as exc:
                    raw = exc
            failed[k] = raw
            break
    first = min(failed, default=len(searches))
    return [search.result() for search in searches[:first]] + (
        [failed[first]] if failed else [])


def _alone(batch, searches, asked: dict) -> dict:
    """{k: raw scores} from one batch call per asked search, in order, up
    to the first that fails, whose entry is its exception. Each search asks
    again, for fresh generators of the streams the failed union call drew
    from."""
    scores = {}
    for k in asked:
        try:
            scores.update(_union_scores(batch, searches,
                                        {k: searches[k].ask()}))
        except Exception as exc:
            scores[k] = exc
            break
    return scores
