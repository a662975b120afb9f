"""Initializing distributions for circuit parameters.

Two families: Beta(alpha, beta) scaled onto [0, 2*pi], the full rotation
period, and Gaussian(mu, sigma). Hyperparameter search happens in an
unconstrained view (log alpha, log beta) or (mu, log sigma), so any update
maps back to valid constrained values.

Sampling is built from uniform draws only (Box-Muller normals, Marsaglia-Tsang
gammas): which uniforms a draw consumes then depends on nothing but this
file and the counter-based bit stream, whatever the parallel schedule. The
bits of a draw also pass through numpy's float64 log, exp and power, whose
kernels numpy picks at import from the CPU's features, so draws repeat bit
for bit per numpy build and CPU dispatch level. Under numpy 2.4.6, AVX2
dispatch moves one pinned Beta draw by 1 ulp from AVX-512 dispatch.

Draws from many independent generators step in lockstep
(sample_params_lockstep; sample_params is its one-generator case). Each
generator makes its own rng.random calls in its own order, one call per
Marsaglia-Tsang round (its Box-Muller uniforms, then its acceptance
uniforms), so every stream is kept: a generator's draws and final state
are those it gives alone. The arithmetic of a round runs once over the
values of every generator in it, which keeps each value's bits because an
elementwise ufunc gives an element the same bits at any place in an array.
A lockstep draw does not stop at a failed generator: it finishes, then
raises the error of the lowest generator that failed, the error that
drawing one generator after another raises first.
"""
from __future__ import annotations

from dataclasses import dataclass
import itertools
import math
import zlib

import numpy as np

BETA = "beta"
GAUSSIAN = "gaussian"
FAMILIES = (BETA, GAUSSIAN)

DEFAULT_BETA_SCALE = 2.0 * math.pi

# parameters one lockstep step draws, about: a step's buffers take about 65
# bytes per parameter, so this bounds them near 0.13 MB for any population
LOCKSTEP_VALUES = 2048


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


def _starts(lengths: list) -> list:
    """Where each of back-to-back runs of these lengths starts."""
    return list(itertools.accumulate([0, *lengths]))[:-1]


def _runs(starts: list, lengths: list):
    """Indices of the runs [starts[k], starts[k] + lengths[k]), in order; a
    slice when there is one run."""
    if len(starts) == 1:
        return slice(starts[0], starts[0] + lengths[0])
    shifts = [start - at for start, at in zip(starts, _starts(lengths))]
    return np.arange(sum(lengths)) + np.repeat(shifts, lengths)


def _spread(values: list, lengths: list):
    """values[k] repeated lengths[k] times, in order; the value itself when
    there is one."""
    return values[0] if len(values) == 1 else np.repeat(values, lengths)


def _normal_draws(rngs, need: list, extra: list):
    """(normals, uniforms): need[k] N(0,1) draws by Box-Muller and then
    extra[k] uniforms from generator k, each concatenated over k, from one
    rng.random(2 * pairs + extra[k]) call per generator, pairs =
    (need[k] + 1) // 2. Of those values the first pairs u1 give the radii
    sqrt(-2 log(1 - u1)), the next pairs u2 the angles 2 pi u2, and k's
    normals are its cosine terms, then its sine terms, cut to need[k]."""
    pairs = [(n + 1) // 2 for n in need]
    sizes = [2 * q + e for q, e in zip(pairs, extra)]
    starts = _starts(sizes)
    values = [rng.random(size) for rng, size in zip(rngs, sizes)]
    values = values[0] if len(values) == 1 else np.concatenate(values)
    uniforms = values[_runs([s + 2 * q for s, q in zip(starts, pairs)],
                            extra)]
    cos_at = _runs(starts, pairs)
    sin_at = _runs([s + q for s, q in zip(starts, pairs)], pairs)
    # 1 - u1 lies in (0, 1], which keeps the log finite
    radius = np.sqrt(-2.0 * np.log(1.0 - values[cos_at]))
    angle = 2.0 * np.pi * values[sin_at]
    # each u1, u2 pair is read; its place takes the cosine and sine terms
    values[cos_at] = radius * np.cos(angle)
    values[sin_at] = radius * np.sin(angle)
    return values[_runs(starts, need)], uniforms


def standard_normals(n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. N(0,1) draws via Box-Muller on this generator's uniforms."""
    return _normal_draws([rng], [n], [0])[0]


def _gamma_parts(shapes, counts: list, rngs):
    """counts[k] Gamma(shapes[k], 1) draws from generator k for each k, as
    (g, boosts): g concatenates k's Marsaglia-Tsang draws, at shape + 1
    for a shape below 1 and else at the shape, and boosts[k] holds the
    uniforms of k's U^(1/shape) factor for a shape below 1 (else None),
    drawn before its rounds. Each round draws from every generator still
    short of its count, each from its own stream in its own order, and
    runs the round's arithmetic once over all of their values."""
    d, c, boosts = [], [], []
    for shape, count, rng in zip(shapes, counts, rngs):
        if not 0 < shape < math.inf:  # NaN fails too, where rounds never end
            raise ValueError(f"gamma shape must be positive and finite, "
                             f"got {shape}")
        # Gamma(a) = Gamma(a+1) * U^(1/a)
        boosts.append(rng.random(count) if shape < 1.0 else None)
        a = shape + 1.0 if shape < 1.0 else shape
        d.append(a - 1.0 / 3.0)
        c.append(1.0 / math.sqrt(9.0 * d[-1]))
    g = np.empty(sum(counts))
    starts = _starts(counts)
    filled = [0] * len(counts)
    live = [k for k, count in enumerate(counts) if count]
    while live:
        values, accepted = _gamma_round(
            [rngs[k] for k in live], [counts[k] - filled[k] for k in live],
            [d[k] for k in live], [c[k] for k in live])
        g[_runs([starts[k] + filled[k] for k in live], accepted)] = values
        for k, count in zip(live, accepted):
            filled[k] += count
        live = [k for k in live if filled[k] < counts[k]]
    return g, boosts


def _gamma_round(rngs, need: list, d: list, c: list):
    """One Marsaglia-Tsang round at d = a - 1/3 and c = 1 / sqrt(9 d) per
    generator, need[k] candidates from generator k: (the accepted draws,
    concatenated over k in order, and the count accepted per k)."""
    x, uniform = _normal_draws(rngs, need, need)
    d_x = _spread(d, need)
    v = (1.0 + _spread(c, need) * x) ** 3
    ok = v > 0
    logv = np.log(np.where(ok, v, 1.0))
    ok &= np.log(uniform) < 0.5 * x * x + d_x - d_x * v + d_x * logv
    accepted = ([int(np.count_nonzero(ok))] if len(need) == 1 else
                np.add.reduceat(ok, _starts(need), dtype=int).tolist())
    return (d_x * v)[ok], accepted


def _boosted(g: np.ndarray, boosts, shapes, starts: list) -> np.ndarray:
    """g with each boosted run times its U^(1/shape), a scalar exponent per
    generator."""
    if all(u is None for u in boosts):
        return g
    out = g.copy()
    for u, shape, start in zip(boosts, shapes, starts):
        if u is not None:
            run = slice(start, start + u.size)
            out[run] = g[run] * u ** (1.0 / shape)
    return out


def _log_boosted(g: np.ndarray, u: np.ndarray | None, shape: float,
                 rows: np.ndarray, unit: float) -> np.ndarray:
    """unit * log of g * u^(1/shape) at rows: finite where that
    underflows, and for unit <= shape also where 1/shape overflows."""
    log_g = np.log(g[rows]) * unit
    return log_g if u is None else log_g + np.log(u[rows]) * (unit / shape)


def gamma_samples(shape: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Gamma(shape, 1) draws via Marsaglia-Tsang squeeze rejection."""
    g, boosts = _gamma_parts([shape], [n], [rng])
    return _boosted(g, boosts, [shape], [0])


def _beta_draws(alphas, betas, counts: list, rngs) -> np.ndarray:
    """counts[k] Beta(alphas[k], betas[k]) draws from generator k for each
    k, concatenated: each generator draws its Gamma(alpha) values, then its
    Gamma(beta) values, and beta_samples' quotient follows."""
    starts = _starts(counts)
    gx, ux = _gamma_parts(alphas, counts, rngs)
    gy, uy = _gamma_parts(betas, counts, rngs)
    x = _boosted(gx, ux, alphas, starts)
    y = _boosted(gy, uy, betas, starts)
    with np.errstate(over="ignore"):
        total = x + y
    under = total == 0.0
    out = x / np.where(under, 1.0, total)
    over = np.isinf(total)  # halving is exact at these magnitudes
    out[over] = x[over] / 2.0 / (x[over] / 2.0 + y[over] / 2.0)
    if not under.any():
        return out
    for k, (start, count) in enumerate(zip(starts, counts)):
        run = slice(start, start + count)
        rows = under[run]
        if not rows.any():
            continue
        unit = min(alphas[k], betas[k])
        with np.errstate(over="ignore"):  # |t| = inf still gives 0 or 1
            log_ratio = (
                _log_boosted(gy[run], uy[k], betas[k], rows, unit)
                - _log_boosted(gx[run], ux[k], alphas[k], rows, unit)) / unit
        # 1 / (1 + e^t) without overflow for large t
        out[run][rows] = np.exp(-np.logaddexp(0.0, log_ratio))
    return out


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
    return _beta_draws([alpha], [beta], [n], [rng])


def _lockstep_draw(hps, ps: list, rngs, failed: dict) -> np.ndarray:
    """One theta per generator, concatenated: theta k of length ps[k] from
    hps[k] and rngs[k]. A Gaussian theta that overflows puts its
    FloatingPointError in failed[k], unless k failed before."""
    theta = np.empty(sum(ps))
    starts = _starts(ps)
    for family in FAMILIES:
        rows = [k for k, hp in enumerate(hps) if hp.family == family]
        if not rows:
            continue
        counts = [ps[k] for k in rows]
        own = [rngs[k] for k in rows]
        first, second = zip(*(hps[k].values for k in rows))
        if family == BETA:
            draws = DEFAULT_BETA_SCALE * _beta_draws(first, second, counts, own)
        else:
            with np.errstate(over="ignore"):
                draws = (_spread(first, counts) + _spread(second, counts)
                         * _normal_draws(own, counts, [0] * len(rows))[0])
            finite = np.logical_and.reduceat(np.isfinite(draws),
                                             _starts(counts))
            for k, ok in zip(rows, finite.tolist()):
                if not ok:
                    failed.setdefault(k, FloatingPointError(
                        f"Gaussian(mu={hps[k].mu}, sigma={hps[k].sigma}) "
                        f"draws overflow the float range"))
        theta[_runs([starts[k] for k in rows], counts)] = draws
    return theta


def sample_params_lockstep(hps, ps, rngs, draws: int = 1) -> list:
    """draws parameter vectors per generator, the generators stepped in
    lockstep: entry k is a (draws, ps[k]) array whose row i equals, byte
    for byte, the i-th of draws sample_params(hps[k], ps[k], rngs[k])
    calls made one after another, and each generator ends in the state
    those calls leave it in.

    Each generator makes its own rng.random calls in its own order, and
    each Marsaglia-Tsang round's arithmetic runs once over the values of
    every generator in the round. Consecutive generators step together in
    groups of about LOCKSTEP_VALUES parameters per step. The generators
    must be distinct objects. An error does not stop the other
    generators: the draw finishes, then raises the error of the lowest k
    that failed (at its first failed draw), which is the error that
    drawing one generator after another raises.
    """
    ps = list(ps)
    if not len(hps) == len(ps) == len(rngs):
        raise ValueError("need one p and one generator per hyperparameter")
    if len({id(rng) for rng in rngs}) < len(rngs):
        raise ValueError("each theta needs its own generator")
    if min(ps, default=1) < 1:
        raise ValueError("need at least one parameter")
    if draws < 1:
        raise ValueError("need at least one draw")
    out = [np.empty((draws, p)) for p in ps]
    failed = {}
    for group in _groups(ps, LOCKSTEP_VALUES):
        own = [ps[k] for k in group]
        local = {}  # k - group.start -> its error
        for i in range(draws):
            theta = _lockstep_draw([hps[k] for k in group], own,
                                   [rngs[k] for k in group], local)
            for k, start in zip(group, _starts(own)):
                out[k][i] = theta[start:start + ps[k]]
        failed.update((group.start + k, exc) for k, exc in local.items())
    if failed:
        raise failed[min(failed)]
    return out


def _groups(ps: list, cap: int) -> list:
    """Consecutive ranges of indices into ps, as few as hold about cap
    parameters each and of equal length but for the last."""
    size = -(-len(ps) // -(-sum(ps) // cap)) if ps else 1
    return [range(k, min(k + size, len(ps))) for k in range(0, len(ps), size)]


def sample_params(hp: HyperParams, p: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw a circuit parameter vector theta of length p from p(theta | hp):
    sample_params_lockstep on one generator.

    Raises FloatingPointError when a Gaussian draw overflows, as finite
    mu and sigma near the float maximum can make it."""
    return sample_params_lockstep([hp], [p], [rng])[0][0]


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
