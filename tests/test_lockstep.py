"""Searches stepped in lockstep: the driver, the score of a stack with a kind
per row, the CLI commands that run their searches together, and the
lockstep draws of the objective and bp-scan, whose errors come in the
order of draws made one generator after another."""
import math
import pathlib

import numpy as np
import pytest

from qinitopt import cli, differentiation, scoring
from qinitopt.cli import cmd_bp_scan, cmd_qml, cmd_vqe, resolve_config
from qinitopt.distributions import (GAUSSIAN, HyperParams, child_rng,
                                    manual_baseline, sample_params)
from qinitopt.es import EsConfig, EsSearch, es_lockstep, es_optimize
from qinitopt.scoring import (OMEGA_KINDS, S1, S2, S3, TRACE, ScoreSpec,
                              initialization_objective, score)
from qinitopt.simulator import (Circuit, Observable, build_hea,
                                build_strongly_entangling)

REPO = pathlib.Path(__file__).resolve().parent.parent
TOY = str(REPO / "hamiltonians" / "toy_2q.txt")
WINE = str(REPO / "datasets" / "wine.csv")


def noisy_quadratic(center):
    """A toy objective over a vector or a HyperParams' values."""
    def objective(candidate, rng):
        lam = np.asarray(getattr(candidate, "values", candidate))
        return -float(np.sum((lam - center) ** 2)) + 0.01 * rng.random()
    return objective


def union_batch(objectives, seen=None):
    """The driver's batch over per-search toy objectives; seen, when given,
    collects the owners of each call."""
    def batch(candidates, rngs, owners):
        if seen is not None:
            seen.append(list(owners))
        return [objectives[k](c, r) for c, r, k in zip(candidates, rngs,
                                                        owners)]
    return batch


def test_lockstep_steps_each_search_as_it_steps_alone():
    """Searches of different sizes and lengths, one of which converges
    early, each keep es_optimize's trajectory by ==, and leave the union
    once done."""
    runs = [(noisy_quadratic(2.0), np.zeros(3),
             EsConfig(n_iters=6, eps_converge=1e-12), 1),
            # a constant score converges after its first iteration
            (lambda lam, rng: 7.0, np.array([1.5, -2.0]),
             EsConfig(n_iters=6, use_utility=False), 2),
            (noisy_quadratic(-1.0), HyperParams(GAUSSIAN, (0.4, 0.9)),
             EsConfig(n_samples=6, n_iters=3, eps_converge=1e-12), 3)]
    seen = []
    outcomes = es_lockstep(
        union_batch([run[0] for run in runs], seen),
        [EsSearch(hp0, cfg, seed) for _, hp0, cfg, seed in runs])
    assert len(outcomes) == 3
    for (objective, hp0, cfg, seed), (got, trace) in zip(runs, outcomes):
        want, want_trace = es_optimize(objective, hp0, cfg, seed)
        assert trace == want_trace
        if isinstance(want, HyperParams):
            assert got == want
        else:
            assert np.array_equal(got, want)
    assert [len(owners) for owners in seen] == [38, 22, 22, 16, 16, 16]
    assert seen[1] == [0] * 16 + [2] * 6


def test_lockstep_returns_the_first_error_in_list_order():
    """Search 1 fails at iteration 0 and search 0 at iteration 2: a run of
    the searches one after another raises search 0's error, so the driver
    returns that error, unchanged, and search 2 stops with search 1."""
    searches = [EsSearch(np.zeros(2), EsConfig(n_iters=5), seed)
                for seed in range(3)]
    failing = {(0, 2), (1, 0)}
    seen = []

    def batch(candidates, rngs, owners):
        seen.append(sorted(set(owners)))
        for k in owners:
            if (k, searches[k].iteration) in failing:
                raise ZeroDivisionError(f"search {k}")
        return [-float(np.sum(c ** 2)) for c in candidates]

    outcomes = es_lockstep(batch, searches)
    assert len(outcomes) == 1
    error = outcomes[0]
    assert isinstance(error, RuntimeError)
    assert str(error) == "score evaluation failed at iteration 2"
    assert repr(error.__cause__) == repr(ZeroDivisionError("search 0"))
    # the failed union, then each search alone up to the first that fails
    assert seen == [[0, 1, 2], [0], [1], [0], [0]]

    rollouts = iter(range(1000))

    def alone(lam, rng):
        # the first rollout of iteration 2, at 16 rollouts an iteration
        if next(rollouts) == 2 * 16:
            raise ZeroDivisionError("search 0")
        return -float(np.sum(lam ** 2))
    with pytest.raises(RuntimeError) as solo:
        es_optimize(alone, np.zeros(2), EsConfig(n_iters=5), 0)
    assert str(solo.value) == str(error)
    assert repr(solo.value.__cause__) == repr(error.__cause__)


def test_lockstep_keeps_an_ask_or_tell_error_unchanged():
    """A perturbation that leaves the finite range (ask) and a search
    gradient that overflows (tell) fail their own search with the error
    es_optimize raises; the earlier search runs on."""
    quadratic = noisy_quadratic(0.5)
    first = (np.zeros(2), EsConfig(n_iters=3), 8)
    for late in ((HyperParams(GAUSSIAN, (0.0, 1.0)),
                  EsConfig(sigma_es=1e300, n_iters=3), 9),
                 (np.zeros(2), EsConfig(sigma_es=5e-324, use_utility=False,
                                        n_iters=3), 9)):
        outcomes = es_lockstep(union_batch([quadratic, quadratic]),
                               [EsSearch(*first), EsSearch(*late)])
        assert len(outcomes) == 2
        assert outcomes[0][1] == es_optimize(quadratic, *first)[1]
        with pytest.raises(FloatingPointError) as solo:
            es_optimize(quadratic, *late)
        assert type(outcomes[1]) is FloatingPointError
        assert str(outcomes[1]) == str(solo.value)
        assert str(solo.value).startswith("ES diverged at iteration 0")


def nan_gradient(thetas):
    return np.full(np.shape(thetas), np.nan)


@pytest.mark.parametrize("kinds", [(S1, S3, S2), (S2, S1)])
def test_a_non_finite_score_fails_only_its_own_search(kinds):
    """With a NaN task gradient, S2 and S3 rows score NaN and S1 rows do
    not: the first gradient search fails with the error chain of its solo
    run, and S1 runs on unless it comes later."""
    circuit = build_hea(1, 2)
    objective = initialization_objective(circuit, ScoreSpec(),
                                         task_gradient=nan_gradient)
    cfg = EsConfig(n_iters=2)
    hp0 = HyperParams(GAUSSIAN, (0.3, 0.4))
    outcomes = es_lockstep(
        lambda candidates, rngs, owners: objective.batch(
            candidates, rngs, [kinds[k] for k in owners]),
        [EsSearch(hp0, cfg, seed) for seed in range(len(kinds))])
    failed = next(k for k, kind in enumerate(kinds) if kind != S1)
    assert len(outcomes) == failed + 1
    for k in range(failed):
        solo = initialization_objective(circuit, ScoreSpec(kind=kinds[k]),
                                        task_gradient=nan_gradient)
        assert outcomes[k][1] == es_optimize(solo, hp0, cfg, k)[1]
    solo = initialization_objective(circuit, ScoreSpec(kind=kinds[failed]),
                                    task_gradient=nan_gradient)
    with pytest.raises(RuntimeError) as alone:
        es_optimize(solo, hp0, cfg, failed)
    error = outcomes[failed]
    assert str(error) == str(alone.value) == (
        "score evaluation failed at iteration 0")
    assert repr(error.__cause__) == repr(alone.value.__cause__) == repr(
        ValueError("raw score must be finite"))


def count_engines(monkeypatch):
    """Rows of each Fisher and gradient call that score makes."""
    calls = {}

    def counted(name, engine):
        def wrapper(circuit, thetas, *args):
            calls.setdefault(name, []).append(len(thetas))
            return engine(circuit, thetas, *args)
        return wrapper
    for name in ("qfim_trace", "qfim", "qfim_and_observable_gradient",
                 "observable_gradient"):
        monkeypatch.setattr(scoring, name,
                            counted(name, getattr(scoring, name)))
    return calls


def untagged(circuit):
    return Circuit(circuit.num_qubits, circuit.gates, circuit.num_params)


@pytest.mark.parametrize("omega", OMEGA_KINDS)
@pytest.mark.parametrize("rung", ["exact", "block_diagonal", "empirical"])
@pytest.mark.parametrize("callable_gradient", [False, True])
def test_score_with_a_kind_per_row_equals_each_kind_alone(
        monkeypatch, omega, rung, callable_gradient):
    """Each row of a mixed-kind stack scores the bits of a one-kind stack,
    with one Fisher call over the S1 and S3 rows and at most one gradient
    call over the rest; on the exact rung at log_det and harmonic the S3
    rows keep the swept Pauli-sum gradient and the S2 rows the adjoint."""
    if rung == "exact":
        circuit = build_strongly_entangling(2, 3)
    else:
        circuit = build_strongly_entangling(8, 3)  # p = 72
        if rung == "empirical":
            circuit = untagged(circuit)
    assert differentiation.qfim_fidelity(circuit) == rung
    obs = Observable(((1.0, "ZZZ"), (0.5, "XIY")))
    grad_calls = []

    def grad_fn(thetas):
        grad_calls.append(len(thetas))
        return differentiation.observable_gradient(circuit, thetas, obs)
    source = grad_fn if callable_gradient else obs
    spec = ScoreSpec(omega=omega, w=0.3)
    rng = np.random.default_rng(25)
    kinds = [S2, S1, S3, S3, S1, S2, S1]
    thetas = rng.uniform(0, 2 * math.pi, (len(kinds), circuit.num_params))
    alone = {kind: score(thetas, circuit, source,
                         ScoreSpec(kind=kind, omega=omega, w=0.3))
             for kind in (S1, S2, S3)}
    calls = count_engines(monkeypatch)
    grad_calls.clear()
    got = score(thetas, circuit, source, spec, kinds=kinds)
    assert np.array_equal(got, [alone[kind][b] for b, kind
                                in enumerate(kinds)])
    fisher = {name: rows for name, rows in calls.items()
              if name != "observable_gradient"}
    gradients = calls.get("observable_gradient", []) + grad_calls
    if rung == "empirical":
        # the surrogate reads every row's gradient
        assert fisher == {} and gradients == [7]
    elif omega == TRACE:
        assert fisher == {"qfim_trace": [5]} and gradients == [4]
    elif rung == "exact" and not callable_gradient:
        assert fisher == {"qfim_and_observable_gradient": [5]}
        assert gradients == [2]
    else:
        assert fisher == {"qfim": [5]} and gradients == [4]


def test_score_takes_one_kind_per_row():
    circuit = build_hea(1, 2)
    thetas = np.zeros((2, circuit.num_params))
    obs = Observable(((1.0, "ZZ"),))
    for kinds in ([S1], [S1, "s4"], [S1, S2, S3]):
        with pytest.raises(ValueError, match="kinds must name one of"):
            score(thetas, circuit, obs, kinds=kinds)
    # a (p,) theta takes one kind
    assert score(thetas[0], circuit, obs, kinds=[S2]) == score(
        thetas[0], circuit, obs, ScoreSpec(kind=S2))


def record_searches(monkeypatch):
    """(traces, union sizes) of every es_lockstep call the CLI makes: per
    call, the score methods' EsTrace objects, and the population of each
    union batch call."""
    calls = []
    lockstep = cli.es_lockstep

    def recorded(batch, searches):
        sizes = []

        def sized(candidates, rngs, owners):
            sizes.append(len(candidates))
            return batch(candidates, rngs, owners)
        outcomes = lockstep(sized, searches)
        calls.append(([outcome[1] for outcome in outcomes], sizes))
        return outcomes
    monkeypatch.setattr(cli, "es_lockstep", recorded)
    return calls


VQE_CONVERGE = [f"hamiltonian={TOY}", "es.n_iters=6", "es.eps_converge=0.02",
                "train.iters=2", "ansatz.layers=2"]
RUNS = {
    "vqe": (cmd_vqe, [f"hamiltonian={TOY}", "ansatz.layers=2",
                      "es.n_iters=3", "train.iters=2"]),
    "vqe-converge": (cmd_vqe, VQE_CONVERGE),
    "qml": (cmd_qml, [f"dataset={WINE}", "ansatz.layers=1", "es.n_iters=2",
                      "train.iters=2", "subsample=40", "score_batch=8"]),
    "bp-scan": (cmd_bp_scan, ["qubit_range=[2,3]", "layers=1", "m_samples=3",
                              "es.n_iters=1", "es.n_samples=2"]),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_cli_searches_in_lockstep_equal_each_method_alone(monkeypatch, run):
    """At the default methods, each method's ES trace, hyperparameters and
    record entry equal its methods=[m] run by ==."""
    command, overrides = RUNS[run]
    name = run.split("-converge")[0]
    calls = record_searches(monkeypatch)
    cfg = resolve_config(name, overrides=overrides)
    together = command(cfg)["results"]
    lockstep = [traces for traces, _ in calls]
    searched = [m for m in cfg["methods"] if m in (S1, S2, S3)]
    for method in cfg["methods"]:
        calls.clear()
        alone = command(resolve_config(
            name, overrides=[*overrides, f'methods=["{method}"]']))["results"]
        if run == "bp-scan":
            rows = [row for row in together["rows"] if row["method"] == method]
            assert alone["rows"] == rows
        else:
            assert alone["methods"][method] == together["methods"][method]
        if method in searched:
            index = searched.index(method)
            assert [traces for traces, _ in calls] == [
                [traces[index]] for traces in lockstep]
        else:
            assert calls == []
    if run == "vqe-converge":
        traces = dict(zip(searched, lockstep[0]))
        assert [(traces[m].n_iterations, traces[m].converged)
                for m in (S1, S2, S3)] == [(6, False), (1, True), (6, True)]


def test_vqe_makes_one_trace_run_and_one_adjoint_call_per_iteration(
        monkeypatch):
    """A default vqe at omega=trace: per ES iteration one qfim_trace call
    over the s1 and s3 rollouts and one observable_gradient call over the
    s2 and s3 rollouts, for as long as a search that reads each runs; s2
    leaves the union after its first iteration."""
    calls = count_engines(monkeypatch)
    searches = record_searches(monkeypatch)
    cmd_vqe(resolve_config("vqe", overrides=VQE_CONVERGE))
    (_, union_sizes), = searches
    assert union_sizes == [48] + [32] * 5
    assert calls == {"qfim_trace": [32] * 6,
                     "observable_gradient": [32] + [16] * 5}


def test_objective_raises_the_draw_error_of_the_rollouts_in_order():
    """objective.batch draws every rollout's theta_draws thetas in one
    lockstep call. A Gaussian draw that overflows fails the batch with the
    error that scoring the rollouts one after another raises: the lowest
    failed rollout's, at its first failed draw, also when a higher
    rollout fails at an earlier draw."""
    circuit = build_hea(1, 2)
    p, draws = circuit.num_params, 3
    objective = initialization_objective(circuit, ScoreSpec(kind=S1),
                                         theta_draws=draws)
    hps = [HyperParams(GAUSSIAN, (0.5, 1e308 + j * 1e307)) for j in range(4)]
    later = 0
    for seed in range(30):
        def rngs():
            return [child_rng(seed, "rollout", j) for j in range(len(hps))]
        failed = {}  # rollout -> its first failed draw, alone
        for j, (hp, rng) in enumerate(zip(hps, rngs())):
            for d in range(draws):
                try:
                    sample_params(hp, p, rng)
                except FloatingPointError:
                    failed[j] = d
                    break
        if not failed:
            continue
        with pytest.raises(FloatingPointError) as one_by_one:
            for hp, rng in zip(hps, rngs()):
                objective(hp, rng)
        with pytest.raises(FloatingPointError) as batched:
            objective.batch(hps, rngs())
        assert str(batched.value) == str(one_by_one.value)
        assert f"sigma={hps[min(failed)].sigma}" in str(batched.value)
        later += failed[min(failed)] > min(failed.values())
    assert later


BP_ORDER = ['methods=["manual", "s1"]', "qubit_range=[2, 3, 4]", "layers=1",
            "m_samples=4", "family=gaussian", "es.n_iters=1"]


@pytest.mark.parametrize("overflow, search_fails, raised", [
    # a draw error at n = 2 comes before the search error at n = 3
    ((2,), 3, "draw 2"),
    # manual at n = 3 is planned before s1's failed search at n = 3
    ((3,), 3, "draw 3"),
    # the lowest set's draw error first
    ((3, 2), None, "draw 2"),
    # a set after the failed search is never drawn
    ((4,), 3, "search 3"),
    ((), 3, "search 3"),
], ids=["draw-before-later-search", "draw-before-search-at-its-n",
        "lowest-draw-first", "unplanned-set-not-drawn", "search-alone"])
def test_bp_scan_raises_errors_in_the_order_of_one_set_after_another(
        monkeypatch, overflow, search_fails, raised):
    """bp-scan runs the searches of every qubit count before any draw, yet
    its errors come in the order of a run that searches and draws one
    (method, n) set at a time. The s1 search at n = search_fails fails,
    and the manual set at each n in overflow draws from a Gaussian that
    overflows."""
    def method_hyperparams(methods, cfg, circuit, task_gradient, features,
                           context=()):
        n, = context
        manual = (HyperParams(GAUSSIAN, (1.7e308, 1.6e308 + n * 1e306))
                  if n in overflow else manual_baseline(GAUSSIAN))
        return [(manual, None),
                RuntimeError(f"search {n}") if n == search_fails else
                (HyperParams(GAUSSIAN, (0.1, 0.5)), None)]
    monkeypatch.setattr(cli, "_method_hyperparams", method_hyperparams)
    with pytest.raises((FloatingPointError, RuntimeError)) as caught:
        cmd_bp_scan(resolve_config("bp-scan", overrides=BP_ORDER))
    kind, n = raised.split()
    if kind == "draw":
        assert type(caught.value) is FloatingPointError
        assert f"sigma={1.6e308 + int(n) * 1e306}" in str(caught.value)
    else:
        assert type(caught.value) is RuntimeError
        assert str(caught.value) == f"search {n}"
