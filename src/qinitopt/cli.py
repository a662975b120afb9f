"""Command-line entry points.

Five commands share one config style: per-command defaults, optionally
overlaid by a JSON config file, then by --set key=value flags, each
merged as a config-file fragment (a.b=v is {"a": {"b": v}}). Unknown
keys fail fast with the offending key path. Every run writes a
deterministic JSON record (hash-stable across re-runs with the same
config and seed, whatever the worker count) plus one flat CSV sidecar.
`COMMANDS` lists the commands, each with its help line, defaults,
runner, sidecar and stdout summary.
"""
from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import pathlib
import sys
import time
from collections.abc import Callable

import numpy as np

from . import __version__
from .data import (Dataset, fit_pca, fit_scaler, load_csv, load_hamiltonian,
                   pca_transform, scale_features, split_80_20,
                   stratified_subsample)
from .differentiation import SHIFT, observable_gradient
from .distributions import (BETA, HyperParams, child_rng, init_guess,
                            manual_baseline, sample_params_lockstep,
                            to_unconstrained)
from .es import EsConfig, EsSearch, es_lockstep, es_optimize
from .records import (as_jsonable, bp_rows, curve_rows, es_trace_rows,
                      hyperparam_names, histogram_rows, record_hash,
                      write_csv, write_record)
from .scoring import (S1, S2, S3, SCORE_KINDS, ScoreSpec,
                      initialization_objective)
from .simulator import (Observable, apply_circuit, build_hea,
                        build_strongly_entangling, build_two_design,
                        embed_angles, expectation)
from .tasks import (QmlTask, check_training, class_qubits, make_vqe_task,
                    train)

# run plumbing, excluded from the hashable record
_VOLATILE_KEYS = ("out", "workers")

_TRAIN_METHODS = ("s1", "s2", "s3", "manual")
_BP_METHODS = ("s1", "s2", "s3", "manual", "uniform")

# the distribution-search keys of every command that runs the ES; hypopt
# scores with s1 by default, the others name the score kind per method
_SEARCH_DEFAULTS = {
    "family": "beta",
    "score": {key: value for key, value
              in dataclasses.asdict(ScoreSpec(kind=S1)).items()
              if key != "kind"},
    "es": dataclasses.asdict(EsConfig()),
    "theta_draws": 1}


def default_config(command: str) -> dict:
    """Full default config for one command; every legal key appears here."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command '{command}'")
    return {"seed": 0, "out": f"runs/{command}", "workers": 1,
            **copy.deepcopy(COMMANDS[command].defaults)}


# a value of the one type each key with a None default may take besides null
_NULLABLE_TEMPLATES = {"ansatz.qubits": 0, "hamiltonian": "", "dataset": "",
                       "initial": [0.0]}
_TYPE_NAMES = {bool: "boolean", int: "integer", float: "finite number",
               str: "string", list: "list"}


def _fits(value, expected: type) -> bool:
    """JSON value against a default's type: an int passes where a float is
    expected, a bool never counts as a number, floats must be finite."""
    if expected is bool or isinstance(value, bool):
        return expected is bool and isinstance(value, bool)
    if expected is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, expected)


def _check_types(cfg: dict, defaults: dict, path: str = "") -> None:
    """Reject a config value whose type differs from its key's default."""
    for key, default in defaults.items():
        here = f"{path}{key}"
        value = cfg[key]
        if isinstance(default, dict):
            _check_types(value, default, f"{here}.")
            continue
        if default is None:
            if value is None:
                continue
            default = _NULLABLE_TEMPLATES[here]
        expected = type(default)
        item = type(default[0]) if isinstance(default, list) and default else None
        if _fits(value, expected) and (
                item is None or all(_fits(entry, item) for entry in value)):
            continue
        what = _TYPE_NAMES[expected] + ("" if item is None
                                        else f" of {_TYPE_NAMES[item]}s")
        raise ValueError(f"config key '{here}' expects type {what}, "
                         f"got {json.dumps(value)}")


def _merge(base: dict, incoming: dict, path: str) -> None:
    for key, value in incoming.items():
        here = f"{path}{key}"
        if key not in base:
            raise ValueError(f"unknown config key '{here}'")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ValueError(f"config key '{here}' expects a table")
            _merge(base[key], value, f"{here}.")
        else:
            base[key] = value


def _parse_override(text: str) -> dict:
    """--set a.b=v as the config fragment {"a": {"b": v}}, v parsed as JSON
    where it parses and kept as a string otherwise."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ValueError(f"override '{text}' must look like key=value")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    for part in reversed(key.strip().split(".")):
        value = {part: value}
    return value


def resolve_config(command: str, config_path=None, overrides=(),
                   seed=None, out=None, workers=None) -> dict:
    """Defaults, then config file, then --set overrides, then flags."""
    defaults = default_config(command)
    cfg = copy.deepcopy(defaults)
    if config_path is not None:
        # bad JSON, bytes that are not UTF-8 and too deep nesting raise here
        try:
            loaded = json.loads(
                pathlib.Path(config_path).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"config file {config_path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {config_path}: must hold a JSON "
                             "object")
        _merge(cfg, loaded, "")
    for item in overrides:
        _merge(cfg, _parse_override(item), "")
    _check_types(cfg, defaults)
    if seed is not None:
        cfg["seed"] = seed
    if out is not None:
        cfg["out"] = str(out)
    if workers is not None:
        cfg["workers"] = workers
    if cfg["workers"] < 1:
        raise ValueError(f"workers must be at least 1, got {cfg['workers']}")
    return cfg


def _build_ansatz(ansatz_cfg: dict, qubits: int | None = None):
    kind = ansatz_cfg["kind"]
    layers = ansatz_cfg["layers"]
    if qubits is None:
        qubits = ansatz_cfg["qubits"]
    if qubits is None:
        raise ValueError("ansatz.qubits must be set for this command")
    if kind == "strongly_entangling":
        return build_strongly_entangling(layers, qubits)
    if kind == "two_design":
        return build_two_design(layers, qubits, ansatz_cfg["structure_seed"])
    if kind == "hea":
        return build_hea(layers, qubits)
    raise ValueError(f"unknown ansatz kind '{kind}'")


def _load_observable(path: str, circuit) -> Observable:
    """The Pauli sum in a Hamiltonian file, which must act on the circuit's
    qubits."""
    obs = load_hamiltonian(path)
    if obs.num_qubits != circuit.num_qubits:
        raise ValueError("Hamiltonian and ansatz qubit counts differ")
    return obs


def _default_observable(qubits: int) -> Observable:
    """All-qubit Z parity: a global cost, so its gradient variance shows the
    barren-plateau decay even at fixed circuit depth."""
    return Observable(((1.0, "Z" * qubits),))


def _derived_seed(master: int, *labels) -> int:
    return int(child_rng(master, *labels).integers(1 << 32))


def _check_methods(methods, allowed):
    if not methods:
        raise ValueError("methods list is empty")
    seen = []
    for method in methods:
        if method not in allowed:
            raise ValueError(f"unknown method '{method}'; choose from "
                             + ", ".join(allowed))
        if method in seen:
            raise ValueError(f"method '{method}' appears twice")
        seen.append(method)
    return tuple(seen)


def _trace_dict(trace) -> dict:
    return {**as_jsonable(dataclasses.asdict(trace)),
            "iterations": trace.n_iterations}


def _score_searches(kinds, cfg: dict, circuit, task_gradient, features,
                    context=()) -> tuple:
    """(initialization objective, [(hp0, master seed) per kind]) of the
    score searches; the objective's spec kind is kinds[0], and its batch
    takes a kind per rollout. task_gradient is a callable or a Pauli-sum
    Observable, as scoring.score takes it. `context` extends the seed
    labels so repeated searches inside one run stay independent."""
    spec = ScoreSpec(**{**cfg["score"], "kind": kinds[0]})
    for kind in kinds:
        if kind in (S2, S3) and task_gradient is None:
            raise ValueError(f"score '{kind}' needs a task cost")
    objective = initialization_objective(
        circuit, spec, task_gradient=task_gradient, features=features,
        theta_draws=cfg["theta_draws"])
    seed = cfg["seed"]
    starts = []
    for kind in kinds:
        if cfg.get("initial") is not None:
            hp0 = HyperParams(cfg["family"], tuple(cfg["initial"]))
        else:
            hp0 = init_guess(cfg["family"],
                             child_rng(seed, "guess", kind, *context))
        starts.append((hp0, _derived_seed(seed, "es", kind, *context)))
    return objective, starts


def _method_hyperparams(methods, cfg: dict, circuit, task_gradient,
                        features, context=()) -> list:
    """Initialization hyperparameters of each method, in order.

    Score methods run the ES; 'manual' uses the fixed baseline and
    'uniform' spreads angles evenly over the full period. The searches of
    the score methods step in lockstep (es.es_lockstep): each iteration
    scores the union of their populations with one score call, and each
    search keeps the trajectory it has alone. Returns one
    (HyperParams, trace-or-None) per method up to the first search that
    failed, whose entry is its exception, so that a caller who raises it
    on reaching it raises what running the methods in order raises.
    task_gradient, features and context are _score_searches'.
    """
    kinds = [method for method in methods if method in SCORE_KINDS]
    outcomes = iter(())
    if kinds:
        objective, starts = _score_searches(kinds, cfg, circuit,
                                            task_gradient, features, context)
        es_cfg = EsConfig(**cfg["es"])
        outcomes = iter(es_lockstep(
            lambda candidates, rngs, owners: objective.batch(
                candidates, rngs, [kinds[k] for k in owners]),
            [EsSearch(hp0, es_cfg, seed) for hp0, seed in starts]))
    found = []
    for method in methods:
        if method == "manual":
            found.append((manual_baseline(cfg["family"]), None))
        elif method == "uniform":
            found.append((HyperParams(BETA, (1.0, 1.0)), None))
        else:
            found.append(next(outcomes))
            if isinstance(found[-1], Exception):
                break
    return found


def _raised(outcome):
    """A method's (hyperparameters, trace), or the exception its search
    raised, raised here."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _train_methods(cfg: dict, methods, circuit, task, score_gradient,
                   features, describe) -> dict:
    """Per method: its initialization hyperparameters, one Adam run of the
    task from a draw of them, and describe(theta, curve) of that run.

    The searches come first and step in lockstep, one score call per ES
    iteration over every running search's population; then one lockstep
    draw gives each method its starting theta, from its own stream; then
    one train call steps all the draws in lockstep as one stack. Every
    search and draw has its own streams, so each method's hyperparameters
    and curve are the bits it gets alone."""
    # fail before the first search, not after it
    check_training(cfg["train"]["iters"], cfg["train"]["lr"])
    searched = [_raised(outcome) for outcome in _method_hyperparams(
        methods, cfg, circuit, score_gradient, features)]
    theta0 = np.concatenate(sample_params_lockstep(
        [hp for hp, _ in searched], [circuit.num_params] * len(methods),
        [child_rng(cfg["seed"], "theta0", method) for method in methods]))
    thetas, curves = train(task, theta0, iters=cfg["train"]["iters"],
                           lr=cfg["train"]["lr"])
    per_method = {}
    for method, (hp, trace), theta, curve in zip(methods, searched, thetas,
                                                  curves):
        entry = {"hyperparams": [float(v) for v in hp.values],
                 **describe(theta, [float(c) for c in curve])}
        if trace is not None:
            entry["es_iterations"] = trace.n_iterations
            entry["es_converged"] = bool(trace.converged)
        per_method[method] = entry
    return per_method


def _record_for(command: str, cfg: dict, results: dict) -> dict:
    hashable_cfg = {k: v for k, v in cfg.items() if k not in _VOLATILE_KEYS}
    return {"command": command, "version": __version__,
            "config": hashable_cfg, "results": results}


def cmd_hypopt(cfg: dict) -> dict:
    """Tune the initialization distribution for the configured score."""
    kind = cfg["score"]["kind"]
    if kind not in SCORE_KINDS:
        raise ValueError(f"hypopt needs score.kind among "
                         f"{', '.join(SCORE_KINDS)}, got {kind!r}")
    circuit = _build_ansatz(cfg["ansatz"])
    task_gradient = None
    if cfg["hamiltonian"] is not None:
        # the scores read only the Pauli sum; no VqeTask and no dense
        # ground energy, which is capped at MAX_ORACLE_QUBITS
        task_gradient = _load_observable(cfg["hamiltonian"], circuit)
    objective, ((hp0, seed),) = _score_searches((kind,), cfg, circuit,
                                                task_gradient, None)
    hp, trace = es_optimize(objective, hp0, EsConfig(**cfg["es"]), seed)
    results = {"family": cfg["family"],
               "score_kind": kind,
               "lambda_star": [float(v) for v in hp.values],
               "unconstrained_star": [float(v) for v in to_unconstrained(hp)],
               "converged": bool(trace.converged),
               "iterations": trace.n_iterations,
               "trace": _trace_dict(trace)}
    return _record_for("hypopt", cfg, results)


def cmd_vqe(cfg: dict) -> dict:
    """Train one VQE per initialization method and record energy curves."""
    if cfg["hamiltonian"] is None:
        raise ValueError("vqe needs config key 'hamiltonian'")
    hamiltonian = load_hamiltonian(cfg["hamiltonian"])
    circuit = _build_ansatz(cfg["ansatz"],
                            qubits=cfg["ansatz"]["qubits"]
                            or hamiltonian.num_qubits)
    methods = _check_methods(cfg["methods"], _TRAIN_METHODS)
    # every method's theta trains in one stack, by the adjoint at any
    # height, so a method's curve does not depend on the other methods
    task = make_vqe_task(hamiltonian, circuit)
    per_method = _train_methods(
        cfg, methods, circuit, task, task.hamiltonian, None,
        lambda theta, curve: {
            "curve": curve, "final_energy": curve[-1],
            "gap": float(curve[-1] - task.exact_ground_energy)})
    results = {"exact_ground_energy": float(task.exact_ground_energy),
               "family": cfg["family"],
               "methods": per_method}
    return _record_for("vqe", cfg, results)


def cmd_qml(cfg: dict) -> dict:
    """Train one classifier per initialization method on a CSV dataset."""
    if cfg["dataset"] is None:
        raise ValueError("qml needs config key 'dataset'")
    full = load_csv(cfg["dataset"])
    classes = full.num_classes
    for key in ("subsample", "score_batch"):
        if cfg[key] < classes:
            raise ValueError(f"{key} must be at least the number of classes "
                             f"({classes}), got {cfg[key]}")
    seed = cfg["seed"]
    train_ds, test_ds = split_80_20(full, seed)
    if not test_ds.n_samples:
        raise ValueError(
            f"dataset {full.name!r} leaves no test rows: the 80/20 split "
            "trains on ceil(0.8 n) of each class's n rows, so some class "
            "needs at least 5 rows")
    train_ds = stratified_subsample(train_ds, cfg["subsample"], seed)
    k = cfg["pca_components"]
    pca = fit_pca(train_ds.features, k)
    scaler = fit_scaler(pca_transform(pca, train_ds.features))
    train_x = scale_features(pca_transform(pca, train_ds.features), scaler)
    test_x = scale_features(pca_transform(pca, test_ds.features), scaler)
    qubits = cfg["ansatz"]["qubits"] or max(k, class_qubits(classes))
    circuit = embed_angles(_build_ansatz(cfg["ansatz"], qubits=qubits), k)
    task = QmlTask(circuit, train_x, train_ds.labels, classes)
    # score on a small stratified slice; training uses the full subsample
    score_ds = stratified_subsample(Dataset("score", train_x, train_ds.labels),
                                    cfg["score_batch"], seed)
    score_task = QmlTask(circuit, score_ds.features, score_ds.labels, classes)
    per_method = _train_methods(
        cfg, _check_methods(cfg["methods"], _TRAIN_METHODS), circuit, task,
        score_task.gradient, train_x.mean(axis=0),
        lambda theta, curve: {
            "loss_curve": curve, "final_loss": curve[-1],
            "test_accuracy": task.accuracy(theta, test_x, test_ds.labels),
            "train_accuracy": task.accuracy(theta, train_x, train_ds.labels)})
    results = {"dataset": full.name,
               "num_classes": classes,
               "n_train": int(len(train_x)),
               "n_test": int(len(test_x)),
               "family": cfg["family"],
               "methods": per_method}
    return _record_for("qml", cfg, results)


def cmd_grad_profile(cfg: dict) -> dict:
    """Per-layer histograms of |dC/dtheta| under one initialization."""
    circuit = _build_ansatz(cfg["ansatz"])
    if cfg["hamiltonian"] is not None:
        obs = _load_observable(cfg["hamiltonian"], circuit)
    else:
        obs = _default_observable(circuit.num_qubits)
    values = tuple(float(v) + cfg["delta"] for v in cfg["values"])
    hp = HyperParams(cfg["family"], values)
    rng = child_rng(cfg["seed"], "profile")
    m = cfg["m_samples"]
    if m < 1:
        raise ValueError("m_samples must be at least 1")
    if cfg["bins"] < 1:
        raise ValueError(f"bins must be at least 1, got {cfg['bins']}")
    thetas, = sample_params_lockstep([hp], [circuit.num_params], [rng], m)
    grads = observable_gradient(circuit, thetas, obs)
    histogram = []
    layer_mean_abs = []
    for index, tag in enumerate(circuit.layers):
        block = np.abs(grads[:, tag.param_start:tag.param_stop]).ravel()
        layer_mean_abs.append(float(block.mean()))
        # a subnormal spread gives bins so narrow that 1 / width overflows
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            density, edges = np.histogram(block, bins=cfg["bins"],
                                          density=True)
        if not np.all(np.isfinite(density)):
            spread = float(edges[-1] - edges[0])
            raise ValueError(
                f"layer {index + 1}'s |gradient| histogram has a non-finite "
                f"density: its values span {spread!r}, too narrow for "
                f"{cfg['bins']} bins")
        for b, d in enumerate(density):
            histogram.append({"layer": index + 1,
                              "bin_left": float(edges[b]),
                              "bin_right": float(edges[b + 1]),
                              "density": float(d)})
    results = {"family": cfg["family"],
               "values": [float(v) for v in values],
               "delta": float(cfg["delta"]),
               "m_samples": int(m),
               "bins": int(cfg["bins"]),
               "num_layers": len(circuit.layers),
               "layer_mean_abs_gradient": layer_mean_abs,
               "histogram": histogram}
    return _record_for("grad-profile", cfg, results)


def cmd_bp_scan(cfg: dict) -> dict:
    """Gradient variance of the first parameter versus qubit count.

    The searches of every qubit count run first, one count at a time, up
    to the first failed search. Then one lockstep draw steps the "bp-init"
    generators of all (method, n) sets planned before it together, m steps
    in place of m draws per set; then each set's variance call, in order.
    Each set draws from its own stream, so its thetas are the bits of a
    run that searches and draws one set at a time. Errors come in that
    run's order too: a draw error of a planned set before the search
    error, and the lowest set's draw error first."""
    methods = _check_methods(cfg["methods"], _BP_METHODS)
    seed = cfg["seed"]
    m = cfg["m_samples"]
    if m < 2:
        raise ValueError("m_samples must be at least 2 for a variance")
    qubit_range = [int(n) for n in cfg["qubit_range"]]
    if not qubit_range or len(set(qubit_range)) < len(qubit_range):
        raise ValueError("qubit_range must list distinct qubit counts, "
                         f"got {qubit_range}")
    plans, failure = [], None
    for n in qubit_range:
        circuit = build_two_design(cfg["layers"], n, cfg["structure_seed"])
        obs = _default_observable(n)
        for method, outcome in zip(methods, _method_hyperparams(
                methods, cfg, circuit, obs, None, context=(n,))):
            if isinstance(outcome, Exception):
                failure = outcome
                break
            plans.append((n, method, outcome[0], circuit, obs))
        if failure is not None:
            break
    draws = sample_params_lockstep(
        [hp for _, _, hp, _, _ in plans],
        [circuit.num_params for _, _, _, circuit, _ in plans],
        [child_rng(seed, "bp-init", method, n) for n, method, *_ in plans], m)
    if failure is not None:
        raise failure
    table = []
    variances = {method: [] for method in methods}
    for n, method, hp, circuit, obs in plans:
        # the set's thetas twice; the draw itself is freed here
        shifted = np.tile(draws.pop(0), (2, 1))
        shifted[:m, 0] += SHIFT
        shifted[m:, 0] -= SHIFT
        # one call per set: stacking the methods' 2m rows into one call
        # measured slower at 8 qubits, where the rows cost most
        vals = expectation(apply_circuit(circuit, shifted), obs)
        derivs = (vals[:m] - vals[m:]) / 2.0
        variance = float(np.var(derivs))
        table.append({"qubits": n, "method": method,
                      "variance": variance,
                      "hyperparams": [float(v) for v in hp.values]})
        variances[method].append(variance)
    slopes = {}
    for method in methods:
        var = np.array(variances[method])
        if len(var) > 1 and np.all(var > 0):
            slopes[method] = float(np.polyfit(qubit_range, np.log(var), 1)[0])
        else:
            slopes[method] = None
    results = {"qubit_range": qubit_range,
               "layers": int(cfg["layers"]),
               "m_samples": int(m),
               "rows": table,
               "slopes": slopes}
    return _record_for("bp-scan", cfg, results)


def _hypopt_summary(results: dict) -> list[str]:
    pairs = ", ".join(f"{n}={v:.6g}" for n, v in
                      zip(hyperparam_names(results["family"]),
                          results["lambda_star"]))
    state = "converged" if results["converged"] else "stopped"
    return [f"lambda*: {pairs} ({state} after "
            f"{results['iterations']} iterations)"]


def _vqe_summary(results: dict) -> list[str]:
    return [f"exact ground energy: {results['exact_ground_energy']:.8f}",
            *(f"{method}: final energy {entry['final_energy']:.8f}"
              f" (gap {entry['gap']:.3e})"
              for method, entry in results["methods"].items())]


def _qml_summary(results: dict) -> list[str]:
    return [f"dataset {results['dataset']}: {results['num_classes']} "
            f"classes, {results['n_train']} train / "
            f"{results['n_test']} test",
            *(f"{method}: final loss {entry['final_loss']:.4f}, "
              f"test accuracy {entry['test_accuracy']:.4f}"
              for method, entry in results["methods"].items())]


def _curves(key: str):
    """Sidecar rows of each method's training curve, stored under key."""
    return lambda results: curve_rows(
        {method: entry[key] for method, entry in results["methods"].items()})


@dataclasses.dataclass(frozen=True)
class Command:
    """One CLI command. Its run writes `<command>.json` and the CSV sidecar
    `<command>_<sidecar>.csv` of rows(results), then prints
    summary(results)."""
    help: str
    defaults: dict  # every config key beyond seed, out and workers
    run: Callable[[dict], dict]  # config -> record
    sidecar: str
    rows: Callable[[dict], tuple]  # results -> (header, rows)
    summary: Callable[[dict], list[str]]  # results -> stdout lines


COMMANDS = {
    "hypopt": Command(
        "tune initialization hyperparameters for one score",
        {"initial": None,
         "ansatz": {"kind": "strongly_entangling", "layers": 8, "qubits": 4,
                    "structure_seed": 0},
         "hamiltonian": None,
         **_SEARCH_DEFAULTS,
         "score": dataclasses.asdict(ScoreSpec(kind=S1))},
        cmd_hypopt, "trace",
        lambda results: es_trace_rows(results["trace"],
                                      hyperparam_names(results["family"])),
        _hypopt_summary),
    "vqe": Command(
        "compare initialization methods on a Hamiltonian file",
        {"hamiltonian": None,
         "methods": ["s1", "s2", "s3", "manual"],
         "ansatz": {"kind": "strongly_entangling", "layers": 8,
                    "qubits": None, "structure_seed": 0},
         **_SEARCH_DEFAULTS,
         "train": {"lr": 0.01, "iters": 100}},
        cmd_vqe, "curves", _curves("curve"), _vqe_summary),
    "qml": Command(
        "compare initialization methods on a CSV dataset",
        {"dataset": None,
         "pca_components": 4,
         "subsample": 200,
         "score_batch": 32,
         "methods": ["s1", "s2", "s3", "manual"],
         "ansatz": {"kind": "strongly_entangling", "layers": 3,
                    "qubits": None, "structure_seed": 0},
         **_SEARCH_DEFAULTS,
         "train": {"lr": 0.01, "iters": 100}},
        cmd_qml, "curves", _curves("loss_curve"), _qml_summary),
    "grad-profile": Command(
        "per-layer gradient-magnitude histograms",
        {"family": "beta",
         "values": [0.1, 1.5],
         "delta": 0.0,
         "m_samples": 200,
         "bins": 30,
         "ansatz": {"kind": "hea", "layers": 5, "qubits": 4,
                    "structure_seed": 0},
         "hamiltonian": None},
        cmd_grad_profile, "histogram",
        lambda results: histogram_rows(results["histogram"]),
        lambda results: ["mean |dC/dtheta| per layer: " + ", ".join(
            f"{v:.3e}" for v in results["layer_mean_abs_gradient"])]),
    "bp-scan": Command(
        "gradient variance versus qubit count",
        {"qubit_range": [2, 4, 6, 8],
         "layers": 5,
         "structure_seed": 0,
         "m_samples": 200,
         "methods": ["uniform", "s1", "s2", "s3"],
         **_SEARCH_DEFAULTS},
        cmd_bp_scan, "bp", lambda results: bp_rows(results["rows"]),
        lambda results: [f"{method}: log-variance slope "
                         + ("n/a" if slope is None else f"{slope:.4f}")
                         for method, slope in results["slopes"].items()]),
}


def write_outputs(command: str, cfg: dict, record: dict,
                  wall_clock: float) -> list:
    """JSON record + meta + the command's CSV sidecar; returns the paths."""
    out = pathlib.Path(cfg["out"])
    extra = {"wall_clock_seconds": round(wall_clock, 6),
             "workers": cfg["workers"], "out": str(out)}
    record_path, meta_path = write_record(out, command, record, extra)
    spec = COMMANDS[command]
    sidecar = write_csv(out / f"{command}_{spec.sidecar}.csv",
                        *spec.rows(record["results"]))
    return [record_path, meta_path, sidecar]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qinitopt",
        description="Initialization-distribution search for parameterized "
                    "quantum circuits.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in COMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        p.add_argument("--config", type=pathlib.Path, default=None,
                       help="JSON config file overlaying the defaults")
        p.add_argument("--set", dest="overrides", action="append",
                       default=[], metavar="KEY=VALUE",
                       help="config override, dotted keys allowed")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides the config)")
        p.add_argument("--out", default=None,
                       help="output directory (overrides the config)")
        p.add_argument("--workers", type=int, default=None,
                       help="accepted for compatibility (at least 1); the "
                            "ES scores each population in one batch call")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec = COMMANDS[args.command]
    try:
        cfg = resolve_config(args.command, args.config, args.overrides,
                             args.seed, args.out, args.workers)
        started = time.perf_counter()
        record = spec.run(cfg)
        wall_clock = time.perf_counter() - started
        written = write_outputs(args.command, cfg, record, wall_clock)
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}",
              file=sys.stderr)
        return 2
    except (ValueError, OSError, ArithmeticError, RuntimeError) as exc:
        cause = f": {exc.__cause__}" if exc.__cause__ is not None else ""
        print(f"error: {exc}{cause}", file=sys.stderr)
        return 2
    for line in spec.summary(record["results"]):
        print(line)
    for path in written:
        print(f"wrote {path}")
    print(f"record sha256: {record_hash(record)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
