"""Command-line entry points.

Five commands share one config style: per-command defaults, optionally
overlaid by a JSON config file, then by --set key=value flags. Unknown
keys fail fast with the offending key path. Every run writes a
deterministic JSON record (hash-stable across re-runs with the same
config and seed, whatever the worker count) plus flat CSV sidecars.

  hypopt        tune initialization hyperparameters for one score function
  vqe           compare initialization methods on a Hamiltonian file
  qml           compare initialization methods on a CSV classification task
  grad-profile  per-layer gradient-magnitude histograms for one setting
  bp-scan       gradient variance versus qubit count per method
"""
from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import pathlib
import time

import numpy as np

from . import __version__
from .data import (Dataset, fit_pca, fit_scaler, load_csv, load_hamiltonian,
                   pca_transform, scale_features, split_80_20,
                   stratified_subsample)
from .differentiation import SHIFT, observable_gradient
from .distributions import (BETA, HyperParams, child_rng, init_guess,
                            manual_baseline, sample_params, to_unconstrained)
from .es import EsConfig, es_optimize
from .records import (bp_rows, curve_rows, es_trace_rows, hyperparam_names,
                      histogram_rows, record_hash, write_csv, write_record)
from .scoring import (S1, S2, S3, SCORE_KINDS, ScoreSpec,
                      initialization_objective)
from .simulator import (Observable, apply_circuit, build_hea,
                        build_strongly_entangling, build_two_design,
                        embed_angles, expectation)
from .tasks import (QmlTask, check_training, class_qubits, make_vqe_task,
                    train)

COMMANDS = ("hypopt", "vqe", "qml", "grad-profile", "bp-scan")

# run plumbing, excluded from the hashable record
_VOLATILE_KEYS = ("out", "workers")

_TRAIN_METHODS = ("s1", "s2", "s3", "manual")
_BP_METHODS = ("s1", "s2", "s3", "manual", "uniform")


def _score_defaults(with_kind: bool) -> dict:
    # hypopt scores with s1 by default; other commands name it per method
    base = dataclasses.asdict(ScoreSpec(kind=S1))
    if not with_kind:
        del base["kind"]
    return base


def default_config(command: str) -> dict:
    """Full default config for one command; every legal key appears here."""
    common = {"seed": 0, "out": f"runs/{command}", "workers": 1}
    if command == "hypopt":
        return {**common,
                "family": "beta",
                "initial": None,
                "ansatz": {"kind": "strongly_entangling", "layers": 8,
                           "qubits": 4, "structure_seed": 0},
                "hamiltonian": None,
                "score": _score_defaults(with_kind=True),
                "es": dataclasses.asdict(EsConfig()),
                "theta_draws": 1}
    if command == "vqe":
        return {**common,
                "hamiltonian": None,
                "family": "beta",
                "methods": ["s1", "s2", "s3", "manual"],
                "ansatz": {"kind": "strongly_entangling", "layers": 8,
                           "qubits": None, "structure_seed": 0},
                "score": _score_defaults(with_kind=False),
                "es": dataclasses.asdict(EsConfig()),
                "theta_draws": 1,
                "train": {"lr": 0.01, "iters": 100}}
    if command == "qml":
        return {**common,
                "dataset": None,
                "pca_components": 4,
                "subsample": 200,
                "score_batch": 32,
                "family": "beta",
                "methods": ["s1", "s2", "s3", "manual"],
                "ansatz": {"kind": "strongly_entangling", "layers": 3,
                           "qubits": None, "structure_seed": 0},
                "score": _score_defaults(with_kind=False),
                "es": dataclasses.asdict(EsConfig()),
                "theta_draws": 1,
                "train": {"lr": 0.01, "iters": 100}}
    if command == "grad-profile":
        return {**common,
                "family": "beta",
                "values": [0.1, 1.5],
                "delta": 0.0,
                "m_samples": 200,
                "bins": 30,
                "ansatz": {"kind": "hea", "layers": 5, "qubits": 4,
                           "structure_seed": 0},
                "hamiltonian": None}
    if command == "bp-scan":
        return {**common,
                "qubit_range": [2, 4, 6, 8],
                "layers": 5,
                "structure_seed": 0,
                "m_samples": 200,
                "family": "beta",
                "methods": ["uniform", "s1", "s2", "s3"],
                "score": _score_defaults(with_kind=False),
                "es": dataclasses.asdict(EsConfig()),
                "theta_draws": 1}
    raise ValueError(f"unknown command '{command}'")


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


def _parse_override(text: str):
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ValueError(f"override '{text}' must look like key=value")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _apply_override(cfg: dict, key: str, value) -> None:
    parts = key.split(".")
    node = cfg
    for depth, part in enumerate(parts[:-1]):
        if not isinstance(node.get(part), dict):
            raise ValueError(
                f"unknown config key '{'.'.join(parts[:depth + 1])}'")
        node = node[part]
    leaf = parts[-1]
    if leaf not in node:
        raise ValueError(f"unknown config key '{key}'")
    if isinstance(node[leaf], dict):
        raise ValueError(f"config key '{key}' expects a table")
    node[leaf] = value


def resolve_config(command: str, config_path=None, overrides=(),
                   seed=None, out=None, workers=None) -> dict:
    """Defaults, then config file, then --set overrides, then flags."""
    defaults = default_config(command)
    cfg = copy.deepcopy(defaults)
    if config_path is not None:
        loaded = json.loads(pathlib.Path(config_path).read_text())
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        _merge(cfg, loaded, "")
    for item in overrides:
        key, value = _parse_override(item)
        _apply_override(cfg, key, value)
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
    return {"hyperparams": [list(v) for v in trace.hyperparams],
            "unconstrained": [list(v) for v in trace.unconstrained],
            "mean_score": list(trace.mean_score),
            "best_score": list(trace.best_score),
            "update_l1": list(trace.update_l1),
            "converged": bool(trace.converged),
            "iterations": trace.n_iterations}


def _method_hyperparams(method: str, cfg: dict, circuit, task_gradient,
                        features, context=()):
    """Initialization hyperparameters for one method.

    Score methods run the ES search; 'manual' uses the fixed baseline and
    'uniform' spreads angles evenly over the full period. task_gradient is
    a callable or a Pauli-sum Observable, as scoring.score takes it. Returns
    (HyperParams, trace-or-None). `context` extends the seed labels so
    repeated searches inside one run stay independent.
    """
    if method == "manual":
        return manual_baseline(cfg["family"]), None
    if method == "uniform":
        return HyperParams(BETA, (1.0, 1.0)), None
    spec = ScoreSpec(**{**cfg["score"], "kind": method})
    if spec.kind in (S2, S3) and task_gradient is None:
        raise ValueError(f"score '{spec.kind}' needs a task cost")
    objective = initialization_objective(circuit, spec,
                                         task_gradient=task_gradient,
                                         features=features,
                                         theta_draws=cfg["theta_draws"])
    seed = cfg["seed"]
    if cfg.get("initial") is not None:
        hp0 = HyperParams(cfg["family"], tuple(cfg["initial"]))
    else:
        hp0 = init_guess(cfg["family"], child_rng(seed, "guess", method,
                                                  *context))
    hp, trace = es_optimize(objective, hp0, EsConfig(**cfg["es"]),
                            _derived_seed(seed, "es", method, *context))
    return hp, trace


def _train_methods(cfg: dict, circuit, task, score_gradient, features,
                   describe) -> dict:
    """Per method: its initialization hyperparameters, one Adam run of the
    task from a draw of them, and describe(theta, curve) of that run.

    Every method's search and draw comes first, each from its own streams;
    then one train call steps all the draws in lockstep as one stack."""
    methods = _check_methods(cfg["methods"], _TRAIN_METHODS)
    # fail before the first search, not after it
    check_training(cfg["train"]["iters"], cfg["train"]["lr"])
    searched = [_method_hyperparams(method, cfg, circuit, score_gradient,
                                    features) for method in methods]
    theta0 = np.stack([sample_params(hp, circuit.num_params,
                                     child_rng(cfg["seed"], "theta0", method))
                       for method, (hp, _) in zip(methods, searched)])
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
    hp, trace = _method_hyperparams(kind, cfg, circuit, task_gradient, None)
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
    # every method's theta trains in one stack
    stack = len(_check_methods(cfg["methods"], _TRAIN_METHODS))
    task = make_vqe_task(hamiltonian, circuit, stack)
    per_method = _train_methods(
        cfg, circuit, task, task.hamiltonian, None,
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
        cfg, circuit, task, score_task.gradient, train_x.mean(axis=0),
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
    thetas = np.stack([sample_params(hp, circuit.num_params, rng)
                       for _ in range(m)])
    grads = observable_gradient(circuit, thetas, obs)
    histogram = []
    layer_mean_abs = []
    for index, tag in enumerate(circuit.layers):
        block = np.abs(grads[:, tag.param_start:tag.param_stop]).ravel()
        layer_mean_abs.append(float(block.mean()))
        density, edges = np.histogram(block, bins=cfg["bins"], density=True)
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
    """Gradient variance of the first parameter versus qubit count."""
    methods = _check_methods(cfg["methods"], _BP_METHODS)
    seed = cfg["seed"]
    m = cfg["m_samples"]
    if m < 2:
        raise ValueError("m_samples must be at least 2 for a variance")
    qubit_range = [int(n) for n in cfg["qubit_range"]]
    if not qubit_range or len(set(qubit_range)) < len(qubit_range):
        raise ValueError("qubit_range must list distinct qubit counts, "
                         f"got {qubit_range}")
    table = []
    variances = {method: [] for method in methods}
    for n in qubit_range:
        circuit = build_two_design(cfg["layers"], n, cfg["structure_seed"])
        obs = _default_observable(n)
        for method in methods:
            hp, _ = _method_hyperparams(method, cfg, circuit, obs, None,
                                        context=(n,))
            rng = child_rng(seed, "bp-init", method, n)
            thetas = np.stack([sample_params(hp, circuit.num_params, rng)
                               for _ in range(m)])
            shifted = np.vstack([thetas, thetas])
            shifted[:m, 0] += SHIFT
            shifted[m:, 0] -= SHIFT
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


_RUNNERS = {"hypopt": cmd_hypopt, "vqe": cmd_vqe, "qml": cmd_qml,
            "grad-profile": cmd_grad_profile, "bp-scan": cmd_bp_scan}


def write_outputs(command: str, cfg: dict, record: dict,
                  wall_clock: float) -> list:
    """JSON record + meta + the command's CSV sidecars; returns the paths."""
    out = pathlib.Path(cfg["out"])
    extra = {"wall_clock_seconds": round(wall_clock, 6),
             "workers": cfg["workers"], "out": str(out)}
    record_path, meta_path = write_record(out, command, record, extra)
    written = [record_path, meta_path]
    results = record["results"]
    if command == "hypopt":
        header, rows = es_trace_rows(results["trace"],
                                     hyperparam_names(cfg["family"]))
        written.append(write_csv(out / f"{command}_trace.csv", header, rows))
    elif command in ("vqe", "qml"):
        key = "curve" if command == "vqe" else "loss_curve"
        curves = {m: results["methods"][m][key] for m in cfg["methods"]}
        header, rows = curve_rows(curves)
        written.append(write_csv(out / f"{command}_curves.csv", header, rows))
    elif command == "grad-profile":
        header, rows = histogram_rows(results["histogram"])
        written.append(write_csv(out / f"{command}_histogram.csv",
                                 header, rows))
    elif command == "bp-scan":
        header, rows = bp_rows(results["rows"])
        written.append(write_csv(out / f"{command}_bp.csv", header, rows))
    return written


def _summary_lines(command: str, record: dict) -> list[str]:
    results = record["results"]
    if command == "hypopt":
        pairs = ", ".join(f"{n}={v:.6g}" for n, v in
                          zip(hyperparam_names(results["family"]),
                              results["lambda_star"]))
        state = "converged" if results["converged"] else "stopped"
        return [f"lambda*: {pairs} ({state} after "
                f"{results['iterations']} iterations)"]
    if command == "vqe":
        lines = [f"exact ground energy: {results['exact_ground_energy']:.8f}"]
        for method, entry in results["methods"].items():
            lines.append(f"{method}: final energy {entry['final_energy']:.8f}"
                         f" (gap {entry['gap']:.3e})")
        return lines
    if command == "qml":
        lines = [f"dataset {results['dataset']}: {results['num_classes']} "
                 f"classes, {results['n_train']} train / "
                 f"{results['n_test']} test"]
        for method, entry in results["methods"].items():
            lines.append(f"{method}: final loss {entry['final_loss']:.4f}, "
                         f"test accuracy {entry['test_accuracy']:.4f}")
        return lines
    if command == "grad-profile":
        means = ", ".join(f"{v:.3e}"
                          for v in results["layer_mean_abs_gradient"])
        return [f"mean |dC/dtheta| per layer: {means}"]
    lines = []
    for method, slope in results["slopes"].items():
        shown = "n/a" if slope is None else f"{slope:.4f}"
        lines.append(f"{method}: log-variance slope {shown}")
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qinitopt",
        description="Initialization-distribution search for parameterized "
                    "quantum circuits.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "hypopt": "tune initialization hyperparameters for one score",
        "vqe": "compare initialization methods on a Hamiltonian file",
        "qml": "compare initialization methods on a CSV dataset",
        "grad-profile": "per-layer gradient-magnitude histograms",
        "bp-scan": "gradient variance versus qubit count",
    }
    for command in COMMANDS:
        p = sub.add_parser(command, help=helps[command])
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
    try:
        cfg = resolve_config(args.command, args.config, args.overrides,
                             args.seed, args.out, args.workers)
        started = time.perf_counter()
        record = _RUNNERS[args.command](cfg)
        wall_clock = time.perf_counter() - started
        written = write_outputs(args.command, cfg, record, wall_clock)
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}")
        return 2
    except (ValueError, OSError, ArithmeticError, RuntimeError) as exc:
        cause = f": {exc.__cause__}" if exc.__cause__ is not None else ""
        print(f"error: {exc}{cause}")
        return 2
    for line in _summary_lines(args.command, record):
        print(line)
    for path in written:
        print(f"wrote {path}")
    print(f"record sha256: {record_hash(record)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
