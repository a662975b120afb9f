"""Output checks for benchmark runs.

At any seed a run record must satisfy the invariants below. At the
reference seed its key results must also match `reference.json` within the
tolerances stated there: tight enough to catch a wrong gradient, loose
enough to pass a change of floating-point summation order.
"""
from __future__ import annotations

import math

ENERGY_SLACK = 1e-9  # a VQE energy may undershoot the exact one by rounding


def key_results(record: dict) -> dict:
    """The results a workload's reference pins, flattened to name -> number."""
    command = record["command"]
    results = record["results"]
    out = {}
    if command == "qml":
        for method, entry in results["methods"].items():
            for key in ("final_loss", "test_accuracy", "train_accuracy"):
                out[f"{method}.{key}"] = entry[key]
    elif command == "vqe":
        out["exact_ground_energy"] = results["exact_ground_energy"]
        for method, entry in results["methods"].items():
            out[f"{method}.final_energy"] = entry["final_energy"]
            out[f"{method}.gap"] = entry["gap"]
    elif command == "bp-scan":
        for row in results["rows"]:
            out[f"variance.{row['method']}.{row['qubits']}"] = row["variance"]
        for method, slope in results["slopes"].items():
            out[f"slope.{method}"] = slope
    elif command == "hypopt":
        for i, value in enumerate(results["lambda_star"]):
            out[f"lambda_star.{i}"] = value
        for i, value in enumerate(results["trace"]["mean_score"]):
            out[f"mean_score.{i}"] = value
    else:
        raise ValueError(f"no key results defined for command {command!r}")
    return out


def _numbers(node, path=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numbers(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _numbers(value, f"{path}[{i}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, node


def invariant_problems(record: dict) -> list:
    """Seed-independent checks; returns one message per violation."""
    problems = [f"{path} is not finite: {value}"
                for path, value in _numbers(record["results"])
                if not math.isfinite(value)]
    command = record["command"]
    results = record["results"]
    config = record["config"]
    if command in ("vqe", "qml"):
        curve_key = "curve" if command == "vqe" else "loss_curve"
        expected = config["train"]["iters"] + 1
        for method, entry in results["methods"].items():
            if len(entry[curve_key]) != expected:
                problems.append(f"{method}: curve has {len(entry[curve_key])} "
                                f"points, expected {expected}")
            if command == "vqe" and entry["final_energy"] < (
                    results["exact_ground_energy"] - ENERGY_SLACK):
                problems.append(
                    f"{method}: final energy {entry['final_energy']} is below "
                    f"the exact ground energy {results['exact_ground_energy']}")
            if command == "qml":
                for key in ("test_accuracy", "train_accuracy"):
                    if not 0.0 <= entry[key] <= 1.0:
                        problems.append(f"{method}: {key} {entry[key]} "
                                        "outside [0, 1]")
    if command == "bp-scan":
        for row in results["rows"]:
            if not row["variance"] > 0.0:
                problems.append(f"{row['method']} at {row['qubits']} qubits: "
                                f"variance {row['variance']} is not positive")
        for method, slope in results["slopes"].items():
            if slope is None:
                problems.append(f"{method}: no slope fitted")
    if command == "hypopt" and (
            len(results["trace"]["mean_score"]) != results["iterations"]):
        problems.append("hypopt: trace length differs from iteration count")
    return problems


def reference_problems(record: dict, want: dict, rtol: float,
                       atol: float) -> list:
    """Key results against reference values, passing when
    |got - want| <= atol + rtol |want|."""
    got = key_results(record)
    problems = [f"key result {key} missing" for key in want if key not in got]
    problems += [f"key result {key} not in the reference" for key in got
                 if key not in want]
    for key in want.keys() & got.keys():
        if not abs(got[key] - want[key]) <= atol + rtol * abs(want[key]):
            problems.append(f"{key}: {got[key]!r} differs from the reference "
                            f"{want[key]!r}")
    return sorted(problems)
