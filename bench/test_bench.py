"""Tests of the benchmark itself: exact counts, checks and metric names.

    python3 -m pytest -q bench/test_bench.py

The count test runs every workload twice with tracing on (about 20 s).
"""
import json
import pathlib
import sys
import time

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from qinitopt import cli  # noqa: E402
from qinitopt.records import record_hash  # noqa: E402

EXACT_COUNTS = ("simulator.rows", "simulator.gate_applications",
                "simulator.expectation.term_rows", "es.rollouts",
                "es.iterations", "tasks.train.steps",
                "differentiation.eigen.calls")


def _traced(command, overrides, tmp_path):
    """(record, untraced record, per-layer metrics) of one in-process run."""
    cfg = cli.resolve_config(command, overrides=overrides, out=tmp_path)
    runner = "cmd_" + command.replace("-", "_")
    plain = getattr(cli, runner)(cfg)
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        record = getattr(cli, runner)(cfg)
    finally:
        restore()
    metrics = {name: value for name, (value, _unit)
               in spans.layer_metrics(tracer.spans).items()}
    return record, plain, metrics


def test_hypopt_counts_match_hand_count(tmp_path):
    # p = 6 parameters (2 qubits x 3 angles), 4 gates: 2 rot + 2 cnot.
    # 2 iterations x 2 rollouts, one exact-QFIM s1 score each: 2p + 1 rows.
    record, plain, m = _traced("hypopt", [
        "ansatz.layers=1", "ansatz.qubits=2", "score.kind=s1",
        "es.n_samples=2", "es.n_iters=2"], tmp_path)
    assert record_hash(record) == record_hash(plain)
    rows = 4 * (2 * 6 + 1)
    assert m["es.iterations"] == 2
    assert m["es.rollouts"] == 4
    assert m["scoring.score.calls"] == 4
    assert m["differentiation.qfim.calls"] == 4
    assert m["distributions.sample_params.calls"] == 4
    assert m["simulator.apply_circuit.calls"] == 8
    assert m["simulator.run_gates.calls"] == 8
    assert m["simulator.rows"] == rows
    assert m["simulator.rows_per_call"] == rows / 8
    assert m["simulator.gate_applications"] == rows * 4
    # rot = 3 kernel passes, cnot = 1; 32 bytes per pass of each of 4
    # amplitudes
    assert m["simulator.bytes_computed"] == rows * (3 + 3 + 1 + 1) * 32 * 4
    assert m["simulator.expectation.term_rows"] == 0
    assert m["differentiation.eigen.calls"] == 0
    assert m["tasks.train.steps"] == 0


def test_vqe_counts_match_hand_count(tmp_path):
    # toy_2q: 3 real terms, so one 4x4 eigensolve for the exact energy.
    # 3 Adam steps: 4 cost evaluations of 1 row, 3 gradients of 2p = 12 rows.
    record, plain, m = _traced("vqe", [
        "hamiltonian=hamiltonians/toy_2q.txt", "methods=[\"manual\"]",
        "ansatz.layers=1", "train.iters=3"], tmp_path)
    assert record_hash(record) == record_hash(plain)
    rows = 4 * 1 + 3 * 12
    assert m["differentiation.eigen.calls"] == 1
    assert m["differentiation.eigen.max_dim"] == 4
    assert m["tasks.train.steps"] == 3
    assert m["tasks.gradient.calls"] == 3
    assert m["differentiation.gradient.calls"] == 3
    assert m["tasks.cost.calls"] == 4 + 3
    assert m["simulator.apply_circuit.calls"] == 7
    assert m["simulator.rows"] == rows
    assert m["simulator.expectation.term_rows"] == rows * 3
    assert m["es.rollouts"] == 0
    assert not checks.invariant_problems(record)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        deadline = time.monotonic() + run.BUDGET_S
        job = run._job(workload, run.REFERENCE["seed"], 1, False,
                       f"{workload}-test")
        runs.append(run._child(job, deadline))
    first, second = (r["layers"] for r in runs)
    assert {name: first[name] for name in EXACT_COUNTS} == {
        name: second[name] for name in EXACT_COUNTS}
    assert runs[0]["record_sha256"] == runs[1]["record_sha256"]
    assert runs[0]["record_sha256"] == (
        run.REFERENCE["workloads"][workload]["record_sha256"])


def test_checks_reject_bad_records(tmp_path):
    cfg = cli.resolve_config("vqe", overrides=[
        "hamiltonian=hamiltonians/toy_2q.txt", "methods=[\"manual\"]",
        "ansatz.layers=1", "train.iters=3"], out=tmp_path)
    record = json.loads(json.dumps(cli.cmd_vqe(cfg)))
    assert checks.invariant_problems(record) == []
    values = checks.key_results(record)
    assert checks.reference_problems(record, values, 1e-9, 1e-12) == []
    nudged = {**values, "manual.final_energy":
              values["manual.final_energy"] * (1 + 1e-8)}
    assert checks.reference_problems(record, nudged, 1e-9, 1e-12)
    entry = record["results"]["methods"]["manual"]
    entry["final_energy"] = record["results"]["exact_ground_energy"] - 1e-6
    entry["curve"] = entry["curve"][:-1]
    assert len(checks.invariant_problems(record)) == 2


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        run._layer_units())
    assert set(run.REFERENCE["workloads"]) == set(run.WORKLOADS)
