"""End-to-end acceptance checks.

Each test covers one shipped-quality criterion at its stated tolerance and
prints a single pass/fail line; run with `pytest tests/test_acceptance.py -v -s`
to see the lines as they complete.
"""
import contextlib
import math
import pathlib
import time

import numpy as np

from qinitopt.cli import cmd_bp_scan, cmd_hypopt, cmd_qml, cmd_vqe, \
    resolve_config
from qinitopt.differentiation import gradient, qfim_empirical, qfim_exact
from qinitopt.distributions import child_rng
from qinitopt.es import EsConfig, es_optimize
from qinitopt.records import canonical_json, record_hash
from qinitopt.scoring import utility_shape
from qinitopt.simulator import (CNOT, CZ, RY, ROTATION_KINDS, Circuit, Gate,
                                Observable, apply_circuit, expectation)


REPO = pathlib.Path(__file__).resolve().parent.parent
TOY_2Q = str(REPO / "hamiltonians" / "toy_2q.txt")
H2_4Q = str(REPO / "hamiltonians" / "h2_4q.txt")
BREAST_CANCER = str(REPO / "datasets" / "breast_cancer.csv")


@contextlib.contextmanager
def reported(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def random_circuit(rng):
    qubits = int(rng.integers(1, 7))
    gates, slot = [], 0
    for _ in range(int(rng.integers(6, 16))):
        if qubits > 1 and rng.random() < 0.3:
            a, b = rng.choice(qubits, size=2, replace=False)
            gates.append(Gate(CNOT if rng.random() < 0.5 else CZ,
                              target=int(a), control=int(b)))
        else:
            kind = ROTATION_KINDS[rng.integers(3)]
            gates.append(Gate(kind, target=int(rng.integers(qubits)),
                              param_slot=slot))
            slot += 1
    if slot == 0:
        gates.append(Gate(RY, target=0, param_slot=0))
        slot = 1
    return Circuit(qubits, tuple(gates), slot)


def random_observable(rng, qubits):
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        word = "".join(rng.choice(list("IXYZ")) for _ in range(qubits))
        if set(word) == {"I"}:
            word = "Z" + word[1:]
        terms.append((float(rng.uniform(-1, 1)), word))
    return Observable(tuple(terms))


def test_criterion_1_gradients_match_finite_differences():
    with reported(1, "parameter-shift vs finite differences"):
        started = time.perf_counter()
        rng = child_rng(2024, "acceptance", "fd")
        h = 1e-5
        for _ in range(50):
            circ = random_circuit(rng)
            obs = random_observable(rng, circ.num_qubits)
            theta = rng.uniform(0, 2 * math.pi, circ.num_params)
            cost = lambda rows: expectation(apply_circuit(circ, rows), obs)
            shift = gradient(circ, theta, cost)
            fd = np.empty_like(shift)
            for mu in range(len(theta)):
                up, down = theta.copy(), theta.copy()
                up[mu] += h
                down[mu] -= h
                fd[mu] = (cost(up[None, :])[0] - cost(down[None, :])[0]) \
                    / (2 * h)
            # relative per entry, with a unit floor so exact-zero gradients
            # (where the finite difference is pure round-off) stay comparable
            assert np.all(np.abs(shift - fd) <= 1e-6 * (1.0 + np.abs(fd)))
        assert time.perf_counter() - started < 30.0


def test_criterion_2_qfim_closed_forms():
    with reported(2, "QFIM closed forms"):
        rng = child_rng(2024, "acceptance", "qfim")
        single = Circuit(1, (Gate(RY, target=0, param_slot=0),), 1)
        for _ in range(20):
            theta = rng.uniform(-10, 10, 1)
            fisher = qfim_exact(single, theta)
            assert np.max(np.abs(fisher - [[1.0]])) < 1e-8
        product = Circuit(2, (Gate(RY, target=0, param_slot=0),
                              Gate(RY, target=1, param_slot=1)), 2)
        fisher = qfim_exact(product, rng.uniform(0, 2 * math.pi, 2))
        assert np.max(np.abs(fisher - np.eye(2))) < 1e-8
        for _ in range(20):
            grad = rng.standard_normal(6)
            fisher = qfim_empirical(grad)
            assert np.array_equal(np.diag(fisher), grad * grad)
            assert float(np.trace(fisher)) == float(np.sum(grad * grad))


def test_criterion_3_utility_shaping():
    with reported(3, "rank utility shaping"):
        util = utility_shape([3.0, -1.0, 7.0, 0.5, 2.0])
        assert sorted(util) == [-0.5, -0.25, 0.0, 0.25, 0.5]
        # raw order -1.0 < 0.5 < 2.0 < 3.0 < 7.0 maps to ranks 1,0,4,2,3
        assert list(util) == [0.25, -0.5, 0.5, -0.25, 0.0]
        rng = child_rng(2024, "acceptance", "utility")
        for n in range(2, 65):
            util = utility_shape(rng.standard_normal(n))
            assert abs(util.sum()) < 1e-12


def test_criterion_4_es_sanity():
    with reported(4, "evolutionary search sanity"):
        started = time.perf_counter()
        toy = lambda lam, rng: -float((lam[0] - 3.0) ** 2)
        cfg = EsConfig(eta=0.1, sigma_es=0.1, n_samples=50, n_iters=200,
                       eps_converge=1e-8, use_utility=False)
        for seed in range(10):
            lam, trace = es_optimize(toy, np.array([0.0]), cfg, seed)
            assert trace.n_iterations <= 200
            assert abs(lam[0] - 3.0) < 0.1
        lam, trace = es_optimize(lambda l, r: 7.0, np.array([1.5, -2.0]),
                                 EsConfig(n_iters=5, use_utility=False), 0)
        assert np.array_equal(lam, [1.5, -2.0])
        assert trace.update_l1[0] == 0.0
        assert time.perf_counter() - started < 10.0


def iterations_to_gap(curve, ground, threshold):
    for i, energy in enumerate(curve):
        if energy - ground < threshold:
            return i
    return math.inf


def test_criterion_5_vqe():
    with reported(5, "VQE convergence and method comparison"):
        cfg = resolve_config("vqe", overrides=[
            f'hamiltonian="{TOY_2Q}"', "es.n_iters=10"], seed=0)
        record = cmd_vqe(cfg)
        methods = record["results"]["methods"]
        assert set(methods) == {"s1", "s2", "s3", "manual"}
        for entry in methods.values():
            assert len(entry["curve"]) == 101
            assert entry["gap"] < 1e-2
        curves = {m: [] for m in ("s1", "s2", "s3", "manual")}
        ground = None
        for seed in range(5):
            cfg = resolve_config("vqe", overrides=[
                f'hamiltonian="{H2_4Q}"', "ansatz.layers=4",
                "es.n_iters=10"], seed=seed)
            record = cmd_vqe(cfg)
            ground = record["results"]["exact_ground_energy"]
            for method, entry in record["results"]["methods"].items():
                curves[method].append(entry["curve"])
        threshold = 0.2
        median_iters = {
            method: np.median([iterations_to_gap(c, ground, threshold)
                               for c in rows])
            for method, rows in curves.items()}
        wins = sum(median_iters[s] <= median_iters["manual"]
                   for s in ("s1", "s2", "s3"))
        assert wins >= 2


def test_criterion_6_qml():
    with reported(6, "QML pipeline and method comparison"):
        loss_at_50 = {m: [] for m in ("s1", "s2", "s3", "manual")}
        for seed in range(5):
            started = time.perf_counter()
            cfg = resolve_config("qml", overrides=[
                f'dataset="{BREAST_CANCER}"', "es.n_iters=5"], seed=seed)
            record = cmd_qml(cfg)
            assert time.perf_counter() - started < 600.0
            results = record["results"]
            assert results["n_train"] <= 200
            for method, entry in results["methods"].items():
                assert 0.0 <= entry["test_accuracy"] <= 1.0
                assert len(entry["loss_curve"]) == 101
                loss_at_50[method].append(entry["loss_curve"][50])
        medians = {m: np.median(v) for m, v in loss_at_50.items()}
        assert any(medians[s] <= medians["manual"] for s in ("s1", "s2", "s3"))


def test_criterion_7_barren_plateau_scaling():
    with reported(7, "barren-plateau variance scaling"):
        started = time.perf_counter()
        cfg = resolve_config("bp-scan", overrides=["es.n_iters=10"], seed=0)
        record = cmd_bp_scan(cfg)
        results = record["results"]
        assert results["qubit_range"] == [2, 4, 6, 8]
        assert results["m_samples"] == 200
        per_method = {}
        for row in results["rows"]:
            per_method.setdefault(row["method"], {})[row["qubits"]] \
                = row["variance"]
        uniform = per_method["uniform"]
        assert uniform[2] / uniform[8] > 10.0
        slopes = results["slopes"]
        assert slopes["uniform"] < 0.0
        for method in ("s1", "s2", "s3"):
            assert slopes[method] >= 1.2 * slopes["uniform"]
        assert time.perf_counter() - started < 1200.0


def hypopt_record(workers):
    cfg = resolve_config("hypopt",
                         overrides=["es.n_iters=3", "ansatz.layers=1",
                                    "ansatz.qubits=2"],
                         seed=11, workers=workers)
    return cmd_hypopt(cfg)


def test_criterion_8_record_determinism():
    with reported(8, "run-record determinism"):
        base = hypopt_record(workers=1)
        again = hypopt_record(workers=1)
        threaded = hypopt_record(workers=4)
        assert canonical_json(base) == canonical_json(again)
        assert canonical_json(base) == canonical_json(threaded)
        assert record_hash(base) == record_hash(threaded)
        vqe_overrides = [f'hamiltonian="{TOY_2Q}"', "es.n_iters=2",
                         "ansatz.layers=1", "train.iters=10"]
        one = cmd_vqe(resolve_config("vqe", overrides=vqe_overrides, seed=9))
        many = cmd_vqe(resolve_config("vqe", overrides=vqe_overrides, seed=9,
                                      workers=3))
        assert canonical_json(one) == canonical_json(many)
