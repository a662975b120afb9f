"""CLI config resolution, command runners, and output files."""
import csv
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest

from qinitopt import cli, differentiation
from qinitopt.cli import (cmd_bp_scan, cmd_grad_profile, cmd_hypopt, cmd_qml,
                          cmd_vqe, default_config, main, resolve_config)
from qinitopt.differentiation import sweep_batch_size
from qinitopt.distributions import HyperParams, child_rng, sample_params
from qinitopt.records import record_hash
from qinitopt.simulator import (build_hea, build_strongly_entangling,
                                build_two_design)

REPO = pathlib.Path(__file__).resolve().parent.parent
SCHEMA = json.loads((REPO / "docs" / "runrecord.schema.json").read_text())
TOY_HAMILTONIAN = str(REPO / "hamiltonians" / "toy_2q.txt")


def validate(record):
    jsonschema.Draft202012Validator(SCHEMA).validate(record)


def make_dataset(tmp_path, n=30, features=4, classes=2, seed=11):
    rng = np.random.default_rng(seed)
    header = ",".join(f"f{i}" for i in range(features)) + ",label"
    rows = [header]
    for i in range(n):
        label = i % classes
        point = rng.standard_normal(features) + 2.0 * label
        rows.append(",".join(repr(float(v)) for v in point) + f",{label}")
    path = tmp_path / "toy.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_defaults_have_universal_keys():
    for command in ("hypopt", "vqe", "qml", "grad-profile", "bp-scan"):
        cfg = default_config(command)
        assert {"seed", "out", "workers"} <= set(cfg)


def test_resolve_config_precedence(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"seed": 5, "es": {"n_iters": 7}}))
    cfg = resolve_config("hypopt", config,
                         ["es.eta=0.2", 'family="gaussian"'],
                         seed=9, out=tmp_path / "o", workers=3)
    assert cfg["seed"] == 9  # flag beats file
    assert cfg["es"]["n_iters"] == 7
    assert cfg["es"]["eta"] == 0.2
    assert cfg["family"] == "gaussian"
    assert cfg["out"] == str(tmp_path / "o") and cfg["workers"] == 3


def test_resolve_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ValueError, match="unknown config key 'turbo'"):
        resolve_config("hypopt", overrides=["turbo=1"])
    with pytest.raises(ValueError, match="unknown config key 'es.turbo'"):
        resolve_config("hypopt", overrides=["es.turbo=1"])
    with pytest.raises(ValueError, match="unknown config key 'es.x"):
        resolve_config("hypopt", overrides=["es.x.y=1"])
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"es": {"sigma": 0.1}}))
    with pytest.raises(ValueError, match="unknown config key 'es.sigma'"):
        resolve_config("hypopt", config)
    config.write_text(json.dumps({"es": 3}))
    with pytest.raises(ValueError, match="expects a table"):
        resolve_config("hypopt", config)
    with pytest.raises(ValueError, match="expects a table"):
        resolve_config("hypopt", overrides=["es=3"])
    with pytest.raises(ValueError, match="key=value"):
        resolve_config("hypopt", overrides=["banana"])


def test_set_values_parse_as_json():
    cfg = resolve_config("vqe", overrides=[
        'methods=["manual","s1"]', "train.lr=0.05", "es.antithetic=false",
        "ansatz.qubits=null", 'hamiltonian="h.txt"'])
    assert cfg["methods"] == ["manual", "s1"]
    assert cfg["train"]["lr"] == 0.05
    assert cfg["es"]["antithetic"] is False
    assert cfg["ansatz"]["qubits"] is None
    assert cfg["hamiltonian"] == "h.txt"


def fast_hypopt_config(**extra):
    cfg = resolve_config("hypopt")
    cfg["ansatz"].update({"layers": 1, "qubits": 2})
    cfg["es"].update({"n_iters": 3})
    for key, value in extra.items():
        cfg[key] = value
    return cfg


def test_hypopt_zero_iterations_returns_initial_guess():
    cfg = fast_hypopt_config(initial=[0.5, 1.25])
    cfg["es"]["n_iters"] = 0
    record = cmd_hypopt(cfg)
    got = record["results"]["lambda_star"]
    assert np.allclose(got, [0.5, 1.25], atol=1e-12)
    assert record["results"]["iterations"] == 0
    assert record["results"]["trace"]["hyperparams"] == []
    validate(record)


def test_hypopt_emits_positive_hyperparams_and_trace():
    cfg = fast_hypopt_config()
    record = cmd_hypopt(cfg)
    assert all(v > 0 for v in record["results"]["lambda_star"])
    trace = record["results"]["trace"]
    assert len(trace["hyperparams"]) == record["results"]["iterations"] > 0
    assert len(trace["mean_score"]) == len(trace["update_l1"])
    validate(record)


def test_hypopt_deterministic_and_seed_sensitive():
    cfg = fast_hypopt_config()
    a, b = cmd_hypopt(cfg), cmd_hypopt(cfg)
    assert record_hash(a) == record_hash(b)
    cfg2 = fast_hypopt_config()
    cfg2["seed"] = 123
    assert cmd_hypopt(cfg2)["results"]["lambda_star"] != \
        a["results"]["lambda_star"]


def test_hypopt_worker_count_does_not_change_record():
    cfg = fast_hypopt_config()
    one = cmd_hypopt(cfg)
    cfg["workers"] = 4
    four = cmd_hypopt(cfg)
    assert one == four
    assert "workers" not in one["config"] and "out" not in one["config"]


def test_hypopt_gradient_scores_need_a_task():
    cfg = fast_hypopt_config()
    cfg["score"]["kind"] = "s2"
    with pytest.raises(ValueError, match="task cost"):
        cmd_hypopt(cfg)
    cfg["hamiltonian"] = TOY_HAMILTONIAN
    record = cmd_hypopt(cfg)
    assert record["results"]["score_kind"] == "s2"
    validate(record)


def test_vqe_record_contents():
    cfg = resolve_config("vqe", overrides=[
        f'hamiltonian="{TOY_HAMILTONIAN}"', "es.n_iters=3",
        "ansatz.layers=2", "train.iters=40", 'methods=["s1","manual"]'])
    record = cmd_vqe(cfg)
    results = record["results"]
    assert abs(results["exact_ground_energy"] - (-math.sqrt(17) / 4)) < 1e-9
    assert set(results["methods"]) == {"s1", "manual"}
    manual = results["methods"]["manual"]
    assert manual["hyperparams"] == [0.1, 1.5]
    assert "es_iterations" not in manual
    for entry in results["methods"].values():
        assert len(entry["curve"]) == 41
        assert entry["final_energy"] == entry["curve"][-1]
        assert abs(entry["gap"] - (entry["final_energy"]
                                   - results["exact_ground_energy"])) < 1e-15
    assert results["methods"]["s1"]["es_iterations"] > 0
    validate(record)


def test_vqe_requires_hamiltonian():
    cfg = resolve_config("vqe")
    with pytest.raises(ValueError, match="hamiltonian"):
        cmd_vqe(cfg)


def test_vqe_rejects_unknown_method():
    cfg = resolve_config("vqe", overrides=[
        f'hamiltonian="{TOY_HAMILTONIAN}"', 'methods=["s1","uniform"]'])
    with pytest.raises(ValueError, match="unknown method 'uniform'"):
        cmd_vqe(cfg)


def test_qml_record_contents(tmp_path):
    dataset = make_dataset(tmp_path)
    cfg = resolve_config("qml", overrides=[
        f'dataset="{dataset}"', "pca_components=2", "ansatz.layers=1",
        "es.n_iters=2", "train.iters=4"])
    record = cmd_qml(cfg)
    results = record["results"]
    assert results["num_classes"] == 2
    assert results["n_train"] == 24 and results["n_test"] == 6
    assert set(results["methods"]) == {"s1", "s2", "s3", "manual"}
    for entry in results["methods"].values():
        assert len(entry["loss_curve"]) == 5
        assert 0.0 <= entry["test_accuracy"] <= 1.0
        assert 0.0 <= entry["train_accuracy"] <= 1.0
    validate(record)


def test_qml_requires_dataset():
    with pytest.raises(ValueError, match="dataset"):
        cmd_qml(resolve_config("qml"))


def grad_profile_config(**extra):
    cfg = resolve_config("grad-profile")
    cfg["m_samples"] = 50
    cfg["bins"] = 12
    for key, value in extra.items():
        cfg[key] = value
    return cfg


def test_grad_profile_densities_integrate_to_one():
    record = cmd_grad_profile(grad_profile_config())
    results = record["results"]
    assert results["num_layers"] == 5
    assert len(results["histogram"]) == 5 * 12
    integrals = {}
    for row in results["histogram"]:
        width = row["bin_right"] - row["bin_left"]
        integrals[row["layer"]] = integrals.get(row["layer"], 0.0) \
            + row["density"] * width
    assert set(integrals) == {1, 2, 3, 4, 5}
    for total in integrals.values():
        assert abs(total - 1.0) < 1e-9
    validate(record)


def test_grad_profile_zero_delta_equals_baseline():
    base = cmd_grad_profile(grad_profile_config())
    zero = cmd_grad_profile(grad_profile_config(delta=0.0))
    assert base["results"] == zero["results"]
    shifted = cmd_grad_profile(grad_profile_config(delta=0.05))
    assert shifted["results"]["values"] == [0.1 + 0.05, 1.5 + 0.05]
    assert shifted["results"]["histogram"] != base["results"]["histogram"]


def test_bp_scan_record_contents():
    cfg = resolve_config("bp-scan", overrides=[
        "qubit_range=[2,3]", "m_samples=40", 'methods=["uniform","s1"]',
        "es.n_iters=2"])
    record = cmd_bp_scan(cfg)
    results = record["results"]
    assert len(results["rows"]) == 4  # one row per (qubits, method)
    seen = {(row["qubits"], row["method"]) for row in results["rows"]}
    assert seen == {(2, "uniform"), (2, "s1"), (3, "uniform"), (3, "s1")}
    for row in results["rows"]:
        assert row["variance"] >= 0.0
    assert set(results["slopes"]) == {"uniform", "s1"}
    validate(record)


def test_bp_scan_rejects_empty_and_repeated_qubit_counts(tmp_path, capsys):
    for counts in ("[]", "[2, 2]", "[2, 3, 2]"):
        out = tmp_path / "bp"
        code = main(["bp-scan", "--out", str(out),
                     "--set", f"qubit_range={counts}"])
        assert code == 2
        assert capsys.readouterr().out == (
            f"error: qubit_range must list distinct qubit counts, "
            f"got {counts}\n")
        assert not out.exists()


@pytest.mark.parametrize("item", ["train.iters=-1", "train.lr=-1"])
def test_main_rejects_negative_training_inputs(tmp_path, capsys, item):
    dataset = make_dataset(tmp_path)
    runs = (["vqe", "--set", f"hamiltonian={TOY_HAMILTONIAN}"],
            ["qml", "--set", f"dataset={dataset}"])
    for command in runs:
        out = tmp_path / command[0]
        code = main([*command, "--out", str(out), "--set", item,
                     "--set", 'methods=["manual"]', "--set", "ansatz.layers=1"])
        assert code == 2
        text = capsys.readouterr().out
        assert text.startswith("error: ") and text.count("\n") == 1
        assert "must not be negative" in text
        assert not out.exists()


def test_main_reports_wrong_hyperparameter_count(tmp_path, capsys):
    for command, item in (("hypopt", "initial=[1.0]"),
                          ("grad-profile", "values=[1.0]")):
        out = tmp_path / command
        code = main([command, "--out", str(out), "--set", item])
        assert code == 2
        assert capsys.readouterr().out == (
            "error: beta takes exactly two hyperparameters, got 1\n")
        assert not out.exists()


def test_main_rejects_zero_pca_components(tmp_path, capsys):
    out = tmp_path / "qml"
    code = main(["qml", "--out", str(out),
                 "--set", f"dataset={make_dataset(tmp_path)}",
                 "--set", "pca_components=0"])
    assert code == 2
    assert capsys.readouterr().out == (
        "error: need at least 1 principal component, got 0\n")
    assert not out.exists()


def test_bp_scan_single_qubit_count_has_no_slope():
    cfg = resolve_config("bp-scan", overrides=[
        "qubit_range=[2]", "m_samples=4", 'methods=["uniform"]'])
    results = cmd_bp_scan(cfg)["results"]
    assert len(results["rows"]) == 1
    assert results["slopes"] == {"uniform": None}


def test_grad_profile_at_overflowing_shapes():
    # alpha + beta overflows; every draw is 3/4 of the period, where the
    # parity cost's second layer has a gradient, not 0
    values = [1.5e308, 5e307]
    draws = sample_params(HyperParams("beta", tuple(values)), 8, child_rng(0))
    np.testing.assert_allclose(draws, 1.5 * math.pi, rtol=1e-12)
    results = cmd_grad_profile(grad_profile_config(values=values))["results"]
    assert results["layer_mean_abs_gradient"][1] > 0.1


def test_main_rejects_workers_below_one(tmp_path, capsys):
    for workers in ("0", "-3"):
        code = main(["hypopt", "--out", str(tmp_path / "run"),
                     "--workers", workers])
        assert code == 2
        assert capsys.readouterr().out == (
            f"error: workers must be at least 1, got {workers}\n")
    code = main(["hypopt", "--out", str(tmp_path / "run"),
                 "--set", "workers=0"])
    assert code == 2
    assert capsys.readouterr().out.startswith("error: workers must be")
    assert not (tmp_path / "run").exists()


def test_main_writes_all_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["hypopt", "--seed", "1", "--out", str(out),
                 "--set", "es.n_iters=2", "--set", "ansatz.layers=1",
                 "--set", "ansatz.qubits=2"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "lambda*" in captured and "record sha256" in captured
    record = json.loads((out / "hypopt.json").read_text())
    validate(record)
    meta = json.loads((out / "hypopt.meta.json").read_text())
    assert meta["record_sha256"] == record_hash(record)
    with open(out / "hypopt_trace.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["iter", "alpha", "beta", "mean_score", "best_score",
                       "delta_l1"]
    assert len(rows) == 1 + record["results"]["iterations"]


def test_main_rerun_is_byte_identical(tmp_path):
    args = ["hypopt", "--seed", "3", "--set", "es.n_iters=2",
            "--set", "ansatz.layers=1", "--set", "ansatz.qubits=2"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b"), "--workers", "4"]) == 0
    first = (tmp_path / "a" / "hypopt.json").read_bytes()
    second = (tmp_path / "b" / "hypopt.json").read_bytes()
    assert first == second
    assert (tmp_path / "a" / "hypopt_trace.csv").read_bytes() == \
        (tmp_path / "b" / "hypopt_trace.csv").read_bytes()


def test_main_reports_config_errors(tmp_path, capsys):
    code = main(["hypopt", "--out", str(tmp_path), "--set", "turbo=1"])
    assert code == 2
    assert "unknown config key 'turbo'" in capsys.readouterr().out


def test_main_rejects_non_finite_dataset_cell(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,label\n" + "1,2,0\n3,4,1\n" * 10 + "5,nan,0\n")
    code = main(["qml", "--out", str(tmp_path / "out"),
                 "--set", f'dataset="{path}"'])
    assert code == 2
    assert f"error: {path}:22: non-finite cell" in capsys.readouterr().out


def test_main_vqe_curves_csv(tmp_path):
    out = tmp_path / "vqe"
    code = main(["vqe", "--seed", "2", "--out", str(out),
                 "--set", f'hamiltonian="{TOY_HAMILTONIAN}"',
                 "--set", "es.n_iters=2", "--set", "ansatz.layers=1",
                 "--set", 'methods=["manual","s3"]',
                 "--set", "train.iters=10"])
    assert code == 0
    with open(out / "vqe_curves.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["iter", "cost", "method"]
    methods = [row[2] for row in rows[1:]]
    assert methods == ["manual"] * 11 + ["s3"] * 11
    assert [row[0] for row in rows[1:12]] == [str(i) for i in range(11)]


def test_config_values_must_match_default_types(tmp_path):
    bad = ['es.n_iters="abc"', 'train.lr="x"', "es.n_iters=2.5", "es.n_iters=true",
           "train.lr=true", "train.lr=NaN", "es.antithetic=1", 'methods="s1"',
           'methods=["s1",3]', "ansatz.qubits=2.0", "hamiltonian=3",
           'initial=[1,"a"]']
    for item in bad:
        key = item.partition("=")[0]
        with pytest.raises(ValueError, match=f"config key '{key}' expects type"):
            resolve_config("vqe" if key != "initial" else "hypopt",
                           overrides=[item])
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"es": {"n_samples": "8"}}))
    with pytest.raises(ValueError, match="'es.n_samples' expects type integer"):
        resolve_config("vqe", config)
    cfg = resolve_config("vqe", overrides=[
        "train.lr=1", "ansatz.qubits=3", "ansatz.qubits=null", "es.eta=0.5"])
    assert cfg["train"]["lr"] == 1 and cfg["ansatz"]["qubits"] is None
    cfg = resolve_config("hypopt", overrides=["initial=[1,2.5]"])
    assert cfg["initial"] == [1, 2.5]
    config.write_text(json.dumps({"initial": None, "hamiltonian": "h.txt"}))
    assert resolve_config("hypopt", config)["hamiltonian"] == "h.txt"


def test_main_reports_bad_set_values(tmp_path, capsys):
    for item in ('es.n_iters="abc"', 'train.lr="x"'):
        code = main(["vqe", "--out", str(tmp_path), "--set", item])
        assert code == 2
        out = capsys.readouterr().out
        assert out.startswith("error: config key") and out.count("\n") == 1


@pytest.mark.parametrize("exc", [
    FloatingPointError("statevector norm is NaN"),
    ZeroDivisionError("division by zero"),
    RuntimeError("score evaluation failed at iteration 0"),
])
def test_main_reports_arithmetic_and_es_errors(tmp_path, capsys, monkeypatch,
                                                exc):
    def failing(cfg):
        raise exc from ValueError("inner cause")
    monkeypatch.setitem(cli._RUNNERS, "hypopt", failing)
    code = main(["hypopt", "--out", str(tmp_path)])
    assert code == 2
    out = capsys.readouterr().out
    assert out == f"error: {exc}: inner cause\n"


@pytest.mark.parametrize("exc", [
    MemoryError("Unable to allocate 16.0 GiB for an array with shape "
                "(1073741824,) and data type complex128"),
    MemoryError(),
])
def test_main_reports_out_of_memory(tmp_path, capsys, monkeypatch, exc):
    def failing(cfg):
        raise exc
    for command in ("bp-scan", "grad-profile"):
        monkeypatch.setitem(cli._RUNNERS, command, failing)
        out = tmp_path / command
        assert main([command, "--out", str(out)]) == 2
        text = capsys.readouterr().out
        assert text.startswith("error: out of memory") and text.count("\n") == 1
        assert str(exc) in text
        assert not out.exists()


def test_main_reports_a_harmonic_overflow_by_its_keys(tmp_path, capsys):
    # 1e308 over a near-zero eigenvalue plus eps overflows the harmonic sum
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["hypopt", "--out", str(tmp_path / "out"),
                     "--set", "ansatz.layers=1",
                     "--set", "score.omega=harmonic",
                     "--set", "score.big_k=1e308", "--set", "es.n_iters=1"])
    assert code == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.out.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and captured.out.count("\n") == 1
    assert "score.big_k" in errors[0] and "score.eps" in errors[0]
    assert "RuntimeWarning" not in captured.err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("item", ["train.iters=-1", "train.lr=-1"])
def test_main_checks_training_before_any_search(tmp_path, capsys,
                                                monkeypatch, item):
    monkeypatch.setattr(cli, "es_optimize",
                        lambda *a, **k: pytest.fail("ES ran before the check"))
    runs = (["vqe", "--set", f"hamiltonian={TOY_HAMILTONIAN}"],
            ["qml", "--set", f"dataset={make_dataset(tmp_path)}"])
    for command in runs:
        out = tmp_path / command[0]
        assert main([*command, "--out", str(out), "--set", item]) == 2
        text = capsys.readouterr().out
        assert text.startswith("error: ") and text.count("\n") == 1
        assert "must not be negative" in text
        assert not out.exists()


def test_main_rejects_negative_structure_seed(tmp_path, capsys):
    runs = (["bp-scan", "--set", "structure_seed=-3"],
            ["hypopt", "--set", "ansatz.kind=two_design",
             "--set", "ansatz.structure_seed=-2"])
    for command in runs:
        out = tmp_path / command[0]
        assert main([*command, "--out", str(out)]) == 2
        seed = command[-1].split("=")[1]
        assert capsys.readouterr().out == (
            f"error: structure seed must be non-negative, got {seed}\n")
        assert not out.exists()


def count_sweeps(monkeypatch):
    """Thetas per forward derivative sweep and per adjoint pass."""
    calls = {"forward": [], "adjoint": []}
    sweep = differentiation._derivative_sweep
    adjoint = differentiation.adjoint_gradient

    def counted(circuit, thetas, *args):
        calls["forward"].append(len(thetas))
        return sweep(circuit, thetas, *args)

    def counted_adjoint(circuit, thetas, *args):
        calls["adjoint"].append(len(thetas))
        return adjoint(circuit, thetas, *args)
    monkeypatch.setattr(differentiation, "_derivative_sweep", counted)
    monkeypatch.setattr(differentiation, "adjoint_gradient", counted_adjoint)
    return calls


@pytest.mark.parametrize("amplitudes", [None, 2000])
def test_cli_objectives_sweep_once_per_chunk(tmp_path, monkeypatch,
                                             amplitudes):
    """Per ES iteration, one forward sweep per chunk for the exact and the
    block-diagonal QFIM, whose exact sweep also gives s3 its Pauli-sum
    gradients; every other Pauli-sum gradient (s2, s3 on the block path,
    grad-profile's samples) takes one adjoint pass per chunk of the
    adjoint's own size. amplitudes, when set, lowers the cap so that 16
    rollouts take several forward chunks."""
    if amplitudes is not None:
        monkeypatch.setattr(differentiation, "MAX_SWEEP_AMPLITUDES",
                            amplitudes)
    calls = count_sweeps(monkeypatch)
    h2 = str(REPO / "hamiltonians" / "h2_4q.txt")

    def chunks(circuit, rows_per_theta=None):
        return -(-16 // sweep_batch_size(circuit, rows_per_theta))

    def reset():
        for seen in calls.values():
            seen.clear()

    for kind in ("s1", "s2", "s3"):
        reset()
        cfg = resolve_config("hypopt", overrides=[
            f"hamiltonian={h2}", f"score.kind={kind}", "ansatz.layers=2",
            "es.n_iters=2"])
        iterations = cmd_hypopt(cfg)["results"]["iterations"]
        circuit = build_strongly_entangling(2, 4)  # p = 24: exact QFIM
        swept = calls["adjoint" if kind == "s2" else "forward"]
        rows = 2 if kind == "s2" else None
        assert len(swept) == iterations * chunks(circuit, rows)
        assert sum(swept) == iterations * 16
        assert not calls["forward" if kind == "s2" else "adjoint"]
    for kind in ("s1", "s3"):
        reset()
        cfg = resolve_config("vqe", overrides=[
            f"hamiltonian={h2}", "ansatz.layers=6", f"methods=[\"{kind}\"]",
            "es.n_iters=1", "train.iters=0"])
        record = cmd_vqe(cfg)
        iterations = record["results"]["methods"][kind]["es_iterations"]
        circuit = build_strongly_entangling(6, 4)  # p = 72: block QFIM
        assert len(calls["forward"]) == iterations * chunks(circuit)
        assert len(calls["adjoint"]) == (
            0 if kind == "s1" else iterations * chunks(circuit, 2))
    reset()
    cfg = resolve_config("bp-scan", overrides=[
        "qubit_range=[2,3]", "layers=2", "es.n_iters=1", "m_samples=2"])
    cmd_bp_scan(cfg)
    circuits = [build_two_design(2, n, 0) for n in (2, 3)]
    # s1 and s3 sweep forward, s2 takes adjoint passes; uniform runs no ES
    assert len(calls["forward"]) == 2 * sum(map(chunks, circuits))
    assert len(calls["adjoint"]) == sum(chunks(c, 2) for c in circuits)
    reset()
    cfg = resolve_config("grad-profile", overrides=["m_samples=100"])
    cmd_grad_profile(cfg)
    step = sweep_batch_size(build_hea(5, 4), 2)
    assert not calls["forward"]
    assert len(calls["adjoint"]) == -(-100 // step)
    assert sum(calls["adjoint"]) == 100


def test_hypopt_takes_a_hamiltonian_above_the_dense_oracle_cap(tmp_path,
                                                               capsys):
    # 11 qubits: above tasks.MAX_ORACLE_QUBITS, which caps only the dense
    # ground energy that vqe reports and hypopt never reads
    wide = tmp_path / "wide.txt"
    wide.write_text("1.0 ZZZZZZZZZZZ\n0.5 XIIIIIIIIII\n")
    args = ["hypopt", "--set", f"hamiltonian={wide}", "--set", "score.kind=s2",
            "--set", "ansatz.layers=1", "--set", "es.n_iters=1",
            "--set", "es.n_samples=2"]
    assert main([*args, "--set", "ansatz.qubits=11",
                 "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    assert main([*args, "--set", "ansatz.qubits=4",
                 "--out", str(tmp_path / "b")]) == 2
    assert capsys.readouterr().out == (
        "error: Hamiltonian and ansatz qubit counts differ\n")


def test_vqe_trains_every_method_in_one_sweep_per_step(monkeypatch):
    """All methods step in lockstep: train.iters gradient passes of every
    method's theta at once, not one pass per method and step, by the one
    path that adjoint_pays picks for the stack."""
    calls = count_sweeps(monkeypatch)
    h2 = REPO / "hamiltonians" / "h2_4q.txt"
    for hamiltonian, layers, methods, path in (
            # p = 6, 4 thetas: 112 amplitudes in a forward sweep
            (TOY_HAMILTONIAN, 1, None, "forward"),
            # p = 96, 4 thetas: 6208 amplitudes, enough for the adjoint
            (h2, 8, None, "adjoint"),
            # p = 96, 1 theta: 1552 amplitudes
            (h2, 8, ["manual"], "forward")):
        for seen in calls.values():
            seen.clear()
        overrides = [f"hamiltonian={hamiltonian}", f"ansatz.layers={layers}",
                     "es.n_iters=0", "train.iters=5"]
        if methods is not None:
            overrides.append("methods=" + json.dumps(methods))
        cfg = resolve_config("vqe", overrides=overrides)
        record = cmd_vqe(cfg)
        stack = len(record["results"]["methods"])
        assert stack == len(methods or cfg["methods"])
        circuit = build_strongly_entangling(layers, 2 if layers == 1 else 4)
        assert differentiation.adjoint_pays(circuit, stack) == (
            path == "adjoint")
        other = "forward" if path == "adjoint" else "adjoint"
        assert calls == {path: [stack] * 5, other: []}


def test_main_reports_divergent_training_in_one_line(tmp_path):
    """An overflowing Adam update ends the run with one error line that
    names the step and train.lr, and no numpy warning reaches stderr."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH"))))}
    out = tmp_path / "vqe"
    done = subprocess.run(
        [sys.executable, "-m", "qinitopt.cli", "vqe", "--out", str(out),
         "--set", "hamiltonian=hamiltonians/h2_4q.txt",
         "--set", 'methods=["manual"]', "--set", "train.iters=2",
         "--set", "train.lr=1e308"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 2
    assert done.stdout.startswith("error: training diverged at step ")
    assert done.stdout.count("\n") == 1 and "train.lr" in done.stdout
    assert "RuntimeWarning" not in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("kind", ["manual", "uniform"])
def test_hypopt_rejects_a_kind_that_is_not_a_score(tmp_path, capsys, kind):
    out = tmp_path / "hypopt"
    assert main(["hypopt", "--out", str(out), "--set", f"score.kind={kind}",
                 "--set", "ansatz.layers=1", "--set", "es.n_iters=1"]) == 2
    assert capsys.readouterr().out == (
        f"error: hypopt needs score.kind among s1, s2, s3, got '{kind}'\n")
    assert not out.exists()


def test_grad_profile_names_a_qubit_mismatch(tmp_path, capsys):
    out = tmp_path / "grad-profile"
    assert main(["grad-profile", "--out", str(out),
                 "--set", f"hamiltonian={TOY_HAMILTONIAN}",
                 "--set", "ansatz.qubits=3", "--set", "m_samples=2"]) == 2
    assert capsys.readouterr().out == (
        "error: Hamiltonian and ansatz qubit counts differ\n")
    assert not out.exists()


def test_main_names_es_overflow(tmp_path, capsys):
    runs = (["hypopt", "--set", "ansatz.layers=1"],
            ["vqe", "--set", f"hamiltonian={TOY_HAMILTONIAN}",
             "--set", 'methods=["s1"]', "--set", "ansatz.layers=1",
             "--set", "train.iters=1"])
    for command in runs:
        out = tmp_path / command[0]
        assert main([*command, "--out", str(out), "--set", "es.eta=1e308",
                     "--set", "es.n_iters=3"]) == 2
        assert capsys.readouterr().out == (
            "error: ES diverged at iteration 0: the hyperparameters left the "
            "finite range; lower es.eta\n")
        assert not out.exists()
    # a perturbation too wide leaves the range before any update
    out = tmp_path / "sigma"
    assert main(["hypopt", "--out", str(out), "--set", "ansatz.layers=1",
                 "--set", "es.sigma_es=1e300", "--set", "es.n_iters=3"]) == 2
    assert capsys.readouterr().out == (
        "error: ES diverged at iteration 0: the hyperparameters left the "
        "finite range; lower es.sigma_es or es.eta\n")
    assert not out.exists()


@pytest.mark.parametrize("item", ["score_batch=0", "score_batch=1",
                                  "subsample=1"])
def test_main_names_row_counts_below_the_class_count(tmp_path, capsys, item):
    out = tmp_path / "qml"
    code = main(["qml", "--out", str(out),
                 "--set", f"dataset={make_dataset(tmp_path)}", "--set", item])
    assert code == 2
    key, value = item.split("=")
    assert capsys.readouterr().out == (
        f"error: {key} must be at least the number of classes (2), "
        f"got {value}\n")
    assert not out.exists()


def test_main_rejects_zero_histogram_bins(tmp_path, capsys):
    out = tmp_path / "grad-profile"
    assert main(["grad-profile", "--out", str(out), "--set", "bins=0"]) == 2
    assert capsys.readouterr().out == "error: bins must be at least 1, got 0\n"
    assert not out.exists()
