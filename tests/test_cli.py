"""CLI config resolution, command runners, and output files."""
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st
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


def error_output(capsys) -> str:
    """What a failed run printed: its stderr, once stdout is checked empty."""
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


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
    for command in cli.COMMANDS:
        cfg = default_config(command)
        assert {"seed", "out", "workers"} <= set(cfg)
    with pytest.raises(ValueError, match="unknown command 'nope'"):
        default_config("nope")


def test_each_runner_is_found_by_its_command_name():
    """The bench looks each runner up as cmd_<name> on the module, with
    dashes as underscores, and tracing patches that attribute."""
    for name, spec in cli.COMMANDS.items():
        assert getattr(cli, "cmd_" + name.replace("-", "_")) is spec.run


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
    # --set merges its fragment like a config file does
    with pytest.raises(ValueError, match="unknown config key 'es.sigma'"):
        resolve_config("hypopt", overrides=['es={"sigma":0.1}'])
    with pytest.raises(ValueError, match="config key 'seed' expects type "
                       "integer"):
        resolve_config("hypopt", overrides=["seed.x=1"])


def test_set_merges_a_table_like_a_config_file(tmp_path):
    cfg = resolve_config("hypopt", overrides=['es={"eta":0.1,"n_iters":3}'])
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"es": {"eta": 0.1, "n_iters": 3}}))
    assert cfg == resolve_config("hypopt", config)
    assert cfg["es"]["eta"] == 0.1 and cfg["es"]["n_iters"] == 3
    assert cfg["es"]["n_samples"] == default_config("hypopt")["es"][
        "n_samples"]


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
        assert error_output(capsys) == (
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
        text = error_output(capsys)
        assert text.startswith("error: ") and text.count("\n") == 1
        assert "must not be negative" in text
        assert not out.exists()


def test_main_reports_wrong_hyperparameter_count(tmp_path, capsys):
    for command, item in (("hypopt", "initial=[1.0]"),
                          ("grad-profile", "values=[1.0]")):
        out = tmp_path / command
        code = main([command, "--out", str(out), "--set", item])
        assert code == 2
        assert error_output(capsys) == (
            "error: beta takes exactly two hyperparameters, got 1\n")
        assert not out.exists()


def test_main_rejects_zero_pca_components(tmp_path, capsys):
    out = tmp_path / "qml"
    code = main(["qml", "--out", str(out),
                 "--set", f"dataset={make_dataset(tmp_path)}",
                 "--set", "pca_components=0"])
    assert code == 2
    assert error_output(capsys) == (
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
        assert error_output(capsys) == (
            f"error: workers must be at least 1, got {workers}\n")
    code = main(["hypopt", "--out", str(tmp_path / "run"),
                 "--set", "workers=0"])
    assert code == 2
    assert error_output(capsys).startswith("error: workers must be")
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
    assert "unknown config key 'turbo'" in error_output(capsys)
    # a config file that does not parse is named in the one error line
    config = tmp_path / "bad.json"
    for body, reason in ((b"{seed: 1}", "Expecting property name"),
                         (b'{"seed": "\xff"}', "'utf-8' codec can't decode"),
                         (b"[1]", "must hold a JSON object"),
                         (b"[" * 10 ** 5 + b"]" * 10 ** 5,
                          "maximum recursion depth exceeded")):
        config.write_bytes(body)
        code = main(["hypopt", "--out", str(tmp_path / "out"),
                     "--config", str(config)])
        assert code == 2
        text = error_output(capsys)
        assert text.startswith(f"error: config file {config}: {reason}")
        assert text.count("\n") == 1
        assert not (tmp_path / "out").exists()


def test_main_rejects_non_finite_dataset_cell(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,label\n" + "1,2,0\n3,4,1\n" * 10 + "5,nan,0\n")
    code = main(["qml", "--out", str(tmp_path / "out"),
                 "--set", f'dataset="{path}"'])
    assert code == 2
    assert f"error: {path}:22: non-finite cell" in error_output(capsys)


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
        out = error_output(capsys)
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
    monkeypatch.setitem(cli.COMMANDS, "hypopt",
                        dataclasses.replace(cli.COMMANDS["hypopt"],
                                            run=failing))
    code = main(["hypopt", "--out", str(tmp_path)])
    assert code == 2
    out = error_output(capsys)
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
        monkeypatch.setitem(cli.COMMANDS, command,
                            dataclasses.replace(cli.COMMANDS[command],
                                                run=failing))
        out = tmp_path / command
        assert main([command, "--out", str(out)]) == 2
        text = error_output(capsys)
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
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and captured.err.count("\n") == 1
    assert "score.big_k" in errors[0] and "score.eps" in errors[0]
    assert "RuntimeWarning" not in captured.err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_main_reports_an_overflowing_gaussian_draw_by_its_values(tmp_path,
                                                                capsys):
    # sigma = 1e308 is finite, but sigma * z overflows for |z| > 1.8
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["grad-profile", "--out", str(tmp_path / "out"),
                     "--set", "family=gaussian",
                     "--set", "values=[0,1e308]"])
    assert code == 2
    text = error_output(capsys)
    assert text == ("error: Gaussian(mu=0.0, sigma=1e+308) draws overflow "
                    "the float range\n")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_main_reports_a_subnormal_gradient_spread(tmp_path, capsys):
    # sigma = 1e-320 draws subnormal thetas, whose |gradient| spread is so
    # small that the histogram's 1 / bin width overflows
    out = tmp_path / "out"
    code = main(["grad-profile", "--out", str(out),
                 "--set", "family=gaussian", "--set", "values=[0,1e-320]"])
    assert code == 2
    text = error_output(capsys)
    assert text.startswith("error: layer 1's |gradient| histogram has a "
                           "non-finite density") and text.count("\n") == 1
    assert not out.exists()


def test_main_rejects_a_dataset_with_no_test_rows(tmp_path, capsys,
                                                  monkeypatch):
    # 4 rows per class: the 80/20 split trains on all ceil(3.2) = 4 of them
    monkeypatch.setattr(cli, "es_lockstep",
                        lambda *a, **k: pytest.fail("ES ran before the check"))
    out = tmp_path / "out"
    code = main(["qml", "--out", str(out),
                 "--set", f"dataset={make_dataset(tmp_path, n=8)}"])
    assert code == 2
    text = error_output(capsys)
    assert text.startswith("error: dataset 'toy' leaves no test rows")
    assert text.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("item", ["train.iters=-1", "train.lr=-1"])
def test_main_checks_training_before_any_search(tmp_path, capsys,
                                                monkeypatch, item):
    monkeypatch.setattr(cli, "es_lockstep",
                        lambda *a, **k: pytest.fail("ES ran before the check"))
    runs = (["vqe", "--set", f"hamiltonian={TOY_HAMILTONIAN}"],
            ["qml", "--set", f"dataset={make_dataset(tmp_path)}"])
    for command in runs:
        out = tmp_path / command[0]
        assert main([*command, "--out", str(out), "--set", item]) == 2
        text = error_output(capsys)
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
        assert error_output(capsys) == (
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
    """Per ES iteration of 16 thetas, at the default omega=trace, one
    one-row forward run per chunk gives the exact or block-diagonal QFIM's
    trace and no derivative sweep runs; every Pauli-sum gradient (s2, s3,
    grad-profile's samples) takes one adjoint pass per chunk of the
    adjoint's own size. At omega=log_det the exact and the block-diagonal
    QFIM take one forward sweep per chunk, whose exact form also gives s3
    its Pauli-sum gradients. amplitudes, when set, lowers the cap so that
    16 rollouts take several chunks."""
    if amplitudes is not None:
        monkeypatch.setattr(differentiation, "MAX_SWEEP_AMPLITUDES",
                            amplitudes)
    calls = count_sweeps(monkeypatch)
    calls["trace"] = []
    trace_run = differentiation._generator_expectations

    def counted_trace(circuit, thetas, *args):
        calls["trace"].append(len(thetas))
        return trace_run(circuit, thetas, *args)
    monkeypatch.setattr(differentiation, "_generator_expectations",
                        counted_trace)
    h2 = str(REPO / "hamiltonians" / "h2_4q.txt")

    def chunks(circuit, rows_per_theta=None, thetas=16):
        return -(-thetas // sweep_batch_size(circuit, rows_per_theta))

    def reset():
        for seen in calls.values():
            seen.clear()

    def assert_runs(engine, iterations, circuit, rows_per_theta=None):
        assert len(calls[engine]) == iterations * chunks(circuit,
                                                         rows_per_theta)
        assert sum(calls[engine]) == iterations * 16

    circuit = build_strongly_entangling(2, 4)  # p = 24: exact QFIM
    for kind, omega in (("s1", "trace"), ("s2", "trace"), ("s3", "trace"),
                        ("s1", "log_det"), ("s3", "log_det")):
        reset()
        cfg = resolve_config("hypopt", overrides=[
            f"hamiltonian={h2}", f"score.kind={kind}", f"score.omega={omega}",
            "ansatz.layers=2", "es.n_iters=2"])
        iterations = cmd_hypopt(cfg)["results"]["iterations"]
        if omega == "log_det":
            # the exact sweep's derivatives also give s3 its gradients
            assert_runs("forward", iterations, circuit)
            assert not calls["trace"] and not calls["adjoint"]
            continue
        assert not calls["forward"]
        if kind == "s2":
            assert not calls["trace"]
        else:
            assert_runs("trace", iterations, circuit, 1)
        if kind == "s1":
            assert not calls["adjoint"]
        else:
            assert_runs("adjoint", iterations, circuit, 2)
    circuit = build_strongly_entangling(6, 4)  # p = 72: block QFIM
    for kind, omega in (("s1", "trace"), ("s3", "trace"),
                        ("s1", "log_det"), ("s3", "log_det")):
        reset()
        cfg = resolve_config("vqe", overrides=[
            f"hamiltonian={h2}", "ansatz.layers=6", f"methods=[\"{kind}\"]",
            f"score.omega={omega}", "es.n_iters=1", "train.iters=0"])
        record = cmd_vqe(cfg)
        iterations = record["results"]["methods"][kind]["es_iterations"]
        if omega == "log_det":
            assert_runs("forward", iterations, circuit)
            assert not calls["trace"]
        else:
            assert_runs("trace", iterations, circuit, 1)
            assert not calls["forward"]
        if kind == "s1":
            assert not calls["adjoint"]
        else:
            assert_runs("adjoint", iterations, circuit, 2)
    reset()
    cfg = resolve_config("bp-scan", overrides=[
        "qubit_range=[2,3]", "layers=2", "es.n_iters=1", "m_samples=2"])
    cmd_bp_scan(cfg)
    circuits = [build_two_design(2, n, 0) for n in (2, 3)]
    # the s1, s2 and s3 searches step in lockstep: per qubit count and
    # iteration, one trace forward over the s1 and s3 rows and one adjoint
    # pass over the s2 and s3 rows; uniform runs no ES
    assert not calls["forward"]
    assert len(calls["trace"]) == sum(chunks(c, 1, 32) for c in circuits)
    assert sum(calls["trace"]) == 2 * 2 * 16
    assert len(calls["adjoint"]) == sum(chunks(c, 2, 32) for c in circuits)
    assert sum(calls["adjoint"]) == 2 * 2 * 16
    reset()
    cfg = resolve_config("grad-profile", overrides=["m_samples=100"])
    cmd_grad_profile(cfg)
    step = sweep_batch_size(build_hea(5, 4), 2)
    assert not calls["forward"] and not calls["trace"]
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
    assert error_output(capsys) == (
        "error: Hamiltonian and ansatz qubit counts differ\n")


def test_vqe_trains_every_method_in_one_sweep_per_step(monkeypatch):
    """All methods step in lockstep: train.iters adjoint passes of every
    method's theta at once, not one pass per method and step, and no
    forward derivative sweep, at any stack height or circuit size."""
    calls = count_sweeps(monkeypatch)
    h2 = REPO / "hamiltonians" / "h2_4q.txt"
    for hamiltonian, layers, methods in ((TOY_HAMILTONIAN, 1, None),
                                         (h2, 8, None),
                                         (h2, 8, ["manual"])):
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
        assert calls == {"forward": [], "adjoint": [stack] * 5}


def test_vqe_method_curve_does_not_depend_on_the_method_count():
    """A method's energy curve is the same bits whichever other methods
    train beside it: the stack height picks no gradient path."""
    h2 = REPO / "hamiltonians" / "h2_4q.txt"
    curves = {}
    for methods in (None, ["manual"], ["s1", "manual"]):
        overrides = [f"hamiltonian={h2}", "ansatz.layers=8", "es.n_iters=1",
                     "train.iters=10"]
        if methods is not None:
            overrides.append("methods=" + json.dumps(methods))
        record = cmd_vqe(resolve_config("vqe", overrides=overrides))
        curves[len(record["results"]["methods"])] = (
            record["results"]["methods"]["manual"]["curve"])
    assert sorted(curves) == [1, 2, 4]
    assert curves[1] == curves[4]
    assert curves[2] == curves[4]


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
    assert done.stdout == ""
    assert done.stderr.startswith("error: training diverged at step ")
    assert done.stderr.count("\n") == 1 and "train.lr" in done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("kind", ["manual", "uniform"])
def test_hypopt_rejects_a_kind_that_is_not_a_score(tmp_path, capsys, kind):
    out = tmp_path / "hypopt"
    assert main(["hypopt", "--out", str(out), "--set", f"score.kind={kind}",
                 "--set", "ansatz.layers=1", "--set", "es.n_iters=1"]) == 2
    assert error_output(capsys) == (
        f"error: hypopt needs score.kind among s1, s2, s3, got '{kind}'\n")
    assert not out.exists()


def test_grad_profile_names_a_qubit_mismatch(tmp_path, capsys):
    out = tmp_path / "grad-profile"
    assert main(["grad-profile", "--out", str(out),
                 "--set", f"hamiltonian={TOY_HAMILTONIAN}",
                 "--set", "ansatz.qubits=3", "--set", "m_samples=2"]) == 2
    assert error_output(capsys) == (
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
        assert error_output(capsys) == (
            "error: ES diverged at iteration 0: the hyperparameters left the "
            "finite range; lower es.eta\n")
        assert not out.exists()
    # a perturbation too wide leaves the range before any update
    out = tmp_path / "sigma"
    assert main(["hypopt", "--out", str(out), "--set", "ansatz.layers=1",
                 "--set", "es.sigma_es=1e300", "--set", "es.n_iters=3"]) == 2
    assert error_output(capsys) == (
        "error: ES diverged at iteration 0: the hyperparameters left the "
        "finite range; lower es.sigma_es or es.eta\n")
    assert not out.exists()


@pytest.mark.parametrize("command, sigma, message", [
    # the search gradient divides by sigma_es
    ("bp-scan", "5e-324",
     "the search gradient overflowed; raise es.sigma_es"),
    # sigma_es times a normal draw overflows
    ("hypopt", "1.7976931348623157e308",
     "the hyperparameters left the finite range; lower es.sigma_es or "
     "es.eta"),
])
def test_main_names_es_overflow_at_extreme_sigma(tmp_path, capsys, command,
                                                  sigma, message):
    """Found by the drawn-config property test: both printed numpy's
    RuntimeWarning to stderr before their error line."""
    out = tmp_path / command
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--out", str(out), *set_flags(
            [*SMALL_RUNS[command], f"es.sigma_es={sigma}"])])
    assert code == 2
    assert error_output(capsys) == (
        f"error: ES diverged at iteration 0: {message}\n")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("item", ["score_batch=0", "score_batch=1",
                                  "subsample=1"])
def test_main_names_row_counts_below_the_class_count(tmp_path, capsys, item):
    out = tmp_path / "qml"
    code = main(["qml", "--out", str(out),
                 "--set", f"dataset={make_dataset(tmp_path)}", "--set", item])
    assert code == 2
    key, value = item.split("=")
    assert error_output(capsys) == (
        f"error: {key} must be at least the number of classes (2), "
        f"got {value}\n")
    assert not out.exists()


def test_main_rejects_zero_histogram_bins(tmp_path, capsys):
    out = tmp_path / "grad-profile"
    assert main(["grad-profile", "--out", str(out), "--set", "bins=0"]) == 2
    assert error_output(capsys) == "error: bins must be at least 1, got 0\n"
    assert not out.exists()


# keys whose value sets the size of a run: drawn from a small range, out of
# range included, so that every example stays a fraction of a second
SIZE_KEYS = {"ansatz.layers": 3, "layers": 3, "ansatz.qubits": 6,
             "m_samples": 5, "es.n_iters": 2, "es.n_samples": 4,
             "train.iters": 3, "theta_draws": 2, "bins": 5,
             "pca_components": 6, "subsample": 40, "score_batch": 40,
             "score.k_eigs": 8, "score.t": 8}
EXTREME_FLOATS = [0.0, -0.0, 0.5, -0.5, 1.0, 2.0, 5e-324, 1e-300, -1e-300,
                  1e300, 1e308, -1e308, 1.7976931348623157e308,
                  math.nan, math.inf, -math.inf]
EXTREME_INTS = [0, 1, 2, -1, -2, 7, 2 ** 31, -2 ** 31, 2 ** 63, 10 ** 30]
WORDS = {"ansatz.kind": ["hea", "two_design", "strongly_entangling"],
         "family": ["beta", "gaussian"],
         "score.kind": ["s1", "s2", "s3", "manual"],
         "score.omega": ["trace", "log_det", "harmonic"],
         "methods": ["s1", "s2", "s3", "manual", "uniform"]}
PATHS = [TOY_HAMILTONIAN, str(REPO / "hamiltonians" / "h2_4q.txt"),
         str(REPO / "datasets" / "wine.csv"), str(REPO / "missing.txt"),
         str(REPO)]
FLOATS = st.one_of(st.sampled_from(EXTREME_FLOATS), st.floats(-10.0, 10.0),
                   st.integers(-2, 2))
# of another type than most keys take; no integer, since an integer is in
# range for a size key
ODD_VALUES = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                       st.just({}), st.sampled_from(EXTREME_FLOATS),
                       st.lists(FLOATS, max_size=2))


def typed_values(key, default):
    """Values of the type a key's default has (or its null), in range, at
    the boundary, out of range and of extreme magnitude."""
    if key == "qubit_range":
        return st.lists(st.integers(-2, 6), max_size=3)
    if key in SIZE_KEYS:
        return st.integers(-2, SIZE_KEYS[key])
    if key in ("hamiltonian", "dataset"):
        return st.one_of(st.none(), st.sampled_from(PATHS))
    if key == "methods":
        return st.lists(st.sampled_from(WORDS[key] + ["x"]), max_size=4)
    if key in ("values", "initial"):
        return st.one_of(st.none(), st.lists(FLOATS, max_size=3))
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.one_of(st.sampled_from(EXTREME_INTS), st.integers(-3, 9))
    if isinstance(default, float):
        return FLOATS
    return st.sampled_from(WORDS.get(key, []) + ["", "x"])


@st.composite
def config_values(draw, key, default):
    """Mostly values of the key's own type, one in six of another."""
    if draw(st.integers(0, 5)) == 0:
        return draw(ODD_VALUES)
    return draw(typed_values(key, default))


def leaf_defaults(cfg, path=""):
    """(dotted key, default) of every leaf of a default config."""
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from leaf_defaults(value, f"{path}{key}.")
        else:
            yield f"{path}{key}", value


# a small run of each command, which the drawn overrides then change
SMALL_RUNS = {
    "hypopt": ["ansatz.layers=1", "ansatz.qubits=2", "es.n_iters=1",
               "es.n_samples=2"],
    "vqe": [f"hamiltonian={TOY_HAMILTONIAN}", "ansatz.layers=1",
            "es.n_iters=1", "es.n_samples=2", "train.iters=2"],
    "qml": ["ansatz.layers=1", "es.n_iters=1", "es.n_samples=2",
            "train.iters=2", "subsample=20", "score_batch=4"],
    "grad-profile": ["ansatz.layers=1", "ansatz.qubits=2", "m_samples=3",
                     "bins=3"],
    "bp-scan": ["qubit_range=[2,3]", "layers=1", "m_samples=3",
                "es.n_iters=1", "es.n_samples=2"],
}


@st.composite
def cli_runs(draw):
    """(command, overrides): a small run of one command with 1-4 drawn
    --set overrides of keys from its default config."""
    command = draw(st.sampled_from(sorted(SMALL_RUNS)))
    defaults = dict(leaf_defaults(default_config(command)))
    chosen = draw(st.lists(st.sampled_from(sorted(defaults)), min_size=1,
                           max_size=4, unique=True))
    return command, [(key, draw(config_values(key, defaults[key])))
                     for key in chosen]


def set_flags(items) -> list:
    """A --set flag for each key=value item."""
    return [flag for item in items for flag in ("--set", item)]


def finite_numbers(value) -> bool:
    """Whether every float in a JSON value is finite."""
    if isinstance(value, dict):
        return all(map(finite_numbers, value.values()))
    if isinstance(value, list):
        return all(map(finite_numbers, value))
    return not isinstance(value, float) or math.isfinite(value)


def run_main(args):
    """(exit code, stdout, stderr) of main(args)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300)
@given(cli_runs())
def test_every_drawn_config_runs_or_fails_in_one_line(run):
    """Any --set override either runs, writing a schema-valid record of
    finite numbers, or ends in exit code 2 with one error line on stderr,
    nothing on stdout and nothing written."""
    command, overrides = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        base = SMALL_RUNS[command]
        if command == "qml":
            base = [f"dataset={make_dataset(tmp)}", *base]
        items = base + [f"{key}={json.dumps(value)}"
                        for key, value in overrides]
        out = tmp / "out"
        code, stdout, stderr = run_main([command, "--out", str(out),
                                         *set_flags(items)])
        assert "Traceback" not in stderr
        if code == 2:
            assert stdout == ""
            assert stderr.startswith("error: ") and stderr.count("\n") == 1
            assert not out.exists()
        else:
            assert (code, stderr) == (0, "")
            record = json.loads((out / f"{command}.json").read_text())
            validate(record)
            assert finite_numbers(record)


# runs main on the given argv with stdout silenced, then prints its exit
# code and whether numpy.ma was imported
_IMPORT_PROBE = """
import contextlib, io, sys
from qinitopt.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_command_does_not_import_numpy_ma(tmp_path, command):
    """No command needs numpy.ma, whose import costs ~15 ms a run; the
    first np.unique call imports it, so the data path does without."""
    items = SMALL_RUNS[command]
    if command == "qml":
        # 30 rows over subsample=20: both the subsample and the split run
        items = [f"dataset={make_dataset(tmp_path)}", *items]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, command,
         "--out", str(tmp_path / "out"), *set_flags(items)],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300)
    assert done.stdout == "0 False\n", done.stderr


# the CSV sidecar each command writes beside its record, and its header
SIDECARS = {
    "hypopt": ("hypopt_trace.csv", ["iter", "alpha", "beta", "mean_score",
                                    "best_score", "delta_l1"]),
    "vqe": ("vqe_curves.csv", ["iter", "cost", "method"]),
    "qml": ("qml_curves.csv", ["iter", "cost", "method"]),
    "grad-profile": ("grad-profile_histogram.csv",
                     ["layer", "bin_left", "bin_right", "density"]),
    "bp-scan": ("bp-scan_bp.csv", ["qubits", "method", "variance"]),
}


def expected_summary(record) -> list:
    """The stdout lines a run prints before its `wrote` lines, rebuilt from
    the values in its written record, per method in the configured order."""
    command, results = record["command"], record["results"]
    methods = record["config"].get("methods", [])
    if command == "hypopt":
        alpha, beta = results["lambda_star"]
        state = "converged" if results["converged"] else "stopped"
        return [f"lambda*: alpha={alpha:.6g}, beta={beta:.6g} ({state} "
                f"after {results['iterations']} iterations)"]
    if command == "vqe":
        entries = [(m, results["methods"][m]) for m in methods]
        return [f"exact ground energy: {results['exact_ground_energy']:.8f}",
                *(f"{m}: final energy {e['final_energy']:.8f} "
                  f"(gap {e['gap']:.3e})" for m, e in entries)]
    if command == "qml":
        entries = [(m, results["methods"][m]) for m in methods]
        return [f"dataset {results['dataset']}: {results['num_classes']} "
                f"classes, {results['n_train']} train / {results['n_test']} "
                f"test",
                *(f"{m}: final loss {e['final_loss']:.4f}, "
                  f"test accuracy {e['test_accuracy']:.4f}"
                  for m, e in entries)]
    if command == "grad-profile":
        return ["mean |dC/dtheta| per layer: " + ", ".join(
            f"{v:.3e}" for v in results["layer_mean_abs_gradient"])]
    assert command == "bp-scan"
    slopes = [(m, results["slopes"][m]) for m in methods]
    return [f"{m}: log-variance slope "
            + ("n/a" if s is None else f"{s:.4f}") for m, s in slopes]


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_main_prints_each_command_summary_and_sidecar(tmp_path, command):
    """A run's stdout is its summary lines, one `wrote` line per file (the
    record, its meta and one CSV sidecar) and the record hash."""
    items = SMALL_RUNS[command]
    if command == "qml":
        items = [f"dataset={make_dataset(tmp_path)}", *items]
    out = tmp_path / "out"
    code, stdout, stderr = run_main([command, "--out", str(out),
                                     *set_flags(items)])
    assert (code, stderr) == (0, "")
    record = json.loads((out / f"{command}.json").read_text())
    sidecar, header = SIDECARS[command]
    assert stdout.splitlines() == [
        *expected_summary(record),
        f"wrote {out / f'{command}.json'}",
        f"wrote {out / f'{command}.meta.json'}",
        f"wrote {out / sidecar}",
        f"record sha256: {record_hash(record)}"]
    with open(out / sidecar) as handle:
        assert next(csv.reader(handle)) == header
