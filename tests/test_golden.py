"""Golden results: small runs pinned to values from a known-good commit.

A refactor that changes floating-point paths must keep these within the
stated tolerance without any edit to this file.
"""
import pathlib

import numpy as np

from qinitopt.cli import (cmd_bp_scan, cmd_grad_profile, cmd_hypopt, cmd_qml,
                          cmd_vqe, resolve_config)

REPO = pathlib.Path(__file__).resolve().parent.parent
RTOL = 1e-9

# h2_4q at 6 strongly-entangling layers: p = 72 is above the exact-QFIM
# threshold, so s1 and s3 score every rollout with the block-diagonal QFIM.
VQE_BLOCK_GOLDEN = {
    "exact_ground_energy": -1.851045678444864,
    "s1": {
        "hyperparams": [1.3486810164015746, 4.666680698446902],
        "curve": [-1.024061554075487, -1.058574904674783,
                  -1.0906953862388977],
        "gap": 0.7603502922059662,
    },
    "s3": {
        "hyperparams": [1.7372171485973473, 3.1476978387407697],
        "curve": [-0.627851468621251, -0.6507848930150401,
                  -0.6756955702066008],
        "gap": 1.1753501082382631,
    },
}


def test_vqe_block_diagonal_golden():
    hamiltonian = REPO / "hamiltonians" / "h2_4q.txt"
    cfg = resolve_config("vqe", overrides=[
        f'hamiltonian="{hamiltonian}"', "ansatz.layers=6",
        'methods=["s1","s3"]', "es.n_iters=1", "es.n_samples=2",
        "train.iters=2"])
    results = cmd_vqe(cfg)["results"]
    np.testing.assert_allclose(results["exact_ground_energy"],
                               VQE_BLOCK_GOLDEN["exact_ground_energy"],
                               rtol=RTOL)
    assert set(results["methods"]) == {"s1", "s3"}
    for method in ("s1", "s3"):
        entry, golden = results["methods"][method], VQE_BLOCK_GOLDEN[method]
        for key in ("hyperparams", "curve", "gap"):
            np.testing.assert_allclose(entry[key], golden[key], rtol=RTOL,
                                       err_msg=f"{method}.{key}")
        assert entry["final_energy"] == entry["curve"][-1]


# hypopt on h2_4q with es.n_iters=2, es.n_samples=4: mean_score and
# best_score are averages and maxima of the raw scores themselves, so they
# pin the QFIM and the task gradient directly, not only the ES ranks. At 2
# layers (p = 24) every score takes the exact QFIM, at 6 layers (p = 72) the
# block-diagonal one.
HYPOPT_GOLDEN = {
    ("s1", 2): {
        "lambda_star": [1.8053696585256245, 5.321623231761556],
        "mean_score": [18.007639872374984, 17.6488037676337],
        "best_score": [18.380985691686103, 18.778419261162167],
    },
    ("s3", 2): {
        "lambda_star": [2.1683902618405915, 2.30418201264117],
        "mean_score": [1.7208432321301275, 1.6934064681609757],
        "best_score": [1.7783831059022508, 1.8558345993491012],
    },
    ("s1", 6): {
        "lambda_star": [1.8579592648524794, 4.428752774782135],
        "mean_score": [62.96230455680383, 62.79249478447822],
        "best_score": [65.37104041723403, 65.6927081252953],
    },
}


# The same runs away from the default omega=trace, where the score builds
# the whole QFIM: s3 at log_det on 2 layers takes the exact QFIM and the
# Pauli-sum gradient from the same forward sweep; s1 at harmonic on 6
# layers takes the block-diagonal QFIM. (kind, omega, layers) -> values.
HYPOPT_OMEGA_GOLDEN = {
    ("s3", "log_det", 2): {
        "lambda_star": [2.8385890029207306, 2.21030349476943],
        "mean_score": [-9.201428157235085, -8.24312130357024],
        "best_score": [-8.425881821673876, -7.020292925299274],
    },
    ("s1", "harmonic", 6): {
        "lambda_star": [1.8473704411833742, 6.412495845036482],
        "mean_score": [1.7352520824886817, 1.750587895316431],
        "best_score": [1.8719417577175337, 1.917237693292507],
    },
}


def check_hypopt(label, golden, overrides):
    hamiltonian = REPO / "hamiltonians" / "h2_4q.txt"
    cfg = resolve_config("hypopt", overrides=[
        f'hamiltonian="{hamiltonian}"', "es.n_iters=2", "es.n_samples=4",
        *overrides])
    results = cmd_hypopt(cfg)["results"]
    np.testing.assert_allclose(results["lambda_star"], golden["lambda_star"],
                               rtol=RTOL, err_msg=f"{label}: lambda_star")
    for key in ("mean_score", "best_score"):
        np.testing.assert_allclose(results["trace"][key], golden[key],
                                   rtol=RTOL, err_msg=f"{label}: {key}")


def test_hypopt_score_golden():
    for (kind, layers), golden in HYPOPT_GOLDEN.items():
        check_hypopt(f"{kind} at {layers} layers", golden,
                     [f"score.kind={kind}", f"ansatz.layers={layers}"])


def test_hypopt_full_qfim_golden():
    for (kind, omega, layers), golden in HYPOPT_OMEGA_GOLDEN.items():
        check_hypopt(f"{kind} at omega={omega}, {layers} layers", golden,
                     [f"score.kind={kind}", f"score.omega={omega}",
                      f"ansatz.layers={layers}"])


# bp-scan at 2 and 4 qubits, 20 gradient samples, one ES iteration per
# score method: (qubits, method) -> (variance, hyperparams)
BP_SCAN_GOLDEN = {
    (2, "uniform"): (0.07782583407723462, [1.0, 1.0]),
    (2, "s1"): (0.056693951876862304, [2.6305349636748203, 1.3988913405271737]),
    (2, "s2"): (0.074900236646722, [3.753678765055597, 1.699528684593921]),
    (2, "s3"): (0.0838593326973808, [1.36842456889163, 2.7830684535452264]),
    (4, "uniform"): (0.014468029462821575, [1.0, 1.0]),
    (4, "s1"): (0.007575556763700213, [2.665950718254012, 1.017089811511562]),
    (4, "s2"): (0.022272555868263644, [3.6402093730432163, 3.8547114296103833]),
    (4, "s3"): (0.018325973754406016, [2.527534677499868, 4.231665721150764]),
}
BP_SCAN_SLOPES = {"uniform": -0.8412660415563907, "s1": -1.0063703436764504,
                  "s2": -0.6064009040071731, "s3": -0.7604106999893196}


def test_bp_scan_golden():
    cfg = resolve_config("bp-scan", overrides=[
        "qubit_range=[2,4]", "m_samples=20", "es.n_iters=1"])
    results = cmd_bp_scan(cfg)["results"]
    rows = {(row["qubits"], row["method"]): row for row in results["rows"]}
    assert set(rows) == set(BP_SCAN_GOLDEN)
    for key, (variance, hyperparams) in BP_SCAN_GOLDEN.items():
        np.testing.assert_allclose(rows[key]["variance"], variance, rtol=RTOL,
                                   err_msg=f"{key}: variance")
        np.testing.assert_allclose(rows[key]["hyperparams"], hyperparams,
                                   rtol=RTOL, err_msg=f"{key}: hyperparams")
    assert set(results["slopes"]) == set(BP_SCAN_SLOPES)
    for method, slope in BP_SCAN_SLOPES.items():
        np.testing.assert_allclose(results["slopes"][method], slope,
                                   rtol=RTOL, err_msg=f"slope {method}")


# qml on breast_cancer cut to 40 training rows, an 8-row score slice, one ES
# iteration of two rollouts and 3 Adam steps: the loss curve pins the
# training loss and its gradient, the s2 and s3 hyperparameters the QML
# score gradient.
QML_GOLDEN = {
    "s1": {
        "hyperparams": [1.3486810164015746, 4.666680698446902],
        "loss_curve": [0.6944650076977352, 0.6834968920117674,
                       0.6728288016816177, 0.6624476911023576],
        "train_accuracy": 0.675,
        "test_accuracy": 0.6548672566371682,
    },
    "s2": {
        "hyperparams": [3.7300957074550705, 1.9233970044888762],
        "loss_curve": [0.7436681533048481, 0.7180614890414267,
                       0.6938346846441432, 0.6711258408877268],
        "train_accuracy": 0.6,
        "test_accuracy": 0.6106194690265486,
    },
    "s3": {
        "hyperparams": [3.2828431333477712, 1.8466029432737459],
        "loss_curve": [0.7754132395753246, 0.7572511017540308,
                       0.7398634714280081, 0.7233709200400474],
        "train_accuracy": 0.4,
        "test_accuracy": 0.35398230088495575,
    },
    "manual": {
        "hyperparams": [0.1, 1.5],
        "loss_curve": [1.147333869232863, 1.131039899252476,
                       1.1142557520643703, 1.0971340392015883],
        "train_accuracy": 0.35,
        "test_accuracy": 0.4336283185840708,
    },
}


def test_qml_golden():
    dataset = REPO / "datasets" / "breast_cancer.csv"
    cfg = resolve_config("qml", overrides=[
        f'dataset="{dataset}"', "subsample=40", "score_batch=8",
        'methods=["s1","s2","s3","manual"]', "es.n_iters=1",
        "es.n_samples=2", "train.iters=3"])
    results = cmd_qml(cfg)["results"]
    assert (results["n_train"], results["n_test"]) == (40, 113)
    assert set(results["methods"]) == set(QML_GOLDEN)
    for method, golden in QML_GOLDEN.items():
        entry = results["methods"][method]
        for key, value in golden.items():
            np.testing.assert_allclose(entry[key], value, rtol=RTOL,
                                       err_msg=f"{method}.{key}")
        assert entry["final_loss"] == entry["loss_curve"][-1]


# grad-profile at its defaults (5 hea layers on 4 qubits, Z-parity cost)
# with 16 samples and 4 bins per layer
GRAD_PROFILE_MEANS = [0.07631625778741263, 0.0934240220230748,
                      0.08468919007527986, 0.06027318934796039,
                      0.05772582184378427]
GRAD_PROFILE_DENSITIES = [
    [4.237827061141904, 0.1095989757191872, 0.07306598381279146,
     0.2557309433447701],
    [4.031006303770672, 0.3298096066721458, 0.10993653555738199,
     0.21987307111476387],
    [3.5742835568151348, 0.22141579555491986, 0.09489248380925137,
     0.1581541396820856],
    [4.074172014242927, 0.20716128885980986, 0.034526881476634984,
     0.1035806444299049],
    [3.826710944814883, 0.12862893932150868, 0.03215723483037716,
     0.12862893932150868],
]


def test_grad_profile_golden():
    cfg = resolve_config("grad-profile", overrides=["m_samples=16", "bins=4"])
    results = cmd_grad_profile(cfg)["results"]
    np.testing.assert_allclose(results["layer_mean_abs_gradient"],
                               GRAD_PROFILE_MEANS, rtol=RTOL)
    densities = [[row["density"] for row in results["histogram"]
                  if row["layer"] == layer] for layer in range(1, 6)]
    np.testing.assert_allclose(densities, GRAD_PROFILE_DENSITIES, rtol=RTOL)
