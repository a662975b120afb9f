"""Golden results: small runs pinned to values from a known-good commit.

A refactor that changes floating-point paths must keep these within the
stated tolerance without any edit to this file.
"""
import pathlib

import numpy as np

from qinitopt.cli import cmd_vqe, resolve_config

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
