"""Print the record hash of each benchmark workload and of a few extra
configs, one `name hash16` line each, all run in one process.

    python3 tools/record_hashes.py [--seed N]

The first line, which starts with `#`, names the numpy version and the
CPU dispatch target numpy picked at import for float64 log, exp and power
(numpy.lib.introspect.opt_func_info, e.g. X86_V4 on an AVX-512 host).
The sampler's draws pass through those kernels, so record bits repeat only
per numpy build and dispatch level; two hash lists are comparable when
their first lines agree.

The workloads come from bench/spec.json, which is only read. The extra
configs cover paths no workload runs: the exact QFIM without a Pauli sum
(hypopt-exact), the block-diagonal QFIM rung (hypopt-block, vqe-block),
the per-row and shared QML paths (qml-per-row, qml-shared),
grad-profile at its defaults, and a vqe whose three lockstep searches
stop at different iterations (vqe-converge: s2 converges after one, s3
after six, s1 runs all six without converging). Each config is resolved by
cli.resolve_config with workers=1 and run by its cmd_* function from the
checkout root, as bench/child.py runs a workload, so a workload's line
matches the record hash bench/run.py prints for it at the same seed.
Running the script at two commits and comparing the output checks that a
change kept every record's bits.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

EXTRA = (
    ("hypopt-exact", "hypopt",
     ["score.omega=log_det", "ansatz.layers=2", "es.n_iters=2"]),
    ("hypopt-block", "hypopt",
     ["hamiltonian=hamiltonians/h2_4q.txt", "score.kind=s3",
      "score.omega=harmonic", "ansatz.layers=6", "es.n_iters=1",
      "es.n_samples=4"]),
    ("vqe-block", "vqe",
     ["hamiltonian=hamiltonians/h2_4q.txt", "score.omega=log_det",
      "ansatz.layers=6", "es.n_iters=1", "train.iters=3"]),
    ("qml-per-row", "qml",
     ["dataset=datasets/wine.csv", "es.n_iters=1", "train.iters=3",
      "ansatz.layers=1", "ansatz.qubits=6", "score_batch=32",
      "subsample=40"]),
    ("qml-shared", "qml",
     ["dataset=datasets/wine.csv", "es.n_iters=2", "train.iters=5",
      "ansatz.layers=1"]),
    ("grad-profile", "grad-profile", []),
    ("vqe-converge", "vqe",
     ["hamiltonian=hamiltonians/toy_2q.txt", "es.n_iters=6",
      "es.eps_converge=0.02", "train.iters=2", "ansatz.layers=2"]),
)


def dispatch_line() -> str:
    """The `#` line: numpy's version and its float64 log, exp and power
    dispatch targets."""
    import numpy as np
    from numpy.lib.introspect import opt_func_info

    # one float64 signature per function, so each has one target
    info = opt_func_info(func_name="^(log|exp|power)$", signature="float64")
    targets = " ".join(f"{name} {next(iter(info[name].values()))['current']}"
                       for name in ("log", "exp", "power"))
    return f"# numpy {np.__version__} float64 dispatch: {targets}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    # configs name datasets and Hamiltonians relative to the checkout root
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from qinitopt import cli
    from qinitopt.records import record_hash

    print(dispatch_line(), flush=True)

    spec = json.loads((ROOT / "bench" / "spec.json").read_text())
    configs = [(w["name"], w["command"], w["set"])
               for w in spec["workloads"]] + list(EXTRA)
    for name, command, overrides in configs:
        cfg = cli.resolve_config(command, overrides=overrides,
                                 seed=args.seed, workers=1)
        record = getattr(cli, "cmd_" + command.replace("-", "_"))(cfg)
        print(name, record_hash(record)[:16], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
