"""Quantum Fisher information and the initialization score functions.

The QFIM of a single RY qubit is the constant [[1.0]]. For deeper
circuits the exact entry-by-entry matrix, the block-diagonal
approximation over tagged layers, and the gradient outer-product
estimate are compared, then each score variant is evaluated for two
Beta initializations.
"""
import numpy as np

from qinitopt import (Circuit, Gate, HyperParams, Observable, ScoreSpec,
                      build_strongly_entangling, child_rng,
                      observable_gradient, qfim_block_diagonal, qfim_exact,
                      score, sample_params)

single = Circuit(1, (Gate("ry", target=0, param_slot=0),), 1)
print("QFIM of one RY gate:", qfim_exact(single, np.array([0.7])).entries)

circuit = build_strongly_entangling(layers=2, qubits=3)
rng = child_rng(0, "demo", "qfim")
theta = sample_params(HyperParams("beta", (1.0, 1.0)), circuit.num_params, rng)

exact = qfim_exact(circuit, theta)
block = qfim_block_diagonal(circuit, theta)
print(f"\n{circuit.num_params}-parameter strongly entangling circuit")
print("exact trace      :", np.trace(exact.entries))
print("block-diag trace :", np.trace(block.entries))
off = exact.entries - block.entries
print("largest entry dropped by the block approximation:",
      f"{np.max(np.abs(off)):.4f}")

obs = Observable(((1.0, "ZZZ"),))


def cost_gradient(theta):
    return observable_gradient(circuit, theta, obs)


print("\nscores for two initializations (higher is better):")
print(f"{'hyperparams':>22} {'s1 (volume)':>12} {'s2 (gradient)':>14} "
      f"{'s3 (mixed)':>11}")
for hp in (HyperParams("beta", (1.0, 1.0)), HyperParams("beta", (0.1, 1.5))):
    draw = sample_params(hp, circuit.num_params, child_rng(0, "demo", "draw"))
    row = [score(draw, circuit, task_gradient=cost_gradient,
                 spec=ScoreSpec(kind=kind))
           for kind in ("s1", "s2", "s3")]
    label = f"beta{hp.values}"
    print(f"{label:>22} {row[0]:12.5f} {row[1]:14.6f} {row[2]:11.5f}")
