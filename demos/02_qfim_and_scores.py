"""Quantum Fisher information and the initialization score functions.

The QFIM of a single RY qubit is the constant [[1.0]]. For deeper
circuits the exact entry-by-entry matrix and the block-diagonal
approximation over tagged layers are compared; both matrices share the
trace sum_mu (1 - <G_mu>^2) that qfim_trace reads off one forward run.
Every QFIM function returns a plain array and takes one theta or a
stack of them, and omega_reduce reduces a whole stack in one call. Each
score variant is then evaluated for two Beta initializations.
"""
import numpy as np

from qinitopt import (Circuit, Gate, HyperParams, Observable, ScoreSpec,
                      build_strongly_entangling, child_rng,
                      observable_gradient, omega_reduce, qfim_block_diagonal,
                      qfim_exact, qfim_trace, score, sample_params)

single = Circuit(1, (Gate("ry", target=0, param_slot=0),), 1)
print("QFIM of one RY gate:", qfim_exact(single, np.array([0.7])))

circuit = build_strongly_entangling(layers=2, qubits=3)
rng = child_rng(0, "demo", "qfim")
theta = sample_params(HyperParams("beta", (1.0, 1.0)), circuit.num_params, rng)

exact = qfim_exact(circuit, theta)
block = qfim_block_diagonal(circuit, theta)
print(f"\n{circuit.num_params}-parameter strongly entangling circuit")
print("exact trace      :", np.trace(exact))
print("block-diag trace :", np.trace(block))
print("qfim_trace       :", qfim_trace(circuit, theta))
print("largest entry dropped by the block approximation:",
      f"{np.max(np.abs(exact - block)):.4f}")

# a (4, p) stack of thetas gives a (4, p, p) stack of QFIMs, and each omega
# reduces the stack to one capacity per theta
thetas = np.stack([sample_params(HyperParams("beta", (1.0, 1.0)),
                                 circuit.num_params, rng) for _ in range(4)])
fishers = qfim_exact(circuit, thetas)
print(f"\nQFIM stack {fishers.shape}, one capacity per theta:")
for omega in ("trace", "log_det", "harmonic"):
    values = omega_reduce(fishers, ScoreSpec(kind="s1", omega=omega))
    print(f"{omega:>9}:", np.array2string(values, precision=4))

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
