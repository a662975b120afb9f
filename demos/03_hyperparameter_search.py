"""Evolutionary search over initialization hyperparameters.

First a sanity run on a toy objective with a known optimum, then the
real thing: tuning Beta(alpha, beta) so that angles drawn for a
strongly entangling ansatz maximize the mixed score.
"""
import numpy as np

from qinitopt import (EsConfig, Observable, ScoreSpec,
                      build_strongly_entangling, es_optimize,
                      initialization_objective, manual_baseline,
                      observable_gradient)

# toy: maximize -(x - 3)^2 directly in the unconstrained space
toy_cfg = EsConfig(eta=0.1, sigma_es=0.1, n_samples=50, n_iters=200,
                   eps_converge=1e-8, use_utility=False)
best, trace = es_optimize(lambda lam, rng: -(lam[0] - 3.0) ** 2,
                          np.array([0.0]), toy_cfg, master_seed=7)
print(f"toy quadratic: found x={best[0]:.4f} (optimum 3.0) "
      f"after {len(trace.mean_score)} iterations, converged={trace.converged}")

# real: tune a Beta initialization for a 4-qubit ansatz
circuit = build_strongly_entangling(layers=4, qubits=4)
obs = Observable(((1.0, "ZZZZ"),))


def cost_gradient(theta):
    return observable_gradient(circuit, theta, obs)


objective = initialization_objective(circuit, ScoreSpec(kind="s3"),
                                     task_gradient=cost_gradient)
hp0 = manual_baseline("beta")
cfg = EsConfig(n_iters=30)
tuned, trace = es_optimize(objective, hp0, cfg, master_seed=0)

print(f"\nstart : beta{hp0.values}")
print(f"tuned : beta({tuned.values[0]:.4f}, {tuned.values[1]:.4f}) "
      f"after {len(trace.mean_score)} iterations")
print("mean score along the search (every 5 iterations):")
for i in range(0, len(trace.mean_score), 5):
    print(f"  iter {i + 1:3d}: {trace.mean_score[i]:.5f}")
