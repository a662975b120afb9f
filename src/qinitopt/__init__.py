"""Evolutionary search for initialization-distribution hyperparameters of
parameterized quantum circuits, with VQE / classification / gradient-scaling
experiments built on a dense statevector simulator."""

__version__ = "0.1.0"

from .differentiation import (Qfim, gradient, hermitian_eigenvalues,
                              observable_gradient, qfim, qfim_block_diagonal,
                              qfim_empirical, qfim_exact)
from .distributions import (HyperParams, beta_samples, child_rng,
                            from_unconstrained, gamma_samples, init_guess,
                            manual_baseline, sample_params, standard_normals,
                            to_unconstrained)
from .es import EsConfig, EsTrace, es_optimize, perturbation_matrix
from .scoring import (ScoreSpec, initialization_objective, omega_reduce,
                      order_statistic, score, utility_shape)
from .simulator import (Circuit, Gate, Layer, Observable, apply_circuit,
                        build_hea, build_strongly_entangling,
                        build_two_design, embed_angles, expectation,
                        zero_state)
from .tasks import (AdamState, QmlTask, VqeTask, adam_step,
                    exact_ground_energy, make_vqe_task, qml_cost_batch,
                    train)

__all__ = [
    "__version__",
    "AdamState", "Circuit", "EsConfig", "EsTrace", "Gate", "HyperParams",
    "Layer", "Observable", "Qfim", "QmlTask", "ScoreSpec", "VqeTask",
    "adam_step", "apply_circuit", "beta_samples", "build_hea",
    "build_strongly_entangling", "build_two_design", "child_rng",
    "embed_angles", "es_optimize", "exact_ground_energy", "expectation",
    "from_unconstrained", "gamma_samples", "gradient",
    "hermitian_eigenvalues", "init_guess", "initialization_objective",
    "make_vqe_task", "manual_baseline", "observable_gradient",
    "omega_reduce", "order_statistic", "perturbation_matrix", "qfim",
    "qfim_block_diagonal", "qfim_empirical", "qfim_exact", "qml_cost_batch",
    "sample_params", "score", "standard_normals", "to_unconstrained",
    "train", "utility_shape", "zero_state",
]
