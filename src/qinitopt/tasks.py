"""Downstream tasks that consume suggested initializations.

VQE minimizes a Pauli-sum energy; QML classification embeds features as
rotation angles and reads class probabilities off computational-basis
marginals. Both expose cost_value/gradient so one Adam loop trains either.
Gradients are exact. The VQE energy gradient, 2 Re<H psi|d_mu psi>, reads
the state derivatives of one forward sweep. The classification loss chains
through the class marginals analytically; at fixed chain-rule weights it is
a sum of per-row diagonal expectations, whose gradient one adjoint sweep over
the forward states gives.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .differentiation import (adjoint_gradient, hermitian_eigenvalues,
                              observable_gradient)
from .simulator import (Circuit, Observable, apply_circuit,
                        build_strongly_entangling, expectation)

PROB_CLAMP = 1e-10
MAX_ORACLE_QUBITS = 10

_PAULI_DENSE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass
class VqeTask:
    hamiltonian: Observable
    circuit: Circuit
    exact_ground_energy: float

    def __post_init__(self):
        if self.hamiltonian.num_qubits != self.circuit.num_qubits:
            raise ValueError("Hamiltonian and ansatz qubit counts differ")

    def cost_value(self, theta) -> float:
        return vqe_cost(self, theta)

    def cost_batch(self, thetas) -> np.ndarray:
        return expectation(apply_circuit(self.circuit, thetas), self.hamiltonian)

    def gradient(self, theta) -> np.ndarray:
        return observable_gradient(self.circuit, theta, self.hamiltonian)


def make_vqe_task(hamiltonian: Observable, circuit: Circuit | None = None,
                  layers: int = 8) -> VqeTask:
    """Bundle a Hamiltonian with an ansatz (strongly-entangling by default)
    and the dense-diagonalization ground energy."""
    if circuit is None:
        circuit = build_strongly_entangling(layers, hamiltonian.num_qubits)
    return VqeTask(hamiltonian, circuit, exact_ground_energy(hamiltonian))


def vqe_cost(task: VqeTask, theta) -> float:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (task.circuit.num_params,):
        raise ValueError(f"theta must have shape ({task.circuit.num_params},)")
    return float(expectation(apply_circuit(task.circuit, theta),
                             task.hamiltonian))


def _marginals(states: np.ndarray, measured: int, num_classes: int) -> np.ndarray:
    """Probabilities of the first `measured` qubits, truncated to num_classes
    entries and renormalized. states: (..., 2^n)."""
    probs = np.abs(states) ** 2
    lead = probs.reshape(*probs.shape[:-1], 1 << measured, -1).sum(axis=-1)
    kept = lead[..., :num_classes]
    return kept / kept.sum(axis=-1, keepdims=True)


@dataclass
class QmlTask:
    circuit: Circuit  # must carry embedding slots
    train_features: np.ndarray
    train_labels: np.ndarray
    num_classes: int
    test_features: np.ndarray | None = None
    test_labels: np.ndarray | None = None
    measured_qubits: int = field(init=False)

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if not self.circuit.num_features:
            raise ValueError("classification circuit needs embedding slots")
        self.train_features = np.asarray(self.train_features, dtype=float)
        self.train_labels = np.asarray(self.train_labels, dtype=int)
        if self.train_features.ndim != 2 or len(self.train_features) == 0:
            raise ValueError("train_features must be a non-empty matrix")
        if self.train_features.shape[1] != self.circuit.num_features:
            raise ValueError("feature width does not match embedding slots")
        if len(self.train_labels) != len(self.train_features):
            raise ValueError("feature and label counts differ")
        if np.any((self.train_labels < 0) | (self.train_labels >= self.num_classes)):
            raise ValueError("labels must lie in [0, num_classes)")
        self.measured_qubits = max(1, math.ceil(math.log2(self.num_classes)))
        if self.measured_qubits > self.circuit.num_qubits:
            raise ValueError("too many classes for this qubit count")

    def probabilities(self, theta, features) -> np.ndarray:
        """Class probabilities for one feature row or a batch of rows."""
        states = apply_circuit(self.circuit, theta, features)
        return _marginals(states, self.measured_qubits, self.num_classes)

    def cost_value(self, theta) -> float:
        return qml_loss(self, theta)

    def gradient(self, theta) -> np.ndarray:
        return qml_gradient(self, theta)

    def accuracy(self, theta, features, labels) -> float:
        probs = self.probabilities(theta, np.asarray(features, dtype=float))
        predicted = np.argmax(probs, axis=-1)
        return float(np.mean(predicted == np.asarray(labels, dtype=int)))


def qml_loss(task: QmlTask, theta) -> float:
    """Mean cross-entropy over the training batch, probabilities clamped."""
    probs = task.probabilities(theta, task.train_features)
    hit = probs[np.arange(len(task.train_labels)), task.train_labels]
    return float(np.mean(-np.log(np.clip(hit, PROB_CLAMP, 1.0 - PROB_CLAMP))))


def qml_cost_batch(task: QmlTask, thetas) -> np.ndarray:
    """Training loss for each row of a (B, p) parameter batch."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    b = thetas.shape[0]
    n = len(task.train_features)
    big_thetas = np.repeat(thetas, n, axis=0)
    big_feats = np.tile(task.train_features, (b, 1))
    states = apply_circuit(task.circuit, big_thetas, big_feats)
    probs = _marginals(states, task.measured_qubits, task.num_classes)
    hit = probs.reshape(b, n, task.num_classes)[:, np.arange(n), task.train_labels]
    return np.mean(-np.log(np.clip(hit, PROB_CLAMP, 1.0 - PROB_CLAMP)), axis=1)


def qml_gradient(task: QmlTask, theta) -> np.ndarray:
    """d(mean cross-entropy)/dtheta, exact.

    The loss chains through the class marginals raw_c with
    dL_i/draw_c = -delta_{c,y_i}/raw_y + 1/s, s the kept-probability sum, so
    at fixed weights w_ic = dL_i/draw_c the gradient is that of
    sum_i <psi_i|D_i|psi_i> / n, with D_i the diagonal holding w_ic on every
    amplitude whose measured-qubit prefix is class c (0 on truncated
    classes). One adjoint sweep from the forward states gives it.
    Samples sitting on the clamp contribute zero gradient.
    """
    theta = np.asarray(theta, dtype=float)
    p = task.circuit.num_params
    if theta.shape != (p,):
        raise ValueError(f"theta must have shape ({p},)")
    feats = task.train_features
    n = len(feats)
    labels = task.train_labels
    states = apply_circuit(task.circuit, theta, feats)
    lead = (np.abs(states) ** 2).reshape(n, 1 << task.measured_qubits, -1).sum(axis=-1)
    raw = lead[:, :task.num_classes]
    s = raw.sum(axis=1)
    hit = raw[np.arange(n), labels] / s
    live = (hit > PROB_CLAMP) & (hit < 1.0 - PROB_CLAMP)
    weights = np.broadcast_to((1.0 / s)[:, None], raw.shape).copy()
    weights[np.arange(n), labels] -= 1.0 / np.maximum(raw[np.arange(n), labels],
                                                      PROB_CLAMP)
    weights[~live] = 0.0
    if p == 0:
        return np.zeros(0)
    per_class = np.zeros(lead.shape)
    per_class[:, :task.num_classes] = weights
    diagonal = np.repeat(per_class, states.shape[1] // lead.shape[1], axis=1)
    grad = adjoint_gradient(task.circuit, theta, states, diagonal, feats) / n
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("classification gradient has non-finite entries")
    return grad


@dataclass
class AdamState:
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    step: int = 0


def adam_step(state: AdamState, theta, grad) -> np.ndarray:
    """One bias-corrected Adam update; mutates the state, returns new theta."""
    theta = np.asarray(theta, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if grad.shape != theta.shape:
        raise ValueError("gradient and theta shapes differ")
    if state.m is None:
        state.m = np.zeros_like(theta)
        state.v = np.zeros_like(theta)
    elif state.m.shape != theta.shape:
        raise ValueError("optimizer state sized for a different theta")
    state.step += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad ** 2
    m_hat = state.m / (1.0 - state.beta1 ** state.step)
    v_hat = state.v / (1.0 - state.beta2 ** state.step)
    return theta - state.lr * m_hat / (np.sqrt(v_hat) + state.eps_adam)


def train(task, theta0, iters: int = 100, lr: float = 0.01):
    """Adam on task.cost_value via task.gradient; returns (theta, curve) with
    curve[k] the cost after k updates (length iters + 1)."""
    theta = np.array(theta0, dtype=float)
    curve = [task.cost_value(theta)]
    state = AdamState(lr=lr)
    for _ in range(iters):
        theta = adam_step(state, theta, task.gradient(theta))
        curve.append(task.cost_value(theta))
    return theta, np.array(curve)


def _dense_matrix(obs: Observable) -> np.ndarray:
    dim = 1 << obs.num_qubits
    total = np.zeros((dim, dim), dtype=complex)
    for coeff, word in obs.terms:
        term = np.eye(1, dtype=complex)
        for ch in word:
            term = np.kron(term, _PAULI_DENSE[ch])
        total += coeff * term
    return total


def exact_ground_energy(obs: Observable) -> float:
    """Smallest eigenvalue of the dense (complex Hermitian) Pauli-sum
    matrix."""
    if obs.num_qubits > MAX_ORACLE_QUBITS:
        raise ValueError(f"dense oracle capped at {MAX_ORACLE_QUBITS} qubits")
    return float(hermitian_eigenvalues(_dense_matrix(obs))[-1])
