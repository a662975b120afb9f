"""Downstream tasks that consume suggested initializations.

VQE minimizes a Pauli-sum energy; QML classification embeds features as
rotation angles and reads class probabilities off computational-basis
marginals. Each task's value_and_gradient returns the cost and its exact
gradient from one simulation of theta, and cost_value the cost alone; it
and qml_cost_batch give the cost of each row of a parameter batch to the
parameter-shift oracle. The VQE energy and its gradient,
2 Re<H psi|d_mu psi>, come from one adjoint pass (psi forward, then the
rows [psi; H psi] backward, the energy read off the same psi and H psi)
at any stack height, so a theta's curve is the same in any stack.
The classification loss chains through the class marginals
analytically; at fixed chain-rule weights it is a sum of per-row diagonal
expectations, whose gradient one adjoint sweep gives.

value_and_gradient and cost_value take one (p,) theta or a (B, p) stack of
thetas. A stack is simulated as one batch, chunked so that no buffer holds
more than MAX_SWEEP_AMPLITUDES amplitudes, and returns (B,) costs and
(B, p) gradients, row b bit for bit what theta b gives alone. `train`
steps an (M, p) stack of starting points this way in lockstep: Adam is
elementwise, so the rows never interact, and every step costs one batched
simulation however many rows the stack holds.

A classifier whose feature gates all precede its first theta gate (every
embed_angles circuit) has states psi_i = U(theta) x_i, with x_i the fixed
state the feature prefix makes from row i. When the task has at least 2^q
training rows it keeps X = (x_i) and, for each theta, runs the gates from
the first theta gate on once on the 2^q basis rows to get U; every state
is then a row of one matrix product, and the adjoint sweep runs over
2 * 2^q rows per theta. Otherwise (features re-uploaded after a theta gate,
or fewer rows than 2^q) each row is simulated and swept on its own. The
path is fixed when the task is built. In a batch of B thetas, row j * B + b
of a basis or sweep batch belongs to theta b, the row-to-angle rule of
simulator.angle_table. The basis run is one call of the simulator's
forward engine from B copies of the basis rows, whose norm check then
covers the U rows: unit vectors, as the states are.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .differentiation import (_in_chunks, adjoint_gradient,
                              first_param_gate, hermitian_eigenvalues,
                              observable_value_and_gradient)
from .simulator import (Circuit, Observable, _batch_of, _features_of,
                        _forward, apply_circuit, apply_observable,
                        expectation, run_gates)

PROB_CLAMP = 1e-10
MAX_ORACLE_QUBITS = 10


def _by_theta(rows: np.ndarray, b: int) -> np.ndarray:
    """(B, m, d) contiguous stack from (m * B, d) rows, row j * B + b of
    theta b."""
    return np.ascontiguousarray(
        rows.reshape(-1, b, rows.shape[-1]).transpose(1, 0, 2))


def _interleaved(stack: np.ndarray) -> np.ndarray:
    """(m * B, d) rows from a (B, m, d) stack; the inverse of _by_theta."""
    return stack.transpose(1, 0, 2).reshape(-1, stack.shape[-1])


@dataclass
class VqeTask:
    hamiltonian: Observable
    circuit: Circuit
    exact_ground_energy: float

    def __post_init__(self):
        if self.hamiltonian.num_qubits != self.circuit.num_qubits:
            raise ValueError("Hamiltonian and ansatz qubit counts differ")

    def cost_value(self, theta):
        """The energy of a (p,) theta, or the (B,) energies of a stack."""
        def chunk(thetas):
            return (expectation(apply_circuit(self.circuit, thetas),
                                self.hamiltonian),)
        return _in_chunks(self.circuit, theta, 1, chunk)[0]

    # the benchmark's span tracer looks the batch cost up under this name
    cost_batch = cost_value

    def value_and_gradient(self, theta):
        """(energy, gradient) of a (p,) theta, or the (B,) energies and
        (B, p) gradients of a stack, by one adjoint pass per chunk; the
        energies are cost_value's bit for bit."""
        return observable_value_and_gradient(self.circuit, theta,
                                             self.hamiltonian)

    def gradient(self, theta) -> np.ndarray:
        return self.value_and_gradient(theta)[1]


def make_vqe_task(hamiltonian: Observable, circuit: Circuit) -> VqeTask:
    """Bundle a Hamiltonian with an ansatz and the dense-diagonalization
    ground energy."""
    return VqeTask(hamiltonian, circuit, exact_ground_energy(hamiltonian))


def _class_marginals(states: np.ndarray, measured: int,
                     num_classes: int) -> np.ndarray:
    """Unnormalized probabilities of the first `measured` qubits, truncated
    to num_classes entries. states: (..., 2^n)."""
    probs = np.abs(states) ** 2
    lead = probs.reshape(*probs.shape[:-1], 1 << measured, -1).sum(axis=-1)
    return lead[..., :num_classes]


def class_qubits(num_classes: int) -> int:
    """Qubits whose computational-basis marginal holds num_classes classes."""
    return max(1, math.ceil(math.log2(num_classes)))


@dataclass
class QmlTask:
    circuit: Circuit  # must carry embedding slots
    train_features: np.ndarray
    train_labels: np.ndarray
    num_classes: int
    measured_qubits: int = field(init=False)
    # the theta-free gates before the first theta gate, the gates from it
    # on, and on the shared path the (n, 2^q) training rows after the prefix
    _prefix: tuple = field(init=False, repr=False)
    _body: tuple = field(init=False, repr=False)
    _embedded: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if not self.circuit.num_features:
            raise ValueError("classification circuit needs embedding slots")
        self.train_features = _features_of(self.circuit, self.train_features)[0]
        self.train_labels = np.asarray(self.train_labels, dtype=int)
        if len(self.train_labels) != len(self.train_features):
            raise ValueError("feature and label counts differ")
        if np.any((self.train_labels < 0) | (self.train_labels >= self.num_classes)):
            raise ValueError("labels must lie in [0, num_classes)")
        self.measured_qubits = class_qubits(self.num_classes)
        if self.measured_qubits > self.circuit.num_qubits:
            raise ValueError("too many classes for this qubit count")
        first = first_param_gate(self.circuit)
        self._prefix = self.circuit.gates[:first]
        self._body = self.circuit.gates[first:]
        # the shared path needs every feature gate in the prefix, and pays
        # off once the 2^q basis rows are no more than the training rows
        shared = (all(gate.feature_slot is None for gate in self._body)
                  and 1 << self.circuit.num_qubits <= len(self.train_features))
        self._embedded = self._embed(self.train_features) if shared else None

    def _embed(self, feats: np.ndarray) -> np.ndarray:
        """(B, 2^q) states after the prefix for (B, f) feature rows."""
        # the prefix reads no theta slot
        return run_gates(self._prefix, self.circuit.num_qubits,
                         np.zeros((len(feats), 0)), feats)

    def _shared_states(self, thetas: np.ndarray, embedded: np.ndarray):
        """(states, unitary) for a (B, p) thetas batch: the (B, m, 2^q)
        states U(theta_b) x_i of the (m, 2^q) embedded rows, and the
        (B, 2^q, 2^q) rows U(theta_b) e_j, which the body gives when run
        once on a batch of the 2^q basis rows, row j * B + b for theta b,
        so that states[b] = embedded @ unitary[b]."""
        d, b = 1 << self.circuit.num_qubits, len(thetas)
        basis = np.repeat(np.eye(d, dtype=complex), b, axis=0)
        _forward(self._body, self.circuit.num_qubits, thetas, state=basis)
        unitary = basis.reshape(d, b, d).transpose(1, 0, 2)
        return embedded @ unitary, unitary

    def _train_states(self, thetas: np.ndarray):
        """(states, unitary): the (B, n, 2^q) training states under a
        (B, p) thetas batch; unitary is None on the per-row path, whose
        n * B rows run as one batch."""
        if self._embedded is None:
            n, b = len(self.train_features), len(thetas)
            rows = apply_circuit(self.circuit, np.tile(thetas, (n, 1)),
                                 np.repeat(self.train_features, b, axis=0))
            return _by_theta(rows, b), None
        return self._shared_states(thetas, self._embedded)

    def _rows_per_theta(self) -> int:
        """Rows of 2^q amplitudes the largest buffer holds per theta: the
        2n-row sweep on the per-row path; the n states or the 2 * 2^q-row
        sweep on the shared path."""
        n = len(self.train_features)
        if self._embedded is None:
            return 2 * n
        return max(n, 2 << self.circuit.num_qubits)

    def probabilities(self, theta, features) -> np.ndarray:
        """Class probabilities under one (p,) theta for one feature row or
        a batch of rows."""
        thetas = _batch_of(theta, self.circuit.num_params, single=True)[0]
        feats, batched = _features_of(self.circuit, features)
        if self._embedded is None:
            # checked rows skip apply_circuit; the one theta turns each row
            states = run_gates(self.circuit.gates, self.circuit.num_qubits,
                               thetas, feats)
        else:
            states = self._shared_states(thetas, self._embed(feats))[0][0]
        if not batched:
            states = states[0]
        raw = _class_marginals(states, self.measured_qubits, self.num_classes)
        return raw / raw.sum(axis=-1, keepdims=True)

    def _loss(self, states: np.ndarray):
        """(loss, raw, s, hit) for (..., n, 2^q) states of the n training
        rows: the mean cross-entropy, probabilities clamped to PROB_CLAMP;
        the kept class marginals; their sums; each label's probability."""
        raw = _class_marginals(states, self.measured_qubits, self.num_classes)
        s = raw.sum(axis=-1)
        hit = raw[..., np.arange(len(self.train_labels)), self.train_labels] / s
        loss = np.mean(-np.log(np.clip(hit, PROB_CLAMP, 1.0 - PROB_CLAMP)),
                       axis=-1)
        return loss, raw, s, hit

    def cost_value(self, theta):
        """Mean cross-entropy over the training batch, of a (p,) theta or
        of each row of a (B, p) stack."""
        def chunk(thetas):
            return self._loss(self._train_states(thetas)[0])[:1]
        return _in_chunks(self.circuit, theta, self._rows_per_theta(),
                          chunk)[0]

    def value_and_gradient(self, theta):
        """The mean cross-entropy and its exact gradient, of a (p,) theta or
        of each row of a (B, p) stack.

        The loss chains through the class marginals raw_c with
        dL_i/draw_c = -delta_{c,y_i}/raw_y + 1/s, s the kept-probability
        sum, so at fixed weights w_ic = dL_i/draw_c the gradient is that of
        sum_i <psi_i|D_i|psi_i> / n, with D_i the diagonal holding w_ic on
        every amplitude whose measured-qubit prefix is class c (0 on
        truncated classes). One adjoint sweep per chunk of thetas gives it:
        on the per-row path over the forward states psi_i and costates
        D_i psi_i; on the shared path, where psi_i = U x_i, over the 2^q
        basis rows of each theta, as 2 Re Tr(dU M) with
        M = sum_i x_i (D_i psi_i)^dag. Samples sitting on the clamp
        contribute zero gradient.
        """
        return _in_chunks(self.circuit, theta, self._rows_per_theta(),
                          self._value_and_gradient)

    def _value_and_gradient(self, thetas: np.ndarray):
        """((B,) losses, (B, p) gradients) of a (B, p) thetas batch."""
        states, unitary = self._train_states(thetas)
        loss, raw, s, hit = self._loss(states)
        b, n, d = states.shape
        rows, labels = np.arange(n), self.train_labels
        live = (hit > PROB_CLAMP) & (hit < 1.0 - PROB_CLAMP)
        weights = np.zeros((b, n, 1 << self.measured_qubits))
        weights[..., :self.num_classes] = (1.0 / s)[..., None]
        weights[:, rows, labels] -= 1.0 / np.maximum(raw[:, rows, labels],
                                                     PROB_CLAMP)
        weights[~live] = 0.0
        costates = np.repeat(weights, d >> self.measured_qubits,
                             axis=-1) * states
        if unitary is None:
            grad = adjoint_gradient(
                self.circuit, thetas, _interleaved(states),
                _interleaved(costates),
                np.repeat(self.train_features, b, axis=0))
        else:
            # M_b = sum_i x_i lambda_i^dag; row j of M_b^T @ unitary[b] is
            # U_b M_b e_j
            m = self._embedded.T @ costates.conj()
            grad = adjoint_gradient(
                self.circuit, thetas,
                _interleaved(m.transpose(0, 2, 1) @ unitary),
                np.repeat(np.eye(d), b, axis=0))
        grad /= n
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError(
                "classification gradient has non-finite entries")
        return loss, grad

    def gradient(self, theta) -> np.ndarray:
        return self.value_and_gradient(theta)[1]

    def accuracy(self, theta, features, labels) -> float:
        probs = self.probabilities(theta, features)
        predicted = np.argmax(probs, axis=-1)
        return float(np.mean(predicted == np.asarray(labels, dtype=int)))


def qml_cost_batch(task: QmlTask, thetas) -> np.ndarray:
    """Training loss for each row of a (B, p) parameter batch, each training
    row simulated on its own whatever path the task takes."""
    thetas = _batch_of(thetas, task.circuit.num_params)[0]
    b = thetas.shape[0]
    n = len(task.train_features)
    big_thetas = np.repeat(thetas, n, axis=0)
    big_feats = np.tile(task.train_features, (b, 1))
    states = apply_circuit(task.circuit, big_thetas, big_feats)
    return task._loss(states.reshape(b, n, -1))[0]


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


def check_training(iters: int, lr: float) -> None:
    """Raise ValueError unless iters >= 0 and lr >= 0 (a NaN lr fails)."""
    if iters < 0:
        raise ValueError(f"training iters must not be negative, got {iters}")
    if not lr >= 0:
        raise ValueError(f"learning rate must not be negative, got {lr}")


def train(task, theta0, iters: int = 100, lr: float = 0.01):
    """Adam from theta0; returns (theta, curve) with curve[..., k] the cost
    after k updates (iters + 1 of them).

    theta0 is one (p,) starting point, or an (M, p) stack that trains M
    runs in lockstep: each step makes one task.value_and_gradient call on
    the whole stack, which simulates every row once for both its cost and
    its gradient, and one task.cost_value call gives the costs after the
    last update. The Adam update is elementwise, so row r of the returned
    (M, p) theta and (M, iters + 1) curve is bit for bit what
    train(task, theta0[r]) returns. Raises FloatingPointError when an
    update leaves a non-finite entry.
    """
    check_training(iters, lr)
    theta = np.array(theta0, dtype=float)
    curve = []
    state = AdamState(lr=lr)
    for step in range(1, iters + 1):
        cost, grad = task.value_and_gradient(theta)
        curve.append(cost)
        with np.errstate(over="ignore", invalid="ignore"):
            theta = adam_step(state, theta, grad)
        if not np.all(np.isfinite(theta)):
            raise FloatingPointError(
                f"training diverged at step {step}: theta has non-finite "
                "entries; lower train.lr")
    curve.append(task.cost_value(theta))
    return theta, np.stack(curve, axis=-1)


def exact_ground_energy(obs: Observable) -> float:
    """Smallest eigenvalue of the dense (complex Hermitian) Pauli-sum
    matrix. Row j of H applied to the identity is H e_j, so the applied
    identity is H transposed."""
    if obs.num_qubits > MAX_ORACLE_QUBITS:
        raise ValueError(f"dense oracle capped at {MAX_ORACLE_QUBITS} qubits")
    eye = np.eye(1 << obs.num_qubits, dtype=complex)
    dense = apply_observable(eye, obs).T
    return float(hermitian_eigenvalues(dense)[-1])
