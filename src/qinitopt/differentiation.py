"""Parameter-shift and adjoint differentiation, quantum Fisher information.

Every parameterized gate in the simulator is a Pauli rotation, so the
two-point shift rule with shift pi/2 is exact both for expectation-value
costs and, with the matching 1/(4 sin(pi/4)) scaling, for statevector
derivatives. For costs that are sums of per-row diagonal expectations, the
adjoint sweep gets the same gradient from the forward states and one
backward pass. The QFIM comes in three fidelities: exact (all cross terms),
block-diagonal (one block per tagged ansatz layer, each layer's shifted rows
started from the carried unshifted state before it, so every gate is
simulated once), and the rank-one empirical surrogate built from a task
gradient. Spectra of the QFIM and of dense Hamiltonians come from one
eigensolver, LAPACK's via np.linalg.eigvalsh.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .simulator import (ROT, ROT_AXES, Circuit, Gate, apply_circuit,
                        apply_gate, apply_generator, zero_state)

SHIFT = math.pi / 2
# ψ(θ+s) − ψ(θ−s) = −4i sin(s/2) G U ψ for a rotation generator G, so the
# statewise central difference needs 1/(4 sin(s/2)), not the 1/2 used for
# expectation values.
_STATE_SHIFT_SCALE = 1.0 / (4.0 * math.sin(SHIFT / 2.0))

EXACT_QFIM_MAX_PARAMS = 64

FIDELITY_EXACT = "exact"
FIDELITY_BLOCK = "block_diagonal"
FIDELITY_EMPIRICAL = "empirical"


@dataclass
class Qfim:
    entries: np.ndarray
    fidelity: str


def _shift_rows(theta: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Rows [theta + (pi/2) e_mu ; theta - (pi/2) e_mu] for mu in indices."""
    m = len(indices)
    rows = np.repeat(theta[None, :], 2 * m, axis=0)
    rows[np.arange(m), indices] += SHIFT
    rows[m + np.arange(m), indices] -= SHIFT
    return rows


def gradient(circuit: Circuit, theta, cost_fn) -> np.ndarray:
    """dC/dtheta by the parameter-shift rule.

    cost_fn must accept a (B, p) batch of parameter rows and return (B,)
    values; it is evaluated once on all 2p shifted rows.
    """
    theta = np.asarray(theta, dtype=float)
    p = circuit.num_params
    if theta.shape != (p,):
        raise ValueError(f"theta must have shape ({p},)")
    if p == 0:
        return np.zeros(0)
    values = np.asarray(cost_fn(_shift_rows(theta, np.arange(p))), dtype=float)
    grad = (values[:p] - values[p:]) / 2.0
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("gradient has non-finite entries")
    return grad


def _single_axis(gate: Gate) -> tuple[Gate, ...]:
    """A rot gate as its three one-slot rotations, any other gate as itself,
    in the order they act."""
    if gate.kind != ROT:
        return (gate,)
    return tuple(Gate(axis, gate.target, param_slots=(slot,))
                 for axis, slot in zip(ROT_AXES, gate.param_slots))


def adjoint_gradient(circuit: Circuit, theta, states: np.ndarray,
                     diagonal: np.ndarray, features=None) -> np.ndarray:
    """sum_i d<psi_i|D_i|psi_i>/dtheta by one backward sweep (Jones & Gacon,
    arXiv:2009.02823).

    states: the (n, 2^q) forward states at theta for the n feature rows;
    diagonal: (n, 2^q) real diagonals D_i. Walking the
    gates in reverse with phi = U_k..U_1|0> and lambda = U_{k+1}^dag..D psi,
    the slot of a rotation exp(-i a G / 2) gets Im<lambda|G|phi>, and then
    both states undo the gate.
    """
    theta = np.asarray(theta, dtype=float)
    n = states.shape[0]
    grad = np.zeros(circuit.num_params)
    pieces = [piece for gate in circuit.gates for piece in _single_axis(gate)]
    first = next((k for k, piece in enumerate(pieces) if piece.param_slots),
                 len(pieces))
    feats = np.zeros((n, 0)) if features is None else np.atleast_2d(
        np.asarray(features, dtype=float))
    # phi rows then lambda rows, so each undo is one kernel call
    pair = np.concatenate([states, diagonal * states])
    pair_feats = np.concatenate([feats, feats])
    thetas = theta[None, :]
    for k in range(len(pieces) - 1, first - 1, -1):
        piece = pieces[k]
        if piece.param_slots:
            g_phi = apply_generator(pair[:n], piece.kind, piece.target)
            grad[piece.param_slots[0]] = np.vdot(pair[n:], g_phi).imag
        if k > first:
            apply_gate(pair, piece, thetas, pair_feats, inverse=True)
    return grad


def _qfim_from_states(dpsi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    overlap = dpsi.conj() @ dpsi.T
    berry = dpsi.conj() @ psi
    fisher = 4.0 * (overlap - np.outer(berry, berry.conj())).real
    return (fisher + fisher.T) / 2.0


def qfim_exact(circuit: Circuit, theta, features=None) -> Qfim:
    """Full QFIM  4 Re(<d_mu psi|d_nu psi> - <d_mu psi|psi><psi|d_nu psi>).

    State derivatives come from pi/2-shifted statevectors. Only practical up
    to EXACT_QFIM_MAX_PARAMS parameters; above that pick another fidelity.
    """
    theta = np.asarray(theta, dtype=float)
    p = circuit.num_params
    if p > EXACT_QFIM_MAX_PARAMS:
        raise ValueError(
            f"{p} parameters exceeds the exact-QFIM threshold "
            f"{EXACT_QFIM_MAX_PARAMS}; use block-diagonal or empirical")
    psi = apply_circuit(circuit, theta, features)
    if p == 0:
        return Qfim(np.zeros((0, 0)), FIDELITY_EXACT)
    states = apply_circuit(circuit, _shift_rows(theta, np.arange(p)), features)
    dpsi = (states[:p] - states[p:]) * _STATE_SHIFT_SCALE
    return Qfim(_qfim_from_states(dpsi, psi), FIDELITY_EXACT)


def qfim_block_diagonal(circuit: Circuit, theta, features=None) -> Qfim:
    """Layer-blocked QFIM: each tagged layer's block is the exact QFIM of the
    circuit truncated after that layer; cross-layer entries are zero.

    Each gate is simulated once per call. The unshifted state after layer
    l-1 is carried as one row, broadcast to layer l's 2m+1 rows (its m
    slots shifted by +-pi/2, then theta) and only layer l's segment of gates
    is applied; the first segment holds any prelude. That prefix is right
    only if no gate before a layer's segment reads one of its slots; a
    circuit whose tags break this raises ValueError.
    """
    theta = np.asarray(theta, dtype=float)
    p = circuit.num_params
    if theta.shape != (p,):
        raise ValueError(f"theta must have shape ({p},)")
    covered = [mu for tag in circuit.layers
               for mu in range(tag.param_start, tag.param_stop)]
    if sorted(covered) != list(range(p)):
        raise ValueError("circuit has no complete layer tags; "
                         "block-diagonal QFIM needs a tagged ansatz")
    reader = {slot: k for k, gate in enumerate(circuit.gates)
              for slot in gate.param_slots}
    feats = (np.zeros((1, 0)) if features is None
             else np.atleast_2d(np.asarray(features, dtype=float)))
    prefix = zero_state(circuit.num_qubits, 1)
    start = 0
    entries = np.zeros((p, p))
    for tag in circuit.layers:
        idx = np.arange(tag.param_start, tag.param_stop)
        if any(reader[mu] < start for mu in idx):
            raise ValueError(
                f"layer tag {tag} has a slot read before gate {start}; "
                "block-diagonal QFIM needs layers tagged in circuit order")
        rows = np.vstack([_shift_rows(theta, idx), theta[None, :]])
        states = np.repeat(prefix, rows.shape[0], axis=0)
        for gate in circuit.gates[start:tag.gate_stop]:
            apply_gate(states, gate, rows, feats)
        m = len(idx)
        dpsi = (states[:m] - states[m:2 * m]) * _STATE_SHIFT_SCALE
        entries[np.ix_(idx, idx)] = _qfim_from_states(dpsi, states[-1])
        prefix = states[-1:]
        start = tag.gate_stop
    return Qfim(entries, FIDELITY_BLOCK)


def qfim_empirical(grad: np.ndarray) -> Qfim:
    """Rank-one outer-product surrogate grad x grad."""
    g = np.asarray(grad, dtype=float)
    return Qfim(np.outer(g, g), FIDELITY_EMPIRICAL)


def qfim(circuit: Circuit, theta, features=None, gradient_fn=None) -> Qfim:
    """Fidelity ladder: exact when p <= 64, else block-diagonal when the
    circuit carries layer tags, else the empirical surrogate."""
    if circuit.num_params <= EXACT_QFIM_MAX_PARAMS:
        return qfim_exact(circuit, theta, features)
    if circuit.layers:
        return qfim_block_diagonal(circuit, theta, features)
    if gradient_fn is None:
        raise ValueError("untagged circuit above the exact threshold needs a "
                         "task gradient for the empirical QFIM")
    return qfim_empirical(gradient_fn(np.asarray(theta, dtype=float)))


def hermitian_eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues of a real symmetric or complex Hermitian matrix, sorted
    descending (LAPACK via np.linalg.eigvalsh)."""
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if a.size and not (np.max(np.abs(a - a.conj().T)) <= 1e-9):
        raise ValueError("matrix is not Hermitian within 1e-9")
    if np.iscomplexobj(a) and not a.imag.any():
        # e.g. a Hamiltonian whose Pauli words all hold an even number of
        # Ys: the real solver needs half the flops and no complex LAPACK code
        a = a.real
    return np.linalg.eigvalsh(a)[::-1]


# the benchmark's span tracer looks the eigensolver up under this name
jacobi_eigendecomposition = hermitian_eigenvalues
