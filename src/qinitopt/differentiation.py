"""Parameter-shift, adjoint and forward-sweep differentiation, quantum
Fisher information.

Every parameterized gate in the simulator is a Pauli rotation
R(a) = exp(-i a G / 2), so the two-point shift rule with shift pi/2 is exact
for expectation-value costs; `gradient` applies it and stays the reference
the faster paths are tested against.

The forward sweep gets every state derivative from one pass: it runs each
gate once on a batch whose row 0 is psi, and right after the gate of slot
mu appends the row -(i/2) G_mu psi, which the remaining gates then carry to
d_mu psi. That batch grows to at most p + 1 rows per theta. The exact QFIM
(one batched Gram over the (B, p, 2^n) derivatives) and the block-diagonal
QFIM (one block per tagged ansatz layer, each closed at its layer's last
gate) read it, and so does pauli_sum_gradients, 2 Re<H psi|d_mu psi>, on
the exact-QFIM path, where the derivatives are there anyway.

The adjoint sweep (Jones & Gacon, arXiv:2009.02823) gets the gradient of a
sum of per-row expectations from one backward pass over given final rows
and costates, two rows each. It gives the other Pauli-sum gradients
(observable_value_and_gradient: psi forward, then [psi; H psi] backward)
and the classification gradient, over the forward states or the basis rows
of a unitary that all rows share. Both sweeps read -(i/2) G psi off one
cached Pauli table per rotation. The adjoint makes twice the gate calls of
a forward sweep, so on a small buffer, where call overhead outweighs the
sweep's p + 1 rows per theta, the sweep is faster; adjoint_pays draws the
line, and a VqeTask takes its path from it for its training stack.

One sweep serves a whole (B, p) batch of thetas, so a population costs one
kernel call per gate, and a row's results keep the bits its theta gives
alone. Each sweep builds one simulator.angle_table before its first gate;
the adjoint's undo table holds the inverse gates' factors, taken from
-theta / 2. Each quantity has one function, which takes a (p,) theta or a
(B, p) stack and runs a (p,) theta as a stack of one; only the
parameter-shift reference and the qfim dispatcher take one theta. Callers
keep a buffer under MAX_SWEEP_AMPLITUDES with sweep_batch_size, given the
rows per theta of the sweep they run. The rank-one empirical QFIM is built from a
task gradient. Spectra of the QFIM and of dense Hamiltonians come from one
eigensolver, LAPACK's via np.linalg.eigvalsh.
"""
from __future__ import annotations

from dataclasses import dataclass
import functools
import math

import numpy as np

from .simulator import (Circuit, Observable, _expectation_from, _pauli_table,
                        angle_table, apply_gate, apply_observable,
                        check_normalized, run_gates)

SHIFT = math.pi / 2

EXACT_QFIM_MAX_PARAMS = 64

# one sweep buffer holds at most this many amplitudes; a larger population
# is swept in chunks of sweep_batch_size(circuit) thetas
MAX_SWEEP_AMPLITUDES = 1 << 15

# the smallest forward-sweep buffer on which the adjoint pays; see
# adjoint_pays
ADJOINT_MIN_SWEEP_AMPLITUDES = 1 << 12

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


@functools.lru_cache(maxsize=None)
def _derivative_table(kind: str, qubit: int, num_qubits: int):
    """(factor, source) with -(i/2) G psi = factor * psi[source] for the
    Pauli generator G of an rx/ry/rz rotation exp(-i a G / 2) on qubit;
    source is None for rz. Built once and read-only."""
    word = "I" * qubit + kind[1].upper() + "I" * (num_qubits - qubit - 1)
    phases, source = _pauli_table(word)
    factor = -0.5j * phases
    factor.flags.writeable = False
    return factor, source


def first_param_gate(circuit: Circuit) -> int:
    """Index of the circuit's first theta gate (len(gates) if none): the
    gates before it are theta-independent, and no backward sweep undoes
    them."""
    return next((k for k, gate in enumerate(circuit.gates)
                 if gate.param_slot is not None), len(circuit.gates))


def adjoint_gradient(circuit: Circuit, theta, phi: np.ndarray,
                     lam: np.ndarray, features=None) -> np.ndarray:
    """sum_j 2 Re<lambda_j|d phi_j/dtheta> by one backward sweep (Jones &
    Gacon, arXiv:2009.02823).

    phi: (m, 2^q) rows after the last gate, each made from a theta-free
    row by the gates from the first theta gate on; lam: (m, 2^q) costates,
    held fixed. Walking the gates in reverse, with both rows carried back
    to just after gate k, the slot of a rotation exp(-i a G / 2) gets
    Im<lambda|G|phi> = 2 Re<lambda|-(i/2) G phi>, and then both rows undo
    the gate. The sweep stops at the first theta gate.

    theta is one (p,) vector or a (B, p) batch; with a batch, row r of phi
    and lam belongs to theta r % B. Each slot reduces every row with one
    np.vecdot, and each theta then sums its own rows' values in row order
    into row b of the (B, p) result, so a theta gets the same bits at any
    B.

    The gradient of sum_i <psi_i|D_i|psi_i> over n forward states takes
    (psi, D psi, features), whose rows drive any feature gate the sweep
    meets. Without features no feature gate may follow the first theta
    gate; then phi_j = U M e_j and lambda_j = e_j give 2 Re Tr(dU M) for
    the unitary U of the gates the sweep walks.
    """
    thetas, batched = _theta_batch(circuit, theta)
    b = len(thetas)
    m = phi.shape[0]
    p = circuit.num_params
    gates = circuit.gates
    first = first_param_gate(circuit)
    if features is None:
        pair_feats = np.zeros((1, 0))
    else:
        feats = np.atleast_2d(np.asarray(features, dtype=float))
        pair_feats = np.concatenate([feats, feats])
    # phi rows then lambda rows, so each undo is one kernel call
    pair = np.concatenate([phi, lam])
    undo = angle_table(gates[first + 1:], thetas, pair_feats, inverse=True)
    # sums[mu, j] = Re<lambda_j|-(i/2) G_mu phi_j>, one vecdot per slot
    sums = np.zeros((p, m))
    for k in range(len(gates) - 1, first - 1, -1):
        gate = gates[k]
        if gate.param_slot is not None:
            factor, source = _derivative_table(gate.kind, gate.target,
                                               circuit.num_qubits)
            rows = factor * (pair[:m] if source is None
                             else pair[:m].take(source, axis=-1))
            sums[gate.param_slot] = np.vecdot(pair[m:], rows).real
        if k > first:
            apply_gate(pair, gate, undo)
    # theta r owns rows r, r + b, ...; summing each theta's row sums along
    # a contiguous axis gives it the same bits at any b
    per_theta = np.ascontiguousarray(
        sums.reshape(p, m // b, b).transpose(2, 0, 1))
    grad = 2.0 * per_theta.sum(axis=-1)
    return grad if batched else grad[0]


def qfims_from_states(psi: np.ndarray, dpsi: np.ndarray) -> np.ndarray:
    """(B, m, m) QFIMs from (B, 2^n) states and (B, m, 2^n) derivatives by
    one np.matmul Gram over the stack."""
    conj = dpsi.conj()
    overlap = conj @ dpsi.transpose(0, 2, 1)
    berry = conj @ psi[:, :, None]
    fisher = 4.0 * (overlap - berry * berry.conj().transpose(0, 2, 1)).real
    return (fisher + fisher.transpose(0, 2, 1)) / 2.0


def sweep_batch_size(circuit: Circuit, rows_per_theta: int | None = None
                     ) -> int:
    """Thetas per sweep: the most whose buffers of rows_per_theta rows of
    2^n amplitudes each (p + 1 by default, the forward sweep's height) hold
    at most MAX_SWEEP_AMPLITUDES amplitudes, and at least one."""
    if rows_per_theta is None:
        rows_per_theta = circuit.num_params + 1
    per_theta = rows_per_theta << circuit.num_qubits
    return max(1, MAX_SWEEP_AMPLITUDES // per_theta)


def adjoint_pays(circuit: Circuit, batch: int) -> bool:
    """Whether one adjoint pass beats one forward sweep on a batch of
    `batch` thetas: whether the forward sweep's (p + 1) rows per theta
    would hold at least ADJOINT_MIN_SWEEP_AMPLITUDES amplitudes. Below
    that the cost of either is mostly per-gate call overhead, and the
    adjoint makes twice the gate calls."""
    rows = (circuit.num_params + 1) * batch
    return rows << circuit.num_qubits >= ADJOINT_MIN_SWEEP_AMPLITUDES


def _theta_batch(circuit: Circuit, theta, single: bool = False
                 ) -> tuple[np.ndarray, bool]:
    """(thetas, batched): a (p,) theta as a (1, p) batch, or a (B, p)
    batch as it is; batched tells which was given. With single, only a
    (p,) theta is accepted."""
    theta = np.asarray(theta, dtype=float)
    p = circuit.num_params
    if theta.shape == (p,):
        return theta[None, :], False
    if single or theta.ndim != 2 or theta.shape[1] != p:
        raise ValueError(f"theta must have shape ({p},)"
                         + ("" if single else f" or (B, {p})"))
    return theta, True


def _in_chunks(circuit: Circuit, theta, rows_per_theta, fn) -> tuple:
    """fn over a (p,) theta or a (B, p) stack, in chunks of
    sweep_batch_size(circuit, rows_per_theta) thetas. fn maps a (k, p)
    chunk to a tuple of arrays with one leading entry per theta; they are
    joined over the chunks, or cut to entry 0 for a (p,) theta."""
    thetas, batched = _theta_batch(circuit, theta)
    step = sweep_batch_size(circuit, rows_per_theta)
    parts = [fn(thetas[start:start + step])
             for start in range(0, len(thetas), step)]
    joined = tuple(np.concatenate(column) for column in zip(*parts))
    return joined if batched else tuple(column[0] for column in joined)


def _feature_row(circuit: Circuit, features) -> np.ndarray:
    """features as the one (1, f) row every theta's feature gates read."""
    f = circuit.num_features
    if f and features is None:
        raise ValueError("circuit has embedding slots; features required")
    feats = np.zeros(0) if features is None else np.asarray(features,
                                                            dtype=float)
    if feats.size != f:
        raise ValueError(f"features must have length {f}, got {feats.size}")
    return feats.reshape(1, f)


def _derivative_sweep(circuit: Circuit, thetas: np.ndarray, features, stops):
    """Run the circuit once from |0> for every row of a (B, p) thetas batch;
    at each gate index in stops (ascending) yield (psi, rows, slots): the
    (B, 2^n) states after gates[:stop], and as the (m, B, 2^n) rows the
    derivatives d_mu psi of the m slots in `slots`, those whose gates ran
    since the previous stop, in the order they ran. The rows are then
    dropped, and the yielded arrays are reused by the next segment.

    The (p + 1, B, 2^n) buffer runs as one batch of rows, so each gate is
    one kernel call: the B theta rows repeat over the derivative rows, and
    the one feature row broadcasts.

    Raises FloatingPointError when a state is not normalized (a NaN theta).
    """
    feats = _feature_row(circuit, features)
    batch = thetas.shape[0]
    height = circuit.num_params + 1
    rows = np.zeros((height, batch, 1 << circuit.num_qubits), dtype=complex)
    rows[0, :, 0] = 1.0
    flat = rows.reshape(height * batch, -1)
    table = angle_table(circuit.gates, thetas, feats)
    n = 1
    slots: list[int] = []
    start = 0
    for stop in stops:
        for gate in circuit.gates[start:stop]:
            apply_gate(flat[:n * batch], gate, table)
            if gate.param_slot is not None:
                factor, source = _derivative_table(
                    gate.kind, gate.target, circuit.num_qubits)
                np.multiply(factor, rows[0] if source is None
                            else rows[0][:, source], out=rows[n])
                slots.append(gate.param_slot)
                n += 1
        check_normalized(rows[0])
        yield rows[0], rows[1:n], slots
        n = 1
        slots = []
        start = stop


def state_derivatives(circuit: Circuit, theta,
                      features=None) -> tuple[np.ndarray, np.ndarray]:
    """(psi, dpsi): the state of a (p,) theta and its (p, 2^n) derivatives
    d_mu psi, row mu for slot mu, or the (B, 2^n) states and
    (B, p, 2^n) derivatives of a (B, p) stack, from one forward sweep."""
    thetas, batched = _theta_batch(circuit, theta)
    sweep = _derivative_sweep(circuit, thetas, features, (len(circuit.gates),))
    psi, rows, slots = next(sweep)
    dpsi = np.empty((thetas.shape[0], circuit.num_params, psi.shape[1]),
                    dtype=complex)
    dpsi[:, slots] = rows.transpose(1, 0, 2)
    return (psi.copy(), dpsi) if batched else (psi[0].copy(), dpsi[0])


def pauli_sum_gradients(psi: np.ndarray, dpsi: np.ndarray,
                        obs: Observable) -> np.ndarray:
    """(B, p) gradients d<psi|H|psi>/dtheta_mu = 2 Re<H psi|d_mu psi> of a
    Pauli sum H from (B, 2^n) states and their (B, p, 2^n) derivatives: the
    exact-QFIM path, whose forward sweep has the derivatives anyway."""
    h_psi = apply_observable(psi, obs)
    grad = 2.0 * (dpsi @ h_psi.conj()[:, :, None])[:, :, 0].real
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("gradient has non-finite entries")
    return grad


def observable_value_and_gradient(circuit: Circuit, theta, obs: Observable,
                                  features=None):
    """(<psi|H|psi>, d<psi|H|psi>/dtheta) for a Pauli sum H, of a (p,) theta
    or as (B,) values and (B, p) gradients of a (B, p) batch, by the adjoint
    method: one forward run of psi, then one backward sweep of the rows
    [psi; H psi], in chunks of sweep_batch_size(circuit, 2) thetas.

    The value is read off the same psi and H psi, by the reduction
    simulator.expectation uses, so it keeps expectation's bits; each row
    also keeps the bits its theta gives alone. Raises FloatingPointError on
    a NaN theta.
    """
    feats = _feature_row(circuit, features)

    def chunk(thetas):
        psi = run_gates(circuit.gates, circuit.num_qubits, thetas, feats)
        check_normalized(psi)
        h_psi = apply_observable(psi, obs)
        grads = adjoint_gradient(circuit, thetas, psi, h_psi, feats)
        if not np.all(np.isfinite(grads)):
            raise FloatingPointError("gradient has non-finite entries")
        return _expectation_from(psi, h_psi), grads
    return _in_chunks(circuit, theta, 2, chunk)


def observable_gradient(circuit: Circuit, theta, obs: Observable,
                        features=None) -> np.ndarray:
    """d<psi|H|psi>/dtheta for a Pauli sum H, of a (p,) theta or each row of
    a (B, p) batch; see observable_value_and_gradient."""
    return observable_value_and_gradient(circuit, theta, obs, features)[1]


def qfim_exact(circuit: Circuit, theta, features=None) -> Qfim:
    """Full QFIM  4 Re(<d_mu psi|d_nu psi> - <d_mu psi|psi><psi|d_nu psi>),
    (p, p) for a (p,) theta or (B, p, p) for a (B, p) stack.

    State derivatives come from one forward sweep. Only practical up to
    EXACT_QFIM_MAX_PARAMS parameters; above that pick another fidelity.
    """
    p = circuit.num_params
    if p > EXACT_QFIM_MAX_PARAMS:
        raise ValueError(
            f"{p} parameters exceeds the exact-QFIM threshold "
            f"{EXACT_QFIM_MAX_PARAMS}; use block-diagonal or empirical")
    thetas, batched = _theta_batch(circuit, theta)
    entries = qfims_from_states(*state_derivatives(circuit, thetas, features))
    return Qfim(entries if batched else entries[0], FIDELITY_EXACT)


def qfim_block_diagonal(circuit: Circuit, theta, features=None) -> Qfim:
    """Layer-blocked QFIM, (p, p) for a (p,) theta or (B, p, p) for a
    (B, p) stack: each tagged layer's block is the exact QFIM of the
    circuit truncated after that layer; cross-layer entries are zero.

    One forward sweep closes a block at each tag's gate_stop from the
    derivative rows its segment added, then drops them, so each gate runs
    once on at most m + 1 rows per theta for a layer of m slots; the first
    segment holds any prelude. A block is right only if no gate before its
    layer's segment reads one of its slots; a circuit whose tags break this
    raises ValueError.
    """
    thetas, batched = _theta_batch(circuit, theta)
    p = circuit.num_params
    covered = [mu for tag in circuit.layers
               for mu in range(tag.param_start, tag.param_stop)]
    if sorted(covered) != list(range(p)):
        raise ValueError("circuit has no complete layer tags; "
                         "block-diagonal QFIM needs a tagged ansatz")
    reader = {gate.param_slot: k for k, gate in enumerate(circuit.gates)
              if gate.param_slot is not None}
    start = 0
    for tag in circuit.layers:
        if any(reader[mu] < start
               for mu in range(tag.param_start, tag.param_stop)):
            raise ValueError(
                f"layer tag {tag} has a slot read before gate {start}; "
                "block-diagonal QFIM needs layers tagged in circuit order")
        start = tag.gate_stop
    entries = np.zeros((thetas.shape[0], p, p))
    sweep = _derivative_sweep(circuit, thetas, features,
                              [tag.gate_stop for tag in circuit.layers])
    for tag, (psi, rows, slots) in zip(circuit.layers, sweep):
        # a slot of an earlier layer read in this segment does not move that
        # layer's truncated state, so its block keeps zeros there
        own = [k for k, mu in enumerate(slots)
               if tag.param_start <= mu < tag.param_stop]
        idx = [slots[k] for k in own]
        row, col = np.ix_(idx, idx)
        entries[:, row, col] = qfims_from_states(
            psi, rows[own].transpose(1, 0, 2).copy())
    return Qfim(entries if batched else entries[0], FIDELITY_BLOCK)


def qfim_empirical(grad: np.ndarray) -> Qfim:
    """Rank-one outer-product surrogate grad x grad."""
    g = np.asarray(grad, dtype=float)
    return Qfim(np.outer(g, g), FIDELITY_EMPIRICAL)


def qfim_fidelity(circuit: Circuit) -> str:
    """The fidelity ladder: exact when p <= EXACT_QFIM_MAX_PARAMS, else
    block-diagonal when the circuit carries layer tags, else the empirical
    surrogate."""
    if circuit.num_params <= EXACT_QFIM_MAX_PARAMS:
        return FIDELITY_EXACT
    return FIDELITY_BLOCK if circuit.layers else FIDELITY_EMPIRICAL


def qfim(circuit: Circuit, theta, features=None, gradient_fn=None) -> Qfim:
    """The QFIM of one theta at the fidelity qfim_fidelity picks; the
    empirical one is built from gradient_fn(theta)."""
    theta = _theta_batch(circuit, theta, single=True)[0][0]
    fidelity = qfim_fidelity(circuit)
    if fidelity == FIDELITY_EXACT:
        return qfim_exact(circuit, theta, features)
    if fidelity == FIDELITY_BLOCK:
        return qfim_block_diagonal(circuit, theta, features)
    if gradient_fn is None:
        raise ValueError("untagged circuit above the exact threshold needs a "
                         "task gradient for the empirical QFIM")
    return qfim_empirical(gradient_fn(theta))


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
