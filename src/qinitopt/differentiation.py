"""Parameter-shift, adjoint and forward-sweep differentiation, quantum
Fisher information.

Every parameterized gate in the simulator is a Pauli rotation
R(a) = exp(-i a G / 2), so the two-point shift rule with shift pi/2 is exact
for expectation-value costs; `gradient` applies it and stays the reference
the faster paths are tested against.

Each generator G is a Pauli word, so G^2 = I and the QFIM's diagonal is
F_mu,mu = 1 - <G_mu>^2 on the state right after gate mu (Stokes et al.,
arXiv:1909.02108, build their block-diagonal metric from the same
expectations). qfim_trace takes the trace, which the exact and the
block-diagonal QFIM share, from one forward run of one row per theta.

The forward sweep gets every state derivative from one pass: it runs each
gate once on a batch whose row 0 is psi and, right after the gate of slot
mu, appends -(i/2) G_mu psi (_generator_rows), which the remaining gates
carry to d_mu psi: at most p + 1 rows per theta. _swept_qfims closes a
QFIM block at each stop from the derivatives its segment added: after
each tagged layer (block-diagonal), or once at the last gate (exact, whose
derivatives also give a Pauli sum's gradient 2 Re<H psi|d_mu psi>).
Both contract the amplitude axis by np.vecdot on the calling thread: a
BLAS matmul of these sizes wakes a second thread that only spins.

The adjoint sweep (Jones & Gacon, arXiv:2009.02823) gets the gradient of a
sum of per-row expectations from one backward pass over given final rows
and costates: the other Pauli-sum gradients (observable_value_and_gradient:
psi forward, then [psi; H psi] backward), at any stack height, and the
classification gradient, over the forward states or the basis rows of a
unitary that all rows share. It and the trace run read their generator
terms through _generator_dots.

One sweep serves a (B, p) batch of thetas, one kernel call per plan step,
and a row's results keep the bits its theta gives alone. Forward runs go
through simulator._forward; the forward sweep walks each segment's plan,
and the adjoint the reversed gates' plan, which undoes them; these plans,
the segments' slots and the block reads' schedules are built once, into
the memo of the circuit's simulator.compiled form. Each quantity has one
function, which runs a (p,) theta as a stack of one (only the
parameter-shift reference takes one theta alone), chunks a stack by
_in_chunks so no buffer holds more than MAX_SWEEP_AMPLITUDES amplitudes,
and checks its features, by simulator._features_of, as one (1, f) row.

A QFIM is a plain (p, p) array, or (B, p, p) for a stack. qfim builds
the exact QFIM up to EXACT_QFIM_MAX_PARAMS parameters, else the
block-diagonal one; the ladder's last rung, the rank-one surrogate g g^T
of a task gradient on an untagged circuit, is scoring.score's. Spectra
of QFIMs, one matrix or a stack, and of dense Hamiltonians come from one
eigensolver, LAPACK's via np.linalg.eigvalsh.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .simulator import (Circuit, Gate, Observable, _batch_of,
                        _expectation_from, _features_of, _forward,
                        _pauli_table, angle_table, apply_gate,
                        _plan, apply_observable, check_normalized,
                        compiled, run_gates, scratch_for)

SHIFT = math.pi / 2

EXACT_QFIM_MAX_PARAMS = 64

# one sweep buffer holds at most this many amplitudes; a larger population
# is swept in chunks of sweep_batch_size(circuit) thetas
MAX_SWEEP_AMPLITUDES = 1 << 15
READ_BLOCK_AMPLITUDES = 1 << 12  # snapshot buffer of _generator_dots

FIDELITY_EXACT = "exact"
FIDELITY_BLOCK = "block_diagonal"
FIDELITY_EMPIRICAL = "empirical"


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
    theta = _batch_of(theta, circuit.num_params, single=True)[0][0]
    p = circuit.num_params
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


def _generator_rows(gate: Gate, num_qubits: int, state: np.ndarray,
                    out=None) -> np.ndarray:
    """-(i/2) G psi for each (..., 2^n) row psi of state, G the Pauli
    generator of the rotation gate, written into out when it is given. The
    gather goes into the result and is scaled in place, so one row buffer
    is live."""
    factor, source = _derivative_table(gate.kind, gate.target, num_qubits)
    if source is None:
        return np.multiply(factor, state, out=out)
    # mode="clip" (the indices are in range) lets take write into out
    # without a buffer of its own
    rows = np.take(state, source, axis=-1, out=out, mode="clip")
    return np.multiply(factor, rows, out=rows)


def _generator_dots(circuit: Circuit, rows: int, kets: int, reverse=False):
    """(read, dots) for a walk over (rows, 2^n) states that calls
    read(gate, state) after each theta gate, in gate order or reversed:
    dots[r, mu] = <bra_r|-(i/2) G_mu ket_r>, one np.vecdot, kets the first
    kets rows and bras the last. States of at most 256 amplitudes (16 or
    more to READ_BLOCK_AMPLITUDES) are copied to a buffer that one gather,
    one multiply and one np.vecdot read when full or at the end; wider
    ones, whose copies cost more than the calls save, are read in place.
    The block reads' schedule, each theta gate's snapshot and at a block's
    last read the block's gather table, is compiled once per width."""
    n, p, dim = circuit.num_qubits, circuit.num_params, 1 << circuit.num_qubits
    width = min(READ_BLOCK_AMPLITUDES // (rows * dim), p)  # snapshots
    dots = np.empty((kets, p), dtype=complex)
    if width < 16:
        terms = np.empty((kets, dim), dtype=complex)

        def read(gate, state):
            _generator_rows(gate, n, state[:kets], out=terms)
            np.vecdot(state[rows - kets:], terms, out=dots[:, gate.param_slot])
        return read, dots
    memo = compiled(circuit.gates, n).memo
    if "reads" not in memo:  # -(i/2) G psi = factor * psi[source], stacked
        reads = [gate for gate in circuit.gates if gate.param_slot is not None]
        factor, source = zip(*(_derivative_table(g.kind, g.target, n)
                               for g in reads))
        memo["reads"] = (np.concatenate([(np.arange(dim) if s is None else s)
                                         + i * dim for i, s in enumerate(source)]),
                         np.concatenate(factor),
                         np.array([gate.param_slot for gate in reads]))
    if ("reads", width, reverse) not in memo:
        source, factor, slots = memo["reads"]
        schedule = memo["reads", width, reverse] = []
        for i in range(p - 1, -1, -1) if reverse else range(p):
            start = i - i % width
            block = slice(start * dim, (start + width) * dim)
            last = i == start if reverse else i + 1 in (start + width, p)
            schedule.append((i - start, last and (
                source[block], factor[block], slots[start:start + width])))
    walk = iter(memo["reads", width, reverse])
    snaps = np.empty((rows, width, dim), dtype=complex)
    flat_kets, bras = snaps[:kets].reshape(kets, -1), snaps[rows - kets:]
    terms = np.empty(kets * width * dim, dtype=complex)

    def read(gate, state):
        snapshot, flush = next(walk)
        snaps[:, snapshot] = state
        if flush:
            source, factor, slots = flush  # -(i/2) G = factor * [source]
            block = terms[:kets * len(slots) * dim].reshape(kets, -1)
            # source holds i 2^n + s, which wraps to snapshot i - start
            np.take(flat_kets, source, 1, block, "wrap")
            np.multiply(factor, block, out=block)
            dots[:, slots] = np.vecdot(bras[:, :len(slots)],
                                       block.reshape(kets, -1, dim))
    return read, dots


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

    theta is one (p,) vector or a (B, p) batch, whose theta r % B owns row
    r of phi and lam; each theta sums its rows' values, one np.vecdot each
    (_generator_dots), in row order: the same bits at any B.

    The gradient of sum_i <psi_i|D_i|psi_i> over n forward states takes
    (psi, D psi, features), whose rows drive any feature gate the sweep
    meets: a (k, f) array, k = 1 or m, used as given, whose row r % k
    rows r of phi and lam read. Without features no feature gate may
    follow the first theta gate; then phi_j = U M e_j and lambda_j = e_j
    give 2 Re Tr(dU M) for the unitary U of the gates the sweep walks.
    """
    thetas, batched = _batch_of(theta, circuit.num_params)
    b, m, p = len(thetas), phi.shape[0], circuit.num_params
    plan = compiled(circuit.gates, circuit.num_qubits)
    # phi rows then lambda rows, so each undo is one kernel call
    pair = np.concatenate([phi, lam])
    # the plan of the gates after the first theta gate, reversed
    steps, groups = plan.memo.get("undo") or plan.memo.setdefault(
        "undo", _plan(circuit.gates[plan.first + 1:][::-1], circuit.num_qubits))
    undo = angle_table(groups, thetas, features, inverse=True)
    scratch = scratch_for(pair.size)
    # dots[j, mu] = <lambda_j|-(i/2) G_mu phi_j>
    read, dots = _generator_dots(circuit, 2 * m, m, reverse=True)
    for step in steps:
        if step[0] is not None and step[0].param_slot is not None:
            read(step[0], pair)
        apply_gate(pair, step, undo, scratch)
    if p:
        read(circuit.gates[plan.first], pair)
    # theta r owns rows r, r + b, ...; summing each theta's row sums along
    # a contiguous axis gives it the same bits at any b
    per_theta = np.ascontiguousarray(
        dots.real.reshape(m // b, b, p).transpose(1, 2, 0))
    grad = 2.0 * per_theta.sum(axis=-1)
    return grad if batched else grad[0]


def qfims_from_states(psi: np.ndarray, dpsi: np.ndarray) -> np.ndarray:
    """(B, m, m) QFIMs from (B, 2^n) states and (B, m, 2^n) derivatives by
    np.vecdot reductions over the stack.

    Re<d_mu psi|d_nu psi> is the dot product of the two rows' float views,
    of length 2 * 2^n, and the Berry terms b_mu = <d_mu psi|psi> are one
    complex vecdot. Each entry is one dot product, which at these lengths
    runs on the calling thread, where a BLAS Gram over the stack wakes a
    second thread that then spins after the call. Both terms are exactly
    symmetric in (mu, nu), so the QFIMs are too. dpsi's last axis must be
    C-contiguous, as the float view needs it.
    """
    real = dpsi.view(float)
    overlap = np.vecdot(real[:, :, None, :], real[:, None, :, :])
    berry = np.vecdot(dpsi, psi[:, None, :])
    return 4.0 * (overlap
                  - (berry[:, :, None] * berry[:, None, :].conj()).real)


def sweep_batch_size(circuit: Circuit, rows_per_theta: int | None = None
                     ) -> int:
    """Thetas per sweep: the most whose buffers of rows_per_theta rows of
    2^n amplitudes each (p + 1 by default, the forward sweep's height) hold
    at most MAX_SWEEP_AMPLITUDES amplitudes, and at least one."""
    if rows_per_theta is None:
        rows_per_theta = circuit.num_params + 1
    per_theta = rows_per_theta << circuit.num_qubits
    return max(1, MAX_SWEEP_AMPLITUDES // per_theta)


def _in_chunks(circuit: Circuit, theta, rows_per_theta, fn) -> tuple:
    """fn over a (p,) theta or a (B, p) stack, in chunks of
    sweep_batch_size(circuit, rows_per_theta) thetas. fn maps a (k, p)
    chunk to a tuple of arrays with one leading entry per theta; they are
    joined over the chunks (a lone chunk's arrays are returned as they
    are, not copied), or cut to entry 0 for a (p,) theta."""
    thetas, batched = _batch_of(theta, circuit.num_params)
    step = sweep_batch_size(circuit, rows_per_theta)
    parts = [fn(thetas[start:start + step])
             for start in range(0, len(thetas), step)]
    joined = parts[0] if len(parts) == 1 else tuple(
        np.concatenate(column) for column in zip(*parts))
    return joined if batched else tuple(column[0] for column in joined)


def _derivative_sweep(circuit: Circuit, thetas: np.ndarray, feats, stops):
    """Run the circuit once from its compiled row for every row of a (B, p)
    thetas batch; at each gate index in stops (ascending) yield
    (psi, rows, slots): the (B, 2^n) states after gates[:stop], and as the
    (m, B, 2^n) rows the derivatives d_mu psi of the m slots in `slots`,
    those whose gates ran since the previous stop, in the order they ran.
    The rows are then dropped, and the yielded arrays are reused.

    The buffer holds one row block more than the most slots a segment
    reads (p + 1 for one stop) and runs as one batch of rows, so each step
    of a segment's own plan, whose runs end at the stop, is one kernel
    call: the B theta rows repeat over the derivative rows, and the one
    (1, f) feature row feats broadcasts. The segments' plans and slots go
    into the compiled memo on the first sweep with these stops. Raises
    FloatingPointError when a state is not normalized (a NaN theta)."""
    batch, n_qubits = thetas.shape[0], circuit.num_qubits
    plan = compiled(circuit.gates, n_qubits)
    segments = plan.memo.get(("segments", *stops))
    if segments is None:
        cuts = [max(stop, plan.skip) for stop in (0, *stops)]
        segments = plan.memo["segments", *stops] = [(
            _plan(circuit.gates[a:b], n_qubits, plan.places)[0],
            [gate.param_slot for gate in circuit.gates[a:b]
             if gate.param_slot is not None]) for a, b in zip(cuts, cuts[1:])]
    rows = np.zeros((1 + max(len(slots) for _, slots in segments), batch,
                     plan.row.shape[1]), dtype=complex)
    rows[0] = plan.row
    flat = rows.reshape(-1, plan.row.shape[1])
    table = angle_table(plan.groups, thetas, feats)
    for steps, slots in segments:
        n = 1
        # as large as the segment's last row prefix, and dropped before the
        # yield: the caller's reductions between segments do not need it
        scratch = scratch_for((1 + len(slots)) * batch * flat.shape[1])
        for step in steps:
            apply_gate(flat[:n * batch], step, table, scratch)
            if step[0] is not None and step[0].param_slot is not None:
                _generator_rows(step[0], n_qubits, rows[0], out=rows[n])
                n += 1
        del scratch
        check_normalized(rows[0])
        yield rows[0], rows[1:n], slots


def pauli_sum_gradients(psi: np.ndarray, dpsi: np.ndarray,
                        obs: Observable) -> np.ndarray:
    """(B, p) gradients d<psi|H|psi>/dtheta_mu = 2 Re<H psi|d_mu psi> of a
    Pauli sum H from (B, 2^n) states and their (B, p, 2^n) derivatives: the
    exact-QFIM path, whose forward sweep has the derivatives anyway. Each
    entry is one np.vecdot of float views, so dpsi's last axis must be
    C-contiguous."""
    h_psi = apply_observable(psi, obs)
    grad = 2.0 * np.vecdot(h_psi.view(float)[:, None, :], dpsi.view(float))
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
    feats = _features_of(circuit, features, single=True)[0]

    def chunk(thetas):
        psi = run_gates(circuit.gates, circuit.num_qubits, thetas, feats)
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


def qfim_exact(circuit: Circuit, theta, features=None) -> np.ndarray:
    """Full QFIM  4 Re(<d_mu psi|d_nu psi> - <d_mu psi|psi><psi|d_nu psi>),
    (p, p) for a (p,) theta or (B, p, p) for a (B, p) stack: the
    block-diagonal QFIM's one block, closed at the last gate. Only
    practical up to EXACT_QFIM_MAX_PARAMS parameters; above that take
    qfim_block_diagonal or scoring.score's empirical surrogate."""
    return _swept_qfims(circuit, theta, features, _one_block(circuit))[0]


def qfim_and_observable_gradient(circuit: Circuit, theta, obs: Observable,
                                 features=None):
    """(qfim_exact, observable_gradient) of a (p,) theta or a (B, p) stack
    from one forward sweep a chunk, the gradient as 2 Re<H psi|d_mu psi>
    over the derivatives the QFIM needs anyway: no second, adjoint pass."""
    return _swept_qfims(circuit, theta, features, _one_block(circuit), obs)


def _one_block(circuit: Circuit) -> tuple[int]:
    """The exact QFIM's one stop, after the last gate, at p up to
    EXACT_QFIM_MAX_PARAMS."""
    p = circuit.num_params
    if p > EXACT_QFIM_MAX_PARAMS:
        raise ValueError(
            f"{p} parameters exceeds the exact-QFIM threshold "
            f"{EXACT_QFIM_MAX_PARAMS}; use block-diagonal or empirical")
    return (len(circuit.gates),)


def _swept_qfims(circuit: Circuit, theta, features, stops,
                 obs=None) -> tuple:
    """(QFIMs,), or (QFIMs, Pauli-sum gradients) given obs, of a (p,)
    theta or a (B, p) stack, one forward sweep a chunk. The sweep closes a
    block at each gate index in stops from the derivative rows its segment
    added; cross-block entries are zero."""
    p = circuit.num_params
    feats = _features_of(circuit, features, single=True)[0]

    def chunk(thetas):
        fisher = np.zeros((len(thetas), p, p))
        grads = np.empty((len(thetas), p))
        for psi, rows, slots in _derivative_sweep(circuit, thetas, feats, stops):
            dpsi = rows.transpose(1, 0, 2).copy()
            row, col = np.ix_(slots, slots)
            fisher[:, row, col] = qfims_from_states(psi, dpsi)
            if obs is not None:
                grads[:, slots] = pauli_sum_gradients(psi, dpsi, obs)
        return (fisher,) if obs is None else (fisher, grads)
    return _in_chunks(circuit, theta, None, chunk)


def qfim_trace(circuit: Circuit, theta, features=None):
    """tr F of a (p,) theta as a float, or of each row of a (B, p) stack as
    a (B,) array, from one forward run of one row per theta, in chunks of
    sweep_batch_size(circuit, 1) thetas.

    A rotation exp(-i a G / 2) has a Pauli-word generator with G^2 = I, so
    F_mu,mu = 1 - <phi_mu|G_mu|phi_mu>^2 for the state phi_mu right after
    gate mu, which the exact and the block-diagonal QFIM share. Each theta
    sums its own contiguous row of 1 - <G>^2, so it keeps its bits in any
    batch. Raises FloatingPointError on a NaN theta.
    """
    feats = _features_of(circuit, features, single=True)[0]

    def chunk(thetas):
        expect = _generator_expectations(circuit, thetas, feats)
        return ((1.0 - expect * expect).sum(axis=-1),)
    trace, = _in_chunks(circuit, theta, 1, chunk)
    return trace if np.ndim(trace) else float(trace)


def _generator_expectations(circuit: Circuit, thetas: np.ndarray,
                            feats: np.ndarray) -> np.ndarray:
    """(B, p) generator expectations <G_mu> = -2 Im<psi|-(i/2) G_mu psi>
    on the state psi right after gate mu, for a (B, p) thetas batch and the
    (1, f) feature row, read by _generator_dots off one engine run of one
    row per theta, as the C-contiguous array whose rows qfim_trace sums.
    Raises FloatingPointError on a NaN theta."""
    read, dots = _generator_dots(circuit, len(thetas), len(thetas))
    _forward(circuit.gates, circuit.num_qubits, thetas, feats, read=read)
    return -2.0 * dots.imag


def qfim_block_diagonal(circuit: Circuit, theta,
                        features=None) -> np.ndarray:
    """Layer-blocked QFIM, (p, p) for a (p,) theta or (B, p, p) for a
    (B, p) stack: each tagged layer's block is the exact QFIM of the
    circuit truncated after that layer; cross-layer entries are zero.

    One forward sweep closes a block at each tag's gate_stop, so each gate
    runs once on at most m + 1 rows per theta for a layer of m slots; the
    first segment holds any prelude. Circuit has checked that each segment
    reads exactly its tag's slots.
    """
    stops = [tag.gate_stop for tag in circuit.layers]
    if not stops:
        raise ValueError("circuit has no layer tags; "
                         "block-diagonal QFIM needs a tagged ansatz")
    return _swept_qfims(circuit, theta, features, stops)[0]


def qfim_empirical(grad) -> np.ndarray:
    """Rank-one surrogate g g^T: (p, p) for a (p,) gradient, or
    (B, p, p) for a (B, p) stack, one outer product per row."""
    g = np.asarray(grad, dtype=float)
    return g[..., :, None] * g[..., None, :]


def qfim_fidelity(circuit: Circuit) -> str:
    """The fidelity ladder: exact when p <= EXACT_QFIM_MAX_PARAMS, else
    block-diagonal when the circuit carries layer tags, else the empirical
    surrogate."""
    if circuit.num_params <= EXACT_QFIM_MAX_PARAMS:
        return FIDELITY_EXACT
    return FIDELITY_BLOCK if circuit.layers else FIDELITY_EMPIRICAL


def qfim(circuit: Circuit, theta, features=None) -> np.ndarray:
    """The QFIM, (p, p) for a (p,) theta or (B, p, p) for a (B, p) stack:
    qfim_exact up to EXACT_QFIM_MAX_PARAMS parameters, else
    qfim_block_diagonal, which rejects an untagged circuit. The empirical
    rung needs a task gradient, so scoring.score builds it."""
    if circuit.num_params <= EXACT_QFIM_MAX_PARAMS:
        return qfim_exact(circuit, theta, features)
    return qfim_block_diagonal(circuit, theta, features)


def hermitian_eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues of a real symmetric or complex Hermitian (n, n) matrix,
    or of each matrix of an (..., n, n) stack, sorted descending along the
    last axis (LAPACK via np.linalg.eigvalsh)."""
    a = np.asarray(matrix)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if a.size and not (np.max(np.abs(a - a.conj().swapaxes(-2, -1)))
                       <= 1e-9):
        raise ValueError("matrix is not Hermitian within 1e-9")
    if np.iscomplexobj(a) and not a.imag.any():
        # e.g. a Hamiltonian whose Pauli words all hold an even number of
        # Ys: the real solver needs half the flops and no complex LAPACK
        # code. A stack takes it only when every matrix in it is real.
        a = a.real
    return np.linalg.eigvalsh(a)[..., ::-1]


# the benchmark's span tracer looks the eigensolver up under this name
jacobi_eigendecomposition = hermitian_eigenvalues
