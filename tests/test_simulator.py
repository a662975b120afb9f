"""Statevector simulator checked against a dense-matrix reference.

The reference implementation here builds explicit 2^n x 2^n unitaries with
Kronecker products and basis-index bookkeeping, sharing no code with the
strided production simulator.
"""
import functools
import itertools
import math
import pathlib
import pickle
import tracemalloc

from hypothesis import given
from hypothesis import strategies as st
import numpy as np
import pytest

from qinitopt import differentiation, simulator
from qinitopt.cli import cmd_qml, cmd_vqe, resolve_config
from qinitopt.differentiation import (_derivative_table, adjoint_gradient,
                                      observable_gradient,
                                      qfim_and_observable_gradient,
                                      qfim_block_diagonal, qfim_exact,
                                      qfim_trace)
from qinitopt.tasks import QmlTask
from qinitopt.simulator import (CNOT, CZ, FIXED_RY, FIXED_RY_ANGLE,
                                GATE_KINDS, ROTATION_KINDS, RX, RY, RZ,
                                Circuit, Gate, Layer, Observable, _forward,
                                _plan, angle_table, apply_circuit,
                                apply_gate, apply_observable,
                                check_normalized, build_hea,
                                build_strongly_entangling, build_two_design,
                                compiled, embed_angles, expectation,
                                run_gates, zero_state)

REPO = pathlib.Path(__file__).resolve().parent.parent
H2_4Q = REPO / "hamiltonians" / "h2_4q.txt"
WINE = REPO / "datasets" / "wine.csv"

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def rotation_matrix(kind: str, angle: float) -> np.ndarray:
    axis = {RX: "X", RY: "Y", RZ: "Z"}[kind]
    return (math.cos(angle / 2) * PAULI["I"]
            - 1j * math.sin(angle / 2) * PAULI[axis])


def single_qubit_unitary(matrix: np.ndarray, qubit: int, n: int) -> np.ndarray:
    # qubit 0 is the most significant bit, hence the leftmost kron factor
    out = np.eye(1, dtype=complex)
    for q in range(n):
        out = np.kron(out, matrix if q == qubit else PAULI["I"])
    return out


def controlled_unitary(control: int, target: int, n: int,
                       z_phase: bool) -> np.ndarray:
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    c_bit = 1 << (n - 1 - control)
    t_bit = 1 << (n - 1 - target)
    for idx in range(dim):
        if not idx & c_bit:
            out[idx, idx] = 1.0
        elif z_phase:
            out[idx, idx] = -1.0 if idx & t_bit else 1.0
        else:
            out[idx ^ t_bit, idx] = 1.0
    return out


def dense_state(gates, n: int, theta, features=()) -> np.ndarray:
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    for g in gates:
        if g.kind in ROTATION_KINDS:
            angle = (features[g.feature_slot] if g.feature_slot is not None
                     else theta[g.param_slot])
            u = single_qubit_unitary(rotation_matrix(g.kind, angle), g.target, n)
        elif g.kind == FIXED_RY:
            u = single_qubit_unitary(rotation_matrix(RY, FIXED_RY_ANGLE),
                                     g.target, n)
        elif g.kind == CNOT:
            u = controlled_unitary(g.control, g.target, n, z_phase=False)
        else:
            u = controlled_unitary(g.control, g.target, n, z_phase=True)
        state = u @ state
    return state


def random_circuit(rng, qubits: int, depth: int) -> Circuit:
    gates = []
    slot = 0
    for _ in range(depth):
        roll = rng.integers(6)
        if roll < 3:
            gates.append(Gate(ROTATION_KINDS[roll], target=int(rng.integers(qubits)),
                              param_slot=slot))
            slot += 1
        elif roll == 3:
            # back-to-back rotations on one qubit, as in Rot(a, b, c)
            q = int(rng.integers(qubits))
            for axis in (RZ, RY, RZ):
                gates.append(Gate(axis, target=q, param_slot=slot))
                slot += 1
        elif roll == 4 and qubits >= 2:
            a, b = rng.choice(qubits, size=2, replace=False)
            gates.append(Gate(CNOT, target=int(a), control=int(b)))
        else:
            gates.append(Gate(FIXED_RY, target=int(rng.integers(qubits))))
    return Circuit(qubits, tuple(gates), slot)


def test_msb_convention():
    # RX(pi) on qubit 0 of two sends |00> to -i|10>, which is index 2
    circ = Circuit(2, (Gate(RX, target=0, param_slot=0),), 1)
    state = apply_circuit(circ, [math.pi])
    expected = np.zeros(4, dtype=complex)
    expected[2] = -1j
    assert np.allclose(state, expected, atol=1e-12)


def test_ry_closed_form():
    circ = Circuit(1, (Gate(RY, target=0, param_slot=0),), 1)
    for theta in (0.0, 0.3, math.pi / 2, math.pi, -1.7):
        state = apply_circuit(circ, [theta])
        assert np.allclose(state, [math.cos(theta / 2), math.sin(theta / 2)],
                           atol=1e-12)


def test_matches_dense_reference():
    rng = np.random.default_rng(11)
    for _ in range(40):
        qubits = int(rng.integers(1, 4))
        circ = random_circuit(rng, qubits, depth=int(rng.integers(1, 12)))
        theta = rng.uniform(-2 * math.pi, 2 * math.pi, circ.num_params)
        got = apply_circuit(circ, theta)
        want = dense_state(circ.gates, qubits, theta)
        assert np.max(np.abs(got - want)) < 1e-12


def test_builders_match_dense_reference():
    rng = np.random.default_rng(12)
    for circ in (build_strongly_entangling(2, 3), build_two_design(3, 3, seed=5),
                 build_hea(2, 3)):
        theta = rng.uniform(0, 2 * math.pi, circ.num_params)
        got = apply_circuit(circ, theta)
        want = dense_state(circ.gates, circ.num_qubits, theta)
        assert np.max(np.abs(got - want)) < 1e-12


def test_norm_preserved_on_random_circuits():
    rng = np.random.default_rng(2)
    for _ in range(200):
        qubits = int(rng.integers(1, 11))
        circ = random_circuit(rng, qubits, depth=int(rng.integers(1, 25)))
        theta = rng.uniform(-10, 10, circ.num_params)
        state = apply_circuit(circ, theta)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-10


def test_rotation_inverse_roundtrip():
    rng = np.random.default_rng(3)
    for kind in ROTATION_KINDS:
        theta = float(rng.uniform(-3, 3))
        circ = Circuit(2, (Gate(kind, target=1, param_slot=0),
                           Gate(kind, target=1, param_slot=1)), 2)
        state = apply_circuit(circ, [theta, -theta])
        assert np.allclose(state, zero_state(2), atol=1e-12)


def random_states(rng, batch: int, qubits: int) -> np.ndarray:
    states = (rng.standard_normal((batch, 1 << qubits))
              + 1j * rng.standard_normal((batch, 1 << qubits)))
    return states / np.linalg.norm(states, axis=1, keepdims=True)


def nan_scratch(size: int) -> np.ndarray:
    """A scratch buffer for states of up to size amplitudes, of exactly the
    size apply_gate documents (simulator.scratch_for), whose old contents
    poison any kernel that reads them before writing."""
    return np.full(simulator.scratch_for(size).size, np.nan + 1j * np.nan)


def kernel_table(gates, n, thetas, feats=None, inverse=False):
    """(steps, table): each gate's step in a plan of its own, a rotation
    or a one-gate run for CNOT or CZ, with every rotation laid out in one
    angle table, as a sequence's plan lays them out."""
    places = {}
    steps = [_plan((gate,), n, places)[0][0] for gate in gates]
    return steps, angle_table(_plan((), n, places)[1], thetas, feats,
                              inverse)


def apply_one(state, gate, thetas, feats, scratch, inverse=False):
    """apply_gate on the one step of a one-gate plan and its own table."""
    (step,), table = kernel_table((gate,), state.shape[1].bit_length() - 1,
                                  thetas, feats, inverse)
    apply_gate(state, step, table, scratch)


def test_apply_gate_inverse_undoes_each_kind():
    rng = np.random.default_rng(31)
    thetas = rng.uniform(-4, 4, (5, 3))
    feats = rng.uniform(-4, 4, (5, 1))
    gates = [Gate(kind, target=2, param_slot=1) for kind in ROTATION_KINDS]
    gates += [Gate(kind, target=0, feature_slot=0) for kind in ROTATION_KINDS]
    gates += [Gate(axis, target=1, param_slot=slot)
              for axis, slot in zip((RZ, RY, RZ), (2, 0, 1))]
    gates += [Gate(FIXED_RY, target=1),
              Gate(CNOT, target=2, control=0), Gate(CNOT, target=0, control=2),
              Gate(CZ, target=1, control=2)]
    for gate in gates:
        start = random_states(rng, 5, 3)
        state = start.copy()
        scratch = nan_scratch(state.size)
        apply_one(state, gate, thetas, feats, scratch)
        assert np.max(np.abs(state - start)) > 1e-3
        apply_one(state, gate, thetas, feats, scratch, inverse=True)
        assert np.allclose(state, start, atol=1e-12)


ANGLES = st.floats(-4 * math.pi, 4 * math.pi)


@st.composite
def gate_cases(draw):
    """(qubit count, gate, (B, 3) thetas, (B, 1) features, state seed)."""
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(GATE_KINDS))
    target = draw(st.integers(0, n - 1))
    if kind in (CNOT, CZ):
        control = draw(st.integers(0, n - 1).filter(lambda q: q != target))
        gate = Gate(kind, target=target, control=control)
    elif kind == FIXED_RY:
        gate = Gate(FIXED_RY, target=target)
    elif draw(st.booleans()):
        gate = Gate(kind, target=target, feature_slot=0)
    else:
        gate = Gate(kind, target=target, param_slot=draw(st.integers(0, 2)))
    batch = draw(st.integers(1, 4))
    angles = draw(st.lists(ANGLES, min_size=4 * batch, max_size=4 * batch))
    table = np.array(angles).reshape(batch, 4)
    return n, gate, table[:, :3], table[:, 3:], draw(st.integers(0, 2**32 - 1))


@given(gate_cases())
def test_gate_kernels_preserve_norm_and_invert(case):
    n, gate, thetas, feats, seed = case
    start = random_states(np.random.default_rng(seed), len(thetas), n)
    state = start.copy()
    scratch = nan_scratch(state.size)
    apply_one(state, gate, thetas, feats, scratch)
    np.testing.assert_allclose(np.linalg.norm(state, axis=1), 1.0,
                               rtol=0, atol=1e-12)
    apply_one(state, gate, thetas, feats, scratch, inverse=True)
    np.testing.assert_allclose(state, start, rtol=0, atol=1e-12)


# Frozen copy of the row-major kernels as they stood before the angle
# tables: every angle's trig taken per gate, new halves formed out of
# place. The production kernels must reproduce them bit for bit.

def _oracle_rotate(state, kind, qubit, angle):
    half = np.asarray(angle, dtype=float) / 2.0
    s = state.reshape(-1, half.size, 1 << qubit, 2,
                      state.shape[1] >> (qubit + 1))
    half = half.reshape(-1, 1, 1)
    if kind == RZ:
        s[..., 0, :] *= np.exp(-1j * half)
        s[..., 1, :] *= np.exp(1j * half)
        return
    c = np.cos(half)
    sn = np.sin(half)
    s0 = s[..., 0, :]
    s1 = s[..., 1, :]
    if kind == RY:
        new0 = c * s0 - sn * s1
        new1 = sn * s0 + c * s1
    else:
        new0 = c * s0 - 1j * sn * s1
        new1 = -1j * sn * s0 + c * s1
    s[..., 0, :] = new0
    s[..., 1, :] = new1


def _oracle_two_qubit_view(state, q_lo, q_hi):
    return state.reshape(state.shape[0], 1 << q_lo, 2,
                         1 << (q_hi - q_lo - 1), 2, -1)


def _oracle_cnot(state, control, target):
    s = _oracle_two_qubit_view(state, min(control, target),
                               max(control, target))
    if control < target:
        tmp = s[:, :, 1, :, 0, :].copy()
        s[:, :, 1, :, 0, :] = s[:, :, 1, :, 1, :]
        s[:, :, 1, :, 1, :] = tmp
    else:
        tmp = s[:, :, 0, :, 1, :].copy()
        s[:, :, 0, :, 1, :] = s[:, :, 1, :, 1, :]
        s[:, :, 1, :, 1, :] = tmp


def _oracle_cz(state, q_a, q_b):
    s = _oracle_two_qubit_view(state, min(q_a, q_b), max(q_a, q_b))
    block = s[:, :, 1, :, 1, :]
    np.negative(block, out=block)


def _oracle_apply(state, gate, thetas, features, inverse):
    if gate.kind in ROTATION_KINDS:
        angle = (features[:, gate.feature_slot] if gate.feature_slot is not None
                 else thetas[:, gate.param_slot])
        _oracle_rotate(state, gate.kind, gate.target,
                       -angle if inverse else angle)
    elif gate.kind == FIXED_RY:
        _oracle_rotate(state, RY, gate.target,
                       np.array([-FIXED_RY_ANGLE if inverse
                                 else FIXED_RY_ANGLE]))
    elif gate.kind == CNOT:
        _oracle_cnot(state, gate.control, gate.target)
    else:
        _oracle_cz(state, gate.control, gate.target)


def assert_same_bits(got, want):
    got, want = got.view(np.float64), want.view(np.float64)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def kernel_gates(n):
    """Every gate kind on the first and the last qubit, two-qubit gates in
    both control orders, rotations on a theta and on a feature slot."""
    gates = []
    for target in sorted({0, n - 1}):
        gates += [Gate(kind, target=target, param_slot=1)
                  for kind in ROTATION_KINDS]
        gates += [Gate(kind, target=target, feature_slot=0)
                  for kind in ROTATION_KINDS]
        gates.append(Gate(FIXED_RY, target=target))
        if n > 1:
            other = n - 1 - target
            for kind in (CNOT, CZ):
                gates.append(Gate(kind, target=target, control=other))
                if n > 2:
                    gates.append(Gate(kind, target=target, control=1))
    return gates


def kernel_states(rng, batch, n):
    """Random rows, |0...0> rows, basis rows and rows of signed zeros."""
    d = 1 << n
    random = random_states(rng, batch, n)
    zero = zero_state(n, batch)
    basis = np.eye(d, dtype=complex)[np.arange(batch) % d]
    signed = random.copy()
    signed.real[:, ::2] = -0.0
    signed.imag[:, 1::3] = -0.0
    signed.imag[:, ::4] = 0.0
    return [random, zero, basis, -basis, signed]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("inverse", [False, True])
def test_gate_kernels_match_the_row_major_oracle_bit_for_bit(n, inverse):
    rng = np.random.default_rng(40 + n)
    batch = 6
    special = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, 1e-300]
    for k in (1, 2, 3, 6):  # angle rows repeat over blocks of k state rows
        thetas = rng.uniform(-7, 7, (k, 3))
        thetas[:, 1] = [special[(j + n) % 6] if j % 2 else thetas[j, 1]
                        for j in range(k)]
        feats = rng.uniform(-7, 7, (k, 1))
        feats[0, 0] = -0.0
        gates = kernel_gates(n)
        steps, table = kernel_table(gates, n, thetas, feats, inverse)
        for start in kernel_states(rng, batch, n):
            for gate, step in zip(gates, steps):
                want = start.copy()
                _oracle_apply(want, gate, thetas, feats, inverse)
                got = start.copy()
                apply_gate(got, step, table, nan_scratch(got.size))
                assert_same_bits(got, want)
                # the sweep updates a row prefix of a larger buffer in place,
                # with a scratch sized for the whole buffer
                buffer = np.concatenate([start, random_states(rng, 3, n)])
                rest = buffer[batch:].copy()
                apply_gate(buffer[:batch], step, table,
                           nan_scratch(buffer.size))
                assert_same_bits(buffer[:batch], want)
                assert_same_bits(buffer[batch:], rest)


def test_gate_sequences_match_the_oracle_bit_for_bit():
    rng = np.random.default_rng(47)
    for circ in (build_strongly_entangling(3, 4), build_two_design(3, 4, 2),
                 embed_angles(build_hea(2, 3), 3)):
        thetas = rng.uniform(-4, 4, (5, circ.num_params))
        feats = rng.uniform(-4, 4, (5, circ.num_features))
        want = zero_state(circ.num_qubits, 5)
        for gate in circ.gates:
            _oracle_apply(want, gate, thetas, feats, False)
        got = apply_circuit(circ, thetas, feats if circ.num_features else None)
        assert_same_bits(got, want)
        for gate in reversed(circ.gates):
            _oracle_apply(want, gate, thetas, feats, True)
        # the reversed sequence's plan undoes it, as the adjoint walks it
        steps, groups = _plan(circ.gates[::-1], circ.num_qubits)
        undo = angle_table(groups, thetas, feats, inverse=True)
        scratch = nan_scratch(got.size)
        for step in steps:
            apply_gate(got, step, undo, scratch)
        assert_same_bits(got, want)


@pytest.mark.parametrize("inverse", [False, True])
def test_rotations_match_the_oracle_bit_for_bit_at_every_target(inverse):
    """Every rotation at every target of n = 5, with angle rows repeating
    over blocks of k = 1, 2, 3 and 6 state rows, and of n = 8 with k = 1
    and k = B, on a whole buffer and on a row prefix of a larger one. On
    the last qubit RZ is one pass on 6 rows of n = 5 (192 amplitudes) and
    two half-view multiplies on 36 (1,152) and at n = 8. RX and RY loop
    along the amplitudes below the target while they are at least as many
    as the blocks above it, and along those blocks from there on (t >= 3
    at n = 5, t >= 4 at n = 8)."""
    rng = np.random.default_rng(64)
    special = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, 1e-300]
    cases = [(5, batch, k) for batch, k in
             itertools.product((6, 36), (1, 2, 3, 6))] + [(8, 4, 1), (8, 4, 4)]
    for n, batch, k in cases:
        thetas = rng.uniform(-7, 7, (k, 2))
        thetas[:, 1] = special[:k]
        feats = rng.uniform(-7, 7, (k, 1))
        feats[0, 0] = -0.0
        gates = [Gate(kind, target=target, param_slot=slot)
                 for target in range(n) for kind in ROTATION_KINDS
                 for slot in (0, 1)]
        gates += [Gate(kind, target=target, feature_slot=0)
                  for target in range(n) for kind in ROTATION_KINDS]
        gates += [Gate(FIXED_RY, target=target) for target in range(n)]
        steps, table = kernel_table(gates, n, thetas, feats, inverse)
        for start in kernel_states(rng, batch, n):
            got = np.empty_like(start)
            scratch = nan_scratch(got.size)
            # a row prefix of a larger buffer, with a scratch for all of it
            buffer = np.concatenate([start, random_states(rng, 3, n)])
            rest = buffer[batch:].copy()
            prefix_scratch = nan_scratch(buffer.size)
            for gate, step in zip(gates, steps):
                want = start.copy()
                _oracle_apply(want, gate, thetas, feats, inverse)
                got[...] = start
                apply_gate(got, step, table, scratch)
                assert_same_bits(got, want)
                buffer[:batch] = start
                apply_gate(buffer[:batch], step, table, prefix_scratch)
                assert_same_bits(buffer[:batch], want)
                assert_same_bits(buffer[batch:], rest)


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("batch, n", [(4, 4), (32, 4), (33, 4), (2, 8),
                                      (3, 8), (8, 8)])
def test_pair_form_matches_the_oracle_bit_for_bit(batch, n, inverse):
    """RX, RY on a theta and on a feature slot, and fixed RY, at every
    target, with angle rows repeating over k = 1 and k = B state rows, on
    both sides of PAIR_FORM_AMPLITUDES: the three-call pair form up to 512
    amplitudes ((4, 2^4), (32, 2^4), (2, 2^8)) and the long form above
    ((33, 2^4), (3, 2^8), (8, 2^8)). Each step gives the oracle's bits,
    signed zeros included, on the whole batch and on a row prefix of a
    larger buffer, each with a NaN-poisoned scratch of exactly the
    documented size for its buffer: the (2, 2^8) prefix of a (5, 2^8)
    buffer takes the pair form in a scratch sized for the long one."""
    assert (batch << n <= simulator.PAIR_FORM_AMPLITUDES) == (
        (batch, n) in ((4, 4), (32, 4), (2, 8)))
    rng = np.random.default_rng(67 + n)
    for k in (1, batch):
        thetas = rng.uniform(-7, 7, (k, 2))
        thetas[0, 1] = -0.0
        feats = rng.uniform(-7, 7, (k, 1))
        gates = [Gate(kind, target=target, param_slot=slot)
                 for target in range(n) for kind in (RX, RY)
                 for slot in (0, 1)]
        gates += [Gate(kind, target=target, feature_slot=0)
                  for target in range(n) for kind in (RX, RY)]
        gates += [Gate(FIXED_RY, target=target) for target in range(n)]
        steps, table = kernel_table(gates, n, thetas, feats, inverse)
        for start in kernel_states(rng, batch, n):
            buffer = np.concatenate([start, random_states(rng, 3, n)])
            rest = buffer[batch:].copy()
            for gate, step in zip(gates, steps):
                want = start.copy()
                _oracle_apply(want, gate, thetas, feats, inverse)
                got = start.copy()
                apply_gate(got, step, table, nan_scratch(got.size))
                assert_same_bits(got, want)
                buffer[:batch] = start
                apply_gate(buffer[:batch], step, table,
                           nan_scratch(buffer.size))
                assert_same_bits(buffer[:batch], want)
                assert_same_bits(buffer[batch:], rest)


def test_rz_factors_have_the_bits_of_complex_exp():
    """An rz group's entry, built from real trig, holds the bits of
    [exp(-1j * h), exp(1j * h)] for h = a / 2 and, inverse, h = -a / 2,
    signed zeros included."""
    special = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi,
               1e-300, -1e-300, 1e6, -1e6]
    rng = np.random.default_rng(65)
    thetas = np.concatenate([special, rng.uniform(-20, 20, 54)]).reshape(8, 8)
    gates = [Gate(RZ, target=slot % 3, param_slot=slot) for slot in range(8)]
    steps, groups = _plan(tuple(gates), 3)
    for inverse in (False, True):
        table = angle_table(groups, thetas, inverse=inverse)
        half = (-thetas if inverse else thetas) / 2.0
        for gate, at, i in steps:
            factors = table[at][i]
            assert factors.shape == (8, 1, 2, 1)
            h = half[:, gate.param_slot]
            for column, want in enumerate((np.exp(-1j * h), np.exp(1j * h))):
                assert_same_bits(
                    np.ascontiguousarray(factors[:, 0, column, 0]), want)


def test_one_walk_turns_a_target_by_three_angle_row_counts():
    """Theta rows (k = 3), feature rows (k = 2) and the fixed angle (k = 1)
    turn the same qubit in one walk, on the middle and on the last of three
    qubits: the forward engine matches the oracle from a given start, and
    the reversed plan undoes it."""
    gates = []
    for slot, (target, kind) in enumerate(
            (target, kind) for target in (1, 2) for kind in ROTATION_KINDS):
        gates += [Gate(kind, target, param_slot=slot),
                  Gate(kind, target, feature_slot=slot),
                  Gate(FIXED_RY, target)]
    rng = np.random.default_rng(66)
    thetas = rng.uniform(-7, 7, (3, 6))
    feats = rng.uniform(-7, 7, (2, 6))
    start = random_states(rng, 6, 3)
    want = start.copy()
    for gate in gates:
        _oracle_apply(want, gate, thetas, feats, False)
    got = _forward(tuple(gates), 3, thetas, feats, state=start.copy())
    assert_same_bits(got, want)
    for gate in reversed(gates):
        _oracle_apply(want, gate, thetas, feats, True)
    steps, groups = _plan(tuple(gates[::-1]), 3)
    undo = angle_table(groups, thetas, feats, inverse=True)
    scratch = nan_scratch(got.size)
    for step in steps:
        apply_gate(got, step, undo, scratch)
    assert_same_bits(got, want)


# The angle table as it stood before the compiled stacked tables, copied
# verbatim apart from its name: a dict of per-rotation views keyed by
# (kind, param_slot, feature_slot). The stacked tables must hold its bytes.

def dict_angle_table(gates, thetas: np.ndarray, features: np.ndarray | None = None,
                     inverse: bool = False) -> dict:
    """The half-angle factors of every rotation in a gate sequence, built
    once for a run of it, keyed by (kind, param_slot, feature_slot).

    Theta slots read (k, p) thetas and feature slots (k', f) features, each
    with its own row count, and row r of a state batch turns by angle row
    r % k. With h = a / 2, or h = -a / 2 for the inverse gates, an rz
    entry is one (k, 1, 2, 1) array of [exp(-ih), exp(ih)], which
    broadcasts over a state view split at the gate's qubit. An ry or
    fixed-ry entry is the matrix [[c, f], [g, c]], c = cos h, f = g = sin h
    (rx: f = i sin h, g = -i sin h), as a (2, 1, k, 1, 2, 1) view of row
    r's stored [f, c, g] whose [j, 0, r, 0, i, 0] takes half j to half i.
    Every factor is complex, so no kernel casts a real operand.
    """
    fixed = np.full((1, 1), FIXED_RY_ANGLE)
    columns: dict = {}  # (kind, angle source) -> {table key: column}
    for gate in gates:
        kind = gate.kind
        if gate.param_slot is not None:
            group, column = (kind, 0), gate.param_slot
        elif gate.feature_slot is not None:
            group, column = (kind, 1), gate.feature_slot
        elif kind == FIXED_RY:
            group, column = (RY, 2), 0
        else:
            continue
        columns.setdefault(group, {})[
            kind, gate.param_slot, gate.feature_slot] = column
    table = {}
    for (kind, source), keys in columns.items():
        angles = np.asarray((thetas, features, fixed)[source], dtype=float)
        angles = angles[:, list(keys.values())]
        half = (-angles if inverse else angles) / 2.0
        if kind == RZ:
            # the bits of exp(-1j * h) and exp(1j * h), from real trig:
            # + 0.0 turns sin(-0.0) into the +0 that exp(1j * -0.0) has
            sn = np.sin(half).T
            factors = np.empty(sn.shape + (1, 2, 1), dtype=complex)
            pair = factors[:, :, 0, :, 0]
            pair.real = np.cos(half).T[..., None]
            pair.imag[..., 0] = -sn
            pair.imag[..., 1] = sn + 0.0
            table.update(zip(keys, factors))
            continue
        fcg = np.empty(half.shape[::-1] + (3,), dtype=complex)
        f, c, g = fcg.T
        c[...] = np.cos(half)
        sn = np.sin(half)
        f[...], g[...] = (1j * sn, -1j * sn) if kind == RX else (sn, sn)
        step = fcg.itemsize
        table.update(zip(keys, np.ndarray(
            (len(keys), 2, 1, len(half), 1, 2, 1), complex, fcg, step,
            (fcg.strides[0], -step, 0, fcg.strides[1], 0, step, 0))))
    return table



def assert_factors_match(steps, table, want):
    """Each rotation step's factors in table are byte for byte the
    dict-of-views entry of its gate, in shape too: an rz entry, and an rx
    or ry matrix view whose [f, c, g] view holds its f, c and g. Returns
    the count of rotation steps checked."""
    checked = 0
    for gate, at, i in steps:
        if gate is None:
            continue
        old = want[gate.kind, gate.param_slot, gate.feature_slot]
        pairs = [(table[at][i], old)]
        if gate.kind != RZ:
            f, c, g = table[at + 1][:, i]
            pairs += [(f, old[1, ..., 0, :]), (c, old[0, ..., 0, :]),
                      (g, old[0, ..., 1, :])]
        for got, expected in pairs:
            assert got.shape == expected.shape
            assert (np.ascontiguousarray(got).tobytes()
                    == np.ascontiguousarray(expected).tobytes())
        checked += 1
    return checked


@pytest.mark.parametrize("inverse", [False, True])
def test_stacked_tables_hold_the_bytes_of_the_dict_of_views_table(inverse):
    """On the strongly-entangling circuit, the two-design (whose fixed-RY
    prefix the compiled plan skips and the plan of all its gates holds),
    the HEA and an embedded QML circuit, with k = 1 and k = B angle rows,
    every rotation of the compiled plan, of the plan of all the gates and,
    forward, of the compiled prefix gets the oracle's bytes from its
    stacked table, theta and feature slots alike."""
    rng = np.random.default_rng(72)
    special = [0.0, -0.0, math.pi, -math.pi, 1e-300]
    for circ in (build_strongly_entangling(3, 4), build_two_design(3, 4, 2),
                 build_hea(2, 3), embed_angles(build_strongly_entangling(2, 3),
                                               3)):
        n, batch = circ.num_qubits, 5
        plan = compiled(circ.gates, n)
        rotations = sum(gate.kind not in (CNOT, CZ) for gate in circ.gates)
        for k in (1, batch):
            thetas = rng.uniform(-7, 7, (k, circ.num_params))
            thetas[:, 0] = special[:k]
            feats = rng.uniform(-7, 7, (k, circ.num_features))
            want = dict_angle_table(circ.gates, thetas, feats, inverse)
            table = angle_table(plan.groups, thetas, feats, inverse)
            checked = assert_factors_match(plan.steps, table, want)
            steps, groups = _plan(circ.gates, n)
            assert assert_factors_match(
                steps, angle_table(groups, thetas, feats, inverse),
                want) == rotations
            if not inverse:
                checked += assert_factors_match(plan.prefix, plan.fixed, want)
                assert checked == rotations


def test_each_sequence_compiles_once_in_a_vqe_and_a_qml_run(monkeypatch):
    """Across a small vqe run and a small qml run each gate sequence, a
    circuit's gates or a classifier's prefix or body, is compiled exactly
    once: the qml run's training and scoring tasks share the split of
    their one circuit."""
    built = []

    class Counted(simulator.Compiled):
        def __init__(self, gates, num_qubits):
            built.append(gates)
            super().__init__(gates, num_qubits)
    monkeypatch.setattr(simulator, "Compiled", Counted)
    monkeypatch.setattr(simulator, "_COMPILED", {})
    cmd_vqe(resolve_config("vqe", overrides=[
        f'hamiltonian="{H2_4Q}"', "ansatz.layers=2", "es.n_iters=1",
        "train.iters=2"], seed=0))
    cmd_qml(resolve_config("qml", overrides=[
        f'dataset="{WINE}"', "es.n_iters=1", "train.iters=2",
        "ansatz.layers=1"], seed=0))
    assert len(built) >= 4
    assert len(built) == len(set(built)) == len(simulator._COMPILED)


def test_a_second_engine_call_hashes_no_gate(monkeypatch):
    """Once a circuit has run, the forward engine, the adjoint, both swept
    QFIMs, the trace run and both classifier paths find everything they
    need by the gate tuple's identity: a second call hashes no Gate."""
    rng = np.random.default_rng(73)
    vqe = build_strongly_entangling(2, 3)
    blocks = build_two_design(3, 3, 1)
    obs = Observable(((0.5, "ZZI"), (0.3, "XYZ")))
    theta = rng.uniform(0, 2 * math.pi, (4, vqe.num_params))
    tilt = rng.uniform(0, 2 * math.pi, (4, blocks.num_params))
    classifier = embed_angles(build_hea(1, 2), 2)
    feats = rng.uniform(0, math.pi, (6, 2))
    labels = np.arange(6) % 2
    shared = QmlTask(classifier, feats, labels, 2)
    per_row = QmlTask(classifier, feats[:3], labels[:3], 2)
    assert shared._embedded is not None and per_row._embedded is None
    w = rng.uniform(0, 2 * math.pi, (3, classifier.num_params))

    def engines():
        apply_circuit(vqe, theta)
        observable_gradient(vqe, theta, obs)
        qfim_and_observable_gradient(vqe, theta, obs)
        qfim_block_diagonal(blocks, tilt)
        qfim_trace(vqe, theta)
        shared.value_and_gradient(w)
        per_row.value_and_gradient(w)
    engines()
    hashes = []
    gate_hash = Gate.__hash__

    def counted(gate):
        hashes.append(gate)
        return gate_hash(gate)
    monkeypatch.setattr(Gate, "__hash__", counted)
    engines()
    assert not hashes
    hash(vqe.gates[0])  # the counter sees a hash when one is taken
    assert len(hashes) == 1


def test_equal_gates_hash_equal_and_share_a_cached_plan():
    """A gate tuple's compiled form is found by its identity; an equal
    tuple of fresh gates compiles its own, whose CNOT runs share the steps
    (and arrays) of the first, built once per run."""
    circ = build_strongly_entangling(2, 3)
    fresh = tuple(Gate(g.kind, g.target, g.control, g.param_slot,
                       g.feature_slot) for g in circ.gates)
    assert fresh == circ.gates
    assert not any(a is b for a, b in zip(fresh, circ.gates))
    assert [hash(g) for g in fresh] == [hash(g) for g in circ.gates]
    assert hash(fresh) == hash(circ.gates)
    gate = circ.gates[0]
    assert hash(pickle.loads(pickle.dumps(gate))) == hash(gate)
    plan = compiled(circ.gates, 3)
    assert compiled(circ.gates, 3) is plan
    other = compiled(fresh, 3)
    assert other is not plan
    runs = [step for step in plan.steps if step[0] is None]
    assert len(runs) == 2
    assert all(a is b for a, b in zip(
        runs, [step for step in other.steps if step[0] is None]))


def entangler_run(rng, n):
    """A CNOT and a CZ on every ordered qubit pair, shuffled."""
    run = [Gate(kind, target=t, control=c) for c in range(n)
           for t in range(n) if c != t for kind in (CNOT, CZ)]
    return tuple(run[k] for k in rng.permutation(len(run)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fused_runs_match_the_per_gate_oracle_bit_for_bit(n):
    """A mixed CNOT/CZ run over every ordered pair (control above and below
    the target), its one-gate and two-gate prefixes and its CZs or CNOTs
    alone are each one plan step, which gives the bits of the oracle's
    gate-by-gate loop on every start state, in place or on a row prefix;
    the reversed run's step restores the start exactly."""
    rng = np.random.default_rng(60 + n)
    batch = 6
    run = entangler_run(rng, n)
    for gates in (run, run[:1], run[:2],
                  tuple(gate for gate in run if gate.kind == CZ),
                  tuple(gate for gate in run if gate.kind == CNOT)):
        (step,), _ = _plan(gates, n)
        (back,), _ = _plan(gates[::-1], n)
        for start in kernel_states(rng, batch, n):
            want = start.copy()
            for gate in gates:
                _oracle_apply(want, gate, None, None, False)
            got = start.copy()
            apply_gate(got, step, {}, nan_scratch(got.size))
            assert_same_bits(got, want)
            buffer = np.concatenate([start, random_states(rng, 3, n)])
            rest = buffer[batch:].copy()
            apply_gate(buffer[:batch], step, {}, nan_scratch(buffer.size))
            assert_same_bits(buffer[:batch], want)
            assert_same_bits(buffer[batch:], rest)
            apply_gate(got, back, {}, nan_scratch(got.size))
            assert_same_bits(got, start)


def test_runs_whose_signs_are_all_plus_leave_out_the_multiply():
    """A run step whose signs are all +1 (a CNOT ring, a CNOT pair that
    cancels) has no sign vector; the two-design's CZ ladder and a mixed run
    keep theirs. Each step gives the oracle's bits."""
    n = 4
    ladder = tuple(Gate(CZ, q + 1, control=q) for q in range(n - 1))
    ring = tuple(Gate(CNOT, (q + 1) % n, control=q) for q in range(n))
    pair = (Gate(CNOT, 2, control=0), Gate(CNOT, 2, control=0))
    rng = np.random.default_rng(68)
    for gates, signs in ((ladder, True), (ring, False), (ladder + ring, True),
                         (pair, False)):
        (step,), _ = _plan(gates, n)
        assert (step[1] is not None) == signs
        for start in kernel_states(rng, 6, n):
            want = start.copy()
            for gate in gates:
                _oracle_apply(want, gate, None, None, False)
            got = start.copy()
            apply_gate(got, step, {}, nan_scratch(got.size))
            assert_same_bits(got, want)


class PerGateRuns:
    """itertools for the simulator with a groupby that makes every gate a
    run of its own, so that each CNOT and CZ is a one-gate run step."""

    @staticmethod
    def groupby(gates, key):
        return ((key(gate), [gate]) for gate in gates)


def test_engines_give_fused_runs_the_bits_of_a_per_gate_loop(monkeypatch):
    """Runs at the start and the end of the sequence, right after the first
    theta gate (the adjoint's last undo) and split by layer-tag stops: the
    forward run matches the oracle, and the forward run, the adjoint's
    undo walk and both swept QFIMs give the same bits with one step per
    gate."""
    gates = (Gate(CZ, 1, 0), Gate(CNOT, 0, 2), Gate(FIXED_RY, 1),
             Gate(RY, 1, param_slot=0), Gate(CNOT, 2, 1), Gate(CZ, 0, 2),
             Gate(CNOT, 1, 0), Gate(RX, 0, param_slot=1),
             Gate(RZ, 2, param_slot=2), Gate(CZ, 2, 1), Gate(CNOT, 0, 1),
             Gate(RY, 2, param_slot=3), Gate(CNOT, 1, 2), Gate(CZ, 0, 1))
    # the stops at 5 and 10 split the runs of gates 4-6 and 9-10
    circ = Circuit(3, gates, 4, layers=(Layer(5, 0, 1), Layer(10, 1, 3),
                                        Layer(14, 3, 4)))
    assert sum(step[0] is None for step in _plan(gates, 3)[0]) == 4
    rng = np.random.default_rng(61)
    thetas = rng.uniform(-4, 4, (3, 4))
    lam = random_states(rng, 3, 3)

    def run_engines():
        phi = apply_circuit(circ, thetas)
        return (phi, adjoint_gradient(circ, thetas, phi, lam),
                qfim_block_diagonal(circ, thetas),
                qfim_exact(circ, thetas))
    fused = run_engines()
    want = zero_state(3, 3)
    for gate in gates:
        _oracle_apply(want, gate, thetas, None, False)
    assert_same_bits(fused[0], want)
    monkeypatch.setattr(simulator, "itertools", PerGateRuns)
    monkeypatch.setattr(simulator, "_COMPILED", {})
    assert sum(step[0] is None for step in _plan(gates, 3)[0]) == 9
    for got, expected in zip(fused, run_engines()):
        assert_same_bits(got, expected)


def test_one_qubit_plan_is_its_gates():
    circ = Circuit(1, (Gate(RY, 0, param_slot=0), Gate(FIXED_RY, 0),
                       Gate(RZ, 0, param_slot=1), Gate(RX, 0, param_slot=2)),
                   3)
    assert [step[0] for step in compiled(circ.gates, 1).steps] == list(
        circ.gates)
    thetas = np.random.default_rng(62).uniform(-4, 4, (4, 3))
    want = zero_state(1, 4)
    for gate in circ.gates:
        _oracle_apply(want, gate, thetas, None, False)
    assert_same_bits(apply_circuit(circ, thetas), want)


def test_adjoint_gradient_hits_its_cached_plan():
    circ = build_strongly_entangling(2, 3)
    thetas = np.random.default_rng(63).uniform(-4, 4, (2, circ.num_params))
    phi = apply_circuit(circ, thetas)
    adjoint_gradient(circ, thetas, phi, phi)
    undo = compiled(circ.gates, 3).memo["undo"]
    adjoint_gradient(circ, thetas, phi, phi)
    assert compiled(circ.gates, 3).memo["undo"] is undo


def test_forward_engine_equals_an_explicit_gate_loop():
    """_forward, walking its plan with fused CNOT runs, gives the bits of a
    loop of one-gate steps over the same table and scratch, from |0...0>
    or from a given start batch (the basis rows, as the classifier's
    unitary run starts), with feature rows; read sees every theta slot
    once, in gate order, on the state its gate made."""
    rng = np.random.default_rng(49)
    for _ in range(40):
        qubits = int(rng.integers(1, 5))
        circ = embed_angles(
            random_circuit(rng, qubits, depth=int(rng.integers(1, 16))),
            int(rng.integers(0, qubits + 1)))
        b, d = int(rng.integers(1, 4)), 1 << qubits
        thetas = rng.uniform(-7, 7, (b, circ.num_params))
        feats = rng.uniform(-7, 7, (b, circ.num_features))
        basis = np.repeat(np.eye(d, dtype=complex), b, axis=0)
        for start in (None, basis):
            want = zero_state(qubits, b) if start is None else start.copy()
            steps, table = kernel_table(circ.gates, qubits, thetas, feats)
            scratch = simulator.scratch_for(want.size)
            reads = []
            for gate, step in zip(circ.gates, steps):
                apply_gate(want, step, table, scratch)
                if gate.param_slot is not None:
                    reads.append((gate.param_slot, want.copy()))
            seen = []
            given = None if start is None else start.copy()
            got = _forward(circ.gates, qubits, thetas, feats, state=given,
                           read=lambda gate, state: seen.append(
                               (gate.param_slot, state.copy())))
            assert given is None or got is given
            assert_same_bits(got, want)
            assert [slot for slot, _ in seen] == [slot for slot, _ in reads]
            for (_, state), (_, expected) in zip(seen, reads):
                assert_same_bits(state, expected)


def test_forward_engine_checks_the_norm_of_its_result():
    circ = build_hea(1, 2)
    thetas = np.zeros((3, circ.num_params))
    thetas[1, 2] = np.nan
    with pytest.raises(FloatingPointError, match="norm"):
        _forward(circ.gates, 2, thetas)
    # a start batch is held to the same check: rows of norm 1.5 fail
    with pytest.raises(FloatingPointError, match="norm"):
        _forward(circ.gates, 2, thetas[:1], state=np.full((1, 4), 0.75 + 0j))


def compile_without_prefix(mp):
    """Compile every gate tuple anew as if no gate were fixed, so that
    every walk from |0...0> runs the prefix on every row."""
    mp.setattr(simulator, "_COMPILED", {})
    mp.setattr(simulator, "ROTATION_KINDS", GATE_KINDS)


def test_walks_start_from_the_cached_fixed_prefix(monkeypatch):
    """The two-design (its RY wall), a circuit whose fixed prefix ends in a
    CNOT/CZ run that its first layer tag splits, and the
    strongly-entangling circuit (no fixed prefix): run_gates, from copies
    of the cached prefix row, gives the bits of the oracle's per-gate loop
    from |0...0>, and the sweeps, the trace run and the adjoint give the
    bits of walks that run the prefix on every row. The cached row is
    read-only and keeps its bytes."""
    split = Circuit(3, (Gate(FIXED_RY, 0), Gate(FIXED_RY, 2), Gate(CNOT, 1, 0),
                        Gate(CZ, 2, 1), Gate(RY, 1, param_slot=0),
                        Gate(CNOT, 0, 1), Gate(RX, 2, param_slot=1),
                        Gate(FIXED_RY, 1), Gate(RZ, 0, param_slot=2),
                        Gate(CZ, 0, 2)), 3,
                    layers=(Layer(3, 0, 0), Layer(6, 0, 1), Layer(10, 1, 3)))
    rng = np.random.default_rng(69)
    for circ, fixed in ((build_two_design(3, 4, 2), 4), (split, 4),
                        (build_strongly_entangling(2, 3), 0)):
        n = circ.num_qubits
        m, row = compiled(circ.gates, n).skip, compiled(circ.gates, n).row
        assert m == fixed and not row.flags.writeable
        want = zero_state(n, 1)
        for gate in circ.gates[:m]:
            _oracle_apply(want, gate, None, None, False)
        assert_same_bits(row, want)
        before = row.tobytes()
        thetas = rng.uniform(-4, 4, (5, circ.num_params))
        obs = Observable(((0.5, "Z" * n), (0.3, "X" + "Y" * (n - 1))))

        def run_walks():
            return (run_gates(circ.gates, n, thetas),
                    *qfim_and_observable_gradient(circ, thetas, obs),
                    qfim_block_diagonal(circ, thetas),
                    qfim_trace(circ, thetas),
                    observable_gradient(circ, thetas, obs))
        got = run_walks()
        want = zero_state(n, 5)
        for gate in circ.gates:
            _oracle_apply(want, gate, thetas, None, False)
        assert_same_bits(got[0], want)
        with monkeypatch.context() as mp:
            compile_without_prefix(mp)
            assert compiled(circ.gates, n).skip == 0
            for fast, full in zip(got, run_walks()):
                assert_same_bits(fast, full)
        assert compiled(circ.gates, n).row is row
        assert row.tobytes() == before
        with pytest.raises(ValueError, match="read-only"):
            row[0, 0] = 0.0


def test_forward_engine_peak_is_a_stated_multiple_of_its_stack():
    """run_gates' traced peak holds its result and scratch buffer (two
    stacks, the scratch 512 amplitudes more), the angle table and up to
    three numpy iterator buffers of at most np.getbufsize() amplitudes.
    At (64, 2^8) on the two-design the buffers are 1.5 stacks and the peak
    reads 3.5 stacks (919 KB); at (48, 2^4) on the 2-layer
    strongly-entangling circuit the angle table of 24 slots is about 3.5
    stacks and the peak reads 7.8 stacks (95 KB)."""
    for circ, rows, multiple in ((build_two_design(5, 8, 0), 64, 4),
                                 (build_strongly_entangling(2, 4), 48, 8)):
        thetas = np.random.default_rng(70).uniform(
            0, 2 * math.pi, (rows, circ.num_params))
        stack = rows * 16 << circ.num_qubits
        run_gates(circ.gates, circ.num_qubits, thetas)
        tracemalloc.start()
        try:
            run_gates(circ.gates, circ.num_qubits, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= multiple * stack, (circ.num_qubits, peak)


def test_gate_kernels_allocate_no_state_sized_temporary():
    # numpy's in-place ufuncs may still buffer up to np.getbufsize()
    # elements per operand, and no more than the operand has: one buffer
    # for an RZ step, in either of its forms, and three operands at most
    # for the other steps, whose widest operand on a small state is the
    # pair form's 2 * state.size products in scratch
    rng = np.random.default_rng(48)
    mixed = (Gate(CNOT, target=3, control=6), Gate(CZ, target=9, control=0),
             Gate(CNOT, target=1, control=8))
    # RX and RY at target 7 loop along the 128 blocks above it
    wide = ((Gate(RX, target=3, param_slot=0),),
            (Gate(RY, target=3, param_slot=0),),
            (Gate(RX, target=7, param_slot=0),),
            (Gate(RY, target=7, param_slot=0),),
            (Gate(RZ, target=3, param_slot=0),),
            (Gate(RZ, target=9, param_slot=0),),
            (Gate(FIXED_RY, target=3),),
            (Gate(CNOT, target=3, control=6),),
            (Gate(CZ, target=3, control=6),), mixed)
    # the pair form on vqe training's forward and adjoint batches
    small = tuple((Gate(kind, target=target, param_slot=0),)
                  for kind in (RX, RY) for target in (0, 3))
    for n, batch, cases in ((10, 64, wide), (4, 4, small), (4, 8, small)):
        thetas = rng.uniform(-4, 4, (batch, 1))
        state = random_states(rng, batch, n)
        scratch = simulator.scratch_for(state.size)
        buffer = min(np.getbufsize(), 2 * state.size) * 16
        for gates in cases:
            (step,), groups = _plan(gates, n)
            table = angle_table(groups, thetas)
            bound = (1 if gates[0].kind == RZ else 3) * buffer + 4096
            tracemalloc.start()
            try:
                apply_gate(state, step, table, scratch)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, ([gate.kind for gate in gates], n, peak)


def test_norm_check_allocates_no_batch_sized_temporary():
    """The norm check runs after every forward run and sweep segment; on a
    (128, 2^8) batch it allocates a few (B,) arrays, not a copy of the
    batch (np.linalg.norm made one of 0.5 MB)."""
    states = random_states(np.random.default_rng(21), 128, 8)
    check_normalized(states)
    tracemalloc.start()
    try:
        check_normalized(states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= states.nbytes // 32, peak


@given(st.text(alphabet="IXYZ", min_size=1, max_size=6),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_pauli_word_squares_to_identity(word, batch, seed):
    state = random_states(np.random.default_rng(seed), batch, len(word))
    obs = Observable(((1.0, word),))
    once = apply_observable(state, obs)
    np.testing.assert_allclose(np.linalg.norm(once, axis=1), 1.0,
                               rtol=0, atol=1e-12)
    np.testing.assert_array_equal(apply_observable(once, obs), state)


def test_derivative_table_matches_dense_pauli():
    # -(i/2) G psi for the generator G of each rotation kind
    rng = np.random.default_rng(32)
    states = random_states(rng, 4, 3)
    for kind, axis in ((RX, "X"), (RY, "Y"), (RZ, "Z")):
        for qubit in range(3):
            ops = [PAULI["I"]] * 3
            ops[qubit] = PAULI[axis]
            dense = np.kron(np.kron(ops[0], ops[1]), ops[2])
            factor, source = _derivative_table(kind, qubit, 3)
            got = factor * (states if source is None else states[:, source])
            assert np.allclose(got, -0.5j * states @ dense.T, atol=1e-12)


def test_norm_guard_catches_nan():
    circ = build_hea(1, 2)
    with pytest.raises(FloatingPointError):
        apply_circuit(circ, [math.nan, 0.1, 0.2, 0.3])
    thetas = np.full((3, circ.num_params), 0.5)
    thetas[1, 2] = math.nan
    with pytest.raises(FloatingPointError):
        apply_circuit(circ, thetas)


def test_cnot_cz_truth_tables():
    # prepare |11> then act
    prep = (Gate(RY, 0, param_slot=0), Gate(RY, 1, param_slot=1))
    flip = [math.pi, math.pi]
    circ = Circuit(2, prep + (Gate(CNOT, target=1, control=0),), 2)
    state = apply_circuit(circ, flip)
    assert np.allclose(np.abs(state) ** 2, [0, 0, 1, 0], atol=1e-12)  # |10>
    circ = Circuit(2, prep + (Gate(CZ, target=1, control=0),), 2)
    state = apply_circuit(circ, flip)
    assert np.allclose(state, [0, 0, 0, -1], atol=1e-12)  # -|11>


def test_batch_matches_single_rows():
    rng = np.random.default_rng(4)
    circ = build_strongly_entangling(2, 4)
    thetas = rng.uniform(0, 2 * math.pi, (7, circ.num_params))
    batch = apply_circuit(circ, thetas)
    assert batch.shape == (7, 16)
    for i in range(7):
        assert np.allclose(batch[i], apply_circuit(circ, thetas[i]), atol=1e-12)


def test_pauli_word_application():
    rng = np.random.default_rng(5)
    for word in ("X", "Y", "Z", "XY", "ZI", "IZY", "YXZ", "III"):
        n = len(word)
        state = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        state /= np.linalg.norm(state)
        dense = np.eye(1, dtype=complex)
        for ch in word:
            dense = np.kron(dense, PAULI[ch])
        assert np.allclose(apply_observable(state, Observable(((1.0, word),))),
                           dense @ state, atol=1e-12)


def test_apply_observable_matches_dense_sum():
    """Terms that flip the same bits (XXYY, YYXX, XYYX) share one gather;
    the sum still equals the dense H applied to each row."""
    rng = np.random.default_rng(7)
    obs = Observable(((0.3, "XXYY"), (-0.7, "ZIZI"), (0.2, "YYXX"),
                      (1.1, "IIII"), (0.5, "XYYX"), (-0.4, "IXIZ")))
    dense = sum(c * functools.reduce(np.kron, [PAULI[ch] for ch in w])
                for c, w in obs.terms)
    states = random_states(rng, 3, 4)
    np.testing.assert_allclose(apply_observable(states, obs),
                               states @ dense.T, rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="does not match"):
        apply_observable(states[:, :8], obs)


def test_expectation_matches_dense():
    rng = np.random.default_rng(6)
    obs = Observable(terms=((0.5, "ZI"), (0.5, "IZ"), (0.25, "XX")))
    dense = sum(c * np.kron(PAULI[w[0]], PAULI[w[1]]) for c, w in obs.terms)
    circ = build_hea(3, 2)
    for _ in range(10):
        theta = rng.uniform(0, 2 * math.pi, circ.num_params)
        state = apply_circuit(circ, theta)
        want = np.vdot(state, dense @ state).real
        assert abs(expectation(state, obs) - want) < 1e-12


def test_expectation_identity_is_one():
    state = apply_circuit(build_hea(1, 3), np.full(6, 0.4))
    assert abs(expectation(state, Observable(terms=((1.0, "III"),))) - 1.0) < 1e-12


def test_expectation_batched():
    rng = np.random.default_rng(7)
    circ = build_hea(2, 2)
    obs = Observable(terms=((1.0, "ZI"),))
    thetas = rng.uniform(0, 2 * math.pi, (5, circ.num_params))
    values = expectation(apply_circuit(circ, thetas), obs)
    assert values.shape == (5,)
    singles = [expectation(apply_circuit(circ, t), obs) for t in thetas]
    assert np.allclose(values, singles, atol=1e-12)


def test_expectation_guard_catches_nan():
    obs = Observable(terms=((1.0, "ZI"), (0.5, "XX")))
    state = zero_state(2)
    state[3] = math.nan
    with pytest.raises(FloatingPointError):
        expectation(state, obs)
    batch = np.stack([zero_state(2), state])
    with pytest.raises(FloatingPointError):
        expectation(batch, obs)


def test_strongly_entangling_structure():
    circ = build_strongly_entangling(8, 4)
    assert circ.num_params == 8 * 4 * 3
    assert len(circ.layers) == 8
    covered = [mu for tag in circ.layers
               for mu in range(tag.param_start, tag.param_stop)]
    assert covered == list(range(circ.num_params))
    # entangler range cycles 1, 2, 3, 1, ...
    first_layer_cnots = [g for g in circ.gates[:circ.layers[0].gate_stop]
                         if g.kind == CNOT]
    assert all((g.control + 1) % 4 == g.target for g in first_layer_cnots)
    second = [g for g in circ.gates[circ.layers[0].gate_stop:
                                    circ.layers[1].gate_stop] if g.kind == CNOT]
    assert all((g.control + 2) % 4 == g.target for g in second)


def test_strongly_entangling_rotation_order():
    # Rot(a, b, c) on each qubit is RZ, RY, RZ on slots s, s + 1, s + 2
    circ = build_strongly_entangling(2, 3)
    for tag, start in zip(circ.layers, (0, circ.layers[0].gate_stop)):
        layer = circ.gates[start:tag.gate_stop]
        assert [(g.kind, g.target, g.param_slot) for g in layer[:9]] == [
            (axis, q, tag.param_start + 3 * q + k)
            for q in range(3) for k, axis in enumerate((RZ, RY, RZ))]
        assert [g.kind for g in layer[9:]] == [CNOT] * 3


def test_two_design_structure_and_seeding():
    circ = build_two_design(5, 4, seed=9)
    assert circ.num_params == 5 * 4
    assert [g.kind for g in circ.gates[:4]] == [FIXED_RY] * 4
    assert circ == build_two_design(5, 4, seed=9)  # purity
    other = build_two_design(5, 4, seed=10)
    kinds = lambda c: [g.kind for g in c.gates if g.kind in ROTATION_KINDS]
    assert kinds(circ) != kinds(other)


def test_hea_structure():
    circ = build_hea(5, 4)
    assert circ.num_params == 5 * 4 * 2
    layer0 = circ.gates[:circ.layers[0].gate_stop]
    assert [g.kind for g in layer0] == [RY] * 4 + [RZ] * 4 + [CNOT] * 3


def test_embedding_prepends_feature_rotations():
    base = build_hea(2, 3)
    circ = embed_angles(base, 3)
    assert circ.num_features == 3
    assert circ.num_params == base.num_params
    feats = np.array([0.2, 1.1, 2.9])
    theta = np.linspace(0, 1, circ.num_params)
    got = apply_circuit(circ, theta, feats)
    want = dense_state(circ.gates, 3, theta, feats)
    assert np.max(np.abs(got - want)) < 1e-12
    # layer tags shifted past the embedding prelude
    assert circ.layers[0].gate_stop == base.layers[0].gate_stop + 3


def test_embedding_errors():
    base = build_hea(1, 2)
    with pytest.raises(ValueError):
        embed_angles(base, 3)
    once = embed_angles(base, 2)
    with pytest.raises(ValueError):
        embed_angles(once, 1)
    with pytest.raises(ValueError):
        apply_circuit(once, np.zeros(4))  # features required


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("hadamard", target=0)
    with pytest.raises(ValueError):
        Gate(CNOT, target=1, control=1)
    with pytest.raises(ValueError):
        Gate(RX, target=0, param_slot=0, feature_slot=0)
    with pytest.raises(ValueError):
        Gate(CZ, target=0, control=1, param_slot=0)


def test_circuit_validation():
    good = Gate(RY, target=0, param_slot=0)
    with pytest.raises(ValueError):
        Circuit(1, (good,), 2)  # slot 1 never used
    with pytest.raises(ValueError):
        Circuit(1, (good, good), 1)  # slot 0 used twice
    with pytest.raises(ValueError):
        Circuit(1, (Gate(RY, target=3, param_slot=0),), 1)
    with pytest.raises(ValueError):
        apply_circuit(Circuit(1, (good,), 1), [0.1, 0.2])


def test_circuit_rejects_feature_slots_outside_a_cover():
    """The feature slots the gates read must cover [0, f) once each: a
    slot past the features would fail inside the angle table, and a slot
    read twice would leave a feature that no gate reads."""
    theta_gate = Gate(RY, target=1, param_slot=0)
    cases = (((Gate(RY, target=0, feature_slot=3),), (3,)),
             ((Gate(RY, target=0, feature_slot=0),
               Gate(RX, target=1, feature_slot=0)), (0, 0)))
    for feature_gates, slots in cases:
        with pytest.raises(ValueError, match=r"feature slots must cover "
                           r"\[0, num_features\) exactly once"):
            Circuit(2, feature_gates + (theta_gate,), 1,
                    embedding_slots=slots)
    good = Circuit(2, (Gate(RY, target=0, feature_slot=0), theta_gate), 1,
                   embedding_slots=(0,))
    assert good.num_features == 1


def test_circuit_rejects_malformed_layer_tags():
    """Each tag rule, on 2 qubits: RY(0), RY(1), CNOT, then RZ(2), RZ(3),
    CNOT. The gate_stops must increase within the circuit, each range
    must start where the last stopped, each segment must read exactly its
    range, and the last tag must stop at num_params."""
    gates = (Gate(RY, target=0, param_slot=0), Gate(RY, target=1, param_slot=1),
             Gate(CNOT, target=1, control=0),
             Gate(RZ, target=0, param_slot=2), Gate(RZ, target=1, param_slot=3),
             Gate(CNOT, target=1, control=0))
    good = Circuit(2, gates, 4, layers=(Layer(3, 0, 2), Layer(6, 2, 4)))
    assert len(good.layers) == 2
    cases = (
        ((Layer(3, 0, 2), Layer(3, 2, 4)), r"layer tag 1: gate_stop must "
         r"lie in \(3, 6\], got 3"),
        ((Layer(0, 0, 0), Layer(3, 0, 2), Layer(6, 2, 4)),
         r"layer tag 0: gate_stop must lie in \(0, 6\], got 0"),
        # a gate_stop past the last gate
        ((Layer(3, 0, 2), Layer(7, 2, 4)), r"layer tag 1: gate_stop must "
         r"lie in \(3, 6\], got 7"),
        ((Layer(3, 1, 2), Layer(6, 2, 4)),
         r"layer tag 0: param range \[1, 2\) must start at 0"),
        ((Layer(3, 0, 2), Layer(6, 3, 4)),
         r"layer tag 1: param range \[3, 4\) must start at 2"),
        # slot 2 is read in the second segment; a block-diagonal QFIM of
        # these tags would hold F_22 = 0
        ((Layer(3, 0, 3), Layer(6, 3, 4)),
         r"layer tag 0: param range \[0, 3\) must start at 0 and hold "
         r"exactly the slots that gates \[0, 3\) read"),
        ((Layer(3, 0, 2), Layer(6, 2, 3)),
         r"layer tag 1: param range \[2, 3\) must start at 2 and hold "
         r"exactly the slots that gates \[3, 6\) read"),
        ((Layer(3, 0, 2),), "layer tags must stop at num_params, got 2"),
    )
    for tags, message in cases:
        with pytest.raises(ValueError, match=message):
            Circuit(2, gates, 4, layers=tags)


def test_observable_validation():
    with pytest.raises(ValueError):
        Observable(terms=())
    with pytest.raises(ValueError):
        Observable(terms=((1.0, "ZA"),))
    with pytest.raises(ValueError):
        Observable(terms=((1.0, "Z"), (1.0, "ZZ")))
    with pytest.raises(ValueError):
        Observable(terms=((math.inf, "Z"),))
    with pytest.raises(ValueError):
        expectation(zero_state(2), Observable(terms=((1.0, "Z"),)))
