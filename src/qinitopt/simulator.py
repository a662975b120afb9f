"""Dense statevector simulation of parameterized circuits.

Convention: qubit 0 is the most significant bit of the amplitude index,
so |q0 q1 ... q_{n-1}> lives at index int("q0q1...", 2). Gates are applied
by strided amplitude updates; no 2^n x 2^n matrices are ever built. Every
parameterized gate is a one-angle Pauli rotation exp(-i a P / 2), so
Rot(a, b, c) is written as RZ(a), RY(b), RZ(c). All state-producing
functions accept a batch of parameter vectors and then return a batch of
states, which keeps parameter-shift sweeps cheap.

A gate on a few rows of 16 amplitudes costs mostly numpy call overhead, so
a run of a gate sequence takes the trig of all its angles at once:
angle_table holds every rotation's half-angle factors, complex and shaped
to broadcast over the batch, and apply_gate reads a gate's entry from it.
A kernel then makes only the calls that move amplitudes, and each
amplitude keeps the bits that per-gate trig would give it.
"""
from __future__ import annotations

from dataclasses import dataclass
import functools
import math

import numpy as np

RX = "rx"
RY = "ry"
RZ = "rz"
CNOT = "cnot"
CZ = "cz"
FIXED_RY = "fixed_ry"  # constant RY(pi/4), no parameters

ROTATION_KINDS = (RX, RY, RZ)
GATE_KINDS = (RX, RY, RZ, CNOT, CZ, FIXED_RY)

FIXED_RY_ANGLE = math.pi / 4


@dataclass(frozen=True)
class Gate:
    """One circuit operation; a rotation reads one theta or feature slot."""

    kind: str
    target: int
    control: int | None = None
    param_slot: int | None = None
    feature_slot: int | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.control is not None and self.control == self.target:
            raise ValueError("control and target must differ")
        n_angle = (self.param_slot is not None) + (self.feature_slot is not None)
        expected = int(self.kind in ROTATION_KINDS)
        if n_angle != expected:
            raise ValueError(f"{self.kind} takes {expected} angle(s), got {n_angle}")


@dataclass(frozen=True)
class Layer:
    """Index ranges identifying one ansatz layer (for block-diagonal QFIM)."""

    gate_stop: int  # gates[:gate_stop] is the circuit truncated after this layer
    param_start: int
    param_stop: int


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...]
    num_params: int
    embedding_slots: tuple[int, ...] = ()
    layers: tuple[Layer, ...] = ()

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("need at least one qubit")
        seen = []
        feat = []
        for g in self.gates:
            qubits = (g.target,) if g.control is None else (g.target, g.control)
            for q in qubits:
                if not 0 <= q < self.num_qubits:
                    raise ValueError(f"qubit index {q} out of range")
            if g.param_slot is not None:
                seen.append(g.param_slot)
            if g.feature_slot is not None:
                feat.append(g.feature_slot)
        if sorted(seen) != list(range(self.num_params)):
            raise ValueError("theta slots must cover [0, num_params) exactly once")
        if sorted(feat) != list(self.embedding_slots):
            raise ValueError("feature slots do not match embedding_slots")

    @property
    def num_features(self) -> int:
        return len(self.embedding_slots)


@dataclass(frozen=True)
class Observable:
    """Hermitian operator as a real combination of Pauli words."""

    terms: tuple[tuple[float, str], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("observable needs at least one term")
        q = len(self.terms[0][1])
        for coeff, word in self.terms:
            if not math.isfinite(coeff):
                raise ValueError("coefficients must be finite reals")
            if len(word) != q:
                raise ValueError("all Pauli words must have equal length")
            if any(ch not in "IXYZ" for ch in word):
                raise ValueError(f"illegal Pauli character in {word!r}")

    @property
    def num_qubits(self) -> int:
        return len(self.terms[0][1])


def zero_state(num_qubits: int, batch: int | None = None) -> np.ndarray:
    dim = 1 << num_qubits
    if batch is None:
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
    else:
        state = np.zeros((batch, dim), dtype=complex)
        state[:, 0] = 1.0
    return state


def angle_table(gates, thetas: np.ndarray, features: np.ndarray | None = None,
                inverse: bool = False) -> dict:
    """The half-angle factors of every rotation in a gate sequence, built
    once for a run of it, keyed by (kind, param_slot, feature_slot).

    Theta slots read (k, p) thetas and feature slots (k', f) features, each
    with its own row count; every factor has shape (k, 1, 1), and row r of
    a state batch turns by angle row r % k. With h = a / 2, or h = -a / 2
    for the inverse gates, an rz entry holds (exp(-ih), exp(ih)), an ry
    or fixed-ry entry (cos h, sin h, sin h) and an rx entry
    (cos h, i sin h, -i sin h), all complex, so no kernel casts a real
    operand. A sequence builds only the factors its gate kinds read.
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
            factors = (np.exp(-1j * half), np.exp(1j * half))
        else:
            c = np.cos(half).astype(complex)
            sn = np.sin(half)
            if kind == RX:
                factors = (c, 1j * sn, -1j * sn)
            else:
                sn = sn.astype(complex)
                factors = (c, sn, sn)
        table.update(zip(keys, zip(*(f.T[:, :, None, None]
                                     for f in factors))))
    return table


def _rotate_single(state: np.ndarray, kind: str, qubit: int,
                   factors: tuple) -> None:
    """In-place single-qubit rotation on a (B, 2^n) state batch by its
    angle_table entry, whose (k, 1, 1) factors repeat over blocks of k
    rows. RZ scales the two half-views in place; RX and RY form
    c * s0 - f * s1 and g * s0 + c * s1 in fresh contiguous arrays and copy
    them back, which on numpy 2.4 beats updating the strided half-views in
    place at every buffer size the package runs."""
    s = state.reshape(-1, len(factors[0]), 1 << qubit, 2,
                      state.shape[1] >> (qubit + 1))
    s0 = s[..., 0, :]
    s1 = s[..., 1, :]
    if kind == RZ:
        s0 *= factors[0]
        s1 *= factors[1]
        return
    c, f, g = factors
    new0 = c * s0
    new0 -= f * s1
    new1 = g * s0
    new1 += c * s1
    s0[...] = new0
    s1[...] = new1


def _two_qubit_view(state: np.ndarray, q_lo: int, q_hi: int) -> np.ndarray:
    batch = state.shape[0]
    mid = 1 << (q_hi - q_lo - 1)
    return state.reshape(batch, 1 << q_lo, 2, mid, 2, -1)


def _apply_cnot(state: np.ndarray, control: int, target: int) -> None:
    s = _two_qubit_view(state, min(control, target), max(control, target))
    # swap the target's 0 and 1 halves where the control is 1
    flip = s[:, :, 1, :, 0] if control < target else s[:, :, 0, :, 1]
    both = s[:, :, 1, :, 1]
    tmp = flip.copy()
    flip[...] = both
    both[...] = tmp


def _apply_cz(state: np.ndarray, q_a: int, q_b: int) -> None:
    s = _two_qubit_view(state, min(q_a, q_b), max(q_a, q_b))
    block = s[:, :, 1, :, 1, :]
    block *= -1.0


def apply_gate(state: np.ndarray, gate: Gate, table: dict) -> None:
    """Apply one gate in place to a (B, 2^n) state batch; a rotation reads
    its factors from table, an angle_table over a sequence that holds the
    gate (built with inverse=True, it applies the gate's inverse; CNOT and
    CZ are their own inverses)."""
    kind = gate.kind
    if kind == CNOT:
        _apply_cnot(state, gate.control, gate.target)
    elif kind == CZ:
        _apply_cz(state, gate.control, gate.target)
    else:
        _rotate_single(state, kind, gate.target,
                       table[kind, gate.param_slot, gate.feature_slot])


def run_gates(gates, num_qubits: int, thetas: np.ndarray,
              features: np.ndarray | None = None) -> np.ndarray:
    """Apply a gate sequence to |0...0> for a (B, p) batch of parameter rows.

    Internal workhorse: does not re-validate slot coverage, so it also works
    on truncated gate lists. Returns a (B, 2^n) batch.
    """
    state = zero_state(num_qubits, thetas.shape[0])
    table = angle_table(gates, thetas, features)
    for gate in gates:
        apply_gate(state, gate, table)
    return state


def check_normalized(states: np.ndarray) -> None:
    """Raise FloatingPointError unless every row of a (B, 2^n) batch has
    unit norm within 1e-10; a NaN amplitude fails."""
    norms = np.linalg.norm(states, axis=1)
    if not np.max(np.abs(norms - 1.0)) <= 1e-10:
        raise FloatingPointError("statevector norm is NaN or drifted beyond 1e-10")


def _as_batch(vec, length: int, name: str) -> tuple[np.ndarray, bool]:
    arr = np.atleast_2d(np.asarray(vec, dtype=float))
    if length == 0 and arr.size == 0:
        return np.zeros((1, 0)), np.asarray(vec).ndim > 1
    if arr.shape[1] != length:
        raise ValueError(f"{name} must have length {length}, got {arr.shape[1]}")
    return arr.reshape(-1, length), np.asarray(vec).ndim > 1


def apply_circuit(circuit: Circuit, theta, features=None) -> np.ndarray:
    """Run the circuit from |0...0>; returns amplitudes (or a batch of them).

    theta may be shape (p,) or (B, p). Circuits with embedding slots require
    a features argument of shape (f,) or (B, f).
    """
    thetas, batched_t = _as_batch(theta, circuit.num_params, "theta")
    if circuit.num_features:
        if features is None:
            raise ValueError("circuit has embedding slots; features required")
        feats, batched_f = _as_batch(features, circuit.num_features, "features")
    else:
        if features is not None and np.asarray(features).size:
            raise ValueError("circuit has no embedding slots")
        feats, batched_f = np.zeros((1, 0)), False
    batch = max(thetas.shape[0], feats.shape[0])
    if thetas.shape[0] not in (1, batch) or feats.shape[0] not in (1, batch):
        raise ValueError("theta and features batch sizes are incompatible")
    if thetas.shape[0] == 1 and batch > 1:
        thetas = np.broadcast_to(thetas, (batch, thetas.shape[1]))
    if feats.shape[0] == 1 and batch > 1:
        feats = np.broadcast_to(feats, (batch, feats.shape[1]))
    state = run_gates(circuit.gates, circuit.num_qubits, thetas, feats)
    check_normalized(state)
    if not (batched_t or batched_f):
        return state[0]
    return state


@functools.lru_cache(maxsize=None)
def _pauli_table(word: str) -> tuple[np.ndarray, np.ndarray | None]:
    """(phase, source) with (P psi)[i] = phase[i] * psi[source[i]] for a
    Pauli word; source is None for a diagonal word. Built once per word and
    read-only, since every caller shares the cached arrays."""
    q = len(word)
    flip = 0
    sign_mask = 0  # bits whose value flips the sign (Y and Z positions)
    n_y = 0
    for k, ch in enumerate(word):
        bit = 1 << (q - 1 - k)
        if ch == "X":
            flip |= bit
        elif ch == "Y":
            flip |= bit
            sign_mask |= bit
            n_y += 1
        elif ch == "Z":
            sign_mask |= bit
    idx = np.arange(1 << q, dtype=np.uint64)
    parity = np.bitwise_count(idx & np.uint64(sign_mask)) & 1
    phases = (1j ** n_y) * np.where(parity, -1.0, 1.0)
    source = None
    if flip:
        source = np.arange(1 << q) ^ flip
        phases = phases[source]
        source.flags.writeable = False
    phases.flags.writeable = False
    return phases, source


@functools.lru_cache(maxsize=None)
def _observable_table(terms) -> tuple:
    """((diagonal, source), ...) with H psi = sum of diagonal * psi[source]
    (psi itself where source is None) for a Pauli sum's terms: words that
    flip the same bits share a source, so their coefficient-weighted phases
    are summed, in term order, into one diagonal. Built once per sum and
    read-only."""
    groups = {}
    for coeff, word in terms:
        phases, source = _pauli_table(word)
        # source = arange ^ flip, so source[0] is the flip mask
        key = None if source is None else int(source[0])
        if key in groups:
            groups[key][0] += coeff * phases
        else:
            groups[key] = [coeff * phases, source]
    for diagonal, _ in groups.values():
        diagonal.flags.writeable = False
    return tuple((diagonal, source) for diagonal, source in groups.values())


def apply_observable(state: np.ndarray, obs: Observable) -> np.ndarray:
    """H|psi> = sum_k c_k P_k |psi> for a Pauli sum H; acts on the last
    axis, one gather per distinct set of flipped bits."""
    dim = state.shape[-1]
    if dim != 1 << obs.num_qubits:
        raise ValueError(
            f"state dimension {dim} does not match {obs.num_qubits}-qubit observable")
    out = None
    for diagonal, source in _observable_table(obs.terms):
        # take keeps C order, where state[..., source] is Fortran-ordered
        # and so would change how later row reductions sum
        term = diagonal * (state if source is None
                           else state.take(source, axis=-1))
        if out is None:
            out = term
        else:
            out += term
    return out


def _expectation_from(state: np.ndarray, h_state: np.ndarray):
    """Re <psi|H psi> from states and their H|psi>, row by row, so each
    row's bits do not depend on the batch around it."""
    total = np.vecdot(state, h_state)
    if not np.all(np.abs(total.imag) <= 1e-10):
        raise FloatingPointError(
            "expectation value is NaN or has imaginary residue > 1e-10")
    real = total.real
    return float(real) if real.ndim == 0 else real


def expectation(state: np.ndarray, obs: Observable):
    """<psi|O|psi> as a real number (batched states give a real vector)."""
    return _expectation_from(state, apply_observable(state, obs))


def build_strongly_entangling(layers: int, qubits: int) -> Circuit:
    """Strongly-entangling ansatz: per layer Rot as RZ, RY, RZ on consecutive
    slots on every qubit, then a ring of CNOTs with range 1 + (layer mod
    (qubits-1))."""
    if qubits < 2:
        raise ValueError("strongly-entangling ansatz needs at least 2 qubits")
    if layers < 1:
        raise ValueError("need at least one layer")
    gates: list[Gate] = []
    tags: list[Layer] = []
    slot = 0
    for layer in range(layers):
        p_start = slot
        for q in range(qubits):
            for axis in (RZ, RY, RZ):
                gates.append(Gate(axis, target=q, param_slot=slot))
                slot += 1
        reach = 1 + (layer % (qubits - 1))
        for q in range(qubits):
            gates.append(Gate(CNOT, target=(q + reach) % qubits, control=q))
        tags.append(Layer(gate_stop=len(gates), param_start=p_start, param_stop=slot))
    return Circuit(qubits, tuple(gates), slot, layers=tuple(tags))


def build_two_design(layers: int, qubits: int, seed: int) -> Circuit:
    """Alternating-layer circuit that approaches a 2-design: a fixed RY(pi/4)
    wall, then per layer one randomly-axised rotation per qubit and a CZ
    ladder on neighbouring pairs. Axis choices come from the seed alone."""
    if qubits < 2:
        raise ValueError("two-design ansatz needs at least 2 qubits")
    if layers < 1:
        raise ValueError("need at least one layer")
    if seed < 0:
        raise ValueError(f"structure seed must be non-negative, got {seed}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed])))
    gates: list[Gate] = [Gate(FIXED_RY, target=q) for q in range(qubits)]
    tags: list[Layer] = []
    slot = 0
    for _ in range(layers):
        p_start = slot
        for q in range(qubits):
            kind = ROTATION_KINDS[rng.integers(3)]
            gates.append(Gate(kind, target=q, param_slot=slot))
            slot += 1
        for q in range(qubits - 1):
            gates.append(Gate(CZ, target=q + 1, control=q))
        tags.append(Layer(gate_stop=len(gates), param_start=p_start, param_stop=slot))
    return Circuit(qubits, tuple(gates), slot, layers=tuple(tags))


def build_hea(layers: int, qubits: int) -> Circuit:
    """Hardware-efficient ansatz: per layer an RY column, an RZ column, and a
    CNOT chain i -> i+1."""
    if qubits < 2:
        raise ValueError("hardware-efficient ansatz needs at least 2 qubits")
    if layers < 1:
        raise ValueError("need at least one layer")
    gates: list[Gate] = []
    tags: list[Layer] = []
    slot = 0
    for _ in range(layers):
        p_start = slot
        for q in range(qubits):
            gates.append(Gate(RY, target=q, param_slot=slot))
            slot += 1
        for q in range(qubits):
            gates.append(Gate(RZ, target=q, param_slot=slot))
            slot += 1
        for q in range(qubits - 1):
            gates.append(Gate(CNOT, target=q + 1, control=q))
        tags.append(Layer(gate_stop=len(gates), param_start=p_start, param_stop=slot))
    return Circuit(qubits, tuple(gates), slot, layers=tuple(tags))


def embed_angles(circuit: Circuit, features) -> Circuit:
    """Prepend an RY data-embedding gate on qubit j for each feature j.

    `features` fixes only the number of slots (an int or a template vector);
    actual angles are supplied to apply_circuit at evaluation time.
    """
    count = features if isinstance(features, int) else len(np.atleast_1d(features))
    if count > circuit.num_qubits:
        raise ValueError("more features than qubits")
    if circuit.num_features:
        raise ValueError("circuit already has embedding slots")
    prelude = tuple(Gate(RY, target=j, feature_slot=j) for j in range(count))
    shifted = tuple(Layer(t.gate_stop + count, t.param_start, t.param_stop)
                    for t in circuit.layers)
    return Circuit(circuit.num_qubits, prelude + circuit.gates, circuit.num_params,
                   embedding_slots=tuple(range(count)), layers=shifted)
