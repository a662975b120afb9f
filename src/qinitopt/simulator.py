"""Dense statevector simulation of parameterized circuits.

Convention: qubit 0 is the most significant bit of the amplitude index,
so |q0 q1 ... q_{n-1}> lives at index int("q0q1...", 2). Rotations are
applied by strided amplitude updates, CNOTs and CZs by gathers and sign
flips; no 2^n x 2^n matrices are ever built. Every parameterized gate is
a one-angle Pauli rotation exp(-i a P / 2), so Rot(a, b, c) is written as
RZ(a), RY(b), RZ(c). All state-producing functions accept a batch of
parameter vectors and then return a batch of states, which keeps
parameter-shift sweeps cheap.

A gate on a few rows of 16 amplitudes costs mostly numpy call overhead, so
a run of a gate sequence takes the trig of all its angles at once:
angle_table holds every rotation's half-angle factors, complex and shaped
to broadcast over the batch (RZ's two phases as one array), and a step
reads its gate's entry from it. For the same reason gate_plan, cached per
sequence (a Gate hashes its fields once, so a lookup costs one pass over
the tuple), makes each run of CNOTs and CZs between two rotations one
step. A kernel then makes only the calls that move amplitudes, and each
amplitude keeps the bits that per-gate trig and applying CNOTs and CZs
one by one would give it.

A step's temporaries go into a scratch buffer of the state's size that
the loop walking the plan allocates once and passes to every step.
Per-gate temporaries on the wide sweep batches are large enough for glibc
to map and unmap them on every gate, which made run time follow the
heap's state more than the arithmetic.

Every forward run goes through one engine, _forward, which owns the
run's table, scratch and norm check; run_gates is the engine from
|0...0>. Only the two sweeps in differentiation walk plans in loops of
their own. A walk from |0...0> starts from copies of one cached, read-only
row, fixed_prefix's state after the leading gates that read no slot (the
two-design's RY wall): their steps act on each row alone, so a copy has
the bits that running them on every row gives.

Each input is checked once, where it enters: a circuit and its layer tags
when Circuit is built, thetas by _batch_of and features by _features_of in
apply_circuit and the differentiation entry points. Engines and kernels
take their inputs as given.
"""
from __future__ import annotations

from dataclasses import dataclass
import functools
import itertools
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
        # every plan lookup hashes a whole gate tuple, so each gate hashes
        # its fields once; a frozen dataclass keeps an explicit __hash__
        object.__setattr__(self, "_hash", hash(self._fields()))

    def _fields(self) -> tuple:
        return (self.kind, self.target, self.control, self.param_slot,
                self.feature_slot)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild, so a gate sent to another process rehashes its kind
        # under that process's string hash seed
        return Gate, self._fields()


@dataclass(frozen=True)
class Layer:
    """One ansatz layer's tag, for the block-diagonal QFIM: the gates from
    the previous tag's gate_stop (0 for the first) to its own read exactly
    the theta slots [param_start, param_stop)."""

    gate_stop: int  # gates[:gate_stop] is the circuit truncated after this layer
    param_start: int
    param_stop: int


@dataclass(frozen=True)
class Circuit:
    """A gate sequence that reads each theta slot in [0, num_params) once
    and each feature slot in embedding_slots = [0, num_features) once.
    Layer tags, if any, split it in order: the gate_stops strictly
    increase up to len(gates), tag k's param range starts where tag
    k - 1's stopped (the first at 0) and holds exactly the slots its gates
    read, and the last stops at num_params."""

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
        if sorted(feat) != list(range(len(feat))):
            raise ValueError("feature slots must cover [0, num_features) exactly once")
        if sorted(feat) != list(self.embedding_slots):
            raise ValueError("feature slots do not match embedding_slots")
        start = param_stop = 0
        for k, tag in enumerate(self.layers):
            if not start < tag.gate_stop <= len(self.gates):
                raise ValueError(
                    f"layer tag {k}: gate_stop must lie in ({start}, "
                    f"{len(self.gates)}], got {tag.gate_stop}")
            read = sorted(g.param_slot for g in self.gates[start:tag.gate_stop]
                          if g.param_slot is not None)
            if (tag.param_start != param_stop
                    or read != list(range(param_stop, tag.param_stop))):
                raise ValueError(
                    f"layer tag {k}: param range [{tag.param_start}, "
                    f"{tag.param_stop}) must start at {param_stop} and hold "
                    f"exactly the slots that gates [{start}, "
                    f"{tag.gate_stop}) read")
            start, param_stop = tag.gate_stop, tag.param_stop
        if self.layers and param_stop != self.num_params:
            raise ValueError(f"layer tags must stop at num_params, got {param_stop}")

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
    with its own row count, and row r of a state batch turns by angle row
    r % k. With h = a / 2, or h = -a / 2 for the inverse gates, an rz
    entry is one (k, 1, 2, 1) array of [exp(-ih), exp(ih)], which
    broadcasts over a state view split at the gate's qubit; an ry or
    fixed-ry entry is (cos h, sin h, sin h) and an rx entry
    (cos h, i sin h, -i sin h), each factor (k, 1, 1). Every factor is
    complex, so no kernel casts a real operand. A sequence builds only the
    factors its gate kinds read.
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


@functools.lru_cache(maxsize=None)
def gate_plan(gates: tuple, num_qubits: int) -> tuple:
    """The steps of a gate sequence, built once per sequence: each rotation
    is its Gate, and each maximal run of CNOT and CZ gates is one
    (sign, source) step that maps a row psi to sign * psi[source], with
    sign a read-only ±1 vector over the row's float view, or None where
    every sign is +1. A run's step is the run's own one-step plan, so
    sequences that share a run share it."""
    groups = [(fused, tuple(group)) for fused, group in itertools.groupby(
        gates, lambda gate: gate.kind in (CNOT, CZ))]
    if groups != [(True, gates)]:
        return tuple(step for fused, group in groups for step in (
            gate_plan(group, num_qubits) if fused else group))
    index = np.arange(1 << num_qubits)
    source, sign = index, np.ones(len(index))
    for gate in gates:
        c_on = index >> (num_qubits - 1 - gate.control) & 1
        t_bit = 1 << (num_qubits - 1 - gate.target)
        if gate.kind == CNOT:
            flip = index ^ c_on * t_bit
            source, sign = source[flip], sign[flip]
        else:
            sign = np.where(c_on * (index & t_bit), -sign, sign)
    sign = np.repeat(sign, 2)
    sign.flags.writeable = source.flags.writeable = False
    return (None if (sign > 0).all() else sign, source),


def apply_gate(state: np.ndarray, step, table: dict,
               scratch: np.ndarray) -> None:
    """Apply one gate_plan step in place to a C-contiguous (B, 2^n) state
    batch.

    A rotation reads its factors from table, an angle_table over a
    sequence that holds the gate (built with inverse=True, it applies the
    gate's inverse), whose factors repeat over blocks of k rows. RZ is one
    in-place multiply of the contiguous (B/k, k, 2^t, 2, rest) view by its
    (k, 1, 2, 1) factors. On the last qubit (rest 1) that multiply's inner
    loops are two amplitudes long, so on a state of 1,024 amplitudes or
    more RZ scales the two strided half-views there instead, in longer
    loops (at k = 1, one pass against two: 1.7 against 3.1 us at (8, 2^4),
    14 against 9 us at (256, 2^4), 100 against 27 us at (128, 2^8)). RX
    and RY form c * s0 - f * s1 and g * s0 + c * s1 in the two halves of
    scratch and copy them back, which on numpy 2.4 beats updating the
    strided half-views in place. numpy's inner loops run along the last
    axis, so where the rest amplitudes below the target are fewer than the
    2^t blocks above it, RX and RY swap those two axes of their views and
    of the halves: at (100, 2^8), k = B, RX at t = 5 and 6 went from 265
    and 351 us to 165 and 181 us, against 106-164 us on the other targets
    (tools/step_timings.py). A CNOT/CZ run gathers into scratch, copies
    back and multiplies the float view by its signs, an exact negation
    where a sign is -1, unless all are +1 (no CZ): a CNOT-only step at
    (100, 2^8) took 37 us against 66. A CZ-only run keeps its gather
    through the identity: leaving it out saved about 1% of bp-scan's run
    time and raised its peak RSS by about 0.15 MB. CNOT and CZ are
    self-inverse, so a reversed run's step undoes the run.

    scratch is a flat complex array of at least state.size entries that a
    step overwrites and never reads first, so no temporary of a step grows
    with the state. numpy's ufuncs may still buffer up to np.getbufsize()
    elements per operand: an RZ step allocates at most one such buffer,
    np.getbufsize() * 16 + 4096 bytes, and other steps at most three,
    3 * np.getbufsize() * 16 + 4096 bytes, more than a small state."""
    if not isinstance(step, Gate):
        sign, source = step
        gathered = scratch[:state.size].reshape(state.shape)
        np.take(state, source, axis=1, out=gathered, mode="clip")
        state[...] = gathered
        if sign is not None:
            real = state.view(float)
            np.multiply(real, sign, out=real)
        return
    factors = table[step.kind, step.param_slot, step.feature_slot]
    rz = step.kind == RZ
    s = state.reshape(-1, len(factors if rz else factors[0]),
                      1 << step.target, 2, state.shape[1] >> (step.target + 1))
    # on the last qubit one pass runs inner loops two amplitudes long, which
    # outweigh a second call from about 1,024 amplitudes on
    if rz and (s.shape[-1] > 1 or state.size < 1024):
        np.multiply(s, factors, out=s)
        return
    s0 = s[..., 0, :]
    s1 = s[..., 1, :]
    if rz:
        s0 *= factors[..., 0, :]
        s1 *= factors[..., 1, :]
        return
    if s0.shape[-1] < s0.shape[-2]:
        s0, s1 = s0.swapaxes(-1, -2), s1.swapaxes(-1, -2)
    c, f, g = factors
    half = state.size >> 1
    a = scratch[:half].reshape(s0.shape)
    b = scratch[half:state.size].reshape(s0.shape)
    np.multiply(c, s0, a)
    np.multiply(f, s1, b)
    a -= b
    np.multiply(g, s0, b)
    s0[...] = a
    np.multiply(c, s1, a)
    b += a
    s1[...] = b


def fixed_prefix(gates: tuple, num_qubits: int) -> tuple[int, np.ndarray]:
    """(m, row): the count m of a sequence's leading gates that read no
    theta or feature slot, and the read-only (1, 2^n) state they make from
    |0...0>, built once per (prefix, n); an empty prefix gives |0...0>."""
    m = next((k for k, gate in enumerate(gates)
              if gate.kind in ROTATION_KINDS), len(gates))
    return m, _prefix_row(gates[:m], num_qubits)


@functools.lru_cache(maxsize=None)
def _prefix_row(prefix: tuple, num_qubits: int) -> np.ndarray:
    row = _forward(prefix, num_qubits, None, state=zero_state(num_qubits, 1))
    row.flags.writeable = False
    return row


def _forward(gates, num_qubits: int, thetas: np.ndarray,
             features: np.ndarray | None = None,
             state: np.ndarray | None = None, read=None) -> np.ndarray:
    """The forward engine: run a gate sequence on a batch of unit rows and
    return the (B, 2^n) result.

    The start is a copy of fixed_prefix's row, and the walk runs the gates
    after it, for each of the max(k, k') rows of the (k, p) thetas and
    (k', f) features, or the given C-contiguous (B, 2^n) state batch,
    which is run in place; row r turns by angle row r % k and
    feature row r % k', as angle_table says. read(gate, state), when
    given, is called right after each theta rotation, on the state the
    gate has just made. The engine builds the one angle_table and the one
    scratch buffer of the run, walks the sequence's gate_plan, and raises
    FloatingPointError unless every result row has unit norm (a NaN angle
    fails). It does not re-validate slot coverage, so it also works on
    truncated gate lists.
    """
    if state is None:
        skip, row = fixed_prefix(gates, num_qubits)
        gates = gates[skip:]
        state = np.repeat(row, max(
            len(thetas), 0 if features is None else len(features)), axis=0)
    table = angle_table(gates, thetas, features)
    scratch = np.empty(state.size, dtype=complex)
    for step in gate_plan(gates, num_qubits):
        apply_gate(state, step, table, scratch)
        if read and isinstance(step, Gate) and step.param_slot is not None:
            read(step, state)
    check_normalized(state)
    return state


def run_gates(gates, num_qubits: int, thetas: np.ndarray,
              features: np.ndarray | None = None) -> np.ndarray:
    """Apply a gate sequence to |0...0> for a (B, p) batch of parameter
    rows; returns the (B, 2^n) batch, norm-checked by _forward."""
    return _forward(gates, num_qubits, thetas, features)


def check_normalized(states: np.ndarray) -> None:
    """Raise FloatingPointError unless every row of a (B, 2^n) batch has
    unit norm within 1e-10; a NaN amplitude fails. Allocates (B,) arrays."""
    norms = np.sqrt(np.vecdot(states, states).real)
    if not np.max(np.abs(norms - 1.0)) <= 1e-10:
        raise FloatingPointError("statevector norm is NaN or drifted beyond 1e-10")


def _batch_of(values, width: int, name: str = "theta",
              single: bool = False) -> tuple[np.ndarray, bool]:
    """(rows, batched): a (width,) vector as a (1, width) batch, or a
    (B, width) stack with B >= 1 as it is; batched tells which was given.
    With single, only a (width,) vector is accepted. The one batch rule."""
    rows = np.asarray(values, dtype=float)
    if rows.shape == (width,):
        return rows[None, :], False
    if single or rows.ndim != 2 or rows.shape[1] != width or not len(rows):
        raise ValueError(f"{name} must have shape ({width},)" + (
            "" if single else f" or (B, {width}) with B >= 1"))
    return rows, True


def _features_of(circuit: Circuit, features, single: bool = False
                 ) -> tuple[np.ndarray, bool]:
    """(rows, batched) for a circuit's feature angles by the _batch_of rule,
    or a (1, 0) row for a circuit without embedding slots. The one rule."""
    if not circuit.num_features:
        if features is not None and np.asarray(features).size:
            raise ValueError("circuit has no embedding slots")
        return np.zeros((1, 0)), False
    if features is None:
        raise ValueError("circuit has embedding slots; features required")
    return _batch_of(features, circuit.num_features, "features", single)


def apply_circuit(circuit: Circuit, theta, features=None) -> np.ndarray:
    """Run the circuit from |0...0>; returns amplitudes (or a batch of them).

    theta may be shape (p,) or (B, p). Circuits with embedding slots require
    a features argument of shape (f,) or (B, f).
    """
    thetas, batched_t = _batch_of(theta, circuit.num_params)
    feats, batched_f = _features_of(circuit, features)
    batch = max(thetas.shape[0], feats.shape[0])
    if thetas.shape[0] not in (1, batch) or feats.shape[0] not in (1, batch):
        raise ValueError("theta and features batch sizes are incompatible")
    state = run_gates(circuit.gates, circuit.num_qubits, thetas, feats)
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
