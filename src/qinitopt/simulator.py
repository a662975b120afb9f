"""Dense statevector simulation of parameterized circuits.

Convention: qubit 0 is the most significant bit of the amplitude index,
so |q0 q1 ... q_{n-1}> lives at index int("q0q1...", 2). Rotations are
applied by strided amplitude updates, CNOTs and CZs by gathers and sign
flips; no 2^n x 2^n matrices are ever built. Every parameterized gate is
a one-angle Pauli rotation exp(-i a P / 2), so Rot(a, b, c) is written as
RZ(a), RY(b), RZ(c). All state-producing functions take and return
batches, which keeps parameter-shift sweeps cheap.

A gate on a few rows of 16 amplitudes costs mostly numpy call overhead,
and a run replays one frozen gate sequence hundreds of times, so each gate
tuple is compiled once (compiled): its plan, in which a run of CNOTs and
CZs is one step, and its angle layout, one group per rotation kind and
angle source. A run's angle_table only gathers each group's columns and
takes their trig into one stacked factor array, which a step indexes. A
kernel makes only the calls that move amplitudes, and each amplitude
keeps the bits that per-gate trig and gates applied one by one give it.
A step's temporaries go into one scratch buffer (scratch_for) that the
walk allocates once: per-gate temporaries on the wide sweep batches made
glibc map and unmap memory on every gate.

Every forward run goes through one engine, _forward, which owns the
run's table, scratch and norm check; run_gates is the engine from |0...0>,
and only the two sweeps in differentiation walk compiled plans of their
own. A walk from |0...0> starts from copies of the compiled row, the state
after the leading slot-free gates (the two-design's RY wall), which act on
each row alone, so a copy has the bits they give.

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
_FIXED = np.full((1, 1), FIXED_RY_ANGLE)  # the fixed group's angle source

PAIR_FORM_AMPLITUDES = 512  # RX and RY take the pair form up to this


def scratch_for(size: int) -> np.ndarray:
    """apply_gate's scratch for any row prefix of a size-amplitude state."""
    return np.empty(size + min(size, PAIR_FORM_AMPLITUDES), dtype=complex)


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
        for g in self.gates:
            qubits = (g.target,) if g.control is None else (g.target, g.control)
            for q in qubits:
                if not 0 <= q < self.num_qubits:
                    raise ValueError(f"qubit index {q} out of range")
        seen = sorted(g.param_slot for g in self.gates
                      if g.param_slot is not None)
        feat = sorted(g.feature_slot for g in self.gates
                      if g.feature_slot is not None)
        if seen != list(range(self.num_params)):
            raise ValueError("theta slots must cover [0, num_params) exactly once")
        if feat != list(range(len(feat))):
            raise ValueError("feature slots must cover [0, num_features) exactly once")
        if feat != list(self.embedding_slots):
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


def angle_table(groups, thetas: np.ndarray, features: np.ndarray | None = None,
                inverse: bool = False) -> list:
    """The half-angle factors of a compiled sequence's rotations for one
    run: one stacked array per group (kind, source, columns) of groups,
    two for rx and ry, from the (k, p) thetas (source 0), the (k', f)
    features (1) or the fixed angle (2, k = 1); state row r turns by angle
    row r % k. With h = a / 2, or -a / 2 inverse, entry i of an rz group's
    (m, k, 1, 2, 1) array is column i's [exp(-ih), exp(ih)], which
    broadcasts over a state view split at the gate's qubit. An rx or ry
    group stores each column's [f, c, g], c = cos h, f = g = sin h (rx:
    f = i sin h, g = -i sin h): entry i of its (m, 2, 1, k, 1, 2, 1) view
    is the matrix [[c, f], [g, c]], whose [j, 0, r, 0, i', 0] takes half j
    to half i', and [:, i] of its (3, m, 1, k, 1, 1) view is [f, c, g]."""
    table = []
    for kind, source, columns in groups:
        angles = np.asarray((thetas, features, _FIXED)[source], dtype=float)
        half = (-angles[:, columns] if inverse else angles[:, columns]) / 2.0
        if kind == RZ:
            # the bits of exp(-1j * h) and exp(1j * h), from real trig:
            # + 0.0 turns sin(-0.0) into the +0 that exp(1j * -0.0) has
            sn = np.sin(half).T
            factors = np.empty(sn.shape + (1, 2, 1), dtype=complex)
            pair = factors[:, :, 0, :, 0]
            pair.real = np.cos(half).T[..., None]
            pair.imag[..., 0] = -sn
            pair.imag[..., 1] = sn + 0.0
            table.append(factors)
            continue
        fcg = np.empty(half.shape[::-1] + (3,), dtype=complex)
        f, c, g = fcg.T
        c[...] = np.cos(half)
        sn = np.sin(half)
        f[...], g[...] = (1j * sn, -1j * sn) if kind == RX else (sn, sn)
        step = fcg.itemsize
        table += (np.ndarray((len(columns), 2, 1, len(half), 1, 2, 1),
                             complex, fcg, step, (fcg.strides[0], -step, 0,
                                                  fcg.strides[1], 0, step, 0)),
                  fcg.transpose(2, 0, 1)[:, :, None, :, None, None])
    return table


@functools.lru_cache(maxsize=None)
def _run_step(run: tuple, num_qubits: int) -> tuple:
    """The plan step (None, sign, source) of a CNOT/CZ run, psi to
    sign * psi[source], sign a read-only ±1 vector over the float view or
    None if all are +1; built once per run, which plans then share."""
    index = np.arange(1 << num_qubits)
    source, sign = index, np.ones(len(index))
    for gate in run:
        c_on = index >> (num_qubits - 1 - gate.control) & 1
        t_bit = 1 << (num_qubits - 1 - gate.target)
        if gate.kind == CNOT:
            flip = index ^ c_on * t_bit
            source, sign = source[flip], sign[flip]
        else:
            sign = np.where(c_on * (index & t_bit), -sign, sign)
    sign = np.repeat(sign, 2)
    sign.flags.writeable = source.flags.writeable = False
    return None, None if (sign > 0).all() else sign, source


def _plan(gates: tuple, num_qubits: int, places: dict | None = None):
    """(steps, groups) of a gate sequence: a rotation is the step
    (gate, at, i), whose factors are entry i of table[at] of an
    angle_table over groups, and a maximal CNOT/CZ run is its _run_step.
    Plans given one places, {(kind, source): (at, {column: i})}, share it."""
    places = {} if places is None else places
    steps = []
    for fused, run in itertools.groupby(
            gates, lambda gate: gate.kind in (CNOT, CZ)):
        if fused:
            steps.append(_run_step(tuple(run), num_qubits))
            continue
        for gate in run:
            source, column = ((0, gate.param_slot) if gate.param_slot is not None
                              else (2, 0) if gate.kind == FIXED_RY
                              else (1, gate.feature_slot))
            at, columns = places.setdefault(
                (RY if gate.kind == FIXED_RY else gate.kind, source),
                (sum(2 - (k == RZ) for k, _ in places), {}))
            steps.append((gate, at, columns.setdefault(column, len(columns))))
    return steps, tuple((kind, source, np.array(list(columns), dtype=int))
                        for (kind, source), (_, columns) in places.items())


class Compiled:
    """What every run of a gate tuple needs that depends only on its gates.
    skip counts the leading gates that read no slot, whose plan (prefix)
    and constant table (fixed) make the read-only (1, 2^n) row from
    |0...0>; steps and groups are the _plan of the rest, places its
    layout, first the first theta gate's index (len(gates) if none), split
    the shared tuples before and from it, and memo the sweeps' tables.
    Step counts are static: rows x steps x 2^n is a run's work."""

    def __init__(self, gates: tuple, num_qubits: int):
        self.gates = gates  # held, so that its id names it while cached
        self.skip = next((k for k, gate in enumerate(gates)
                          if gate.kind in ROTATION_KINDS), len(gates))
        self.first = next((k for k, gate in enumerate(gates)
                           if gate.param_slot is not None), len(gates))
        self.prefix, fixed = _plan(gates[:self.skip], num_qubits)
        self.fixed, self.row = angle_table(fixed, None), zero_state(num_qubits, 1)
        for step in self.prefix:
            apply_gate(self.row, step, self.fixed, scratch_for(self.row.size))
        self.row.flags.writeable = False
        self.places, self.memo = {}, {}
        self.steps, self.groups = _plan(gates[self.skip:], num_qubits,
                                        self.places)
        self.split = gates[:self.first], gates[self.first:]


_COMPILED: dict = {}


def compiled(gates: tuple, num_qubits: int) -> Compiled:
    """A gate tuple's Compiled form, built on its first run and found by the
    tuple's identity, which the cache keeps alive: no lookup hashes a gate."""
    key = id(gates), num_qubits
    if key not in _COMPILED:
        _COMPILED[key] = Compiled(gates, num_qubits)
    return _COMPILED[key]


def apply_gate(state: np.ndarray, step, table: list,
               scratch: np.ndarray) -> None:
    """Apply one plan step in place to a C-contiguous (B, 2^n) state batch.

    A rotation step (gate, at, i) takes entry i of table[at], an
    angle_table over its plan's groups (inverse=True applies the inverse
    gate), whose factors repeat over blocks of k rows. RZ is one in-place
    multiply of the (B/k, k, 2^t, 2, rest) view by its (k, 1, 2, 1)
    factors, or on the last qubit (rest 1) of 1,024 amplitudes or more two
    multiplies of the strided half-views, whose loops are longer (27
    against 100 us at (128, 2^8)). RX and RY form c * s0 - f * s1 and
    g * s0 + c * s1: up to PAIR_FORM_AMPLITUDES in three calls, the matrix
    times the pair view into scratch, an exact negation of f * s1 (a
    stored -f flips the sign of some zeros) and one add (5.7 against 9.2 us
    at (4, 2^4)); above it in eight calls on c, f and g, read directly off
    table[at + 1], into scratch and back, not in place (165 against 265 us
    at (100, 2^8), t = 5), along the longer of the 2^t blocks above the
    target and the amplitudes below it. A run's step (None, sign, source)
    gathers into scratch, copies back and multiplies the float view by its
    signs, an exact negation where a sign is -1, unless all are +1 (37
    against 66 us at (100, 2^8)); a CZ-only run keeps its identity gather,
    whose removal cost 0.15 MB of peak RSS. CNOT and CZ are self-inverse,
    so a reversed run undoes a run (times: tools/step_timings.py).

    scratch is a flat complex array of at least scratch_for(size).size
    entries, size the widest state of the walk, whose row prefixes a step
    may take; a step overwrites it and never reads it first. numpy's
    ufuncs may still buffer up to np.getbufsize() elements per operand: an
    RZ step allocates at most one such buffer, np.getbufsize() * 16 + 4096
    bytes, and other steps at most three."""
    gate, at, i = step
    if gate is None:  # at holds the run's signs and i its source
        gathered = scratch[:state.size].reshape(state.shape)
        np.take(state, i, axis=1, out=gathered, mode="clip")
        state[...] = gathered
        if at is not None:
            real = state.view(float)
            np.multiply(real, at, out=real)
        return
    factors = table[at][i]
    rz = gate.kind == RZ
    s = state.reshape(-1, factors.shape[-4], 1 << gate.target, 2,
                      state.shape[1] >> (gate.target + 1))
    # on the last qubit one pass runs inner loops two amplitudes long, which
    # outweigh a second call from about 1,024 amplitudes on
    if rz and (s.shape[-1] > 1 or state.size < 1024):
        np.multiply(s, factors, out=s)
        return
    if not rz and state.size <= PAIR_FORM_AMPLITUDES:
        terms = scratch[:2 * state.size].reshape((2,) + s.shape)
        np.multiply(factors, s.transpose(3, 0, 1, 2, 4)[..., None, :], terms)
        fs1 = terms[1, ..., 0, :]
        np.negative(fs1, out=fs1)
        np.add(terms[0], terms[1], out=s)
        return
    s0 = s[..., 0, :]
    s1 = s[..., 1, :]
    if rz:
        s0 *= factors[..., 0, :]
        s1 *= factors[..., 1, :]
        return
    if s0.shape[-1] < s0.shape[-2]:
        s0, s1 = s0.swapaxes(-1, -2), s1.swapaxes(-1, -2)
    fcg = table[at + 1]
    f, c, g = fcg[0, i], fcg[1, i], fcg[2, i]
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


def _forward(gates, num_qubits: int, thetas: np.ndarray,
             features: np.ndarray | None = None,
             state: np.ndarray | None = None, read=None) -> np.ndarray:
    """The forward engine: run a gate tuple on a batch of unit rows and
    return the (B, 2^n) result. The start is max(k, k') copies of the
    compiled row, for the (k, p) thetas and (k', f) features (row r turns
    by angle row r % k and feature row r % k'), or the given C-contiguous
    (B, 2^n) state batch, run in place from the first gate. read(gate,
    state), if given, sees the state right after each theta rotation. It
    walks the compiled plan with the run's angle_table and scratch, and
    raises FloatingPointError unless every result row has unit norm (a
    NaN angle fails); slot coverage is not re-validated."""
    plan = compiled(gates, num_qubits)
    state, prefix = (np.repeat(plan.row, max(
        len(thetas), 0 if features is None else len(features)), axis=0), ()
    ) if state is None else (state, plan.prefix)
    scratch = scratch_for(state.size)
    for step in prefix:
        apply_gate(state, step, plan.fixed, scratch)
    table = angle_table(plan.groups, thetas, features)
    for step in plan.steps:
        apply_gate(state, step, table, scratch)
        if read and step[0] is not None and step[0].param_slot is not None:
            read(step[0], state)
    check_normalized(state)
    return state


def run_gates(gates, num_qubits: int, thetas: np.ndarray,
              features: np.ndarray | None = None) -> np.ndarray:
    """Apply a gate tuple to |0...0> for a (B, p) batch of parameter
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
    return state if batched_t or batched_f else state[0]


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
