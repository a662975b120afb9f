"""Differentiation checked against finite differences and numpy's eigensolver."""
import math
import re
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
import numpy as np
import pytest

from qinitopt import differentiation
from qinitopt.differentiation import (EXACT_QFIM_MAX_PARAMS, SHIFT,
                                      adjoint_gradient, gradient,
                                      hermitian_eigenvalues,
                                      observable_gradient,
                                      observable_value_and_gradient,
                                      pauli_sum_gradients, qfim,
                                      qfim_and_observable_gradient,
                                      qfim_block_diagonal, qfim_empirical,
                                      qfim_exact, qfim_fidelity, qfim_trace,
                                      qfims_from_states, sweep_batch_size)
from qinitopt.scoring import score
from qinitopt.simulator import (CNOT, CZ, FIXED_RY, GATE_KINDS,
                                ROTATION_KINDS, Circuit, Gate, Layer,
                                Observable, RX, RY, RZ, _features_of,
                                apply_circuit, build_hea,
                                build_strongly_entangling, build_two_design,
                                embed_angles, expectation)


def expectation_cost(circuit, obs):
    return lambda rows: expectation(apply_circuit(circuit, rows), obs)


def finite_difference_gradient(cost_fn, theta, h=1e-6):
    grad = np.zeros(len(theta))
    for mu in range(len(theta)):
        up = theta.copy()
        up[mu] += h
        down = theta.copy()
        down[mu] -= h
        grad[mu] = (cost_fn(up[None, :])[0] - cost_fn(down[None, :])[0]) / (2 * h)
    return grad


def finite_difference_qfim(circuit, theta, h=1e-5):
    """-2x the Hessian of the fidelity |<psi(theta)|psi(t)>|^2 at t = theta."""
    base = apply_circuit(circuit, theta)

    def fidelity(t):
        return abs(np.vdot(base, apply_circuit(circuit, t))) ** 2

    p = len(theta)
    fisher = np.zeros((p, p))
    for i in range(p):
        for j in range(i, p):
            if i == j:
                up = theta.copy(); up[i] += 2 * h
                down = theta.copy(); down[i] -= 2 * h
                d2 = (fidelity(up) - 2 * fidelity(theta) + fidelity(down)) / (4 * h * h)
            else:
                pp = theta.copy(); pp[i] += h; pp[j] += h
                pm = theta.copy(); pm[i] += h; pm[j] -= h
                mp = theta.copy(); mp[i] -= h; mp[j] += h
                mm = theta.copy(); mm[i] -= h; mm[j] -= h
                d2 = (fidelity(pp) - fidelity(pm) - fidelity(mp) + fidelity(mm)) / (4 * h * h)
            fisher[i, j] = fisher[j, i] = -2 * d2
    return fisher


def test_gradient_single_ry_closed_form():
    circ = Circuit(1, (Gate(RY, target=0, param_slot=0),), 1)
    cost = expectation_cost(circ, Observable(terms=((1.0, "Z"),)))
    for theta in (0.0, 0.4, -1.3, 2.9):
        grad = gradient(circ, np.array([theta]), cost)
        assert abs(grad[0] + math.sin(theta)) < 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    obs = Observable(terms=((0.5, "ZII"), (0.5, "IZI"), (0.25, "XXI"), (0.3, "IYZ")))
    for builder in (lambda: build_strongly_entangling(2, 3),
                    lambda: build_hea(2, 3),
                    lambda: build_two_design(2, 3, seed=1)):
        circ = builder()
        cost = expectation_cost(circ, obs)
        theta = rng.uniform(0, 2 * math.pi, circ.num_params)
        got = gradient(circ, theta, cost)
        want = finite_difference_gradient(cost, theta)
        assert np.max(np.abs(got - want)) < 1e-8


def test_adjoint_matches_shift_on_diagonal_observables():
    rng = np.random.default_rng(22)
    for circ in (build_strongly_entangling(2, 3), build_hea(2, 3),
                 build_two_design(3, 3, seed=4)):
        theta = rng.uniform(0, 2 * math.pi, circ.num_params)
        diagonal = rng.standard_normal((1, 8))
        states = apply_circuit(circ, theta[None, :])
        got = adjoint_gradient(circ, theta, states, diagonal * states)
        want = gradient(circ, theta, lambda rows: (
            np.abs(apply_circuit(circ, rows)) ** 2) @ diagonal[0])
        assert np.max(np.abs(got - want)) < 1e-10


def test_gradient_shape_errors():
    circ = build_hea(1, 2)
    cost = expectation_cost(circ, Observable(terms=((1.0, "ZI"),)))
    with pytest.raises(ValueError):
        gradient(circ, np.zeros(3), cost)


def test_qfim_single_ry_is_one():
    circ = Circuit(1, (Gate(RY, target=0, param_slot=0),), 1)
    fisher = qfim_exact(circ, [0.7])
    assert fisher.shape == (1, 1)
    assert abs(fisher[0, 0] - 1.0) < 1e-12


def test_qfim_phase_direction_is_flat():
    # RZ on |0> changes only the global phase, so that direction carries
    # zero Fisher information
    circ = Circuit(1, (Gate(RZ, target=0, param_slot=0),
                       Gate(RY, target=0, param_slot=1)), 2)
    fisher = qfim_exact(circ, [0.9, 0.4])
    assert abs(fisher[0, 0]) < 1e-12
    assert abs(fisher[0, 1]) < 1e-12


def test_qfim_exact_matches_finite_differences():
    rng = np.random.default_rng(22)
    for circ in (build_strongly_entangling(2, 3), build_hea(2, 3),
                 build_two_design(3, 3, seed=4)):
        theta = rng.uniform(0, 2 * math.pi, circ.num_params)
        got = qfim_exact(circ, theta)
        want = finite_difference_qfim(circ, theta)
        assert np.max(np.abs(got - want)) < 1e-4


def test_qfim_symmetric_and_psd():
    rng = np.random.default_rng(23)
    for _ in range(5):
        circ = build_hea(3, 3)
        theta = rng.uniform(0, 2 * math.pi, circ.num_params)
        fisher = qfim_exact(circ, theta)
        assert np.array_equal(fisher, fisher.T)
        assert np.min(np.linalg.eigvalsh(fisher)) > -1e-8


def test_qfim_exact_size_cap():
    circ = build_strongly_entangling(8, 3)  # 72 parameters
    assert circ.num_params > EXACT_QFIM_MAX_PARAMS
    with pytest.raises(ValueError):
        qfim_exact(circ, np.zeros(circ.num_params))


def test_block_diagonal_blocks_and_zeros():
    rng = np.random.default_rng(24)
    circ = build_strongly_entangling(3, 3)
    theta = rng.uniform(0, 2 * math.pi, circ.num_params)
    blocked = qfim_block_diagonal(circ, theta)
    mask = np.zeros_like(blocked, dtype=bool)
    for tag in circ.layers:
        mask[tag.param_start:tag.param_stop, tag.param_start:tag.param_stop] = True
    assert np.all(blocked[~mask] == 0.0)
    # each block is the exact QFIM of the circuit truncated after its layer
    for k, tag in enumerate(circ.layers):
        trunc = Circuit(circ.num_qubits, circ.gates[:tag.gate_stop],
                        tag.param_stop)
        sub = qfim_exact(trunc, theta[:tag.param_stop])
        sl = slice(tag.param_start, tag.param_stop)
        assert np.allclose(blocked[sl, sl], sub[sl, sl], atol=1e-12)


def test_block_diagonal_single_layer_equals_exact():
    rng = np.random.default_rng(25)
    circ = build_hea(1, 3)
    theta = rng.uniform(0, 2 * math.pi, circ.num_params)
    assert np.array_equal(qfim_block_diagonal(circ, theta),
                          qfim_exact(circ, theta))


def test_block_diagonal_requires_tags():
    plain = Circuit(1, (Gate(RY, target=0, param_slot=0),), 1)
    with pytest.raises(ValueError):
        qfim_block_diagonal(plain, [0.3])


ANGLES = st.floats(-2 * math.pi, 2 * math.pi)


@st.composite
def tagged_circuits(draw, min_layers=1):
    """A circuit from one of the three builders at random size, with an
    angle-embedding prelude on a random number of qubits."""
    qubits = draw(st.integers(2, 4))
    layers = draw(st.integers(min_layers, 3))
    builder = draw(st.sampled_from(("strongly_entangling", "hea", "two_design")))
    if builder == "strongly_entangling":
        circ = build_strongly_entangling(layers, qubits)
    elif builder == "hea":
        circ = build_hea(layers, qubits)
    else:
        circ = build_two_design(layers, qubits, seed=draw(st.integers(0, 99)))
    n_features = draw(st.integers(0, qubits))
    return embed_angles(circ, n_features) if n_features else circ


@given(st.data())
def test_block_diagonal_equals_truncated_exact(data):
    circ = data.draw(tagged_circuits())
    p, f = circ.num_params, circ.num_features
    theta = np.array(data.draw(st.lists(ANGLES, min_size=p, max_size=p)))
    features = (np.array(data.draw(st.lists(ANGLES, min_size=f, max_size=f)))
                if f else None)
    blocked = qfim_block_diagonal(circ, theta, features)
    mask = np.zeros((p, p), dtype=bool)
    for tag in circ.layers:
        trunc = Circuit(circ.num_qubits, circ.gates[:tag.gate_stop],
                        tag.param_stop, embedding_slots=circ.embedding_slots)
        sub = qfim_exact(trunc, theta[:tag.param_stop], features)
        sl = slice(tag.param_start, tag.param_stop)
        np.testing.assert_allclose(blocked[sl, sl], sub[sl, sl],
                                   rtol=0, atol=1e-12)
        mask[sl, sl] = True
    assert np.all(blocked[~mask] == 0.0)


@given(tagged_circuits(min_layers=2), st.data())
def test_block_diagonal_rejects_tags_out_of_circuit_order(circ, data):
    tags = list(circ.layers)
    if data.draw(st.booleans()):
        tags.reverse()
    else:
        # layer j's tag names layer i's slots, which gates before its
        # segment read
        i, j = sorted(data.draw(st.lists(
            st.integers(0, len(tags) - 1), min_size=2, max_size=2,
            unique=True)))
        a, b = tags[i], tags[j]
        tags[i] = Layer(a.gate_stop, b.param_start, b.param_stop)
        tags[j] = Layer(b.gate_stop, a.param_start, a.param_stop)
    # Circuit checks its tags when built, so no block-diagonal QFIM can be
    # asked of a circuit tagged out of order
    with pytest.raises(ValueError, match=r"layer tag \d+: "):
        Circuit(circ.num_qubits, circ.gates, circ.num_params,
                embedding_slots=circ.embedding_slots, layers=tuple(tags))


FEATURE_ENTRY_POINTS = {
    "qfim_trace": qfim_trace,
    "qfim": qfim,
    "observable_gradient": lambda circ, theta, features: observable_gradient(
        circ, theta, Observable(((1.0, "ZII"),)), features),
    "qfim_and_observable_gradient":
        lambda circ, theta, features: qfim_and_observable_gradient(
            circ, theta, Observable(((1.0, "ZII"),)), features),
}


@pytest.mark.parametrize("entry", sorted(FEATURE_ENTRY_POINTS))
def test_entry_points_take_features_by_the_simulator_rule(entry):
    """Every sweep entry point checks its features by apply_circuit's rule,
    for the one (f,) row all its thetas share: a (3, 1) array is not three
    features, and a circuit without embedding slots takes none."""
    call = FEATURE_ENTRY_POINTS[entry]
    embedded = embed_angles(build_hea(1, 3), 3)
    theta = np.zeros(embedded.num_params)
    shape = re.escape("features must have shape (3,)")
    with pytest.raises(ValueError, match=shape):
        apply_circuit(embedded, theta, np.zeros((3, 1)))
    with pytest.raises(ValueError, match=shape):
        call(embedded, theta, np.zeros((3, 1)))
    with pytest.raises(ValueError, match="features required"):
        call(embedded, theta, None)
    call(embedded, theta, np.zeros(3))
    plain = build_hea(1, 3)
    with pytest.raises(ValueError, match="circuit has no embedding slots"):
        call(plain, theta, np.zeros(3))
    call(plain, theta, None)


# stands for back-to-back rotations on one qubit, as in Rot(a, b, c)
ZYZ = "zyz"
ZYZ_AXES = (RZ, RY, RZ)


@st.composite
def random_circuits(draw):
    """Every gate kind and an RZ-RY-RZ triple on one qubit at least once in
    random order on 2-4 qubits, theta slots permuted, and 0-2 feature
    rotations: feature 0 first, feature 1 at a random position."""
    qubits = draw(st.integers(2, 4))
    pool = GATE_KINDS + (ZYZ,)
    kinds = draw(st.permutations(
        pool + tuple(draw(st.lists(st.sampled_from(pool), max_size=6)))))
    n_features = draw(st.integers(0, 2))
    gates = []
    slot = 0
    for kind in kinds:
        target = draw(st.integers(0, qubits - 1))
        if kind in (CNOT, CZ):
            control = draw(st.integers(0, qubits - 2))
            gates.append(Gate(kind, target, control + (control >= target)))
        elif kind == FIXED_RY:
            gates.append(Gate(kind, target))
        else:
            for axis in ZYZ_AXES if kind == ZYZ else (kind,):
                gates.append(Gate(axis, target, param_slot=slot))
                slot += 1
    order = draw(st.permutations(range(slot)))
    gates = [Gate(g.kind, g.target, g.control,
                  None if g.param_slot is None else order[g.param_slot])
             for g in gates]
    for j in range(n_features):
        position = 0 if j == 0 else draw(st.integers(0, len(gates)))
        gates.insert(position, Gate(draw(st.sampled_from(ROTATION_KINDS)),
                                    j, feature_slot=j))
    return Circuit(qubits, tuple(gates), slot,
                   embedding_slots=tuple(range(n_features)))


def draw_point(data, circ):
    """(theta, features or None) for a circuit, angles from ANGLES."""
    p, f = circ.num_params, circ.num_features
    theta = np.array(data.draw(st.lists(ANGLES, min_size=p, max_size=p)))
    features = (np.array(data.draw(st.lists(ANGLES, min_size=f, max_size=f)))
                if f else None)
    return theta, features


def swept_states(circ, thetas, features=None):
    """(psi, dpsi): the (B, 2^n) states of a (B, p) stack and their
    (B, p, 2^n) derivatives d_mu psi, slot mu in row mu, from one
    _derivative_sweep closed after the last gate."""
    feats = _features_of(circ, features, single=True)[0]
    psi, rows, slots = next(differentiation._derivative_sweep(
        circ, thetas, feats, (len(circ.gates),)))
    dpsi = np.empty((len(thetas), circ.num_params, psi.shape[1]),
                    dtype=complex)
    dpsi[:, slots] = rows.transpose(1, 0, 2)
    return psi, dpsi


def shifted_state_derivatives(circ, theta, features):
    """d_mu psi as the statewise central difference of pi/2-shifted states,
    (psi(theta + s e_mu) - psi(theta - s e_mu)) / (4 sin(s / 2))."""
    p = circ.num_params
    rows = np.repeat(theta[None, :], 2 * p, axis=0)
    rows[np.arange(p), np.arange(p)] += SHIFT
    rows[p + np.arange(p), np.arange(p)] -= SHIFT
    states = apply_circuit(circ, rows, features)
    return (states[:p] - states[p:]) / (4.0 * math.sin(SHIFT / 2.0))


@given(st.one_of(random_circuits(), tagged_circuits()), st.data())
def test_state_derivatives_match_shifted_states(circ, data):
    theta, features = draw_point(data, circ)
    (psi,), (dpsi,) = swept_states(circ, theta[None, :], features)
    np.testing.assert_allclose(psi, apply_circuit(circ, theta, features),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        dpsi, shifted_state_derivatives(circ, theta, features),
        rtol=0, atol=1e-12)


@st.composite
def pauli_sums(draw, qubits):
    """1-4 random terms plus one word with an odd number of Ys, whose
    matrix is not real."""
    words = draw(st.lists(st.text("IXYZ", min_size=qubits, max_size=qubits),
                          min_size=1, max_size=4))
    odd_y = list(draw(st.text("IXZ", min_size=qubits, max_size=qubits)))
    odd_y[draw(st.integers(0, qubits - 1))] = "Y"
    coeffs = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(words) + 1,
                           max_size=len(words) + 1))
    return Observable(tuple(zip(coeffs, words + ["".join(odd_y)])))


@given(st.one_of(random_circuits(), tagged_circuits()), st.data())
def test_observable_gradient_matches_parameter_shift(circ, data):
    """The adjoint Pauli-sum gradient against parameter shift; each row of
    a batch keeps the bits of its own call, and the value keeps those of
    expectation on apply_circuit's state, as VqeTask.cost_value reads it."""
    theta, features = draw_point(data, circ)
    obs = data.draw(pauli_sums(circ.num_qubits))
    value, got = observable_value_and_gradient(circ, theta, obs, features)
    want = gradient(circ, theta, lambda rows: expectation(
        apply_circuit(circ, rows, features), obs))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    assert value == expectation(apply_circuit(circ, theta, features), obs)
    np.testing.assert_array_equal(
        observable_gradient(circ, theta, obs, features), got)
    rows = data.draw(st.integers(2, 4))
    thetas = np.array(data.draw(st.lists(
        st.lists(ANGLES, min_size=len(theta), max_size=len(theta)),
        min_size=rows, max_size=rows)))
    values, grads = observable_value_and_gradient(circ, thetas, obs,
                                                  features)
    for b, row in enumerate(thetas):
        one_value, one_grad = observable_value_and_gradient(circ, row, obs,
                                                            features)
        assert values[b] == one_value
        np.testing.assert_array_equal(grads[b], one_grad)
    thetas[data.draw(st.integers(0, rows - 1)),
           data.draw(st.integers(0, len(theta) - 1))] = math.nan
    with pytest.raises(FloatingPointError):
        observable_value_and_gradient(circ, thetas, obs, features)


def test_observable_gradient_through_reuploaded_features():
    """Feature gates after theta gates are undone by the backward sweep
    with the feature angles."""
    rng = np.random.default_rng(23)
    gates = (Gate(RY, 0, feature_slot=0), Gate(RZ, 0, param_slot=0),
             Gate(RX, 1, param_slot=1), Gate(CNOT, 1, 0),
             Gate(RX, 0, feature_slot=1), Gate(RY, 1, param_slot=2),
             Gate(CZ, 0, 1), Gate(RY, 1, feature_slot=2),
             Gate(RX, 0, param_slot=3))
    circ = Circuit(2, gates, 4, embedding_slots=(0, 1, 2))
    obs = Observable(((0.7, "ZX"), (-0.4, "YY"), (1.1, "IZ")))
    features = rng.uniform(-math.pi, math.pi, 3)
    thetas = rng.uniform(0, 2 * math.pi, (5, 4))
    grads = observable_gradient(circ, thetas, obs, features)
    for theta, got in zip(thetas, grads):
        want = gradient(circ, theta, lambda rows: expectation(
            apply_circuit(circ, rows, features), obs))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


@given(st.one_of(random_circuits(), tagged_circuits()), st.data())
def test_batched_sweep_matches_single_theta_sweeps(circ, data):
    """Each row of a batched sweep, whose theta rows repeat over the
    derivative rows in one kernel call per gate, equals its own B = 1
    sweep: the states and derivatives of a (B, p) sweep, and the (B, p)
    forms of qfim_exact and qfim_block_diagonal, against their (p,)
    calls."""
    p, f = circ.num_params, circ.num_features
    rows = data.draw(st.integers(2, 4))
    thetas = np.array(data.draw(st.lists(
        st.lists(ANGLES, min_size=p, max_size=p), min_size=rows,
        max_size=rows)))
    features = (np.array(data.draw(st.lists(ANGLES, min_size=f, max_size=f)))
                if f else None)
    obs = data.draw(pauli_sums(circ.num_qubits))
    psi, dpsi = swept_states(circ, thetas, features)
    grads = pauli_sum_gradients(psi, dpsi, obs)
    fishers = qfims_from_states(psi, dpsi)
    exact = None
    if p <= EXACT_QFIM_MAX_PARAMS:
        exact = qfim_exact(circ, thetas, features)
        assert exact.shape == (rows, p, p)
        np.testing.assert_array_equal(exact, fishers)
    blocks = None
    if circ.layers:
        blocks = qfim_block_diagonal(circ, thetas, features)
        assert blocks.shape == (rows, p, p)
    for b, theta in enumerate(thetas):
        (one_psi,), (one_dpsi,) = swept_states(circ, theta[None, :],
                                               features)
        np.testing.assert_allclose(psi[b], one_psi, rtol=0, atol=1e-14)
        np.testing.assert_allclose(dpsi[b], one_dpsi, rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            grads[b], observable_gradient(circ, theta, obs, features),
            rtol=0, atol=1e-12)
        if exact is not None:
            np.testing.assert_allclose(
                exact[b], qfim_exact(circ, theta, features),
                rtol=0, atol=1e-12)
        if blocks is not None:
            np.testing.assert_allclose(
                blocks[b],
                qfim_block_diagonal(circ, theta, features),
                rtol=0, atol=1e-12)


def test_nan_theta_raises_from_the_sweep():
    for circ in (build_hea(2, 3), build_strongly_entangling(2, 3)):
        theta = np.full(circ.num_params, 0.3)
        theta[-1] = math.nan  # read only in the last layer
        with pytest.raises(FloatingPointError):
            qfim_exact(circ, theta)
        with pytest.raises(FloatingPointError):
            qfim_block_diagonal(circ, theta)
        with pytest.raises(FloatingPointError):
            observable_gradient(circ, theta,
                                Observable(((1.0, "ZZZ"),)))


def test_qfim_trace_is_the_trace_of_the_exact_and_block_qfims(monkeypatch):
    """tr F = sum_mu (1 - <G_mu>^2) from one forward run against the traces
    of the exact and the block-diagonal QFIM, on the three builders and an
    embedded circuit with features; each row of a (B, p) stack keeps the
    bits of its theta run alone, also in chunks of two thetas, and a NaN
    row raises."""
    rng = np.random.default_rng(16)
    for circ in (build_two_design(3, 4, 2), build_strongly_entangling(2, 3),
                 build_hea(3, 3), embed_angles(build_hea(2, 3), 3)):
        f = circ.num_features
        features = rng.uniform(0, math.pi, f) if f else None
        thetas = rng.uniform(-2 * math.pi, 2 * math.pi,
                             (5, circ.num_params))
        got = qfim_trace(circ, thetas, features)
        assert got.shape == (5,)
        for build in (qfim_exact, qfim_block_diagonal):
            want = np.trace(build(circ, thetas, features),
                            axis1=1, axis2=2)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        singles = [qfim_trace(circ, theta, features) for theta in thetas]
        assert all(type(single) is float for single in singles)
        assert np.array_equal(got, singles)
        np.testing.assert_allclose(
            singles[0], np.trace(qfim_exact(circ, thetas[0],
                                            features)),
            rtol=1e-12, atol=0)
        with monkeypatch.context() as mp:
            mp.setattr(differentiation, "MAX_SWEEP_AMPLITUDES",
                       2 << circ.num_qubits)
            assert sweep_batch_size(circ, 1) == 2
            assert np.array_equal(qfim_trace(circ, thetas, features), got)
            thetas[3, -1] = math.nan
            with pytest.raises(FloatingPointError):
                qfim_trace(circ, thetas, features)


def test_qfim_trace_holds_one_generator_row_buffer():
    """The trace run's generator reads gather into their result and scale
    it in place, so one (B, 2^n) row buffer is live per read, not two: on
    32 rows of bp-scan's 8-qubit two-design the traced peak is about 4.4
    times the state stack (576 KB), and with a second row buffer it was
    5.4 times (707 KB)."""
    circ = build_two_design(3, 8, 0)
    thetas = np.random.default_rng(17).uniform(0, 2 * math.pi,
                                               (32, circ.num_params))
    stack = 32 * (2 ** 8) * 16
    qfim_trace(circ, thetas)
    tracemalloc.start()
    try:
        qfim_trace(circ, thetas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * stack, peak


def test_sweep_buffer_holds_the_largest_segment():
    """The forward sweep's buffer holds one row block more than the most
    slots a segment reads: 13 blocks for the block-diagonal sweep of the
    8-layer, 4-qubit strongly-entangling circuit (12 slots a layer), and
    p + 1 = 97 for its one-stop sweep."""
    circ = build_strongly_entangling(8, 4)
    thetas = np.random.default_rng(18).uniform(0, 2 * math.pi,
                                               (3, circ.num_params))
    for stops, height in (([tag.gate_stop for tag in circ.layers], 13),
                          ((len(circ.gates),), 97)):
        psi, _, _ = next(differentiation._derivative_sweep(
            circ, thetas, np.zeros((1, 0)), stops))
        assert psi.base.shape == (height, 3, 16)


def matmul_qfims(psi, dpsi):
    """The QFIM formula as one batched np.matmul Gram: the oracle that the
    np.vecdot reductions of qfims_from_states are checked against."""
    conj = dpsi.conj()
    overlap = conj @ dpsi.transpose(0, 2, 1)
    berry = conj @ psi[:, :, None]
    fisher = 4.0 * (overlap - berry * berry.conj().transpose(0, 2, 1)).real
    return (fisher + fisher.transpose(0, 2, 1)) / 2.0


def random_stack(rng, shape):
    """(psi, dpsi): random complex (B, 2^n) unit states and (B, m, 2^n)
    derivative rows of norm about 1."""
    def draw(size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)
    psi = draw((shape[0], shape[2]))
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    return psi, draw(shape) / math.sqrt(shape[2])


# bp-scan's 8-qubit chunk, hypopt's and vqe-h2's shapes, and edge sizes
QFIM_STACK_SHAPES = [(3, 40, 256), (81, 24, 16), (21, 12, 16), (4, 7, 8),
                     (1, 1, 2), (2, 3, 2)]


@pytest.mark.parametrize("shape", QFIM_STACK_SHAPES)
def test_qfims_from_states_match_the_matmul_oracle(shape):
    """The vecdot reductions give the matmul Gram's QFIMs within 1e-12 of
    the largest entry, exactly symmetric, and row b of a stack keeps the
    bits of its own (1, m, 2^n) call."""
    psi, dpsi = random_stack(np.random.default_rng(sum(shape)), shape)
    got = qfims_from_states(psi, dpsi)
    want = matmul_qfims(psi, dpsi)
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())
    np.testing.assert_array_equal(got, got.transpose(0, 2, 1))
    for b in range(shape[0]):
        np.testing.assert_array_equal(
            got[b], qfims_from_states(psi[b:b + 1], dpsi[b:b + 1])[0])


def test_qfims_from_states_match_the_oracle_on_bp_scan_states():
    """The same agreement on the forward sweep's own derivatives of
    bp-scan's largest circuit."""
    circ = build_two_design(5, 8, 0)
    thetas = np.random.default_rng(5).uniform(0, 2 * math.pi,
                                              (3, circ.num_params))
    psi, dpsi = swept_states(circ, thetas)
    want = matmul_qfims(psi, dpsi)
    np.testing.assert_allclose(qfims_from_states(psi, dpsi), want,
                               rtol=1e-12, atol=1e-12 * np.abs(want).max())


@given(random_circuits(), st.data())
def test_swept_pauli_sum_gradients_match_adjoint_and_shift(circ, data):
    """2 Re<H psi|d_mu psi> off the forward sweep against the adjoint pass
    and against parameter shift."""
    theta, features = draw_point(data, circ)
    obs = data.draw(pauli_sums(circ.num_qubits))
    psi, dpsi = swept_states(circ, theta[None, :], features)
    got = pauli_sum_gradients(psi, dpsi, obs)[0]
    np.testing.assert_allclose(
        got, observable_gradient(circ, theta, obs, features),
        rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        got, gradient(circ, theta, lambda rows: expectation(
            apply_circuit(circ, rows, features), obs)),
        rtol=0, atol=1e-10)


def test_nan_derivative_row_raises_from_the_swept_gradient():
    """A NaN in one derivative row reaches the swept gradients, which raise,
    and only that theta's QFIM, which the score's finiteness check sees."""
    circ = build_hea(2, 3)
    thetas = np.random.default_rng(6).uniform(0, 2 * math.pi,
                                              (3, circ.num_params))
    psi, dpsi = swept_states(circ, thetas)
    dpsi[1, 4, 2] = math.nan
    with pytest.raises(FloatingPointError):
        pauli_sum_gradients(psi, dpsi, Observable(((1.0, "ZZZ"),)))
    fishers = qfims_from_states(psi, dpsi)
    assert np.isnan(fishers[1]).any()
    assert np.all(np.isfinite(fishers[[0, 2]]))


def test_empirical_is_gradient_outer_product():
    grad = np.array([0.5, -1.0, 2.0])
    fisher = qfim_empirical(grad)
    assert fisher.shape == (3, 3)
    assert np.allclose(fisher, np.outer(grad, grad))
    assert np.linalg.matrix_rank(fisher) == 1


# each batch entry point, called on (circuit, thetas)
BATCH_ENTRY_POINTS = {
    "qfim_trace": qfim_trace,
    "score": lambda circ, thetas: score(thetas, circ,
                                        Observable(((1.0, "ZZ"),))),
    "observable_gradient": lambda circ, thetas: observable_gradient(
        circ, thetas, Observable(((1.0, "ZZ"),))),
    "qfim_exact": qfim_exact,
    "qfim_block_diagonal": qfim_block_diagonal,
    "qfim": qfim,
    "qfim_and_observable_gradient": lambda circ, thetas: (
        qfim_and_observable_gradient(circ, thetas,
                                     Observable(((1.0, "ZZ"),)))),
    "apply_circuit": apply_circuit,
}


@pytest.mark.parametrize("name", sorted(BATCH_ENTRY_POINTS))
def test_batch_entry_points_reject_an_empty_stack(name):
    circ = build_hea(1, 2)
    p = circ.num_params
    with pytest.raises(ValueError, match=re.escape(
            f"theta must have shape ({p},) or (B, {p}) with B >= 1")):
        BATCH_ENTRY_POINTS[name](circ, np.zeros((0, p)))


# each forward-sweep entry point, called on (circuit, thetas)
SWEEP_ENTRY_POINTS = {
    "qfim_exact": qfim_exact,
    "qfim_block_diagonal": qfim_block_diagonal,
    "qfim": qfim,
    "qfim_and_observable_gradient": lambda circ, thetas: (
        qfim_and_observable_gradient(circ, thetas,
                                     Observable(((1.0, "ZZZ"), (0.5, "XIY"))))),
}
# p = 12 takes the exact rung and p = 72 the block-diagonal one
SWEEP_CIRCUITS = {"exact": build_hea(2, 3),
                  "block": build_strongly_entangling(8, 3)}
SWEEP_CASES = ([(name, "exact") for name in sorted(SWEEP_ENTRY_POINTS)]
               + [(name, "block") for name in ("qfim_block_diagonal",
                                               "qfim")])


@pytest.mark.parametrize("name, rung", SWEEP_CASES)
def test_sweep_entry_points_chunk_themselves(monkeypatch, name, rung):
    """Under a small MAX_SWEEP_AMPLITUDES a stack of 7 thetas takes
    ceil(7 / step) forward sweeps of at most step thetas each, and every
    result equals its per-theta calls bit for bit."""
    def call(thetas):
        result = SWEEP_ENTRY_POINTS[name](circ, thetas)
        return result if isinstance(result, tuple) else (result,)
    circ = SWEEP_CIRCUITS[rung]
    thetas = np.random.default_rng(22).uniform(-math.pi, math.pi,
                                               (7, circ.num_params))
    singles = [call(theta) for theta in thetas]
    monkeypatch.setattr(differentiation, "MAX_SWEEP_AMPLITUDES",
                        3 * (circ.num_params + 1) << circ.num_qubits)
    assert sweep_batch_size(circ) == 3
    sizes = []
    sweep = differentiation._derivative_sweep

    def counted(circuit, chunk, *args):
        sizes.append(len(chunk))
        return sweep(circuit, chunk, *args)
    monkeypatch.setattr(differentiation, "_derivative_sweep", counted)
    got = call(thetas)
    assert sizes == [3, 3, 1]
    for k, part in enumerate(got):
        assert np.array_equal(part, np.stack([one[k] for one in singles]))


def test_fidelity_ladder_dispatch():
    """qfim returns the rung qfim_fidelity names, for a (p,) theta and a
    (B, p) stack alike; it builds no empirical surrogate, so an untagged
    circuit above the threshold fails as the block-diagonal rung does."""
    rng = np.random.default_rng(26)
    small = build_hea(2, 3)  # 12 params
    big = build_strongly_entangling(8, 3)  # 72 params, tagged
    untagged = Circuit(big.num_qubits, big.gates, big.num_params)
    rungs = ((small, "exact", qfim_exact),
             (big, "block_diagonal", qfim_block_diagonal))
    for circ, fidelity, rung in rungs:
        p = circ.num_params
        assert qfim_fidelity(circ) == fidelity
        thetas = rng.uniform(0, 1, (3, p))
        stack = qfim(circ, thetas)
        assert stack.shape == (3, p, p)
        assert np.array_equal(stack, rung(circ, thetas))
        one = qfim(circ, thetas[0])
        assert one.shape == (p, p)
        assert np.array_equal(one, rung(circ, thetas[0]))
    assert qfim_fidelity(untagged) == "empirical"
    with pytest.raises(ValueError, match="layer tags"):
        qfim(untagged, np.zeros(big.num_params))
    with pytest.raises(ValueError, match="shape"):
        qfim(big, np.zeros((2, 3)))


def test_hermitian_eigenvalues_match_numpy():
    rng = np.random.default_rng(27)
    for n in (1, 2, 3, 5, 8, 20, 40):
        mat = rng.standard_normal((n, n))
        mat = (mat + mat.T) / 2
        cplx = mat + 1j * rng.standard_normal((n, n))
        cplx = (cplx + cplx.conj().T) / 2
        for m in (mat, cplx):
            values = hermitian_eigenvalues(m)
            assert values.dtype == float
            reference = np.sort(np.linalg.eigvalsh(m))[::-1]
            assert np.max(np.abs(values - reference)) < 1e-12


def test_hermitian_eigenvalues_degenerate_and_trivial():
    assert np.allclose(hermitian_eigenvalues(2.5 * np.eye(4)), 2.5)
    assert np.array_equal(hermitian_eigenvalues(np.zeros((3, 3))), np.zeros(3))
    for dtype in (float, complex):
        assert np.allclose(hermitian_eigenvalues(
            np.diag([3.0, -1.0, 2.0]).astype(dtype)), [3.0, 2.0, -1.0])
    assert np.array_equal(hermitian_eigenvalues([[-0.75]]), [-0.75])
    # Pauli Y: complex entries, spectrum +-1
    assert np.allclose(hermitian_eigenvalues([[0, -1j], [1j, 0]]), [1.0, -1.0])


def test_hermitian_eigenvalues_rejects_bad_input():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigenvalues(np.array([[0.0, 1j], [1j, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        hermitian_eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="square"):
        hermitian_eigenvalues(np.zeros(4))
    for bad in (np.nan, np.inf):
        mat = np.eye(3)
        mat[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            hermitian_eigenvalues(mat)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: arrays(np.float64, (n, n), elements=st.floats(-1e3, 1e3))))
def test_hermitian_eigenvalues_descending_and_sum_to_trace(block):
    n = len(block)
    mat = block + block.T
    values = hermitian_eigenvalues(mat)
    assert values.shape == (n,)
    assert np.all(np.diff(values) <= 0)
    scale = max(np.abs(mat).max(), 1.0)
    assert abs(values.sum() - np.trace(mat)) <= 1e-12 * n * scale


def test_hermitian_eigenvalues_descending():
    rng = np.random.default_rng(28)
    mat = rng.standard_normal((10, 10))
    mat = (mat + mat.T) / 2
    values = hermitian_eigenvalues(mat)
    assert np.all(np.diff(values) <= 1e-12)
    assert np.allclose(values, np.sort(np.linalg.eigvalsh(mat))[::-1], atol=1e-9)
