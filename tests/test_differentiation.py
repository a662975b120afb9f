"""Differentiation checked against finite differences and numpy's eigensolver."""
import math

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
import numpy as np
import pytest

from qinitopt.differentiation import (EXACT_QFIM_MAX_PARAMS, SHIFT,
                                      adjoint_gradient, gradient,
                                      hermitian_eigenvalues,
                                      observable_gradient,
                                      observable_value_and_gradient,
                                      pauli_sum_gradients, qfim,
                                      qfim_block_diagonal, qfim_empirical,
                                      qfim_exact, qfims_from_states,
                                      state_derivatives)
from qinitopt.simulator import (CNOT, CZ, FIXED_RY, GATE_KINDS,
                                ROTATION_KINDS, Circuit, Gate, Layer,
                                Observable, RX, RY, RZ, apply_circuit,
                                build_hea, build_strongly_entangling,
                                build_two_design, embed_angles, expectation)


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
    assert abs(fisher.entries[0, 0] - 1.0) < 1e-12
    assert fisher.fidelity == "exact"


def test_qfim_phase_direction_is_flat():
    # RZ on |0> changes only the global phase, so that direction carries
    # zero Fisher information
    circ = Circuit(1, (Gate(RZ, target=0, param_slot=0),
                       Gate(RY, target=0, param_slot=1)), 2)
    fisher = qfim_exact(circ, [0.9, 0.4]).entries
    assert abs(fisher[0, 0]) < 1e-12
    assert abs(fisher[0, 1]) < 1e-12


def test_qfim_exact_matches_finite_differences():
    rng = np.random.default_rng(22)
    for circ in (build_strongly_entangling(2, 3), build_hea(2, 3),
                 build_two_design(3, 3, seed=4)):
        theta = rng.uniform(0, 2 * math.pi, circ.num_params)
        got = qfim_exact(circ, theta).entries
        want = finite_difference_qfim(circ, theta)
        assert np.max(np.abs(got - want)) < 1e-4


def test_qfim_symmetric_and_psd():
    rng = np.random.default_rng(23)
    for _ in range(5):
        circ = build_hea(3, 3)
        theta = rng.uniform(0, 2 * math.pi, circ.num_params)
        fisher = qfim_exact(circ, theta).entries
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
    assert blocked.fidelity == "block_diagonal"
    mask = np.zeros_like(blocked.entries, dtype=bool)
    for tag in circ.layers:
        mask[tag.param_start:tag.param_stop, tag.param_start:tag.param_stop] = True
    assert np.all(blocked.entries[~mask] == 0.0)
    # each block is the exact QFIM of the circuit truncated after its layer
    for k, tag in enumerate(circ.layers):
        trunc = Circuit(circ.num_qubits, circ.gates[:tag.gate_stop],
                        tag.param_stop)
        sub = qfim_exact(trunc, theta[:tag.param_stop]).entries
        sl = slice(tag.param_start, tag.param_stop)
        assert np.allclose(blocked.entries[sl, sl], sub[sl, sl], atol=1e-12)


def test_block_diagonal_single_layer_equals_exact():
    rng = np.random.default_rng(25)
    circ = build_hea(1, 3)
    theta = rng.uniform(0, 2 * math.pi, circ.num_params)
    assert np.allclose(qfim_block_diagonal(circ, theta).entries,
                       qfim_exact(circ, theta).entries, atol=1e-12)


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
    blocked = qfim_block_diagonal(circ, theta, features).entries
    mask = np.zeros((p, p), dtype=bool)
    for tag in circ.layers:
        trunc = Circuit(circ.num_qubits, circ.gates[:tag.gate_stop],
                        tag.param_stop, embedding_slots=circ.embedding_slots)
        sub = qfim_exact(trunc, theta[:tag.param_stop], features).entries
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
    mistagged = Circuit(circ.num_qubits, circ.gates, circ.num_params,
                        embedding_slots=circ.embedding_slots,
                        layers=tuple(tags))
    features = np.zeros(circ.num_features) if circ.num_features else None
    with pytest.raises(ValueError, match="read before"):
        qfim_block_diagonal(mistagged, np.zeros(circ.num_params), features)


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
    psi, dpsi = state_derivatives(circ, theta, features)
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
    sweep: the (B, p) forms of state_derivatives, qfim_exact and
    qfim_block_diagonal against their (p,) calls."""
    p, f = circ.num_params, circ.num_features
    rows = data.draw(st.integers(2, 4))
    thetas = np.array(data.draw(st.lists(
        st.lists(ANGLES, min_size=p, max_size=p), min_size=rows,
        max_size=rows)))
    features = (np.array(data.draw(st.lists(ANGLES, min_size=f, max_size=f)))
                if f else None)
    obs = data.draw(pauli_sums(circ.num_qubits))
    psi, dpsi = state_derivatives(circ, thetas, features)
    grads = pauli_sum_gradients(psi, dpsi, obs)
    fishers = qfims_from_states(psi, dpsi)
    exact = None
    if p <= EXACT_QFIM_MAX_PARAMS:
        exact = qfim_exact(circ, thetas, features)
        assert exact.entries.shape == (rows, p, p)
        np.testing.assert_array_equal(exact.entries, fishers)
    blocks = None
    if circ.layers:
        blocks = qfim_block_diagonal(circ, thetas, features)
        assert blocks.entries.shape == (rows, p, p)
    for b, theta in enumerate(thetas):
        one_psi, one_dpsi = state_derivatives(circ, theta, features)
        np.testing.assert_allclose(psi[b], one_psi, rtol=0, atol=1e-14)
        np.testing.assert_allclose(dpsi[b], one_dpsi, rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            grads[b], observable_gradient(circ, theta, obs, features),
            rtol=0, atol=1e-12)
        if exact is not None:
            np.testing.assert_allclose(
                exact.entries[b], qfim_exact(circ, theta, features).entries,
                rtol=0, atol=1e-12)
        if blocks is not None:
            np.testing.assert_allclose(
                blocks.entries[b],
                qfim_block_diagonal(circ, theta, features).entries,
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


def test_empirical_is_gradient_outer_product():
    grad = np.array([0.5, -1.0, 2.0])
    fisher = qfim_empirical(grad)
    assert fisher.fidelity == "empirical"
    assert np.allclose(fisher.entries, np.outer(grad, grad))
    assert np.linalg.matrix_rank(fisher.entries) == 1


def test_fidelity_ladder_dispatch():
    rng = np.random.default_rng(26)
    small = build_hea(2, 3)  # 12 params
    assert qfim(small, rng.uniform(0, 1, small.num_params)).fidelity == "exact"
    big = build_strongly_entangling(8, 3)  # 72 params, tagged
    assert qfim(big, rng.uniform(0, 1, big.num_params)).fidelity == "block_diagonal"
    untagged = Circuit(big.num_qubits, big.gates, big.num_params)
    grad_fn = lambda theta: np.ones(big.num_params)
    assert qfim(untagged, np.zeros(big.num_params),
                gradient_fn=grad_fn).fidelity == "empirical"
    with pytest.raises(ValueError):
        qfim(untagged, np.zeros(big.num_params))
    # the dispatcher rates one theta; the fidelity functions take stacks
    with pytest.raises(ValueError, match="shape"):
        qfim(small, np.zeros((2, small.num_params)))


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
