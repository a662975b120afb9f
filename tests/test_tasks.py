"""Task costs, gradients, Adam, and the dense ground-energy oracle."""
import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qinitopt import differentiation, tasks
from qinitopt.differentiation import gradient
from qinitopt.simulator import (CNOT, CZ, FIXED_RY, FIXED_RY_ANGLE,
                                ROTATION_KINDS, RY, RZ, Circuit, Gate,
                                Observable, apply_circuit, build_hea,
                                build_strongly_entangling, build_two_design,
                                embed_angles)
from qinitopt.tasks import (PROB_CLAMP, AdamState, QmlTask, VqeTask, adam_step,
                            class_qubits, exact_ground_energy, make_vqe_task,
                            qml_cost_batch, train)

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense(obs: Observable) -> np.ndarray:
    total = np.zeros((1 << obs.num_qubits,) * 2, dtype=complex)
    for coeff, word in obs.terms:
        term = np.eye(1, dtype=complex)
        for ch in word:
            term = np.kron(term, PAULI[ch])
        total += coeff * term
    return total


def single_ry_task() -> VqeTask:
    circ = Circuit(1, (Gate(RY, target=0, param_slot=0),), 1)
    return make_vqe_task(Observable(terms=((1.0, "Z"),)), circuit=circ)


def test_ground_energy_closed_forms():
    for word in ("Z", "X", "Y"):
        obs = Observable(terms=((1.0, word),))
        assert abs(exact_ground_energy(obs) + 1.0) < 1e-9
    obs = Observable(terms=((0.5, "ZI"), (0.5, "IZ"), (0.25, "XX")))
    assert abs(exact_ground_energy(obs) + math.sqrt(1.0625)) < 1e-9


def test_ground_energy_matches_numpy_on_random_sums():
    rng = np.random.default_rng(71)
    for _ in range(5):
        terms = tuple(
            (float(rng.uniform(-1, 1)),
             "".join(rng.choice(list("IXYZ"), size=3)))
            for _ in range(4))
        obs = Observable(terms=terms)
        want = float(np.min(np.linalg.eigvalsh(dense(obs))))
        assert abs(exact_ground_energy(obs) - want) < 1e-8


def test_ground_energy_complex_hamiltonian_closed_form():
    # ZII, XYI and YIX pairwise anticommute, so H^2 = (sum of squared
    # coefficients) I and the spectrum is +-0.6; one Y per word makes the
    # dense matrix complex
    obs = Observable(terms=((0.2, "ZII"), (0.4, "XYI"), (0.4, "YIX")))
    assert np.max(np.abs(dense(obs).imag)) > 0.1
    assert abs(exact_ground_energy(obs) + 0.6) < 1e-12


def test_ground_energy_qubit_cap():
    with pytest.raises(ValueError):
        exact_ground_energy(Observable(terms=((1.0, "Z" * 11),)))


def test_vqe_cost_examples():
    task = single_ry_task()
    assert abs(task.cost_value([math.pi]) + 1.0) < 1e-12
    identity = make_vqe_task(Observable(terms=((1.0, "I"),)),
                             circuit=task.circuit)
    for theta in (0.0, 1.0, -2.5):
        assert abs(identity.cost_value([theta]) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        task.cost_value([0.1, 0.2])
    with pytest.raises(ValueError):
        VqeTask(Observable(terms=((1.0, "ZZ"),)), task.circuit, -1.0)


def test_vqe_training_reaches_minimum():
    task = single_ry_task()
    theta, curve = train(task, [0.1], iters=100, lr=0.1)
    assert curve[-1] < -1.0 + 1e-3
    assert len(curve) == 101
    assert np.all(curve >= task.exact_ground_energy - 1e-9)


def test_vqe_zz_two_qubit():
    obs = Observable(terms=((1.0, "ZZ"),))
    task = make_vqe_task(obs, circuit=build_strongly_entangling(1, 2))
    assert abs(task.exact_ground_energy + 1.0) < 1e-9
    rng = np.random.default_rng(72)
    _, curve = train(task, rng.uniform(0, 2 * math.pi, 6), iters=100, lr=0.1)
    assert abs(curve[-1] + 1.0) < 1e-3


def test_vqe_gradient_matches_parameter_shift():
    rng = np.random.default_rng(74)
    obs = Observable(terms=((0.4, "ZIY"), (-0.7, "XYZ"), (0.2, "IIZ")))
    task = make_vqe_task(obs, circuit=build_strongly_entangling(2, 3))
    for adjoint in (False, True):
        task.adjoint = adjoint
        for _ in range(3):
            theta = rng.uniform(0, 2 * math.pi, task.circuit.num_params)
            want = gradient(task.circuit, theta, task.cost_batch)
            assert np.max(np.abs(task.gradient(theta) - want)) < 1e-10
            value, grad = task.value_and_gradient(theta)
            assert value == task.cost_value(theta)
            assert np.max(np.abs(grad - want)) < 1e-10


def test_vqe_task_path_follows_the_stack_height():
    """make_vqe_task takes the adjoint once a forward sweep of the stack
    would hold ADJOINT_MIN_SWEEP_AMPLITUDES amplitudes; both paths give the
    same energies and gradients to rounding."""
    obs = Observable(terms=((0.5, "ZZZZ"), (-0.3, "XIYI")))
    circ = build_strongly_entangling(8, 4)  # p = 96: 97 * 16 = 1552 per theta
    assert not make_vqe_task(obs, circ).adjoint
    assert not make_vqe_task(obs, circ, stack=2).adjoint
    assert make_vqe_task(obs, circ, stack=3).adjoint
    floor = differentiation.ADJOINT_MIN_SWEEP_AMPLITUDES
    for stack in range(1, 5):
        assert differentiation.adjoint_pays(circ, stack) == (
            1552 * stack >= floor)
    thetas = np.random.default_rng(75).uniform(0, 2 * math.pi, (3, 96))
    task = make_vqe_task(obs, circ, stack=3)
    adjoint = task.value_and_gradient(thetas)
    task.adjoint = False
    swept = task.value_and_gradient(thetas)
    assert np.array_equal(adjoint[0], swept[0])
    np.testing.assert_allclose(adjoint[1], swept[1], rtol=0, atol=1e-12)


def test_vqe_gradient_rejects_nan_theta():
    task = make_vqe_task(Observable(terms=((1.0, "ZZ"),)),
                         circuit=build_strongly_entangling(1, 2))
    theta = np.zeros(task.circuit.num_params)
    theta[3] = math.nan
    with pytest.raises(FloatingPointError):
        task.gradient(theta)


def test_train_zero_iters_echoes_start():
    task = single_ry_task()
    theta, curve = train(task, [0.3], iters=0)
    assert np.array_equal(theta, [0.3])
    assert len(curve) == 1
    assert abs(curve[0] - math.cos(0.3)) < 1e-12


def test_train_rejects_negative_iters_and_lr():
    task = single_ry_task()
    with pytest.raises(ValueError, match="iters must not be negative"):
        train(task, [0.3], iters=-1)
    for lr in (-0.01, math.nan):
        with pytest.raises(ValueError, match="learning rate"):
            train(task, [0.3], iters=1, lr=lr)


class QuadraticToy:
    """cost (theta - 2)^2 with its analytic gradient, of one (1,) theta or
    of each row of an (M, 1) stack."""

    def cost_value(self, theta):
        cost = (np.asarray(theta, dtype=float)[..., 0] - 2.0) ** 2
        return float(cost) if cost.ndim == 0 else cost

    def gradient(self, theta):
        return 2.0 * (np.asarray(theta, dtype=float) - 2.0)

    def value_and_gradient(self, theta):
        return self.cost_value(theta), self.gradient(theta)


class Counting:
    """A task wrapper that records the theta of every cost call."""

    def __init__(self, task):
        self.task = task
        self.calls = {"cost_value": [], "value_and_gradient": []}

    def cost_value(self, theta):
        self.calls["cost_value"].append(np.array(theta))
        return self.task.cost_value(theta)

    def value_and_gradient(self, theta):
        self.calls["value_and_gradient"].append(np.array(theta))
        return self.task.value_and_gradient(theta)


def test_train_simulates_each_theta_once():
    for task, theta0 in ((QuadraticToy(), [5.0]), (single_ry_task(), [0.3])):
        for iters in (0, 1, 5):
            counting = Counting(task)
            theta, curve = train(counting, theta0, iters=iters, lr=0.05)
            stepped = counting.calls["value_and_gradient"]
            final = counting.calls["cost_value"]
            assert len(stepped) == iters and len(final) == 1
            # curve[k] is the cost at the theta after k updates
            visited = stepped + final
            assert len({t[0] for t in visited}) == iters + 1
            assert visited[0][0] == theta0[0] and visited[-1][0] == theta[0]
            assert list(curve) == [task.cost_value(t) for t in visited]
    # a stack of two steps both rows with one call per step
    for task, theta0 in ((QuadraticToy(), [[5.0], [-1.0]]),
                         (single_ry_task(), [[0.3], [2.0]])):
        for iters in (0, 1, 5):
            counting = Counting(task)
            theta, curve = train(counting, theta0, iters=iters, lr=0.05)
            stepped = counting.calls["value_and_gradient"]
            final = counting.calls["cost_value"]
            assert len(stepped) == iters and len(final) == 1
            visited = stepped + final
            assert all(t.shape == (2, 1) for t in visited)
            for row in range(2):
                assert len({t[row, 0] for t in visited}) == iters + 1
                assert visited[0][row, 0] == theta0[row][0]
                assert visited[-1][row, 0] == theta[row, 0]
            assert curve.shape == (2, iters + 1)
            assert np.array_equal(curve, np.stack(
                [task.cost_value(t) for t in visited], axis=-1))


def test_training_curve_monotone_after_warmup():
    _, curve = train(QuadraticToy(), [5.0], iters=100, lr=0.05)
    assert np.all(np.diff(curve[10:]) <= 1e-12)
    _, curve = train(QuadraticToy(), [5.0], iters=300, lr=0.05)
    assert curve[-1] < 1e-6


def test_adam_first_step_and_determinism():
    state = AdamState(lr=0.01)
    out = adam_step(state, np.array([1.0]), np.array([1.0]))
    assert abs((1.0 - out[0]) - 0.01) < 1e-6
    s1 = AdamState(lr=0.05)
    s2 = AdamState(lr=0.05)
    theta = np.array([0.4, -0.7])
    grad = np.array([0.3, 0.9])
    assert np.array_equal(adam_step(s1, theta, grad), adam_step(s2, theta, grad))


def test_adam_zero_gradient_and_lr_zero():
    state = AdamState(lr=0.01)
    theta = np.array([0.5, -0.2])
    for _ in range(10):
        theta_next = adam_step(state, theta, np.zeros(2))
        assert np.array_equal(theta_next, theta)
        theta = theta_next
    frozen = AdamState(lr=0.0)
    out = adam_step(frozen, np.array([1.0]), np.array([5.0]))
    assert np.array_equal(out, [1.0])


def test_adam_shape_errors():
    state = AdamState()
    with pytest.raises(ValueError):
        adam_step(state, np.zeros(3), np.zeros(2))
    adam_step(state, np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        adam_step(state, np.zeros(4), np.zeros(4))


def embedded_classifier(layers: int, qubits: int) -> Circuit:
    return embed_angles(build_strongly_entangling(layers, qubits), qubits)


def bare_embedding(qubits: int) -> Circuit:
    """Feature rotations only, no trained gates: readout is hand-computable."""
    gates = tuple(Gate(RY, target=j, feature_slot=j) for j in range(qubits))
    return Circuit(qubits, gates, 0, embedding_slots=tuple(range(qubits)))


def test_qml_task_validation():
    circ = embedded_classifier(1, 2)
    feats = np.zeros((3, 2))
    labels = np.array([0, 1, 0])
    with pytest.raises(ValueError):
        QmlTask(circ, feats, labels, num_classes=1)
    with pytest.raises(ValueError):
        QmlTask(build_strongly_entangling(1, 2), feats, labels, 2)
    with pytest.raises(ValueError):
        QmlTask(circ, np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
    with pytest.raises(ValueError):
        QmlTask(circ, np.zeros((3, 4)), labels, 2)
    with pytest.raises(ValueError):
        QmlTask(circ, feats, np.array([0, 2, 0]), 2)
    with pytest.raises(ValueError):
        QmlTask(circ, feats, labels, num_classes=32)  # needs 5 qubits


def test_qml_probabilities():
    circ = bare_embedding(2)
    task = QmlTask(circ, np.zeros((1, 2)), np.array([0]), 2)
    zeros = np.zeros(0)
    probs = task.probabilities(zeros, np.zeros(2))
    assert np.allclose(probs, [1.0, 0.0], atol=1e-12)
    # uniform superposition on the readout qubit
    probs = task.probabilities(zeros, np.array([math.pi / 2, 0.0]))
    assert np.allclose(probs, [0.5, 0.5], atol=1e-12)


def test_qml_multiclass_truncation():
    circ = embedded_classifier(1, 2)
    task = QmlTask(circ, np.zeros((1, 2)), np.array([0]), num_classes=3)
    probs = task.probabilities(np.zeros(circ.num_params), np.zeros(2))
    assert np.allclose(probs, [1.0, 0.0, 0.0], atol=1e-12)
    assert task.measured_qubits == 2


def test_qml_probability_simplex():
    rng = np.random.default_rng(73)
    circ = embedded_classifier(2, 3)
    feats = rng.uniform(0, math.pi, (20, 3))
    task = QmlTask(circ, feats, rng.integers(0, 3, 20), num_classes=3)
    probs = task.probabilities(rng.uniform(0, 2 * math.pi, circ.num_params), feats)
    assert np.all((probs >= 0) & (probs <= 1))
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9


def test_qml_loss_known_values():
    circ = bare_embedding(2)
    theta = np.zeros(0)
    # q0 in uniform superposition: P = (0.5, 0.5)
    task = QmlTask(circ, np.array([[math.pi / 2, 0.0]]), np.array([0]), 2)
    assert abs(task.cost_value(theta) - math.log(2)) < 1e-9
    value, grad = task.value_and_gradient(theta)
    assert value == task.cost_value(theta) and grad.shape == (0,)
    # P(class 0) = cos^2(f/2) = 0.25 at f = 2pi/3
    task = QmlTask(circ, np.array([[2 * math.pi / 3, 0.0]]), np.array([0]), 2)
    assert abs(task.cost_value(theta) - math.log(4)) < 1e-9
    # perfect prediction bottoms out at the clamp
    task = QmlTask(circ, np.zeros((1, 2)), np.array([0]), 2)
    assert task.cost_value(theta) < 1e-9


def test_qml_gradient_matches_finite_differences():
    rng = np.random.default_rng(74)
    for qubits, classes in ((2, 2), (3, 3)):
        circ = embedded_classifier(2, qubits)
        feats = rng.uniform(0, math.pi, (10, qubits))
        labels = rng.integers(0, classes, 10)
        task = QmlTask(circ, feats, labels, classes)
        theta = rng.uniform(0, 2 * math.pi, circ.num_params)
        got = task.gradient(theta)
        h = 1e-6
        for mu in range(len(theta)):
            up = theta.copy(); up[mu] += h
            down = theta.copy(); down[mu] -= h
            fd = (task.cost_value(up) - task.cost_value(down)) / (2 * h)
            assert abs(got[mu] - fd) < 1e-7


def class_marginals(task: QmlTask, thetas) -> np.ndarray:
    """Untruncated-class raw marginals, (B, n, num_classes) for (B, p) rows."""
    n = len(task.train_features)
    out = []
    for row in np.atleast_2d(thetas):
        states = apply_circuit(task.circuit, row, task.train_features)
        probs = (np.abs(states) ** 2).reshape(n, 1 << task.measured_qubits, -1)
        out.append(probs.sum(axis=-1)[:, :task.num_classes])
    return np.array(out)


def chain_weights(task: QmlTask, theta, clamp: bool = True) -> np.ndarray:
    """dL_i/draw_ic of the clamped cross-entropy at theta."""
    raw = class_marginals(task, theta)[0]
    rows = np.arange(len(raw))
    labels = task.train_labels
    s = raw.sum(axis=1)
    weights = np.repeat((1.0 / s)[:, None], task.num_classes, axis=1)
    weights[rows, labels] -= 1.0 / np.maximum(raw[rows, labels], PROB_CLAMP)
    if clamp:
        hit = raw[rows, labels] / s
        weights[(hit <= PROB_CLAMP) | (hit >= 1.0 - PROB_CLAMP)] = 0.0
    return weights


def shift_reference(task: QmlTask, theta, clamp: bool = True) -> np.ndarray:
    """Parameter-shift gradient of sum_ic w_ic raw_ic(theta') / n with the
    chain-rule weights w frozen at theta."""
    weights = chain_weights(task, theta, clamp)
    n = len(task.train_features)
    return gradient(task.circuit, theta, lambda thetas: np.einsum(
        "bnc,nc->b", class_marginals(task, thetas), weights) / n)


def random_classifier(rng, qubits: int, features: int, depth: int) -> Circuit:
    """Every gate kind, an RZ-RY-RZ triple on one qubit, CNOTs both ways,
    feature rotations interleaved."""
    gates = [Gate(ROTATION_KINDS[j % 3], target=j, feature_slot=j)
             for j in range(features - 1)]
    slot = 0
    for step in range(depth):
        q = int(rng.integers(qubits))
        roll = step % 7
        if roll < 3:
            gates.append(Gate(ROTATION_KINDS[roll], target=q, param_slot=slot))
            slot += 1
        elif roll == 3:
            for axis in (RZ, RY, RZ):
                gates.append(Gate(axis, target=q, param_slot=slot))
                slot += 1
        elif roll == 4:
            gates.append(Gate(FIXED_RY, target=q))
        else:
            a, b = sorted(rng.choice(qubits, size=2, replace=False))
            kind = CNOT if roll == 5 else CZ
            gates.append(Gate(kind, target=int(a), control=int(b)))
            gates.append(Gate(kind, target=int(b), control=int(a)))
        if step == depth // 2:
            gates.append(Gate(RZ, target=q, feature_slot=features - 1))
    order = rng.permutation(slot)
    gates = [Gate(g.kind, g.target, g.control,
                  None if g.param_slot is None else int(order[g.param_slot]),
                  g.feature_slot)
             for g in gates]
    return Circuit(qubits, tuple(gates), slot,
                   embedding_slots=tuple(range(features)))


def test_qml_gradient_matches_parameter_shift():
    rng = np.random.default_rng(83)
    for trial in range(7):
        qubits, classes = ((2, 2), (3, 3), (3, 2))[trial % 3]
        if trial < 6:
            circ = random_classifier(rng, qubits, qubits,
                                     depth=int(rng.integers(8, 20)))
        else:
            # features first and 2^q <= 9 rows: the shared-unitary path
            circ = embedded_classifier(2, qubits)
        feats = rng.uniform(-math.pi, math.pi, (9, qubits))
        labels = rng.integers(0, classes, 9)
        task = QmlTask(circ, feats, labels, classes)
        theta = rng.uniform(0, 2 * math.pi, circ.num_params)
        got = task.gradient(theta)
        want = shift_reference(task, theta)
        assert np.max(np.abs(want)) > 1e-3
        assert np.max(np.abs(got - want)) < 1e-10
        value, grad = task.value_and_gradient(theta)
        assert value == task.cost_value(theta)
        assert np.max(np.abs(grad - want)) < 1e-10


def test_qml_gradient_zeroes_clamped_samples():
    # RY(theta_0) then RY(feature) leaves qubit 0 nearly |1> for the first
    # row, so its class-0 probability sits below the clamp
    gates = (Gate(RY, target=0, param_slot=0), Gate(RY, target=0, feature_slot=0),
             Gate(RY, target=1, feature_slot=1),
             Gate(RZ, target=1, param_slot=1), Gate(RY, target=1, param_slot=2),
             Gate(RZ, target=1, param_slot=3),
             Gate(CNOT, target=1, control=0), Gate(CZ, target=1, control=0))
    circ = Circuit(2, gates, 4, embedding_slots=(0, 1))
    rng = np.random.default_rng(84)
    theta = rng.uniform(0, 2 * math.pi, 4)
    feats = rng.uniform(-math.pi, math.pi, (6, 2))
    feats[0, 0] = math.pi - theta[0] + 1e-6
    labels = np.array([0, 1, 0, 1, 1, 0])
    task = QmlTask(circ, feats, labels, 2)
    assert class_marginals(task, theta)[0, 0, 0] < PROB_CLAMP
    got = task.gradient(theta)
    assert np.max(np.abs(got - shift_reference(task, theta))) < 1e-10
    assert np.max(np.abs(got - shift_reference(task, theta, clamp=False))) > 1e-3


def test_qml_cost_batch_matches_per_row_loss():
    rng = np.random.default_rng(77)
    circ = embedded_classifier(2, 3)
    feats = rng.uniform(0, math.pi, (7, 3))
    labels = rng.integers(0, 3, 7)
    task = QmlTask(circ, feats, labels, 3)
    thetas = rng.uniform(0, 2 * math.pi, (5, circ.num_params))
    batch = qml_cost_batch(task, thetas)
    assert batch.shape == (5,)
    for row, got in zip(thetas, batch):
        assert got == task.cost_value(row)
    single = qml_cost_batch(task, thetas[0])
    assert single.shape == (1,) and single[0] == batch[0]


def test_qml_accuracy_hand_checked():
    circ = bare_embedding(2)
    task = QmlTask(circ, np.zeros((1, 2)), np.array([0]), 2)
    theta = np.zeros(0)
    # class 0 at f0=0, class 1 at f0=pi; one point mislabeled on purpose
    feats = np.array([[0.0, 0.0], [0.0, 1.0], [math.pi, 0.0],
                      [math.pi, 1.0], [0.0, 2.0]])
    labels = np.array([0, 0, 1, 1, 1])
    assert task.accuracy(theta, feats, labels) == 0.8


def test_qml_training_reduces_loss():
    rng = np.random.default_rng(75)
    circ = embedded_classifier(2, 2)
    feats = np.vstack([rng.uniform(0, 0.7, (8, 2)),
                       rng.uniform(2.3, math.pi, (8, 2))])
    labels = np.array([0] * 8 + [1] * 8)
    task = QmlTask(circ, feats, labels, 2)
    theta0 = rng.uniform(0, 2 * math.pi, circ.num_params)
    _, curve = train(task, theta0, iters=40, lr=0.1)
    assert curve[-1] < curve[0]
    assert np.all(np.isfinite(curve))


def on_path(task: QmlTask, shared: bool) -> QmlTask:
    """A copy of the task forced onto the shared-unitary or the per-row
    path, whatever its own row count selects."""
    forced = copy.copy(task)
    forced._embedded = (forced._embed(forced.train_features) if shared
                        else None)
    return forced


@st.composite
def clamped_qml_cases(draw):
    """(task, theta): an embed_angles classifier from one of the three
    builders on 2-4 qubits with 2-4 classes, n rows on either side of 2^q,
    some of them on the probability clamp. A clamp row's features leave
    every embedded qubit in |0> after the prefix; at theta = 0 (or 1e-6 off
    it) the body keeps the measured qubits' class-0 marginal at 1 (within
    1e-12), so its label probability sits at 0 or 1."""
    qubits = draw(st.integers(2, 4))
    classes = draw(st.integers(2, 4))
    layers = draw(st.integers(1, 2))
    builder = draw(st.sampled_from(("strongly_entangling", "hea",
                                    "two_design")))
    clamp_angle = 0.0
    if builder == "strongly_entangling":
        circ = build_strongly_entangling(layers, qubits)
    elif builder == "hea":
        circ = build_hea(layers, qubits)
    else:
        circ = build_two_design(layers, qubits, seed=draw(st.integers(0, 9)))
        clamp_angle = -FIXED_RY_ANGLE
    width = draw(st.integers(class_qubits(classes), qubits))
    circ = embed_angles(circ, width)
    dim = 1 << qubits
    n = dim + draw(st.integers(1 - dim, dim))
    clamped = draw(st.integers(0, n))
    scale = draw(st.sampled_from((0.0, 1e-6, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    feats = rng.uniform(-math.pi, math.pi, (n, width))
    feats[:clamped] = clamp_angle
    labels = rng.integers(0, classes, n)
    theta = scale * rng.uniform(0, 2 * math.pi, circ.num_params)
    return QmlTask(circ, feats, labels, classes), theta


@given(clamped_qml_cases())
def test_qml_shared_path_matches_per_row(case):
    """Loss, gradient, cost and probabilities of the shared-unitary path
    equal the per-row path's within 1e-12 of each quantity's scale."""
    task, theta = case
    shared, per_row = on_path(task, True), on_path(task, False)

    def close(got, want):
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    value, grad = shared.value_and_gradient(theta)
    want_value, want_grad = per_row.value_and_gradient(theta)
    close(value, want_value)
    close(grad, want_grad)
    close(shared.cost_value(theta), per_row.cost_value(theta))
    feats = task.train_features
    close(shared.probabilities(theta, feats),
          per_row.probabilities(theta, feats))
    close(shared.probabilities(theta, feats[0]),
          per_row.probabilities(theta, feats[0]))


def count_paths(monkeypatch):
    """Rows of every backward sweep and the number of per-row forward
    simulations that tasks makes."""
    seen = {"sweep_rows": [], "per_row_runs": 0}
    sweep, run = tasks.adjoint_gradient, tasks.apply_circuit

    def counted_sweep(circuit, theta, phi, lam, features=None):
        seen["sweep_rows"].append(len(phi) + len(lam))
        return sweep(circuit, theta, phi, lam, features)

    def counted_run(*args):
        seen["per_row_runs"] += 1
        return run(*args)
    monkeypatch.setattr(tasks, "adjoint_gradient", counted_sweep)
    monkeypatch.setattr(tasks, "apply_circuit", counted_run)
    return seen


def test_qml_path_selection(monkeypatch):
    """Re-uploading circuits and tasks with 2^q > n sweep 2n rows per
    gradient and simulate every row; an embed_angles circuit with n >= 2^q
    sweeps 2 * 2^q rows and simulates no row alone."""
    rng = np.random.default_rng(86)
    reuploading = random_classifier(rng, 3, 3, depth=12)
    embedded = embedded_classifier(1, 3)
    seen = count_paths(monkeypatch)
    for circ, n, shared in ((reuploading, 20, False), (embedded, 7, False),
                            (embedded, 8, True), (embedded, 20, True)):
        seen["sweep_rows"].clear()
        seen["per_row_runs"] = 0
        feats = rng.uniform(-math.pi, math.pi, (n, 3))
        task = QmlTask(circ, feats, rng.integers(0, 2, n), 2)
        theta = rng.uniform(0, 2 * math.pi, circ.num_params)
        task.value_and_gradient(theta)
        task.cost_value(theta)
        task.accuracy(theta, feats, task.train_labels)
        assert seen["sweep_rows"] == [2 * 8 if shared else 2 * n]
        assert seen["per_row_runs"] == (0 if shared else 3)


@pytest.mark.parametrize("shared", [True, False])
def test_qml_rejects_nan_theta_and_features(shared):
    rng = np.random.default_rng(87)
    circ = embedded_classifier(1, 2)
    n = 6 if shared else 3  # 2^q = 4 rows
    feats = rng.uniform(-math.pi, math.pi, (n, 2))
    task = QmlTask(circ, feats, rng.integers(0, 2, n), 2)
    assert (task._embedded is not None) == shared
    theta = rng.uniform(0, 2 * math.pi, circ.num_params)
    bad = theta.copy()
    bad[4] = math.nan
    for call in (task.value_and_gradient, task.cost_value,
                 lambda t: task.probabilities(t, feats)):
        with pytest.raises(FloatingPointError):
            call(bad)
    bad_feats = feats.copy()
    bad_feats[1, 0] = math.nan
    for rows in (bad_feats, bad_feats[1]):
        with pytest.raises(FloatingPointError):
            task.probabilities(theta, rows)


@pytest.mark.parametrize("shared", [True, False])
def test_qml_probabilities_take_one_theta_on_either_path(shared):
    rng = np.random.default_rng(88)
    circ = embedded_classifier(1, 2)
    n = 6 if shared else 3  # 2^q = 4 rows
    feats = rng.uniform(-math.pi, math.pi, (n, 2))
    task = QmlTask(circ, feats, rng.integers(0, 2, n), 2)
    assert (task._embedded is not None) == shared
    thetas = rng.uniform(0, 2 * math.pi, (n, circ.num_params))
    assert task.probabilities(thetas[0], feats).shape == (n, 2)
    assert task.probabilities(thetas[0], feats[0]).shape == (2,)
    with pytest.raises(ValueError, match="shape"):
        task.probabilities(thetas, feats)


@st.composite
def lockstep_cases(draw):
    """(task, stack, iters, lr): a VqeTask on the adjoint or the forward-
    sweep path, or a QmlTask on the shared or the per-row (re-uploading)
    path, with an (M, p) stack of starting points."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    kind = draw(st.sampled_from(("vqe", "shared", "per_row")))
    qubits = draw(st.integers(2, 3))
    layers = draw(st.integers(1, 2))
    if kind == "vqe":
        circ = build_strongly_entangling(layers, qubits)
        words = ["".join(rng.choice(list("IXYZ"), qubits)) for _ in range(3)]
        task = make_vqe_task(
            Observable(tuple(zip(rng.standard_normal(3).tolist(), words))),
            circ)
        task.adjoint = draw(st.booleans())
    else:
        if kind == "shared":
            circ = embedded_classifier(layers, qubits)
            n = (1 << qubits) + draw(st.integers(0, 6))
        else:
            circ = random_classifier(rng, qubits, 2, depth=10)
            n = draw(st.integers(1, 12))
        task = QmlTask(circ, rng.uniform(-math.pi, math.pi,
                                         (n, circ.num_features)),
                       rng.integers(0, 2, n), 2)
        assert (task._embedded is not None) == (kind == "shared")
    stack = rng.uniform(0, 2 * math.pi,
                        (draw(st.integers(1, 4)), circ.num_params))
    return task, stack, draw(st.integers(0, 3)), draw(st.sampled_from(
        (0.01, 0.1)))


@pytest.mark.parametrize("one_per_chunk", [False, True])
@settings(max_examples=40)
@given(lockstep_cases())
def test_train_stack_rows_equal_solo_runs(one_per_chunk, case):
    """Row r of train(task, stack) is bit for bit train(task, stack[r]):
    theta and curve, also when the sweep cap leaves one theta per chunk."""
    task, stack, iters, lr = case
    with pytest.MonkeyPatch.context() as patch:
        if one_per_chunk:
            patch.setattr(differentiation, "MAX_SWEEP_AMPLITUDES", 1)
        theta, curve = train(task, stack, iters=iters, lr=lr)
        assert theta.shape == stack.shape
        assert curve.shape == (len(stack), iters + 1)
        for row, start in enumerate(stack):
            solo_theta, solo_curve = train(task, start, iters=iters, lr=lr)
            assert theta[row].tobytes() == solo_theta.tobytes()
            assert curve[row].tobytes() == solo_curve.tobytes()


def test_train_names_the_diverging_step():
    with np.errstate(all="raise"):  # no floating-point warning escapes
        with pytest.raises(FloatingPointError,
                           match="diverged at step 1.*lower train.lr"):
            train(QuadraticToy(), [[5.0], [-1.0]], iters=3, lr=1e308)
