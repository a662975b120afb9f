"""Score functions and utility shaping against hand-computed values."""
import json
import math
import os
import pathlib
import subprocess
import sys

from hypothesis import given
from hypothesis import strategies as st
import numpy as np
import pytest

from qinitopt import differentiation
from qinitopt.differentiation import (gradient, hermitian_eigenvalues,
                                      observable_gradient, qfim,
                                      qfim_block_diagonal, qfim_empirical,
                                      qfim_exact, sweep_batch_size)
from qinitopt.distributions import (BETA, GAUSSIAN, HyperParams, child_rng,
                                    sample_params)
from qinitopt.es import EsConfig, es_optimize
from qinitopt.scoring import (HARMONIC, LOG_DET, OMEGA_KINDS, S1, S2, S3,
                              SCORE_KINDS, TRACE, ScoreSpec,
                              initialization_objective, omega_reduce,
                              order_statistic, score, utility_shape)
from qinitopt.simulator import (Circuit, Gate, Observable, RY, apply_circuit,
                                build_hea, build_strongly_entangling,
                                build_two_design, embed_angles, expectation)
from qinitopt.tasks import QmlTask
from test_differentiation import (ANGLES, pauli_sums, random_circuits,
                                  tagged_circuits)


def single_ry():
    circ = Circuit(1, (Gate(RY, target=0, param_slot=0),), 1)
    obs = Observable(terms=((1.0, "Z"),))
    cost = lambda rows: expectation(apply_circuit(circ, rows), obs)
    return circ, cost


def test_spec_validation():
    with pytest.raises(ValueError):
        ScoreSpec(kind="s4")
    with pytest.raises(ValueError):
        ScoreSpec(omega="determinant")
    with pytest.raises(ValueError):
        ScoreSpec(t=0)
    with pytest.raises(ValueError):
        ScoreSpec(w=1.5)
    with pytest.raises(ValueError):
        ScoreSpec(eps=0.0)
    with pytest.raises(ValueError, match="eps"):
        ScoreSpec(eps=math.nan)
    with pytest.raises(ValueError):
        ScoreSpec(k_eigs=0)


def test_score_rejects_a_non_finite_raw_score():
    # two RYs on one qubit: QFIM [[1, 1], [1, 1]] with eigenvalue 0, whose
    # harmonic term 1e308 / eps overflows
    circ = Circuit(1, (Gate(RY, target=0, param_slot=0),
                       Gate(RY, target=0, param_slot=1)), 2)
    spec = ScoreSpec(kind=S1, omega=HARMONIC, big_k=1e308)
    for theta in ([0.3, 0.2], [[0.3, 0.2], [0.4, 0.1]]):
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="raw score must be finite"):
            score(theta, circ, None, spec)


def test_omega_trace():
    spec = ScoreSpec(kind=S1, omega=TRACE, eps=1e-6)
    assert abs(omega_reduce(np.eye(2), spec) - (2 + 2e-6)) < 1e-15
    assert abs(omega_reduce(np.diag([3.0, 1.0]), spec) - (4 + 2e-6)) < 1e-15


def test_omega_log_det():
    spec = ScoreSpec(kind=S1, omega=LOG_DET, eps=1e-12)
    got = omega_reduce(np.diag([1.0, math.e]), spec)
    assert abs(got - 1.0) < 1e-9
    with pytest.raises(ValueError):
        omega_reduce(np.diag([-1.0, 1.0]), ScoreSpec(omega=LOG_DET, eps=1e-6))


def test_omega_harmonic():
    spec = ScoreSpec(kind=S1, omega=HARMONIC, eps=1e-12, k_eigs=2, big_k=1.0)
    got = omega_reduce(np.diag([4.0, 1.0]), spec)
    assert abs(got - 1.25) < 1e-9
    # k_eigs larger than p falls back to all eigenvalues
    spec = ScoreSpec(kind=S1, omega=HARMONIC, eps=1e-12, k_eigs=5, big_k=2.0)
    assert abs(omega_reduce(np.diag([4.0, 1.0]), spec) - 2.5) < 1e-9
    # top-k means the largest eigenvalues
    spec = ScoreSpec(kind=S1, omega=HARMONIC, eps=1e-12, k_eigs=1)
    assert abs(omega_reduce(np.diag([4.0, 1.0]), spec) - 0.25) < 1e-9


def test_order_statistic():
    assert abs(order_statistic([1.0, -2.0, 3.0], 2) - 14.0 / 3.0) < 1e-12
    assert order_statistic(np.zeros(5), 3) == 0.0
    assert abs(order_statistic([-0.7, -0.7], 1) - 0.7) < 1e-12
    with pytest.raises(ValueError):
        order_statistic([], 2)
    with pytest.raises(ValueError):
        order_statistic([1.0], 0)


def hermitian_stack(rng, b, p, dtype=float):
    """b random (p, p) Hermitian matrices, exactly Hermitian."""
    a = rng.standard_normal((b, p, p))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((b, p, p))
    return (a + a.conj().swapaxes(-2, -1)) / 2


def psd_stack(rng, b, p):
    """b random positive definite (p, p) matrices."""
    a = hermitian_stack(rng, b, p)
    return a @ a + 0.1 * np.eye(p)


def qfim_on(circ, grad_fn=None):
    if grad_fn is not None:
        return lambda theta: qfim_empirical(grad_fn(theta))
    return lambda theta: qfim(circ, theta)


def untagged_72():
    """72 parameters on an untagged circuit: the empirical rung."""
    big = build_strongly_entangling(8, 3)
    circ = Circuit(big.num_qubits, big.gates, big.num_params)
    obs = Observable(((1.0, "ZZZ"), (0.5, "XIY")))
    return circ, lambda theta: observable_gradient(circ, theta, obs)


# each stack form as (function, (B, ...) stack), at p > 8 so that numpy's
# pairwise summation runs along the reduced axis
STACK_FORMS = {
    "omega_reduce-trace": lambda rng: (
        lambda f: omega_reduce(f, ScoreSpec(omega=TRACE)),
        psd_stack(rng, 5, 24)),
    "omega_reduce-log_det": lambda rng: (
        lambda f: omega_reduce(f, ScoreSpec(omega=LOG_DET)),
        psd_stack(rng, 5, 24)),
    "omega_reduce-harmonic": lambda rng: (
        lambda f: omega_reduce(f, ScoreSpec(omega=HARMONIC, k_eigs=20)),
        psd_stack(rng, 5, 24)),
    "order_statistic": lambda rng: (
        lambda g: order_statistic(g, 3), rng.standard_normal((5, 40))),
    "qfim_empirical": lambda rng: (qfim_empirical,
                                   rng.standard_normal((5, 40))),
    "hermitian_eigenvalues-real": lambda rng: (
        hermitian_eigenvalues, hermitian_stack(rng, 5, 24)),
    "hermitian_eigenvalues-complex": lambda rng: (
        hermitian_eigenvalues, hermitian_stack(rng, 5, 24, complex)),
    "qfim-exact": lambda rng: (qfim_on(build_hea(3, 4)),
                               rng.uniform(0, 2 * math.pi, (5, 24))),
    "qfim-block_diagonal": lambda rng: (
        qfim_on(build_strongly_entangling(8, 3)),
        rng.uniform(0, 2 * math.pi, (3, 72))),
    "qfim-empirical": lambda rng: (qfim_on(*untagged_72()),
                                   rng.uniform(0, 2 * math.pi, (3, 72))),
}


@pytest.mark.parametrize("name", sorted(STACK_FORMS))
def test_stack_form_equals_its_per_row_calls(name):
    """Each quantity of the scoring path takes one row or a stack, and
    row b of the stacked result is bit for bit the result of row b alone."""
    fn, stack = STACK_FORMS[name](np.random.default_rng(31))
    got = fn(stack)
    assert len(got) == len(stack)
    for row, want in zip(stack, got):
        one = fn(row)
        assert np.shape(one) == np.shape(want)
        assert np.array_equal(one, want)


def test_score_single_ry_all_kinds():
    circ, cost = single_ry()
    theta = [math.pi / 2]
    eps = 1e-12
    s1 = score(theta, circ, lambda th: gradient(circ, th, cost),
               ScoreSpec(kind=S1, eps=eps))
    assert abs(s1 - 1.0) < 1e-9  # QFIM [[1]], trace
    s2 = score(theta, circ, lambda th: gradient(circ, th, cost),
               ScoreSpec(kind=S2, t=2))
    assert abs(s2 - 1.0) < 1e-9  # grad [-1], mean square
    s3 = score(theta, circ, lambda th: gradient(circ, th, cost),
               ScoreSpec(kind=S3, w=0.9, eps=eps))
    assert abs(s3 - 1.0) < 1e-9


def test_score_s3_endpoints_match_branches():
    rng = np.random.default_rng(61)
    circ = build_hea(2, 2)
    obs = Observable(terms=((0.7, "ZI"), (0.3, "XX")))
    cost = lambda rows: expectation(apply_circuit(circ, rows), obs)
    theta = rng.uniform(0, 2 * math.pi, circ.num_params)
    s1 = score(theta, circ, lambda th: gradient(circ, th, cost),
               ScoreSpec(kind=S1))
    s2 = score(theta, circ, lambda th: gradient(circ, th, cost),
               ScoreSpec(kind=S2))
    assert score(theta, circ, lambda th: gradient(circ, th, cost),
                 ScoreSpec(kind=S3, w=0.0)) == s1
    assert score(theta, circ, lambda th: gradient(circ, th, cost),
                 ScoreSpec(kind=S3, w=1.0)) == s2
    blended = score(theta, circ, lambda th: gradient(circ, th, cost),
                    ScoreSpec(kind=S3, w=0.25))
    assert abs(blended - (0.75 * s1 + 0.25 * s2)) < 1e-12


def test_score_requires_cost_for_gradient_kinds():
    circ, _ = single_ry()
    with pytest.raises(ValueError):
        score([0.3], circ, None, ScoreSpec(kind=S2))
    with pytest.raises(ValueError):
        score([0.3], circ, None, ScoreSpec(kind=S3))
    assert score([0.3], circ, None, ScoreSpec(kind=S1)) > 0


def test_trace_of_stabilized_psd_at_least_p_eps():
    rng = np.random.default_rng(62)
    circ = build_hea(2, 3)
    spec = ScoreSpec(kind=S1, omega=TRACE, eps=1e-6)
    for _ in range(5):
        theta = rng.uniform(0, 2 * math.pi, circ.num_params)
        value = omega_reduce(qfim_exact(circ, theta), spec)
        assert value >= circ.num_params * spec.eps - 1e-15


def test_utility_shape_known_values():
    got = utility_shape([10.0, 20.0, 30.0, 40.0, 50.0])
    assert np.allclose(got, [-0.5, -0.25, 0.0, 0.25, 0.5])
    # unsorted input keeps position alignment
    got = utility_shape([30.0, 10.0, 50.0])
    assert np.allclose(got, [0.0, -0.5, 0.5])


def test_utility_shape_ties_by_index():
    assert np.allclose(utility_shape([5.0, 5.0]), [-0.5, 0.5])
    got = utility_shape([1.0, 1.0, 1.0, 0.0])
    assert np.allclose(got, [-1.0 / 6.0, 1.0 / 6.0, 0.5, -0.5])


def test_utility_shape_properties():
    rng = np.random.default_rng(63)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        raw = rng.standard_normal(n)
        util = utility_shape(raw)
        assert abs(util.sum()) < 1e-12
        assert util.min() >= -0.5 - 1e-12 and util.max() <= 0.5 + 1e-12
        # monotone: larger raw never gets smaller utility
        order = np.argsort(raw, kind="stable")
        assert np.all(np.diff(util[order]) > 0)
        # permutation equivariance on distinct values
        raw = np.unique(rng.standard_normal(n))
        perm = rng.permutation(len(raw))
        assert np.allclose(utility_shape(raw)[perm], utility_shape(raw[perm]))
    with pytest.raises(ValueError):
        utility_shape([1.0])


def test_utility_invariant_under_monotone_transform():
    rng = np.random.default_rng(64)
    raw = rng.standard_normal(16)
    assert np.allclose(utility_shape(raw), utility_shape(np.exp(raw)))
    assert np.allclose(utility_shape(raw), utility_shape(3.0 * raw + 7.0))


def test_initialization_objective_deterministic():
    circ, cost = single_ry()
    # the objective scores a (B, p) stack, so the callable gets all of it
    shift = lambda ths: np.array([gradient(circ, th, cost) for th in ths])
    objective = initialization_objective(circ, ScoreSpec(kind=S3), shift)
    hp = HyperParams(GAUSSIAN, (0.0, 1.0))
    a = objective(hp, child_rng(9, "rollout", 0))
    b = objective(hp, child_rng(9, "rollout", 0))
    assert a == b
    c = objective(hp, child_rng(9, "rollout", 1))
    assert a != c
    averaged = initialization_objective(circ, ScoreSpec(kind=S3), shift,
                                        theta_draws=8)
    assert math.isfinite(averaged(hp, child_rng(9)))
    with pytest.raises(ValueError):
        initialization_objective(circ, ScoreSpec(), shift, theta_draws=0)


def per_theta_score(theta, circ, grad_fn, spec, features):
    """The score of one theta composed from qfim (or qfim_empirical on the
    empirical rung), omega_reduce and order_statistic, as a reference for
    the batch path."""
    empirical = (differentiation.qfim_fidelity(circ)
                 == differentiation.FIDELITY_EMPIRICAL)
    fisher = omega_reduce(qfim_empirical(grad_fn(theta)) if empirical
                          else qfim(circ, theta, features), spec)
    if spec.kind == S1:
        return fisher
    grad = order_statistic(grad_fn(theta), spec.t)
    if spec.kind == S2:
        return grad
    return (1.0 - spec.w) * fisher + spec.w * grad


@given(st.one_of(random_circuits(), tagged_circuits()), st.data())
def test_score_batch_matches_per_theta_scores(circ, data):
    """Random circuits and the three builders, with and without embedded
    features, on the exact path and, with the threshold at 0, on the block
    path (tagged) or the empirical one (untagged); the gradient given as a
    Pauli sum or as a callable."""
    p, f = circ.num_params, circ.num_features
    rows = data.draw(st.integers(1, 5))
    thetas = np.array(data.draw(st.lists(
        st.lists(ANGLES, min_size=p, max_size=p), min_size=rows,
        max_size=rows)))
    features = (np.array(data.draw(st.lists(ANGLES, min_size=f, max_size=f)))
                if f else None)
    spec = ScoreSpec(kind=data.draw(st.sampled_from(SCORE_KINDS)),
                     omega=data.draw(st.sampled_from(OMEGA_KINDS)),
                     w=data.draw(st.floats(0.0, 1.0)))
    obs = data.draw(pauli_sums(circ.num_qubits))
    grad_fn = lambda theta: observable_gradient(circ, theta, obs, features)
    source = obs if data.draw(st.booleans()) else grad_fn
    with pytest.MonkeyPatch.context() as mp:
        if data.draw(st.booleans()):
            mp.setattr(differentiation, "EXACT_QFIM_MAX_PARAMS", 0)
        got = score(thetas, circ, source, spec, features)
        assert got.shape == (rows,)
        want = [per_theta_score(theta, circ, grad_fn, spec, features)
                for theta in thetas]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        singles = [score(theta, circ, source, spec, features)
                   for theta in thetas]
        assert all(type(single) is float for single in singles)
        np.testing.assert_allclose(got, singles, rtol=1e-12, atol=1e-12)
        # one theta per chunk, then two
        for per_chunk in (1, 2):
            mp.setattr(differentiation, "MAX_SWEEP_AMPLITUDES",
                       per_chunk * (p + 1) << circ.num_qubits)
            assert sweep_batch_size(circ) == per_chunk
            np.testing.assert_allclose(
                score(thetas, circ, source, spec, features), got,
                rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("exact_max", [64, 0])
def test_trace_scores_run_no_derivative_sweep(exact_max):
    """At omega=trace, s1 and s3 on the exact rung and (threshold 0) the
    block rung equal omega_reduce of the full QFIM, blended with the order
    statistic of the adjoint gradient, without a derivative sweep; a (B, p)
    population keeps the bits of each theta scored alone."""
    rng = np.random.default_rng(14)
    obs = Observable(((1.0, "ZZZ"), (0.5, "XIY")))
    build = qfim_exact if exact_max else qfim_block_diagonal

    def no_sweep(*args):
        raise AssertionError("derivative sweep at omega=trace")
    for circ in (build_two_design(2, 3, 4), build_strongly_entangling(2, 3),
                 build_hea(3, 3)):
        thetas = rng.uniform(0, 2 * math.pi, (6, circ.num_params))
        for kind in (S1, S3):
            spec = ScoreSpec(kind=kind, w=0.3)
            want = []
            for theta in thetas:
                fisher = omega_reduce(build(circ, theta), spec)
                grad = order_statistic(observable_gradient(circ, theta, obs),
                                       spec.t)
                want.append(fisher if kind == S1 else
                            (1.0 - spec.w) * fisher + spec.w * grad)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(differentiation, "EXACT_QFIM_MAX_PARAMS",
                           exact_max)
                assert differentiation.qfim_fidelity(circ) == (
                    "exact" if exact_max else "block_diagonal")
                mp.setattr(differentiation, "_derivative_sweep", no_sweep)
                got = score(thetas, circ, obs, spec)
                singles = [score(theta, circ, obs, spec) for theta in thetas]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            assert np.array_equal(got, singles)


def test_empirical_trace_score_stays_the_squared_gradient_norm():
    """Above the threshold on an untagged circuit, s1 at omega=trace keeps
    the rank-one surrogate: |g|^2 + p * eps, not the true QFIM trace."""
    rng = np.random.default_rng(15)
    circ = build_hea(2, 3)
    untagged = Circuit(3, circ.gates, circ.num_params)
    obs = Observable(((1.0, "ZZZ"), (0.5, "XIY")))
    thetas = rng.uniform(0, 2 * math.pi, (4, circ.num_params))
    spec = ScoreSpec(kind=S1)
    grads = observable_gradient(untagged, thetas, obs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(differentiation, "EXACT_QFIM_MAX_PARAMS", 0)
        got = score(thetas, untagged, obs, spec)
    want = [np.sum(g * g) + circ.num_params * spec.eps for g in grads]
    assert np.array_equal(got, want)


def qml_score_tasks():
    """Classifiers on 3 qubits, untagged so that a zero threshold takes the
    empirical QFIM: 12 training rows on the shared path, 5 rows (fewer
    than the 2^3 basis rows) on the per-row path, and a circuit that
    re-uploads feature 0 after the trained gates, also per row."""
    rng = np.random.default_rng(41)
    tagged = embed_angles(build_strongly_entangling(2, 3), 3)
    plain = Circuit(3, tagged.gates, tagged.num_params,
                    tagged.embedding_slots)
    reupload = Circuit(3, plain.gates[1:] + plain.gates[:1],
                       plain.num_params, plain.embedding_slots)
    tasks = []
    for circ, rows in ((plain, 12), (plain, 5), (reupload, 12)):
        feats = rng.uniform(0, math.pi, (rows, 3))
        labels = np.arange(rows) % 3
        tasks.append(QmlTask(circ, feats, labels, 3))
    assert [task._embedded is not None for task in tasks] == [
        True, False, False]
    return tasks


@pytest.mark.parametrize("kind, exact_max", [(S2, 64), (S3, 64), (S1, 0),
                                             (S3, 0)])
def test_batched_qml_score_matches_per_theta_scores(kind, exact_max):
    """score on a (B, p) population calls QmlTask.gradient once, with the
    whole stack, and each row keeps the bits of its theta scored alone, on
    the exact QFIM and (threshold 0) the empirical one."""
    rng = np.random.default_rng(42)
    spec = ScoreSpec(kind=kind)
    for task in qml_score_tasks():
        circ = task.circuit
        features = task.train_features.mean(axis=0)
        thetas = rng.uniform(0, 2 * math.pi, (6, circ.num_params))
        calls = []

        def counted(theta):
            calls.append(np.shape(theta))
            return task.gradient(theta)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(differentiation, "EXACT_QFIM_MAX_PARAMS", exact_max)
            got = score(thetas, circ, counted, spec, features)
            assert calls == [thetas.shape]
            want = []
            for theta in thetas:
                calls.clear()
                want.append(score(theta, circ, counted, spec, features))
                assert calls == [theta.shape]
        assert np.array_equal(got, want)


def test_score_batch_nan_row_raises():
    obs = Observable(((1.0, "ZZZ"),))
    grad_fn = lambda theta: observable_gradient(circ, theta, obs)
    for circ in (build_hea(2, 3), build_strongly_entangling(2, 3)):
        thetas = np.full((4, circ.num_params), 0.3)
        thetas[2, -1] = math.nan
        for exact_max in (64, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(differentiation, "EXACT_QFIM_MAX_PARAMS", exact_max)
                for kind in SCORE_KINDS:
                    for source in (obs, grad_fn):
                        with pytest.raises(FloatingPointError):
                            score(thetas, circ, source,
                                  ScoreSpec(kind=kind))


def test_score_batch_validation():
    circ = build_hea(1, 2)
    with pytest.raises(ValueError, match="shape"):
        score(np.zeros((2, circ.num_params + 1)), circ, None,
              ScoreSpec(kind=S1))
    with pytest.raises(ValueError, match="task gradient"):
        score(np.zeros((2, circ.num_params)), circ, None, ScoreSpec(kind=S2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(differentiation, "EXACT_QFIM_MAX_PARAMS", 0)
        untagged = Circuit(2, circ.gates, circ.num_params)
        with pytest.raises(ValueError, match="empirical QFIM"):
            score(np.zeros((2, circ.num_params)), untagged, None,
                  ScoreSpec(kind=S1))


@pytest.mark.parametrize("theta_draws", [1, 2])
@pytest.mark.parametrize("kind", SCORE_KINDS)
def test_es_trace_same_through_batch_form(kind, theta_draws):
    circ = build_two_design(2, 3, seed=4)
    obs = Observable(((1.0, "ZZZ"), (0.5, "XIY")))
    spec = ScoreSpec(kind=kind, omega=LOG_DET)
    objective = initialization_objective(circ, spec, obs,
                                         theta_draws=theta_draws)
    assert hasattr(objective, "batch")

    def rollout(hp, rng):
        # the per-rollout form from score alone; each score takes its
        # gradient by the path its batch would, so the bits agree
        total = 0.0
        for _ in range(theta_draws):
            theta = sample_params(hp, circ.num_params, rng)
            total += score(theta, circ, obs, spec)
        return total / theta_draws

    cfg = EsConfig(n_iters=3, eps_converge=1e-12)
    hp0 = HyperParams(BETA, (1.5, 2.0))
    batched = es_optimize(objective, hp0, cfg, 7)
    single = es_optimize(lambda hp, rng: objective(hp, rng), hp0, cfg, 7)
    composed = es_optimize(rollout, hp0, cfg, 7)
    assert batched[0] == single[0] == composed[0]
    assert batched[1] == single[1] == composed[1]


# bp-scan's largest scoring call, looped for about 0.3 s; prints the
# process CPU time and the wall time of the loop, and each thread's CPU
# time over the loop (utime + stime from /proc/self/task/*/stat, where it
# exists), keyed "tid name", so a failure names the thread that worked
_SCORING_LOOP = """
import glob, json, os, time
import numpy as np
from qinitopt.scoring import S3, ScoreSpec, score
from qinitopt.simulator import Observable, build_two_design

def thread_cpu():
    seconds = {}
    for path in glob.glob("/proc/self/task/*/stat"):
        with open(path) as stat:
            text = stat.read()
        name = text[text.index("(") + 1:text.rindex(")")]
        fields = text[text.rindex(")") + 2:].split()  # from field 3 on
        seconds[path.split("/")[4] + " " + name] = (
            int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    return seconds

circuit = build_two_design(5, 8, 0)
obs = Observable(((1.0, "Z" * 8),))
thetas = np.random.default_rng(0).uniform(0, 2 * np.pi,
                                          (6, circuit.num_params))
spec = ScoreSpec(kind=S3)
score(thetas, circuit, obs, spec)
# OpenBLAS's idle worker, started at numpy's import, can burn CPU for a
# while whatever the main thread does: wait, at most 2 s, until no other
# thread gains CPU over 0.1 s
def others():
    return {key: value for key, value in thread_cpu().items()
            if not key.startswith(f"{os.getpid()} ")}

settle = time.perf_counter() + 2.0
while time.perf_counter() < settle:
    idle = others()
    time.sleep(0.1)
    if others() == idle:
        break
before = thread_cpu()
wall, cpu = time.perf_counter(), time.process_time()
while time.perf_counter() - wall < 0.3:
    score(thetas, circuit, obs, spec)
times = {"cpu": time.process_time() - cpu, "wall": time.perf_counter() - wall}
times["threads"] = {key: round(value - before.get(key, 0.0), 3)
                    for key, value in thread_cpu().items()}
print(json.dumps(times))
"""


def test_exact_scoring_runs_on_one_thread():
    """The exact-QFIM s3 score of bp-scan's 8-qubit population, under the
    user's default BLAS threads, takes no more CPU time than wall time: no
    second thread works or spins beside the contractions. The loop starts
    once the other threads have gone idle, or after 2 s. On a failure the
    message lists each thread's CPU time over the loop."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", _SCORING_LOOP], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    times = json.loads(done.stdout)
    assert times["cpu"] <= 1.05 * times["wall"] + 0.02, times
