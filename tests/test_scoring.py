"""Score functions and utility shaping against hand-computed values."""
import math

import numpy as np
import pytest

from qinitopt.differentiation import Qfim, gradient, qfim_exact
from qinitopt.distributions import GAUSSIAN, HyperParams, child_rng
from qinitopt.scoring import (HARMONIC, LOG_DET, S1, S2, S3, TRACE, ScoreSpec,
                              ScoreValue, initialization_objective,
                              omega_reduce, order_statistic, score,
                              utility_shape)
from qinitopt.simulator import (Circuit, Gate, Observable, RY, apply_circuit,
                                build_hea, expectation)


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
    with pytest.raises(ValueError):
        ScoreSpec(k_eigs=0)
    with pytest.raises(ValueError):
        ScoreValue(raw=math.nan)


def test_omega_trace():
    spec = ScoreSpec(kind=S1, omega=TRACE, eps=1e-6)
    assert abs(omega_reduce(np.eye(2), spec) - (2 + 2e-6)) < 1e-15
    fisher = Qfim(np.diag([3.0, 1.0]), "exact")
    assert abs(omega_reduce(fisher, spec) - (4 + 2e-6)) < 1e-15


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


def test_score_single_ry_all_kinds():
    circ, cost = single_ry()
    theta = [math.pi / 2]
    eps = 1e-12
    s1 = score(theta, circ, lambda th: gradient(circ, th, cost),
               ScoreSpec(kind=S1, eps=eps)).raw
    assert abs(s1 - 1.0) < 1e-9  # QFIM [[1]], trace
    s2 = score(theta, circ, lambda th: gradient(circ, th, cost),
               ScoreSpec(kind=S2, t=2)).raw
    assert abs(s2 - 1.0) < 1e-9  # grad [-1], mean square
    s3 = score(theta, circ, lambda th: gradient(circ, th, cost),
               ScoreSpec(kind=S3, w=0.9, eps=eps)).raw
    assert abs(s3 - 1.0) < 1e-9


def test_score_s3_endpoints_match_branches():
    rng = np.random.default_rng(61)
    circ = build_hea(2, 2)
    obs = Observable(terms=((0.7, "ZI"), (0.3, "XX")))
    cost = lambda rows: expectation(apply_circuit(circ, rows), obs)
    theta = rng.uniform(0, 2 * math.pi, circ.num_params)
    s1 = score(theta, circ, lambda th: gradient(circ, th, cost),
               ScoreSpec(kind=S1)).raw
    s2 = score(theta, circ, lambda th: gradient(circ, th, cost),
               ScoreSpec(kind=S2)).raw
    assert score(theta, circ, lambda th: gradient(circ, th, cost),
                 ScoreSpec(kind=S3, w=0.0)).raw == s1
    assert score(theta, circ, lambda th: gradient(circ, th, cost),
                 ScoreSpec(kind=S3, w=1.0)).raw == s2
    blended = score(theta, circ, lambda th: gradient(circ, th, cost),
                    ScoreSpec(kind=S3, w=0.25)).raw
    assert abs(blended - (0.75 * s1 + 0.25 * s2)) < 1e-12


def test_score_requires_cost_for_gradient_kinds():
    circ, _ = single_ry()
    with pytest.raises(ValueError):
        score([0.3], circ, None, ScoreSpec(kind=S2))
    with pytest.raises(ValueError):
        score([0.3], circ, None, ScoreSpec(kind=S3))
    assert score([0.3], circ, None, ScoreSpec(kind=S1)).raw > 0


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
    objective = initialization_objective(
        circ, ScoreSpec(kind=S3), lambda th: gradient(circ, th, cost))
    hp = HyperParams(GAUSSIAN, (0.0, 1.0))
    a = objective(hp, child_rng(9, "rollout", 0))
    b = objective(hp, child_rng(9, "rollout", 0))
    assert a == b
    c = objective(hp, child_rng(9, "rollout", 1))
    assert a != c
    averaged = initialization_objective(
        circ, ScoreSpec(kind=S3), lambda th: gradient(circ, th, cost),
        theta_draws=8)
    assert math.isfinite(averaged(hp, child_rng(9)))
    with pytest.raises(ValueError):
        initialization_objective(
            circ, ScoreSpec(), lambda th: gradient(circ, th, cost),
            theta_draws=0)
