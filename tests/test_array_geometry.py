import math

import numpy as np
import pytest
from helpers_oracles import dense_operator, pt_response_derivative_operator, sample_response

from onebit_isac.array_geometry import (
    EtTarget,
    PtTarget,
    exponential_correlation,
    pt_response_operator,
    receive_basis,
    steering,
    steering_derivative,
)
from onebit_isac.linalg import complex_normal, vec_rows


def test_steering_broadside_is_uniform():
    assert np.allclose(steering(4, 0.0), 0.5 * np.ones(4))


def test_steering_single_element():
    assert np.allclose(steering(1, 0.7), np.array([1.0]))


def test_steering_phase_at_30_degrees():
    # entry 1 phase is -pi*sin(30deg) = -pi/2, computed analytically
    v = steering(16, np.deg2rad(30.0))
    assert np.angle(v[1]) == pytest.approx(-np.pi / 2, abs=1e-12)


def test_steering_unit_norm_randomized():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        theta = rng.uniform(-np.pi / 2, np.pi / 2)
        assert abs(np.linalg.norm(steering(n, theta)) - 1.0) < 1e-12


def test_steering_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        steering(0, 0.0)
    with pytest.raises(ValueError):
        steering(4, 2.0)
    with pytest.raises(ValueError):
        steering_derivative(0, 0.0)


SIZED_CALLS = {
    "steering": lambda n: steering(n, 0.3),
    "steering_derivative": lambda n: steering_derivative(n, 0.3),
    "exponential_correlation": lambda n: exponential_correlation(n),
    "pt_response_operator": lambda n: pt_response_operator(0.3, n, 4, 4),
}


@pytest.mark.parametrize("bad", [0, -1, 2.5, 3.0, True, None])
@pytest.mark.parametrize("name", SIZED_CALLS)
def test_array_sizes_must_be_integers_of_at_least_one(name, bad):
    # 2.5 used to give a 3-vector or a block length of 2, True a 1-vector
    with pytest.raises(ValueError, match="must be an integer of at least 1"):
        SIZED_CALLS[name](bad)


@pytest.mark.parametrize("name", SIZED_CALLS)
def test_array_sizes_accept_numpy_integers(name):
    for size in (np.int64(3), np.int32(3)):
        got, want = SIZED_CALLS[name](size), SIZED_CALLS[name](3)
        if name == "pt_response_operator":
            assert got.block_len == want.block_len == 3
            got, want = got.apply(np.ones(12)), want.apply(np.ones(12))
        assert np.array_equal(got, want)


def test_steering_derivative_endfire_vanishes():
    assert np.allclose(steering_derivative(6, np.pi / 2), 0.0)
    assert np.allclose(steering_derivative(6, -np.pi / 2), 0.0)


def test_steering_derivative_entry_zero():
    assert steering_derivative(8, 0.3)[0] == 0.0


def _central_diff(fn, theta, h=1e-6):
    return (fn(theta + h) - fn(theta - h)) / (2.0 * h)


def test_steering_derivative_finite_difference():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 24))
        theta = rng.uniform(-1.4, 1.4)
        fd = _central_diff(lambda t: steering(n, t), theta)
        an = steering_derivative(n, theta)
        assert np.linalg.norm(an - fd) / np.linalg.norm(fd) < 1e-6


def test_pt_operator_matched_filter_case():
    # L=1, x = conj(a_t): a_t^T conj(a_t) = 1, output is a_r
    theta = 0.4
    op = pt_response_operator(theta, 1, 4, 3)
    out = op.apply(steering(4, theta).conj())
    assert np.allclose(out, steering(3, theta), atol=1e-12)


def test_pt_operator_zero_maps_to_zero():
    op = pt_response_operator(0.3, 2, 3, 3)
    assert np.allclose(op.apply(np.zeros(6)), 0.0)


def test_pt_operator_dense_equivalence():
    rng = np.random.default_rng(2)
    op = pt_response_operator(0.5, 2, 3, 3)
    dense = dense_operator(op)
    for _ in range(10):
        x = complex_normal(rng, 6)
        assert np.linalg.norm(op.apply(x) - dense @ x) < 1e-12


def test_pt_operator_rejects_dimension_mismatch():
    op = pt_response_operator(0.5, 2, 3, 3)
    with pytest.raises(ValueError):
        op.apply(np.zeros(5))


def test_pt_operator_dense_guard():
    op = pt_response_operator(0.1, 64, 16, 16)
    with pytest.raises(ValueError):
        dense_operator(op, max_entries=4096)


def test_pt_derivative_operator_endfire_is_zero():
    op = pt_response_derivative_operator(np.pi / 2, 2, 3, 3)
    rng = np.random.default_rng(3)
    x = complex_normal(rng, 6)
    assert np.linalg.norm(op @ x) < 1e-12


def test_pt_derivative_operator_finite_difference():
    rng = np.random.default_rng(4)
    x = complex_normal(rng, 6)
    theta = 0.3
    fd = _central_diff(lambda t: pt_response_operator(t, 2, 3, 3).apply(x), theta)
    an = pt_response_derivative_operator(theta, 2, 3, 3) @ x
    assert np.linalg.norm(an - fd) / np.linalg.norm(fd) < 1e-6


def test_pt_derivative_dense_equivalence():
    dense = pt_response_derivative_operator(0.7, 2, 3, 3)
    fd = _central_diff(lambda t: dense_operator(pt_response_operator(t, 2, 3, 3)), 0.7)
    assert np.linalg.norm(dense - fd) / np.linalg.norm(fd) < 1e-6


def test_operator_dense_agreement_up_to_64():
    rng = np.random.default_rng(6)
    for n_t, n_r, block in [(4, 4, 4), (8, 8, 8), (2, 16, 4)]:
        op = pt_response_operator(0.25, block, n_t, n_r)
        dense = dense_operator(op)
        x = complex_normal(rng, n_t * block)
        assert np.linalg.norm(op.apply(x) - dense @ x) < 1e-12
        fd = _central_diff(
            lambda t: pt_response_operator(t, block, n_t, n_r).apply(x), 0.25)
        an = pt_response_derivative_operator(0.25, block, n_t, n_r) @ x
        assert np.linalg.norm(an - fd) / np.linalg.norm(fd) < 1e-6


@pytest.mark.parametrize("n_r", [1, 2, 3, 8, 32])
def test_receive_basis_holds_the_steering_derivative(n_r):
    rng = np.random.default_rng(n_r)
    for theta in list(rng.uniform(-np.pi / 2, np.pi / 2, 5)) + [np.pi / 2, -np.pi / 2]:
        q = receive_basis(n_r, theta)
        assert q.shape == (n_r, min(n_r, 2))
        assert np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1])) < 1e-14
        assert np.allclose(q[:, 0], steering(n_r, theta), rtol=0.0, atol=1e-15)
        da = steering_derivative(n_r, theta)
        residual = da - q @ (q.conj().T @ da)
        assert np.linalg.norm(residual) <= 1e-14 * np.linalg.norm(da)


def test_exponential_correlation_entries():
    phi = exponential_correlation(4, 0.5)
    assert phi[0, 1] == pytest.approx(0.5)
    assert phi[0, 3] == pytest.approx(0.125)
    assert np.allclose(np.diag(phi), 1.0)


def test_et_prior_covariance_identity():
    assert np.allclose(EtTarget(np.eye(3), np.eye(2)).c_aa, np.eye(6))


def test_et_prior_covariance_hermitian_psd():
    c = EtTarget(exponential_correlation(3, 0.5), exponential_correlation(4, 0.5)).c_aa
    assert np.linalg.norm(c - c.conj().T) < 1e-12
    assert np.linalg.eigvalsh(c).min() > -1e-10


def test_et_prior_covariance_rejects_non_psd():
    with pytest.raises(ValueError):
        EtTarget(np.diag([1.0, -1.0]), np.eye(2))


def test_et_sample_identity_correlation_unit_variance():
    rng = np.random.default_rng(7)
    target = EtTarget(np.eye(2), np.eye(2))
    draws = np.array([sample_response(target, rng) for _ in range(10000)])
    var = np.mean(np.abs(draws) ** 2, axis=0)
    assert np.all(np.abs(var - 1.0) < 0.05)


def test_et_sample_covariance_matches_prior():
    rng = np.random.default_rng(8)
    phi_r = exponential_correlation(2, 0.5)
    phi_t = exponential_correlation(2, 0.5)
    target = EtTarget(phi_r, phi_t)
    c_true = target.c_aa
    n = 100000
    # row i holds the 8 normals one sample_response(target, rng) call would draw
    samples = vec_rows(target.responses(rng.standard_normal((n, 8))))
    c_emp = samples.conj().T @ samples / n
    c_emp = c_emp.T  # E[a a^H]
    se = np.sqrt(np.outer(np.diag(c_true).real, np.diag(c_true).real) / n)
    assert np.all(np.abs(c_emp - c_true) <= 3.0 * se + 1e-12)


def test_et_sample_deterministic_given_seed():
    target = EtTarget(np.eye(2), np.eye(2))
    a = sample_response(target, np.random.default_rng(42))
    b = sample_response(target, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_et_responses_match_per_draw_sample():
    # sample_response draws the real and then the imaginary parts of A, as the
    # per-trial draws did; a stack of normals gives each row's own response
    target = EtTarget(exponential_correlation(3, 0.6), exponential_correlation(2, 0.4))
    sr, st = target.roots
    normals = np.empty((5, 12))
    for seed, row in enumerate(normals):
        rng = np.random.default_rng(seed)
        re, im = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        want = sr @ ((re + 1j * im) * (1.0 / np.sqrt(2.0))) @ st
        assert np.array_equal(sample_response(target, np.random.default_rng(seed)), want)
        row[:] = np.concatenate((re.ravel(), im.ravel()))
    stacked = target.responses(normals)
    assert stacked.shape == (5, 3, 2)
    for seed, response in enumerate(stacked):
        assert np.array_equal(response, sample_response(target, np.random.default_rng(seed)))


def test_targets_validation():
    with pytest.raises(ValueError):
        PtTarget(0.1, sigma_alpha_sq=0.0)
    for power in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma_alpha_sq must be positive and finite"):
            PtTarget(0.1, power)
    t = EtTarget(np.eye(2), np.eye(3))
    assert np.allclose(t.c_aa, np.eye(6))
    # a NaN correlation once built a NaN c_aa
    for bad in (math.nan, math.inf):
        corr = np.array([[1.0, bad], [bad, 1.0]])
        for phi_r, phi_t in ((corr, np.eye(2)), (np.eye(2), corr)):
            with pytest.raises(ValueError, match="non-finite"):
                EtTarget(phi_r, phi_t)
