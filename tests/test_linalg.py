import math
import sys
import threading

import numpy as np
import pytest
from helpers_oracles import chol_logdet, dense_h_tilde

from onebit_isac import linalg
from onebit_isac.linalg import (
    build_penalty,
    complex_normal,
    hermitian_factor,
    hermitian_solve,
    power_iteration,
    project_power_ball,
    psd_sqrt,
    single_blas_thread,
    unvec,
    vec,
    xtilde_multiply,
)


def random_psd(rng, n, jitter=0.1):
    a = complex_normal(rng, (n, n))
    return a @ a.conj().T + jitter * np.eye(n)


def test_vec_unvec_column_stacking():
    a = np.arange(6).reshape(2, 3)
    v = vec(a)
    assert np.array_equal(v, np.array([0, 3, 1, 4, 2, 5]))
    assert np.array_equal(unvec(v, 2, 3), a)


def test_unvec_rejects_bad_length():
    with pytest.raises(ValueError):
        unvec(np.zeros(5), 2, 3)


def test_hermitian_solve_matches_generic():
    rng = np.random.default_rng(0)
    a = random_psd(rng, 6)
    b = complex_normal(rng, (6, 2))
    x = hermitian_solve(a, b)
    assert np.allclose(a @ x, b, atol=1e-10)


def test_hermitian_solve_jitter_fallback_on_singular():
    a = np.zeros((3, 3), dtype=complex)  # PSD but singular
    a[0, 0] = 1.0
    x = hermitian_solve(a + 1e-30 * np.eye(3), np.ones(3))
    assert np.all(np.isfinite(x))


def test_chol_logdet():
    rng = np.random.default_rng(1)
    a = random_psd(rng, 5)
    f = hermitian_factor(a)
    assert chol_logdet(f) == pytest.approx(np.linalg.slogdet(a)[1], rel=1e-10)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(2)
    a = random_psd(rng, 5)
    s = psd_sqrt(a)
    assert np.allclose(s @ s, a, atol=1e-10)


def test_psd_sqrt_clamps_small_negative():
    a = np.diag([1.0, -1e-14])
    s = psd_sqrt(a)
    assert np.allclose(s, np.diag([1.0, 0.0]), atol=1e-6)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(ValueError):
        psd_sqrt(np.diag([1.0, -0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_psd_sqrt_rejects_non_finite(bad):
    # a NaN eigenvalue once passed the indefiniteness test
    with pytest.raises(ValueError, match="non-finite"):
        psd_sqrt(np.array([[1.0, bad], [bad, 1.0]]))


def _counts(controls):
    return [get() for get, _ in controls]


def test_single_blas_thread_restores_counts(blas_controls):
    with single_blas_thread():
        assert _counts(blas_controls) == [1] * len(blas_controls)
        with single_blas_thread():
            assert _counts(blas_controls) == [1] * len(blas_controls)
        # the inner exit leaves the outer window at one thread
        assert _counts(blas_controls) == [1] * len(blas_controls)
    assert _counts(blas_controls) == [2] * len(blas_controls)
    with pytest.raises(RuntimeError, match="inside"):
        with single_blas_thread():
            raise RuntimeError("inside")
    assert _counts(blas_controls) == [2] * len(blas_controls)
    assert linalg._blas["depth"] == 0


def test_single_blas_thread_is_safe_across_threads(blas_controls):
    # more threads than cores, switching often: a lost depth update would
    # leave a count at 1 or restore it while another body is still inside
    errors = []

    def work():
        for _ in range(200):
            with single_blas_thread():
                if _counts(blas_controls) != [1] * len(blas_controls):
                    errors.append(_counts(blas_controls))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert _counts(blas_controls) == [2] * len(blas_controls)
    assert linalg._blas["depth"] == 0


def test_single_blas_thread_without_openblas_does_nothing(monkeypatch):
    def no_proc(*args, **kwargs):
        raise FileNotFoundError("/proc/self/maps")

    monkeypatch.setattr(linalg, "open", no_proc, raising=False)
    assert linalg._blas_thread_controls() == ()
    # looked up again on the next entry, and found empty
    monkeypatch.setitem(linalg._blas, "controls", None)
    with single_blas_thread():
        assert linalg._blas["controls"] == ()
        assert linalg._blas["depth"] == 1
    assert linalg._blas["depth"] == 0


def test_power_iteration_matches_eigvalsh():
    rng = np.random.default_rng(3)
    a = random_psd(rng, 8)
    lam, v, ok = power_iteration(lambda v: a @ v, 8, tol=1e-12)
    assert ok
    assert abs(np.vdot(v, a @ v).real - lam) < 1e-6 * lam
    assert lam == pytest.approx(np.linalg.eigvalsh(a)[-1], rel=1e-6)


def test_power_iteration_norm_is_numpy_norm_bit_for_bit():
    # the power iteration's vector norm skips np.linalg.norm's dispatch but
    # must sum exactly as it does, so iterates and eigenvalues are unchanged
    from onebit_isac.linalg import _norm

    rng = np.random.default_rng(4)
    for n in (1, 7, 32, 256, 1000):
        for v in (complex_normal(rng, n), rng.standard_normal(n), np.zeros(n, dtype=complex)):
            assert _norm(v) == np.linalg.norm(v)


def test_xtilde_gram_and_right_multiply():
    rng = np.random.default_rng(5)
    x = complex_normal(rng, (3, 4))
    dense = np.kron(x.T, np.eye(2))
    c = random_psd(rng, 6)
    l_mat = xtilde_multiply(x, c)
    assert np.allclose(l_mat, dense @ c, atol=1e-12)
    # the Gram as et_l_and_m forms it: X~ C X~^H = (X~ L^H)^H
    gram = xtilde_multiply(x, l_mat.conj().T).conj().T
    assert np.allclose(gram, dense @ c @ dense.conj().T, atol=1e-12)
    with pytest.raises(ValueError, match="not a multiple of n_t = 3"):
        xtilde_multiply(x, c[:5])


def test_penalty_matches_dense_kron():
    # rho ||H~ x - u + lambda||^2 with H~ = I_L kron H, its conjugate gradient
    # rho H~^H (H~ x - u + lambda) and curvature rho lambda_max(H~^H H~),
    # for one waveform and per waveform of a stack
    rng = np.random.default_rng(6)
    h = complex_normal(rng, (2, 3))
    block_len, rho = 4, 0.7
    u, lam = complex_normal(rng, 8), complex_normal(rng, 8)
    dense = dense_h_tilde(h, block_len)
    pen = build_penalty(rho, u, lam, h, 3, block_len)
    xs = complex_normal(rng, (5, 12))
    stack = np.swapaxes(xs.reshape(5, block_len, 3), 1, 2)
    for x, x_mat, value in zip(xs, stack, pen.value(pen.residual(stack))):
        assert np.array_equal(unvec(x, 3, block_len), x_mat)
        w = dense @ x - u + lam
        want = rho * np.vdot(w, w).real
        assert value == pytest.approx(want, rel=1e-12)
        residual = pen.residual(x_mat)
        assert np.allclose(vec(residual), w, atol=1e-12)
        assert pen.value(residual) == pytest.approx(want, rel=1e-12)
        assert np.allclose(vec(pen.descent(residual)), -rho * dense.conj().T @ w, atol=1e-12)
    assert pen.curvature() == pytest.approx(
        rho * np.linalg.eigvalsh(dense.conj().T @ dense)[-1], rel=1e-10)


@pytest.mark.parametrize("rho,u_len,channel", [(0.0, 8, (2, 3)), (0.7, 0, (0, 3)),
                                              (0.7, 8, None)])
def test_no_penalty_is_none(rho, u_len, channel):
    rng = np.random.default_rng(7)
    h = None if channel is None else complex_normal(rng, channel)
    assert build_penalty(rho, complex_normal(rng, u_len), complex_normal(rng, u_len), h,
                         3, 4) is None


@pytest.mark.parametrize("change,match", [
    (dict(rho=-1.0), "rho must be finite and non-negative"),
    (dict(rho=math.nan), "rho must be finite and non-negative"),
    (dict(rho=math.inf), "rho must be finite and non-negative"),
    (dict(u_i=None), "u_i and lambda_i must be finite vectors of length K L = 8"),
    (dict(u_i=np.zeros(7, complex)), "u_i and lambda_i must be finite vectors of length K L = 8"),
    (dict(u_i=np.zeros((2, 4), complex)), "u_i and lambda_i must be finite vectors of length K L = 8"),
    (dict(lambda_i=np.full(8, np.nan)), "u_i and lambda_i must be finite vectors of length K L = 8"),
    (dict(u_i=np.full(8, np.inf), lambda_i=np.full(8, np.inf)),
     "u_i and lambda_i must be finite vectors of length K L = 8"),
    (dict(channel=np.zeros((2, 4))), "channel must be a finite K x 3 matrix"),
    (dict(channel=np.zeros(3)), "channel must be a finite K x 3 matrix"),
    (dict(channel=np.full((2, 3), np.inf)), "channel must be a finite K x 3 matrix"),
])
def test_penalty_rejects_bad_input(change, match):
    rng = np.random.default_rng(8)
    args = dict(rho=0.7, u_i=complex_normal(rng, 8), lambda_i=complex_normal(rng, 8),
                channel=complex_normal(rng, (2, 3)))
    args.update(change)
    with pytest.raises(ValueError, match=match):
        build_penalty(**args, n_t=3, block_len=4)


def test_project_power_ball():
    x = np.array([3.0 + 4.0j])  # norm 5
    p = project_power_ball(x, 4.0)
    assert np.vdot(p, p).real == pytest.approx(4.0)
    inside = np.array([0.1 + 0.1j])
    assert project_power_ball(inside, 4.0) is inside
