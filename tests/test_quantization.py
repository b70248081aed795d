import numpy as np
import pytest
from helpers_oracles import dense_operator, dense_pt_workspace, lift, lift_vector, linearized_czz

from onebit_isac.array_geometry import pt_response_operator
from onebit_isac.crb_metrics import PtModel, et_l_and_m
from onebit_isac.linalg import complex_normal, psd_sqrt
from onebit_isac.quantization import (
    TWO_OVER_PI,
    arcsine_law,
    bussgang_gain,
    covariance_czz_exact,
    positive_diagonal,
    quantize_one_bit,
)


def random_cov(rng, n, noise=0.3):
    a = complex_normal(rng, (n, n))
    return a @ a.conj().T + noise * np.eye(n)


def test_quantizer_examples():
    assert quantize_one_bit(np.array([1 + 2j])) == pytest.approx((1 + 1j) / np.sqrt(2))
    assert quantize_one_bit(np.array([-0.5 - 0.1j])) == pytest.approx((-1 - 1j) / np.sqrt(2))


def test_quantizer_outputs_on_unit_circle():
    rng = np.random.default_rng(0)
    z = quantize_one_bit(complex_normal(rng, 10000))
    assert np.allclose(np.abs(z), 1.0, atol=1e-15)


def test_quantizer_sign_zero_convention():
    z = quantize_one_bit(np.array([0.0 + 0.0j, -0.0 - 0.0j, 0.0 - 3.0j]))
    assert z[0] == pytest.approx((1 + 1j) / np.sqrt(2))
    assert z[1] == pytest.approx((1 + 1j) / np.sqrt(2))
    assert z[2] == pytest.approx((1 - 1j) / np.sqrt(2))


def test_bussgang_gain_identity_covariance():
    f = bussgang_gain(np.eye(3))
    assert np.allclose(f, np.sqrt(TWO_OVER_PI))
    f4 = bussgang_gain(4.0 * np.eye(3))
    assert np.allclose(f4, np.sqrt(TWO_OVER_PI) / 2.0)


def test_bussgang_gain_scaling_identity():
    rng = np.random.default_rng(1)
    c = random_cov(rng, 5)
    f = bussgang_gain(c)
    assert np.allclose(f * np.sqrt(np.diag(c).real), np.sqrt(TWO_OVER_PI), atol=1e-12)


def test_bussgang_gain_rejects_nonpositive_diag():
    with pytest.raises(ValueError):
        bussgang_gain(np.diag([1.0, 0.0]))


@pytest.mark.parametrize("d", [[1.0, np.nan], [np.nan], [np.nan, -1.0], [2.0, 0.0]])
def test_positive_diagonal_rejects_nan_and_non_positive(d):
    with pytest.raises(ValueError, match="strictly positive"):
        positive_diagonal(np.array(d))
    with pytest.raises(ValueError, match="strictly positive"):
        bussgang_gain(np.diag(d))


def test_arcsine_law_rejects_nan_off_the_diagonal():
    rho = np.array([[1.0, np.nan], [0.5, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="modulus nan exceeds 1"):
        arcsine_law(rho, np.diag_indices(2))
    rho = np.array([[1.0, complex(0.3, np.nan)], [0.3, 1.0]])
    with pytest.raises(ValueError, match="modulus nan exceeds 1"):
        arcsine_law(rho, np.diag_indices(2))
    with pytest.raises(ValueError, match="modulus nan exceeds 1"):
        covariance_czz_exact(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    # the diagonal is set to one whatever it held
    vals = arcsine_law(np.array([[np.nan, 0.5], [0.5, 1.0]], dtype=complex), np.diag_indices(2))
    assert vals[0, 0] == 1.0 and vals[0, 1] == TWO_OVER_PI * np.arcsin(0.5)


def test_arcsine_law_matches_stacked_clip_bit_for_bit():
    # the parts clipped one at a time give the bits of the stacked clip,
    # rounding excesses and signed zeros included
    rng = np.random.default_rng(10)
    rho = complex_normal(rng, (6, 6)) / 2.0
    rho[0, 1:4] = [1.0 + 5e-10, -0.0 - 1e-10j, complex(-0.0, -0.0)]
    rho[2, 3] = complex(-5e-10, 1.0 + 4e-10) / abs(complex(-5e-10, 1.0 + 4e-10))
    unit = np.diag_indices(6)
    arcsin = np.arcsin(np.clip([rho.real, rho.imag], -1.0, 1.0))
    want = TWO_OVER_PI * (arcsin[0] + 1j * arcsin[1])
    want[unit] = 1.0
    assert arcsine_law(rho, unit).tobytes() == want.tobytes()


def test_czz_exact_identity():
    assert np.allclose(covariance_czz_exact(np.eye(4)), np.eye(4))


def test_czz_exact_unit_diagonal():
    rng = np.random.default_rng(2)
    c = random_cov(rng, 6)
    czz = covariance_czz_exact(c)
    assert np.array_equal(np.diag(czz), np.ones(6).astype(complex))
    assert np.linalg.norm(czz - czz.conj().T) < 1e-12


def test_czz_exact_rejects_invalid_correlation():
    bad = np.array([[1.0, 1.5], [1.5, 1.0]])
    with pytest.raises(ValueError):
        covariance_czz_exact(bad)
    # each part lies inside [-1, 1], so only the modulus check can catch it
    bad = np.array([[1.0, 0.9 + 0.9j], [0.9 - 0.9j, 1.0]])
    with pytest.raises(ValueError, match="modulus 1.27279 exceeds 1"):
        covariance_czz_exact(bad)
    # an excess inside the 1e-9 tolerance is rounding: clipped, not raised
    edge = np.array([[1.0, 1.0 + 5e-10], [1.0 + 5e-10, 1.0]])
    assert np.array_equal(covariance_czz_exact(edge), np.ones((2, 2), dtype=complex))


def test_czz_exact_monte_carlo():
    # quantize correlated Gaussian draws and compare empirical covariance
    rng = np.random.default_rng(3)
    c = random_cov(rng, 4, noise=0.5)
    root = psd_sqrt(c)
    n = 100000
    r = complex_normal(rng, (n, 4)) @ root.T  # rows r_i = root @ w_i
    z = quantize_one_bit(r)
    c_emp = z.T @ z.conj() / n
    c_true = covariance_czz_exact(c)
    se = np.sqrt((1.0 - np.abs(c_true) ** 2) / n)
    assert np.all(np.abs(c_emp - c_true) <= 3.0 * se + 5.0 / n)


def test_czz_approx_identity_and_diag():
    assert np.allclose(linearized_czz(np.eye(4)), np.eye(4))
    rng = np.random.default_rng(4)
    c = random_cov(rng, 5)
    czz = linearized_czz(c)
    assert np.allclose(np.diag(czz).real, 1.0, atol=1e-12)


def test_czz_approx_offdiagonal_form():
    # off-diagonal entries are (2/pi) times the normalized correlation
    rho = 0.1
    c = np.array([[1.0, rho], [rho, 1.0]])
    approx = linearized_czz(c)
    exact = covariance_czz_exact(c)
    assert approx[0, 1] == pytest.approx(TWO_OVER_PI * rho, rel=1e-12)
    assert abs(approx[0, 1] - exact[0, 1]) < 2e-4


def test_czz_approx_cubic_error_decay():
    def gap(rho):
        c = np.array([[1.0, rho], [rho, 1.0]])
        return abs(
            covariance_czz_exact(c)[0, 1] - linearized_czz(c)[0, 1]
        )

    assert gap(0.2) / gap(0.1) >= 8.0


def pt_c_rr(x, theta, sa, sv, block_len, n_r):
    """Point-target echo covariance sigma_alpha^2 (A x)(A x)^H + sigma_v^2 I,
    lifted from the unquantized chain factors."""
    model = PtModel(theta, sa, sv, x.size // block_len, n_r, block_len)
    return lift(model, model.workspace(x), quantized=False)[0]


def test_crr_pt_zero_waveform():
    cov = pt_c_rr(np.zeros(6, dtype=complex), 0.3, 1.0, 0.2, block_len=2, n_r=3)
    assert np.allclose(cov, 0.2 * np.eye(6))


def test_crr_pt_trace_identity():
    rng = np.random.default_rng(5)
    x = complex_normal(rng, 6)
    theta, sa, sv = 0.4, 1.5, 0.3
    model = PtModel(theta, sa, sv, 3, 3, 2)
    ws = model.workspace(x)
    c_rr = lift(model, ws, quantized=False)[0]
    g = pt_response_operator(theta, 2, 3, 3).apply(x)
    expected = sa * np.linalg.norm(g) ** 2 + sv * 6
    assert np.trace(c_rr).real == pytest.approx(expected, rel=1e-12)
    assert np.allclose(lift_vector(model, ws.diag_crr), np.diag(c_rr).real, atol=1e-14)


def test_crr_pt_dense_oracle():
    rng = np.random.default_rng(6)
    x = complex_normal(rng, 6)
    theta, sa, sv = -0.2, 0.8, 0.1
    cov = pt_c_rr(x, theta, sa, sv, block_len=2, n_r=3)
    a_dense = dense_operator(pt_response_operator(theta, 2, 3, 3))
    g = a_dense @ x
    oracle = sa * np.outer(g, g.conj()) + sv * np.eye(6)
    assert np.linalg.norm(cov - oracle) < 1e-12


def test_crr_pt_rejects_bad_noise():
    with pytest.raises(ValueError):
        pt_c_rr(np.zeros(6, dtype=complex), 0.3, 1.0, 0.0, block_len=2, n_r=3)


def crr_et(x_matrix, c_aa, sigma_v_sq):
    """Extended-target echo covariance X~ C_aa X~^H + sigma_v^2 I: the M of
    the quantization-unaware anchor."""
    return et_l_and_m(x_matrix, c_aa, sigma_v_sq, quantization_aware=False)[1]


def test_crr_et_zero_waveform():
    cov = crr_et(np.zeros((2, 3), dtype=complex), np.eye(4), 0.7)
    assert np.allclose(cov, 0.7 * np.eye(6))


def test_crr_et_identity_prior_trace():
    rng = np.random.default_rng(7)
    x = complex_normal(rng, (2, 3))
    n_r, sv = 2, 0.2
    cov = crr_et(x, np.eye(4), sv)
    expected = n_r * np.linalg.norm(x) ** 2 + sv * n_r * 3
    assert np.trace(cov).real == pytest.approx(expected, rel=1e-12)


def test_crr_et_monte_carlo():
    from onebit_isac.array_geometry import EtTarget, exponential_correlation
    from onebit_isac.linalg import complex_from_normals, vec_rows

    rng = np.random.default_rng(8)
    phi_r = exponential_correlation(2, 0.5)
    phi_t = exponential_correlation(2, 0.5)
    target = EtTarget(phi_r, phi_t)
    x = complex_normal(rng, (2, 2))
    sv = 0.3
    cov = crr_et(x, target.c_aa, sv)
    n = 100000
    # row i: the 8 normals of one sample_response(target, rng), then the 4 + 4 of one
    # complex_normal(rng, 4, scale=sqrt(sv)), as n calls in turn would draw
    normals = rng.standard_normal((n, 16))
    r = vec_rows(target.responses(normals[:, :8]) @ x) + complex_from_normals(
        normals[:, 8:12], normals[:, 12:], np.sqrt(sv))
    c_emp = r.T @ r.conj() / n
    d = np.diag(cov).real
    se = np.sqrt(np.outer(d, d) / n)
    assert np.all(np.abs(c_emp - cov) <= 3.0 * se + 5.0 / n)


def test_bussgang_pair_consistency():
    # the workspace's gain and quantized covariance are the Bussgang pair of
    # its own echo covariance
    rng = np.random.default_rng(9)
    model = PtModel(0.3, 1.2, 0.4, 2, 2, 2)
    x = complex_normal(rng, 4)
    ws = model.workspace(x)
    c = lift(model, ws, quantized=False)[0]
    c_zz_hat = lift(model, ws)[0]
    assert np.allclose(c_zz_hat, linearized_czz(c))
    assert np.allclose(lift_vector(model, ws.f), bussgang_gain(c))
    assert np.allclose(c_zz_hat, dense_pt_workspace(model, x).c_zz_hat)
