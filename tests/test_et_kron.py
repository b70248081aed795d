"""The extended-target chain on a Kronecker prior (L x L eigenbasis) against
the dense oracles it replaces and against the library's dense path forced
onto the same prior: gain, bound, l_t, Mbar, Mbar x and lambda_max(Mbar),
quantization-aware and -unaware, with real and complex correlations, a
non-unit constant diag(Phi_R), n_r = 1 and n_t = 1; the dense path for
priors that are not one Kronecker product; the size check of et_prior; and
a guard that no n_r L or n_t L matrix is factored, solved or
eigendecomposed."""

import numpy as np
import pytest
import scipy.linalg
from helpers_oracles import (
    anchor_linear_term,
    dense_et_anchor,
    dense_linear_term,
    dense_m_tilde,
    dense_mbar,
    dense_mbar_commutation,
    forced_dense_prior,
    mbar_apply_matrix_free,
    uncached_solve_x_et,
)

from onebit_isac import crb_metrics, linalg
from onebit_isac.array_geometry import EtTarget, exponential_correlation
from onebit_isac.crb_metrics import (
    DensePrior,
    EtAnchor,
    KronAnchor,
    KronMbar,
    KronPrior,
    crb_et,
    et_prior,
    mse_et_quantization_unaware,
)
from onebit_isac.linalg import complex_normal, unvec, vec
from onebit_isac.opt_et import EtProblem, build_mbar, solve_x_et
from onebit_isac.scenario import et_scenario

# (n_t, n_r, L, diag(Phi_R)); the commutation oracle covers n_r L, n_t L <= 64
SHAPES = [(4, 4, 8, 1.0), (3, 5, 7, 2.5), (2, 1, 4, 1.0), (1, 3, 5, 2.5), (8, 8, 32, 1.0)]


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def complex_correlation(rng, n, c=1.0):
    """A random complex Hermitian positive definite matrix with diagonal c."""
    g = complex_normal(rng, (n, n))
    w = g @ g.conj().T + 0.5 * np.eye(n)
    d = 1.0 / np.sqrt(np.diag(w).real)
    return c * (d[:, None] * w * d)


def kron_target(kind, n_t, n_r, diag, rng):
    if kind == "complex":
        # Phi_T's diagonal is 0.4, so the factors read from c_aa are rescaled
        return EtTarget(complex_correlation(rng, n_r, diag), complex_correlation(rng, n_t, 0.4))
    return EtTarget(diag * exponential_correlation(n_r, 0.5), exponential_correlation(n_t, 0.7))


@pytest.mark.parametrize("kind", ["exponential", "complex"])
@pytest.mark.parametrize("aware", [True, False])
@pytest.mark.parametrize("shape", SHAPES)
def test_kron_path_matches_dense_oracles(shape, aware, kind):
    n_t, n_r, block_len, diag = shape
    rtol = 1e-12 if aware else 1e-11
    rng = np.random.default_rng(n_t * 100 + n_r * 10 + block_len)
    c_aa = kron_target(kind, n_t, n_r, diag, rng).c_aa
    prob = EtProblem(c_aa, 1e-3, n_t, n_r, block_len, quantization_aware=aware)
    x = complex_normal(rng, n_t * block_len)
    x /= np.linalg.norm(x)
    x_mat = unvec(x, n_t, block_len)
    anchor = prob.anchor(x)
    assert isinstance(anchor, KronAnchor)
    _, _, y, gain = dense_et_anchor(x, c_aa, 1e-3, n_t, n_r, block_len, aware)
    assert anchor.gain == pytest.approx(gain, rel=rtol)
    bound = (crb_et if aware else mse_et_quantization_unaware)(x_mat, c_aa, 1e-3)
    assert bound == anchor.bound
    assert bound == pytest.approx(np.trace(c_aa).real - gain, rel=rtol)
    m_bar, lam_max = build_mbar(anchor)
    assert isinstance(m_bar, KronMbar)
    dims = (n_t, n_r, block_len)
    apply = mbar_apply_matrix_free(dense_m_tilde(y, aware), c_aa, *dims)
    oracle = np.column_stack([apply(e) for e in np.eye(n_t * block_len, dtype=complex)])
    l_t = dense_linear_term(y, c_aa, n_t, n_r, block_len)
    assert rel_err(anchor_linear_term(anchor, x_mat), l_t) <= rtol
    assert rel_err(vec(anchor.descent(m_bar, x_mat)), l_t - oracle @ x) <= rtol
    assert rel_err(np.kron(m_bar.g, m_bar.phi_t), oracle) <= rtol
    if n_r * block_len <= 64 and n_t * block_len <= 64:
        commutation = dense_mbar_commutation(dense_m_tilde(y, aware), c_aa, *dims)
        assert rel_err(np.kron(m_bar.g, m_bar.phi_t), commutation) <= rtol
    assert rel_err(dense_mbar(m_bar) @ x, oracle @ x) <= rtol
    lam_true = np.linalg.eigvalsh((oracle + oracle.conj().T) / 2.0)[-1]
    assert lam_max == pytest.approx(1.01 * lam_true, rel=rtol)


def test_unaware_problem_builds_the_unaware_mbar():
    # build_mbar(anchor) used to default to the aware Mbar whatever the
    # anchor's problem was (lambda_max 9.09 against 8.49 here)
    sc = et_scenario(seed=0)
    dims = (sc.n_t, sc.n_r, sc.block_len)
    prob = EtProblem(sc.target.c_aa, sc.sigma_v_sq, *dims, quantization_aware=False)
    x = np.full(sc.n_t * sc.block_len, np.sqrt(sc.power / (sc.n_t * sc.block_len)), complex)
    m_bar, lam_max = build_mbar(prob.anchor(x))
    y = dense_et_anchor(x, sc.target.c_aa, sc.sigma_v_sq, *dims, False)[2]
    oracle = dense_mbar_commutation(dense_m_tilde(y, False), sc.target.c_aa, *dims)
    assert rel_err(np.kron(m_bar.g, m_bar.phi_t), oracle) <= 1e-11
    assert lam_max == pytest.approx(1.01 * np.linalg.eigvalsh(oracle)[-1], rel=1e-11)
    aware = dense_mbar_commutation(dense_m_tilde(y, True), sc.target.c_aa, *dims)
    assert rel_err(aware, oracle) > 1e-3


@pytest.mark.parametrize("kind", ["exponential", "complex"])
@pytest.mark.parametrize("aware", [True, False])
@pytest.mark.parametrize("shape", SHAPES)
def test_dense_prior_forced_on_a_kronecker_prior_matches_it(shape, aware, kind):
    n_t, n_r, block_len, diag = shape
    rng = np.random.default_rng(7 + n_t * 100 + n_r * 10 + block_len)
    c_aa = kron_target(kind, n_t, n_r, diag, rng).c_aa
    kron = et_prior(c_aa, n_r, n_t, 1e-3, aware)
    assert isinstance(kron, KronPrior)
    dense = forced_dense_prior(c_aa, n_r, 1e-3, aware)
    x = complex_normal(rng, n_t * block_len)
    x /= np.linalg.norm(x)
    x_mat = unvec(x, n_t, block_len)
    k_anchor = kron.anchor(x_mat)
    d_anchor = dense.anchor(x_mat)
    assert isinstance(d_anchor, EtAnchor)
    assert k_anchor.gain == pytest.approx(d_anchor.gain, rel=1e-9)
    assert k_anchor.bound == pytest.approx(d_anchor.bound, rel=1e-9)
    assert rel_err(anchor_linear_term(k_anchor, x_mat), anchor_linear_term(d_anchor, x_mat)) <= 1e-9
    k_mbar, k_lam = k_anchor.mbar()
    d_mbar, d_lam = d_anchor.mbar()
    assert rel_err(dense_mbar(k_mbar) @ x, d_mbar @ x) <= 1e-9
    assert rel_err(k_anchor.descent(k_mbar, x_mat), d_anchor.descent(d_mbar, x_mat)) <= 1e-9
    assert k_lam == pytest.approx(d_lam, rel=1e-9)


def test_et_prior_reads_the_factors_of_c_aa():
    rng = np.random.default_rng(1)
    phi_r, phi_t = complex_correlation(rng, 3, 2.5), complex_correlation(rng, 4, 0.4)
    c_aa = np.kron(phi_t.T, phi_r)
    kron = et_prior(c_aa, 3, 4, 0.1, True)
    assert isinstance(kron, KronPrior)
    # Phi_R' = 0.4 Phi_R and Phi_T' = Phi_T / 0.4
    np.testing.assert_allclose(kron.phi_t, phi_t / 0.4, rtol=0, atol=1e-14)
    np.testing.assert_allclose(kron.sigma_r, 0.4 * np.linalg.eigvalsh(phi_r), rtol=1e-13)
    assert kron.c == pytest.approx(1.0, rel=1e-14)
    assert kron.lam_max_t == pytest.approx(np.linalg.eigvalsh(phi_t)[-1] / 0.4, rel=1e-13)
    assert kron.trace == float(np.trace(c_aa).real)
    assert isinstance(et_prior(np.eye(6), 3, 2, 0.1, True), KronPrior)
    zero = et_prior(np.zeros((6, 6)), 3, 2, 0.1, True)
    assert isinstance(zero, DensePrior) and zero.n_r == 3 and zero.trace == 0.0


@pytest.mark.parametrize("c_aa,n_r,n_t", [
    (np.eye(6), 2, 2),  # the wrong size
    (np.eye(6)[:, :4], 2, 3),  # not square
    (np.eye(4)[None], 2, 2),  # not a matrix
    (np.eye(4), 0, 4),  # no receive antenna
])
def test_et_prior_rejects_a_prior_of_the_wrong_shape(c_aa, n_r, n_t):
    with pytest.raises(ValueError, match=f"n_r = {n_r} times n_t = {n_t}.*got shape"):
        et_prior(c_aa, n_r, n_t, 0.1, True)


@pytest.mark.parametrize("bound", [crb_et, mse_et_quantization_unaware])
@pytest.mark.parametrize("shape", [(6, 6), (6, 4), (4, 6), (8,)])
def test_bounds_reject_a_prior_that_does_not_fit_x(bound, shape):
    # X has n_t = 4: a 6 x 6 prior is not a multiple of it, the others are not square
    x_mat = np.ones((4, 3)) / np.sqrt(12.0)
    with pytest.raises(ValueError, match=r"c_aa must be .* got shape"):
        bound(x_mat, np.ones(shape), 0.1)


def non_kronecker_priors():
    rng = np.random.default_rng(2)
    # a sum of two Kronecker terms (criterion 02's prior)
    yield 2, 2, np.eye(4) + 0.3 * np.ones((4, 4))
    # one Kronecker product, but diag(Phi_R) is not constant
    d = np.sqrt(np.array([1.0, 2.0, 0.5]))
    phi_r = d[:, None] * exponential_correlation(3, 0.5) * d
    yield 2, 3, np.kron(exponential_correlation(2, 0.4).T, phi_r)
    # a Kronecker product plus a PSD term of relative size ~1e-8, well beyond
    # the structure test's 1e-12
    c = EtTarget(complex_correlation(rng, 2), complex_correlation(rng, 3)).c_aa
    g = 1e-4 * complex_normal(rng, c.shape)
    yield 3, 2, c + g @ g.conj().T


@pytest.mark.parametrize("aware", [True, False])
@pytest.mark.parametrize("n_t,n_r,c_aa", list(non_kronecker_priors()))
def test_non_kronecker_prior_takes_the_dense_path(n_t, n_r, c_aa, aware):
    block_len = 3
    assert isinstance(et_prior(c_aa, n_r, n_t, 0.05, aware), DensePrior)
    prob = EtProblem(c_aa, 0.05, n_t, n_r, block_len, quantization_aware=aware)
    rng = np.random.default_rng(3)
    x = complex_normal(rng, n_t * block_len)
    x /= np.linalg.norm(x)
    x_mat = unvec(x, n_t, block_len)
    anchor = prob.anchor(x)
    _, _, y, gain = dense_et_anchor(x, c_aa, 0.05, n_t, n_r, block_len, aware)
    assert isinstance(anchor, EtAnchor)
    assert anchor.gain == pytest.approx(gain, rel=1e-12)
    assert rel_err(anchor.m_inv_l, y) <= 1e-10
    assert rel_err(anchor_linear_term(anchor, x_mat),
                   dense_linear_term(y, c_aa, n_t, n_r, block_len)) <= 1e-12
    bound = (crb_et if aware else mse_et_quantization_unaware)(x_mat, c_aa, 0.05)
    assert bound == anchor.bound
    m_bar, _ = build_mbar(anchor)
    assert isinstance(m_bar, np.ndarray)
    k = 2
    kw = dict(rho=0.7, u_i=complex_normal(rng, k * block_len),
              lambda_i=0.1 * complex_normal(rng, k * block_len),
              channel=complex_normal(rng, (k, n_t)), power=1.0, tol=1e-10, max_iter=15)
    _, info = solve_x_et(prob, x, **kw)
    oracle = uncached_solve_x_et(prob, x, **kw)
    assert info["n_iter"] == len(oracle) - 1
    np.testing.assert_allclose(info["objective_history"], oracle, rtol=1e-12)


def test_kron_solve_factors_no_large_matrix(monkeypatch):
    n_t, n_r, block_len = 16, 16, 128
    largest = max(n_t, n_r, block_len)

    def refuse(*args, **kwargs):
        raise AssertionError("factorization or solve on the Kronecker path")

    def sized(fn):
        def guarded(a, *args, **kwargs):
            if np.shape(a)[-1] > largest:
                raise AssertionError(f"{np.shape(a)} eigendecomposition on the Kronecker path")
            return fn(a, *args, **kwargs)
        return guarded

    for name in ("cho_factor", "cho_solve"):
        monkeypatch.setattr(scipy.linalg, name, refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(linalg, "hermitian_factor", refuse)
    monkeypatch.setattr(linalg, "hermitian_solve", refuse)
    monkeypatch.setattr(crb_metrics, "hermitian_solve", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", sized(np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", sized(np.linalg.eigh))
    target = EtTarget(exponential_correlation(n_r, 0.5), exponential_correlation(n_t, 0.5))
    prob = EtProblem(target.c_aa, 1e-2, n_t, n_r, block_len)
    rng = np.random.default_rng(4)
    x = complex_normal(rng, n_t * block_len)
    x /= np.linalg.norm(x)
    k = 4
    x_new, info = solve_x_et(prob, x, rho=0.5, u_i=complex_normal(rng, k * block_len),
                             lambda_i=complex_normal(rng, k * block_len),
                             channel=complex_normal(rng, (k, n_t)), power=1.0, max_iter=2)
    hist = info["objective_history"]
    assert info["n_iter"] == 2
    assert all(f <= g + 1e-12 * abs(g) for f, g in zip(hist[1:], hist))
    assert info["bound"] == crb_et(unvec(x_new, n_t, block_len), target.c_aa, 1e-2)
