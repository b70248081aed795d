"""The dense extended-target anchor (``DensePrior.anchor``, forced onto the
prior) and its dense Mbar against the chain they replace: the explicit-Kronecker bound, the matrix-free Mbar
apply, the commutation form and the uncached MM loop, quantization-aware and
-unaware, from desk size up to 8x8 with L = 32. The priors here are
Kronecker products, so ``EtProblem`` and the bounds run the Kronecker path,
and the MM histories and bounds check it against the dense oracles too; one
history runs criterion 02's non-Kronecker prior on the dense path. The last
test pins the work of one MM iterate."""

import numpy as np
import pytest
from helpers_oracles import (
    crb_et_information_form,
    dense_et_anchor,
    dense_m_tilde,
    dense_mbar_commutation,
    forced_dense_prior,
    mbar_apply_matrix_free,
    random_ball_point,
    uncached_solve_x_et,
)

from onebit_isac.array_geometry import EtTarget, exponential_correlation
from onebit_isac import opt_et
from onebit_isac.crb_metrics import (DensePrior, KronPrior, crb_et, et_l_and_m,
                                     mse_et_quantization_unaware)
from onebit_isac.linalg import Penalty, complex_normal, unvec
from onebit_isac.opt_et import EtProblem, build_mbar, solve_x_et

RTOL = 1e-12
SHAPES = [(2, 2, 2), (3, 2, 3), (4, 4, 8), (8, 8, 32)]


def make_problem(n_t, n_r, block_len, aware, sv=0.05, corr=0.5, prior="kron"):
    # prior "I+0.3J" is criterion 02's prior, which is not a Kronecker product
    if prior == "I+0.3J":
        c_aa = np.eye(n_t * n_r) + 0.3 * np.ones((n_t * n_r, n_t * n_r))
    else:
        c_aa = EtTarget(exponential_correlation(n_r, corr),
                        exponential_correlation(n_t, corr)).c_aa
    return EtProblem(c_aa=c_aa, sigma_v_sq=sv, n_t=n_t, n_r=n_r,
                     block_len=block_len, quantization_aware=aware)


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def dense_anchor(prob, x_mat):
    """The problem's anchor on the dense path, whatever its prior."""
    return forced_dense_prior(prob.c_aa, prob.n_r, prob.sigma_v_sq,
                              prob.quantization_aware).anchor(x_mat)


@pytest.mark.parametrize("aware", [True, False])
@pytest.mark.parametrize("shape", SHAPES)
def test_dense_mbar_matches_matrix_free_apply(shape, aware):
    n_t, n_r, block_len = shape
    rng = np.random.default_rng(sum(shape))
    prob = make_problem(n_t, n_r, block_len, aware)
    x = random_ball_point(rng, n_t * block_len)
    anchor = dense_anchor(prob, unvec(x, n_t, block_len))
    m_bar, lam_max = build_mbar(anchor)
    apply = mbar_apply_matrix_free(dense_m_tilde(anchor.m_inv_l, aware), prob.c_aa, *shape)
    dim = n_t * block_len
    oracle = np.column_stack([apply(e) for e in np.eye(dim, dtype=complex)])
    assert rel_err(m_bar, oracle) <= RTOL
    assert np.linalg.norm(m_bar - m_bar.conj().T) <= RTOL * np.linalg.norm(m_bar)
    lam_true = np.linalg.eigvalsh((oracle + oracle.conj().T) / 2.0)[-1]
    assert lam_true <= lam_max <= 1.01 * lam_true * (1.0 + 1e-6)


@pytest.mark.parametrize("aware", [True, False])
@pytest.mark.parametrize("shape", SHAPES[:2])
def test_dense_mbar_matches_commutation_form(shape, aware):
    n_t, n_r, block_len = shape
    rng = np.random.default_rng(10 + sum(shape))
    prob = make_problem(n_t, n_r, block_len, aware)
    x_mat = unvec(random_ball_point(rng, n_t * block_len), n_t, block_len)
    anchor = dense_anchor(prob, x_mat)
    m_bar = build_mbar(anchor)[0]
    oracle = dense_mbar_commutation(dense_m_tilde(anchor.m_inv_l, aware), prob.c_aa, *shape)
    assert rel_err(m_bar, oracle) <= RTOL


@pytest.mark.parametrize("aware", [True, False])
@pytest.mark.parametrize("shape", SHAPES)
def test_anchor_matches_dense_kronecker_chain(shape, aware):
    n_t, n_r, block_len = shape
    rng = np.random.default_rng(20 + sum(shape))
    prob = make_problem(n_t, n_r, block_len, aware)
    x = random_ball_point(rng, n_t * block_len)
    anchor = dense_anchor(prob, unvec(x, n_t, block_len))
    l_mat, m, y, gain = dense_et_anchor(x, prob.c_aa, prob.sigma_v_sq, *shape, aware)
    lib_l, lib_m = et_l_and_m(unvec(x, n_t, block_len), prob.c_aa, prob.sigma_v_sq, aware)
    assert rel_err(lib_l, l_mat) <= RTOL
    assert rel_err(lib_m, m) <= RTOL
    assert rel_err(anchor.m_inv_l, y) <= 1e-10
    assert anchor.gain == pytest.approx(gain, rel=RTOL)
    x_mat = unvec(x, n_t, block_len)
    bound = (crb_et if aware else mse_et_quantization_unaware)(x_mat, prob.c_aa, prob.sigma_v_sq)
    assert solve_x_et(prob, x, max_iter=0)[1]["bound"] == pytest.approx(bound, rel=RTOL)
    assert bound == pytest.approx(np.trace(prob.c_aa).real - gain, rel=RTOL)


def test_anchor_bound_matches_information_form_at_scale():
    rng = np.random.default_rng(30)
    prob = make_problem(8, 8, 32, aware=True)
    x = random_ball_point(rng, 256)
    info = crb_et_information_form(unvec(x, 8, 32), prob.c_aa, prob.sigma_v_sq)
    assert crb_et(unvec(x, 8, 32), prob.c_aa, prob.sigma_v_sq) == pytest.approx(info, rel=1e-9)


@pytest.mark.parametrize("aware", [True, False])
@pytest.mark.parametrize("shape,rho,max_iter", [
    ((2, 2, 3), 0.7, 40), ((4, 4, 8), 0.0, 30), ((4, 4, 8), 1.3, 20), ((8, 8, 32), 0.0, 3),
    ((2, 2, 2, "I+0.3J"), 0.8, 25),
])
def test_solve_history_matches_uncached_chain(shape, rho, max_iter, aware):
    # a fourth entry of shape names a prior other than the Kronecker one
    n_t, n_r, block_len, *other = shape
    rng = np.random.default_rng(40 + n_t + n_r + block_len)
    prob = make_problem(n_t, n_r, block_len, aware, sv=1e-3, prior=other[0] if other else "kron")
    assert isinstance(prob._prior, DensePrior if other else KronPrior)
    x0 = complex_normal(rng, n_t * block_len)
    x0 /= np.linalg.norm(x0)
    k = 2
    u = complex_normal(rng, k * block_len)
    lam = 0.1 * complex_normal(rng, k * block_len)
    h = complex_normal(rng, (k, n_t))
    kw = dict(rho=rho, u_i=u, lambda_i=lam, channel=h, power=1.0, tol=1e-10,
              max_iter=max_iter)
    _, info = solve_x_et(prob, x0, **kw)
    oracle = uncached_solve_x_et(prob, x0, **kw)
    assert info["n_iter"] == len(oracle) - 1
    np.testing.assert_allclose(info["objective_history"], oracle, rtol=RTOL)


def test_anchor_cache_recomputes_after_in_place_change():
    rng = np.random.default_rng(50)
    prob = make_problem(3, 2, 3, aware=True)
    x = random_ball_point(rng, 9)
    first = prob.anchor(x)
    assert prob.anchor(x.copy()) is first
    assert prob.objective(x) == -first.gain
    x *= 0.5
    second = prob.anchor(x)
    assert second is not first
    fresh = make_problem(3, 2, 3, aware=True)
    assert prob.objective(x) == fresh.objective(x)
    assert solve_x_et(prob, x, max_iter=0)[1]["bound"] == pytest.approx(
        crb_et(unvec(x, 3, 3), prob.c_aa, prob.sigma_v_sq), rel=RTOL)


class CountingChannel(np.ndarray):
    """A channel H that records each product taken with it, H @ Y or Y @ H,
    by the shape of the factor taken (H, H^T or H^H)."""

    products = []

    def __matmul__(self, other):
        CountingChannel.products.append(self.shape)
        return np.asarray(self) @ np.asarray(other)

    def __rmatmul__(self, other):
        CountingChannel.products.append(self.shape)
        return np.asarray(other) @ np.asarray(self)


@pytest.mark.parametrize("aware", [True, False])
def test_each_iterate_does_the_step_work_once(monkeypatch, aware):
    # per iterate one prior anchor and one penalty residual H X - T, per step
    # one Mbar and one penalty descent -rho H^H (H X - T); the penalty, with
    # its target T = unvec(u - lambda) and its curvature, once per solve
    n_t, n_r, block_len, k = 3, 2, 4, 2
    rng = np.random.default_rng(60)
    prob = make_problem(n_t, n_r, block_len, aware)
    names = ("anchor", "build_mbar", "build_penalty", "residual", "descent", "curvature")
    counts = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(KronPrior, "anchor", counted("anchor", KronPrior.anchor))
    for name in ("build_mbar", "build_penalty"):
        monkeypatch.setattr(opt_et, name, counted(name, getattr(opt_et, name)))
    for name in ("residual", "descent", "curvature"):
        monkeypatch.setattr(Penalty, name, counted(name, getattr(Penalty, name)))
    channel = complex_normal(rng, (k, n_t)).view(CountingChannel)
    u, lam = complex_normal(rng, k * block_len), 0.1 * complex_normal(rng, k * block_len)
    CountingChannel.products = []
    _, info = solve_x_et(prob, random_ball_point(rng, n_t * block_len), rho=0.7, u_i=u,
                         lambda_i=lam, channel=channel, tol=0.0, max_iter=6)
    steps = info["n_iter"]
    assert steps == 6
    assert counts == {"anchor": steps + 1, "build_mbar": steps, "build_penalty": 1,
                      "residual": steps + 1, "descent": steps, "curvature": 1}
    # each residual, descent and curvature takes one product with H
    assert len(CountingChannel.products) == 2 * steps + 2
