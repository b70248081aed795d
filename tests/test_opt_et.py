import numpy as np
import pytest
from helpers_oracles import (
    anchor_linear_term,
    commutation_apply,
    commutation_matrix,
    dense_h_tilde,
    dense_m_tilde,
    dense_mbar,
    dense_mbar_commutation,
    forced_dense_prior,
    random_ball_point,
    xtilde_dense,
)

from onebit_isac import opt_et
from onebit_isac.array_geometry import EtTarget, exponential_correlation
from onebit_isac.crb_metrics import (PtModel, crb_et, et_l_and_m, et_prior,
                                     mse_et_quantization_unaware)
from onebit_isac.linalg import (Penalty, build_penalty, complex_normal, hermitian_solve,
                                unvec, xtilde_multiply)
from onebit_isac.opt_et import (
    EtProblem,
    augmented_objective_et,
    build_et_surrogate,
    build_mbar,
    mm_update_et,
    solve_x_et,
)
from onebit_isac.opt_pt import solve_x_pt


def make_problem(n_t=2, n_r=2, block_len=2, sv=0.05, corr=0.5, aware=True):
    c_aa = EtTarget(exponential_correlation(n_r, corr), exponential_correlation(n_t, corr)).c_aa
    return EtProblem(c_aa=c_aa, sigma_v_sq=sv, n_t=n_t, n_r=n_r,
                     block_len=block_len, quantization_aware=aware)


def both_priors(c_aa, n_r, n_t, sigma_v_sq):
    """The Kronecker prior of c_aa and the dense path forced onto it, both
    quantization-aware."""
    return (et_prior(c_aa, n_r, n_t, sigma_v_sq, True),
            forced_dense_prior(c_aa, n_r, sigma_v_sq, True))


def test_commutation_identity_cases():
    rng = np.random.default_rng(0)
    v = complex_normal(rng, 5)
    assert np.array_equal(commutation_apply(1, 5, v), v)
    assert np.array_equal(commutation_apply(5, 1, v), v)


def test_commutation_round_trip():
    rng = np.random.default_rng(1)
    v = complex_normal(rng, 12)
    assert np.array_equal(commutation_apply(4, 3, commutation_apply(3, 4, v)), v)


def test_commutation_is_vec_transpose():
    rng = np.random.default_rng(2)
    a = complex_normal(rng, (3, 4))
    va = a.reshape(-1, order="F")
    vat = a.T.reshape(-1, order="F")
    assert np.array_equal(commutation_apply(3, 4, va), vat)
    dense = commutation_matrix(3, 4)
    assert np.array_equal(dense @ va, vat)


def test_commutation_dense_guard():
    with pytest.raises(ValueError):
        commutation_matrix(16, 16, max_entries=4096)
    with pytest.raises(ValueError):
        commutation_apply(2, 3, np.zeros(5))


def test_linear_term_trace_identity():
    # on the Kronecker path and on the dense path forced onto the same prior
    rng = np.random.default_rng(3)
    prob = make_problem()
    x_t = random_ball_point(rng, 4)
    x_mat = unvec(x_t, 2, 2)
    l_big, m_t = et_l_and_m(x_mat, prob.c_aa, prob.sigma_v_sq)
    for prior in both_priors(prob.c_aa, 2, 2, prob.sigma_v_sq):
        l_t = anchor_linear_term(prior.anchor(x_mat), x_mat)
        for _ in range(20):
            xr = complex_normal(rng, 4)
            lx = xtilde_multiply(unvec(xr, 2, 2), prob.c_aa)
            tr_form = np.einsum("ij,ij->", l_big.conj(), hermitian_solve(m_t, lx))
            assert abs(tr_form - np.vdot(l_t, xr)) < 1e-10


def test_linear_term_zero_cases():
    prob = make_problem()
    zero_x = np.zeros((2, 2), dtype=complex)
    for prior in both_priors(prob.c_aa, 2, 2, prob.sigma_v_sq):
        assert np.allclose(anchor_linear_term(prior.anchor(zero_x), zero_x), 0.0)
    rng = np.random.default_rng(4)
    x_mat = unvec(complex_normal(rng, 4), 2, 2)
    zero_prior = et_prior(np.zeros((4, 4)), 2, 2, prob.sigma_v_sq, True)
    assert np.allclose(anchor_linear_term(zero_prior.anchor(x_mat), x_mat), 0.0)


def test_mbar_matches_dense_commutation_form():
    rng = np.random.default_rng(5)
    prob = make_problem()
    x_t = random_ball_point(rng, 4)
    anchor = both_priors(prob.c_aa, 2, 2, prob.sigma_v_sq)[1].anchor(unvec(x_t, 2, 2))
    m_bar, lam_max = build_mbar(anchor)
    dense = dense_mbar_commutation(dense_m_tilde(anchor.m_inv_l), prob.c_aa, 2, 2, 2)
    for _ in range(20):
        xr = complex_normal(rng, 4)
        assert np.linalg.norm(dense_mbar(m_bar) @ xr - dense @ xr) < 1e-9
    # spectral bound dominates the true maximum eigenvalue
    true_lam = np.linalg.eigvalsh((dense + dense.conj().T) / 2)[-1]
    assert lam_max >= true_lam
    assert lam_max == pytest.approx(1.01 * true_lam, rel=1e-12)


def test_mbar_psd_and_bound_on_probes():
    rng = np.random.default_rng(6)
    prob = make_problem(n_t=3, n_r=2, block_len=3)
    x_t = random_ball_point(rng, 9)
    m_bar, lam_max = build_mbar(prob.anchor(x_t))
    for _ in range(100):
        v = complex_normal(rng, 9)
        quad = np.vdot(v, dense_mbar(m_bar) @ v).real
        assert quad >= -1e-9 * np.vdot(v, v).real
        assert quad <= lam_max * np.vdot(v, v).real * (1.0 + 1e-9)


def test_majorization_chain_touches_and_dominates():
    rng = np.random.default_rng(7)
    for aware in (True, False):
        prob = make_problem(aware=aware)
        x_t = random_ball_point(rng, 4)
        u = complex_normal(rng, 6)
        lam = 0.2 * complex_normal(rng, 6)
        h = complex_normal(rng, (3, 2))
        pen = build_penalty(0.8, u, lam, h, 2, 2)
        sur = build_et_surrogate(prob, x_t, pen)
        aug_t = augmented_objective_et(prob, x_t, pen)
        shift = aug_t - sur.value(x_t)
        for _ in range(50):
            y = random_ball_point(rng, 4)
            aug_y = augmented_objective_et(prob, y, pen)
            assert sur.value(y) + shift >= aug_y - 1e-8 * (abs(aug_t) + 1.0)


def test_mm_update_interior_solution_unprojected():
    rng = np.random.default_rng(8)
    prob = make_problem()
    x_t = random_ball_point(rng, 4, power=0.01)
    sur = build_et_surrogate(prob, x_t)
    big_power = 1e12
    x_new = mm_update_et(x_t, sur, power=big_power)
    assert np.allclose(x_new, sur.m_t / sur.denominator)


def test_mm_update_decreases_surrogate_and_objective():
    rng = np.random.default_rng(9)
    prob = make_problem(n_t=3, n_r=2, block_len=3, sv=0.1)
    x = random_ball_point(rng, 9)
    u = complex_normal(rng, 6)
    lam = 0.1 * complex_normal(rng, 6)
    h = complex_normal(rng, (2, 3))
    pen = build_penalty(0.5, u, lam, h, 3, 3)
    prev_aug = augmented_objective_et(prob, x, pen)
    for _ in range(50):
        sur = build_et_surrogate(prob, x, pen)
        s0 = sur.value(x)
        x = mm_update_et(x, sur, power=1.0)
        assert sur.value(x) <= s0 + 1e-10 * (abs(s0) + 1.0)
        aug = augmented_objective_et(prob, x, pen)
        assert aug <= prev_aug + 1e-9 * (abs(prev_aug) + 1.0)
        prev_aug = aug
        assert np.vdot(x, x).real <= 1.0 + 1e-12


def test_problem_rejects_a_prior_of_the_wrong_size():
    # an 8 x 8 prior fits n_r n_t = 8, not the 2 x 2 arrays declared
    with pytest.raises(ValueError, match="4 x 4"):
        EtProblem(np.eye(8), 0.1, 2, 2, 4)
    EtProblem(np.eye(8), 0.1, 2, 4, 4)


def test_solve_fixed_point_at_symmetric_optimum():
    # identity prior, no penalty: equal-power orthogonal columns are optimal,
    # so the objective must move below tolerance within two iterations
    prob = EtProblem(c_aa=np.eye(4), sigma_v_sq=0.1, n_t=2, n_r=2, block_len=2)
    x0 = np.sqrt(0.5) * np.eye(2, dtype=complex).reshape(-1, order="F")
    x, info = solve_x_et(prob, x0, rho=0.0, power=1.0, tol=1e-6, max_iter=20)
    assert info["n_iter"] <= 2


def test_solve_monotone_and_power_feasible():
    rng = np.random.default_rng(10)
    prob = make_problem(n_t=2, n_r=2, block_len=3)
    x0 = random_ball_point(rng, 6)
    u = complex_normal(rng, 3)
    lam = 0.1 * complex_normal(rng, 3)
    h = complex_normal(rng, (1, 2))
    x, info = solve_x_et(prob, x0, rho=0.7, u_i=u, lambda_i=lam, channel=h,
                         power=1.0, max_iter=40)
    hist = info["objective_history"]
    for a, b in zip(hist, hist[1:]):
        assert b <= a + 1e-9 * (abs(a) + 1.0)
    assert np.vdot(x, x).real <= 1.0 + 1e-12


def test_solve_computes_the_channel_bound_once(monkeypatch):
    # the penalty's curvature rho lambda_max(H^H H) is computed once per
    # extended-target solve, never per step, and never by a point-target solve
    calls = []
    curvature = Penalty.curvature

    def counted(penalty):
        calls.append(penalty.channel)
        return curvature(penalty)

    monkeypatch.setattr(Penalty, "curvature", counted)
    rng = np.random.default_rng(13)
    prob = make_problem(n_t=2, n_r=2, block_len=3)
    x0 = random_ball_point(rng, 6)
    h = complex_normal(rng, (2, 2))
    kw = dict(rho=0.7, u_i=complex_normal(rng, 6), lambda_i=0.1 * complex_normal(rng, 6),
              channel=h, tol=0.0, max_iter=5)
    _, info = solve_x_et(prob, x0, **kw)
    assert info["n_iter"] == 5
    assert len(calls) == 1 and calls[0] is h
    _, info = solve_x_pt(PtModel(0.3, 1.0, 0.1, 2, 2, 3), x0, **kw)
    assert info["n_iter"] == 5
    assert len(calls) == 1


def test_desk_scale_improvement():
    # N_t = N_r = 4, L = 8 at 30 dB; the closed-form MM saturates near 1.3 dB
    # from a random full-power start on this configuration
    rng = np.random.default_rng(11)
    prob = make_problem(n_t=4, n_r=4, block_len=8, sv=1e-3)
    x0 = complex_normal(rng, 32)
    x0 /= np.linalg.norm(x0)
    x, _ = solve_x_et(prob, x0, rho=0.0, power=1.0, tol=1e-10, max_iter=400)
    c0 = crb_et(unvec(x0, 4, 8), prob.c_aa, prob.sigma_v_sq)
    c1 = crb_et(unvec(x, 4, 8), prob.c_aa, prob.sigma_v_sq)
    assert 10.0 * np.log10(c0 / c1) >= 1.0


def test_qu_variant_structural_degeneration():
    # with the one-bit corrections patched out, the aware machinery reduces
    # to the plain LMMSE objective the unaware solver tracks
    rng = np.random.default_rng(12)
    prob_aware = make_problem(aware=True)
    prob_qu = make_problem(aware=False)
    x = random_ball_point(rng, 4)
    m_qu = et_l_and_m(unvec(x, 2, 2), prob_qu.c_aa, prob_qu.sigma_v_sq,
                      quantization_aware=False)[1]
    xd = xtilde_dense(unvec(x, 2, 2), 2)
    gram = xd @ prob_qu.c_aa @ xd.conj().T
    assert np.allclose(m_qu, gram + prob_qu.sigma_v_sq * np.eye(4), atol=1e-12)
    assert solve_x_et(prob_qu, x, max_iter=0)[1]["bound"] == pytest.approx(
        mse_et_quantization_unaware(unvec(x, 2, 2), prob_qu.c_aa, prob_qu.sigma_v_sq),
        rel=1e-12,
    )
    assert solve_x_et(prob_aware, x, max_iter=0)[1]["bound"] == pytest.approx(
        crb_et(unvec(x, 2, 2), prob_aware.c_aa, prob_aware.sigma_v_sq), rel=1e-12
    )


@pytest.mark.parametrize("aware,bound", [(True, crb_et), (False, mse_et_quantization_unaware)])
def test_solver_reports_the_bound_at_its_iterate(aware, bound):
    rng = np.random.default_rng(14)
    prob = make_problem(n_t=3, n_r=2, block_len=4, aware=aware)
    k = 2
    h = complex_normal(rng, (k, 3))
    u = complex_normal(rng, k * 4)
    lam = 0.1 * complex_normal(rng, k * 4)
    x, info = solve_x_et(prob, random_ball_point(rng, 12), rho=0.7, u_i=u, lambda_i=lam,
                         channel=h, power=1.0, max_iter=5)
    assert info["n_iter"] == 5
    assert info["bound"] == bound(unvec(x, 3, 4), prob.c_aa, prob.sigma_v_sq)


def test_qu_solver_monotone():
    rng = np.random.default_rng(13)
    prob = make_problem(n_t=2, n_r=2, block_len=3, aware=False)
    x0 = random_ball_point(rng, 6)
    x, info = solve_x_et(prob, x0, rho=0.0, power=1.0, max_iter=30)
    hist = info["objective_history"]
    for a, b in zip(hist, hist[1:]):
        assert b <= a + 1e-9 * (abs(a) + 1.0)


def test_penalty_curvature_block_identity():
    # lambda_max(H~^H H~) = lambda_max(H^H H); no penalty adds no curvature
    rng = np.random.default_rng(14)
    h = complex_normal(rng, (3, 4))
    block_len = 5
    dense = dense_h_tilde(h, block_len)
    lam_block = np.linalg.eigvalsh(dense.conj().T @ dense)[-1]
    u = complex_normal(rng, 3 * block_len)
    pen = build_penalty(0.7, u, u, h, 4, block_len)
    assert pen.curvature() == pytest.approx(0.7 * lam_block, rel=1e-10)
    prob = make_problem(n_t=4, n_r=2, block_len=block_len)
    x = random_ball_point(rng, 4 * block_len)
    m_bar_bound = build_mbar(prob.anchor(x))[1]
    assert build_et_surrogate(prob, x).denominator == m_bar_bound
    assert build_et_surrogate(prob, x, pen).denominator == m_bar_bound + pen.curvature()


def test_high_snr_quantization_aware_beats_unaware():
    # smoke version of the stochastic-resonance comparison at 35 dB
    rng = np.random.default_rng(15)
    prob = make_problem(n_t=4, n_r=4, block_len=8, sv=10 ** -3.5)
    x0 = complex_normal(rng, 32)
    x0 /= np.linalg.norm(x0)
    xa, _ = solve_x_et(prob, x0, rho=0.0, power=1.0, tol=1e-10, max_iter=300)
    prob_qu = make_problem(n_t=4, n_r=4, block_len=8, sv=10 ** -3.5, aware=False)
    xq, _ = solve_x_et(prob_qu, x0, rho=0.0, power=1.0, tol=1e-10, max_iter=300)
    ca = crb_et(unvec(xa, 4, 8), prob.c_aa, prob.sigma_v_sq)
    cq = crb_et(unvec(xq, 4, 8), prob.c_aa, prob.sigma_v_sq)
    assert ca < cq
