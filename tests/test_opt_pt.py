import math

import numpy as np
import pytest
from helpers_oracles import (
    PtSlotOracle,
    conjugate_gradient_fd,
    dense_gradient_rows,
    dense_pt_workspace,
    lift,
    random_ball_point,
    scalar_pgd_step,
    wirtinger_dx,
)

from onebit_isac import opt_pt
from onebit_isac.crb_metrics import PtModel, ReceiveBlock, crb_pt
from onebit_isac.linalg import complex_normal, h_tilde_adjoint, h_tilde_apply
from onebit_isac.opt_pt import (
    augmented_objective,
    build_anchor,
    gradient_rows,
    pgd_step,
    solve_x_pt,
    surrogate_gradient,
    surrogate_value,
    surrogate_values,
)


def make_instance(seed, n_t=3, n_r=3, block_len=2, k=2, sv=0.07, theta=0.35):
    rng = np.random.default_rng(seed)
    model = PtModel(theta, 1.0 + 0.4 * rng.uniform(), sv, n_t, n_r, block_len)
    x = random_ball_point(rng, n_t * block_len)
    u = complex_normal(rng, k * block_len)
    lam = 0.3 * complex_normal(rng, k * block_len)
    h = complex_normal(rng, (k, n_t))
    rho = float(10.0 ** rng.uniform(-1, 1))
    return model, x, rho, u, lam, h


def test_gradient_matches_finite_differences():
    for seed in range(8):
        model, x, rho, u, lam, h = make_instance(seed)
        anchor = build_anchor(model, x)
        fd = conjugate_gradient_fd(
            lambda y: surrogate_value(anchor, y, rho, u, lam, h), x
        )
        an = surrogate_gradient(anchor, x, rho, u, lam, h)
        assert np.linalg.norm(an - fd) / np.linalg.norm(fd) < 1e-6


def test_gradient_each_term_against_slot_oracle():
    slot_of = {"m11": "c", "m12": "dc", "m13": "f",
               "m14": "df_j1", "m15": "df_delta", "m16": "df_j2"}
    for seed in range(5):
        model, x, rho, u, lam, h = make_instance(seed + 100)
        anchor = build_anchor(model, x)
        oracle = PtSlotOracle(model, anchor.p_big, x)
        rows = gradient_rows(anchor, x, rho, u, lam, h)
        for key, slot in slot_of.items():
            # the slot functions carry a large frozen baseline, so roundoff
            # favors a slightly larger step than the total-gradient check
            fd = wirtinger_dx(lambda y, s=slot: oracle.linear_term(y, s), x, h=1e-5)
            rel = np.linalg.norm(rows[key] - fd) / max(np.linalg.norm(fd), 1e-30)
            assert rel < 1e-6, f"{key} seed {seed}: {rel}"
        fd3 = wirtinger_dx(oracle.quadratic_term, x)
        assert np.linalg.norm(rows["m3"] - fd3) / np.linalg.norm(fd3) < 1e-6
        # penalty row is the exact quadratic gradient
        w = h_tilde_apply(h, x, model.block_len) - u + lam
        expected_m4 = rho * np.conj(h_tilde_adjoint(h, w, model.block_len))
        assert np.linalg.norm(rows["m4"] - expected_m4) < 1e-12 * max(
            np.linalg.norm(expected_m4), 1.0
        )


def test_gradient_terms_match_dense_kronecker_oracle():
    for seed in (0, 1):
        model, x, rho, u, lam, h = make_instance(seed, n_t=2, n_r=2, block_len=2)
        anchor = build_anchor(model, x)
        rows = gradient_rows(anchor, x, rho, u, lam, h)
        dense = dense_gradient_rows(model, anchor.p_big, x)
        for key, val in dense.items():
            rel = np.linalg.norm(rows[key] - val) / max(np.linalg.norm(val), 1e-30)
            assert rel < 1e-10, f"{key}: {rel}"


def test_penalty_only_gradient_when_signal_free():
    # sigma_alpha^2 -> 0 removes every anchor term; rho-term must remain exact
    rng = np.random.default_rng(3)
    model = PtModel(0.3, 1e-300, 0.1, 3, 3, 2)
    x = random_ball_point(rng, 6)
    u = complex_normal(rng, 4)
    lam = complex_normal(rng, 4)
    h = complex_normal(rng, (2, 3))
    rho = 2.5
    anchor = build_anchor(model, x)
    grad = surrogate_gradient(anchor, x, rho, u, lam, h)
    w = h_tilde_apply(h, x, 2) - u + lam
    expected = rho * h_tilde_adjoint(h, w, 2)
    assert np.linalg.norm(grad - expected) < 1e-12 * np.linalg.norm(expected)


def test_infinite_resolution_gradient_finite_difference():
    for seed in range(4):
        model, x, rho, u, lam, h = make_instance(seed + 200)
        anchor = build_anchor(model, x, quantized=False)
        fd = conjugate_gradient_fd(
            lambda y: surrogate_value(anchor, y, rho, u, lam, h), x
        )
        an = surrogate_gradient(anchor, x, rho, u, lam, h)
        assert np.linalg.norm(an - fd) / np.linalg.norm(fd) < 1e-6


def test_majorization_touches_and_dominates():
    rng = np.random.default_rng(4)
    for quantized in (True, False):
        model, x0, rho, u, lam, h = make_instance(11)
        anchor = build_anchor(model, x0, quantized=quantized)
        aug0 = augmented_objective(model, x0, rho, u, lam, h, quantized)
        m0 = surrogate_value(anchor, x0, rho, u, lam, h)
        scale = abs(aug0) + 1.0
        assert abs(m0 - aug0) < 1e-9 * scale  # Taylor constant vanishes
        for _ in range(50):
            y = random_ball_point(rng, x0.size)
            gap = surrogate_value(anchor, y, rho, u, lam, h) - augmented_objective(
                model, y, rho, u, lam, h, quantized
            )
            assert gap >= -1e-9 * scale


def test_anchor_p_matches_dense_kronecker():
    # p_big = unvec(Q^{-1} vec(dC)) with Q = C^T kron C built densely
    model, x, *_ = make_instance(14, n_t=2, n_r=2, block_len=2)
    anchor = build_anchor(model, x)
    ws = dense_pt_workspace(model, x)
    chat = ws.c_zz_hat
    q_inv = np.kron(np.linalg.inv(chat).T, np.linalg.inv(chat))
    want = (q_inv @ ws.d_czz_dtheta.reshape(-1, order="F")).reshape((4, 4), order="F")
    assert np.linalg.norm(lift(model, anchor.p_big) - want) < 1e-10


def test_pgd_step_zero_gradient_is_identity():
    # at endfire every derivative vanishes and the penalty is turned off
    model = PtModel(np.pi / 2, 1.0, 0.1, 3, 3, 2)
    rng = np.random.default_rng(5)
    x = random_ball_point(rng, 6)
    anchor = build_anchor(model, x)
    x_new, mu, stalled = pgd_step(anchor, x, rho=0.0, power=1.0)
    assert np.array_equal(x_new, x)
    assert not stalled
    assert (mu, stalled) == scalar_pgd_step(anchor, x, rho=0.0, power=1.0)[1:]


def test_pgd_step_respects_power_and_descends():
    rng = np.random.default_rng(6)
    for seed in range(100):
        model, x, rho, u, lam, h = make_instance(seed + 300)
        anchor = build_anchor(model, x)
        m0 = surrogate_value(anchor, x, rho, u, lam, h)
        x_new, mu, stalled = pgd_step(anchor, x, rho, u, lam, h, power=1.0)
        assert np.vdot(x_new, x_new).real <= 1.0 + 1e-12
        m1 = surrogate_value(anchor, x_new, rho, u, lam, h)
        assert m1 <= m0 + 1e-12 * (abs(m0) + 1.0)


def test_solve_monotone_augmented_objective():
    for seed in range(20):
        model, x, rho, u, lam, h = make_instance(seed + 400)
        _, info = solve_x_pt(model, x, rho, u, lam, h, power=1.0, max_iter=15)
        hist = info["objective_history"]
        for a, b in zip(hist, hist[1:]):
            assert b <= a + 1e-9 * (abs(a) + 1.0)


def test_solve_stationary_least_squares_point():
    # sigma_alpha ~ 0 turns the subproblem into a pure least-squares penalty;
    # starting at an interior solution the gradient is already ~0
    rng = np.random.default_rng(7)
    model = PtModel(0.3, 1e-300, 0.1, 3, 3, 2)
    h = complex_normal(rng, (2, 3))
    x0 = 0.05 * complex_normal(rng, 6)
    u = h_tilde_apply(h, x0, 2)
    x, info = solve_x_pt(model, x0, rho=5.0, u_i=u, lambda_i=np.zeros_like(u),
                         channel=h, power=1.0, tol=1e-14, max_iter=60)
    anchor = build_anchor(model, x)
    grad = surrogate_gradient(anchor, x, 5.0, u, np.zeros_like(u), h)
    assert np.linalg.norm(grad) < 1e-8


def test_solve_converges_quickly_from_penalty_free_stationary_point():
    model = PtModel(np.pi / 2, 1.0, 0.1, 3, 3, 2)  # objective identically zero
    rng = np.random.default_rng(8)
    x0 = random_ball_point(rng, 6)
    x, info = solve_x_pt(model, x0, rho=0.0, power=1.0, max_iter=10)
    assert info["n_iter"] <= 1
    assert np.array_equal(x, x0)


def test_solve_rejects_infeasible_start():
    model = PtModel(0.3, 1.0, 0.1, 3, 3, 2)
    with pytest.raises(ValueError):
        solve_x_pt(model, np.full(6, 10.0 + 0j), power=1.0)


def test_desk_scale_optimization_gain():
    # N_t = N_r = 8, L = 10 at 30 dB: the optimized waveform must beat the
    # random start by at least 3 dB in the one-bit bound
    rng = np.random.default_rng(9)
    sv = 1e-3
    model = PtModel(math.radians(30.0), 1.0, sv, 8, 8, 10)
    x0 = complex_normal(rng, 80)
    x0 /= np.linalg.norm(x0)
    x, info = solve_x_pt(model, x0, rho=0.0, power=1.0, tol=1e-9, max_iter=150)
    c0 = crb_pt(x0, model.theta, 1.0, sv, 8, 10)
    c1 = crb_pt(x, model.theta, 1.0, sv, 8, 10)
    assert 10.0 * math.log10(c0 / c1) >= 3.0


def test_search_config_stall_reporting(monkeypatch):
    model, x, rho, u, lam, h = make_instance(12)
    anchor = build_anchor(model, x)
    monkeypatch.setattr(opt_pt, "STEP_FLOOR", 1.0)  # first step 0.1: schedule exhausted at once
    x_new, mu, stalled = pgd_step(anchor, x, rho, u, lam, h, power=1.0)
    assert stalled
    assert np.array_equal(x_new, x)


def mm_anchors(n_t, n_r, block_len, quantized, rho, n_steps=6, power=1.0, sv=1e-3):
    """(anchor, x_t, penalty args) along an MM run, each next iterate from the
    scalar oracle. The line search backtracks at 30 dB (sv = 1e-3); at
    -10 dB (sv = 10) the sufficient-decrease test rejects steps that lower
    the surrogate."""
    rng = np.random.default_rng(9)
    model = PtModel(math.radians(30.0), 1.0, sv, n_t, n_r, block_len)
    x = complex_normal(rng, n_t * block_len)
    x *= math.sqrt(power) / np.linalg.norm(x)
    k = 2
    penalty = (rho, complex_normal(rng, k * block_len), 0.3 * complex_normal(rng, k * block_len),
               complex_normal(rng, (k, n_t)))
    out = []
    for _ in range(n_steps):
        anchor = build_anchor(model, x, quantized)
        out.append((anchor, x, penalty))
        x = scalar_pgd_step(anchor, x, *penalty, power=power)[0]
    return out


# (n_t, n_r, L, quantized, rho, power, sigma_v^2)
STEP_CASES = [(3, 3, 2, True, 0.0, 1.0, 1e-3), (4, 4, 4, True, 0.0, 1.0, 1e-3),
              (4, 4, 4, False, 0.0, 1.0, 1e-3), (4, 4, 4, True, 0.5, 2.5, 1e-3),
              (4, 4, 4, False, 3.0, 1.0, 1e-3), (3, 3, 2, True, 0.0, 1.0, 10.0),
              (4, 4, 4, False, 0.0, 1.0, 10.0)]


@pytest.mark.parametrize("case", STEP_CASES)
def test_pgd_step_matches_scalar_backtracking(case):
    *shape, quantized, rho, power, sv = case
    mus = []
    for anchor, x, penalty in mm_anchors(*shape, quantized, rho, power=power, sv=sv):
        x_new, mu, stalled = pgd_step(anchor, x, *penalty, power=power)
        want_x, want_mu, want_stalled = scalar_pgd_step(anchor, x, *penalty, power=power)
        assert (mu, stalled) == (want_mu, want_stalled)
        assert np.linalg.norm(x_new - want_x) <= 1e-12 * np.linalg.norm(want_x)
        assert np.vdot(x_new, x_new).real <= power * (1.0 + 1e-12)
        mus.append(mu)
    assert min(mus) < 0.1 * math.sqrt(power)  # the line search backtracks


def test_pgd_step_exhausted_schedule_matches_scalar(monkeypatch):
    anchors = mm_anchors(4, 4, 4, True, 0.0)
    backtracked = [(a, x, p, scalar_pgd_step(a, x, *p)[1]) for a, x, p in anchors]
    backtracked = [case for case in backtracked if case[3] < 0.1]
    assert backtracked
    for anchor, x, penalty, mu in backtracked:
        # the floor just above the accepted step: every candidate left fails
        monkeypatch.setattr(opt_pt, "STEP_FLOOR", 1.5 * mu)
        x_new, mu_new, stalled = pgd_step(anchor, x, *penalty)
        assert (mu_new, stalled) == (0.0, True)
        assert np.array_equal(x_new, x)
        assert scalar_pgd_step(anchor, x, *penalty)[1:] == (0.0, True)


def test_candidate_scoring_builds_no_block_products(monkeypatch):
    # the step scores its whole schedule from the anchor block alone: no
    # workspace, no kL x kL product and no solve per candidate
    anchor, x, penalty = mm_anchors(4, 4, 4, True, 0.5)[2]
    want = pgd_step(anchor, x, *penalty)
    grad = surrogate_gradient(anchor, x, *penalty)
    stack = np.stack([x, want[0], 0.5 * x])
    values = surrogate_values(anchor, stack, *penalty)

    def refuse(*args, **kwargs):
        raise AssertionError("per-candidate chain work while scoring the line search")

    monkeypatch.setattr(opt_pt, "surrogate_gradient", lambda *args, **kwargs: grad)
    monkeypatch.setattr(ReceiveBlock, "__matmul__", refuse)
    monkeypatch.setattr(ReceiveBlock, "solve", refuse)
    monkeypatch.setattr(PtModel, "workspace", refuse)
    got = pgd_step(anchor, x, *penalty)
    assert got[1:] == want[1:] and np.array_equal(got[0], want[0])
    assert np.array_equal(surrogate_values(anchor, stack, *penalty), values)
