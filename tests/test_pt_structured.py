"""The receive-subspace point-target chain against the dense n x n oracle
it replaced, and at sizes the dense chain cannot reach."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from helpers_oracles import (
    dense_anchor_p,
    dense_chain_gradient_rows,
    dense_pt_workspace,
    dense_surrogate_value,
    dense_trace_form,
    lift,
    lift_vector,
    random_ball_point,
)

import onebit_isac.crb_metrics as crb_metrics
import onebit_isac.linalg as linalg
from onebit_isac.crb_metrics import (
    INFINITE_CRB_FLOOR,
    PtModel,
    bound_from_trace,
    crb_pt,
    crb_pt_infinite_resolution,
)
from onebit_isac.linalg import build_penalty, complex_normal, project_power_ball
from onebit_isac.opt_pt import (
    build_anchor,
    gradient_rows,
    solve_x_pt,
    surrogate_value,
    surrogate_values,
)

RTOL = 1e-9
SHAPES = [(2, 2, 1), (3, 3, 2), (4, 8, 3), (8, 8, 4), (16, 32, 4), (5, 17, 2)]
# (n_t, n_r, L, theta): every shape at random angles, a one-element receive
# array (a one-dimensional receive subspace) and endfire (beta = 0)
CASES = ([shape + (None,) for shape in SHAPES]
         + [(4, 1, 3, None), (3, 1, 2, None), (3, 3, 2, math.pi / 2), (4, 8, 3, -math.pi / 2)])


def rel_err(got, want, scale=None):
    """||got - want|| relative to ||want|| (or to a given scale when the
    reference itself is at roundoff level)."""
    ref = np.linalg.norm(want) if scale is None else max(np.linalg.norm(want), scale)
    return np.linalg.norm(np.asarray(got) - np.asarray(want)) / max(ref, 1e-300)


def instance(seed, n_t, n_r, block_len, theta=None, k=2, quantized=True):
    rng = np.random.default_rng(seed)
    if theta is None:
        theta = rng.uniform(-1.3, 1.3)
    model = PtModel(theta, float(rng.uniform(0.5, 2.0)), float(10 ** rng.uniform(-3, 0)),
                    n_t, n_r, block_len, quantized)
    x = random_ball_point(rng, n_t * block_len)
    y = random_ball_point(rng, n_t * block_len)
    penalty = (complex_normal(rng, k * block_len), 0.3 * complex_normal(rng, k * block_len),
               complex_normal(rng, (k, n_t)))
    return model, x, y, penalty


@pytest.mark.parametrize("case", CASES)
def test_workspace_matches_dense_oracle(case):
    for seed in range(3):
        model, x, _, _ = instance(seed, *case)
        ws = model.workspace(x)
        oracle = dense_pt_workspace(model, x)
        lifted = lift(model, ws, quantized=False) + lift(model, ws)
        for name, got in zip(("c_rr", "d_crr_dtheta", "c_zz_hat", "d_czz_dtheta"), lifted):
            assert rel_err(got, getattr(oracle, name)) < RTOL, name
        c_zz_hat, d_czz = lifted[2:]
        assert np.max(np.abs(np.diag(c_zz_hat) - 1.0)) < 1e-14
        assert np.max(np.abs(np.diag(d_czz))) <= 1e-14 * np.max(np.abs(d_czz))
        g = np.zeros_like(ws.g_prime)
        g[:, 0] = ws.s
        for got, name in ((g, "g"), (ws.g_prime, "g_prime"), (ws.diag_crr, "diag_crr"),
                          (ws.f, "f"), (ws.d_f, "d_f_dtheta")):
            assert rel_err(lift_vector(model, got), getattr(oracle, name)) < RTOL, name


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("quantized", [True, False])
def test_trace_form_and_bounds_match_dense_oracle(case, quantized):
    for seed in range(3):
        model, x, _, _ = instance(seed, *case, quantized=quantized)
        oracle = dense_pt_workspace(model, x)
        got = model.chain_p(x).trace
        if quantized:
            want = dense_trace_form(oracle.c_zz_hat, oracle.d_czz_dtheta)
            bound = crb_pt(x, model.theta, model.sigma_alpha_sq, model.sigma_v_sq,
                           model.n_r, model.block_len)
        else:
            want = dense_trace_form(oracle.c_rr, oracle.d_crr_dtheta)
            bound = crb_pt_infinite_resolution(x, model.theta, model.sigma_alpha_sq,
                                               model.sigma_v_sq, model.n_r, model.block_len)
        assert abs(got - want) < RTOL * want
        if math.isinf(bound):
            assert want < INFINITE_CRB_FLOOR
        else:
            assert abs(bound - 1.0 / want) < RTOL / want


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("quantized", [True, False])
@pytest.mark.parametrize("rho", [0.0, 1.7])
def test_anchor_surrogate_and_gradient_rows_match_dense_oracle(case, quantized, rho):
    for seed in range(2):
        model, x, y, (u, lam, h) = instance(seed + 10, *case, quantized=quantized)
        anchor = build_anchor(model, x)
        p_dense = dense_anchor_p(model, x, quantized)
        assert rel_err(lift(model, anchor), p_dense) < RTOL
        pen = build_penalty(rho, u, lam, h, model.n_t, model.block_len)
        for point in (x, y):
            got = surrogate_value(anchor, point, pen)
            want = dense_surrogate_value(model, p_dense, point, quantized, rho, u, lam, h)
            assert abs(got - want) < RTOL * abs(want)
            rows = gradient_rows(anchor, point, pen)
            oracle = dense_chain_gradient_rows(model, p_dense, point, quantized, rho, u, lam, h)
            assert rows.keys() == oracle.keys()
            # a path can vanish to roundoff (uniform |g| when n_t = 1, say);
            # measure it against the whole gradient then
            scale = 1e-6 * np.linalg.norm(oracle["total"])
            for key, want_row in oracle.items():
                assert rel_err(rows[key], want_row, scale) < RTOL, key
        # one stacked call: the anchor point, interior candidates and a
        # candidate pulled back onto the power ball
        outside = x + 3.0 * y / np.linalg.norm(y)
        stack = np.stack([x, y, 0.5 * (x + y), 0.3 * y, project_power_ball(outside, 1.0)])
        values = surrogate_values(anchor, stack, pen)
        assert values.shape == (len(stack),)
        for point, got in zip(stack, values):
            want = dense_surrogate_value(model, p_dense, point, quantized, rho, u, lam, h)
            assert abs(got - want) < RTOL * abs(want)


@pytest.mark.parametrize("shape", [(8, 8, 10), (3, 3, 2), (4, 8, 32), (2, 1, 5), (16, 32, 4)])
@pytest.mark.parametrize("quantized", [True, False])
def test_chain_p_operations_match_dense_p(shape, quantized):
    # the dense P is solved from the lifted (C, dC), not read from the factors
    model, x, _, _ = instance(20, *shape, quantized=quantized)
    anchor = build_anchor(model, x)
    p, p_dense = anchor.p, lift(model, anchor)
    block_len, n_r = model.block_len, model.n_r
    k = model.q.shape[1]
    rng = np.random.default_rng(21)
    # three general arrays and three on the first coordinate (P h e_0)
    ys = complex_normal(rng, (6, block_len, k))
    ys[3:, :, 1:] = 0.0
    for y_j, got_j in zip(ys, p.apply(ys)):
        assert rel_err(lift_vector(model, got_j), p_dense @ lift_vector(model, y_j)) < RTOL
    diag = np.diag(p_dense).real.reshape(block_len, n_r).sum(axis=1)
    assert rel_err(p.diag, diag) < RTOL
    abs2 = (np.abs(p_dense) ** 2).reshape(block_len, n_r, block_len, n_r).sum(axis=(1, 3))
    ds = rng.uniform(0.1, 2.0, (3, block_len))
    assert rel_err(p.abs2_apply(ds), ds @ abs2) < RTOL
    assert rel_err(p.abs2_apply(ds[0]), abs2 @ ds[0]) < RTOL


@pytest.mark.parametrize("quantized,bound", [(True, crb_pt),
                                             (False, crb_pt_infinite_resolution)])
def test_model_variant_gives_the_bits_of_its_bound(quantized, bound):
    # the variant is read from the model by bound, by the anchor and by the
    # solver's info["bound"] alike
    for shape in ((3, 3, 2), (8, 8, 10)):
        model, x, _, _ = instance(30, *shape, quantized=quantized)
        want = bound(x, model.theta, model.sigma_alpha_sq, model.sigma_v_sq, model.n_r,
                     model.block_len)
        assert model.bound(x) == want
        assert bound_from_trace(build_anchor(model, x).p.trace) == want
        assert solve_x_pt(model, x, max_iter=0)[1]["bound"] == want


@pytest.mark.parametrize("theta", [math.pi / 2, -math.pi / 2])
def test_endfire_bound_stays_infinite(theta):
    for shape in ((3, 3, 2), (16, 32, 4)):
        model, x, _, _ = instance(0, *shape, theta=theta)
        args = (x, theta, model.sigma_alpha_sq, model.sigma_v_sq, model.n_r, model.block_len)
        assert math.isinf(crb_pt(*args))
        assert math.isinf(crb_pt_infinite_resolution(*args))


def test_pt_chain_uses_no_dense_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve or factorization on the point-target path")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    for name in ("cho_factor", "cho_solve"):
        monkeypatch.setattr(scipy.linalg, name, refuse)
    monkeypatch.setattr(linalg, "hermitian_factor", refuse)
    monkeypatch.setattr(linalg, "hermitian_solve", refuse)
    monkeypatch.setattr(crb_metrics, "hermitian_solve", refuse)
    # kL = 2048: one kL x kL complex array alone is 67 MB
    model, x, _, (u, lam, h) = instance(3, 2, 8, 1024)
    kl = model.q.shape[1] * model.block_len
    assert kl == 2048
    for quantized in (True, False):
        variant = replace(model, quantized=quantized)
        tracemalloc.start()
        try:
            solve_x_pt(variant, x, 2.0, u, lam, h, power=1.0, max_iter=1)
            crb_pt(x, model.theta, 1.0, 0.1, model.n_r, model.block_len)
            crb_pt_infinite_resolution(x, model.theta, 1.0, 0.1, model.n_r, model.block_len)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # P is held by its factors: the line search's stacked (K, L, k)
        # arrays are the largest on the path
        assert peak < 16 * kl * kl / 4


def test_bound_and_mm_iteration_beyond_dense_reach():
    # n_r * L = 4096: one dense n x n complex matrix alone is 268 MB
    n_t, n_r, block_len = 4, 64, 64
    n = n_r * block_len
    model = PtModel(math.radians(30.0), 1.0, 1e-2, n_t, n_r, block_len)
    x = complex_normal(np.random.default_rng(4), n_t * block_len)
    x /= np.linalg.norm(x)
    tracemalloc.start()
    try:
        bound = crb_pt(x, model.theta, 1.0, 1e-2, n_r, block_len)
        x_new, info = solve_x_pt(model, x, rho=0.0, power=1.0, tol=0.0, max_iter=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(bound) and bound > 0.0
    assert info["n_iter"] == 1
    hist = info["objective_history"]
    assert hist[1] <= hist[0] + 1e-9 * abs(hist[0])
    assert abs(-1.0 / hist[0] - bound) < 1e-9 * bound
    assert np.vdot(x_new, x_new).real <= 1.0 + 1e-12
    assert peak < 16 * n * n / 16  # well under one n x n complex array
