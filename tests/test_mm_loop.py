"""The majorize-minimize loop both waveform solvers share (linalg.mm_loop),
checked through the public solvers: the power and finiteness check of the
start, the stop rules with the reason each reports and the one info schema."""

import math

import numpy as np
import pytest
from helpers_oracles import random_ball_point

from onebit_isac import opt_pt
from onebit_isac.admm import admm_run
from onebit_isac.array_geometry import EtTarget, exponential_correlation
from onebit_isac.crb_metrics import PtModel, crb_et, crb_pt
from onebit_isac.linalg import complex_normal, unvec
from onebit_isac.opt_et import EtProblem, solve_x_et
from onebit_isac.opt_pt import solve_x_pt
from onebit_isac.scenario import et_scenario, pt_scenario

INFO_KEYS = {"objective_history", "n_iter", "stalled", "stop", "bound"}


def pt_case(seed=0):
    rng = np.random.default_rng(seed)
    model = PtModel(math.radians(30.0), 1.0, 0.1, 3, 4, 4)
    return model, random_ball_point(rng, 12)


def et_case(seed=0):
    rng = np.random.default_rng(seed)
    c_aa = EtTarget(exponential_correlation(2, 0.5), exponential_correlation(3, 0.5)).c_aa
    return EtProblem(c_aa, 0.05, 3, 2, 4), random_ball_point(rng, 12)


def penalty(seed=1):
    rng = np.random.default_rng(seed)
    return dict(rho=0.7, u_i=complex_normal(rng, 8), lambda_i=0.1 * complex_normal(rng, 8),
                channel=complex_normal(rng, (2, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("caller", ["solve_x_pt", "solve_x_et", "admm_run_pt", "admm_run_et"])
def test_a_non_finite_start_is_rejected(caller, bad):
    # an inf entry would also fail the power check; the finiteness check
    # runs first, so both name the entry
    if caller == "solve_x_pt":
        model, x = pt_case()
        call = lambda x: solve_x_pt(model, x)  # noqa: E731
    elif caller == "solve_x_et":
        problem, x = et_case()
        call = lambda x: solve_x_et(problem, x, **penalty())  # noqa: E731
    else:
        sc = pt_scenario(seed=0) if caller == "admm_run_pt" else et_scenario(seed=0)
        x = np.zeros(sc.n_t * sc.block_len, dtype=complex)
        variant = "PT" if caller == "admm_run_pt" else "ET"
        call = lambda x: admm_run(sc, variant, x_init=x)  # noqa: E731
    x = np.array(x, dtype=complex)
    x[3] = bad
    with pytest.raises(ValueError, match="waveform has non-finite entries"):
        call(x)
    with pytest.raises(ValueError, match="waveform has non-finite entries"):
        call(np.full(x.size, bad))


@pytest.mark.parametrize("kind", ["PT", "ET"])
def test_zero_iterations_report_the_start(kind):
    if kind == "PT":
        model, x0 = pt_case()
        x, info = solve_x_pt(model, x0, max_iter=0)
        want = crb_pt(x0, model.theta, model.sigma_alpha_sq, model.sigma_v_sq, model.n_r,
                      model.block_len)
    else:
        problem, x0 = et_case()
        x, info = solve_x_et(problem, x0, max_iter=0, **penalty())
        want = crb_et(unvec(x0, 3, 4), problem.c_aa, problem.sigma_v_sq)
    assert set(info) == INFO_KEYS
    assert np.array_equal(x, x0)
    assert info["n_iter"] == 0
    assert len(info["objective_history"]) == 1
    assert info["stalled"] is False
    assert info["stop"] == "max_iter"
    assert info["bound"] == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_a_stalled_step_stops_the_loop(monkeypatch, scale):
    # scale 0.5 moves the objective, so only the stall can stop the loop
    model, x0 = pt_case()
    steps = []

    def stalling(anchor, x, *args):
        steps.append(x)
        return scale * x, 0.0, True

    monkeypatch.setattr(opt_pt, "pgd_step", stalling)
    x, info = solve_x_pt(model, x0, tol=0.0, max_iter=10)
    assert len(steps) == 1
    assert info["stalled"] is True
    assert info["stop"] == "stalled"
    assert info["n_iter"] == 1
    history = info["objective_history"]
    assert len(history) == 2
    assert (history[1] == history[0]) == (scale == 1.0)
    assert np.array_equal(x, scale * x0)
    assert info["bound"] == pytest.approx(
        crb_pt(x, model.theta, model.sigma_alpha_sq, model.sigma_v_sq, model.n_r,
               model.block_len), rel=1e-9)


@pytest.mark.parametrize("tol,max_iter", [(0.0, 4), (1e-2, 50)])
def test_both_solvers_share_one_info_schema_and_stop_rule(tol, max_iter):
    # tol 0 runs every step; tol 1e-2 stops both at the first relative
    # objective change of at most tol, well before max_iter
    model, x_pt = pt_case(2)
    problem, x_et = et_case(2)
    x1, pt_info = solve_x_pt(model, x_pt, tol=tol, max_iter=max_iter, **penalty())
    x2, et_info = solve_x_et(problem, x_et, tol=tol, max_iter=max_iter, **penalty())
    for x, info in ((x1, pt_info), (x2, et_info)):
        assert set(info) == INFO_KEYS
        assert info["stalled"] is False
        history = info["objective_history"]
        assert info["n_iter"] == len(history) - 1
        small = [abs(b - a) <= tol * (abs(a) + 1e-30) for a, b in zip(history, history[1:])]
        if tol == 0.0:
            assert info["n_iter"] == max_iter
            assert info["stop"] == "max_iter"
        else:
            assert info["n_iter"] < max_iter
            assert info["stop"] == "tol"
            assert small[-1] and not any(small[:-1])
        assert float(np.vdot(x, x).real) <= 1.0 + 1e-9


@pytest.mark.parametrize("kind", ["PT", "ET"])
@pytest.mark.parametrize("change,match", [
    (dict(tol=math.nan), "tol must be finite and non-negative"),
    (dict(tol=math.inf), "tol must be finite and non-negative"),
    (dict(tol=-1e-6), "tol must be finite and non-negative"),
    (dict(max_iter=2.5), "max_iter must be an integer of at least 0"),
    (dict(max_iter=-1), "max_iter must be an integer of at least 0"),
    (dict(max_iter=True), "max_iter must be an integer of at least 0"),
])
def test_the_loop_rejects_a_bad_tolerance_or_cap(kind, change, match):
    # a NaN tol used to run every step and report "max_iter"
    solve, (model, x0) = ((solve_x_pt, pt_case()) if kind == "PT"
                          else (solve_x_et, et_case()))
    with pytest.raises(ValueError, match=match):
        solve(model, x0, **{"tol": 1e-6, "max_iter": 5, **change})
    assert solve(model, x0, tol=0.0, max_iter=np.int64(2))[1]["n_iter"] == 2


@pytest.mark.parametrize("kind", ["PT", "ET"])
@pytest.mark.parametrize("change,match", [
    (dict(rho=-1.0), "rho must be finite and non-negative"),
    (dict(rho=math.nan), "rho must be finite and non-negative"),
    (dict(u_i=None), "u_i and lambda_i must be finite vectors of length K L = 8"),
    (dict(u_i=np.zeros(6, complex)), "u_i and lambda_i must be finite vectors of length K L = 8"),
    (dict(lambda_i=np.zeros(9, complex)), "u_i and lambda_i must be finite vectors of length K L = 8"),
    (dict(channel=np.zeros((2, 4), complex)), "channel must be a finite K x 3 matrix"),
])
def test_both_solvers_reject_a_bad_penalty(kind, change, match):
    # a negative rho used to run and return a bound, a missing u_i to raise
    # TypeError and a mis-sized one a broadcast error, deep in the step
    solve, (model, x0) = ((solve_x_pt, pt_case()) if kind == "PT"
                          else (solve_x_et, et_case()))
    with pytest.raises(ValueError, match=match):
        solve(model, x0, max_iter=2, **{**penalty(), **change})
