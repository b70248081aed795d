import numpy as np
import pytest

from onebit_isac import opt_et, opt_pt
from onebit_isac.admm import AdmmConfig, admm_run, initialize
from onebit_isac.comm_sep import sep_constraints_satisfied
from onebit_isac.crb_metrics import crb_pt
from onebit_isac.linalg import h_tilde_apply
from onebit_isac.scenario import et_scenario, pt_scenario


def small_pt(**kw):
    base = dict(n_t=4, n_r=4, n_users=2, block_len=4, snr_sensing_db=20.0,
                snr_comm_db=30.0, epsilon=1e-2, seed=0)
    base.update(kw)
    return pt_scenario(**base)


def test_config_validation_and_defaults():
    with pytest.raises(ValueError):
        AdmmConfig(rho0=0.0, c_rho=2.0, rho_max=1.0)
    with pytest.raises(ValueError):
        AdmmConfig(rho0=1.0, c_rho=1.0, rho_max=10.0)
    pt = AdmmConfig.pt_defaults()
    assert (pt.rho0, pt.c_rho, pt.rho_max) == (1e2, 3.0, 1e12)
    et = AdmmConfig.et_defaults()
    assert (et.rho0, et.c_rho, et.rho_max) == (1.0, 1.1, 10.0)
    assert pt.tol_residual == 1e-4 and pt.tol_objective == 1e-4


def test_initialize_contract():
    sc = small_pt()
    x, u, d, lam = initialize(sc, seed=3)
    assert np.vdot(x, x).real == pytest.approx(sc.power, abs=1e-12)
    assert np.allclose(lam, 0.0)
    spec = sc.sep_spec()
    assert np.allclose(d, spec.gamma)
    u_mat = u.reshape((sc.n_users, sc.block_len), order="F")
    ok, margin = sep_constraints_satisfied(u_mat, d, spec)
    assert ok, margin
    x2, u2, d2, lam2 = initialize(sc, seed=3)
    assert np.array_equal(x, x2) and np.array_equal(u, u2)


def test_no_users_reduces_to_pure_objective():
    sc = small_pt(n_users=0)
    cfg = AdmmConfig(rho0=1.0, c_rho=2.0, rho_max=4.0, max_outer=3, max_inner=5)
    res = admm_run(sc, "PT", config=cfg, seed=0)
    assert np.allclose(res.trace.residuals, 0.0)
    assert res.u.size == 0 and res.d.size == 0
    assert res.trace.objectives[-1] <= res.trace.objectives[0] * (1 + 1e-9)


def test_unknown_variant_and_infeasible_start():
    sc = small_pt()
    with pytest.raises(ValueError):
        admm_run(sc, "BOGUS")
    with pytest.raises(ValueError):
        admm_run(sc, "PT", x_init=np.full(sc.n_t * sc.block_len, 2.0 + 0j))


def test_trace_lengths_consistent():
    sc = small_pt()
    cfg = AdmmConfig(rho0=10.0, c_rho=3.0, rho_max=1e6, max_outer=6, max_inner=5)
    res = admm_run(sc, "PT", config=cfg, seed=1)
    t = res.trace
    assert len(t.residuals) == len(t.objectives) == len(t.rhos) == len(t.wall_times)
    assert all(r >= 0.0 for r in t.residuals)
    assert t.rhos[0] == 10.0


@pytest.mark.parametrize("variant", ["PT", "PT_INF", "ET"])
def test_trace_records_each_outer_waveform_solve(monkeypatch, variant):
    module, name = (opt_pt, "solve_x_pt") if variant.startswith("PT") else (opt_et, "solve_x_et")
    solve = getattr(module, name)
    infos = []

    def recording(*args, **kwargs):
        x, info = solve(*args, **kwargs)
        infos.append(info)
        return x, info

    monkeypatch.setattr(module, name, recording)
    if variant == "ET":
        sc = et_scenario(snr_sensing_db=20.0, snr_comm_db=30.0, seed=0)
        cfg = AdmmConfig(rho0=1.0, c_rho=1.1, rho_max=10.0, max_outer=8, max_inner=6)
    else:
        sc = small_pt()
        cfg = AdmmConfig(rho0=10.0, c_rho=3.0, rho_max=1e6, max_outer=6, max_inner=5)
    res = admm_run(sc, variant, config=cfg, seed=1)
    t = res.trace
    per_outer = (t.residuals, t.objectives, t.rhos, t.wall_times, t.inner_iters, t.stalled)
    assert all(len(values) == res.n_outer for values in per_outer)
    assert len(infos) == res.n_outer
    assert t.inner_iters == [info["n_iter"] for info in infos]
    assert sum(t.inner_iters) == sum(info["n_iter"] for info in infos) > 0
    assert t.stalled == [info.get("stalled", False) for info in infos]
    if variant == "ET":
        assert not any(t.stalled)


def test_small_pt_run_converges_and_is_feasible():
    sc = small_pt()
    res = admm_run(sc, "PT", seed=2)
    assert res.trace.residuals[-1] < 1e-4
    assert np.vdot(res.x, res.x).real <= sc.power * (1 + 1e-9)
    u_mat = res.u.reshape((sc.n_users, sc.block_len), order="F")
    ok, margin = sep_constraints_satisfied(u_mat, res.d, sc.sep_spec())
    assert ok, margin
    hx = sc.channel @ sc.unvec_waveform(res.x)
    ok2, margin2 = sep_constraints_satisfied(hx, res.d, sc.sep_spec(), atol=1e-2)
    assert ok2, margin2


def test_small_et_run_converges():
    sc = et_scenario(snr_sensing_db=20.0, snr_comm_db=30.0, seed=0)
    res = admm_run(sc, "ET", seed=2)
    assert res.trace.residuals[-1] < 1e-4
    assert res.converged


def test_min_sep_power_flags_infeasible_configuration():
    from onebit_isac.scenario import min_sep_power

    feasible = small_pt()
    assert min_sep_power(feasible) < feasible.power
    # a crowded square channel at low comm SNR cannot meet the SEP budget,
    # and the run then reports the stalled residual honestly
    crowded = pt_scenario(n_t=4, n_r=4, n_users=4, block_len=4,
                          snr_comm_db=10.0, epsilon=1e-2, seed=0)
    assert min_sep_power(crowded) > crowded.power
    cfg = AdmmConfig(rho0=10.0, c_rho=3.0, rho_max=1e8, max_outer=10, max_inner=5)
    res = admm_run(crowded, "PT", config=cfg, seed=0)
    assert not res.converged
    assert res.trace.residuals[-1] > 1e-4


def test_pt_inf_variant_logs_infinite_resolution_objective():
    sc = small_pt()
    cfg = AdmmConfig(rho0=10.0, c_rho=3.0, rho_max=1e6, max_outer=4, max_inner=5)
    res_q = admm_run(sc, "PT", config=cfg, seed=3)
    res_i = admm_run(sc, "PT_INF", config=cfg, seed=3)
    # both produce feasible-power waveforms; the logged objectives differ
    # because the baseline tracks the unquantized bound
    assert res_q.trace.objectives[-1] != res_i.trace.objectives[-1]
    c_onebit_q = crb_pt(res_q.x, sc.target.theta, 1.0, sc.sigma_v_sq, sc.n_r,
                        sc.block_len)
    assert np.isfinite(c_onebit_q)


def test_et_qu_variant_runs():
    sc = et_scenario(snr_sensing_db=20.0, snr_comm_db=30.0, seed=0)
    cfg = AdmmConfig(rho0=1.0, c_rho=1.1, rho_max=10.0, max_outer=30, max_inner=10)
    res = admm_run(sc, "ET_QU", config=cfg, seed=4)
    assert len(res.trace) <= 30
    assert all(np.isfinite(res.trace.objectives))


def test_dual_rescaling_tracks_rho_growth():
    sc = small_pt()
    cfg = AdmmConfig(rho0=1.0, c_rho=10.0, rho_max=100.0, max_outer=4, max_inner=4)
    res = admm_run(sc, "PT", config=cfg, seed=5)
    # rho capped at rho_max after two growth steps
    assert res.trace.rhos[:3] == [1.0, 10.0, 100.0]
    assert res.trace.rhos[-1] == 100.0


def test_residual_tracks_constraint_gap():
    sc = small_pt()
    cfg = AdmmConfig(rho0=10.0, c_rho=3.0, rho_max=1e8, max_outer=8, max_inner=8)
    res = admm_run(sc, "PT", config=cfg, seed=6)
    hx = h_tilde_apply(sc.channel, res.x, sc.block_len)
    gap = float(np.vdot(hx - res.u, hx - res.u).real)
    assert gap == pytest.approx(res.trace.residuals[-1], rel=1e-9, abs=1e-15)


def test_x_init_sets_the_initial_auxiliary_block():
    # with no outer iteration the result carries the initial u: the clamp of
    # H~ x_init, not of the seed's random waveform
    from onebit_isac.sep_projection import _clamp_u

    sc = small_pt()
    x0, u0, _, _ = initialize(sc, seed=0)
    x_init, _, _, _ = initialize(sc, seed=5)
    config = AdmmConfig.pt_defaults()
    config.max_outer = 0
    res = admm_run(sc, "PT", config=config, x_init=x_init, seed=0)
    spec = sc.sep_spec()
    chi = h_tilde_apply(sc.channel, x_init, sc.block_len).reshape(
        (sc.n_users, sc.block_len), order="F")
    want = (_clamp_u(chi.real, spec.s_real, spec.a_r, spec.b_r, spec.gamma)
            + 1j * _clamp_u(chi.imag, spec.s_imag, spec.a_i, spec.b_i, spec.gamma))
    assert not np.allclose(x_init, x0)
    assert not np.allclose(res.u, u0)
    assert np.array_equal(res.u, want.reshape(-1, order="F"))
    # x_init equal to the seed's waveform keeps the seed's u
    res0 = admm_run(sc, "PT", config=config, x_init=x0, seed=0)
    assert np.array_equal(res0.u, u0)
