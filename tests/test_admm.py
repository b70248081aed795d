import numpy as np
import pytest

from onebit_isac import opt_et, opt_pt
from onebit_isac.admm import AdmmConfig, admm_run, initialize, variant_model
from onebit_isac.comm_sep import sep_constraints_satisfied
from onebit_isac.crb_metrics import (DensePrior, KronPrior, PtModel, crb_et, crb_pt,
                                     crb_pt_infinite_resolution, mse_et_quantization_unaware)
from onebit_isac.linalg import unvec, vec
from onebit_isac.opt_et import EtProblem
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


@pytest.mark.parametrize("bad", [
    dict(rho0=float("nan")), dict(rho0=float("inf"), rho_max=float("inf")),
    dict(c_rho=float("inf")), dict(c_rho=float("nan")), dict(rho_max=float("inf")),
    dict(rho_max=0.5), dict(max_outer=0), dict(max_outer=2.5), dict(max_outer=True),
    dict(max_inner=0), dict(max_inner=-3), dict(tol_residual=-1.0),
    dict(tol_objective=float("nan")), dict(inner_tol=float("inf")),
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        AdmmConfig(**{**dict(rho0=1.0, c_rho=2.0, rho_max=10.0), **bad})


def test_config_accepts_zero_tolerances_and_numpy_counts():
    cfg = AdmmConfig(rho0=1.0, c_rho=2.0, rho_max=1.0, tol_residual=0.0, tol_objective=0.0,
                     inner_tol=0.0, max_outer=np.int64(2), max_inner=np.int32(1))
    assert cfg.max_outer == 2 and cfg.max_inner == 1


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
    for run in (admm_run, variant_model):
        with pytest.raises(ValueError, match="unknown variant 'BOGUS'"):
            run(sc, "BOGUS")
    with pytest.raises(ValueError):
        admm_run(sc, "PT", x_init=np.full(sc.n_t * sc.block_len, 2.0 + 0j))


@pytest.mark.parametrize("variant,scenario", [("ET", small_pt), ("ET_QU", small_pt),
                                              ("PT", et_scenario), ("PT_INF", et_scenario)])
def test_variant_must_fit_the_scenario_kind(variant, scenario):
    sc = scenario()
    for run in (admm_run, variant_model):
        with pytest.raises(ValueError, match=f"{variant!r}.*scenario.kind {sc.kind!r}"):
            run(sc, variant)


@pytest.mark.parametrize("variant,scenario,kind,flag,value", [
    ("PT", small_pt, PtModel, "quantized", True),
    ("PT_INF", small_pt, PtModel, "quantized", False),
    ("ET", et_scenario, EtProblem, "quantization_aware", True),
    ("ET_QU", et_scenario, EtProblem, "quantization_aware", False),
])
def test_variant_model_fixes_the_variant_on_its_model(variant, scenario, kind, flag, value):
    sc = scenario()
    model = variant_model(sc, variant)
    assert type(model) is kind and getattr(model, flag) is value
    assert (model.n_t, model.n_r, model.block_len, model.sigma_v_sq) == (
        sc.n_t, sc.n_r, sc.block_len, sc.sigma_v_sq)
    x = initialize(sc, 3)[0]
    want = {"PT": crb_pt, "PT_INF": crb_pt_infinite_resolution}.get(variant)
    if want is not None:
        assert model.bound(x) == want(x, sc.target.theta, sc.target.sigma_alpha_sq,
                                      sc.sigma_v_sq, sc.n_r, sc.block_len)
    else:
        want = crb_et if variant == "ET" else mse_et_quantization_unaware
        assert model.bound(x) == want(sc.unvec_waveform(x), sc.target.c_aa, sc.sigma_v_sq)


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
    per_outer = (t.residuals, t.objectives, t.rhos, t.wall_times, t.inner_iters, t.stalled,
                 t.inner_stops)
    assert all(len(values) == res.n_outer for values in per_outer)
    assert len(infos) == res.n_outer
    assert t.inner_iters == [info["n_iter"] for info in infos]
    assert sum(t.inner_iters) == sum(info["n_iter"] for info in infos) > 0
    assert t.stalled == [info["stalled"] for info in infos]
    assert t.inner_stops == [info["stop"] for info in infos]
    if variant == "ET":
        assert not any(t.stalled)


@pytest.mark.parametrize("variant", ["PT", "ET"])
def test_non_finite_objective_raises_with_the_earlier_iterations(monkeypatch, variant):
    module, name = (opt_pt, "solve_x_pt") if variant == "PT" else (opt_et, "solve_x_et")
    solve = getattr(module, name)
    calls = []

    def nan_at_outer_two(*args, **kwargs):
        x, info = solve(*args, **kwargs)
        calls.append(info)
        if len(calls) == 3:
            info = dict(info, bound=float("nan"))
        return x, info

    monkeypatch.setattr(module, name, nan_at_outer_two)
    if variant == "ET":
        sc = et_scenario(snr_sensing_db=20.0, snr_comm_db=30.0, seed=0)
        cfg = AdmmConfig(rho0=1.0, c_rho=1.1, rho_max=10.0, max_outer=8, max_inner=6)
    else:
        sc = small_pt()
        cfg = AdmmConfig(rho0=10.0, c_rho=3.0, rho_max=1e6, max_outer=6, max_inner=5)
    with pytest.raises(RuntimeError, match="non-finite objective at outer iteration 2") as err:
        admm_run(sc, variant, config=cfg, seed=1)
    assert len(calls) == 3
    trace = err.value.trace
    assert len(trace) == 2
    assert trace.inner_iters == [info["n_iter"] for info in calls[:2]]
    assert all(np.isfinite(trace.objectives))


@pytest.mark.parametrize("variant,bound", [("PT", crb_pt),
                                           ("PT_INF", crb_pt_infinite_resolution),
                                           ("ET", crb_et),
                                           ("ET_QU", mse_et_quantization_unaware)])
def test_pt_objective_is_read_from_the_last_anchor(monkeypatch, variant, bound):
    # the objective is the solver's info["bound"] at its x; no outer
    # iteration builds a chain or an anchor that the solver did not
    calls = {"chain_p": 0, "build_anchor": 0, "prior_anchor": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(PtModel, "chain_p", counted("chain_p", PtModel.chain_p))
    monkeypatch.setattr(opt_pt, "build_anchor", counted("build_anchor", opt_pt.build_anchor))
    for prior in (KronPrior, DensePrior):
        monkeypatch.setattr(prior, "anchor", counted("prior_anchor", prior.anchor))
    if variant.startswith("PT"):
        sc = small_pt()
        cfg = AdmmConfig(rho0=10.0, c_rho=3.0, rho_max=1e6, max_outer=6, max_inner=5)
    else:
        sc = et_scenario(snr_sensing_db=20.0, snr_comm_db=30.0, seed=0)
        cfg = AdmmConfig(rho0=1.0, c_rho=1.1, rho_max=10.0, max_outer=8, max_inner=6)
    res = admm_run(sc, variant, config=cfg, seed=1)
    monkeypatch.undo()
    if variant.startswith("PT"):
        assert calls["chain_p"] == calls["build_anchor"] > res.n_outer
        want = bound(res.x, sc.target.theta, sc.target.sigma_alpha_sq, sc.sigma_v_sq,
                     sc.n_r, sc.block_len)
    else:
        # one anchor at the start and one at each inner iterate
        assert calls["prior_anchor"] == 1 + sum(res.trace.inner_iters) > res.n_outer
        want = (bound(sc.unvec_waveform(res.x), sc.target.c_aa, sc.sigma_v_sq)
                / float(np.trace(sc.target.c_aa).real))
    assert res.trace.objectives[-1] == want


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


def test_run_reports_why_it_stopped():
    # the desk ET_QU design of scenario 0 runs to its 300-iteration cap,
    # its inner solves crawling: each of the last 10 stops on inner_tol after
    # one step; the desk ET design of scenario 3 converges
    res = admm_run(et_scenario(seed=0), "ET_QU", seed=0)
    assert res.reason == "max_outer" and not res.converged
    assert res.n_outer == AdmmConfig.et_defaults().max_outer == 300
    assert res.trace.inner_stops[-10:] == ["tol"] * 10
    assert res.trace.inner_iters[-10:] == [1] * 10
    res = admm_run(et_scenario(seed=3), "ET", seed=3)
    assert res.reason == "converged" and res.converged and res.n_outer == 15


# the desk design cases with their ADMM outer and summed inner iteration
# counts and final objectives: any change to them is a change of numbers
DESK_DESIGNS = [
    ("PT", 0, 16, 302, 5.323703893336096e-05),
    ("ET", 0, 19, 348, 0.18852616934310273),
    ("ET", 1, 46, 920, 0.21950633649344142),
    ("ET_QU", 0, 300, 800, 0.0041248478916540154),
    ("PT_INF", 0, 13, 246, 2.1470711351582798e-05),
    ("ET", 2, 19, 370, 0.1888922992861818),
    ("ET", 3, 15, 277, 0.18873436062239735),
    ("ET_QU", 1, 31, 527, 0.007532942862211178),
]


@pytest.mark.parametrize("variant,seed,outer,inner,objective", DESK_DESIGNS)
def test_desk_design_is_pinned(variant, seed, outer, inner, objective):
    sc = (pt_scenario if variant.startswith("PT") else et_scenario)(seed=seed)
    res = admm_run(sc, variant, x_init=initialize(sc, seed)[0], seed=seed)
    assert (res.n_outer, sum(res.trace.inner_iters)) == (outer, inner)
    assert res.trace.objectives[-1] == pytest.approx(objective, rel=1e-9)


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
    assert not res.converged and res.reason == "budget_infeasible"
    assert res.trace.residuals[-1] > 1e-4
    # the desk ET_QU design of scenario 0 also stops at its cap, but on a
    # budget that fits the constraints: test_run_reports_why_it_stopped
    # reads its reason as max_outer
    desk = et_scenario(seed=0)
    assert min_sep_power(desk) < desk.power


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
    hx = vec(sc.channel @ unvec(res.x, sc.n_t, sc.block_len))
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
    chi = sc.channel @ unvec(x_init, sc.n_t, sc.block_len)
    k = sc.n_users
    want = (_clamp_u(chi.real, spec.s[:k], spec.a[:k], spec.b[:k], spec.gamma)
            + 1j * _clamp_u(chi.imag, spec.s[k:], spec.a[k:], spec.b[k:], spec.gamma))
    assert not np.allclose(x_init, x0)
    assert not np.allclose(res.u, u0)
    assert np.array_equal(res.u, want.reshape(-1, order="F"))
    # x_init equal to the seed's waveform keeps the seed's u
    res0 = admm_run(sc, "PT", config=config, x_init=x0, seed=0)
    assert np.array_equal(res0.u, u0)
