"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py -v`).

Desk-scale settings mirror the library defaults: 8x8 arrays with block
length 10 for point targets, 4x4 with block length 8 for extended targets,
16-QAM, unit power budget.
"""

import math
import time
from pathlib import Path

import numpy as np
from helpers_oracles import (
    PtSlotOracle,
    augmented_objective,
    augmented_objective_et,
    conjugate_gradient_fd,
    crb_et_forms_equal,
    random_ball_point,
    wirtinger_dx,
)
from test_sep_projection import brute_force_objective, random_instance

from onebit_isac.admm import admm_run
from onebit_isac.array_geometry import pt_response_operator
from onebit_isac.bench_cli import ExperimentConfig, emit, run_experiment
from onebit_isac.comm_sep import empirical_ser, sep_constraints_satisfied
from onebit_isac.crb_metrics import (
    PtModel,
    crb_et,
    crb_pt,
    crb_pt_infinite_resolution,
)
from onebit_isac.estimators import run_trials
from onebit_isac.linalg import build_penalty, complex_normal, psd_sqrt, unvec
from onebit_isac.opt_et import (
    EtProblem,
    build_et_surrogate,
    mm_update_et,
    solve_x_et,
)
from onebit_isac.opt_pt import (
    build_anchor,
    gradient_rows,
    solve_x_pt,
    surrogate_gradient,
    surrogate_value,
)
from onebit_isac.quantization import covariance_czz_exact, quantize_one_bit
from onebit_isac.scenario import et_scenario, pt_scenario
from onebit_isac.sep_projection import solve_user_qp


def check(criterion, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE {criterion:02d}] {status}: {description}  {detail}")
    assert passed, f"criterion {criterion}: {description} {detail}"


def test_criterion_01_gradient_ledger():
    t0 = time.time()
    slot_of = {"m11": "c", "m12": "dc", "m13": "f",
               "m14": "df_j1", "m15": "df_delta", "m16": "df_j2"}
    worst_total = 0.0
    rng = np.random.default_rng(0)
    for trial in range(30):
        theta = rng.uniform(-1.2, 1.2)
        model = PtModel(theta, float(rng.uniform(0.5, 2.0)),
                        float(10 ** rng.uniform(-2, 0)), 3, 3, 2)
        x = random_ball_point(rng, 6)
        u = complex_normal(rng, 4)
        lam = 0.3 * complex_normal(rng, 4)
        h = complex_normal(rng, (2, 3))
        rho = float(10 ** rng.uniform(-1, 1))
        anchor = build_anchor(model, x)
        pen = build_penalty(rho, u, lam, h, 3, 2)
        fd = conjugate_gradient_fd(
            lambda y: surrogate_value(anchor, y, pen), x, h=1e-6
        )
        an = surrogate_gradient(anchor, x, pen)
        worst_total = max(worst_total, np.linalg.norm(an - fd) / np.linalg.norm(fd))
    worst_terms = 0.0
    for trial in range(5):
        model = PtModel(0.3 + 0.1 * trial, 1.0, 0.07, 3, 3, 2)
        rng_t = np.random.default_rng(500 + trial)
        x = random_ball_point(rng_t, 6)
        anchor = build_anchor(model, x)
        oracle = PtSlotOracle(model, anchor, x)
        rows = gradient_rows(anchor, x)
        for key, slot in slot_of.items():
            fd = wirtinger_dx(lambda y, s=slot: oracle.linear_term(y, s), x, h=1e-5)
            worst_terms = max(
                worst_terms,
                np.linalg.norm(rows[key] - fd) / max(np.linalg.norm(fd), 1e-30),
            )
        fd3 = wirtinger_dx(oracle.quadratic_term, x, h=1e-5)
        worst_terms = max(
            worst_terms, np.linalg.norm(rows["m3"] - fd3) / np.linalg.norm(fd3)
        )
    elapsed = time.time() - t0
    check(
        1, "analytic surrogate gradient matches finite differences",
        worst_total < 1e-6 and worst_terms < 1e-6 and elapsed < 10.0,
        f"(total rel {worst_total:.2e}, per-term rel {worst_terms:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_02_majorization_suites():
    rng = np.random.default_rng(1)
    # point-target surrogate
    model = PtModel(0.4, 1.0, 0.05, 3, 3, 2)
    x0 = random_ball_point(rng, 6)
    u = complex_normal(rng, 4)
    lam = 0.2 * complex_normal(rng, 4)
    h = complex_normal(rng, (2, 3))
    rho = 0.8
    anchor = build_anchor(model, x0)
    pen = build_penalty(rho, u, lam, h, 3, 2)
    aug0 = augmented_objective(model, x0, rho, u, lam, h)
    scale = abs(aug0) + 1.0
    touch_pt = abs(surrogate_value(anchor, x0, pen) - aug0)
    worst_pt = 0.0
    for _ in range(50):
        y = random_ball_point(rng, 6)
        gap = surrogate_value(anchor, y, pen) - augmented_objective(
            model, y, rho, u, lam, h
        )
        worst_pt = min(worst_pt, gap / scale)
    # extended-target surrogate chain
    prob = EtProblem(c_aa=np.eye(4) + 0.3 * np.ones((4, 4)), sigma_v_sq=0.05,
                     n_t=2, n_r=2, block_len=2)
    xe = random_ball_point(rng, 4)
    ue = complex_normal(rng, 4)
    lame = 0.2 * complex_normal(rng, 4)
    he = complex_normal(rng, (2, 2))
    pen_e = build_penalty(rho, ue, lame, he, 2, 2)
    sur = build_et_surrogate(prob, xe, pen_e)
    aug_t = augmented_objective_et(prob, xe, pen_e)
    shift = aug_t - sur.value(xe)
    scale_e = abs(aug_t) + 1.0
    worst_et = 0.0
    for _ in range(50):
        y = random_ball_point(rng, 4)
        gap = (sur.value(y) + shift) - augmented_objective_et(prob, y, pen_e)
        worst_et = min(worst_et, gap / scale_e)
    # MM monotonicity on the true augmented objectives
    _, info_pt = solve_x_pt(model, x0, rho, u, lam, h, power=1.0, max_iter=25)
    hist = info_pt["objective_history"]
    mono_pt = all(b <= a + 1e-9 * (abs(a) + 1.0) for a, b in zip(hist, hist[1:]))
    xe_i = xe.copy()
    prev = aug_t
    mono_et = True
    for _ in range(25):
        s = build_et_surrogate(prob, xe_i, pen_e)
        xe_i = mm_update_et(xe_i, s, power=1.0)
        cur = augmented_objective_et(prob, xe_i, pen_e)
        mono_et &= cur <= prev + 1e-9 * (abs(prev) + 1.0)
        prev = cur
    check(
        2, "surrogates dominate with equality at the anchor; MM monotone",
        touch_pt < 1e-8 * scale and worst_pt >= -1e-8
        and worst_et >= -1e-8 and mono_pt and mono_et,
        f"(touch {touch_pt:.1e}, worst gaps {worst_pt:.1e}/{worst_et:.1e})",
    )


def test_criterion_03_projection_oracle_equivalence():
    from concurrent.futures import ThreadPoolExecutor

    t0 = time.time()
    rng = np.random.default_rng(2)
    instances = [random_instance(rng, int(rng.integers(1, 9))) for _ in range(200)]

    def one(inst):
        d, u_sol, obj = solve_user_qp(inst)
        oracle = brute_force_objective(inst)
        up = np.where(np.isfinite(inst.a_tilde),
                      (inst.s_tilde + 1) * d - inst.a_tilde, np.inf)
        lo = np.where(np.isfinite(inst.b_tilde),
                      (inst.s_tilde - 1) * d + inst.b_tilde, -np.inf)
        violation = float(max(np.max(u_sol - up, initial=0.0),
                              np.max(lo - u_sol, initial=0.0),
                              inst.gamma - d))
        return obj - oracle, violation

    with ThreadPoolExecutor(max_workers=2) as pool:
        gaps, violations = zip(*pool.map(one, instances))
    worst_gap = max(gaps)
    worst_violation = max(violations)
    elapsed = time.time() - t0
    check(
        3, "closed-form projection matches the brute-force oracle",
        worst_gap <= 1e-6 and worst_violation <= 1e-9 and elapsed < 30.0,
        f"(worst gap {worst_gap:.2e}, worst violation {worst_violation:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_04_arcsine_law_fidelity():
    rng = np.random.default_rng(3)
    a = complex_normal(rng, (4, 4))
    c = a @ a.conj().T + 0.5 * np.eye(4)
    c_true = covariance_czz_exact(c)
    root = psd_sqrt(c)
    n = 100000
    r = complex_normal(rng, (n, 4)) @ root.T
    z = quantize_one_bit(r)
    c_emp = z.T @ z.conj() / n
    se = np.sqrt((1.0 - np.abs(c_true) ** 2) / n)
    worst = np.max(np.abs(c_emp - c_true) - 3.0 * se)
    diag_exact = np.array_equal(np.diag(c_true), np.ones(4).astype(complex))
    check(
        4, "quantized covariance matches the arcsine law within 3 SE",
        worst <= 5.0 / n and diag_exact,
        f"(worst exceedance {worst:.2e}, unit diagonal {diag_exact})",
    )


def test_criterion_05_crb_tightness_pt():
    t0 = time.time()
    sc = pt_scenario(n_t=8, n_r=8, block_len=10, snr_sensing_db=30.0, seed=0)
    model = PtModel(sc.target.theta, sc.target.sigma_alpha_sq, sc.sigma_v_sq,
                    sc.n_t, sc.n_r, sc.block_len)
    rng = np.random.default_rng(7)
    x0 = complex_normal(rng, 80)
    x0 /= np.linalg.norm(x0)
    x, _ = solve_x_pt(model, x0, rho=0.0, power=1.0, tol=1e-9, max_iter=300)
    bound = crb_pt(x, model.theta, 1.0, sc.sigma_v_sq, sc.n_r, sc.block_len)
    summary = run_trials(sc, x, 500, base_seed=2024)
    gap_db = 10.0 * math.log10(summary.mse / bound)
    elapsed = time.time() - t0
    check(
        5, "one-bit MLE MSE within 1.5 dB of the point-target bound",
        abs(gap_db) <= 1.5 and summary.mse >= 0.8 * bound
        and summary.n_failed == 0 and elapsed < 600.0,
        f"(gap {gap_db:+.2f} dB, mse {summary.mse:.3e}, crb {bound:.3e}, {elapsed:.0f}s)",
    )


def test_criterion_06_one_bit_penalty():
    # fixed waveform at low per-sample SNR (strongest sample ~ -6 dB);
    # the bound ratio sits at the top of the pi/2 window there, and tends
    # to (pi/2)^2 in the asymptotically-noise-dominated limit
    rng = np.random.default_rng(2)
    x = complex_normal(rng, 80)
    x /= np.linalg.norm(x)
    theta = math.radians(30.0)
    sv = 10 ** (-18.75 / 10.0)
    ratio = crb_pt(x, theta, 1.0, sv, 8, 10) / crb_pt_infinite_resolution(
        x, theta, 1.0, sv, 8, 10
    )
    g = pt_response_operator(theta, 10, 8, 8).apply(x)
    per_sample_db = 10.0 * math.log10(np.max(np.abs(g) ** 2) / sv)
    lo, hi = (math.pi / 2) * 0.85, (math.pi / 2) * 1.15
    check(
        6, "one-bit degradation ratio falls in the pi/2 window",
        lo <= ratio <= hi and per_sample_db < 0.0,
        f"(ratio {ratio:.4f} vs [{lo:.4f}, {hi:.4f}], per-sample {per_sample_db:.1f} dB)",
    )


def test_criterion_07_crb_tightness_et():
    sc = et_scenario(n_t=4, n_r=4, block_len=8, snr_sensing_db=20.0, seed=0)
    rng = np.random.default_rng(42)
    x = complex_normal(rng, 32)
    x /= np.linalg.norm(x)
    xm = sc.unvec_waveform(x)
    bound = crb_et(xm, sc.target.c_aa, sc.sigma_v_sq)
    summary = run_trials(sc, xm, 500, base_seed=1000)
    gap_db = 10.0 * math.log10(summary.mse / bound)
    forms_ok, worst_form_gap = True, 0.0
    ok, g = crb_et_forms_equal(xm, sc.target.c_aa, sc.sigma_v_sq)
    forms_ok &= ok
    worst_form_gap = max(worst_form_gap, g)
    rng2 = np.random.default_rng(5)
    for _ in range(5):
        xr = unvec(complex_normal(rng2, 4), 2, 2)
        c = np.eye(4) + 0.4 * np.ones((4, 4))
        ok, g = crb_et_forms_equal(xr, c, 0.1)
        forms_ok &= ok
        worst_form_gap = max(worst_form_gap, g)
    check(
        7, "BLMMSE MSE within 0.3 dB of the extended-target bound; forms agree",
        abs(gap_db) <= 0.3 and forms_ok and summary.n_failed == 0,
        f"(gap {gap_db:+.3f} dB, worst algebraic-form gap {worst_form_gap:.1e})",
    )


def test_criterion_08_quantization_unaware_degradation():
    results = []
    for snr_db in (35.0, 40.0):
        sc = et_scenario(n_t=4, n_r=4, block_len=8, snr_sensing_db=snr_db, seed=0)
        prob = EtProblem(c_aa=sc.target.c_aa, sigma_v_sq=sc.sigma_v_sq,
                         n_t=4, n_r=4, block_len=8)
        prob_qu = EtProblem(c_aa=sc.target.c_aa, sigma_v_sq=sc.sigma_v_sq,
                            n_t=4, n_r=4, block_len=8, quantization_aware=False)
        rng = np.random.default_rng(3)
        x0 = complex_normal(rng, 32)
        x0 /= np.linalg.norm(x0)
        xa, _ = solve_x_et(prob, x0, rho=0.0, power=1.0, tol=1e-10, max_iter=400)
        xq, _ = solve_x_et(prob_qu, x0, rho=0.0, power=1.0, tol=1e-10, max_iter=400)
        ca = crb_et(unvec(xa, 4, 8), sc.target.c_aa, sc.sigma_v_sq)
        cq = crb_et(unvec(xq, 4, 8), sc.target.c_aa, sc.sigma_v_sq)
        results.append((snr_db, ca, cq))
    ok = all(ca < cq for _, ca, cq in results)
    detail = "; ".join(f"{s:g}dB: {ca:.4e} < {cq:.4e}" for s, ca, cq in results)
    check(8, "quantization-aware waveform beats the unaware one at >= 35 dB",
          ok, f"({detail})")


def test_criterion_09_admm_convergence_and_feasibility():
    t0 = time.time()
    results = {}
    sc_pt = pt_scenario(n_t=8, n_r=8, block_len=10, snr_sensing_db=30.0,
                        snr_comm_db=30.0, epsilon=1e-2, seed=0)
    results["PT"] = (sc_pt, admm_run(sc_pt, "PT", seed=1))
    sc_et = et_scenario(n_t=4, n_r=4, block_len=8, snr_sensing_db=30.0,
                        snr_comm_db=30.0, epsilon=1e-2, seed=0)
    results["ET"] = (sc_et, admm_run(sc_et, "ET", seed=1))
    ok = True
    details = []
    for tag, (sc, res) in results.items():
        residual = res.trace.residuals[-1]
        power_ok = np.vdot(res.x, res.x).real <= sc.power * (1 + 1e-9)
        u_mat = res.u.reshape((sc.n_users, sc.block_len), order="F")
        feas_u, _ = sep_constraints_satisfied(u_mat, res.d, sc.sep_spec())
        hx = sc.channel @ sc.unvec_waveform(res.x)
        feas_hx, _ = sep_constraints_satisfied(
            hx, res.d, sc.sep_spec(), atol=2.0 * math.sqrt(max(residual, 1e-30))
        )
        n_draws = 10000
        ser = empirical_ser(sc.unvec_waveform(res.x), sc.channel, sc.symbols,
                            res.d, sc.sigma_w, n_draws, seed=99,
                            order=sc.qam_order)
        se3 = 3.0 * math.sqrt(sc.epsilon * (1 - sc.epsilon)
                              / (n_draws * sc.block_len))
        ser_ok = bool(np.all(ser <= sc.epsilon + se3))
        ok &= residual < 1e-4 and power_ok and feas_u and feas_hx and ser_ok
        details.append(f"{tag}: residual {residual:.1e}, max SER {ser.max():.4f}")
    elapsed = time.time() - t0
    check(9, "ADMM reaches residual < 1e-4 with SEP- and power-feasible output",
          ok, f"({'; '.join(details)}, {elapsed:.0f}s)")


def test_criterion_10_tradeoff():
    t0 = time.time()
    epsilons = (1e-3, 1e-2, 1e-1)
    ok = True
    details = []
    # point target: quantization-aware vs infinite-resolution baseline
    vals = {v: [] for v in ("PT", "PT_INF")}
    for eps in epsilons:
        sc = pt_scenario(n_t=8, n_r=8, block_len=10, snr_sensing_db=30.0,
                         snr_comm_db=30.0, epsilon=eps, seed=0)
        for variant in vals:
            res = admm_run(sc, variant, seed=1)
            vals[variant].append(
                crb_pt(res.x, sc.target.theta, 1.0, sc.sigma_v_sq, sc.n_r,
                       sc.block_len)
            )
    slack = 10 ** 0.02  # 0.2 dB
    for variant, seq in vals.items():
        ok &= all(b <= a * slack for a, b in zip(seq, seq[1:]))
    ok &= all(a < b for a, b in zip(vals["PT"], vals["PT_INF"]))
    details.append("PT " + "/".join(f"{v:.2e}" for v in vals["PT"]))
    # extended target: quantization-aware vs unaware baseline
    vals_et = {v: [] for v in ("ET", "ET_QU")}
    for eps in epsilons:
        sc = et_scenario(snr_sensing_db=30.0, snr_comm_db=30.0, epsilon=eps,
                         seed=0)
        trc = float(np.trace(sc.target.c_aa).real)
        for variant in vals_et:
            res = admm_run(sc, variant, seed=1)
            vals_et[variant].append(
                crb_et(sc.unvec_waveform(res.x), sc.target.c_aa, sc.sigma_v_sq)
                / trc
            )
    for variant, seq in vals_et.items():
        ok &= all(b <= a * slack for a, b in zip(seq, seq[1:]))
    ok &= all(a < b for a, b in zip(vals_et["ET"], vals_et["ET_QU"]))
    details.append("ET " + "/".join(f"{v:.3e}" for v in vals_et["ET"]))
    elapsed = time.time() - t0
    check(10, "bound is non-increasing in epsilon and beats both baselines",
          ok, f"({'; '.join(details)}, {elapsed:.0f}s)")


def test_criterion_11_determinism(tmp_path):
    cfg_dict = {
        "experiment": "pt_sweep", "scenario": {"n_t": 4, "n_r": 4,
        "n_users": 2, "block_len": 4}, "snr_db_list": [10.0, 20.0],
        "trials": 5, "seed": 11, "solver_max_iter": 20,
    }
    blobs = []
    for fmt in ("csv", "json"):
        pair = []
        for i in range(2):
            rows, _ = run_experiment(ExperimentConfig.from_dict(cfg_dict))
            path = str(tmp_path / f"{fmt}_{i}.{fmt}")
            emit(rows, fmt, path)
            pair.append(Path(path).read_bytes())
        blobs.append(pair[0] == pair[1])
    # convergence family too
    conv = {
        "experiment": "convergence", "scenario": {"n_t": 4, "n_r": 4,
        "n_users": 2, "block_len": 4}, "snr_db_list": [20.0], "seed": 5,
        "admm_overrides": {"max_outer": 5, "max_inner": 4},
    }
    pair = []
    for i in range(2):
        rows, _ = run_experiment(ExperimentConfig.from_dict(conv))
        path = str(tmp_path / f"conv_{i}.csv")
        emit(rows, "csv", path)
        pair.append(Path(path).read_bytes())
    ok = all(blobs) and pair[0] == pair[1]
    check(11, "identical config and seed produce byte-identical outputs", ok)
