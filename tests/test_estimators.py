import math

import numpy as np
import pytest
from helpers_oracles import dense_blmmse_matrix

from onebit_isac import estimators
from onebit_isac.array_geometry import et_prior_covariance, exponential_correlation
from onebit_isac.crb_metrics import crb_et
from onebit_isac.estimators import (
    MleConfig,
    MleGrid,
    blmmse_et,
    blmmse_matrix,
    mle_pt,
    run_trials,
)
from onebit_isac.linalg import complex_normal
from onebit_isac.quantization import quantize_one_bit
from onebit_isac.scenario import et_scenario, pt_scenario


@pytest.fixture(scope="module")
def small_grid():
    rng = np.random.default_rng(0)
    x = complex_normal(rng, 8)
    x /= np.linalg.norm(x)
    return MleGrid(x, 1.0, 0.05, block_len=2, n_r=4,
                   cfg=MleConfig(coarse_grid_step=math.radians(2.0)))


def test_mle_config_validation():
    with pytest.raises(ValueError):
        MleConfig(coarse_grid_step=0.0)
    with pytest.raises(ValueError):
        MleConfig(refine_shrink=1.0)


def test_mle_estimate_stays_in_range(small_grid):
    rng = np.random.default_rng(1)
    for _ in range(10):
        z = quantize_one_bit(complex_normal(rng, 8))
        t = small_grid.estimate(z)
        assert -np.pi / 2 <= t <= np.pi / 2


def test_mle_beats_every_coarse_grid_point(small_grid):
    rng = np.random.default_rng(2)
    z = quantize_one_bit(complex_normal(rng, 8))
    t_hat = small_grid.estimate(z)
    best = small_grid.objective(z, t_hat)
    coarse = small_grid.coarse_objectives(z)
    assert best <= coarse.min() + 1e-12


def test_mle_localizes_target_at_high_snr():
    # spec-scale check: theta = 30 deg, SNR 40 dB, N_t=N_r=8, L=10
    sc = pt_scenario(snr_sensing_db=40.0, seed=0)
    rng = np.random.default_rng(3)
    x = complex_normal(rng, 80)
    x /= np.linalg.norm(x)
    summary = run_trials(sc, x, 100, base_seed=50)
    errors = np.array([abs(r.estimate - r.truth) for r in summary.records])
    assert np.median(errors) < math.radians(1.0)
    assert summary.n_failed == 0


def test_mle_pt_wrapper_matches_grid():
    rng = np.random.default_rng(4)
    x = complex_normal(rng, 8)
    cfg = MleConfig(coarse_grid_step=math.radians(5.0), refine_levels=1)
    grid = MleGrid(x, 1.0, 0.1, 2, 4, cfg)
    z = quantize_one_bit(complex_normal(rng, 8))
    assert mle_pt(z, x, 1.0, 0.1, 2, cfg) == grid.estimate(z)


def test_blmmse_zero_observation():
    rng = np.random.default_rng(5)
    x = complex_normal(rng, (2, 3))
    a_hat = blmmse_et(np.zeros(6), x, np.eye(4), 0.1)
    assert np.allclose(a_hat, 0.0)


def test_blmmse_linearity():
    rng = np.random.default_rng(6)
    x = complex_normal(rng, (2, 3))
    g = blmmse_matrix(x, np.eye(4), 0.1)
    z1 = complex_normal(rng, 6)
    z2 = complex_normal(rng, 6)
    lhs = blmmse_et(z1 + z2, x, np.eye(4), 0.1, estimator=g)
    rhs = blmmse_et(z1, x, np.eye(4), 0.1, estimator=g) + blmmse_et(
        z2, x, np.eye(4), 0.1, estimator=g
    )
    assert np.linalg.norm(lhs - rhs) < 1e-10


@pytest.mark.parametrize("n_t,n_r,block_len", [(2, 2, 3), (3, 2, 4), (4, 4, 8)])
def test_blmmse_matrix_matches_dense_kronecker(n_t, n_r, block_len):
    rng = np.random.default_rng(n_t + 10 * block_len)
    x = complex_normal(rng, (n_t, block_len))
    c_aa = et_prior_covariance(exponential_correlation(n_r, 0.6),
                               exponential_correlation(n_t, 0.3))
    for sv in (1e-3, 0.1, 2.0):
        want = dense_blmmse_matrix(x, c_aa, sv)
        got = blmmse_matrix(x, c_aa, sv)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_blmmse_mse_tracks_bound():
    # smoke version of the acceptance check (fewer trials, looser gate)
    sc = et_scenario(snr_sensing_db=20.0, seed=0)
    rng = np.random.default_rng(7)
    x = complex_normal(rng, sc.n_t * sc.block_len)
    x /= np.linalg.norm(x)
    summary = run_trials(sc, x, 200, base_seed=11)
    bound = crb_et(sc.unvec_waveform(x), sc.target.c_aa, sc.sigma_v_sq)
    gap_db = abs(10.0 * math.log10(summary.mse / bound))
    assert gap_db < 0.5
    assert summary.n_failed == 0


def test_run_trials_deterministic():
    sc = et_scenario(seed=0)
    rng = np.random.default_rng(8)
    x = complex_normal(rng, sc.n_t * sc.block_len)
    x /= np.linalg.norm(x)
    a = run_trials(sc, x, 5, base_seed=3)
    b = run_trials(sc, x, 5, base_seed=3)
    assert a.mse == b.mse
    assert [r.squared_error for r in a.records] == [r.squared_error for r in b.records]
    single = run_trials(sc, x, 1, base_seed=3)
    assert single.n_trials == 1
    assert single.std_error == 0.0


def test_run_trials_standard_error_scaling():
    sc = et_scenario(seed=0)
    rng = np.random.default_rng(9)
    x = complex_normal(rng, sc.n_t * sc.block_len)
    x /= np.linalg.norm(x)
    s1 = run_trials(sc, x, 200, base_seed=0)
    s2 = run_trials(sc, x, 400, base_seed=0)
    ratio = s1.std_error / s2.std_error
    assert abs(ratio - math.sqrt(2.0)) < 0.2 * math.sqrt(2.0)


def test_run_trials_unquantized_beats_quantized():
    sc = et_scenario(snr_sensing_db=60.0, seed=0)  # near-zero noise
    rng = np.random.default_rng(10)
    x = complex_normal(rng, sc.n_t * sc.block_len)
    x /= np.linalg.norm(x)
    q = run_trials(sc, x, 100, base_seed=1)
    unq = run_trials(sc, x, 100, base_seed=1, unquantized=True)
    assert unq.mse < q.mse


def test_run_trials_counts_failures():
    sc = et_scenario(seed=0)
    x = np.full(sc.n_t * sc.block_len, np.nan, dtype=complex)
    summary = run_trials(sc, x, 3, base_seed=0)
    assert summary.n_failed == 3
    assert math.isnan(summary.mse)
    [(reason, count)] = summary.failures.items()
    assert reason == "FloatingPointError: waveform has non-finite entries" and count == 3


def test_run_trials_counts_numerical_failures_by_reason(monkeypatch):
    sc = et_scenario(seed=0)
    rng = np.random.default_rng(12)
    x = complex_normal(rng, sc.n_t * sc.block_len)
    real_trial = estimators._et_trial

    def flaky(scenario, x_matrix, estimator, op, seed, unquantized):
        if seed % 3 == 0:
            raise np.linalg.LinAlgError("singular")
        rec = real_trial(scenario, x_matrix, estimator, op, seed, unquantized)
        if seed % 3 == 1:
            rec.squared_error = math.inf
        return rec

    monkeypatch.setattr(estimators, "_et_trial", flaky)
    summary = run_trials(sc, x, 9, base_seed=0)
    assert summary.n_failed == 6 and len(summary.records) == 3
    assert summary.failures == {"LinAlgError: singular": 3, "non-finite squared error": 3}
    assert math.isfinite(summary.mse)


def test_run_trials_propagates_non_numerical_errors(monkeypatch):
    sc = et_scenario(seed=0)
    x = complex_normal(np.random.default_rng(13), sc.n_t * sc.block_len)
    for error in (TypeError, ValueError):  # ValueError flags bad input, not numerics

        def broken(*args):
            raise error("not a numerical failure")

        monkeypatch.setattr(estimators, "_et_trial", broken)
        with pytest.raises(error):
            run_trials(sc, x, 2, base_seed=0)
        monkeypatch.setattr(estimators, "blmmse_matrix", broken)
        with pytest.raises(error):
            run_trials(sc, x, 2, base_seed=0)
        monkeypatch.undo()


def test_run_trials_normalizer():
    sc = et_scenario(seed=0)
    rng = np.random.default_rng(11)
    x = complex_normal(rng, sc.n_t * sc.block_len)
    x /= np.linalg.norm(x)
    s = run_trials(sc, x, 10, base_seed=0)
    assert s.normalizer == pytest.approx(np.trace(sc.target.c_aa).real)
    assert s.normalized_mse == pytest.approx(s.mse / s.normalizer)
