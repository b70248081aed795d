import contextlib
import math
import threading
import tracemalloc

import numpy as np
import pytest
from helpers_oracles import (
    dense_blmmse_matrix,
    dense_mle_estimate,
    dense_mle_objective,
    dense_pt_czz,
    gathered_pt_czz,
    per_trial_et_errors,
    pt_trial_observations,
)
from scipy.linalg import lapack

from onebit_isac import estimators
from onebit_isac.array_geometry import EtTarget, exponential_correlation
from onebit_isac.crb_metrics import crb_et
from onebit_isac.estimators import (
    MleConfig,
    MleGrid,
    blmmse_matrix,
    pt_covariance_czz,
    run_trials,
)
from onebit_isac.linalg import complex_normal, unvec
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
    for step in (0.0, -1.0, math.nan, math.inf, 3.2):
        with pytest.raises(ValueError, match="coarse grid step"):
            MleConfig(coarse_grid_step=step)
    for levels in (-1, 1.5, True, "2"):
        with pytest.raises(ValueError, match="refine levels"):
            MleConfig(refine_levels=levels)
    with pytest.raises(ValueError):
        MleConfig(refine_shrink=1.0)
    assert MleConfig(coarse_grid_step=math.pi, refine_levels=np.int64(0)).refine_levels == 0


def test_mle_grid_rejects_bad_sizes(small_grid):
    with pytest.raises(ValueError, match="not a positive multiple of block length 3"):
        MleGrid(np.ones(8), 1.0, 0.05, block_len=3, n_r=4)
    # one observation is a one-column block, never a vector
    for z in (np.ones(8), np.ones(5), np.ones((5, 3)), np.ones((8, 2, 2))):
        with pytest.raises(ValueError, match="n_r \\* block_len = 8 rows"):
            small_grid.estimate(z)
    for bad in (np.nan, np.inf):
        z = np.ones((8, 3), dtype=complex)
        z[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            small_grid.estimate(z)


GRID_ARGS = dict(x=np.ones(8), sigma_alpha_sq=1.0, sigma_v_sq=0.05, block_len=2, n_r=4)


@pytest.mark.parametrize("field,bad", [
    ("block_len", 2.7), ("block_len", 2.0), ("block_len", 0), ("block_len", True),
    ("n_r", 4.9), ("n_r", np.float64(4.0)), ("n_r", -1), ("n_r", "4"),
    ("sigma_alpha_sq", math.nan), ("sigma_alpha_sq", math.inf), ("sigma_alpha_sq", 0.0),
    ("sigma_v_sq", math.nan), ("sigma_v_sq", -math.inf), ("sigma_v_sq", -0.1),
])
def test_mle_grid_rejects_bad_parameters(field, bad):
    name = {"block_len": "block length", "n_r": "n_r"}.get(field, field)
    with pytest.raises(ValueError, match=f"{name}.* must be positive"):
        MleGrid(**{**GRID_ARGS, field: bad})


def test_mle_grid_accepts_numpy_sizes_and_powers():
    grid = MleGrid(**{**GRID_ARGS, "block_len": np.int64(2), "n_r": np.int32(4),
                      "sigma_v_sq": np.float32(0.05)})
    assert (grid.block_len, grid.n_r, grid.n_t) == (2, 4, 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mle_grid_rejects_non_finite_waveform(bad):
    # a NaN waveform once built a grid whose estimate failed on the covariance
    x = np.ones(8, dtype=complex)
    x[3] = bad
    with pytest.raises(ValueError, match="waveform has non-finite entries"):
        MleGrid(**{**GRID_ARGS, "x": x})


def test_nan_power_fails_the_covariance_instead_of_every_trial():
    # a NaN diagonal once passed positive_diagonal and gave -pi/2 for every trial
    x_matrix = unvec(np.ones(20, dtype=complex), 2, 10)
    with pytest.raises(ValueError, match="strictly positive"):
        pt_covariance_czz(x_matrix, [0.1, 0.2], math.nan, 0.1, 8)


STRUCTURED_CASES = [  # (n_t, n_r, block_len, snr_db)
    (3, 1, 4, 10.0), (1, 4, 3, 10.0), (4, 3, 1, 10.0), (8, 8, 10, 30.0),
    (8, 8, 10, 60.0), (2, 5, 4, 60.0),
]


@pytest.mark.parametrize("n_t,n_r,block_len,snr_db", STRUCTURED_CASES)
def test_structured_czz_matches_dense(n_t, n_r, block_len, snr_db):
    rng = np.random.default_rng(n_t + 10 * n_r + 100 * block_len)
    x = complex_normal(rng, n_t * block_len)
    x /= np.linalg.norm(x)
    sv = 10.0 ** (-snr_db / 10.0)
    thetas = np.concatenate(([0.0, np.pi / 2, -np.pi / 2], rng.uniform(-1.5, 1.5, 8)))
    grid = MleGrid(x, 1.3, sv, block_len, n_r, MleConfig(coarse_grid_step=math.pi))
    got = pt_covariance_czz(unvec(x, n_t, block_len), thetas, 1.3, sv, n_r)
    for czz, theta in zip(got, thetas):
        assert np.max(np.abs(czz - dense_pt_czz(grid, theta))) <= 1e-12


def _same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == b.tobytes()


def _fortran_stack(size, n):
    """The (size, n, n) view of an F-ordered (n, n, size) stack, as MleGrid
    allocates it."""
    return np.empty((n, n, size), dtype=complex, order="F").transpose(2, 0, 1)


@pytest.mark.parametrize("n_r", [1, 2, 8])
@pytest.mark.parametrize("block_len", [1, 10])
def test_strided_fill_matches_gathered_covariances(n_r, block_len):
    rng = np.random.default_rng(7 * n_r + block_len)
    x_matrix = complex_normal(rng, (3, block_len))
    thetas = np.concatenate(([0.0, np.pi / 2, -np.pi / 2], rng.uniform(-1.5, 1.5, 6)))
    want = gathered_pt_czz(x_matrix, thetas, 1.3, 0.2, n_r)
    assert _same_bits(pt_covariance_czz(x_matrix, thetas, 1.3, 0.2, n_r), want)
    n = n_r * block_len
    stack = _fortran_stack(thetas.size + 2, n)
    got = pt_covariance_czz(x_matrix, thetas, 1.3, 0.2, n_r, stack[:thetas.size])
    assert np.shares_memory(got, stack) and _same_bits(got, want)
    with pytest.raises(ValueError, match="out has shape"):
        pt_covariance_czz(x_matrix, thetas, 1.3, 0.2, n_r, stack)


@pytest.fixture(scope="module")
def pt_case():
    # 10 dB on a small array: trials spread over several coarse cells
    sc = pt_scenario(n_t=3, n_r=4, n_users=1, block_len=3, snr_sensing_db=10.0, seed=1)
    x = complex_normal(np.random.default_rng(14), sc.n_t * sc.block_len)
    x /= np.linalg.norm(x)
    cfg = MleConfig(coarse_grid_step=math.radians(3.0), refine_levels=2)
    grid = MleGrid(x, sc.target.sigma_alpha_sq, sc.sigma_v_sq, sc.block_len, sc.n_r, cfg)
    z = pt_trial_observations(sc, x, 12, base_seed=40)
    visited = [[] for _ in range(z.shape[1])]
    oracle = [dense_mle_estimate(grid, z[:, t], visited[t]) for t in range(z.shape[1])]
    return sc, x, cfg, grid, z, oracle, visited


def test_batched_estimates_match_dense_oracle(pt_case):
    _, _, _, grid, z, oracle, _ = pt_case
    theta_hat, failed = grid.estimate(z)
    assert failed == {}
    assert theta_hat.tolist() == oracle
    assert len(set(oracle)) > 3
    assert [grid.estimate(z[:, [t]])[0][0] for t in range(z.shape[1])] == oracle


def _kept_seeds(summary, base_seed):
    """Seeds of the trials a summary kept: trial t is seed base_seed + t."""
    return [base_seed + t for t in np.flatnonzero(np.isfinite(summary.squared_errors)).tolist()]


def test_run_trials_does_not_depend_on_batch_size(pt_case):
    sc, x, cfg, *_ = pt_case
    batch = run_trials(sc, x, 7, base_seed=40, cfg=cfg)
    singles = [run_trials(sc, x, 1, base_seed=40 + t, cfg=cfg) for t in range(7)]
    assert batch.n_failed == 0 and all(s.n_failed == 0 for s in singles)
    assert np.array_equal(batch.squared_errors,
                          np.concatenate([s.squared_errors for s in singles]))
    estimates, truths, failed = estimators._pt_block(sc, x, range(40, 47), cfg)
    assert failed == {}
    for t in range(7):
        one_estimate, one_truth, one_failed = estimators._pt_block(sc, x, [40 + t], cfg)
        assert one_failed == {}
        assert estimates[t] == one_estimate[0] and truths[t] == one_truth[0]


def test_run_trials_estimates_each_seeds_own_echo(pt_case):
    # the oracle draws each trial's echo alone (unit-modulus alpha, then noise)
    sc, x, cfg, _, _, oracle, _ = pt_case
    summary = run_trials(sc, x, 12, base_seed=40, cfg=cfg)
    estimates, truths, failed = estimators._pt_block(sc, x, range(40, 52), cfg)
    assert failed == {}
    assert estimates.tolist() == oracle
    assert truths.tolist() == [sc.target.theta] * 12
    assert summary.squared_errors.tolist() == [(t - sc.target.theta) ** 2 for t in oracle]
    assert _kept_seeds(summary, 40) == list(range(40, 52))


def test_run_trials_rejects_unquantized_point_target(pt_case):
    sc, x, cfg, *_ = pt_case
    with pytest.raises(ValueError, match="unquantized trials need an extended target"):
        run_trials(sc, x, 2, base_seed=0, cfg=cfg, unquantized=True)


@pytest.fixture(scope="module")
def et_case():
    sc = et_scenario(n_t=3, n_r=2, block_len=5, snr_sensing_db=15.0, seed=2)
    x = complex_normal(np.random.default_rng(16), (sc.n_t, sc.block_len))
    return sc, x / np.linalg.norm(x)


@pytest.mark.parametrize("unquantized", [False, True])
def test_et_run_trials_does_not_depend_on_batch_size(et_case, unquantized):
    sc, x = et_case
    batch = run_trials(sc, x, 7, base_seed=60, unquantized=unquantized)
    singles = [run_trials(sc, x, 1, base_seed=60 + t, unquantized=unquantized)
               for t in range(7)]
    assert _kept_seeds(batch, 60) == list(range(60, 67))
    assert np.array_equal(batch.squared_errors,
                          np.concatenate([s.squared_errors for s in singles]))
    estimates, truths, _ = estimators._et_block(sc, x, range(60, 67), unquantized)
    for t in range(7):
        one_estimate, one_truth, _ = estimators._et_block(sc, x, [60 + t], unquantized)
        assert np.array_equal(estimates[t], one_estimate[0])
        assert np.array_equal(truths[t], one_truth[0])


@pytest.mark.parametrize("unquantized", [False, True])
def test_et_block_of_257_matches_single_trials(et_case, unquantized):
    sc, x = et_case
    batch = run_trials(sc, x, 257, base_seed=300, unquantized=unquantized)
    assert batch.n_failed == 0
    estimates, truths, _ = estimators._et_block(sc, x, range(300, 557), unquantized)
    for t in (0, 128, 256):
        single = run_trials(sc, x, 1, base_seed=300 + t, unquantized=unquantized)
        assert _kept_seeds(single, 300 + t) == [300 + t]
        assert batch.squared_errors[t] == single.squared_errors[0]
        one_estimate, one_truth, _ = estimators._et_block(sc, x, [300 + t], unquantized)
        assert np.array_equal(estimates[t], one_estimate[0])
        assert np.array_equal(truths[t], one_truth[0])


def _split_draws(seed, shapes):
    """The standard normals of default_rng(seed) drawn one call per shape,
    flattened and joined."""
    rng = np.random.default_rng(seed)
    return np.concatenate([np.ravel(rng.standard_normal(shape)) for shape in shapes])


def test_trial_normals_match_per_trial_draws(pt_case, et_case):
    # the calls each trial made before: alpha (re, im) as scalars or the
    # response (re, im) as n_r x n_t matrices, then the noise (re, im)
    pt, et = pt_case[0], et_case[0]
    n_pt, n_et = pt.n_r * pt.block_len, et.n_r * et.block_len
    for shapes in (((), (), n_pt, n_pt),
                   ((et.n_r, et.n_t), (et.n_r, et.n_t), n_et, n_et)):
        count = sum(int(np.prod(shape)) for shape in shapes)
        seeds = [0, 1, 77, 2**31 + 5]
        rows = estimators._trial_normals(seeds, count)
        assert rows.shape == (len(seeds), count)
        for row, seed in zip(rows, seeds):
            assert np.array_equal(row, _split_draws(seed, shapes))


# each pool word's boundary: seeds of 1 to 4 uint32 words, the last one all ones
WORD_BOUNDARY_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96, 2**128 - 1]


@pytest.mark.parametrize("count", [1, 2, 96, 37])
def test_trial_normals_equal_default_rng_streams(count):
    # pins the hash and the PCG64 seeding against numpy: a numpy that seeds
    # otherwise fails here, not only in the first-row guard
    seeds = [int(s) for s in np.random.default_rng(count).integers(0, 2**32, 300)]
    seeds += WORD_BOUNDARY_SEEDS
    states = estimators._seed_states(seeds)
    rows = estimators._trial_normals(seeds, count)
    assert rows.shape == (len(seeds), count)
    for state, row, seed in zip(states, rows, seeds):
        assert np.array_equal(state, np.random.SeedSequence(seed).generate_state(4, np.uint64))
        assert np.array_equal(row, np.random.default_rng(seed).standard_normal(count)), seed


def test_trial_normals_guard_catches_a_wrong_hash(et_case, monkeypatch):
    sc, x = et_case
    seed_states = estimators._seed_states
    monkeypatch.setattr(estimators, "_seed_states",
                        lambda seeds: np.roll(seed_states(seeds), 1, axis=1))
    with pytest.raises(RuntimeError, match=f"numpy {np.__version__} seeds PCG64"):
        run_trials(sc, x, 3, base_seed=5)


@pytest.mark.parametrize("base_seed, n_trials", [(2**128, 1), (2**128 - 1, 2), (2**128 - 5, 9)])
def test_run_trials_rejects_seeds_past_2_128(et_case, monkeypatch, base_seed, n_trials):
    sc, x = et_case
    monkeypatch.setattr(estimators, "blmmse_matrix", None)
    with pytest.raises(ValueError, match=r"base_seed \+ n_trials - 1 must be below 2\*\*128"):
        run_trials(sc, x, n_trials, base_seed=base_seed)


def test_run_trials_runs_up_to_the_last_seed(et_case):
    sc, x = et_case
    summary = run_trials(sc, x, 3, base_seed=2**128 - 3)
    assert _kept_seeds(summary, 2**128 - 3) == [2**128 - 3, 2**128 - 2, 2**128 - 1]
    assert summary.n_failed == 0


@pytest.mark.parametrize("bad", [0, -1, True, False, 2.5, np.float64(3.0), "3", None])
def test_run_trials_rejects_bad_trial_count(et_case, monkeypatch, bad):
    sc, x = et_case
    monkeypatch.setattr(estimators, "blmmse_matrix", None)  # nothing may be built
    with pytest.raises(ValueError, match="n_trials must be an integer of at least 1"):
        run_trials(sc, x, bad, base_seed=0)


@pytest.mark.parametrize("bad", [-1, True, 1.0, "0", None])
def test_run_trials_rejects_bad_base_seed(et_case, monkeypatch, bad):
    sc, x = et_case
    monkeypatch.setattr(estimators, "blmmse_matrix", None)
    with pytest.raises(ValueError, match="base_seed must be a non-negative integer"):
        run_trials(sc, x, 2, base_seed=bad)


def test_run_trials_accepts_numpy_integers(et_case):
    sc, x = et_case
    summary = run_trials(sc, x, np.int64(3), base_seed=np.uint32(5))
    assert _kept_seeds(summary, 5) == [5, 6, 7]


@pytest.mark.parametrize("unquantized", [False, True])
def test_et_block_errors_match_per_trial_oracle(et_case, unquantized):
    sc, x = et_case
    summary = run_trials(sc, x, 40, base_seed=70, unquantized=unquantized)
    want = per_trial_et_errors(sc, x, 40, base_seed=70, unquantized=unquantized)
    got = summary.squared_errors
    assert summary.n_failed == 0
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


REFINE_FAILURE = "LinAlgError: matrix not positive definite even after jitter"


def _fail_at(monkeypatch, target):
    """Make the covariance at angle ``target`` indefinite, so neither the
    stacked factorization nor the jittered per-angle retry can factor it."""
    real = estimators.pt_covariance_czz

    def broken(x_matrix, thetas, *args):
        czz = real(x_matrix, thetas, *args)
        czz[np.asarray(thetas) == target] = -np.eye(czz.shape[1])
        return czz

    monkeypatch.setattr(estimators, "pt_covariance_czz", broken)


def test_refinement_failure_fails_only_its_visitors(pt_case, monkeypatch):
    sc, x, cfg, grid, z, oracle, visited = pt_case
    target = visited[0][0][13]  # trial 0's first refinement grid, offset +3
    visitors = {t for t, levels in enumerate(visited) if any(target in g for g in levels)}
    assert 0 in visitors and len(visitors) < z.shape[1]
    _fail_at(monkeypatch, target)
    theta_hat, failed = grid.estimate(z)
    assert set(failed) == visitors
    assert all(isinstance(e, np.linalg.LinAlgError) for e in failed.values())
    for t in range(z.shape[1]):
        assert np.isnan(theta_hat[t]) if t in visitors else theta_hat[t] == oracle[t]
    one_hat, one_failed = grid.estimate(z[:, [0]])
    assert np.isnan(one_hat[0]) and isinstance(one_failed[0], np.linalg.LinAlgError)
    summary = run_trials(sc, x, z.shape[1], base_seed=40, cfg=cfg)
    assert summary.failures == {REFINE_FAILURE: len(visitors)}
    assert [seed - 40 for seed in _kept_seeds(summary, 40)] == sorted(set(range(12)) - visitors)


def test_coarse_failure_fails_every_trial(pt_case, monkeypatch):
    sc, x, cfg, grid, z, *_ = pt_case
    _fail_at(monkeypatch, grid.thetas[5])
    theta_hat, failed = grid.estimate(z)
    assert np.all(np.isnan(theta_hat))
    assert set(failed) == set(range(z.shape[1]))
    assert all(isinstance(e, np.linalg.LinAlgError) for e in failed.values())
    one_hat, one_failed = grid.estimate(z[:, [0]])
    assert np.isnan(one_hat[0]) and "even after jitter" in str(one_failed[0])
    summary = run_trials(sc, x, 4, base_seed=40, cfg=cfg)
    assert summary.n_failed == 4 and np.isnan(summary.squared_errors).all()
    assert summary.squared_errors.shape == (4,)
    assert math.isnan(summary.mse) and math.isnan(summary.std_error)
    assert summary.failures == {REFINE_FAILURE: 4}


def test_grid_construction_builds_no_covariance(pt_case, monkeypatch):
    sc, x, cfg, *_ = pt_case

    def refused(*args):
        raise AssertionError("MleGrid built a covariance before estimate")

    monkeypatch.setattr(estimators, "pt_covariance_czz", refused)
    grid = MleGrid(x, sc.target.sigma_alpha_sq, sc.sigma_v_sq, sc.block_len, sc.n_r, cfg)
    # nothing but the waveform and the coarse angles is kept between estimates
    kept = {k for k, v in vars(grid).items() if isinstance(v, (list, tuple, dict, np.ndarray))}
    assert kept == {"x", "thetas"}


def test_jittered_retry_fails_no_trial(pt_case, monkeypatch):
    # an all-ones covariance is PSD but singular: the plain factorization
    # rejects it and hermitian_factor's jitter accepts it
    _, _, _, grid, z, oracle, visited = pt_case
    target = visited[0][0][13]
    real = estimators.pt_covariance_czz

    def singular(x_matrix, thetas, *args):
        czz = real(x_matrix, thetas, *args)
        czz[np.asarray(thetas) == target] = 1.0
        return czz

    monkeypatch.setattr(estimators, "pt_covariance_czz", singular)
    theta_hat, failed = grid.estimate(z)
    assert failed == {} and np.all(np.isfinite(theta_hat))


def test_levels_factor_in_place_in_one_stack_each(pt_case, monkeypatch):
    _, _, cfg, grid, z, oracle, _ = pt_case
    n = grid.n_r * grid.block_len
    # five angles per chunk: the 61 coarse angles take 13 chunks, the
    # refinement levels several each
    monkeypatch.setattr(estimators, "_STACK_ENTRIES", 5 * n * n + n)
    levels, factored = [], []
    real_level, real_czz, real_potrf = MleGrid._level_objectives, pt_covariance_czz, lapack.zpotrf

    def level(self, *args):
        levels.append([])
        return real_level(self, *args)

    def filled(x_matrix, thetas, *args):
        czz = real_czz(x_matrix, thetas, *args)
        levels[-1].append(czz)
        return czz

    def potrf(c, **kwargs):
        factor, info = real_potrf(c, **kwargs)
        factored.append((info, np.shares_memory(factor, c), np.shares_memory(c, levels[-1][-1])))
        return factor, info

    monkeypatch.setattr(MleGrid, "_level_objectives", level)
    monkeypatch.setattr(estimators, "pt_covariance_czz", filled)
    monkeypatch.setattr(lapack, "zpotrf", potrf)
    theta_hat, failed = grid.estimate(z)
    assert failed == {} and theta_hat.tolist() == oracle
    assert len(levels) == cfg.refine_levels + 1 and len(levels[0]) == 13
    for chunks in levels:
        assert len(chunks) > 1 and all(c.shape[0] <= 5 for c in chunks)
        assert all(np.shares_memory(c, chunks[0]) for c in chunks)
    # every factor overwrote its covariance: no silent f2py copy
    assert len(factored) == sum(c.shape[0] for chunks in levels for c in chunks)
    assert set(factored) == {(0, True, True)}


def test_desk_estimate_peaks_near_one_stack():
    sc = pt_scenario(seed=0)
    x = complex_normal(np.random.default_rng(3), sc.n_t * sc.block_len)
    x *= math.sqrt(sc.power) / np.linalg.norm(x)
    grid = MleGrid(x, sc.target.sigma_alpha_sq, sc.sigma_v_sq, sc.block_len, sc.n_r)
    z = quantize_one_bit(complex_normal(np.random.default_rng(4), (sc.n_r * sc.block_len, 12)))
    n = sc.n_r * sc.block_len
    size = estimators._STACK_ENTRIES // (n * n)
    assert grid.thetas.size > 8 * size
    stack = _fortran_stack(size, n)
    x_matrix = unvec(grid.x, grid.n_t, grid.block_len)
    fill_args = (x_matrix, grid.thetas[:size], grid.sigma_alpha_sq, grid.sigma_v_sq, grid.n_r)
    tracemalloc.start()
    try:
        pt_covariance_czz(*fill_args, stack)
        fill_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        grid.estimate(z)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # one stack, the work of filling it and a little more; keeping a factor
    # per angle of a chunk would add a second stack
    assert peak < stack.nbytes + fill_peak + stack.nbytes // 4


def test_trial_objective_does_not_depend_on_its_solve_partners():
    rng = np.random.default_rng(15)
    n = 12
    a = complex_normal(rng, (n, n))
    factor = np.linalg.cholesky(a @ a.conj().T + np.eye(n))
    z = complex_normal(rng, (n, 9))
    together = estimators._quadratic_forms(factor, z, lapack)
    for t in range(9):
        assert estimators._quadratic_forms(factor, z[:, [t]], lapack)[0] == together[t]
        assert estimators._quadratic_forms(factor, z[:, [t, (t + 4) % 9]], lapack)[0] == together[t]


def test_pt_value_error_propagates(pt_case, monkeypatch):
    sc, x, cfg, *_ = pt_case

    def broken(*args):
        raise ValueError("normalized correlation modulus 1.5 exceeds 1")

    monkeypatch.setattr(estimators, "pt_covariance_czz", broken)
    with pytest.raises(ValueError, match="exceeds 1"):
        run_trials(sc, x, 2, base_seed=0, cfg=cfg)


def test_mle_estimate_stays_in_range(small_grid):
    rng = np.random.default_rng(1)
    for _ in range(10):
        z = quantize_one_bit(complex_normal(rng, (8, 1)))
        (t,), failed = small_grid.estimate(z)
        assert failed == {} and -np.pi / 2 <= t <= np.pi / 2


def test_mle_beats_every_coarse_grid_point(small_grid):
    rng = np.random.default_rng(2)
    z = quantize_one_bit(complex_normal(rng, 8))
    (t_hat,), _ = small_grid.estimate(z[:, None])
    best = dense_mle_objective(small_grid, z, t_hat)
    coarse = [dense_mle_objective(small_grid, z, t) for t in small_grid.thetas]
    assert best <= min(coarse) + 1e-12


def test_mle_localizes_target_at_high_snr():
    # spec-scale check: theta = 30 deg, SNR 40 dB, N_t=N_r=8, L=10
    sc = pt_scenario(snr_sensing_db=40.0, seed=0)
    rng = np.random.default_rng(3)
    x = complex_normal(rng, 80)
    x /= np.linalg.norm(x)
    estimates, truths, failed = estimators._pt_block(sc, x, range(50, 150), None)
    errors = np.abs(estimates - truths)
    assert np.median(errors) < math.radians(1.0)
    assert failed == {}


@pytest.fixture(scope="module")
def desk_case():
    sc = pt_scenario(seed=0)
    x = complex_normal(np.random.default_rng(5), sc.n_t * sc.block_len)
    x *= math.sqrt(sc.power) / np.linalg.norm(x)
    grid = MleGrid(x, sc.target.sigma_alpha_sq, sc.sigma_v_sq, sc.block_len, sc.n_r)
    return grid, pt_trial_observations(sc, x, 12, base_seed=7)


def _blas_counts(controls):
    return [get() for get, _ in controls]


def _record_level_counts(monkeypatch, controls):
    """BLAS thread counts seen at the start of every level of estimate."""
    seen = []
    real = MleGrid._level_objectives

    def level(self, *args):
        seen.append(_blas_counts(controls))
        return real(self, *args)

    monkeypatch.setattr(MleGrid, "_level_objectives", level)
    return seen


def test_desk_levels_run_on_one_blas_thread(desk_case, blas_controls, monkeypatch):
    grid, z = desk_case
    seen = _record_level_counts(monkeypatch, blas_controls)
    theta_hat, failed = grid.estimate(z)
    assert failed == {} and np.all(np.isfinite(theta_hat))
    assert seen == [[1] * len(blas_controls)] * (grid.cfg.refine_levels + 1)
    assert _blas_counts(blas_controls) == [2] * len(blas_controls)


@pytest.mark.parametrize("extra, capped", [(0, True), (1, False)])
def test_blas_threads_capped_only_up_to_the_crossover(blas_controls, monkeypatch, extra, capped):
    n = estimators._SINGLE_THREAD_MAX_N + extra
    rng = np.random.default_rng(6)
    x = complex_normal(rng, n)
    grid = MleGrid(x / np.linalg.norm(x), 1.0, 0.1, block_len=n, n_r=1,
                   cfg=MleConfig(coarse_grid_step=math.radians(30.0), refine_levels=1))
    seen = _record_level_counts(monkeypatch, blas_controls)
    grid.estimate(quantize_one_bit(complex_normal(rng, (n, 2))))
    assert seen == [[1 if capped else 2] * len(blas_controls)] * 2
    assert _blas_counts(blas_controls) == [2] * len(blas_controls)


def test_blas_threads_restored_after_a_failing_level(desk_case, blas_controls, monkeypatch):
    grid, z = desk_case

    def broken(self, *args):
        raise RuntimeError("level failed")

    monkeypatch.setattr(MleGrid, "_level_objectives", broken)
    with pytest.raises(RuntimeError, match="level failed"):
        grid.estimate(z)
    assert _blas_counts(blas_controls) == [2] * len(blas_controls)


def test_concurrent_estimates_restore_blas_threads(desk_case, blas_controls):
    grid, z = desk_case
    want = grid.estimate(z)[0]
    results = [None, None]

    def work(i):
        results[i] = grid.estimate(z)[0]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert all(r.tobytes() == want.tobytes() for r in results)
    assert _blas_counts(blas_controls) == [2] * len(blas_controls)


def test_desk_estimates_keep_their_bits_on_one_blas_thread(desk_case, blas_controls,
                                                           monkeypatch):
    grid, z = desk_case
    capped = grid.estimate(z)[0]
    monkeypatch.setattr(estimators, "single_blas_thread", contextlib.nullcontext)
    assert grid.estimate(z)[0].tobytes() == capped.tobytes()


def test_blmmse_zero_observation():
    rng = np.random.default_rng(5)
    x = complex_normal(rng, (2, 3))
    a_hat = blmmse_matrix(x, np.eye(4), 0.1) @ np.zeros(6)
    assert np.allclose(a_hat, 0.0)


def test_blmmse_linearity():
    rng = np.random.default_rng(6)
    x = complex_normal(rng, (2, 3))
    g = blmmse_matrix(x, np.eye(4), 0.1)
    z1 = complex_normal(rng, 6)
    z2 = complex_normal(rng, 6)
    assert np.linalg.norm(g @ (z1 + z2) - (g @ z1 + g @ z2)) < 1e-10


@pytest.mark.parametrize("n_t,n_r,block_len", [(2, 2, 3), (3, 2, 4), (4, 4, 8)])
def test_blmmse_matrix_matches_dense_kronecker(n_t, n_r, block_len):
    rng = np.random.default_rng(n_t + 10 * block_len)
    x = complex_normal(rng, (n_t, block_len))
    c_aa = EtTarget(exponential_correlation(n_r, 0.6), exponential_correlation(n_t, 0.3)).c_aa
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
    assert np.array_equal(a.squared_errors, b.squared_errors)
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

    def singular(*args):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(estimators, "blmmse_matrix", singular)
    summary = run_trials(sc, x, 9, base_seed=0)
    assert summary.n_failed == 9 and np.isnan(summary.squared_errors).all()
    assert summary.failures == {"LinAlgError: singular": 9}
    monkeypatch.undo()

    real_quantize = estimators.quantize_one_bit

    def corrupted(r):  # every third trial's observation turns non-finite
        z = real_quantize(r)
        z[::3] = np.nan
        return z

    monkeypatch.setattr(estimators, "quantize_one_bit", corrupted)
    summary = run_trials(sc, x, 9, base_seed=0)
    assert summary.n_failed == 3
    assert _kept_seeds(summary, 0) == [1, 2, 4, 5, 7, 8]
    assert summary.failures == {"non-finite squared error": 3}
    assert math.isfinite(summary.mse)


def test_squared_errors_are_nan_exactly_where_trials_failed(monkeypatch):
    sc = et_scenario(seed=0)
    nan_waveform = np.full(sc.n_t * sc.block_len, np.nan, dtype=complex)
    setup_failure = run_trials(sc, nan_waveform, 5, base_seed=0)
    assert setup_failure.squared_errors.shape == (5,)
    assert np.isnan(setup_failure.squared_errors).all() and setup_failure.n_failed == 5
    assert math.isnan(setup_failure.mse) and math.isnan(setup_failure.std_error)

    x = complex_normal(np.random.default_rng(12), sc.n_t * sc.block_len)
    clean = run_trials(sc, x, 9, base_seed=0)
    real_quantize = estimators.quantize_one_bit

    def corrupted(r):  # trials 0, 3 and 6 turn non-finite
        z = real_quantize(r)
        z[::3] = np.nan
        return z

    monkeypatch.setattr(estimators, "quantize_one_bit", corrupted)
    mixed = run_trials(sc, x, 9, base_seed=0)
    failed = np.isnan(mixed.squared_errors)
    assert np.flatnonzero(failed).tolist() == [0, 3, 6] and mixed.n_failed == 3
    kept = mixed.squared_errors[~failed]
    assert np.array_equal(kept, clean.squared_errors[~failed])
    assert mixed.mse == float(kept.mean())
    assert mixed.std_error == float(kept.std(ddof=1) / math.sqrt(kept.size))


def test_run_trials_propagates_non_numerical_errors(monkeypatch):
    sc = et_scenario(seed=0)
    x = complex_normal(np.random.default_rng(13), sc.n_t * sc.block_len)
    for error in (TypeError, ValueError):  # ValueError flags bad input, not numerics

        def broken(*args):
            raise error("not a numerical failure")

        for stage in ("blmmse_matrix", "quantize_one_bit"):  # setup, then trials
            monkeypatch.setattr(estimators, stage, broken)
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
