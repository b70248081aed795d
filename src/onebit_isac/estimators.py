"""One-bit estimators: grid-searched Gaussian-likelihood DOA estimation for
point targets, the Bussgang-linearized LMMSE response estimator for extended
targets, and the seeded Monte-Carlo MSE harness."""

import contextlib
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .array_geometry import pt_response_operator, steering
from .crb_metrics import et_l_and_m
from .linalg import (complex_from_normals, hermitian_factor, hermitian_solve, integer_at_least,
                     single_blas_thread, unvec, vec, vec_rows)
from .quantization import (arcsine_law, bussgang_gain, covariance_czz_exact, positive_diagonal,
                           quantize_one_bit)

HALF_PI = np.pi / 2.0
# refinement grid of each level: the estimate plus -10..10 fine steps
REFINE_OFFSETS = np.arange(-10, 11)
# complex entries per level's stack of covariances, which is factored in place
_STACK_ENTRIES = 1 << 18
# largest n_r L whose search runs on one BLAS thread: up to it one thread
# runs the per-angle LAPACK calls faster or as fast, from 480 up the default
# threads win (BENCH_mle_threads.json)
_SINGLE_THREAD_MAX_N = 320


@dataclass
class MleConfig:
    """Hierarchical grid search: coarse pass plus shrinking refinements."""

    coarse_grid_step: float = math.radians(0.5)
    refine_levels: int = 3
    refine_shrink: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.coarse_grid_step <= np.pi:
            raise ValueError("coarse grid step must lie in (0, pi]")
        if not integer_at_least(self.refine_levels, 0):
            raise ValueError("refine levels must be a non-negative integer")
        if not 0.0 < self.refine_shrink < 1.0:
            raise ValueError("refine shrink must lie in (0, 1)")


def pt_covariance_czz(x_matrix, thetas, sigma_alpha_sq, sigma_v_sq, n_r, out=None):
    """Exact arcsine C_zz of the point-target echo at each angle in thetas,
    shape (len(thetas), n_r L, n_r L), written into out when it is given
    (any strides) and returned.

    The echo covariance is sigma_alpha_sq g g^H + sigma_v_sq I with
    g = vec(a_r s^T) and s = X^T a_t(theta). Its normalized correlation is
    (beta beta^H) kron T, with beta_l = sqrt(sigma_alpha_sq / n_r) s_l /
    sqrt(sigma_alpha_sq |s_l|^2 / n_r + sigma_v_sq) and the Toeplitz
    T_rr' = exp(-j pi (r - r') sin(theta)), so each angle takes L^2 (2 n_r - 1)
    arcsines instead of (n_r L)^2. Equals covariance_czz_exact of that echo
    covariance up to rounding.
    """
    thetas = np.asarray(thetas, dtype=float)
    block_len = x_matrix.shape[1]
    n = n_r * block_len
    if out is None:
        out = np.empty((thetas.size, n, n), dtype=complex)
    elif out.shape != (thetas.size, n, n):
        raise ValueError(f"out has shape {out.shape}; expected {(thetas.size, n, n)}")
    s = steering(x_matrix.shape[0], thetas) @ x_matrix
    d = positive_diagonal(sigma_alpha_sq * (s.real**2 + s.imag**2) / n_r + sigma_v_sq)
    beta = s * np.sqrt(sigma_alpha_sq / n_r / d)
    t = steering(n_r, thetas) * math.sqrt(n_r)  # T_{r0} for r = 0..n_r-1
    lag = np.concatenate((t[:, :0:-1].conj(), t), axis=1)  # lags 1-n_r..n_r-1
    rho = (beta[:, :, None] * beta.conj()[:, None, :])[..., None] * lag[:, None, None, :]
    diag = (slice(None), np.arange(block_len), np.arange(block_len), n_r - 1)
    vals = arcsine_law(rho, diag)
    # vec index r + n_r l: entry (r + n_r l, r' + n_r l') reads (l, l', r - r'),
    # so the (k, l, r, l', r') view of out takes one strided copy of the
    # windows w[..., r, r'] = vals[..., r - r' + n_r - 1]
    s0, s1, s2 = out.strides
    blocks = as_strided(out, (thetas.size, block_len, n_r, block_len, n_r),
                        (s0, n_r * s1, s1, n_r * s2, s2))
    windows = sliding_window_view(vals[..., ::-1], n_r, axis=-1)[..., ::-1, :]
    blocks[...] = windows.transpose(0, 1, 3, 2, 4)
    return out


def _quadratic_forms(factor, z, lapack):
    """z_t^H C^{-1} z_t for every column z_t of z, from the lower Cholesky
    factor of C (scipy's lapack module makes the triangular solve)."""
    n_cols = z.shape[1]
    # a one-column solve takes another BLAS path that rounds differently;
    # solving at least two columns keeps each trial's value independent of
    # which other trials share the solve
    w, _ = lapack.ztrtrs(factor, z if n_cols > 1 else np.repeat(z, 2, axis=1), lower=1)
    return (w.real**2 + w.imag**2).sum(axis=0)[:n_cols]


class MleGrid:
    """One-bit DOA maximum likelihood for one (waveform, noise)
    configuration: minimizes z^H C_zz^{-1} z + log det C_zz over angles,
    with C_zz the exact arcsine covariance of the echo (pt_covariance_czz).

    Construction checks the sizes and sets the coarse grid thetas; nothing
    is factored or kept between estimate calls. The search is one loop of
    levels: level 0 scores every trial of a block against thetas, each
    refinement level against the 21 angles around its current estimate.
    Every level fills the covariances of the distinct angles its trials
    visit, chunk by chunk, into one memory-bounded stack that it allocates
    once, factors each in place, and makes one triangular solve per angle
    against the trials that visit it.

    While n_r L is at most _SINGLE_THREAD_MAX_N, estimate runs its levels
    inside linalg.single_blas_thread: these small per-angle LAPACK calls
    run faster on one BLAS thread than on several, and the estimates keep
    their bits. The thread count is process-wide, so other threads' BLAS
    calls run single-threaded during that window too.
    """

    def __init__(self, x, sigma_alpha_sq, sigma_v_sq, block_len, n_r, cfg=None):
        if not (integer_at_least(block_len, 1) and integer_at_least(n_r, 1)):
            raise ValueError(f"block length and n_r must be positive integers, got "
                             f"{block_len!r} and {n_r!r}")
        for name, power in (("sigma_alpha_sq", sigma_alpha_sq), ("sigma_v_sq", sigma_v_sq)):
            if not 0.0 < power < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {power!r}")
        self.x = vec(np.asarray(x, dtype=complex))
        if not np.all(np.isfinite(self.x)):
            raise ValueError("waveform has non-finite entries")
        self.sigma_alpha_sq = float(sigma_alpha_sq)
        self.sigma_v_sq = float(sigma_v_sq)
        self.block_len = int(block_len)
        self.n_r = int(n_r)
        if self.x.size == 0 or self.x.size % self.block_len:
            raise ValueError(
                f"waveform length {self.x.size} is not a positive multiple of "
                f"block length {self.block_len}"
            )
        self.n_t = self.x.size // self.block_len
        self.cfg = cfg or MleConfig()
        n_pts = int(round(np.pi / self.cfg.coarse_grid_step)) + 1
        self.thetas = np.linspace(-HALF_PI, HALF_PI, n_pts)

    def _observations(self, z):
        z = np.asarray(z)
        n = self.n_r * self.block_len
        if z.ndim != 2 or z.shape[0] != n:
            raise ValueError(f"z has shape {z.shape}; expected (n, T) with "
                             f"n_r * block_len = {n} rows")
        if not np.all(np.isfinite(z)):
            raise ValueError("z has non-finite entries")
        return z.astype(complex)

    def estimate(self, z):
        """DOA estimates of every column of a block z of shape (n_r L, T).

        Returns (theta_hat, failed): the T estimates, NaN for a failed trial,
        and {trial: LinAlgError} naming the first angle each failed trial
        could not factor. The first call loads scipy.linalg.
        """
        block = self._observations(z)
        theta_hat = np.zeros(block.shape[1])
        failed = {}
        step = self.cfg.coarse_grid_step
        small = self.n_r * self.block_len <= _SINGLE_THREAD_MAX_N
        # importing scipy's LAPACK maps scipy's OpenBLAS build; it comes before
        # the window, which finds the builds it caps on its first entry
        from scipy.linalg import lapack

        with single_blas_thread() if small else contextlib.nullcontext():
            for level in range(self.cfg.refine_levels + 1):
                live = np.flatnonzero(~np.isnan(theta_hat))
                if level:
                    step *= self.cfg.refine_shrink
                    grid = np.clip(theta_hat[live, None] + REFINE_OFFSETS * step,
                                   -HALF_PI, HALF_PI)
                else:
                    grid = np.broadcast_to(self.thetas, (live.size, self.thetas.size))
                fvals = self._level_objectives(block[:, live], grid, live, failed, lapack)
                theta_hat[list(failed)] = np.nan
                ok = ~np.isnan(theta_hat[live])
                # first, smaller angle on ties
                theta_hat[live[ok]] = grid[ok, np.argmin(fvals[ok], axis=1)]
        return theta_hat, failed

    def _level_objectives(self, block, grid, live, failed, lapack):
        """Objectives of each row's grid angles against the matching column of
        block, factored and solved by scipy's lapack module. The covariances
        are filled, chunk by chunk, into one stack of at most _STACK_ENTRIES
        entries and factored in place. A trial that visits an angle that
        cannot be factored is added to failed (keyed by live[row]) and its row
        is left unfinished."""
        angles, inverse = np.unique(grid, return_inverse=True)
        n_rows = grid.shape[0]
        # one entry per (angle, row) pair, sorted by angle and then by row
        pairs, pair_of = np.unique(inverse.reshape(-1) * n_rows
                                   + np.repeat(np.arange(n_rows), grid.shape[1]),
                                   return_inverse=True)
        pair_rows = pairs % n_rows
        starts = np.searchsorted(pairs // n_rows, np.arange(angles.size + 1))
        pair_vals = np.empty(pairs.size)
        n = self.n_r * self.block_len
        size = max(1, min(angles.size, _STACK_ENTRIES // (n * n)))
        # angle k's covariance is the Fortran-ordered matrix stack[k], which
        # zpotrf overwrites with its factor instead of copying it
        stack = np.empty((n, n, size), dtype=complex, order="F").transpose(2, 0, 1)
        x_matrix = unvec(self.x, self.n_t, self.block_len)
        params = (self.sigma_alpha_sq, self.sigma_v_sq, self.n_r)
        for lo in range(0, angles.size, size):
            chunk = angles[lo:lo + size]
            czz = pt_covariance_czz(x_matrix, chunk, *params, stack[:chunk.size])
            for k, c in enumerate(czz):
                span = slice(starts[lo + k], starts[lo + k + 1])
                rows = pair_rows[span]
                # one LAPACK call from scipy, the library that also makes the
                # triangular solves: numpy's stacked Cholesky runs on numpy's
                # own BLAS, whose threads then contend with scipy's for the cores
                factor, info = lapack.zpotrf(c, lower=1, clean=0, overwrite_a=1)
                if info:
                    # the failed call has overwritten c: rebuild it alone (a
                    # one-angle product, so its last bits may differ) and
                    # retry with jitter, so one bad angle fails alone
                    try:
                        factor = hermitian_factor(
                            pt_covariance_czz(x_matrix, chunk[k:k + 1], *params)[0])[0]
                    except np.linalg.LinAlgError as err:
                        for t in live[rows]:
                            failed.setdefault(int(t), err)
                        continue
                logdet = 2.0 * np.log(factor.diagonal().real).sum()
                pair_vals[span] = _quadratic_forms(factor, block[:, rows], lapack) + logdet
        return pair_vals[pair_of].reshape(grid.shape)


def blmmse_matrix(x_matrix, c_aa, sigma_v_sq):
    """Linear estimator matrix C_aa X~^H F C_zz^{-1} (exact arcsine C_zz)."""
    l_mat, c_rr = et_l_and_m(x_matrix, c_aa, sigma_v_sq, quantization_aware=False)
    f = bussgang_gain(c_rr)
    czz = covariance_czz_exact(c_rr)
    # estimator = (F X~ C_aa)^H C_zz^{-1}, via one Hermitian solve
    return hermitian_solve(czz, f[:, None] * l_mat).conj().T


# what a trial may raise and still be counted as failed: numerical trouble
NUMERICAL_ERRORS = (np.linalg.LinAlgError, FloatingPointError)


@dataclass
class TrialsSummary:
    """Monte-Carlo MSE summary; ``normalizer`` is tr(C_aa) for extended
    targets and 1 for point targets. ``squared_errors`` holds trial t's
    squared error at index t (seed base_seed + t), NaN exactly where the
    trial failed. ``failures`` counts the failed trials per reason
    ("<exception type>: <message>" or "non-finite squared error")."""

    mse: float
    std_error: float
    n_trials: int
    n_failed: int
    normalizer: float
    squared_errors: np.ndarray
    failures: dict

    @property
    def normalized_mse(self):
        return self.mse / self.normalizer


# numpy's SeedSequence hash and PCG64 seeding, under the names that
# numpy/random/bit_generator.pyx and numpy/random/src/pcg64/pcg64.h give them.
# SeedSequence follows O'Neill's randutils seed_seq_fe; PCG64 is O'Neill's
# PCG, HMC-CS-2014-0905.
DEFAULT_POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16  # half the bits of a uint32
MASK32 = 0xFFFFFFFF
PCG_DEFAULT_MULTIPLIER_HIGH = 2549297995355413924
PCG_DEFAULT_MULTIPLIER_LOW = 4865540595714422341
PCG_DEFAULT_MULTIPLIER_128 = PCG_DEFAULT_MULTIPLIER_HIGH << 64 | PCG_DEFAULT_MULTIPLIER_LOW
MASK128 = (1 << 128) - 1
# seeds below this fill at most the pool's 4 words, which is all _seed_states hashes
SEED_BOUND = 1 << 32 * DEFAULT_POOL_SIZE


def _seed_states(seeds):
    """(T, 4) uint64: row t is SeedSequence(seeds[t]).generate_state(4,
    uint64), for seeds in [0, SEED_BOUND), hashed for all T seeds at once.

    SeedSequence splits a seed into little-endian uint32 words and pads them
    with zero words to the pool size, so a seed below 2^128 hashes as its
    four words whatever their count.
    """
    pool = [np.array([seed >> shift & MASK32 for seed in seeds], dtype=np.uint32)
            for shift in range(0, 32 * DEFAULT_POOL_SIZE, 32)]
    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * MULT_A & MASK32
        value = value * hash_const
        return value ^ value >> XSHIFT

    pool = [hashmix(word) for word in pool]
    for i_src in range(DEFAULT_POOL_SIZE):
        for i_dst in range(DEFAULT_POOL_SIZE):
            if i_src != i_dst:
                mixed = MIX_MULT_L * pool[i_dst] - MIX_MULT_R * hashmix(pool[i_src])
                pool[i_dst] = mixed ^ mixed >> XSHIFT
    hash_const = INIT_B
    state = []
    for i_dst in range(2 * DEFAULT_POOL_SIZE):
        data_val = pool[i_dst % DEFAULT_POOL_SIZE] ^ hash_const
        hash_const = hash_const * MULT_B & MASK32
        data_val = data_val * hash_const
        state.append((data_val ^ data_val >> XSHIFT).astype(np.uint64))
    # uint64 word k joins uint32 words 2k (low) and 2k + 1 (high)
    return np.stack([state[2 * k] | state[2 * k + 1] << 32
                     for k in range(DEFAULT_POOL_SIZE)], axis=1)


def _trial_normals(seeds, count):
    """(T, count) standard normals: row t is the first count draws of
    default_rng(seeds[t]), for seeds in [0, SEED_BOUND), made in one call.
    One call draws the same values as consecutive calls that split them.

    No generator is built per trial. _seed_states hashes every seed at once;
    each row's words s0..s3 set one reused PCG64 as pcg_setseq_128_srandom_r
    seeds it, inc = (s2 s3) << 1 | 1 and state = ((s0 s1) + inc) MULT + inc
    mod 2^128, where (a b) is the 128-bit integer of high word a and low word
    b; one Generator on it draws the row. The first row is checked against
    default_rng(seeds[0]): a numpy that seeds otherwise raises RuntimeError.
    """
    generator = np.random.default_rng(seeds[0])
    first = generator.standard_normal(count)
    bit_generator = generator.bit_generator
    normals = np.empty((len(seeds), count))
    for row, (s0, s1, s2, s3) in zip(normals, _seed_states(seeds).tolist()):
        inc = ((s2 << 64 | s3) << 1 | 1) & MASK128
        state = ((inc + (s0 << 64 | s1)) * PCG_DEFAULT_MULTIPLIER_128 + inc) & MASK128
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        generator.standard_normal(out=row)
    if not np.array_equal(normals[0], first):
        raise RuntimeError(f"numpy {np.__version__} seeds PCG64 unlike estimators._seed_states: "
                           f"trial seed {seeds[0]} does not draw default_rng's stream")
    return normals


def _pt_block(scenario, waveform, seeds, cfg):
    """Build the one-bit MLE, draw every trial's echo (alpha of unit modulus
    and uniform phase, then noise) and estimate them as one block: the (T,)
    estimates and truths, and {trial: LinAlgError} of the failed trials."""
    target = scenario.target
    x = vec(waveform)
    grid = MleGrid(x, target.sigma_alpha_sq, scenario.sigma_v_sq, scenario.block_len,
                   scenario.n_r, cfg)
    g = pt_response_operator(target.theta, scenario.block_len, scenario.n_t,
                             scenario.n_r).apply(x)
    normals = _trial_normals(seeds, 2 + 2 * g.size)  # alpha (re, im), noise (re, im)
    alpha = complex_from_normals(normals[:, 0], normals[:, 1])
    alpha = alpha / np.abs(alpha) * math.sqrt(target.sigma_alpha_sq)
    re, im = np.split(normals[:, 2:], 2, axis=1)
    r = alpha[:, None] * g + complex_from_normals(re, im, math.sqrt(scenario.sigma_v_sq))
    theta_hat, failed = grid.estimate(quantize_one_bit(r.T))
    return theta_hat, np.full(len(seeds), target.theta), failed


def _et_block(scenario, waveform, seeds, unquantized):
    """Build the BLMMSE matrix (unquantized: the LMMSE matrix), draw every
    trial's response and then noise, and estimate them with one product:
    the (T, n_r n_t) estimates and truths, one row per trial, and no failed
    trial."""
    target = scenario.target
    x_matrix = scenario.unvec_waveform(waveform)
    if unquantized:
        # unquantized LMMSE: C_aa X~^H C_rr^{-1} = (C_rr^{-1} L)^H
        l_mat, c_rr = et_l_and_m(x_matrix, target.c_aa, scenario.sigma_v_sq,
                                 quantization_aware=False)
        estimator = hermitian_solve(c_rr, l_mat).conj().T
    else:
        estimator = blmmse_matrix(x_matrix, target.c_aa, scenario.sigma_v_sq)
    n_a, n = target.c_aa.shape[0], scenario.n_r * scenario.block_len
    normals = _trial_normals(seeds, 2 * n_a + 2 * n)  # response (re, im), noise (re, im)
    response = target.responses(normals[:, :2 * n_a])
    re, im = np.split(normals[:, 2 * n_a:], 2, axis=1)
    r = vec_rows(response @ x_matrix) + complex_from_normals(re, im,
                                                             math.sqrt(scenario.sigma_v_sq))
    del normals, re, im  # the block's largest array: free it before the quantizer's
    obs = r if unquantized else quantize_one_bit(r)
    # one stacked product of per-trial gemv calls: each trial gets the bits of
    # estimator @ z_t whatever the block size (in a 2-D product they depend
    # on it), and no call is big enough to wake the BLAS threads, after which
    # the point-target calls measured slower
    a_hat = (estimator @ obs[:, :, None])[:, :, 0]
    return a_hat, vec_rows(response), {}


def run_trials(scenario, waveform, n_trials, base_seed, cfg=None, unquantized=False):
    """Seeded Monte-Carlo MSE of the matching one-bit estimator.

    The estimator is built once: the MLE grid for a point target, the
    BLMMSE matrix for an extended target (unquantized=True: the LMMSE matrix
    on unquantized echoes; point targets have no such estimator). Trial t
    makes one standard_normal call from the stream of default_rng(base_seed
    + t), seeded without building one (_trial_normals): for a point target
    the real and imaginary parts of its reflection coefficient (scaled to
    unit modulus, uniform phase) and then of its noise, for an extended
    target those of its response and then of its noise. The draws and the
    algebra after them run on the whole block of trials at once, and the
    block holds O(n_trials n_r L) entries. Results do not depend on batch
    size and repeat bit-exactly. The seeds must stay below 2^128
    (SEED_BOUND), the seeds whose SeedSequence pool they fill.

    A numerical failure of the setup (NUMERICAL_ERRORS, or a non-finite
    waveform) fails every trial; a point-target grid angle, coarse or fine,
    that cannot be factored fails the trials that visit it, and a non-finite
    squared error fails its trial. A failed trial's entry of
    squared_errors is NaN and every finite entry is a kept trial's: mse and
    std_error are over the finite entries, NaN when there are none. Failed
    trials are counted per reason instead of aborting the batch; any other
    exception, ValueError included, propagates.
    """
    if not integer_at_least(n_trials, 1):
        raise ValueError(f"n_trials must be an integer of at least 1, got {n_trials!r}")
    if not integer_at_least(base_seed, 0):
        raise ValueError(f"base_seed must be a non-negative integer, got {base_seed!r}")
    n_trials, base_seed = int(n_trials), int(base_seed)
    if base_seed + n_trials > SEED_BOUND:
        raise ValueError(f"base_seed + n_trials - 1 must be below 2**128, got base_seed "
                         f"{base_seed} and n_trials {n_trials}")
    pt = scenario.kind == "pt"
    if pt and unquantized:
        raise ValueError("unquantized trials need an extended target")
    normalizer = 1.0 if pt else float(np.trace(scenario.target.c_aa).real)
    seeds = range(base_seed, base_seed + n_trials)
    try:
        if not np.all(np.isfinite(waveform)):
            raise FloatingPointError("waveform has non-finite entries")
        if pt:
            estimates, truths, failed = _pt_block(scenario, waveform, seeds, cfg)
        else:
            estimates, truths, failed = _et_block(scenario, waveform, seeds, unquantized)
    except NUMERICAL_ERRORS as err:
        squared_errors = np.full(n_trials, math.nan)
        reasons = [_reason(err)] * n_trials
    else:
        diff = (estimates - truths).reshape(n_trials, -1)
        # stacked dot products: each error gets the bits of vdot(diff_t, diff_t)
        squared_errors = (diff.conj()[:, None, :] @ diff[:, :, None]).real.ravel()
        squared_errors[list(failed)] = math.nan
        reasons = [_reason(e) for e in failed.values()]
    kept = squared_errors[np.isfinite(squared_errors)]
    n_failed = n_trials - kept.size
    reasons += ["non-finite squared error"] * (n_failed - len(reasons))
    mse = se = math.nan
    if kept.size:
        mse = float(kept.mean())
        se = float(kept.std(ddof=1) / math.sqrt(kept.size)) if kept.size > 1 else 0.0
    return TrialsSummary(mse, se, n_trials, n_failed, normalizer, squared_errors,
                         dict(Counter(reasons)))


def _reason(err):
    return f"{type(err).__name__}: {err}"
