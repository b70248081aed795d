"""One-bit estimators: grid-searched Gaussian-likelihood DOA estimation for
point targets, the Bussgang-linearized LMMSE response estimator for extended
targets, and the seeded Monte-Carlo MSE harness."""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .array_geometry import pt_response_operator
from .crb_metrics import et_anchor, et_l_and_m
from .linalg import (
    XtildeOperator,
    chol_logdet,
    complex_normal,
    hermitian_factor,
    hermitian_solve,
    vec,
)
from .quantization import covariance_czz_exact, bussgang_gain, quantize_one_bit

HALF_PI = np.pi / 2.0


@dataclass
class MleConfig:
    """Hierarchical grid search: coarse pass plus shrinking refinements."""

    coarse_grid_step: float = math.radians(0.5)
    refine_levels: int = 3
    refine_shrink: float = 0.1

    def __post_init__(self):
        if self.coarse_grid_step <= 0.0:
            raise ValueError("coarse grid step must be positive")
        if not 0.0 < self.refine_shrink < 1.0:
            raise ValueError("refine shrink must lie in (0, 1)")


class MleGrid:
    """Precomputed coarse-grid likelihood factors for one (waveform, noise)
    configuration, reusable across Monte-Carlo trials."""

    def __init__(self, x, sigma_alpha_sq, sigma_v_sq, block_len, n_r, cfg=None):
        self.x = np.asarray(x, dtype=complex)
        self.sigma_alpha_sq = float(sigma_alpha_sq)
        self.sigma_v_sq = float(sigma_v_sq)
        self.block_len = int(block_len)
        self.n_t = self.x.size // self.block_len
        self.n_r = int(n_r)
        self.cfg = cfg or MleConfig()
        n_pts = int(round(np.pi / self.cfg.coarse_grid_step)) + 1
        self.thetas = np.linspace(-HALF_PI, HALF_PI, n_pts)
        self._factors = [self._factorize(t) for t in self.thetas]

    def _covariance(self, theta):
        op = pt_response_operator(theta, self.block_len, self.n_t, self.n_r)
        g = op.apply(self.x)
        c_rr = self.sigma_alpha_sq * np.outer(g, g.conj())
        c_rr += self.sigma_v_sq * np.eye(g.size)
        return covariance_czz_exact(c_rr)

    def _factorize(self, theta):
        factor = hermitian_factor(self._covariance(theta))
        return factor, chol_logdet(factor)

    @staticmethod
    def _objective_from_factor(factor, logdet, z):
        y = sla.cho_solve(factor, z)
        return float(np.vdot(z, y).real) + logdet

    def objective(self, z, theta):
        factor, logdet = self._factorize(theta)
        return self._objective_from_factor(factor, logdet, z)

    def coarse_objectives(self, z):
        return np.array(
            [self._objective_from_factor(f, ld, z) for f, ld in self._factors]
        )

    def estimate(self, z):
        vals = self.coarse_objectives(z)
        best = int(np.argmin(vals))  # argmin takes the first, smaller angle
        theta_hat = float(self.thetas[best])
        step = self.cfg.coarse_grid_step
        for _ in range(self.cfg.refine_levels):
            fine = step * self.cfg.refine_shrink
            offsets = np.arange(-10, 11) * fine
            grid = np.clip(theta_hat + offsets, -HALF_PI, HALF_PI)
            fvals = np.array([self.objective(z, t) for t in grid])
            theta_hat = float(grid[int(np.argmin(fvals))])
            step = fine
        return theta_hat


def mle_pt(z, x, sigma_alpha_sq, sigma_v_sq, block_len, cfg=None, grid=None):
    """One-bit DOA estimate minimizing z^H C_zz^{-1} z + log det C_zz over
    the angle grid; C_zz is the exact arcsine-law covariance."""
    z = np.asarray(z)
    if grid is None:
        n_r = z.size // block_len
        grid = MleGrid(x, sigma_alpha_sq, sigma_v_sq, block_len, n_r, cfg)
    return grid.estimate(z)


def blmmse_matrix(x_matrix, c_aa, sigma_v_sq):
    """Linear estimator matrix C_aa X~^H F C_zz^{-1} (exact arcsine C_zz)."""
    l_mat, c_rr = et_l_and_m(x_matrix, c_aa, sigma_v_sq, quantization_aware=False)
    f = bussgang_gain(c_rr)
    czz = covariance_czz_exact(c_rr)
    # estimator = (F X~ C_aa)^H C_zz^{-1}, via one Hermitian solve
    return hermitian_solve(czz, f[:, None] * l_mat).conj().T


def blmmse_et(z, x_matrix, c_aa, sigma_v_sq, estimator=None):
    """Bussgang-linearized LMMSE estimate of the vectorized target response."""
    if estimator is None:
        estimator = blmmse_matrix(x_matrix, c_aa, sigma_v_sq)
    return estimator @ np.asarray(z)


@dataclass
class TrialResult:
    estimate: object
    truth: object
    squared_error: float
    seed: int


# what a trial may raise and still be counted as failed: numerical trouble
NUMERICAL_ERRORS = (np.linalg.LinAlgError, FloatingPointError)


@dataclass
class TrialsSummary:
    """Monte-Carlo MSE summary; ``normalizer`` is tr(C_aa) for extended
    targets and 1 for point targets. ``failures`` counts the failed trials
    per reason ("<exception type>: <message>" or "non-finite squared error")."""

    mse: float
    std_error: float
    n_trials: int
    n_failed: int
    normalizer: float
    records: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)

    @property
    def normalized_mse(self):
        return self.mse / self.normalizer

    @property
    def mse_db(self):
        return 10.0 * math.log10(self.mse)


def _pt_trial(scenario, g, grid, seed, normalize_alpha):
    rng = np.random.default_rng(seed)
    alpha = complex_normal(rng, ())
    if normalize_alpha:
        alpha = alpha / np.abs(alpha)
    alpha = alpha * math.sqrt(scenario.target.sigma_alpha_sq)
    noise = complex_normal(rng, g.size, scale=math.sqrt(scenario.sigma_v_sq))
    z = quantize_one_bit(alpha * g + noise)
    theta_hat = grid.estimate(z)
    err = (theta_hat - scenario.target.theta) ** 2
    return TrialResult(theta_hat, scenario.target.theta, float(err), seed)


def _et_trial(scenario, x_matrix, estimator, op, seed, unquantized):
    rng = np.random.default_rng(seed)
    a = vec(scenario.target.sample(rng))
    noise = complex_normal(
        rng, scenario.n_r * scenario.block_len, scale=math.sqrt(scenario.sigma_v_sq)
    )
    r = op.apply(a) + noise
    obs = r if unquantized else quantize_one_bit(r)
    a_hat = estimator @ obs
    err = float(np.vdot(a_hat - a, a_hat - a).real)
    return TrialResult(a_hat, a, err, seed)


def run_trials(scenario, waveform, n_trials, base_seed, cfg=None, unquantized=False,
               normalize_alpha=True):
    """Seeded Monte-Carlo MSE of the matching one-bit estimator.

    Trial t draws everything from seed base_seed + t, so results do not
    depend on execution order and repeat bit-exactly. Trials that fail
    numerically (NUMERICAL_ERRORS, a non-finite waveform or a non-finite
    error) are counted per reason and skipped instead of aborting the batch;
    any other exception, ValueError included, propagates. Point-target trials draw the reflection coefficient as a
    normalized complex Gaussian (unit modulus, uniform phase); pass
    normalize_alpha=False for a raw CN(0,1) draw.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    records = []
    errors = []
    failures = {}
    try:
        runner, normalizer = _build_runner(scenario, waveform, cfg, unquantized,
                                           normalize_alpha)
    except NUMERICAL_ERRORS as err:
        # shared estimator setup failed: every trial is reported as failed
        normalizer = 1.0
        if scenario.kind == "et":
            normalizer = float(np.trace(scenario.target.c_aa).real)
        return TrialsSummary(math.nan, math.nan, n_trials, n_trials, normalizer, [],
                             {_reason(err): n_trials})
    for t in range(n_trials):
        seed = base_seed + t
        try:
            rec = runner(seed)
        except NUMERICAL_ERRORS as err:
            reason = _reason(err)
        else:
            if math.isfinite(rec.squared_error):
                records.append(rec)
                errors.append(rec.squared_error)
                continue
            reason = "non-finite squared error"
        failures[reason] = failures.get(reason, 0) + 1
    n_failed = n_trials - len(records)
    errors = np.asarray(errors)
    if errors.size == 0:
        return TrialsSummary(math.nan, math.nan, n_trials, n_failed, normalizer, records,
                             failures)
    mse = float(errors.mean())
    se = float(errors.std(ddof=1) / math.sqrt(errors.size)) if errors.size > 1 else 0.0
    return TrialsSummary(mse, se, n_trials, n_failed, normalizer, records, failures)


def _reason(err):
    return f"{type(err).__name__}: {err}"


def _build_runner(scenario, waveform, cfg, unquantized, normalize_alpha):
    if not np.all(np.isfinite(waveform)):
        raise FloatingPointError("waveform has non-finite entries")
    if scenario.kind == "pt":
        x = vec(waveform) if np.asarray(waveform).ndim == 2 else np.asarray(waveform)
        grid = MleGrid(
            x, scenario.target.sigma_alpha_sq, scenario.sigma_v_sq,
            scenario.block_len, scenario.n_r, cfg,
        )
        g = pt_response_operator(
            scenario.target.theta, scenario.block_len, scenario.n_t, scenario.n_r
        ).apply(x)
        normalizer = 1.0
        runner = lambda seed: _pt_trial(scenario, g, grid, seed, normalize_alpha)
        return runner, normalizer
    else:
        x_matrix = np.asarray(waveform)
        if x_matrix.ndim == 1:
            x_matrix = x_matrix.reshape((scenario.n_t, scenario.block_len), order="F")
        op = XtildeOperator(x_matrix, scenario.n_r)
        if unquantized:
            # unquantized LMMSE: C_aa X~^H C_rr^{-1} = (C_rr^{-1} L)^H
            estimator = et_anchor(
                x_matrix, scenario.target.c_aa, scenario.sigma_v_sq,
                quantization_aware=False,
            ).m_inv_l.conj().T
        else:
            estimator = blmmse_matrix(
                x_matrix, scenario.target.c_aa, scenario.sigma_v_sq
            )
        normalizer = float(np.trace(scenario.target.c_aa).real)
        runner = lambda seed: _et_trial(
            scenario, x_matrix, estimator, op, seed, unquantized
        )
        return runner, normalizer
