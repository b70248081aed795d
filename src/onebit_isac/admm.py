"""Scaled-dual ADMM driver coupling the waveform subproblem solvers with the
SEP-feasible projection, including the geometric penalty schedule with dual
rescaling and per-iteration convergence bookkeeping."""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import crb_metrics, opt_et, opt_pt
from .linalg import complex_normal, h_tilde_apply, vec
from .sep_projection import _clamp_u, solve_block
from .crb_metrics import PtModel
from .opt_et import EtProblem

VARIANTS = ("PT", "ET", "ET_QU", "PT_INF")


@dataclass
class AdmmConfig:
    rho0: float
    c_rho: float
    rho_max: float
    tol_residual: float = 1e-4
    tol_objective: float = 1e-4
    max_outer: int = 60
    max_inner: int = 20
    inner_tol: float = 1e-6

    def __post_init__(self):
        if self.rho0 <= 0.0 or self.c_rho <= 1.0 or self.rho_max < self.rho0:
            raise ValueError("penalty schedule requires rho0 > 0, c_rho > 1, "
                             "rho_max >= rho0")

    @classmethod
    def pt_defaults(cls):
        return cls(rho0=1e2, c_rho=3.0, rho_max=1e12, max_outer=60)

    @classmethod
    def et_defaults(cls):
        return cls(rho0=1.0, c_rho=1.1, rho_max=10.0, max_outer=300)

    @classmethod
    def for_variant(cls, variant):
        if variant in ("PT", "PT_INF"):
            return cls.pt_defaults()
        return cls.et_defaults()


@dataclass
class AdmmTrace:
    """Per-outer-iteration record: residual, objective, penalty, wall time
    since the start, the waveform solver's inner iterations and whether its
    line search stalled (never for the extended target)."""

    residuals: list = field(default_factory=list)
    objectives: list = field(default_factory=list)
    rhos: list = field(default_factory=list)
    wall_times: list = field(default_factory=list)
    inner_iters: list = field(default_factory=list)
    stalled: list = field(default_factory=list)

    def append(self, residual, objective, rho, wall_time, inner_iters, stalled):
        self.residuals.append(float(residual))
        self.objectives.append(float(objective))
        self.rhos.append(float(rho))
        self.wall_times.append(float(wall_time))
        self.inner_iters.append(int(inner_iters))
        self.stalled.append(bool(stalled))

    def __len__(self):
        return len(self.residuals)


@dataclass
class AdmmResult:
    x: np.ndarray
    d: np.ndarray
    trace: AdmmTrace
    u: np.ndarray = None
    lam: np.ndarray = None
    converged: bool = False
    n_outer: int = 0


def _feasible_u(scenario, spec, x):
    """The auxiliary block H~ x projected to feasibility at all-gamma decisions."""
    hx = h_tilde_apply(scenario.channel, x, scenario.block_len)
    chi = hx.reshape((scenario.n_users, scenario.block_len), order="F")
    return vec(
        _clamp_u(chi.real, spec.s_real, spec.a_r, spec.b_r, spec.gamma)
        + 1j * _clamp_u(chi.imag, spec.s_imag, spec.a_i, spec.b_i, spec.gamma)
    )


def initialize(scenario, seed=0):
    """Random full-power waveform, zero dual, all-gamma decisions, and the
    auxiliary block projected to feasibility at those decisions."""
    rng = np.random.default_rng(seed)
    dim = scenario.n_t * scenario.block_len
    x = complex_normal(rng, dim)
    x *= math.sqrt(scenario.power) / np.linalg.norm(x)
    k = scenario.n_users
    lam = np.zeros(k * scenario.block_len, dtype=complex)
    spec = scenario.sep_spec() if k else None
    d = np.full(2 * k, spec.gamma if k else 0.0)
    u = _feasible_u(scenario, spec, x) if k else np.zeros(0, dtype=complex)
    return x, u, d, lam


def _objective(scenario, variant, model, x):
    # each solver leaves its returned x in the model's cache: the workspace
    # gives crb_pt (PT) or crb_pt_infinite_resolution (PT_INF), the anchor
    # crb_et (ET) or mse_et_quantization_unaware (ET_QU)
    if variant in ("PT", "PT_INF"):
        return crb_metrics.pt_bound(model.workspace(x), quantized=(variant == "PT"))
    return model.bound_value(x) / float(np.trace(scenario.target.c_aa).real)


def admm_run(scenario, variant, config=None, x_init=None, seed=0):
    """Alternating updates of waveform, feasible block, and scaled dual.

    The penalty grows geometrically with the dual rescaled by the same
    factor until rho_max; iteration stops once the residual and the relative
    objective change both clear their tolerances, or at max_outer.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    config = config or AdmmConfig.for_variant(variant)
    x, u, d, lam = initialize(scenario, seed)
    k = scenario.n_users
    channel = scenario.channel if k else None
    spec = scenario.sep_spec() if k else None
    if x_init is not None:
        x = np.asarray(x_init, dtype=complex)
        if float(np.vdot(x, x).real) > scenario.power * (1.0 + 1e-9):
            raise ValueError("initial waveform violates the power constraint")
        if k:
            u = _feasible_u(scenario, spec, x)
    if variant in ("PT", "PT_INF"):
        model = PtModel(
            scenario.target.theta, scenario.target.sigma_alpha_sq,
            scenario.sigma_v_sq, scenario.n_t, scenario.n_r, scenario.block_len,
        )
    else:
        model = EtProblem(
            c_aa=scenario.target.c_aa, sigma_v_sq=scenario.sigma_v_sq,
            n_t=scenario.n_t, n_r=scenario.n_r, block_len=scenario.block_len,
            quantization_aware=(variant == "ET"),
        )
    lam_hth = opt_et.lam_max_channel(channel)
    rho = config.rho0
    trace = AdmmTrace()
    obj_prev = None
    converged = False
    t0 = time.perf_counter()
    for it in range(config.max_outer):
        if variant in ("PT", "PT_INF"):
            x, info = opt_pt.solve_x_pt(
                model, x, rho=rho, u_i=u, lambda_i=lam, channel=channel,
                power=scenario.power, tol=config.inner_tol,
                max_iter=config.max_inner, quantized=(variant == "PT"),
            )
        else:
            x, info = opt_et.solve_x_et(
                model, x, rho=rho, u_i=u, lambda_i=lam, channel=channel,
                power=scenario.power, tol=config.inner_tol,
                max_iter=config.max_inner, lam_hth=lam_hth,
            )
        if k:
            hx = h_tilde_apply(channel, x, scenario.block_len)
            chi = (hx + lam).reshape((k, scenario.block_len), order="F")
            u_mat, d = solve_block(chi, spec)
            u = vec(u_mat)
            lam = lam + (hx - u)
            residual = float(np.vdot(hx - u, hx - u).real)
        else:
            residual = 0.0
        objective = _objective(scenario, variant, model, x)
        if not math.isfinite(objective):
            err = RuntimeError(
                f"non-finite objective at outer iteration {it}"
            )
            err.trace = trace
            raise err
        trace.append(residual, objective, rho, time.perf_counter() - t0, info["n_iter"],
                     info.get("stalled", False))
        if obj_prev is not None:
            rel = abs(objective - obj_prev) / (abs(obj_prev) + 1e-30)
            if residual < config.tol_residual and rel < config.tol_objective:
                converged = True
                obj_prev = objective
                break
        obj_prev = objective
        if rho < config.rho_max:
            factor = min(config.c_rho, config.rho_max / rho)
            rho *= factor
            lam = lam / factor
    return AdmmResult(
        x=x, d=d, trace=trace, u=u, lam=lam, converged=converged,
        n_outer=len(trace),
    )
