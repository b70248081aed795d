"""Scaled-dual ADMM driver coupling the waveform subproblem solvers with the
SEP-feasible projection, including the geometric penalty schedule with dual
rescaling and per-iteration convergence bookkeeping."""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import opt_et, opt_pt
from .comm_sep import complex_block, real_rows
from .linalg import check_counts, check_power, complex_normal, vec
from .sep_projection import _clamp_u, solve_block
from .crb_metrics import PtModel
from .opt_et import EtProblem
from .scenario import min_sep_power

VARIANTS = ("PT", "ET", "ET_QU", "PT_INF")


@dataclass
class AdmmConfig:
    """ADMM penalty schedule, tolerances and caps. inner_tol is relative to the
    waveform solver's augmented objective: the trace tr(P dC) for PT, the gain
    tr(L^H M^{-1} L) for ET and ET_QU, not the bound tr(C_aa) - gain (on desk
    ET_QU scenario 0, 1e-6 of the gain is 2.4e-4 of the bound)."""

    rho0: float
    c_rho: float
    rho_max: float
    tol_residual: float = 1e-4
    tol_objective: float = 1e-4
    max_outer: int = 60
    max_inner: int = 20
    inner_tol: float = 1e-6

    def __post_init__(self):
        if not (0.0 < self.rho0 <= self.rho_max < math.inf and 1.0 < self.c_rho < math.inf):
            raise ValueError("penalty schedule requires finite rho0 > 0, c_rho > 1, "
                             "rho_max >= rho0")
        for name in ("tol_residual", "tol_objective", "inner_tol"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"got {getattr(self, name)!r}")
        check_counts(self, ("max_outer", "max_inner"))

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
    since the start, the waveform solver's inner iterations, its
    info["stalled"] (a point-target line search that gave up; the
    extended-target closed-form step never stalls) and its info["stop"]:
    "tol", "stalled" or "max_iter"."""

    residuals: list = field(default_factory=list)
    objectives: list = field(default_factory=list)
    rhos: list = field(default_factory=list)
    wall_times: list = field(default_factory=list)
    inner_iters: list = field(default_factory=list)
    stalled: list = field(default_factory=list)
    inner_stops: list = field(default_factory=list)

    def append(self, residual, objective, rho, wall_time, info):
        self.residuals.append(float(residual))
        self.objectives.append(float(objective))
        self.rhos.append(float(rho))
        self.wall_times.append(float(wall_time))
        self.inner_iters.append(int(info["n_iter"]))
        self.stalled.append(bool(info["stalled"]))
        self.inner_stops.append(info["stop"])

    def __len__(self):
        return len(self.residuals)


@dataclass
class AdmmResult:
    """The last iterates, the trace, and why the run stopped: reason is
    "converged" (both tolerances cleared), "budget_infeasible" (stopped at
    max_outer with a power budget below scenario.min_sep_power, so no
    waveform meets the SEP constraints at the tightest decisions) or
    "max_outer"."""

    x: np.ndarray
    d: np.ndarray
    trace: AdmmTrace
    u: np.ndarray = None
    lam: np.ndarray = None
    reason: str = "max_outer"
    n_outer: int = 0

    @property
    def converged(self):
        return self.reason == "converged"


def _feasible_u(scenario, spec, x):
    """The auxiliary block H X projected to feasibility at all-gamma decisions."""
    chi = real_rows(scenario.channel @ scenario.unvec_waveform(x))
    return vec(complex_block(_clamp_u(chi, spec.s, spec.a, spec.b, spec.gamma)))


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


def variant_model(scenario, variant):
    """The model whose bound the variant minimizes on scenario: a PtModel with
    quantized=(variant == "PT") for PT and PT_INF, an EtProblem with
    quantization_aware=(variant == "ET") for ET and ET_QU. Raises ValueError
    for an unknown variant or one that does not fit scenario.kind."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant.startswith("PT") != (scenario.kind == "pt"):
        raise ValueError(f"variant {variant!r} does not fit scenario.kind {scenario.kind!r}")
    if scenario.kind == "pt":
        return PtModel(scenario.target.theta, scenario.target.sigma_alpha_sq,
                       scenario.sigma_v_sq, scenario.n_t, scenario.n_r, scenario.block_len,
                       quantized=(variant == "PT"))
    return EtProblem(scenario.target.c_aa, scenario.sigma_v_sq, scenario.n_t, scenario.n_r,
                     scenario.block_len, quantization_aware=(variant == "ET"))


def admm_run(scenario, variant, config=None, x_init=None, seed=0):
    """Alternating updates of waveform, feasible block, and scaled dual.

    The penalty grows geometrically with the dual rescaled by the same
    factor until rho_max; iteration stops once the residual and the relative
    objective change both clear their tolerances (reason "converged"), or at
    max_outer (reason "budget_infeasible" when the scenario has users and its
    power is below min_sep_power, else "max_outer"); a non-finite objective
    raises. The objective is the waveform solver's info["bound"] at its x on
    variant_model(scenario, variant), over scenario.normalizer: crb_pt (PT),
    crb_pt_infinite_resolution (PT_INF), or crb_et (ET) and
    mse_et_quantization_unaware (ET_QU) over tr(C_aa).
    """
    model = variant_model(scenario, variant)
    config = config or AdmmConfig.for_variant(variant)
    x, u, d, lam = initialize(scenario, seed)
    k = scenario.n_users
    spec = scenario.sep_spec() if k else None
    if x_init is not None:
        x = check_power(x_init, scenario.power)
        if k:
            u = _feasible_u(scenario, spec, x)
    # the solver is looked up on its module here, so that a wrapper put
    # there before the call is the one every outer iteration runs
    solve_x = opt_pt.solve_x_pt if scenario.kind == "pt" else opt_et.solve_x_et
    normalizer = scenario.normalizer
    rho = config.rho0
    trace = AdmmTrace()
    obj_prev = None
    reason = "max_outer"
    t0 = time.perf_counter()
    for it in range(config.max_outer):
        x, info = solve_x(model, x, rho=rho, u_i=u, lambda_i=lam, channel=scenario.channel,
                          power=scenario.power, tol=config.inner_tol,
                          max_iter=config.max_inner)
        if k:
            hx = vec(scenario.channel @ scenario.unvec_waveform(x))
            chi = (hx + lam).reshape((k, scenario.block_len), order="F")
            u_mat, d = solve_block(chi, spec)
            u = vec(u_mat)
            lam = lam + (hx - u)
            residual = float(np.vdot(hx - u, hx - u).real)
        else:
            residual = 0.0
        objective = info["bound"] / normalizer
        if not math.isfinite(objective):
            err = RuntimeError(
                f"non-finite objective at outer iteration {it}"
            )
            err.trace = trace
            raise err
        trace.append(residual, objective, rho, time.perf_counter() - t0, info)
        if obj_prev is not None:
            rel = abs(objective - obj_prev) / (abs(obj_prev) + 1e-30)
            if residual < config.tol_residual and rel < config.tol_objective:
                reason = "converged"
                obj_prev = objective
                break
        obj_prev = objective
        if rho < config.rho_max:
            factor = min(config.c_rho, config.rho_max / rho)
            rho *= factor
            lam = lam / factor
    if reason != "converged" and k and min_sep_power(scenario) > scenario.power:
        reason = "budget_infeasible"
    return AdmmResult(
        x=x, d=d, trace=trace, u=u, lam=lam, reason=reason,
        n_outer=len(trace),
    )
