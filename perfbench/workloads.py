"""The benchmark workloads: seeded inputs, the calls into the package, and
the correctness gate applied to every output.

Each workload has two kinds of operation (``a`` and ``b``) and a pool of
operations generated before any timing starts. A run cycles through the pool,
so every case is called the same way in every run of a seed and the output
digests repeat. ``design`` and ``mc_trials`` are the workloads BENCHMARK.json
lists; ``scale_up`` is run by hand (see README.md).
"""

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import onebit_isac as isac

WORKLOADS = ("design", "mc_trials", "scale_up")

# The design workload designs a fixed set of desk cases whatever the seed:
# scenario seed s, started from initialize(scenario, s). Both the scenario draw
# and the initial waveform move the number of ADMM outer iterations (ET 15-47,
# ET_QU 31-300 on the scenarios below), so a design rate over drawn cases
# would measure the draw rather than the code. ET designs are short, so ET
# gets more scenarios. Kind a is the point target (PT, PT_INF), kind b the
# extended target (ET, ET_QU); the order alternates the two, so both kinds
# see the machine across the whole run. Entries are (kind, variant, s).
DESIGN_CASES = (
    ("a", "PT", 0), ("b", "ET", 0), ("b", "ET", 1), ("b", "ET_QU", 0),
    ("a", "PT_INF", 0), ("b", "ET", 2), ("b", "ET", 3), ("b", "ET_QU", 1),
)

# Operation sizes, full and for the smoke tests.
SIZES = {
    "full": {
        "pt": {}, "et": {}, "admm_overrides": {},
        "mc_pt_calls": 2, "mc_pt_trials": 12, "mc_et_calls": 2, "mc_et_trials": 6000,
        "mle": None,
        "scale_pt": dict(n_t=16, n_r=32, block_len=32), "scale_pt_iters": 1, "scale_pt_calls": 1,
        "scale_et": dict(n_t=8, n_r=8, block_len=32), "scale_et_iters": 6, "scale_et_calls": 3,
    },
    "tiny": {
        "pt": dict(n_t=2, n_r=2, n_users=1, block_len=4),
        "et": dict(n_t=2, n_r=2, n_users=1, block_len=4),
        "admm_overrides": dict(max_outer=3, max_inner=3),
        "mc_pt_calls": 1, "mc_pt_trials": 2, "mc_et_calls": 1, "mc_et_trials": 20,
        "mle": dict(coarse_grid_step=math.radians(10.0), refine_levels=1),
        "scale_pt": dict(n_t=2, n_r=4, block_len=4), "scale_pt_iters": 2, "scale_pt_calls": 1,
        "scale_et": dict(n_t=2, n_r=2, block_len=4), "scale_et_iters": 2, "scale_et_calls": 1,
    },
}


@dataclass
class Outcome:
    """What the gate found in one operation's output."""

    work: float  # designs, trials or MM iterations completed
    attempted: int
    failed: int
    quality: float  # design bound, MSE over bound, or bound after the MM budget
    digest: str
    converged: object = None  # bool for designs, None otherwise
    problems: list = field(default_factory=list)


@dataclass
class Op:
    kind: str  # "a" or "b"
    label: str  # variant, e.g. "PT_INF"; names the per-variant figures
    key: str  # identifies the pool entry in digests
    call: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    name: str
    unit: str  # what the rates count
    ops: list
    warmup: Callable[[], None]


def digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()[:16]


def _rng(seed, salt):
    return np.random.default_rng([seed, salt])


def _full_power(rng, dim, power=1.0):
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return x * math.sqrt(power) / np.linalg.norm(x)


def _interleave(first, second):
    """a, b, a, b, ...: both kinds see the same machine conditions."""
    out = [op for pair in zip(first, second) for op in pair]
    n = min(len(first), len(second))
    return out + first[n:] + second[n:]


def _power_ok(x, power):
    return float(np.vdot(x, x).real) <= power * (1.0 + 1e-9)


# -- designs -------------------------------------------------------------------

def _design_op(kind, scenario, scenario_seed, variant, init_seed, overrides):
    config = isac.AdmmConfig.for_variant(variant)
    for key, value in overrides.items():
        setattr(config, key, value)
    x_init, _, _, _ = isac.initialize(scenario, init_seed)
    spec = scenario.sep_spec()

    def call():
        return isac.admm_run(scenario, variant, config=config, x_init=x_init, seed=init_seed)

    def check(res):
        problems = []
        objective = res.trace.objectives[-1] if res.trace.objectives else math.nan
        if not _power_ok(res.x, scenario.power):
            problems.append("power constraint violated")
        if not math.isfinite(objective):
            problems.append("objective not finite")
        if res.converged:
            if not res.trace.residuals[-1] < config.tol_residual:
                problems.append("converged with residual above tol_residual")
            u_mat = res.u.reshape((scenario.n_users, scenario.block_len), order="F")
            if not isac.sep_constraints_satisfied(u_mat, res.d, spec)[0]:
                problems.append("converged with (u, d) outside the SEP set")
        return Outcome(work=1, attempted=1, failed=int(bool(problems)), quality=objective,
                       digest=digest(res.x, objective), converged=bool(res.converged),
                       problems=problems)

    return Op(kind, variant, f"{variant}/scenario{scenario_seed}/init{init_seed}", call, check)


def _target(variant):
    return "pt" if variant.startswith("PT") else "et"


def design(seed, size="full"):
    """PT, PT_INF, ET and ET_QU designs of the fixed desk cases; ``seed`` is
    unused."""
    p = SIZES[size]
    builders = {"pt": isac.pt_scenario, "et": isac.et_scenario}
    needed = {(_target(v), s) for _, v, s in DESIGN_CASES}
    scenarios = {(t, s): builders[t](seed=s, **p[t]) for t, s in sorted(needed)}
    ops = [_design_op(kind, scenarios[_target(v), s], s, v, s, p["admm_overrides"])
           for kind, v, s in DESIGN_CASES]

    def warmup():
        quick = dict(max_outer=1, max_inner=1)
        for variant in ("PT", "PT_INF", "ET", "ET_QU"):
            _design_op("a", scenarios[_target(variant), 0], 0, variant, 0, quick).call()

    return Workload("design", "designs", ops, warmup)


# -- Monte-Carlo trials --------------------------------------------------------

def _mc_op(kind, label, scenario, waveform, n_trials, base_seed, bound_of, cfg):
    bound = []  # reference bound of this waveform, computed at the first check

    def call():
        return isac.run_trials(scenario, waveform, n_trials=n_trials, base_seed=base_seed, cfg=cfg)

    def check(summary):
        if not bound:
            bound.append(bound_of(waveform))
        problems = []
        if summary.n_failed:
            problems.append(f"{summary.n_failed} failed trials")
        mse = summary.mse / summary.normalizer
        if not math.isfinite(mse):
            problems.append("MSE not finite")
        return Outcome(work=summary.n_trials - summary.n_failed, attempted=summary.n_trials,
                       failed=summary.n_failed if math.isfinite(mse) else summary.n_trials,
                       quality=mse / bound[0], digest=digest(summary.mse, summary.std_error),
                       problems=problems)

    return Op(kind, label, f"{scenario.kind}/trials{base_seed}", call, check)


def mc_trials(seed, size="full"):
    p = SIZES[size]
    rng = _rng(seed, 3)
    cfg = isac.MleConfig(**p["mle"]) if p["mle"] else None
    pt = isac.pt_scenario(seed=seed, **p["pt"])
    et = isac.et_scenario(seed=seed, **p["et"])
    tr_caa = float(np.trace(et.target.c_aa).real)

    def crb_pt(x):
        return isac.crb_pt(x, pt.target.theta, pt.target.sigma_alpha_sq, pt.sigma_v_sq,
                           pt.n_r, pt.block_len)

    def crb_et(x):
        return isac.crb_et(x, et.target.c_aa, et.sigma_v_sq) / tr_caa

    pt_ops, et_ops = [], []
    for i in range(p["mc_pt_calls"]):
        x = _full_power(rng, pt.n_t * pt.block_len, pt.power)
        pt_ops.append(_mc_op("a", "PT", pt, x, p["mc_pt_trials"], 100_000 * seed + 1000 * i, crb_pt, cfg))
    for i in range(p["mc_et_calls"]):
        x = et.unvec_waveform(_full_power(rng, et.n_t * et.block_len, et.power))
        et_ops.append(_mc_op("b", "ET", et, x, p["mc_et_trials"], 100_000 * seed + 50_000 + 1000 * i,
                             crb_et, cfg))
    ops = _interleave(pt_ops, et_ops)

    def warmup():
        quick = isac.MleConfig(coarse_grid_step=math.radians(10.0), refine_levels=1)
        x = _full_power(_rng(seed, 4), pt.n_t * pt.block_len, pt.power)
        isac.run_trials(pt, x, n_trials=1, base_seed=0, cfg=quick)
        isac.run_trials(et, et.unvec_waveform(x[: et.n_t * et.block_len]), n_trials=10, base_seed=0)

    return Workload("mc_trials", "trials", ops, warmup)


# -- sensing-only MM at scale ----------------------------------------------------

def _mm_op(kind, label, key, solve, bound_of, x_init, iters):
    def call():
        return solve(x_init, iters)

    def check(out):
        x, info = out
        history = info["objective_history"]
        problems = []
        if not _power_ok(x, 1.0):
            problems.append("power constraint violated")
        if not all(math.isfinite(v) for v in history):
            problems.append("objective not finite")
        elif history[-1] > history[0] + 1e-9 * abs(history[0]):
            problems.append("MM objective increased over the budget")
        return Outcome(work=info["n_iter"], attempted=1, failed=int(bool(problems)),
                       quality=bound_of(history[-1]), digest=digest(x, history[-1]),
                       problems=problems)

    return Op(kind, label, key, call, check)


def scale_up(seed, size="full"):
    p = SIZES[size]
    rng = _rng(seed, 5)
    sc = isac.pt_scenario(seed=seed, **p["pt"])
    model = isac.PtModel(sc.target.theta, sc.target.sigma_alpha_sq, sc.sigma_v_sq,
                         **p["scale_pt"])
    et = isac.et_scenario(seed=seed, **p["scale_et"])
    problem = isac.EtProblem(et.target.c_aa, et.sigma_v_sq, et.n_t, et.n_r, et.block_len)
    tr_caa = float(np.trace(et.target.c_aa).real)

    def solve_pt(x0, iters):
        return isac.solve_x_pt(model, x0, rho=0.0, power=1.0, tol=0.0, max_iter=iters)

    def solve_et(x0, iters):
        return isac.solve_x_et(problem, x0, rho=0.0, power=1.0, tol=0.0, max_iter=iters)

    pt_dim = model.n_t * model.block_len
    et_dim = et.n_t * et.block_len
    pt_ops = [_mm_op("a", "PT", f"PT/x{i}", solve_pt, lambda f: -1.0 / f,
                     _full_power(rng, pt_dim), p["scale_pt_iters"])
              for i in range(p["scale_pt_calls"])]
    et_ops = [_mm_op("b", "ET", f"ET/x{i}", solve_et, lambda h: (tr_caa + h) / tr_caa,
                     _full_power(rng, et_dim), p["scale_et_iters"])
              for i in range(p["scale_et_calls"])]
    ops = _interleave(pt_ops, et_ops)

    def warmup():
        x = _full_power(_rng(seed, 6), pt_dim)
        isac.crb_pt(x, model.theta, model.sigma_alpha_sq, model.sigma_v_sq, model.n_r,
                    model.block_len)
        solve_et(_full_power(_rng(seed, 7), et_dim), 1)

    return Workload("scale_up", "mm_iters", ops, warmup)


BUILDERS = {"design": design, "mc_trials": mc_trials, "scale_up": scale_up}
