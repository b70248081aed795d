"""Which package functions the traced run instruments, the counters that
ride on them, and the per-layer metrics computed from the spans."""

import numpy as np

# (module, qualified name) of every traced public function, in report order.
TRACED = (
    ("admm", "admm_run"),
    ("opt_pt", "solve_x_pt"),
    ("opt_pt", "build_anchor"),
    ("opt_pt", "surrogate_value"),
    ("opt_pt", "surrogate_gradient"),
    ("opt_pt", "pgd_step"),
    ("crb_metrics", "PtModel.workspace"),
    ("crb_metrics", "crb_pt"),
    ("crb_metrics", "crb_pt_infinite_resolution"),
    ("crb_metrics", "crb_et"),
    ("crb_metrics", "mse_et_quantization_unaware"),
    ("opt_et", "solve_x_et"),
    ("opt_et", "build_mbar"),
    ("opt_et", "EtProblem.objective"),
    ("linalg", "hermitian_factor"),
    ("linalg", "hermitian_solve"),
    ("linalg", "power_iteration"),
    ("sep_projection", "solve_block"),
    ("sep_projection", "solve_user_qp"),
    ("comm_sep", "build_sep_spec"),
    ("estimators", "MleGrid.__init__"),
    ("estimators", "MleGrid.estimate"),
    ("estimators", "blmmse_matrix"),
    ("estimators", "run_trials"),
    ("quantization", "covariance_czz_exact"),
    ("array_geometry", "pt_response_operator"),
    ("scenario", "pt_scenario"),
    ("scenario", "et_scenario"),
)

MODULES = tuple(dict.fromkeys(module for module, _ in TRACED))

COUNTERS = (
    "admm.outer_iters",
    "opt_pt.inner_iters",
    "opt_pt.stalls",
    "opt_et.inner_iters",
    "linalg.hermitian_factor.max_dim",
    "linalg.hermitian_factor.gflop_computed",
    "linalg.power_iteration.matvecs",
    "linalg.power_iteration.not_converged",
    "sep_projection.intervals",
    "estimators.failed_trials",
)


def span_name(module, qualname):
    """Metric prefix of a traced function; the constructor reads as the class."""
    return f"{module}.{qualname.removesuffix('.__init__')}"


def _after_admm(tr, args, kwargs, result):
    tr.counters["admm.outer_iters"] += result.n_outer


def _after_solve_x_pt(tr, args, kwargs, out):
    tr.counters["opt_pt.inner_iters"] += out[1]["n_iter"]
    tr.counters["opt_pt.stalls"] += bool(out[1]["stalled"])


def _after_pgd_step(tr, args, kwargs, out):
    # pgd_step returns step size 0 when the line search gave up or the
    # gradient vanished; any positive step is an accepted one
    tr.counters["opt_pt.accepted_steps"] += out[1] > 0.0


def _after_solve_x_et(tr, args, kwargs, out):
    tr.counters["opt_et.inner_iters"] += out[1]["n_iter"]


def _after_factor(tr, args, kwargs, out):
    n = np.shape(args[0] if args else kwargs["a"])[0]
    key = "linalg.hermitian_factor.max_dim"
    tr.counters[key] = max(tr.counters[key], n)
    # complex Cholesky: n^3/3 complex multiply-adds, 8 real flops each
    tr.counters["linalg.hermitian_factor.gflop_computed"] += 8.0 * n**3 / 3.0 / 1e9


def _before_power_iteration(tr, args, kwargs):
    matvec = args[0] if args else kwargs.pop("matvec")

    def counted(v):
        tr.counters["linalg.power_iteration.matvecs"] += 1
        return matvec(v)

    return (counted,) + tuple(args[1:]), kwargs


def _after_power_iteration(tr, args, kwargs, out):
    tr.counters["linalg.power_iteration.not_converged"] += not out[2]


def _after_boundary_points(tr, args, kwargs, out):
    tr.counters["sep_projection.intervals"] += len(out) - 1


def _after_run_trials(tr, args, kwargs, summary):
    tr.counters["estimators.failed_trials"] += summary.n_failed


_HOOKS = {
    "admm_run": (None, _after_admm),
    "solve_x_pt": (None, _after_solve_x_pt),
    "pgd_step": (None, _after_pgd_step),
    "solve_x_et": (None, _after_solve_x_et),
    "hermitian_factor": (None, _after_factor),
    "power_iteration": (_before_power_iteration, _after_power_iteration),
    "run_trials": (None, _after_run_trials),
}


def targets():
    """Install list for :meth:`tracer.Tracer.install`."""
    out = []
    for module, qualname in TRACED:
        before, after = _HOOKS.get(qualname, (None, None))
        out.append((span_name(module, qualname), module, qualname, before, after, True))
    # counter only: boundary_points is the interval scan inside solve_user_qp
    out.append(("sep_projection.boundary_points", "sep_projection", "boundary_points",
                None, _after_boundary_points, False))
    return out


def per_layer_metrics(tracer, traced_wall_s):
    """Every per-layer metric (zero where a layer did no work), as
    ``{name: (value, unit)}``."""
    times = tracer.layer_times()
    metrics = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for module, qualname in TRACED:
        name = span_name(module, qualname)
        calls, busy, self_s = times[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.busy_s"] = (busy, "s")
        metrics[f"{name}.self_s"] = (self_s, "s")
        module_self[module] += self_s
    for key in COUNTERS:
        unit = "Gflop" if key.endswith("gflop_computed") else "count"
        metrics[key] = (float(tracer.counters[key]), unit)
    value_calls = times["opt_pt.surrogate_value"][0]
    accepted = tracer.counters["opt_pt.accepted_steps"]
    metrics["opt_pt.ls_accept_ratio"] = (accepted / value_calls if value_calls else 0.0, "1")
    for module, self_s in module_self.items():
        metrics[f"{module}.self_share"] = (self_s / traced_wall_s, "1")
    return metrics


# "better" direction of each per-layer metric, for BENCHMARK.json
def per_layer_catalogue():
    rows = []
    for module, qualname in TRACED:
        name = span_name(module, qualname)
        rows += [(f"{name}.calls", "count", "lower"), (f"{name}.busy_s", "s", "lower"),
                 (f"{name}.self_s", "s", "lower")]
    for key in COUNTERS:
        unit = "Gflop" if key.endswith("gflop_computed") else "count"
        rows.append((key, unit, "lower"))
    rows.append(("opt_pt.ls_accept_ratio", "1", "higher"))
    rows += [(f"{module}.self_share", "1", "lower") for module in MODULES]
    rows += [("trace.overhead_s", "s", "lower"), ("trace.spans", "count", "lower")]
    return rows
