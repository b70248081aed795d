"""Benchmark runner: convergence traces, bound/MSE sweeps over SNR, the
SEP trade-off study, and a timing table, driven by a JSON config with
deterministic seeded outputs in CSV or JSON."""

import argparse
import csv
import json
import math
import numbers
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import crb_metrics
from .admm import AdmmConfig, admm_run
from .array_geometry import EtTarget, PtTarget, exponential_correlation
from .comm_sep import check_epsilon, qam_levels
from .crb_metrics import PtModel
from .estimators import run_trials
from .linalg import complex_normal
from .opt_et import EtProblem, solve_x_et
from .opt_pt import solve_x_pt
from .scenario import et_scenario, pt_scenario

SCHEMA_VERSION = 1
EXPERIMENT_KINDS = ("convergence", "pt_sweep", "et_sweep", "tradeoff", "timing")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    experiment: str = "convergence"
    target: str = "pt"  # pt | et
    n_t: int = 8
    n_r: int = 8
    n_users: int = 4
    block_len: int = 10
    qam_order: int = 16
    theta_deg: float = 30.0
    correlation: float = 0.5
    snr_comm_db: float = 30.0
    snr_db_list: list = field(default_factory=lambda: [0.0, 10.0, 20.0, 30.0])
    epsilon: float = 1e-2
    epsilon_list: list = field(default_factory=lambda: [1e-3, 1e-2, 1e-1])
    trials: int = 0
    seed: int = 0
    admm_overrides: dict = field(default_factory=dict)
    solver_max_iter: int = 150

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        data = dict(data)
        version = data.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version}")
        scenario = data.pop("scenario", {})
        if not isinstance(scenario, dict):
            raise ConfigError("scenario must be an object")
        merged = {**scenario, **data}
        cfg = cls()
        for key, value in merged.items():
            if not hasattr(cfg, key):
                raise ConfigError(f"unknown config field {key!r}")
            setattr(cfg, key, value)
        cfg.validate()
        return cfg

    def validate(self):
        for spec in fields(self):
            if not _has_type(getattr(self, spec.name), spec.type):
                raise ConfigError(f"{spec.name} must be of type {spec.type.__name__}, "
                                  f"got {getattr(self, spec.name)!r}")
        admm_types = {spec.name: spec.type for spec in fields(AdmmConfig)}
        for key, value in self.admm_overrides.items():
            if key not in admm_types or not _has_type(value, admm_types[key]):
                raise ConfigError(f"bad admm override {key!r}: {value!r}")
        if self.experiment not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.target not in ("pt", "et"):
            raise ConfigError("target must be 'pt' or 'et'")
        sweep_target = {"pt_sweep": "pt", "et_sweep": "et"}.get(self.experiment, self.target)
        if self.target != sweep_target:
            raise ConfigError(f"experiment {self.experiment!r} needs target "
                              f"{sweep_target!r}, got target {self.target!r}")
        for name in ("n_t", "n_r", "block_len", "qam_order"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.n_users < 0:
            raise ConfigError("n_users must be >= 0")
        if not self.snr_db_list:
            raise ConfigError("snr_db_list must be non-empty")
        if not self.epsilon_list:
            raise ConfigError("epsilon_list must be non-empty")
        if self.trials < 0:
            raise ConfigError("trials must be >= 0")
        # build what the run builds from each value, so that the library's own
        # checks reject a bad one before any run starts
        targets = ("pt", "et") if self.experiment == "timing" else (self.target,)
        try:
            qam_levels(self.qam_order)
            for epsilon in (self.epsilon, *self.epsilon_list):
                check_epsilon(epsilon)
            for target in targets:
                _admm_config(self, target.upper())
            if "pt" in targets:
                PtTarget(math.radians(self.theta_deg))
            if "et" in targets:
                EtTarget(exponential_correlation(self.n_r, self.correlation),
                         exponential_correlation(self.n_t, self.correlation))
        except ValueError as err:
            raise ConfigError(str(err)) from err


def _is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _has_type(value, kind):
    """JSON-level type check: bools are not numbers, ints pass as floats."""
    if kind is int:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if kind is float:
        return _is_real(value)
    if kind is list:
        return isinstance(value, (list, tuple)) and all(_is_real(v) for v in value)
    return isinstance(value, kind)


@dataclass
class ResultRow:
    experiment: str
    point: str
    metric: str
    value: float
    std_error: float = None
    seed: int = 0

    def to_record(self):
        return {
            "experiment": self.experiment,
            "point": self.point,
            "metric": self.metric,
            "value": _format_value(self.value),
            "std_error": "" if self.std_error is None else _format_value(self.std_error),
            "seed": str(self.seed),
        }


def _format_value(v):
    v = float(v)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if math.isnan(v):
        return "nan"
    return f"{v:.12g}"


FIELDS = ("experiment", "point", "metric", "value", "std_error", "seed")


def emit(table, fmt, path):
    """Write rows as RFC-4180 CSV or a JSON array; byte-stable per input."""
    if not table:
        raise ValueError("refusing to write an empty result table")
    records = [r.to_record() if isinstance(r, ResultRow) else r for r in table]
    try:
        if fmt == "csv":
            with open(path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=FIELDS, lineterminator="\r\n")
                writer.writeheader()
                writer.writerows(records)
        elif fmt == "json":
            with open(path, "w") as fh:
                json.dump(records, fh, indent=2)
                fh.write("\n")
        else:
            raise ValueError(f"unknown format {fmt!r}")
    except OSError as err:
        raise OSError(f"cannot write results to {path!r}: {err}") from err


def _scenario_for(cfg, snr_db, epsilon, seed):
    common = dict(
        n_t=cfg.n_t, n_r=cfg.n_r, n_users=cfg.n_users, block_len=cfg.block_len,
        qam_order=cfg.qam_order, snr_sensing_db=snr_db,
        snr_comm_db=cfg.snr_comm_db, epsilon=epsilon, seed=seed,
    )
    if cfg.target == "pt":
        return pt_scenario(theta=math.radians(cfg.theta_deg), **common)
    return et_scenario(correlation=cfg.correlation, **common)


def _admm_config(cfg, variant):
    return replace(AdmmConfig.for_variant(variant), **cfg.admm_overrides)


def _initial_waveform(dim, seed):
    x = complex_normal(np.random.default_rng(seed), dim)
    return x / np.linalg.norm(x)


def _pt_point(cfg, snr_db, seed):
    sc = _scenario_for(cfg, snr_db, cfg.epsilon, seed)
    model = PtModel(sc.target.theta, sc.target.sigma_alpha_sq, sc.sigma_v_sq,
                    sc.n_t, sc.n_r, sc.block_len)
    x0 = _initial_waveform(sc.n_t * sc.block_len, seed + 1)
    x, info = solve_x_pt(model, x0, rho=0.0, power=sc.power, tol=1e-9,
                         max_iter=cfg.solver_max_iter)
    point = f"snr={snr_db:g}"
    rows = [
        ResultRow("pt_sweep", point, "crb_onebit", info["bound"], seed=seed),
        ResultRow("pt_sweep", point, "crb_infinite", replace(model, quantized=False).bound(x),
                  seed=seed),
    ]
    if cfg.trials > 0:
        summary = run_trials(sc, x, cfg.trials, base_seed=seed + 10_000)
        rows.append(ResultRow("pt_sweep", point, "mle_mse", summary.mse,
                              std_error=summary.std_error, seed=seed))
    return rows


def _et_point(cfg, snr_db, seed):
    sc = _scenario_for(cfg, snr_db, cfg.epsilon, seed)
    x0 = _initial_waveform(sc.n_t * sc.block_len, seed + 1)
    trc = float(np.trace(sc.target.c_aa).real)
    point = f"snr={snr_db:g}"
    rows = []
    for tag, aware in (("mmcf", True), ("qu_mmcf", False)):
        prob = EtProblem(c_aa=sc.target.c_aa, sigma_v_sq=sc.sigma_v_sq, n_t=sc.n_t,
                         n_r=sc.n_r, block_len=sc.block_len, quantization_aware=aware)
        x, _ = solve_x_et(prob, x0, rho=0.0, power=sc.power, tol=1e-10,
                          max_iter=cfg.solver_max_iter)
        xm = sc.unvec_waveform(x)
        rows.append(ResultRow("et_sweep", point, f"crb_onebit_{tag}",
                              crb_metrics.crb_et(xm, sc.target.c_aa,
                                                 sc.sigma_v_sq) / trc,
                              seed=seed))
        if cfg.trials > 0:
            summary = run_trials(sc, xm, cfg.trials, base_seed=seed + 10_000)
            rows.append(ResultRow("et_sweep", point, f"blmmse_nmse_{tag}",
                                  summary.normalized_mse,
                                  std_error=summary.std_error / trc, seed=seed))
    return rows


def _convergence_rows(cfg, seed):
    variant = "PT" if cfg.target == "pt" else "ET"
    sc = _scenario_for(cfg, cfg.snr_db_list[-1], cfg.epsilon, seed)
    res = admm_run(sc, variant, config=_admm_config(cfg, variant), seed=seed)
    rows = []
    for i, (resid, obj, rho) in enumerate(
        zip(res.trace.residuals, res.trace.objectives, res.trace.rhos)
    ):
        point = f"iter={i}"
        rows.append(ResultRow("convergence", point, "residual", resid, seed=seed))
        rows.append(ResultRow("convergence", point, "objective", obj, seed=seed))
        rows.append(ResultRow("convergence", point, "rho", rho, seed=seed))
    return rows


def _tradeoff_point(cfg, epsilon, seed):
    sc = _scenario_for(cfg, cfg.snr_db_list[-1], epsilon, seed)
    if cfg.target == "pt":
        variants = ("PT", "PT_INF")
        def onebit(x):
            return crb_metrics.crb_pt(x, sc.target.theta,
                                      sc.target.sigma_alpha_sq, sc.sigma_v_sq,
                                      sc.n_r, sc.block_len)
    else:
        variants = ("ET", "ET_QU")
        trc = float(np.trace(sc.target.c_aa).real)
        def onebit(x):
            return crb_metrics.crb_et(sc.unvec_waveform(x), sc.target.c_aa,
                                      sc.sigma_v_sq) / trc
    rows = []
    for variant in variants:
        res = admm_run(sc, variant, config=_admm_config(cfg, variant), seed=seed)
        point = f"epsilon={epsilon:g}"
        rows.append(ResultRow("tradeoff", point, f"crb_onebit_{variant.lower()}",
                              onebit(res.x), seed=seed))
        rows.append(ResultRow("tradeoff", point, f"residual_{variant.lower()}",
                              res.trace.residuals[-1], seed=seed))
    return rows


def _timing_rows(cfg, seed):
    rows = []
    pt_cfg = dict(cfg.__dict__)
    for variant, target in (("PT", "pt"), ("PT_INF", "pt"), ("ET", "et"),
                            ("ET_QU", "et")):
        local = ExperimentConfig(**{**pt_cfg, "target": target})
        sc = _scenario_for(local, local.snr_db_list[-1], local.epsilon, seed)
        t0 = time.perf_counter()
        admm_run(sc, variant, config=_admm_config(local, variant), seed=seed)
        elapsed = time.perf_counter() - t0
        rows.append(ResultRow("timing", f"algo={variant}", "wall_time_s", elapsed,
                              seed=seed))
    return rows


def run_experiment(cfg):
    """Dispatch one experiment; returns (rows, summary string).

    Sweep points run in order, each with its own seed fixed in advance.
    """
    t0 = time.perf_counter()
    if cfg.experiment == "convergence":
        rows = _convergence_rows(cfg, cfg.seed)
    elif cfg.experiment == "pt_sweep":
        points = [(snr, cfg.seed + 100 * i) for i, snr in enumerate(cfg.snr_db_list)]
        rows = [r for snr, s in points for r in _pt_point(cfg, snr, s)]
    elif cfg.experiment == "et_sweep":
        points = [(snr, cfg.seed + 100 * i) for i, snr in enumerate(cfg.snr_db_list)]
        rows = [r for snr, s in points for r in _et_point(cfg, snr, s)]
    elif cfg.experiment == "tradeoff":
        points = [(eps, cfg.seed + 100 * i) for i, eps in enumerate(cfg.epsilon_list)]
        rows = [r for eps, s in points for r in _tradeoff_point(cfg, eps, s)]
    elif cfg.experiment == "timing":
        rows = _timing_rows(cfg, cfg.seed)
    else:  # pragma: no cover - validate() already rejects
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    elapsed = time.perf_counter() - t0
    summary = (f"{cfg.experiment}: {len(rows)} rows in {elapsed:.2f} s "
               f"(seed {cfg.seed})")
    return rows, summary


def build_parser():
    parser = argparse.ArgumentParser(
        prog="isac-bench",
        description="One-bit MIMO ISAC benchmark experiments",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--experiment", choices=EXPERIMENT_KINDS)
    parser.add_argument("--out", default="results.csv", help="output path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials", type=int)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        data = {}
        if args.config:
            with open(args.config) as fh:
                data = json.load(fh)
        cfg = ExperimentConfig.from_dict(data)
        if args.experiment:
            cfg.experiment = args.experiment
        if args.seed is not None:
            cfg.seed = args.seed
        if args.trials is not None:
            cfg.trials = args.trials
        cfg.validate()
    except (ConfigError, OSError, json.JSONDecodeError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    try:
        rows, summary = run_experiment(cfg)
        emit(rows, args.format, args.out)
    except Exception as err:  # runtime abort
        print(f"run aborted: {err}", file=sys.stderr)
        return 3
    print(summary)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
