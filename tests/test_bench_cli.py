import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from onebit_isac import bench_cli
from onebit_isac.bench_cli import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    emit,
    main,
    run_experiment,
)
from onebit_isac.crb_metrics import crb_et, crb_pt


def parse_results(path):
    """Read back an emitted file as a list of record dicts."""
    with open(path) as fh:
        if path.endswith(".json"):
            return json.load(fh)
        return list(csv.DictReader(fh))


def tiny_cfg(**kw):
    base = dict(
        experiment="convergence", target="pt", n_t=4, n_r=4, n_users=2,
        block_len=4, snr_db_list=[20.0], epsilon=1e-2, seed=0,
        admm_overrides={"max_outer": 6, "max_inner": 5},
        solver_max_iter=30,
    )
    base.update(kw)
    return ExperimentConfig.from_dict(base)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "bogus"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"unknown_field": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"snr_db_list": []})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"schema_version": 99})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"n_t": 0})


def test_config_rejects_sweep_target_mismatch(tmp_path, capsys):
    for experiment, target in (("et_sweep", "pt"), ("pt_sweep", "et")):
        with pytest.raises(ConfigError, match=f"experiment '{experiment}' needs target"):
            ExperimentConfig.from_dict({"experiment": experiment, "target": target})
    et_cfg = tmp_path / "et.json"
    et_cfg.write_text(json.dumps({"target": "et"}))
    out = str(tmp_path / "res.csv")
    assert main(["--experiment", "et_sweep", "--out", out]) == 2
    assert main(["--config", str(et_cfg), "--experiment", "pt_sweep", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "experiment 'et_sweep' needs target 'et', got target 'pt'" in err
    assert "experiment 'pt_sweep' needs target 'pt', got target 'et'" in err


def test_cli_overrides_join_the_config_before_its_one_validation(tmp_path, monkeypatch, capsys):
    # a file config that is valid only with the command line's experiment is
    # accepted, and a run validates (and builds its check scenarios) once
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiment": "pt_sweep", "target": "et"}))
    validate = ExperimentConfig.validate
    validated, ran = [], []

    def counted(self):
        validated.append(self.experiment)
        return validate(self)

    monkeypatch.setattr(ExperimentConfig, "validate", counted)
    monkeypatch.setattr(bench_cli, "run_experiment", lambda cfg: (ran.append(cfg) or [], "done"))
    monkeypatch.setattr(bench_cli, "emit", lambda *args: None)
    out = str(tmp_path / "res.csv")
    assert main(["--config", str(config), "--experiment", "et_sweep", "--seed", "3",
                 "--trials", "5", "--out", out]) == 0
    assert validated == ["et_sweep"]
    assert [(c.experiment, c.target, c.seed, c.trials) for c in ran] == [("et_sweep", "et", 3, 5)]
    # the file alone, and a file that is not an object, are still refused
    assert main(["--config", str(config), "--out", out]) == 2
    config.write_text("[]")
    assert main(["--config", str(config), "--seed", "1", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "experiment 'pt_sweep' needs target 'pt'" in err
    assert "config must be a JSON object" in err


@pytest.mark.parametrize("field, value", [
    ("n_t", "8"), ("n_t", True), ("n_t", 8.0), ("seed", None), ("trials", 1.5),
    ("snr_db_list", "0,10"), ("snr_db_list", [0.0, "10"]), ("snr_db_list", [True]),
    ("epsilon", "0.01"), ("theta_deg", False), ("experiment", 3),
    ("admm_overrides", [("max_outer", 5)]), ("admm_overrides", {"max_outer": "5"}),
    ("admm_overrides", {"rho0": True}), ("admm_overrides", {"bogus": 1}),
])
def test_config_rejects_wrong_types(field, value):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({field: value})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"scenario": {field: value}})


SMALL = {"n_t": 4, "n_r": 4, "n_users": 2, "block_len": 4, "snr_db_list": [20.0],
         "admm_overrides": {"max_outer": 2, "max_inner": 2}}


@pytest.mark.parametrize("bad, message", [
    ({"admm_overrides": {"c_rho": 0.5, "max_outer": 3}}, "c_rho > 1"),
    ({"admm_overrides": {"rho0": -1.0, "max_outer": 2}}, "rho0 > 0"),
    ({"epsilon": 2.0}, "epsilon must lie in"),
    ({"experiment": "tradeoff", "epsilon_list": [0.5, 1.5]}, "epsilon must lie in"),
    ({"qam_order": 8}, "QAM order"),
    ({"theta_deg": 120.0}, "outside"),
    ({"target": "et", "correlation": 1.5}, "not PSD"),
    ({"experiment": "timing", "correlation": 1.5}, "not PSD"),
    ({"experiment": "tradeoff", "admm_overrides": {"max_outer": 0}}, "max_outer must be"),
    ({"experiment": "et_sweep", "target": "et", "correlation": math.nan}, "non-finite"),
    # json writes these as -Infinity, Infinity and NaN, which json.load reads
    # back; they used to pass validation, and -Infinity then aborted the run
    # with ZeroDivisionError (exit 3)
    ({"snr_db_list": [20.0, -math.inf]}, "snr_sensing_db must be finite"),
    ({"snr_db_list": [math.inf]}, "snr_sensing_db must be finite"),
    ({"experiment": "timing", "snr_comm_db": math.nan}, "snr_comm_db must be finite"),
    ({"experiment": "tradeoff", "snr_db_list": [1e6]}, "snr_sensing_db must be finite"),
    # a negative seed used to abort the run with numpy's "expected non-negative integer"
    ({"seed": -1}, "seed must be >= 0"),
], ids=["c_rho", "rho0", "epsilon", "epsilon_list", "qam_order", "theta_deg", "correlation",
        "timing_correlation", "tradeoff_max_outer", "correlation_nan", "snr_minus_inf",
        "snr_inf", "snr_comm_nan", "snr_overflow", "seed"])
def test_config_rejects_out_of_range_values(tmp_path, capsys, bad, message):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**SMALL, **bad}))
    out = tmp_path / "res.csv"
    assert main(["--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


def test_config_accepts_ints_for_floats():
    cfg = ExperimentConfig.from_dict({"theta_deg": 30, "snr_db_list": [0, 10.5]})
    assert cfg.theta_deg == 30 and cfg.snr_db_list == [0, 10.5]


def test_timing_rows_are_wall_time():
    rows, _ = run_experiment(tiny_cfg(experiment="timing", snr_db_list=[20.0],
                                      admm_overrides={"max_outer": 2, "max_inner": 2}))
    assert [r.metric for r in rows] == ["wall_time_s"] * 4
    assert [r.point for r in rows] == ["algo=PT", "algo=PT_INF", "algo=ET", "algo=ET_QU"]
    assert all(r.value > 0.0 for r in rows)


def test_config_scenario_nesting():
    cfg = ExperimentConfig.from_dict(
        {"experiment": "pt_sweep", "scenario": {"n_t": 5, "theta_deg": 10.0}}
    )
    assert cfg.n_t == 5
    assert cfg.theta_deg == 10.0


def test_emit_rejects_empty_table(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError):
        emit([], "csv", str(path))
    assert not path.exists()


def test_emit_roundtrip_csv_and_json(tmp_path):
    rows = [
        ResultRow("demo", 'point="a,b"', "metric", 1.23456789012345, 0.5, 7),
        ResultRow("demo", "p2", "inf_metric", float("inf"), None, 7),
    ]
    for fmt, name in (("csv", "out.csv"), ("json", "out.json")):
        path = str(tmp_path / name)
        emit(rows, fmt, path)
        records = parse_results(path)
        assert records == [r.to_record() for r in rows]
        # emitting the parsed records again is byte-identical
        path2 = str(tmp_path / ("again_" + name))
        emit(records, fmt, path2)
        assert Path(path).read_bytes() == Path(path2).read_bytes()


def test_emit_csv_is_rfc4180_quoted(tmp_path):
    rows = [ResultRow("demo", 'x="1,2"', "m", 1.0, None, 0)]
    path = str(tmp_path / "quoted.csv")
    emit(rows, "csv", path)
    raw = Path(path).read_bytes()
    assert b"\r\n" in raw
    assert b'"x=""1,2"""' in raw


def test_convergence_experiment_runs_and_converges():
    cfg = tiny_cfg(admm_overrides={})
    rows, summary = run_experiment(cfg)
    residuals = [float(r.value) for r in rows if r.metric == "residual"]
    assert residuals[-1] < 1e-4
    assert "convergence" in summary


def test_pt_sweep_monotone_bounds():
    cfg = tiny_cfg(experiment="pt_sweep", snr_db_list=[0.0, 10.0, 20.0], trials=0)
    rows, _ = run_experiment(cfg)
    onebit = [float(r.value) for r in rows if r.metric == "crb_onebit"]
    assert len(onebit) == 3
    assert onebit[0] > onebit[1] > onebit[2]


def test_et_sweep_rows():
    cfg = tiny_cfg(experiment="et_sweep", target="et", n_t=2, n_r=2,
                   block_len=4, n_users=1, snr_db_list=[10.0, 20.0], trials=5,
                   solver_max_iter=40)
    rows, _ = run_experiment(cfg)
    metrics = {r.metric for r in rows}
    assert {"crb_onebit_mmcf", "crb_onebit_qu_mmcf",
            "blmmse_nmse_mmcf", "blmmse_nmse_qu_mmcf"} <= metrics


def test_deterministic_output_bytes(tmp_path):
    cfg_dict = {
        "experiment": "convergence", "target": "pt", "n_t": 4, "n_r": 4,
        "n_users": 2, "block_len": 4, "snr_db_list": [20.0], "seed": 3,
        "admm_overrides": {"max_outer": 5, "max_inner": 4},
    }
    paths = []
    for i in range(2):
        path = str(tmp_path / f"run{i}.csv")
        rows, _ = run_experiment(ExperimentConfig.from_dict(cfg_dict))
        emit(rows, "csv", path)
        paths.append(path)
    assert Path(paths[0]).read_bytes() == Path(paths[1]).read_bytes()


def test_tradeoff_experiment_rows():
    cfg = tiny_cfg(experiment="tradeoff", epsilon_list=[1e-2, 1e-1],
                   snr_db_list=[20.0],
                   admm_overrides={"max_outer": 8, "max_inner": 5})
    rows, _ = run_experiment(cfg)
    metrics = [r.metric for r in rows]
    assert metrics.count("crb_onebit_pt") == 2
    assert metrics.count("crb_onebit_pt_inf") == 2


@pytest.mark.parametrize("target", ["pt", "et"])
def test_tradeoff_scores_every_design_by_the_one_bit_bound(monkeypatch, target):
    runs, admm_run = [], bench_cli.admm_run

    def recorded(sc, variant, **kwargs):
        runs.append((sc, variant, admm_run(sc, variant, **kwargs)))
        return runs[-1][2]

    monkeypatch.setattr(bench_cli, "admm_run", recorded)
    cfg = tiny_cfg(experiment="tradeoff", target=target, epsilon_list=[1e-2, 1e-1],
                   admm_overrides={"max_outer": 4, "max_inner": 4})
    rows, _ = run_experiment(cfg)
    values = {(r.point, r.metric): r.value for r in rows}
    variants = ["PT", "PT_INF"] if target == "pt" else ["ET", "ET_QU"]
    assert [variant for _, variant, _ in runs] == variants * 2
    for sc, variant, res in runs:
        if target == "pt":
            want = crb_pt(res.x, sc.target.theta, sc.target.sigma_alpha_sq, sc.sigma_v_sq,
                          sc.n_r, sc.block_len)
        else:
            want = (crb_et(sc.unvec_waveform(res.x), sc.target.c_aa, sc.sigma_v_sq)
                    / float(np.trace(sc.target.c_aa).real))
        # the baseline's design too is scored by the one-bit bound, not its own
        assert values[f"epsilon={sc.epsilon:g}", f"crb_onebit_{variant.lower()}"] == want


def test_every_experiment_smoke_under_60s(tmp_path):
    start = time.time()
    for kind in ("convergence", "pt_sweep", "et_sweep", "tradeoff", "timing"):
        target = "et" if kind == "et_sweep" else "pt"
        cfg = tiny_cfg(experiment=kind, target=target, n_t=4, n_r=4,
                       n_users=2, block_len=4, snr_db_list=[20.0],
                       epsilon_list=[1e-2], trials=0,
                       admm_overrides={"max_outer": 4, "max_inner": 4},
                       solver_max_iter=10)
        t0 = time.time()
        rows, _ = run_experiment(cfg)
        assert rows
        assert time.time() - t0 < 60.0
    assert time.time() - start < 120.0


def test_cli_exit_codes(tmp_path, monkeypatch):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text("{not json")
    assert main(["--config", str(bad_cfg)]) == 2
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "experiment": "convergence", "scenario": {"n_t": 4, "n_r": 4,
        "n_users": 2, "block_len": 4}, "snr_db_list": [20.0],
        "admm_overrides": {"max_outer": 3, "max_inner": 3},
    }))
    out = tmp_path / "res.csv"
    assert main(["--config", str(good), "--out", str(out)]) == 0
    assert out.exists()
    # unwritable output path aborts at runtime
    assert main(["--config", str(good), "--out", "/nonexistent/dir/res.csv"]) == 3
