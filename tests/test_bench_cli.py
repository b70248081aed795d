import csv
import json
import math
import time
from pathlib import Path

import pytest

from onebit_isac.bench_cli import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    emit,
    main,
    run_experiment,
)


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
], ids=["c_rho", "rho0", "epsilon", "epsilon_list", "qam_order", "theta_deg", "correlation",
        "timing_correlation", "tradeoff_max_outer", "correlation_nan"])
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
