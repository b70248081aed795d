"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run

run.import_package()

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _bindings():
    """Every attribute of every package module and package class, by identity."""
    out = {}
    for mod in tracer.package_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith(tracer.PACKAGE):
                for attr, member in vars(value).items():
                    out[(mod.__name__, key, attr)] = member
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_and_passes_its_gate(name):
    workload, setup_s, _ = run.setup(name, 0, "tiny")
    tally = run.Tally()
    calls, _ = run.untraced_run(workload, 0.0, tally)
    assert calls == len(workload.ops)
    assert tally.attempted >= len(workload.ops)
    assert tally.failed == 0 and not tally.problems
    for metric, (value, _) in run.end_to_end(workload, tally, setup_s).items():
        assert math.isfinite(value) and value > 0.0, metric


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tracer_restores_bindings_and_keeps_outputs(name):
    workload, _, _ = run.setup(name, 1, "tiny")
    before = _bindings()
    tally = run.Tally()
    metrics, trace, problems, _ = run.traced_run(name, 1, workload, tally, "tiny")
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert tracer.stray_wrappers() == []
    # traced_run compares the digests of the traced and untraced passes
    assert problems == [] and tally.failed == 0 and not tally.problems
    # each workload reaches only the layers it was designed for
    calls = {k.removesuffix(".calls"): v for k, (v, _) in metrics.items() if k.endswith(".calls")}
    assert calls["admm.admm_run"] == (len(workload.ops) if name == "design" else 0)
    assert (calls["opt_pt.solve_x_pt"] > 0) == (name in ("design", "scale_up"))
    assert (calls["opt_et.solve_x_et"] > 0) == (name in ("design", "scale_up"))
    assert (calls["estimators.run_trials"] > 0) == (name == "mc_trials")
    assert len(trace.spans) == metrics["trace.spans"][0] > 0


def test_traced_outputs_bit_identical():
    workload, _, _ = run.setup("design", 2, "tiny")
    plain = run.Tally()
    run.check_pass(run.call_pass(workload), plain)
    with tracer.Tracer() as tr:
        tr.install(layers.targets())
        traced_rows = run.call_pass(workloads.design(2, "tiny"))
    traced = run.Tally()
    run.check_pass(traced_rows, traced)
    assert plain.digests == traced.digests
    assert tr.counters["admm.outer_iters"] > 0


def test_span_self_time_excludes_children():
    tr = tracer.Tracer()
    tr.names = ["outer", "inner"]
    tr.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 3.0, 0], ["inner", 4.0, 8.0, 0]]
    times = tr.layer_times()
    assert times["outer"] == [1, 10.0, 4.0]
    assert times["inner"] == [2, 6.0, 6.0]


def test_benchmark_json_matches_emitted_metrics():
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == [r[0] for r in layers.per_layer_catalogue()]
    workload, setup_s, _ = run.setup("scale_up", 0, "tiny")
    tally = run.Tally()
    run.untraced_run(workload, 0.0, tally)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.end_to_end(workload, tally, setup_s))
    metrics, _, _, _ = run.traced_run("scale_up", 0, workload, run.Tally(), "tiny")
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
