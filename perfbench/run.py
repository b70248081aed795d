#!/usr/bin/env python3
"""Benchmark of the onebit_isac package, run from the root of a checkout:

    python3 perfbench/run.py --workload design --seed 0 --seconds 50 --trace 0

One caller drives the package's public API in a closed loop: each call starts
when the previous one returns. Inputs come from ``--seed`` and are generated
before timing starts. A run makes one whole pass over the workload's pool of
operations and then keeps cycling through it for ``--seconds`` in all, checks
every output, and prints its metrics; the last line of standard output is one
JSON object.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` makes one
untraced and one traced pass over the same inputs and reports per-layer
metrics, with the tracing overhead as traced minus untraced wall time.
``--workload all`` runs every workload in turn. See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 3
HELD_OUT_SEED = 7919  # reserved for confirming a claim; do not tune against it
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import onebit_isac; print(time.perf_counter() - t)")


def _die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import onebit_isac from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "onebit_isac", "__init__.py")):
        _die(f"no package source under {SRC}; run from the root of a full checkout")
    sys.path.insert(0, SRC)
    import onebit_isac

    if not os.path.abspath(onebit_isac.__file__).startswith(SRC + os.sep):
        _die(f"onebit_isac imported from {onebit_isac.__file__}, not from {SRC}")


def import_seconds():
    """Import time of the package in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.split()[-1])


# -- measuring -----------------------------------------------------------------

class Tally:
    """Outcomes of every operation in a run, by kind."""

    def __init__(self):
        self.case_seconds = defaultdict(list)
        self.case_work = {}
        self.error = {}  # key -> error figure of the first output (designs: bound)
        self.kind_of = {}
        self.label_of = {}
        self.converged = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}

    def add(self, op, seconds, outcome):
        first = self.digests.setdefault(op.key, outcome.digest)
        if first != outcome.digest:
            outcome.problems.append("output differs from an earlier call on the same input")
            outcome.failed = max(outcome.failed, 1)
        self.case_seconds[op.key].append(seconds)
        self.case_work.setdefault(op.key, outcome.work)
        self.error.setdefault(op.key, outcome.quality)
        self.kind_of[op.key] = op.kind
        self.label_of[op.key] = op.label
        if outcome.converged is not None:
            self.converged.append(outcome.converged)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += [f"{op.key}: {p}" for p in outcome.problems]

    def cases(self, kind=None, label=None):
        return [k for k in self.kind_of
                if kind in (None, self.kind_of[k]) and label in (None, self.label_of[k])]

    def rate(self, keys):
        """Work per second: the work of the cases over the sum of their mean
        call times. The host's speed wanders by tens of percent over tens of
        seconds; the mean over a whole run averages that out, and taking it
        per case keeps the figure independent of where the run stopped."""
        return (sum(self.case_work[k] for k in keys)
                / sum(statistics.fmean(self.case_seconds[k]) for k in keys))

    def combined_digest(self):
        text = ";".join(f"{k}={v}" for k, v in sorted(self.digests.items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def call_op(op):
    t0 = time.perf_counter()
    try:
        out, err = op.call(), None
    except Exception:  # a failing call is a failed operation, not a crash
        out, err = None, traceback.format_exc(limit=4)
    return op, time.perf_counter() - t0, out, err


def call_pass(workload):
    """Call every operation of the pool once; outputs are checked later."""
    return [call_op(op) for op in workload.ops]


def check_pass(rows, tally):
    from workloads import Outcome

    for op, seconds, out, err in rows:
        if err is None:
            outcome = op.check(out)
        else:
            outcome = Outcome(0, 1, 1, math.nan, "error", problems=[err.strip()])
        tally.add(op, seconds, outcome)


def setup(name, seed, size="full"):
    """Import, input generation and warm-up, done SETUP_REPS times; the
    median total is the set-up time and the last inputs are used."""
    import workloads

    totals, parts = [], []
    for _ in range(SETUP_REPS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        workload = workloads.BUILDERS[name](seed, size)
        t1 = time.perf_counter()
        workload.warmup()
        t2 = time.perf_counter()
        totals.append(t_import + (t2 - t0))
        parts.append({"import_s": t_import, "inputs_s": t1 - t0, "warmup_s": t2 - t1})
    return workload, statistics.median(totals), parts


def span_cost_us(n=20000):
    """Added cost of one traced call of an empty function, in microseconds."""
    from tracer import Tracer

    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / n * 1e6


def untraced_run(workload, seconds, tally):
    """One whole pass, so every case has a call, then calls in pool order
    until the next one would be expected to end after ``seconds``. Returns
    the number of calls and the measured wall time."""
    start = time.perf_counter()
    check_pass(call_pass(workload), tally)
    calls = len(workload.ops)
    while True:
        op = workload.ops[calls % len(workload.ops)]
        expected = statistics.fmean(tally.case_seconds[op.key])
        if time.perf_counter() - start + expected > seconds:
            return calls, time.perf_counter() - start
        check_pass([call_op(op)], tally)
        calls += 1


def traced_run(name, seed, workload, tally, size="full"):
    """One untraced pass, then input generation and one pass under the tracer."""
    import layers
    import workloads
    from tracer import Tracer, stray_wrappers

    t0 = time.perf_counter()
    plain = call_pass(workload)
    untraced_s = time.perf_counter() - t0
    with Tracer() as tracer:
        tracer.install(layers.targets())
        t1 = time.perf_counter()
        traced_workload = workloads.BUILDERS[name](seed, size)
        t2 = time.perf_counter()
        traced = call_pass(traced_workload)
        t3 = time.perf_counter()
    stray = stray_wrappers()
    check_pass(plain, tally)
    untraced_digests = dict(tally.digests)
    tally.digests.clear()  # traced pass ops are new objects with the same keys
    check_pass(traced, tally)
    problems = [f"binding not restored: {s}" for s in stray]
    if tally.digests != untraced_digests:
        problems.append("traced outputs differ from untraced outputs")
    metrics = layers.per_layer_metrics(tracer, t3 - t1)
    metrics["trace.overhead_s"] = ((t3 - t2) - untraced_s, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    timing = {"untraced_pass_s": untraced_s, "traced_pass_s": t3 - t2,
              "traced_inputs_s": t2 - t1}
    return metrics, tracer, problems, timing


# -- reporting -----------------------------------------------------------------

def end_to_end(workload, tally, setup_s):
    metrics = {"setup_s": (setup_s, "s")}
    for kind in ("a", "b"):
        metrics[f"{kind}_ops_per_s"] = (tally.rate(tally.cases(kind)), "1/s")
    return metrics


def named_view(workload, tally):
    """The metrics under their per-variant names, e.g. designs_per_s.PT."""
    rows = []
    error_name = {"designs": "bound", "trials": "mse_over_bound",
                  "mm_iters": "bound_after_budget"}[workload.unit]
    for kind in ("a", "b"):
        keys = tally.cases(kind)
        calls = sum(len(tally.case_seconds[k]) for k in keys)
        rows.append((f"{kind}_ops_per_s", tally.rate(keys), "1/s",
                     f"gated; {len(keys)} cases, {calls} calls"))
    for label in dict.fromkeys(tally.label_of.values()):
        keys = tally.cases(label=label)
        work = sum(tally.case_work[k] for k in keys)
        calls = sum(len(tally.case_seconds[k]) for k in keys)
        rows.append((f"{workload.unit}_per_s.{label}", tally.rate(keys), "1/s",
                     f"in {tally.kind_of[keys[0]]}_ops_per_s; {len(keys)} cases doing "
                     f"{work:g} {workload.unit} a pass, {calls} calls"))
        err = statistics.fmean(tally.error[k] for k in keys)
        rows.append((f"{error_name}.{label}", err, "1", "not gated"))
        if workload.unit == "designs":
            rows.append((f"bound_db.{label}", 10.0 * math.log10(err), "dB", "not gated"))
    if tally.converged:
        rows.append(("converged_frac", sum(tally.converged) / len(tally.converged), "1",
                     f"not gated; {sum(tally.converged)} of {len(tally.converged)} designs"))
    rows.append(("failed_frac", tally.failed / max(tally.attempted, 1), "1",
                 f"not gated; {tally.failed} of {tally.attempted} operations"))
    return rows


def write_json(path, payload):
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, default=float)


def run_workload(name, seed, seconds, trace):
    import runinfo

    workload, setup_s, setup_parts = setup(name, seed)
    tally = Tally()
    record = runinfo.run_record(seed)
    record.update(workload=name, trace=trace, seconds=seconds, setup_parts=setup_parts,
                  held_out_seed=HELD_OUT_SEED, tracing_overhead={"span_cost_us": span_cost_us()})
    problems = []
    if trace:
        metrics, tracer, problems, timing = traced_run(name, seed, workload, tally)
        record["tracing_overhead"].update(timing, traced_minus_untraced_s=metrics["trace.overhead_s"][0])
        write_json(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json"),
                   {"workload": name, "seed": seed, "columns": ["name", "start", "end", "parent"],
                    "spans": tracer.spans})
        record["calls"] = len(workload.ops)
    else:
        steal0 = runinfo.steal_seconds()
        calls, wall = untraced_run(workload, seconds, tally)
        metrics = end_to_end(workload, tally, setup_s)
        record.update(calls=calls, measured_s=wall,
                      machine_steal_s=runinfo.steal_seconds() - steal0)
        print(f"perfbench {name} seed={seed}: {calls} calls over a pool of "
              f"{len(workload.ops)}, {wall:.1f} s measured, setup {setup_s:.3f} s")
        for metric, value, unit, note in named_view(workload, tally):
            print(f"  {metric:<28} {value:>14.6g} {unit:<4} ({note})")
    problems = tally.problems + problems
    record.update(attempted=tally.attempted, failed=tally.failed,
                  failed_frac=tally.failed / max(tally.attempted, 1),
                  digest=tally.combined_digest(), digests=tally.digests, problems=problems,
                  call_seconds=dict(tally.case_seconds))
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    write_json(os.path.join(OUT_DIR, f"run-{name}-seed{seed}-trace{trace}.json"),
               {"record": record, "result": result})
    for p in problems:
        print(f"  problem: {p}")
    print(json.dumps({"run_record": record}, default=float))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    import_package()
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    unknown = [n for n in names if n not in workloads.BUILDERS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))


if __name__ == "__main__":
    main()
