#!/usr/bin/env python3
"""Epoch-loop benchmark of the autotier simulator.

Run from the repository root:

    python3 perfbench/run.py --workload at-steady --seed 1 --seconds 20 --trace 0

One invocation generates one workload from ``--seed``, passes the document
text to ``autotier.parse_scenario``, and runs ``run_scenario`` followed by
``write_run_artifacts`` back to back for at least ``--seconds`` seconds,
checking every run's outputs. With ``--trace 0`` it reports the end-to-end
metrics, with host times normalized by a reference kernel timed during
each run (see reference.py); with ``--trace 1`` it alternates untraced and
traced runs and reports per-layer metrics from spans recorded around the
program's own functions (see tracing.py). Lines before the last one are JSON records for
people (machine, workload shape, sample statistics, artifact digests); the
last line is the result object. See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from checks import artifact_digests, check_run
from reference import NOMINAL_S, SpeedProbe, reference_seconds
from tracing import Layer, Tracer, totals, write_spans
from workloads import BASE_SCENARIO, WORKLOADS, Workload, describe, generate

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_ROOT = HERE / ".out"

MIN_SAMPLES = 3  # a median needs three; at-steady takes ~12 s per sample
# Set-up has no callback to probe host speed from, so it is timed in batches
# of repetitions lasting at least SETUP_BATCH_S with the reference kernel
# timed between batches; the median batch is reported.
SETUP_BATCHES = 7
SETUP_BATCH_S = 0.05
MAX_FAILED_RUNS = 6  # stop measuring a workload that keeps failing


LAYERS = (
    Layer("autotier", "parse_scenario", "scenario.parse"),
    Layer("autotier", "run_scenario", "engine.run"),
    Layer("autotier", "write_run_artifacts", "reporting.write"),
    Layer(
        "autotier.calibration", "collect_samples", "calibration.sample",
        counter="calibration.samples", tally=lambda a, k, r: r.sample_count,
    ),
    Layer("autotier.calibration", "regress_latency_curve", "calibration.regress"),
    Layer(
        "autotier.policy", "AutoTieringPolicy.on_monitor", "policy.monitor",
        counter="policy.cells",
        tally=lambda a, k, r: len(a[1].tiers) * len(a[1].vmdk_states),  # a = (self, ctx)
    ),
    Layer("autotier.policy", "cal_capacity_matrices", "policy.capacity"),
    Layer("autotier.policy", "normalize_and_gate", "policy.normalize"),
    Layer("autotier.policy", "cal_score", "policy.score"),
    Layer("autotier.policy", "trigger_migration", "policy.assign"),
    Layer("autotier.baselines", "idt_assign", "baselines.assign"),
    Layer("autotier.baselines", "edt_assign", "baselines.assign"),
    Layer("autotier.engine", "serve_epoch_tier", "engine.serve"),
    Layer(
        "autotier.engine", "progress_migrations", "engine.migrate",
        counter="engine.orders_progressed", tally=lambda a, k, r: len(a[0]),
    ),
    Layer("autotier.model", "ResourceVector.__post_init__", "model.resource_vectors", span=False),
)

# Spans reported with total seconds, share of the traced run and call count.
TIMED_SPANS = (
    "calibration.sample",
    "calibration.regress",
    "policy.monitor",
    "policy.capacity",
    "policy.normalize",
    "policy.score",
    "policy.assign",
    "baselines.assign",
    "engine.serve",
    "engine.migrate",
    "reporting.write",
)
# Spans whose self time is reported, besides the leaves above.
SELF_SPANS = {"policy.monitor": "policy.monitor_self", "engine.run": "engine.loop_self"}
TRACED_COUNTS = (
    "calibration.samples",
    "policy.cells",
    "model.resource_vectors",
    "engine.orders_progressed",
)
RUN_COUNTS = ("engine.migrations_started", "engine.distinct_migrated", "engine.overload_epochs")


def import_program():
    """Import autotier from this checkout's src/, never from anywhere else."""
    package = SRC / "autotier"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: program source not found at {package}")
    sys.path.insert(0, str(SRC))
    import autotier

    if Path(autotier.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported autotier from {autotier.__file__}, not {package}")
    return autotier


def machine() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(os.getloadavg()),
        "cpu": platform.processor() or platform.machine(),
        "caveat": "no CPU pinning, shared sandbox",
    }


def spread(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"samples": n, "median": statistics.median(ordered), "min": ordered[0], "max": ordered[-1]}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out.update(q1=q1, q3=q3)
    if n > 10:
        out[f"p{100 * (n - 10) // n}"] = ordered[n - 11]
    return out


class Bench:
    """Runs one workload's policies on one scenario and checks every run."""

    def __init__(self, autotier, workload: Workload, text: str, out_dir: Path):
        self.at = autotier
        self.workload = workload
        self.text = text
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, dict[str, str]] = {}  # policy -> first run's digests

    def setup(self, tracer: Tracer | None = None) -> tuple[object, list[float], list[float]]:
        """Time parse + make_policy in batches.

        Returns the scenario, seconds per repetition of each batch, and the
        reference seconds measured before the first batch and after each one.
        """
        per_rep: list[float] = []
        refs = [reference_seconds()]
        scenario = None
        for _ in range(SETUP_BATCHES):
            reps = 0
            start = time.perf_counter()
            with tracer or nullcontext():
                while reps == 0 or time.perf_counter() - start < SETUP_BATCH_S:
                    scenario = self.at.parse_scenario(self.text)
                    for policy in self.workload.policies:
                        self.at.make_policy(policy)
                    reps += 1
            per_rep.append((time.perf_counter() - start) / reps)
            refs.append(reference_seconds())
        return scenario, per_rep, refs

    def sample(self, scenario, tracer: Tracer | None = None) -> dict | None:
        """Run every policy once; None if any run raised or failed a check.

        ``seconds`` excludes the speed probe's kernels, which run inside each
        run through its ``on_plan`` callback; ``normalized`` scales it to the
        nominal host speed.
        """
        seconds = 0.0
        probe_times: list[float] = []
        outcomes = []
        ok = True
        for policy in self.workload.policies:
            self.attempted += 1
            out = self.out_dir / policy
            probe = SpeedProbe()
            try:
                with tracer or nullcontext():
                    start = time.perf_counter()
                    result = self.at.run_scenario(scenario, policy, on_plan=probe)
                    self.at.write_run_artifacts(result, out)
                    seconds += time.perf_counter() - start - sum(probe.times)
                probe_times += probe.times
                problems = check_run(result, scenario, policy, out)
                digests = artifact_digests(out)
                summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
                migrations = json.loads((out / "migrations.json").read_text(encoding="utf-8"))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                ok = False
                continue
            expected = self.digests.setdefault(policy, digests)
            if digests != expected:
                problems.append(f"{policy}: artifacts differ from the first run with this seed")
            if problems:
                print("\n".join(problems), file=sys.stderr)
                self.failed += 1
                ok = False
                continue
            outcomes.append((summary, migrations))
        if not ok:
            return None
        n = len(outcomes)
        probe_mean = sum(probe_times) / len(probe_times)
        return {
            "seconds": seconds,
            "normalized": seconds * NOMINAL_S / probe_mean,
            "probe_s": sum(probe_times),
            "probe_mean_s": probe_mean,
            "sim_iops_mean": sum(s["total"]["iops"]["mean"] for s, _ in outcomes) / n,
            "sim_latency_us_mean": sum(s["total"]["meanLatencyUs"] for s, _ in outcomes) / n,
            "sim_migrated_gb": sum(m["totalMigratedBytes"] for _, m in outcomes) / 1e9 / n,
            "sim_stall_epochs": sum(m["stallEpochs"] for _, m in outcomes) / n,
            "engine.migrations_started": sum(m["migrationCount"] for _, m in outcomes),
            "engine.distinct_migrated": sum(m["distinctVmdksMigrated"] for _, m in outcomes),
            "engine.overload_epochs": sum(m["overloadEpochs"] for _, m in outcomes),
        }

    def vmdk_epochs(self, scenario) -> int:
        return len(scenario.vmdks) * scenario.sim.epochs * len(self.workload.policies)


def measure(bench: Bench, seconds: float) -> tuple[dict, list[dict]]:
    """End-to-end metrics; host times are normalized by the speed probe."""
    scenario, setup_times, setup_refs = bench.setup()
    setups = [
        t * NOMINAL_S / ((before + after) / 2)
        for t, before, after in zip(setup_times, setup_refs, setup_refs[1:])
    ]
    samples = []
    start = time.perf_counter()
    while (len(samples) < MIN_SAMPLES or time.perf_counter() - start < seconds) and (
        bench.failed < MAX_FAILED_RUNS
    ):
        sample = bench.sample(scenario)
        if sample is not None:
            samples.append(sample)
    runs = [s["normalized"] for s in samples]
    work = bench.vmdk_epochs(scenario)
    metrics = {
        "vmdk_epochs_per_s": (work / statistics.median(runs) if runs else 0.0, "vmdk-epoch/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    first = samples[0] if samples else {}
    for name, unit in (
        ("sim_iops_mean", "IOPS"),
        ("sim_latency_us_mean", "us"),
        ("sim_migrated_gb", "GB"),
        ("sim_stall_epochs", "epochs"),
    ):
        metrics[name] = (first.get(name, 0.0), unit)
    info = [
        {"vmdk_epochs_per_run": work},
        {"run_s_normalized": spread(runs) if runs else None},
        {"run_s_raw": spread([s["seconds"] for s in samples]) if samples else None},
        {"probe_kernel_s": spread([s["probe_mean_s"] for s in samples]) if samples else None},
        {"setup_s_normalized": spread(setups)},
        {"setup_s_raw": spread(setup_times)},
        {"setup_reference_s": spread(setup_refs)},
    ]
    return metrics, info


def measure_traced(bench: Bench, seconds: float, spans_path: Path) -> tuple[dict, list[dict]]:
    """Per-layer metrics of the traced run with the median run seconds.

    Reporting one run, not a median per figure, keeps the self times an exact
    partition of the reported ``trace.run_s``. The tracing overhead is the
    median over pairs of (traced ÷ untraced) normalized seconds.
    """
    setup_tracer = Tracer(LAYERS)
    scenario, _, _ = bench.setup(setup_tracer)
    parse_times = [s.seconds for s in setup_tracer.finished_spans() if s.name == "scenario.parse"]

    plain_runs: list[float] = []
    overheads: list[float] = []
    traced: list[tuple[dict, list]] = []
    absent: set[str] = set()
    start = time.perf_counter()
    while (not traced or time.perf_counter() - start < seconds) and (
        bench.failed < MAX_FAILED_RUNS
    ):
        plain = bench.sample(scenario)
        tracer = Tracer(LAYERS)
        sample = bench.sample(scenario, tracer)
        absent.update(tracer.absent)
        if plain is None or sample is None:
            continue
        spans = tracer.finished_spans()
        figures = layer_figures(spans, tracer.counts, sample["probe_s"])
        if figures is None:
            bench.failed += 1
            print("traced spans do not partition the traced run", file=sys.stderr)
            continue
        for name in RUN_COUNTS:
            figures[name] = sample[name]
        plain_runs.append(plain["seconds"])
        overheads.append(sample["normalized"] / plain["normalized"])
        traced.append((figures, spans))

    metrics: dict[str, tuple[float, str]] = {}
    if traced:
        figures, spans = sorted(traced, key=lambda t: t[0]["trace.run_s"])[(len(traced) - 1) // 2]
        write_spans(spans, spans_path)
    else:
        figures = {}
    for name in TIMED_SPANS:
        for suffix, unit in (("_s", "s"), ("_share", "ratio"), ("_calls", "count")):
            metrics[name + suffix] = (figures.get(name + suffix, 0.0), unit)
    for name in SELF_SPANS.values():
        metrics[name + "_s"] = (figures.get(name + "_s", 0.0), "s")
        metrics[name + "_share"] = (figures.get(name + "_share", 0.0), "ratio")
    for name in TRACED_COUNTS + RUN_COUNTS:
        metrics[name] = (figures.get(name, 0.0), "count")
    started = metrics["engine.migrations_started"][0]
    distinct = metrics["engine.distinct_migrated"][0]
    metrics["engine.useful_migration_ratio"] = (distinct / started if started else 0.0, "ratio")
    metrics["scenario.parse_s"] = (statistics.median(parse_times), "s")
    metrics["trace.run_s"] = (figures.get("trace.run_s", 0.0), "s")
    metrics["trace.untraced_run_s"] = (statistics.median(plain_runs) if plain_runs else 0.0, "s")
    metrics["trace.overhead_ratio"] = (statistics.median(overheads) if overheads else 0.0, "ratio")
    info = [
        {"traced_samples": len(traced), "absent_layers": sorted(absent)},
        {"trace.run_s": spread([f["trace.run_s"] for f, _ in traced]) if traced else None},
        {"trace.untraced_run_s": spread(plain_runs) if plain_runs else None},
        {"trace.overhead_ratio": spread(overheads) if overheads else None},
        {"spans_file": str(spans_path.relative_to(HERE.parent)) if traced else None},
    ]
    return metrics, info


def layer_figures(spans: list, counts: dict, probe_s: float) -> dict | None:
    """Per-layer seconds, shares and calls of one traced sample.

    The speed probe's ``probe_s`` ran inside ``run_scenario`` between its
    child spans; it is taken out of the run and of the loop's self time.
    None if the spans fail to partition the run: every top-level span must be
    a run or an artifact write, and self times must add up to their total.
    """
    top = [s for s in spans if s.parent < 0]
    if any(s.name not in ("engine.run", "reporting.write") for s in top):
        return None
    run_s = sum(s.seconds for s in top) - probe_s
    by_name = totals(spans)
    if "engine.run" in by_name:
        by_name["engine.run"].self_seconds -= probe_s
    if abs(sum(t.self_seconds for t in by_name.values()) - run_s) > 1e-9 * max(run_s, 1.0):
        return None
    figures = {"trace.run_s": run_s}
    for name in TIMED_SPANS:
        t = by_name.get(name)
        figures[name + "_s"] = t.seconds if t else 0.0
        figures[name + "_share"] = t.seconds / run_s if t else 0.0
        figures[name + "_calls"] = t.calls if t else 0
    for name, label in SELF_SPANS.items():
        t = by_name.get(name)
        figures[label + "_s"] = t.self_seconds if t else 0.0
        figures[label + "_share"] = t.self_seconds / run_s if t else 0.0
    for name in TRACED_COUNTS:
        figures[name] = counts.get(name, 0.0)
    return figures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    autotier = import_program()
    return run(autotier, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


def run(autotier, workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    print(json.dumps({"machine": machine()}), flush=True)
    base = (SRC / "autotier" / "scenarios" / f"{BASE_SCENARIO}.json").read_text(encoding="utf-8")
    text = generate(workload, base, seed)
    print(json.dumps({"workload": describe(workload, text)}), flush=True)

    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_ROOT))
    try:
        bench = Bench(autotier, workload, text, out_dir)
        if trace:
            metrics, info = measure_traced(bench, seconds, OUT_ROOT / f"spans-{workload.name}.csv")
        else:
            metrics, info = measure(bench, seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for record in info:
        print(json.dumps(record), flush=True)
    print(json.dumps({"digests": bench.digests}), flush=True)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
