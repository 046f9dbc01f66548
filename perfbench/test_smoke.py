"""Smoke test of the benchmark at a tiny size, through the code path it runs.

Run from the repository root: ``python3 -m pytest -q perfbench/test_smoke.py``.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
from pathlib import Path

import pytest

import run
from checks import artifact_digests, check_run
from reference import SpeedProbe
from tracing import Layer, Tracer
from workloads import BASE_SCENARIO, WORKLOADS, describe, generate

BENCHMARK = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {name: dataclasses.replace(w, replicas=2, epochs=6) for name, w in WORKLOADS.items()}
MISSING = Layer("autotier.calibration", "no_such_function", "calibration.gone")


@pytest.fixture(scope="module")
def autotier():
    return run.import_program()


@pytest.fixture(scope="module")
def base_text():
    return (run.SRC / "autotier" / "scenarios" / f"{BASE_SCENARIO}.json").read_text("utf-8")


def _result(capsys) -> tuple[list[dict], dict]:
    lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    return lines[:-1], lines[-1]


def test_workloads_match_benchmark_json():
    assert BENCHMARK["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]


@pytest.mark.parametrize("name", sorted(TINY))
def test_generators_are_seeded_and_shaped(name, base_text, autotier):
    workload = TINY[name]
    text = generate(workload, base_text, 7)
    assert text == generate(workload, base_text, 7)
    shape = describe(workload, text)
    assert (shape["vmdks"], shape["tiers"], shape["epochs"], shape["seed"]) == (28, 3, 6, 7)
    assert shape["phases"] == 28 * (2 if workload.churn_period else 1)
    scenario = autotier.parse_scenario(text)
    assert scenario.sim.seed == 7
    assert sum(t.capacity.s for t in scenario.tiers) == pytest.approx(2 * 2400.0)
    if workload.churn_period:
        assert generate(workload, base_text, 8) != text.replace('"seed": 7', '"seed": 8')


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_run_reports_every_metric(name, trace, autotier, capsys):
    assert run.run(autotier, TINY[name], 3, 0.0, trace) == 0
    info, result = _result(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    digests = next(r["digests"] for r in info if "digests" in r)
    assert set(digests) == set(TINY[name].policies)
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        calibrated = "autotiering" in TINY[name].policies
        assert (metrics["calibration.sample_calls"] > 0) == calibrated
        assert (metrics["baselines.assign_calls"] > 0) != calibrated
        assert metrics["trace.overhead_ratio"] > 0


def test_missing_binding_is_reported_absent(autotier, capsys, monkeypatch):
    monkeypatch.setattr(run, "LAYERS", run.LAYERS + (MISSING,))
    assert run.run(autotier, TINY["at-small"], 3, 0.0, True) == 0
    info, result = _result(capsys)
    assert result["correct"]
    absent = next(r["absent_layers"] for r in info if "absent_layers" in r)
    assert absent == ["autotier.calibration.no_such_function"]


def test_tracer_restores_every_binding_and_partitions_the_run(autotier, base_text):
    originals = {}
    for layer in run.LAYERS:
        owner = importlib.import_module(layer.module)
        *path, attr = layer.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        originals[(layer.module, layer.attr)] = (owner, attr, getattr(owner, attr))

    scenario = autotier.parse_scenario(generate(TINY["at-small"], base_text, 1))
    tracer = Tracer(run.LAYERS + (MISSING,))
    with tracer:
        result = autotier.run_scenario(scenario, "autotiering")
    for owner, attr, original in originals.values():
        assert getattr(owner, attr) is original
    assert tracer.absent == ["autotier.calibration.no_such_function"]

    figures = run.layer_figures(tracer.finished_spans(), tracer.counts, 0.0)
    assert figures is not None
    parts = [figures[n + "_s"] for n in ("engine.loop_self", "policy.monitor_self")]
    parts += [figures[n + "_s"] for n in run.TIMED_SPANS if n != "policy.monitor"]
    assert sum(parts) == pytest.approx(figures["trace.run_s"], rel=1e-9)
    assert figures["model.resource_vectors"] > 0
    assert figures["calibration.samples"] == 6 * 28 * 5 * 10
    assert len(result.epochs) == 6


def test_checks_flag_a_broken_plan(autotier, base_text, tmp_path):
    scenario = autotier.parse_scenario(generate(TINY["baseline-churn"], base_text, 1))
    result = autotier.run_scenario(scenario, "idt")
    autotier.write_run_artifacts(result, tmp_path)
    assert check_run(result, scenario, "idt", tmp_path) == []
    dropped = next(iter(result.plans[0].target))
    del result.plans[0].target[dropped]
    (tmp_path / "metrics.csv").write_text("epoch\n", encoding="utf-8")
    problems = check_run(result, scenario, "idt", tmp_path)
    assert any("assigns 27 of 28" in p for p in problems)
    assert any("metrics.csv has 0 rows" in p for p in problems)


def test_speed_probe_leaves_outputs_unchanged(autotier, base_text, tmp_path):
    scenario = autotier.parse_scenario(generate(TINY["at-small"], base_text, 2))
    probe = SpeedProbe()
    autotier.write_run_artifacts(autotier.run_scenario(scenario, "autotiering"), tmp_path / "a")
    probed = autotier.run_scenario(scenario, "autotiering", on_plan=probe)
    autotier.write_run_artifacts(probed, tmp_path / "b")
    assert len(probe.times) == len(probed.plans) == 2
    assert artifact_digests(tmp_path / "a") == artifact_digests(tmp_path / "b")
