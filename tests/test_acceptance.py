"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the reported greedy/oracle ratio.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from autotier.calibration import (
    collect_samples,
    compute_confidence,
    estimate_avg_lat,
    regress_latency_curve,
)
from autotier.engine import probe_latencies, run_scenario
from autotier.model import (
    PolicyWeights,
    ResourceVector,
    Scenario,
    SimulationConfig,
    WorkloadPhase,
)
from autotier.policy import (
    cal_capacity_matrices,
    epoch_profit,
    mig_cost_seconds,
    oracle_assignment,
    trigger_migration,
    cal_score,
)
from autotier.reporting import metrics_csv_text, migrations_dict, summary_dict
from autotier.scenario import load_bundled_scenario

from conftest import (
    fleet_of,
    make_fits,
    make_state,
    make_tier,
    make_vmdk,
    random_oracle_instance,
    random_scenario,
)

PLAN_LATENCIES = (0.0, 500.0, 1000.0, 2000.0, 4000.0)


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start


def _report(name, ok, timer, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status} in {timer.seconds:.2f}s (budget {budget}s){extra}")
    assert ok, f"{name} failed{extra}"
    assert timer.seconds < budget, f"{name} exceeded its {budget}s runtime budget"


def test_criterion_1_formula_fidelity():
    ok = True
    with _Timer() as t:
        rel = 1e-9

        def close(a, b):
            return a == pytest.approx(b, rel=rel)

        # IOPS = 10^6 / Lat and B = IOPS * io / 10^6
        tier = make_tier(1, base_latency_us=20.0)
        state = make_state(make_vmdk(demand_iops=1e12, avg_io_size_bytes=4096))
        rec = make_fits([("v1", 0.0, 20.0, 1.0)])
        mat = cal_capacity_matrices(rec, fleet_of([state], [tier]))
        ok &= close(mat.cap[0, 0, 0], 50_000.0)  # tier 1, v1, p
        ok &= close(mat.cap[0, 0, 1], 204.8)  # tier 1, v1, b

        # hosting-tier estimate returns the fitted intercept exactly
        rec2 = make_fits([("v1", 2.0, 123.0, 1.0)])
        ok &= estimate_avg_lat(rec2, [0], np.array([20.0]))[0, 0] == 123.0

        # confidence mapping
        ok &= compute_confidence(1.2) == 0.05
        ok &= close(compute_confidence(0.3), 0.7)

        # migration speed bottleneck: min(500 spare + 100 own, 400 spare) -> 250 s
        tiers = (
            make_tier(1, 100.0, read_mbps=600.0, write_mbps=999.0),
            make_tier(2, 300.0, read_mbps=999.0, write_mbps=500.0),
        )
        mover = make_state(make_vmdk(size_gb=100.0), tier=1, measured_read_mbps=100.0)
        fleet = fleet_of([mover], tiers)
        fleet.spare_read_mbps[0] = 500.0
        fleet.spare_write_mbps[1] = 400.0
        ok &= close(mig_cost_seconds(fleet)[1, 0], 250.0)
    _report("C1 formula-fidelity", ok, t, 1.0)


def test_criterion_2_calibration_recovery():
    with _Timer() as t:
        tier = make_tier(1, base_latency_us=200.0)
        spec = make_vmdk(truth_slope=1.2, truth_intercept_us=1800.0)
        fleet = fleet_of([make_state(spec, tier=1)], [tier])
        true_m = spec.truth_slope
        true_b = true_m * tier.base_latency_us + spec.truth_intercept_us
        seeds = 120
        hits = 0
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            samples = collect_samples(
                ["v1"], lambda ids, d, n: probe_latencies(fleet, [0], d, n, rng, 0.05),
                PLAN_LATENCIES, 10,
            )
            rec = regress_latency_curve(samples)
            m, b = rec.m[0], rec.b[0]
            if abs(m - true_m) <= 0.10 * true_m and abs(b - true_b) <= 0.05 * true_b:
                hits += 1
        ok = hits >= int(0.95 * seeds)
    _report("C2 calibration-recovery", ok, t, 10.0, f"{hits}/{seeds} seeds within tolerance")


def test_criterion_3_constraint_properties():
    policy_checked_kinds = {"autotiering": "pbs", "idt": "s", "edt": "ps"}
    violations = []
    with _Timer() as t:
        rng = np.random.default_rng(31415)
        for case in range(100):
            scenario = random_scenario(rng, epochs=6)
            all_ids = {v.id for v in scenario.vmdks}
            for policy in ("autotiering", "idt", "edt"):
                checked = policy_checked_kinds[policy]
                plans = []

                def on_plan(epoch, plan, pol, ctx, _plans=plans):
                    _plans.append((plan, {t.id: t.max_usable() for t in ctx.tiers}))

                result = run_scenario(scenario, policy, on_plan=on_plan)
                for plan, budgets in plans:
                    if set(plan.target) != all_ids:
                        violations.append((case, policy, "totality"))
                    if plan.overloaded_rows.size:
                        continue
                    for tier_id, used in plan.planned_usage.items():
                        budget = budgets[tier_id]
                        for kind in checked:
                            if getattr(used, kind) > getattr(budget, kind) * (1 + 1e-9):
                                violations.append((case, policy, f"cap-{kind}"))
                for spec in scenario.vmdks:
                    if result.final_states[spec.id].spec.size_gb != spec.size_gb:
                        violations.append((case, policy, "size"))
                    if not (1 <= result.final_states[spec.id].current_tier <= len(scenario.tiers)):
                        violations.append((case, policy, "tier-range"))
        ok = not violations
    _report("C3 constraint-properties", ok, t, 60.0,
            f"{len(violations)} violations" if violations else "300 runs clean")


def test_criterion_4_oracle_dominance():
    ratios = []
    with _Timer() as t:
        rng = np.random.default_rng(271828)
        checked = 0
        ok = True
        while checked < 200:
            tiers, fleet, records, mat, weights, previous = random_oracle_instance(rng)
            try:
                oracle = oracle_assignment(mat, weights, previous, fleet, 900.0)
            except ValueError:
                continue
            checked += 1
            sm = cal_score(mat, None, weights, fleet, records, 900.0)
            greedy = trigger_migration(sm, mat, fleet, 0)
            ok &= not greedy.overloaded_rows.size  # greedy feasible whenever the oracle is
            g = epoch_profit(greedy.target_row, previous, mat, weights, fleet, 900.0)
            o = epoch_profit(oracle.target_row, previous, mat, weights, fleet, 900.0)
            ok &= g <= o + 1e-9
            if o > 1e-9:  # ratios of negative optima invert their meaning
                ratios.append(g / o)
        mean_ratio = sum(ratios) / len(ratios)
    _report("C4 oracle-dominance", ok, t, 120.0,
            f"mean greedy/oracle profit ratio {mean_ratio:.4f} "
            f"over {len(ratios)}/{checked} positive-optimum instances")


def test_criterion_5_directional_superiority():
    with _Timer() as t:
        scenario = load_bundled_scenario("table3-table4")
        assert scenario.sim.epochs == 50
        served = {}
        for policy in ("autotiering", "idt", "edt"):
            result = run_scenario(scenario, policy)  # scenario-pinned seed
            served[policy] = summary_dict(result)["total"]["iops"]["sum"]
        ok = (served["autotiering"] >= 1.10 * served["idt"]
              and served["autotiering"] >= 1.10 * served["edt"])
    _report("C5 directional-superiority", ok, t, 30.0,
            f"AT/IDT {served['autotiering'] / served['idt']:.3f}, "
            f"AT/EDT {served['autotiering'] / served['edt']:.3f}")


def test_criterion_6_anti_thrash():
    with _Timer() as t:
        spike = load_bundled_scenario("spike")
        counts = {}
        sizes = {}
        for aging in (0.0, 0.5):
            scenario = replace(spike, weights=replace(spike.weights, aging_factor=aging))
            mig = migrations_dict(run_scenario(scenario, "autotiering"))
            counts[aging] = mig["migrationCount"]
            sizes[aging] = mig["totalMigratedBytes"]
        ok = counts[0.5] <= counts[0.0] and sizes[0.5] <= sizes[0.0]
    _report("C6 anti-thrash", ok, t, 10.0,
            f"migrations {counts[0.5]} vs {counts[0.0]}, bytes {sizes[0.5]:.3g} vs {sizes[0.0]:.3g}")


def test_criterion_7_migration_overhead_reporting():
    with _Timer() as t:
        # one VMDK forced off tier 1 by a demand spike, then back: two moves
        tiers = (
            make_tier(1, 100.0, ResourceVector(50_000, 500.0, 200.0),
                      read_iops=100_000, write_iops=50_000,
                      read_mbps=800.0, write_mbps=600.0,
                      specialty=ResourceVector(1, 1, 0)),
            make_tier(2, 300.0, ResourceVector(60_000, 500.0, 1000.0),
                      read_iops=100_000, write_iops=50_000,
                      read_mbps=800.0, write_mbps=600.0,
                      specialty=ResourceVector(0, 0, 1)),
        )
        wanderer = make_vmdk(
            "wanderer", size_gb=50.0, initial_tier=1,
            truth_slope=0.05, truth_intercept_us=5.0,
            phases=(
                WorkloadPhase(0, 10_000, 4096, 0.9),
                WorkloadPhase(2, 80_000, 4096, 0.9),
                WorkloadPhase(5, 10_000, 4096, 0.9),
            ),
        )
        scenario = Scenario(
            tiers=tiers,
            vmdks=(wanderer,),
            weights=PolicyWeights(aging_factor=0.0, migration_epoch=3),
            sim=SimulationConfig(epochs=9, epoch_seconds=300.0, noise_cv=0.02, seed=3),
        )
        mig = migrations_dict(run_scenario(scenario, "autotiering"))
        ok = (mig["migrationCount"] == 2
              and mig["distinctVmdksMigrated"] == 1
              and mig["totalMigratedBytes"] == pytest.approx(2 * 50e9))
    _report("C7 migration-overhead-reporting", ok, t, 10.0,
            f"count {mig['migrationCount']}, distinct {mig['distinctVmdksMigrated']}, "
            f"bytes {mig['totalMigratedBytes']:.3g}")


def test_criterion_8_determinism():
    with _Timer() as t:
        scenario = load_bundled_scenario("table3-table4")
        a = metrics_csv_text(run_scenario(scenario, "autotiering", seed=42))
        b = metrics_csv_text(run_scenario(scenario, "autotiering", seed=42))
        ok = a.encode() == b.encode()
    _report("C8 determinism", ok, t, 30.0, "byte-identical metrics.csv")
