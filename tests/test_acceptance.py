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
    migration_penalty,
    oracle_assignment,
    trigger_migration,
    cal_score,
)
from autotier.reporting import metrics_csv_text, migrations_dict, summary_dict
from autotier.scenario import load_bundled_scenario

from conftest import (
    final_states,
    fleet_of,
    make_fits,
    make_state,
    make_tier,
    make_vmdk,
    random_oracle_instance,
    random_scenario,
    sequential_usage,
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
        rec = make_fits([(0.0, 20.0, 1.0)])
        cap = cal_capacity_matrices(rec, fleet_of([state], [tier]))
        ok &= close(cap[0, 0, 0], 50_000.0)  # tier 1, v1, p
        ok &= close(cap[0, 0, 1], 204.8)  # tier 1, v1, b

        # hosting-tier estimate returns the fitted intercept exactly
        rec2 = make_fits([(2.0, 123.0, 1.0)])
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
        fleet.spare_mbps[0, 0] = 500.0  # tier 1's reads
        fleet.spare_mbps[1, 1] = 400.0  # tier 2's writes
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
                ["v1"], lambda d, n: probe_latencies(fleet, d, n, rng, 0.05),
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
                final = final_states(result)
                for spec in scenario.vmdks:
                    if final[spec.id].spec.size_gb != spec.size_gb:
                        violations.append((case, policy, "size"))
                    if not (1 <= final[spec.id].current_tier <= len(scenario.tiers)):
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
            sm = cal_score(mat, None, weights, fleet, records, migration_penalty(fleet, 900.0))
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


def _greedy_below_optimum(scenario, seed=None):
    """Greedy/oracle profit ratios of an AutoTiering run of ``scenario``, or None.

    At every plan epoch the greedy round is checked against the exact
    optimum, whose plan must pass the sequential budget check in id order.
    None when a check fails or no plan epoch has a positive optimum.
    """
    ratios, report = [], []

    def on_plan(epoch, plan, policy, ctx):
        fleet, mat, seconds = ctx.fleet, policy.matrices, ctx.migration_epoch_seconds
        previous = np.where(fleet.dest_row >= 0, fleet.dest_row, fleet.tier_row)
        oracle = oracle_assignment(mat, ctx.weights, previous, fleet, seconds, epoch)
        used = sequential_usage(mat, oracle.target_row, fleet.roster.budget)
        report.append(used is not None and oracle.used.tolist() == used)
        g = epoch_profit(plan.target_row, previous, mat, ctx.weights, fleet, seconds)
        o = epoch_profit(oracle.target_row, previous, mat, ctx.weights, fleet, seconds)
        report.append(g <= o + 1e-9)
        if o > 1e-9:
            ratios.append(g / o)

    run_scenario(scenario, "autotiering", seed, on_plan=on_plan)
    return ratios if all(report) and ratios else None


def test_criterion_4_oracle_dominance_on_table3_table4():
    # The bundled scenario's own autotiering run, at its pinned seed.
    with _Timer() as t:
        ratios = _greedy_below_optimum(load_bundled_scenario("table3-table4"))
        detail = (f"mean greedy/oracle profit ratio {sum(ratios) / len(ratios):.4f} "
                  f"over {len(ratios)} positive-optimum plan epochs" if ratios else "")
    _report("C4 oracle-dominance at table3-table4 scale", ratios is not None, t, 120.0, detail)


def test_criterion_4_oracle_dominance_on_table3_table4_at_seeds_0_to_19():
    # Greedy <= optimum is an invariant, so every seed's calibration noise must keep it.
    with _Timer() as t:
        scenario = load_bundled_scenario("table3-table4")
        runs = [_greedy_below_optimum(scenario, seed) for seed in range(20)]
        ok = all(ratios is not None for ratios in runs)
        means = [sum(r) / len(r) for r in runs] if ok else []
        detail = (f"mean greedy/oracle profit ratio {min(means):.4f}-{max(means):.4f}, "
                  f"worst epoch {min(min(r) for r in runs):.4f}" if ok else "")
    _report("C4 oracle-dominance at table3-table4 scale, seeds 0-19", ok, t, 120.0, detail)


def _migrated_bytes(scenario, seed):
    """Policy -> the bytes its run of ``scenario`` migrated at ``seed``."""
    return {
        policy: migrations_dict(run_scenario(scenario, policy, seed))["totalMigratedBytes"]
        for policy in ("autotiering", "idt")
    }


@pytest.mark.parametrize("name", ["table3-table4", "spike"])
def test_autotiering_migrates_fewer_bytes_than_idt_at_seeds_0_to_19(name):
    # The paper's "reduce the migration overhead", directional like C5.
    with _Timer() as t:
        scenario = load_bundled_scenario(name)
        moved = [_migrated_bytes(scenario, seed) for seed in range(20)]
        ok = all(m["autotiering"] < m["idt"] for m in moved)
    _report(f"migration overhead below IDT on {name} at seeds 0-19", ok, t, 20.0,
            f"AT at most {max(m['autotiering'] for m in moved) / 1e9:.1f} GB, "
            f"IDT at least {min(m['idt'] for m in moved) / 1e9:.1f} GB")


def test_the_migration_penalty_cuts_migrated_bytes_at_seeds_0_to_19():
    # The paper's migration-cost term in the score: the shipped weights must
    # never move more bytes than no penalty at all, and on tiny-oracle fewer.
    with _Timer() as t:
        moved = {}
        for name in ("tiny-oracle", "table3-table4", "spike"):
            shipped = load_bundled_scenario(name)
            # Every migWeight 0.0: only an impossible move is penalized.
            free = replace(shipped, tiers=tuple(replace(x, mig_weight=0.0) for x in shipped.tiers))
            moved[name] = [
                [migrations_dict(run_scenario(s, "autotiering", seed))["totalMigratedBytes"]
                 for s in (shipped, free)]
                for seed in range(20)
            ]
        ok = (all(a < b for a, b in moved["tiny-oracle"])
              and all(a <= b for name in ("table3-table4", "spike") for a, b in moved[name]))
    means = {name: [sum(m[k] for m in pairs) / 20e9 for k in (0, 1)]
             for name, pairs in moved.items()}
    _report("migration penalty cuts migrated bytes at seeds 0-19", ok, t, 20.0,
            ", ".join(f"{name} {a:.1f} vs {b:.1f} GB mean" for name, (a, b) in means.items()))


def _served_iops(scenario, seed=None):
    """Policy -> the IOPS its run of ``scenario`` served, at ``seed`` or the pinned one."""
    return {
        policy: summary_dict(run_scenario(scenario, policy, seed))["total"]["iops"]["sum"]
        for policy in ("autotiering", "idt", "edt")
    }


def _beats_both_baselines(served):
    return (served["autotiering"] >= 1.10 * served["idt"]
            and served["autotiering"] >= 1.10 * served["edt"])


def test_criterion_5_directional_superiority():
    with _Timer() as t:
        scenario = load_bundled_scenario("table3-table4")
        assert scenario.sim.epochs == 50
        served = _served_iops(scenario)  # scenario-pinned seed
        ok = _beats_both_baselines(served)
    _report("C5 directional-superiority", ok, t, 30.0,
            f"AT/IDT {served['autotiering'] / served['idt']:.3f}, "
            f"AT/EDT {served['autotiering'] / served['edt']:.3f}")


def test_criterion_5_directional_superiority_at_seeds_0_to_19():
    # The pinned seed is one draw of the calibration noise: the margin must
    # not rest on it.
    with _Timer() as t:
        scenario = load_bundled_scenario("table3-table4")
        served = [_served_iops(scenario, seed) for seed in range(20)]
        ok = all(map(_beats_both_baselines, served))
    _report("C5 directional-superiority at seeds 0-19", ok, t, 60.0,
            f"AT/IDT >= {min(s['autotiering'] / s['idt'] for s in served):.3f}, "
            f"AT/EDT >= {min(s['autotiering'] / s['edt'] for s in served):.3f}")


def _aging_moves(spike, seed=None):
    """Aging factor -> (migrations, bytes migrated) of an AutoTiering run of ``spike``."""
    moves = {}
    for aging in (0.0, 0.5):
        scenario = replace(spike, weights=replace(spike.weights, aging_factor=aging))
        mig = migrations_dict(run_scenario(scenario, "autotiering", seed))
        moves[aging] = mig["migrationCount"], mig["totalMigratedBytes"]
    return moves


def _ages_down(moves):
    return all(a <= b for a, b in zip(moves[0.5], moves[0.0]))


def test_criterion_6_anti_thrash():
    with _Timer() as t:
        moves = _aging_moves(load_bundled_scenario("spike"))
        ok = _ages_down(moves)
    (aged, aged_bytes), (unaged, unaged_bytes) = moves[0.5], moves[0.0]
    _report("C6 anti-thrash", ok, t, 10.0,
            f"migrations {aged} vs {unaged}, bytes {aged_bytes:.3g} vs {unaged_bytes:.3g}")


def test_criterion_6_anti_thrash_at_seeds_0_to_19():
    with _Timer() as t:
        spike = load_bundled_scenario("spike")
        moves = [_aging_moves(spike, seed) for seed in range(20)]
        ok = all(map(_ages_down, moves))
    _report("C6 anti-thrash at seeds 0-19", ok, t, 20.0,
            f"migrations {sum(m[0.5][0] for m in moves)} vs {sum(m[0.0][0] for m in moves)} "
            "over the 20 seeds")


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
