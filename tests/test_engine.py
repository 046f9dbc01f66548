"""Device model, serving with contention, migration execution, full runs."""

import copy
import json
import random
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from autotier import calibration, engine, model
from autotier.calibration import collect_samples, estimate_avg_lat, regress_latency_curve
from autotier.cli import main
from autotier.engine import (
    OVERLOADED,
    POLICY_NAMES,
    STALLED,
    STARTED,
    TIER_FIGURES,
    probe_latencies,
    progress_migrations,
    run_scenario,
    start_migrations,
    serve_epoch,
)
from autotier.model import (
    Fleet,
    MigrationLog,
    PolicyWeights,
    ResourceVector,
    Scenario,
    ScenarioValidationError,
    SimulationConfig,
    WorkloadPhase,
    validate_scenario,
)
from autotier.policy import AutoTieringPolicy
from autotier.reporting import metrics_csv_text, write_run_artifacts
from autotier.scenario import bundled_scenario_text, load_bundled_scenario, parse_scenario

from conftest import (
    MigrationOrder,
    TierEpochMetrics,
    epoch_records,
    final_states,
    fleet_of,
    fleet_states,
    keyed_plan,
    log_orders,
    make_state,
    make_tier,
    make_vmdk,
    phase_at,
    pin,
    random_scenario,
    row_of_tier,
    scenario_documents,
)


def artifact_bytes(out):
    """Every file a run wrote to ``out``, by name."""
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def reference_latency(tier, contention, spec, added_us=0.0):
    """The device latency model, one VMDK at a time: linear in added latency,
    with the intercept inflated by the tier's contention."""
    return (
        spec.truth_slope * (tier.base_latency_us + added_us)
        + spec.truth_intercept_us * contention
    )


def probe_fleet(states, tiers, contention=None):
    """A fleet of ``states`` on ``tiers``, each tier at its ``contention`` (default 1)."""
    fleet = fleet_of(states, tiers)
    if contention is not None:
        fleet.contention[:] = contention
    return fleet


class TestDeviceModel:
    """The latency model as noiseless probes see it."""

    def one_probe(self, tier, spec, added_us, contention=1.0):
        fleet = probe_fleet([make_state(spec, tier=tier.id)], [tier], [contention])
        return probe_latencies(fleet, [added_us], 1, np.random.default_rng(0), 0.0)[0, 0, 0]

    def test_latency_is_linear_in_added_latency(self):
        tier = make_tier(1, base_latency_us=100.0)
        spec = make_vmdk(truth_slope=2.0, truth_intercept_us=30.0)
        assert self.one_probe(tier, spec, 0.0) == pytest.approx(230.0)
        assert self.one_probe(tier, spec, 500.0) == pytest.approx(1230.0)

    def test_contention_inflates_intercept_only(self):
        tier = make_tier(1, base_latency_us=100.0)
        spec = make_vmdk(truth_slope=2.0, truth_intercept_us=30.0)
        assert self.one_probe(tier, spec, 0.0, contention=2.0) == pytest.approx(200.0 + 60.0)


def reference_probe(spec, added_us, tier, contention, rng, noise_cv):
    """One sample drawn the sample-by-sample way the batched sampler replaces."""
    latency = reference_latency(tier, contention, spec, added_us)
    factor = 1.0 + noise_cv * float(rng.standard_normal())
    while factor <= 0.0:
        factor = 1.0 + noise_cv * float(rng.standard_normal())
    return latency * factor


def reference_samples(fleet, specs, added_us, samples, rng, noise_cv):
    """(N, L, S) samples from the reference loop: ``specs`` by fleet row x latencies x samples."""
    contention = fleet.contention.tolist()
    spec = {spec.id: spec for spec in specs}
    return np.array([
        [
            [
                reference_probe(spec[v], d, fleet.roster.tiers[t], contention[t], rng, noise_cv)
                for _ in range(samples)
            ]
            for d in added_us
        ]
        for v, t in zip(fleet.roster.ids, fleet.tier_row.tolist())
    ])


def probe_setup():
    """Three VMDKs on two tiers, one of them contended: the fleet and the specs."""
    tiers = (make_tier(1, 100.0), make_tier(2, 400.0))
    states = [
        make_state(make_vmdk("a", truth_slope=0.4, truth_intercept_us=30.0), tier=1),
        make_state(make_vmdk("b", truth_slope=1.3, truth_intercept_us=210.0), tier=2),
        make_state(make_vmdk("c", truth_slope=0.0, truth_intercept_us=5.0), tier=2),
    ]
    return probe_fleet(states, tiers, [1.0, 1.7]), [s.spec for s in states]


def single(tier_base=100.0, slope=1.0, intercept=200.0):
    state = make_state(make_vmdk(truth_slope=slope, truth_intercept_us=intercept))
    return probe_fleet([state], [make_tier(1, tier_base)])


class TestProbeLatencies:
    def test_noiseless_probe_is_exact(self):
        fleet = single()
        rng = np.random.default_rng(0)
        samples = probe_latencies(fleet, [1000.0], 1, rng, 0.0)
        assert samples[0, 0, 0] == pytest.approx(1300.0)

    def test_zero_injection_gives_bare_latency(self):
        fleet = single()
        rng = np.random.default_rng(0)
        assert probe_latencies(fleet, [0.0], 1, rng, 0.0)[0, 0, 0] == pytest.approx(300.0)

    def test_fixed_seed_reproduces_sequence(self):
        fleet = single(slope=0.1, intercept=20.0)

        def draw(seed):
            return probe_latencies(fleet, [0.0], 3, np.random.default_rng(seed), 0.05)

        a, b = draw(3), draw(3)
        assert not np.array_equal(a, draw(4))
        assert np.array_equal(a, b)

    def test_samples_stay_positive(self):
        fleet = single(slope=0.0, intercept=1.0)
        rng = np.random.default_rng(1)
        samples = probe_latencies(fleet, [0.0], 500, rng, 3.0)
        assert (samples > 0).all()

    @pytest.mark.parametrize("noise_cv,seed", [(0.0, 11), (0.05, 12), (3.0, 13)])
    def test_matches_reference_stream_bitwise(self, noise_cv, seed):
        fleet, specs = probe_setup()
        plan = (0.0, 500.0, 1000.0, 2000.0)
        batched_rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        batched = probe_latencies(fleet, plan, 2, batched_rng, noise_cv)
        reference = reference_samples(fleet, specs, plan, 2, reference_rng, noise_cv)
        assert batched.shape == (3, 4, 2)
        assert batched.tobytes() == reference.tobytes()
        assert batched_rng.bit_generator.state == reference_rng.bit_generator.state
        assert batched_rng.standard_normal() == reference_rng.standard_normal()

    def test_rejected_draw_inside_the_top_up(self):
        # Seed 6 at noise CV 1.0 over 24 samples: the first draw rejects two
        # factors and the top-up of two rejects again, so a second top-up runs.
        probe_rng = np.random.default_rng(6)
        first = 1.0 + 1.0 * probe_rng.standard_normal(24)
        top_up = 1.0 + 1.0 * probe_rng.standard_normal(int((first <= 0).sum()))
        assert (first <= 0).sum() == 2 and (top_up <= 0).any()
        fleet, specs = probe_setup()
        plan = (0.0, 500.0, 1000.0, 2000.0)
        batched_rng = np.random.default_rng(6)
        reference_rng = np.random.default_rng(6)
        batched = probe_latencies(fleet, plan, 2, batched_rng, 1.0)
        reference = reference_samples(fleet, specs, plan, 2, reference_rng, 1.0)
        assert batched.tobytes() == reference.tobytes()
        assert batched_rng.standard_normal() == reference_rng.standard_normal()

    def test_each_monitor_epoch_probes_the_whole_fleet_once_in_fleet_rows(self, monkeypatch):
        # Noiseless, so every sample is its row's true latency as the fleet stands.
        scenario = load_bundled_scenario("table3-table4")
        scenario = replace(scenario, sim=replace(scenario.sim, noise_cv=0.0))
        plan, spl = scenario.weights.injected_latencies_us, scenario.weights.samples_per_latency
        monitor, collect = AutoTieringPolicy.on_monitor, calibration.collect_samples
        truths, rounds = [], []

        def on_monitor(policy, ctx):
            rng = np.random.default_rng(0)
            truths.append(reference_samples(ctx.fleet, scenario.vmdks, plan, spl, rng, 0.0))
            monitor(policy, ctx)

        def recording(*args):
            rounds.append(collect(*args))
            return rounds[-1]

        monkeypatch.setattr(AutoTieringPolicy, "on_monitor", on_monitor)
        monkeypatch.setattr(calibration, "collect_samples", recording)
        run_scenario(scenario, "autotiering")
        assert len(rounds) == len(truths) == scenario.sim.epochs == 50  # monitorEpoch 1
        for samples, truth in zip(rounds, truths):
            assert samples.vmdk_ids == scenario.roster.ids
            assert samples.values.shape == (14, 5, 10)
            assert samples.values.tobytes() == truth.tobytes()


MEASURED = ("measured_iops", "measured_latency_us", "measured_read_mbps", "measured_write_mbps")


def tier_metrics(figures: np.ndarray) -> list[TierEpochMetrics]:
    """One record per tier of ``serve_epoch``'s (5, T) figures."""
    assert figures.shape[0] == 5 and figures.dtype == float
    return [TierEpochMetrics(*column) for column in figures.T.tolist()]


def serve_tier(tier, members, migration_read_mbps=0.0, migration_write_mbps=0.0):
    """``serve_epoch`` on a one-tier fleet; ``members`` get the fleet's measurements."""
    fleet = fleet_of(members, [tier])
    debits = np.array([[migration_read_mbps], [migration_write_mbps]])
    metrics = tier_metrics(serve_epoch(fleet, debits))[0]
    served = {state.spec.id: state for state in fleet_states(fleet, [m.spec for m in members])}
    for member in members:
        for name in MEASURED:
            setattr(member, name, getattr(served[member.spec.id], name))
    return metrics


def reference_serve_tier(tier, members, migration_read_mbps=0.0, migration_write_mbps=0.0):
    """One tier's members served member by member, the loop ``serve_epoch`` replaces.

    Returns the tier's metrics and its contention.
    """
    eff_read_bw = max(0.0, tier.read_bandwidth_cap - migration_read_mbps)
    eff_write_bw = max(0.0, tier.write_bandwidth_cap - migration_write_mbps)

    loads = []
    for v in members:
        unloaded = v.spec.truth_slope * tier.base_latency_us + v.spec.truth_intercept_us
        loads.append(min(v.demand_iops, 1e6 / unloaded))

    load_r_iops = sum(l * v.read_fraction for l, v in zip(loads, members))
    load_w_iops = sum(l * (1 - v.read_fraction) for l, v in zip(loads, members))
    load_r_bw = sum(
        l * v.read_fraction * v.avg_io_size_bytes / 1e6 for l, v in zip(loads, members)
    )
    load_w_bw = sum(
        l * (1 - v.read_fraction) * v.avg_io_size_bytes / 1e6
        for l, v in zip(loads, members)
    )
    utilization = lambda load, cap: load / cap if cap > 0 else 0.0
    contention = max(
        1.0,
        utilization(load_r_iops, tier.read_throughput_cap),
        utilization(load_w_iops, tier.write_throughput_cap),
        utilization(load_r_bw, tier.read_bandwidth_cap),
        utilization(load_w_bw, tier.write_bandwidth_cap),
    )
    scale = 1.0
    for load, cap in (
        (load_r_iops, tier.read_throughput_cap),
        (load_w_iops, tier.write_throughput_cap),
        (load_r_bw, eff_read_bw),
        (load_w_bw, eff_write_bw),
    ):
        if load > 0:
            scale = min(scale, cap / load)

    metrics = TierEpochMetrics()
    latency_weight = 0.0
    for v in members:
        latency = reference_latency(tier, contention, v.spec)
        achievable = 1e6 / latency if latency > 0 else 0.0
        served = min(v.demand_iops, achievable) * scale
        v.measured_iops = served
        v.measured_latency_us = latency
        v.measured_read_mbps = served * v.read_fraction * v.avg_io_size_bytes / 1e6
        v.measured_write_mbps = served * (1 - v.read_fraction) * v.avg_io_size_bytes / 1e6
        metrics.read_iops += served * v.read_fraction
        metrics.write_iops += served * (1 - v.read_fraction)
        metrics.read_mbps += v.measured_read_mbps
        metrics.write_mbps += v.measured_write_mbps
        if np.isfinite(latency):
            latency_weight += served * latency
    total_iops = metrics.read_iops + metrics.write_iops
    metrics.mean_latency_us = latency_weight / total_iops if total_iops > 0 else 0.0
    return metrics, contention


def random_fleet(rng, n_tiers):
    """Tiers and id-ordered states with every serving edge case mixed in.

    The last tier stays empty; some VMDKs have zero demand, zero slope, a
    demand that saturates a throughput or bandwidth cap, or a slope or
    intercept so large that latency overflows to inf.
    """
    tiers = tuple(
        make_tier(
            i + 1,
            base_latency_us=50.0 * (i + 1),
            read_iops=float(rng.uniform(1_000, 100_000)),
            write_iops=float(rng.uniform(1_000, 50_000)),
            read_mbps=float(rng.uniform(20, 1000)),
            write_mbps=float(rng.uniform(20, 1000)),
        )
        for i in range(n_tiers)
    )
    states = []
    for j in range(int(rng.integers(0, 40))):
        kind = int(rng.integers(0, 6))
        slope = 0.0 if kind == 1 else float(rng.uniform(0, 2))
        intercept = float(rng.uniform(0.5, 300))
        if kind == 2:
            slope, intercept = 1e306, 1e-3  # unloaded latency overflows
        elif kind == 3:
            intercept = 1e308  # overflows once contention exceeds 1
        demand = 0.0 if kind == 4 else float(rng.uniform(0, 300_000))
        spec = make_vmdk(
            f"v{j:02d}",
            truth_slope=slope,
            truth_intercept_us=intercept,
            demand_iops=demand,
            avg_io_size_bytes=float(rng.uniform(512, 1 << 20)),
            read_fraction=float(rng.choice([0.0, 1.0, rng.uniform(0, 1)])),
        )
        states.append(make_state(spec, tier=int(rng.integers(1, max(n_tiers, 2)))))
    return tiers, states


class TestServeEpochMatchesReference:
    # Seeds 0-15 draw 1, 3, 4, 5 and 6 tiers; with two or more the last has no
    # members, and each stage's one bincount must still give it a row.
    @pytest.mark.parametrize("seed", range(16))
    def test_bitwise_equal_to_the_member_loop(self, seed):
        rng = np.random.default_rng(seed)
        n_tiers = int(rng.integers(1, 7))
        tiers, states = random_fleet(rng, n_tiers)
        # debits from none to above the bandwidth cap
        debit_read = [float(rng.choice([0.0, rng.uniform(0, 2) * t.read_bandwidth_cap]))
                      for t in tiers]
        debit_write = [float(rng.choice([0.0, rng.uniform(0, 2) * t.write_bandwidth_cap]))
                       for t in tiers]
        contended = [float(rng.uniform(1, 3)) for _ in tiers]

        reference_states = copy.deepcopy(states)
        expected, expected_contention = zip(*(
            reference_serve_tier(
                tier,
                [s for s in reference_states if s.current_tier == tier.id],
                r, w,
            )
            for tier, r, w in zip(tiers, debit_read, debit_write)
        ))
        fleet = fleet_of(states, tiers)
        assert n_tiers == 1 or n_tiers - 1 not in fleet.tier_row.tolist()
        fleet.contention[:] = contended  # serving sets it afresh from the load
        served = tier_metrics(serve_epoch(fleet, np.array((debit_read, debit_write))))
        states = fleet_states(fleet, [s.spec for s in states])

        assert [astuple(m) for m in served] == [astuple(m) for m in expected]
        measured = lambda s: (
            s.measured_iops, s.measured_latency_us, s.measured_read_mbps, s.measured_write_mbps
        )
        assert [measured(s) for s in states] == [measured(s) for s in reference_states]
        assert fleet.contention.tolist() == list(expected_contention)
        assert fleet.spare_mbps[0].tolist() == [
            max(0.0, t.read_bandwidth_cap - (m.read_mbps + r))
            for t, m, r in zip(tiers, expected, debit_read)
        ]
        assert fleet.spare_mbps[1].tolist() == [
            max(0.0, t.write_bandwidth_cap - (m.write_mbps + w))
            for t, m, w in zip(tiers, expected, debit_write)
        ]
        assert all(type(x) is float for m in served for x in astuple(m))
        assert all(type(x) is float for s in states for x in measured(s))

    def test_cases_cover_every_edge(self):
        seen = set()
        for seed in range(16):
            rng = np.random.default_rng(seed)
            tiers, states = random_fleet(rng, int(rng.integers(1, 7)))
            fleet = fleet_of(states, tiers)
            served = tier_metrics(serve_epoch(
                fleet, np.array(([2 * t.read_bandwidth_cap for t in tiers], [0.0] * len(tiers))),
            ))
            states = fleet_states(fleet, [s.spec for s in states])
            seen.update(
                name for name, hit in (
                    ("empty tier", any(m.read_iops + m.write_iops == 0 for m in served)),
                    ("zero demand", any(s.demand_iops == 0 for s in states)),
                    ("zero slope", any(s.spec.truth_slope == 0 for s in states)),
                    ("inf latency", any(s.measured_latency_us == np.inf for s in states)),
                    ("saturated", any(s.measured_iops < s.demand_iops for s in states)),
                ) if hit
            )
        assert len(seen) == 5


class TestServeEpoch:
    def test_demand_limited_service(self):
        tier = make_tier(1, 100.0, read_iops=1_000_000, write_iops=1_000_000,
                         read_mbps=1e5, write_mbps=1e5)
        # achievable 1e6/(100*0.1+10) = 50K, demand 10K
        member = make_state(make_vmdk(truth_slope=0.1, truth_intercept_us=10.0,
                                      demand_iops=10_000))
        tm = serve_tier(tier, [member])
        assert member.measured_iops == pytest.approx(10_000, rel=1e-9)
        assert tm.read_iops == pytest.approx(10_000, rel=1e-9)

    def test_proportional_scaling_on_saturated_tier(self):
        # two 60K demands on a 99K read-IOPS tier scale by 99/120 each
        tier = make_tier(3, 400.0, read_iops=99_000, write_iops=1e6,
                         read_mbps=1e6, write_mbps=1e6)
        members = [
            make_state(make_vmdk("a", initial_tier=3, truth_slope=0.0, truth_intercept_us=1.0,
                                 demand_iops=60_000, read_fraction=1.0)),
            make_state(make_vmdk("b", initial_tier=3, truth_slope=0.0, truth_intercept_us=1.0,
                                 demand_iops=60_000, read_fraction=1.0)),
        ]
        tm = serve_tier(tier, members)
        for m in members:
            assert m.measured_iops == pytest.approx(60_000 * 99 / 120, rel=1e-9)
        assert tm.read_iops == pytest.approx(99_000, rel=1e-9)

    def test_zero_demand_zero_metrics(self):
        tier = make_tier(1)
        member = make_state(make_vmdk(demand_iops=0.0))
        tm = serve_tier(tier, [member])
        assert tm.read_iops == 0.0
        assert tm.write_iops == 0.0
        assert tm.mean_latency_us == 0.0

    def test_no_load_against_a_cap_debited_to_zero_leaves_the_scale_alone(self):
        # Write-only members while migrations take all the read bandwidth:
        # the read MB/s ratio is 0/0, which the loop skips and must not scale.
        tier = make_tier(1, read_mbps=500.0, write_mbps=800.0)
        members = [
            make_state(make_vmdk(v, demand_iops=1000.0, read_fraction=0.0)) for v in ("a", "b")
        ]
        reference = copy.deepcopy(members)
        expected, _ = reference_serve_tier(tier, reference, 500.0, 0.0)
        assert astuple(serve_tier(tier, members, 500.0, 0.0)) == astuple(expected)
        assert [m.measured_iops for m in members] == [m.measured_iops for m in reference]
        assert expected.write_iops > 0.0

    def test_spare_is_cap_less_served_and_debit_clamped_at_zero(self):
        tiers = [make_tier(i, read_mbps=1000.0, write_mbps=800.0) for i in (1, 2, 3)]
        states = [
            make_state(make_vmdk(v, initial_tier=t, demand_iops=1000.0, read_fraction=0.5), tier=t)
            for v, t in (("a", 1), ("b", 2), ("c", 3))
        ]
        fleet = fleet_of(states, tiers)
        # Tier 1's read debit passes its cap, tier 2's write debit is NaN and
        # tier 3 is partly used.
        debits = np.array(([1500.0, 0.0, 100.0], [0.0, np.nan, 50.0]))
        metrics = tier_metrics(serve_epoch(fleet, debits))
        third = metrics[2]
        assert third.read_mbps > 0.0 and third.write_mbps > 0.0
        assert fleet.spare_mbps[0].tolist() == [
            0.0, 1000.0 - metrics[1].read_mbps, 1000.0 - (third.read_mbps + 100.0),
        ]
        assert fleet.spare_mbps[1].tolist() == [
            800.0 - metrics[0].write_mbps, 0.0, 800.0 - (third.write_mbps + 50.0),
        ]

    def test_served_never_exceeds_caps(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            tier = make_tier(
                1,
                read_iops=float(rng.uniform(1_000, 100_000)),
                write_iops=float(rng.uniform(1_000, 50_000)),
                read_mbps=float(rng.uniform(50, 1000)),
                write_mbps=float(rng.uniform(50, 1000)),
            )
            members = [
                make_state(make_vmdk(
                    f"v{i}",
                    truth_slope=float(rng.uniform(0, 1)),
                    truth_intercept_us=float(rng.uniform(1, 100)),
                    demand_iops=float(rng.uniform(0, 200_000)),
                    avg_io_size_bytes=float(rng.uniform(512, 65536)),
                    read_fraction=float(rng.uniform(0, 1)),
                ))
                for i in range(int(rng.integers(1, 6)))
            ]
            tm = serve_tier(tier, members)
            assert tm.read_iops <= tier.read_throughput_cap * (1 + 1e-9)
            assert tm.write_iops <= tier.write_throughput_cap * (1 + 1e-9)
            assert tm.read_mbps <= tier.read_bandwidth_cap * (1 + 1e-9)
            assert tm.write_mbps <= tier.write_bandwidth_cap * (1 + 1e-9)

    def test_adding_a_member_never_helps_the_others(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            tier = make_tier(
                1,
                read_iops=float(rng.uniform(5_000, 100_000)),
                write_iops=float(rng.uniform(5_000, 50_000)),
                read_mbps=float(rng.uniform(100, 1500)),
                write_mbps=float(rng.uniform(100, 1500)),
            )
            members = [
                make_state(make_vmdk(
                    f"v{i}",
                    truth_slope=float(rng.uniform(0, 1)),
                    truth_intercept_us=float(rng.uniform(1, 200)),
                    demand_iops=float(rng.uniform(100, 150_000)),
                    avg_io_size_bytes=float(rng.uniform(512, 65536)),
                    read_fraction=float(rng.uniform(0, 1)),
                ))
                for i in range(3)
            ]
            newcomer = make_state(make_vmdk(
                "new",
                truth_slope=float(rng.uniform(0, 1)),
                truth_intercept_us=float(rng.uniform(1, 200)),
                demand_iops=float(rng.uniform(100, 150_000)),
                avg_io_size_bytes=float(rng.uniform(512, 65536)),
                read_fraction=float(rng.uniform(0, 1)),
            ))
            serve_tier(tier, members)
            before = [m.measured_iops for m in members]
            serve_tier(tier, members + [newcomer])
            after = [m.measured_iops for m in members]
            for x, y in zip(before, after):
                assert y <= x * (1 + 1e-9)

    def test_ground_truth_consistency_with_calibration(self):
        # noiseless, uncontended: the fit's hosted-tier estimate equals bare latency
        tier = make_tier(2, base_latency_us=250.0)
        spec = make_vmdk(initial_tier=2, truth_slope=0.7, truth_intercept_us=40.0)
        fleet = probe_fleet([make_state(spec)], [tier])
        rng = np.random.default_rng(0)
        samples = collect_samples(
            ["v1"], lambda d, n: probe_latencies(fleet, d, n, rng, 0.0),
            (0.0, 500.0, 1000.0, 2000.0, 4000.0), 10,
        )
        rec = regress_latency_curve(samples)
        estimate = estimate_avg_lat(rec, [0], np.array([250.0]))[0, 0]
        assert estimate == pytest.approx(reference_latency(tier, 1.0, spec), rel=1e-9)


class TestMigrations:
    def setup_pair(self, state):
        """The pair of tiers, a fleet of ``state`` and a log with its move from tier 1 to 2."""
        tiers = (
            make_tier(1, 100.0, read_mbps=600.0, write_mbps=500.0),
            make_tier(2, 300.0, read_mbps=900.0, write_mbps=500.0),
        )
        fleet = fleet_of([state], tiers)
        log = MigrationLog(fleet.roster.ids)
        start_moves(fleet, log, (("v1", 1, 2),), 0)
        return tiers, fleet, log

    def test_steady_speed_completes_in_one_epoch(self):
        state = make_state(make_vmdk(size_gb=100.0), tier=1, measured_read_mbps=100.0)
        tiers, fleet, log = self.setup_pair(state)
        fleet.spare_mbps[0, 0] = 500.0  # tier 1's reads
        fleet.spare_mbps[1, 1] = 400.0  # tier 2's writes
        moved, debits, stalled, finished = progress_migrations(np.array([0]), fleet, log, 300.0)
        # speed min(500-100+100, 500-100) = 400 MB/s, 100 GB needs 250 s < epoch
        assert finished.tolist() == [0]
        assert log.bytes_moved.tolist() == [100e9]
        assert log.speed_mbps.tolist() == [400.0]
        assert not log.stalled[0]
        assert moved == pytest.approx(100e9)
        assert stalled.tolist() == []
        assert debits[0, 0] == pytest.approx(100e9 / 300 / 1e6)  # tier 1's reads
        assert debits[1, 1] == pytest.approx(100e9 / 300 / 1e6)  # tier 2's writes

    def test_zero_speed_stalls(self):
        state = make_state(make_vmdk(size_gb=100.0), tier=1, measured_read_mbps=0.0)
        tiers, fleet, log = self.setup_pair(state)
        fleet.spare_mbps[0, 0] = 0.0
        fleet.spare_mbps[1, 1] = 0.0
        moved, _, stalled, finished = progress_migrations(np.array([0]), fleet, log, 300.0)
        assert moved == 0.0
        assert stalled.tolist() == [0]
        assert log.stalled[0]
        assert log.bytes_moved.tolist() == [0.0]
        assert finished.tolist() == []

    @pytest.mark.parametrize("cutover", [0, 10**9])
    @pytest.mark.parametrize("spare, measured, speed, stall", [
        (500.0, 100.0, 500.0, False),  # min(500 + 100, 500)
        (0.0, 0.0, 0.0, True),
        (500.0, np.nan, np.nan, False),  # NaN is not stalled
    ])
    def test_a_finished_move_moves_nothing_and_is_finished_again(
        self, cutover, spare, measured, speed, stall, monkeypatch
    ):
        # The book holds only moves in flight, so neither path has a branch
        # for a finished one: it takes the shared rules and moves 0 bytes.
        monkeypatch.setattr(engine, "PROGRESS_LOOP_ROWS", cutover)
        state = make_state(make_vmdk(size_gb=100.0), tier=1, measured_read_mbps=measured)
        _, fleet, log = self.setup_pair(state)
        fleet.spare_mbps[0, 0] = fleet.spare_mbps[1, 1] = spare  # tier 1's reads, tier 2's writes
        log.set_progress(np.array([0]), 100e9, 7.0, not stall)  # overwritten by the rule
        moved, debits, stalled, finished = progress_migrations(np.array([0]), fleet, log, 300.0)
        assert type(moved) is float and np.float64(moved).tobytes() == bytes(8)
        assert debits.tobytes() == np.zeros((2, 2)).tobytes()
        assert finished.tolist() == [0] and stalled.tolist() == [0] * stall
        assert log.bytes_moved.tobytes() == np.float64(100e9).tobytes()
        assert log.speed_mbps.tobytes() == np.float64(speed).tobytes()
        assert log.stalled.tolist() == [stall]

    def test_the_finishing_step_lands_exactly(self):
        # Adding the rest to what is moved rounds one ulp above the total here.
        state = make_state(
            make_vmdk(size_gb=49.91605619203594), tier=1, measured_read_mbps=100.0
        )
        _, fleet, log = self.setup_pair(state)
        before, total = 6755937413.0374565, log.bytes_total[0]
        assert before + (total - before) > total
        log.set_progress(np.array([0]), before, 0.0, False)
        moved, _, _, finished = progress_migrations(np.array([0]), fleet, log, 300.0)
        assert finished.tolist() == [0]
        assert log.bytes_moved[0] == total
        assert moved == total - before
        assert log.unfinished() == 0

    def test_empty_book_debits_nothing(self):
        state = make_state(make_vmdk(size_gb=100.0), tier=1)
        _, fleet, log = self.setup_pair(state)
        moved, debits, stalled, finished = progress_migrations(
            np.zeros(0, dtype=np.intp), fleet, log, 300.0
        )
        assert (moved, debits.tolist(), stalled.tolist()) == (0.0, [[0.0, 0.0], [0.0, 0.0]], [])
        assert finished.tolist() == []

    def test_progress_needs_an_open_order(self):
        state = make_state(make_vmdk(size_gb=100.0), tier=1, measured_read_mbps=100.0)
        tiers, _, log = self.setup_pair(state)
        fleet = pin(fleet_of([state], tiers), {"v1": 2})  # a destination but no order
        with pytest.raises(ValueError, match="open order"):
            progress_migrations(np.array([0]), fleet, log, 300.0)
        assert log.bytes_moved.tolist() == [0.0]

    def test_migration_debits_reduce_served_bandwidth(self):
        # bandwidth-saturated tier: served drops by exactly the migration rate
        tier = make_tier(1, 100.0, read_iops=1e9, write_iops=1e9,
                         read_mbps=500.0, write_mbps=1e5)
        member = make_state(make_vmdk(
            truth_slope=0.0, truth_intercept_us=1.0,
            demand_iops=600, avg_io_size_bytes=1_000_000, read_fraction=1.0,
        ))
        undisturbed = serve_tier(tier, [member])
        assert undisturbed.read_mbps == pytest.approx(500.0, rel=1e-9)
        mig_rate = 120.0  # MB/s claimed by a migration this epoch
        tm = serve_tier(tier, [member], migration_read_mbps=mig_rate)
        assert tm.read_mbps == pytest.approx(500.0 - mig_rate, rel=1e-9)
        assert tm.read_mbps + mig_rate <= tier.read_bandwidth_cap * (1 + 1e-12)


def reference_progress(orders, vmdk_states, tiers, served_read, served_write, epoch_seconds):
    """``progress_migrations`` as it was before the id-ordered book: it sorts every call.

    ``served_read`` and ``served_write`` are the tiers' last served MB/s; the
    debits come back as lists in tier order.
    """
    debit_read = {t.id: 0.0 for t in tiers}
    debit_write = {t.id: 0.0 for t in tiers}
    spare_read = {t.id: max(0.0, t.read_bandwidth_cap - r) for t, r in zip(tiers, served_read)}
    spare_write = {t.id: max(0.0, t.write_bandwidth_cap - w) for t, w in zip(tiers, served_write)}
    moved_total = 0.0
    stalled = []
    for order in sorted(orders, key=lambda o: o.vmdk_id):
        if order.done:
            continue
        v = vmdk_states[order.vmdk_id]
        read_side = (
            max(0.0, spare_read[order.from_tier] - debit_read[order.from_tier])
            + v.measured_read_mbps
        )
        write_side = max(0.0, spare_write[order.to_tier] - debit_write[order.to_tier])
        speed = min(read_side, write_side)
        order.speed_mbps = speed
        if speed <= 0.0:
            order.stalled = True
            stalled.append(order.vmdk_id)
            continue
        order.stalled = False
        left = order.bytes_total - order.bytes_moved
        moved = speed * 1e6 * epoch_seconds
        if moved < left:
            order.bytes_moved += moved
        else:
            moved, order.bytes_moved = left, order.bytes_total
        moved_total += moved
        rate = moved / epoch_seconds / 1e6
        debit_read[order.from_tier] += rate
        debit_write[order.to_tier] += rate
    return moved_total, list(debit_read.values()), list(debit_write.values()), stalled


def start_moves(fleet, log, moves, epoch):
    """``start_migrations`` of (VMDK id, from tier id, to tier id) ``moves``."""
    rows = np.array([fleet.roster.row[v] for v, _, _ in moves], dtype=np.intp)
    source, dest = (
        np.array([row_of_tier(fleet, move[k]) for move in moves], dtype=np.intp) for k in (1, 2)
    )
    return start_migrations(fleet, log, rows, source, dest, epoch)


def migration_epochs(seed, epochs=10, vmdks=(5, 30)):
    """Run the engine's migration book and the reference loop side by side on random epochs.

    Yields, per epoch: both progress results, both sets of finished VMDKs,
    every log record as it stands and the reference orders as tuples, the
    tiers and the VMDKs whose move started in that epoch. Tier loads range
    from idle to saturated (zero spare bandwidth), VMDK sizes from a few GB
    (finished in the first epoch) to hundreds, and any VMDK not moving may
    start a move, including the epoch after its last one finished. The
    fleet holds ``vmdks`` VMDKs, from the first up to the second.
    """
    rng = np.random.default_rng(seed)
    tiers = tuple(
        make_tier(i + 1, 50.0 * (i + 1),
                  read_mbps=float(rng.uniform(50, 800)), write_mbps=float(rng.uniform(50, 800)))
        for i in range(int(rng.integers(2, 5)))
    )
    states = [
        make_state(make_vmdk(f"v{j:03d}", size_gb=float(rng.choice([1.0, 30.0, 400.0]))),
                   tier=int(rng.integers(1, len(tiers) + 1)))
        for j in range(int(rng.integers(*vmdks)))
    ]
    fleet = fleet_of(states, tiers)
    roster = fleet.roster
    log = MigrationLog(roster.ids)
    reference_states = {s.spec.id: copy.deepcopy(s) for s in states}
    reference_log, active = [], {}
    for epoch in range(epochs):
        served_read, served_write = [], []
        for t in tiers:
            load = rng.choice([0.0, 1.0, rng.uniform(0, 1)], size=2).tolist()
            served_read.append(load[0] * t.read_bandwidth_cap)
            served_write.append(load[1] * t.write_bandwidth_cap)
        fleet.spare_mbps[:] = np.fmax(0.0, roster.device_caps[2:] - [served_read, served_write])
        measured = rng.choice([0.0, 20.0, 300.0], size=len(states))
        fleet.measured_mbps[0] = measured
        for v, value in zip(roster.ids, measured.tolist()):
            reference_states[v].measured_read_mbps = value
        current = dict(zip(roster.ids, roster.tier_ids[fleet.tier_row].tolist()))
        moves = sorted(
            (v, current[v], int(rng.choice([t.id for t in tiers if t.id != current[v]])))
            for v in roster.ids if rng.uniform() < 0.4
        )
        started = [roster.ids[j] for j in start_moves(fleet, log, moves, epoch).tolist()]
        for v, frm, to in moves:
            if v in started:
                size_gb = reference_states[v].spec.size_gb
                order = MigrationOrder(v, frm, to, size_gb * 1e9, epoch)
                reference_log.append(order)
                active[v] = order
        book = np.flatnonzero(fleet.dest_row >= 0)
        got = progress_migrations(book, fleet, log, 300.0)
        expected = reference_progress(
            list(active.values()), reference_states, tiers, served_read, served_write, 300.0
        )
        finished = got[3]
        fleet.move(finished)
        reference_finished = set()
        for v in sorted(active):
            if active[v].done:
                reference_states[v].current_tier = active[v].to_tier
                reference_finished.add(v)
                del active[v]
        stalled = [roster.ids[j] for j in got[2].tolist()]
        yield ((got[0], *got[1].tolist(), stalled), expected,
               {roster.ids[j] for j in finished.tolist()}, reference_finished,
               log_orders(log), [astuple(o) for o in reference_log], tiers, started)


@pytest.fixture
def settled(monkeypatch):
    """What ``_progress_passes`` returns on each book it sees, None where no pass settled."""
    results = []
    passes = engine._progress_passes

    def recording(*args):
        results.append(passes(*args))
        return results[-1]

    monkeypatch.setattr(engine, "_progress_passes", recording)
    return results


class TestMigrationBookMatchesReference:
    def check(self, epochs, settled):
        for got, expected, finished, reference_finished, records, reference_records, _, _ in (
            epochs
        ):
            assert got == expected
            assert finished == reference_finished
            assert [astuple(o) for o in records] == reference_records
            assert all(type(o.speed_mbps) is float and type(o.bytes_moved) is float
                       and type(o.from_tier) is int and type(o.stalled) is bool
                       for o in records)
            assert all(type(x) is float for x in (got[0], *got[1], *got[2]))
        assert None not in settled  # every book the passes saw settled
        assert settled or engine.PROGRESS_LOOP_ROWS > 0

    @pytest.mark.parametrize("seed", range(10))
    def test_bitwise_equal_to_the_sorting_loop(self, seed, settled):
        self.check(migration_epochs(seed), settled)

    @pytest.mark.parametrize("seed", range(4))
    def test_large_books_bitwise_equal_to_the_sorting_loop(self, seed, settled):
        self.check(migration_epochs(seed, epochs=6, vmdks=(100, 400)), settled)

    def test_cases_cover_every_edge(self, settled):
        seen = set()
        for seed in range(10):
            finished_at = {}
            for epoch, (got, _, finished, _, _, _, tiers, started) in enumerate(
                migration_epochs(seed)
            ):
                _, debit_read, debit_write, stalled = got
                seen.update(
                    name for name, hit in (
                        ("stall", bool(stalled)),
                        ("debit above cap", any(
                            r > t.read_bandwidth_cap or w > t.write_bandwidth_cap
                            for t, r, w in zip(tiers, debit_read, debit_write)
                        )),
                        ("finished in first epoch", any(v in finished for v in started)),
                        ("restarted next epoch", any(
                            finished_at.get(v) == epoch - 1 for v in started
                        )),
                    ) if hit
                )
                finished_at.update(dict.fromkeys(finished, epoch))
        assert len(seen) == 4
        assert None not in settled
        assert bool(settled) == (engine.PROGRESS_LOOP_ROWS == 0)  # the books hold < 30 rows


class TestMigrationBookOnTheFixedPointMatchesReference(TestMigrationBookMatchesReference):
    """The same books, every one of them advanced by the fixed-point passes."""

    @pytest.fixture(autouse=True)
    def cutover_at_zero(self, monkeypatch):
        monkeypatch.setattr(engine, "PROGRESS_LOOP_ROWS", 0)


class TestStallRule:
    @pytest.mark.parametrize("cutover", [0, 10**9])
    def test_every_order_of_a_bundled_run_stalls_where_its_speed_is_not_positive(
        self, cutover, monkeypatch
    ):
        # Both paths flag a stall by the one rule, speed <= 0.0, from the
        # speed they log; every order is progressed in the epoch it starts.
        monkeypatch.setattr(engine, "PROGRESS_LOOP_ROWS", cutover)
        stalls = set()
        for name in ("table3-table4", "spike", "tiny-oracle"):
            for policy in POLICY_NAMES:
                log = run_scenario(load_bundled_scenario(name), policy).migration_log
                assert log.stalled.tolist() == (log.speed_mbps <= 0.0).tolist()
                stalls.update(log.stalled.tolist())
        assert stalls == {False, True}


class TestDebitsBlock:
    @pytest.mark.parametrize("cutover", [0, 10**9])
    def test_every_book_of_a_bundled_run_debits_one_c_order_block(self, cutover, monkeypatch):
        # Each path's (2, T) debits are what serving reads and the run's
        # serve skip compares as bytes: the passes at a cutover of 0, the loop
        # at 10**9, and the empty book at either.
        monkeypatch.setattr(engine, "PROGRESS_LOOP_ROWS", cutover)
        progress, books = engine.progress_migrations, []

        def recording(rows, fleet, *args):
            result = progress(rows, fleet, *args)
            books.append((len(rows), len(fleet.roster.tiers), result[1]))
            return result

        monkeypatch.setattr(engine, "progress_migrations", recording)
        for name in ("table3-table4", "spike", "tiny-oracle"):
            for policy in POLICY_NAMES:
                run_scenario(load_bundled_scenario(name), policy)
        assert {rows > 0 for rows, _, _ in books} == {False, True}
        for _, t, debits in books:
            assert type(debits) is np.ndarray and debits.shape == (2, t)
            assert debits.dtype == np.float64 and debits.flags.c_contiguous


def random_book(tier_spares, moves):
    """A fleet and log whose book holds ``moves``, and its rows: ``(fleet, log, rows)``.

    ``tier_spares`` gives each tier's (read, write) spare MB/s. Each move is
    (size GB, source tier row, destination tier row, measured read MB/s,
    share of the move already done, logged speed, logged stall flag); a
    share of 1.0 is a finished move.
    """
    tiers = tuple(make_tier(i + 1, 100.0) for i in range(len(tier_spares)))
    states = [
        make_state(make_vmdk(f"v{j:03d}", size_gb=size), tier=source + 1, measured_read_mbps=measured)
        for j, (size, source, _, measured, *_) in enumerate(moves)
    ]
    fleet = fleet_of(states, tiers)
    fleet.spare_mbps[:] = list(zip(*tier_spares))
    log = MigrationLog(fleet.roster.ids)
    rows = np.arange(len(moves))
    source, dest, _, done, speed, stall = (np.array(column) for column in list(zip(*moves))[1:])
    start_migrations(fleet, log, rows, source, dest, 0)
    log.set_progress(rows, done * log.bytes_total, speed, stall)
    return fleet, log, rows


def result_bits(result, log):
    """A progress result and the log's progress columns, floats as their bytes."""
    moved, debits, stalled, finished = result
    return (
        np.float64(moved).tobytes(), debits.shape, debits.tobytes(), stalled.tolist(),
        finished.tolist(),
        log.bytes_moved.tobytes(), log.speed_mbps.tobytes(), log.stalled.tolist(),
    )


def both_paths(fleet, log, rows, epoch_seconds):
    """The bits of both rate searches on one book's arrays, loop first, and the passes' result.

    A side's bits are its bytes moved (and their type), its debits, and
    each row's bytes moved and speed; the passes give None where no pass
    settled. Neither search writes the arrays the two share.
    """
    k = fleet.order_index[rows]
    book = (fleet.tier_row[rows], fleet.dest_row[rows], fleet.measured_mbps[0, rows],
            fleet.spare_mbps, log.bytes_total[k], log.bytes_moved[k], epoch_seconds)
    before = [np.asarray(a).tobytes() for a in book]
    expected = engine._progress_loop(*book)
    got = engine._progress_passes(*book)
    assert [np.asarray(a).tobytes() for a in book] == before

    def bits(rates):
        moved, debits, moved_now, speed = rates
        return (type(moved), np.float64(moved).tobytes(), debits.shape, debits.tobytes(),
                moved_now.tobytes(), speed.tobytes())

    return bits(expected), got and bits(got), got


@st.composite
def books(draw):
    """A random book and its epoch length.

    It has 2-5 tiers (a move changes tiers), some with no spare at all (or
    -0.0); sizes from 1e-21 GB, whose rates a tier's debit absorbs below an
    ulp, to 500 GB, so that saturated tiers leave residues of a few ulps;
    finished moves; and NaN or negative measured read rates.
    """
    t = draw(st.integers(2, 5))
    spare = st.sampled_from([0.0, -0.0, 1e-9, 1.0, 100.0, 900.0]) | st.floats(0.0, 1000.0)
    tier_spares = draw(st.lists(st.tuples(spare, spare), min_size=t, max_size=t))
    size = st.sampled_from([1e-21, 1e-12, 1e-3, 0.03, 30.0]) | st.floats(1e-6, 500.0)
    measured = st.sampled_from([0.0, -5.0, 20.0, 300.0, np.nan]) | st.floats(0.0, 500.0)
    done = st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0)
    move = st.tuples(
        size, st.integers(0, t - 1), st.integers(1, t - 1), measured, done,
        st.sampled_from([0.0, 7.0, np.nan]), st.booleans(),
    ).map(lambda m: (m[0], m[1], (m[1] + m[2]) % t, *m[3:]))  # a destination off the source
    moves = draw(st.lists(move, min_size=1, max_size=40))
    return tier_spares, moves, draw(st.sampled_from([300.0, 60.0, 7.5, 0.1]))


class TestProgressPassesMatchLoop:
    """The fixed point against the scalar loop, bit for bit, on any book."""

    @given(books())
    def test_bitwise_equal_to_the_loop(self, book):
        tier_spares, moves, epoch_seconds = book
        fleet, log, rows = random_book(tier_spares, moves)
        # Pass p makes rows 0..p-1 exact, so n + 1 passes always settle: the
        # lane fill after pass 1 is no pass, and it keeps row 0's exact rate.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "PROGRESS_PASSES", len(rows) + 1)
            expected, got, _ = both_paths(fleet, log, rows, epoch_seconds)
        assert got == expected

    def test_the_lane_fill_settles_a_lane_that_runs_out_in_four_passes(self, monkeypatch):
        # Every output stays exact from any start; only the passes a book
        # takes show the start. 200 moves leave tier 1 for tier 2 and 200
        # more tier 3 for tier 2, 10 MB/s each alone. Tier 1's 100 MB/s of
        # reads lets the first 10 through; tier 2's 1000 MB/s of writes runs
        # out 90 moves into the second 200. From 0.0 the passes give the
        # second 200 all 10 MB/s, then none, then all, then the loop's
        # rates, and a fifth pass confirms them. The lane fill starts the
        # first 200 past tier 1's spare, and the second 200 past tier 2's,
        # at 0.0: one swing fewer.
        assert engine.PROGRESS_LOOP_ROWS < 400
        big = 1e5
        moves = [(3.0, source, 1, 0.0, 0.0, 0.0, False) for source in (0, 2) for _ in range(200)]
        fleet, log, rows = random_book([(100.0, big), (big, 1000.0), (big, big)], moves)
        monkeypatch.setattr(engine, "PROGRESS_PASSES", 3)
        assert both_paths(fleet, log, rows, 300.0)[1] is None
        monkeypatch.setattr(engine, "PROGRESS_PASSES", 4)
        expected, got, (_, debits, _, _) = both_paths(fleet, log, rows, 300.0)
        assert got == expected
        assert debits[1, 1] == 1000.0  # tier 2's writes
        moved, debits, stalled, finished = progress_migrations(rows, fleet, log, 300.0)
        assert finished.tolist() == [*range(10), *range(200, 290)] and len(stalled) == 300
        assert moved == 100 * 3e9 and debits[0, 0] == 100.0  # tier 1's reads

    def test_a_nan_speed_finishes_its_move_on_both_paths(self, monkeypatch):
        size = 49.91605619203594
        moves = [(size, 0, 1, np.nan, 0.25, 0.0, True), (30.0, 0, 1, 20.0, 0.0, 0.0, False)]
        fleet, log, rows = random_book([(500.0, 0.0), (0.0, 400.0)], moves)
        expected, got, _ = both_paths(fleet, log, rows, 300.0)
        assert got == expected
        left = log.bytes_total[0] - log.bytes_moved[0]
        monkeypatch.setattr(engine, "PROGRESS_LOOP_ROWS", 0)
        moved, debits, stalled, finished = progress_migrations(rows, fleet, log, 300.0)
        assert finished.tolist() == [0, 1] and stalled.tolist() == []
        assert moved == left + 30e9  # the second move takes 100 MB/s and finishes too
        assert debits[0, 0] == debits[1, 1] == left / 300.0 / 1e6 + 100.0
        assert log.bytes_moved[0] == log.bytes_total[0]
        assert np.isnan(log.speed_mbps[0]) and not log.stalled[0]

    def test_a_book_no_pass_settles_falls_back_to_the_same_bits(self, monkeypatch):
        rng = np.random.default_rng(3)
        moves = [
            (float(rng.uniform(1.0, 60.0)), j % 3, (j + 1) % 3, 20.0, 0.0, 0.0, False)
            for j in range(12)
        ]
        fleet, log, rows = random_book([(300.0, 200.0)] * 3, moves)
        loop_log = copy.deepcopy(log)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "PROGRESS_LOOP_ROWS", 10**9)
            expected = result_bits(progress_migrations(rows, fleet, loop_log, 300.0), loop_log)
        monkeypatch.setattr(engine, "PROGRESS_LOOP_ROWS", 0)
        monkeypatch.setattr(engine, "PROGRESS_PASSES", 1)
        calls, settled = [], []
        bound, passes = engine.progress_migrations, engine._progress_passes
        monkeypatch.setattr(engine, "progress_migrations", lambda *a: calls.append(a) or bound(*a))
        monkeypatch.setattr(
            engine, "_progress_passes", lambda *a: settled.append(passes(*a)) or settled[-1]
        )
        result = engine.progress_migrations(rows, fleet, log, 300.0)
        assert settled == [None] and len(calls) == 1  # the fallback runs the loop directly
        assert result_bits(result, log) == expected


class TestMigrationChecks:
    """Starting a plan's moves and logging their progress refuse impossible orders."""

    def fleet(self):
        tiers = (make_tier(1, 100.0), make_tier(2, 300.0))
        states = [make_state(make_vmdk(v, size_gb=10.0), tier=1) for v in ("a", "b")]
        return fleet_of(states, tiers)

    @pytest.mark.parametrize("moves, message", [
        ((("a", 1, 2), ("b", 1, 1)), "migration must change tiers"),
        ((("a", 2, 1),), "migration must start from the VMDK's current tier"),
    ])
    def test_refused_moves_start_nothing(self, moves, message):
        fleet = self.fleet()
        log = MigrationLog(fleet.roster.ids)
        with pytest.raises(ValueError, match=message):
            start_moves(fleet, log, moves, 0)
        assert len(log) == 0
        assert fleet.dest_row.tolist() == [-1, -1]
        assert fleet.order_index.tolist() == [-1, -1]

    def test_size_must_be_positive(self):
        roster = self.fleet().roster
        fleet = Fleet.of(replace(roster, size_gb=np.array([10.0, 0.0])))
        log = MigrationLog(roster.ids)
        with pytest.raises(ValueError, match="bytesTotal must be positive"):
            start_moves(fleet, log, (("b", 1, 2),), 0)
        assert len(log) == 0
        assert fleet.dest_row.tolist() == [-1, -1]

    @pytest.mark.parametrize(
        "moved", [-1.0, 10e9 * (1 + 1e-15), np.nan, np.nextafter(10e9, np.inf)]
    )
    def test_recorded_bytes_must_be_in_range(self, moved):
        fleet = self.fleet()
        log = MigrationLog(fleet.roster.ids)
        rows = start_moves(fleet, log, (("a", 1, 2), ("b", 1, 2)), 0)
        with pytest.raises(ValueError, match=r"bytesMoved out of \[0, bytesTotal\]"):
            log.set_progress(fleet.order_index[rows], [10e9, moved], [1.0, 1.0], [False, False])
        assert log.bytes_moved.tolist() == [0.0, 0.0]

    def test_moves_of_moving_vmdks_wait(self):
        fleet = self.fleet()
        log = MigrationLog(fleet.roster.ids)
        assert start_moves(fleet, log, (("b", 1, 2),), 0).tolist() == [1]
        rows = start_moves(fleet, log, (("b", 1, 2), ("a", 1, 2)), 3)
        assert rows.tolist() == [0]
        assert fleet.order_index.tolist() == [1, 0]
        assert [(o.vmdk_id, o.started_epoch) for o in log_orders(log)] == [("b", 0), ("a", 3)]

class TestRunScenario:
    def tiny(self, epochs=6, **kw):
        tiers = (
            make_tier(1, 100.0, ResourceVector(50_000, 500, 200),
                      read_iops=50_000, write_iops=20_000,
                      read_mbps=500, write_mbps=300),
            make_tier(2, 400.0, ResourceVector(30_000, 300, 1000),
                      read_iops=30_000, write_iops=10_000,
                      read_mbps=300, write_mbps=200),
        )
        vmdks = (
            make_vmdk("hot", size_gb=50, initial_tier=2, truth_slope=0.6,
                      truth_intercept_us=8.0, demand_iops=20_000),
            make_vmdk("cold", size_gb=150, initial_tier=1, truth_slope=0.02,
                      truth_intercept_us=90.0, demand_iops=2_000),
        )
        sim = SimulationConfig(epochs=epochs, epoch_seconds=300.0,
                               noise_cv=kw.get("noise_cv", 0.02), seed=kw.get("seed", 5))
        return Scenario(tiers=tiers, vmdks=vmdks,
                        weights=PolicyWeights(samples_per_latency=4), sim=sim)

    def test_zero_epochs_empty_series(self):
        result = run_scenario(replace(self.tiny(), sim=SimulationConfig(epochs=0)), "idt")
        assert len(result.epochs) == len(result.migration_bytes) == len(result.flags) == 0
        assert result.plans == []

    def test_a_negative_seed_override_is_refused_before_anything_draws(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            run_scenario(self.tiny(), "autotiering", seed=-1)
        for seed in (True, 2.0):
            with pytest.raises(ValueError, match="^seed must be an integer$"):
                run_scenario(self.tiny(), "idt", seed=seed)

    def test_a_migration_epoch_at_the_int64_bound_runs(self):
        doc = json.loads(bundled_scenario_text("tiny-oracle"))
        doc["policyWeights"]["migrationEpoch"] = 2**63 - 1
        result = run_scenario(parse_scenario(json.dumps(doc)), "autotiering")
        assert len(result.epochs) == doc["simulation"]["epochs"]
        assert [plan.epoch_index for plan in result.plans] == [0]

    def test_a_seed_override_is_the_run_seed(self):
        scenario = self.tiny(seed=5)
        assert run_scenario(scenario, "idt").seed == 5
        assert run_scenario(scenario, "idt", seed=0).seed == 0
        assert metrics_csv_text(run_scenario(scenario, "autotiering", seed=5)) == metrics_csv_text(
            run_scenario(scenario, "autotiering")
        )

    @pytest.mark.parametrize("policy", ["autotiering", "idt", "edt"])
    def test_identical_runs_are_bit_identical(self, policy):
        scenario = self.tiny()
        a = run_scenario(scenario, policy, seed=123)
        b = run_scenario(scenario, policy, seed=123)
        assert metrics_csv_text(a) == metrics_csv_text(b)

    @pytest.mark.parametrize("policy, other", [("autotiering", "idt"), ("idt", "edt"), ("edt", "idt")])
    def test_a_second_run_leaves_the_first_results_states_alone(self, policy, other):
        scenario = load_bundled_scenario("table3-table4")
        first = run_scenario(scenario, policy)
        eager = repr(final_states(first))
        second = run_scenario(scenario, other)
        assert repr(final_states(second)) != eager  # the second run ends elsewhere
        assert repr(final_states(first)) == eager

    def test_policy_moves_the_sensitive_vmdk_up(self):
        result = run_scenario(self.tiny(epochs=9), "autotiering")
        assert final_states(result)["hot"].current_tier == 1

    def test_sizes_never_change(self):
        scenario = self.tiny(epochs=9)
        final = final_states(run_scenario(scenario, "autotiering"))
        for spec in scenario.vmdks:
            assert final[spec.id].spec.size_gb == spec.size_gb

    @pytest.mark.parametrize("policy", ["autotiering", "idt", "edt"])
    def test_runs_and_artifacts_build_no_order_objects(self, policy, tmp_path):
        # The package has no per-order record type: runs and artifacts read
        # the log's columns, and only tests build MigrationOrder records.
        assert not hasattr(model, "MigrationOrder") and not hasattr(MigrationLog, "__iter__")
        result = run_scenario(load_bundled_scenario("table3-table4"), policy, seed=0)
        write_run_artifacts(result, tmp_path)
        assert len(result.migration_log) > 0

    @pytest.mark.parametrize("policy", ["autotiering", "idt", "edt"])
    def test_tier_budgets_are_built_once_per_scenario(self, policy, monkeypatch):
        scenario = load_bundled_scenario("table3-table4")
        built = []
        check = ResourceVector.__post_init__

        def count(vector):
            built.append(vector)
            check(vector)

        monkeypatch.setattr(ResourceVector, "__post_init__", count)
        result = run_scenario(scenario, policy, seed=0)
        assert len(result.plans) > 1
        assert len(built) == len(scenario.tiers)
        built.clear()
        run_scenario(scenario, policy, seed=0)
        assert built == []

        # A replaced scenario builds a roster of its own from its own specs.
        spec = scenario.vmdks[0]
        phase = replace(spec.demand_profile[0], demand_iops=spec.demand_profile[0].demand_iops + 7)
        changed = replace(scenario, vmdks=(
            replace(spec, demand_profile=(phase, *spec.demand_profile[1:])), *scenario.vmdks[1:]
        ))
        served = []

        def demand(epoch, plan, policy_obj, ctx):
            served.append((epoch, ctx.fleet.demand[0, ctx.fleet.roster.row[spec.id]]))

        run_scenario(changed, policy, seed=0, on_plan=demand)
        assert served[0] == (0, phase.demand_iops)

    @pytest.mark.parametrize("name", ["table3-table4", "spike"])
    def test_runs_sharing_a_scenario_write_what_fresh_scenarios_do(self, name, tmp_path):
        shared = load_bundled_scenario(name)
        for k, policy in enumerate(("idt", "edt", "idt")):
            write_run_artifacts(run_scenario(shared, policy, seed=3), tmp_path / f"shared{k}")
            fresh = parse_scenario(bundled_scenario_text(name))
            write_run_artifacts(run_scenario(fresh, policy, seed=3), tmp_path / f"fresh{k}")
            assert artifact_bytes(tmp_path / f"shared{k}") == artifact_bytes(tmp_path / f"fresh{k}")

    def test_concurrent_runs_on_a_fresh_scenario_write_the_sequential_artifacts(self, tmp_path):
        # More threads than cores, switching often, all starting on a scenario
        # whose roster is not built yet: each run must write what it writes alone.
        policies = ("autotiering", "idt", "edt", "idt")
        alone = {}
        for policy in set(policies):
            scenario = parse_scenario(bundled_scenario_text("table3-table4"))
            write_run_artifacts(run_scenario(scenario, policy), tmp_path / f"alone-{policy}")
            alone[policy] = artifact_bytes(tmp_path / f"alone-{policy}")
        scenario = parse_scenario(bundled_scenario_text("table3-table4"))
        start = threading.Barrier(len(policies))

        def run(k, policy):
            start.wait(timeout=60)
            write_run_artifacts(run_scenario(scenario, policy), tmp_path / f"shared{k}")
            return artifact_bytes(tmp_path / f"shared{k}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(policies)) as pool:
                futures = [pool.submit(run, k, policy) for k, policy in enumerate(policies)]
                written = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert written == [alone[policy] for policy in policies]

    @pytest.mark.parametrize("policy", ["autotiering", "idt", "edt"])
    def test_policies_read_a_read_only_view_of_the_fleet(self, policy):
        contexts = []
        tier_views = []

        def write(epoch, plan, policy_obj, ctx):
            contexts.append(ctx)
            tier_views.append((
                epoch, ctx.fleet.contention.copy(), ctx.fleet.spare_mbps[0].copy()
            ))
            with pytest.raises(ValueError, match="read-only"):
                ctx.fleet.measured_iops[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                ctx.fleet.tier_row[0] = 0
            for name in ("contention", "spare_mbps", "demand", "measured_mbps"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(ctx.fleet, name)[0] = 1.0
            with pytest.raises(TypeError):
                ctx.fleet.roster.row["new"] = 0
            with pytest.raises(ValueError, match="read-only"):
                ctx.fleet.roster.size_gb[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                ctx.fleet.dest_row[0] = 0

        result = run_scenario(self.tiny(epochs=9), policy, on_plan=write)
        assert len(contexts) == 3 and all(ctx is contexts[0] for ctx in contexts)
        # The tier rows follow serving: at the second plan they hold the epoch before it.
        epoch, contention, spare_read = tier_views[1]
        assert (contention >= 1.0).all()
        previous = result.epochs[epoch - 1, :-1, TIER_FIGURES.index("read_mbps")].tolist()
        assert previous != [0.0, 0.0]
        # Migration debits only take spare bandwidth away.
        assert all(
            spare <= max(0.0, t.read_bandwidth_cap - read_mbps)
            for t, spare, read_mbps in zip(contexts[0].tiers, spare_read.tolist(), previous)
        )
        fleet = contexts[0].fleet
        final = [final_states(result)[v] for v in fleet.roster.ids]
        assert fleet.measured_iops.tolist() == [s.measured_iops for s in final]
        assert fleet.roster.tier_ids[fleet.tier_row].tolist() == [s.current_tier for s in final]
        assert all(type(s.current_tier) is int and type(s.measured_iops) is float for s in final)

    @pytest.mark.parametrize("policy", ["autotiering", "idt", "edt"])
    def test_in_flight_vmdks_keep_their_destination(self, policy):
        pinned_plans = []

        def check(epoch, plan, policy_obj, ctx):
            fleet = ctx.fleet
            rows = np.flatnonzero(fleet.dest_row >= 0).tolist()
            moving = {v for v, _, _ in keyed_plan(plan).migrations}
            for j in rows:
                vmdk_id = fleet.roster.ids[j]
                assert plan.target[vmdk_id] == fleet.roster.tiers[fleet.dest_row[j]].id
                assert vmdk_id not in moving
            pinned_plans.append(bool(rows))

        run_scenario(load_bundled_scenario("table3-table4"), policy, seed=0, on_plan=check)
        assert any(pinned_plans)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            run_scenario(self.tiny(), "lru")

    def test_serve_conservation_across_random_runs(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            scenario = random_scenario(rng, epochs=5)
            for policy in ("autotiering", "idt", "edt"):
                result = run_scenario(scenario, policy)
                for em in epoch_records(result):
                    for tier in scenario.tiers:
                        tm = em.per_tier[tier.id]
                        assert tm.read_iops <= tier.read_throughput_cap * (1 + 1e-9)
                        assert tm.write_iops <= tier.write_throughput_cap * (1 + 1e-9)
                        assert tm.read_mbps <= tier.read_bandwidth_cap * (1 + 1e-9)
                        assert tm.write_mbps <= tier.write_bandwidth_cap * (1 + 1e-9)


def flag_rows(flags: np.ndarray, bit: int) -> list[list[int]]:
    """Per epoch, the fleet rows whose ``flags`` have ``bit`` set, in row order."""
    return [np.flatnonzero(row & bit).tolist() for row in flags]


def check_flags(scenario, policy) -> tuple[int, int]:
    """Check a run's flags against its plans, its log and each epoch's book of moves.

    Returns how many rows the run flagged OVERLOADED and STALLED in all.
    """
    books = []
    progress = engine.progress_migrations
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "progress_migrations",
                      lambda rows, *args: books.append(set(rows.tolist())) or progress(rows, *args))
        result = run_scenario(scenario, policy)
    log, plans = result.migration_log, {plan.epoch_index: plan for plan in result.plans}
    assert result.flags.dtype == np.uint8 and len(books) == len(result.flags)
    assert not (result.flags & ~np.uint8(STARTED | OVERLOADED | STALLED)).any()
    overloads = stalls = 0
    for epoch, (started, overloaded, stalled, book) in enumerate(zip(
        flag_rows(result.flags, STARTED), flag_rows(result.flags, OVERLOADED),
        flag_rows(result.flags, STALLED), books,
    )):
        assert started == log.row[log.started_epoch == epoch].tolist()  # logged in row order
        plan = plans.get(epoch)
        expected = [] if plan is None else plan.overloaded_rows.tolist()
        assert len(set(expected)) == len(expected)
        assert overloaded == sorted(expected)
        assert set(stalled) <= book  # only a move in flight stalls
        overloads, stalls = overloads + len(overloaded), stalls + len(stalled)
    return overloads, stalls


class TestRunRecordFlags:
    """Each fleet row's STARTED, OVERLOADED and STALLED bits name what the run did to it."""

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("name", ["table3-table4", "spike", "tiny-oracle"])
    def test_bundled_flags_match_the_plans_and_the_log(self, name, policy):
        overloads, _ = check_flags(load_bundled_scenario(name), policy)
        assert overloads == 0  # no bundled plan overloads a tier

    @settings(max_examples=40)
    @given(doc=scenario_documents())
    def test_generated_flags_match_the_plans_and_the_log(self, doc):
        scenario = validate_scenario(doc)
        for policy in POLICY_NAMES:
            overloads, stalls = check_flags(scenario, policy)
            event(f"{policy} overloads" if overloads else f"{policy} never overloads")
            event(f"{policy} stalls" if stalls else f"{policy} never stalls")


def multi_phase(scenario, rng):
    """``scenario`` with 1-4 demand phases per VMDK, some starting at or past the end."""
    epochs = scenario.sim.epochs
    vmdks = []
    for j, spec in enumerate(scenario.vmdks):
        starts = sorted(rng.choice(np.arange(1, epochs + 4), int(rng.integers(0, 4)), False))
        if j == 0:
            starts = [max(epochs, 1)]
        elif j == 1:
            starts = [1, epochs + 5]
        phases = [spec.demand_profile[0]] + [
            WorkloadPhase(
                int(start),
                float(rng.uniform(0, 120_000)),
                float(rng.uniform(512, 65_536)),
                float(rng.uniform(0.0, 1.0)),
            )
            for start in starts
        ]
        vmdks.append(replace(spec, demand_profile=tuple(phases)))
    weights = replace(scenario.weights, monitor_epoch=1, migration_epoch=1)
    return replace(scenario, vmdks=tuple(vmdks), weights=weights)


def phase_key(phase_or_state):
    return (
        phase_or_state.demand_iops,
        phase_or_state.avg_io_size_bytes,
        phase_or_state.read_fraction,
    )


class TestPhaseSchedule:
    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_every_epoch_sees_the_phase_that_spec_names(self, seed):
        rng = np.random.default_rng(seed)
        scenario = multi_phase(random_scenario(rng, epochs=7), rng)
        for policy in ("autotiering", "idt", "edt"):
            seen = []

            def check(epoch, plan, policy_obj, ctx):
                seen.append(epoch)
                fleet = ctx.fleet
                for spec in scenario.vmdks:
                    j = fleet.roster.row[spec.id]
                    demand_iops, read_fraction, io_size = fleet.demand[:, j]
                    assert (demand_iops, io_size, read_fraction) == phase_key(phase_at(spec, epoch))

            run_scenario(scenario, policy, on_plan=check)
            assert seen == list(range(scenario.sim.epochs))

    def test_zero_epochs_leave_the_first_phase_active(self):
        rng = np.random.default_rng(9)
        scenario = multi_phase(random_scenario(rng, epochs=0), rng)
        result = run_scenario(scenario, "autotiering")
        assert len(result.epochs) == 0
        final = final_states(result)
        for spec in scenario.vmdks:
            assert phase_key(final[spec.id]) == phase_key(spec.demand_profile[0])


# The fleet columns serving writes. It reads none of them.
SERVE_WRITES = ("contention", "spare_mbps", "measured_iops", "measured_latency_us", "measured_mbps")


def fleet_copy(fleet):
    """A fleet on ``fleet``'s roster with copies of its run columns."""
    return replace(fleet, **{f.name: getattr(fleet, f.name).copy() for f in fields(fleet)[1:]})


def written(fleet):
    """The bytes of each column serving writes."""
    return [getattr(fleet, name).tobytes() for name in SERVE_WRITES]


def serve_trace(scenario, policy, debits=None):
    """Run ``scenario``; return its result, the epochs it served and what each epoch's serve gives.

    Right after each epoch's migration progress, a copy of the fleet is
    served with that epoch's debits: the trace keeps the copy's tier figures
    and written columns, the fleet's written columns before the run serves
    or skips, and the bytes of the ``tier_row`` and ``demand`` that serving
    reads. ``debits``, a (2, T) array of read and write MB/s, replaces the
    debits that progress reports.
    """
    serve, progress = engine.serve_epoch, engine.progress_migrations
    served, trace = [], []

    def progress_and_serve_a_copy(rows, fleet, *args):
        moved, taken, stalled, finished = progress(rows, fleet, *args)
        if debits is not None:
            taken = debits
        other = fleet_copy(fleet)
        read = (fleet.tier_row.tobytes(), fleet.demand.tobytes())
        trace.append((serve(other, taken).T, written(other), written(fleet), read))
        return moved, taken, stalled, finished

    def counted_serve(*args):
        served.append(len(trace) - 1)
        return serve(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "progress_migrations", progress_and_serve_a_copy)
        patch.setattr(engine, "serve_epoch", counted_serve)
        result = run_scenario(scenario, policy)
    return result, served, trace


def check_skips(scenario, policy):
    """Every skipped epoch carries what serving would give; returns how many it skipped."""
    result, served, trace = serve_trace(scenario, policy)
    t = len(scenario.tiers)
    assert served[:1] == [0] or not len(trace)
    for epoch, (figures, columns, before, _) in enumerate(trace):
        assert figures.tobytes() == result.epochs[epoch, :t].tobytes()
        if epoch not in served:
            assert columns == before  # a skip writes nothing, so these are the columns after
    return len(trace) - len(served)


def check_schedule(scenario, policy):
    """With constant debits, serving follows changes to ``tier_row`` and ``demand`` alone.

    A run serves at its first epoch and at each epoch whose ``tier_row`` or
    ``demand`` differs bit for bit from the epoch before; returns those later epochs.
    """
    t = len(scenario.tiers)
    _, served, trace = serve_trace(scenario, policy, np.array(([1.0] * t, [2.0] * t)))
    changed = [e for e in range(1, len(trace)) if trace[e][-1] != trace[e - 1][-1]]
    assert served == [0, *changed][:len(trace)]
    return changed


class TestServeSkip:
    """An epoch whose serve inputs have not changed carries the last serve forward."""

    @pytest.mark.parametrize("name", ["table3-table4", "spike", "tiny-oracle"])
    def test_serving_reads_none_of_the_columns_it_writes(self, name):
        fleet = Fleet.of(load_bundled_scenario(name).roster)
        rng = np.random.default_rng(0)
        caps = fleet.roster.device_caps[2:]
        debits = rng.uniform(0.0, 1.5, caps.shape) * caps
        serve_epoch(fleet, debits)
        other = fleet_copy(fleet)
        n, t = len(fleet.tier_row), len(fleet.roster.tiers)
        other.dest_row[:] = rng.integers(-1, t, n)
        other.order_index[:] = rng.integers(-1, 2 * n, n)
        for key in SERVE_WRITES:
            column = getattr(other, key)
            column[:] = rng.uniform(-1e6, 1e6, column.shape)
            column[rng.random(column.shape) < 0.25] = np.nan
        figures = serve_epoch(fleet, debits)
        assert serve_epoch(other, debits).tobytes() == figures.tobytes()
        assert written(other) == written(fleet)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("name", ["table3-table4", "spike", "tiny-oracle"])
    def test_a_bundled_run_skips_only_what_serving_would_repeat(self, name, policy):
        assert check_skips(load_bundled_scenario(name), policy) > 0

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("name", ["table3-table4", "spike", "tiny-oracle"])
    def test_a_bundled_run_serves_where_what_serving_reads_changed_alone(self, name, policy):
        assert check_schedule(load_bundled_scenario(name), policy)

    @settings(max_examples=40)
    @given(doc=scenario_documents())
    def test_a_generated_run_serves_after_each_change_alone(self, doc):
        scenario = validate_scenario(doc)
        for policy in POLICY_NAMES:
            skipped = check_skips(scenario, policy)
            changed = check_schedule(scenario, policy)
            event(f"{policy} skips" if skipped else f"{policy} never skips")
            event(f"{policy} reads a change" if changed else f"{policy} reads none")
        repeats = set(scenario.roster.due) & set(range(1, scenario.sim.epochs)) - set(changed)
        event("a phase start repeats the demand" if repeats else "no phase start repeats it")


def numeric_fields(node, path=()):
    """The path of every number in a document, depth first."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_fields(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from numeric_fields(value, (*path, i))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def set_field(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


class TestRunsReportNoIeeeException:
    """An accepted document's run prints no numpy RuntimeWarning: it runs, or is refused by name."""

    @pytest.mark.parametrize("name, path, value, policy, refusal", [
        ("table3-table4", ("vmdks", 5, "sizeGb"), 5e-324, "edt", ""),  # iops / size overflows
        ("tiny-oracle", ("vmdks", 5, "sizeGb"), 5e-324, "edt", ""),
        ("tiny-oracle", ("vmdks", 3, "sizeGb"), 1.7e308, "autotiering", ""),  # mig_cost_seconds
        ("tiny-oracle", ("vmdks", 4, "demandProfile", 0, "avgIoSizeBytes"), 1.7e308,
         "autotiering", "error: VMDK 'archive': mean sampled latency reaches the calibration "
         "limit of 1e+290 us\n"),
    ])
    def test_an_extreme_field_prints_no_warning(self, name, path, value, policy, refusal,
                                                tmp_path, capsys):
        doc = json.loads(bundled_scenario_text(name))
        set_field(doc, path, value)
        scenario_path = tmp_path / "extreme.json"
        scenario_path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--scenario", str(scenario_path), "--policy", policy,
                         "--out", str(tmp_path / "out")])
        assert (code, capsys.readouterr().err) == (2 if refusal else 0, refusal)

    EXTREMES = (0, 5e-324, 1e-300, 1.0, 1e100, 1e300, 1.7e308)

    @pytest.mark.parametrize("seed", range(3))
    def test_a_seeded_sweep_of_extreme_documents_prints_no_warning(self, seed):
        # Each document sets one to three numbers of tiny-oracle to an extreme.
        base = json.loads(bundled_scenario_text("tiny-oracle"))
        base["simulation"]["epochs"] = 7
        paths = list(numeric_fields(base))
        rng = random.Random(seed)
        runs = 0
        for _ in range(60):
            doc = copy.deepcopy(base)
            for path in rng.sample(paths, rng.randint(1, 3)):
                set_field(doc, path, rng.choice(self.EXTREMES))
            try:
                scenario = validate_scenario(doc)
            except ScenarioValidationError:
                continue
            for policy in POLICY_NAMES:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    try:
                        run_scenario(scenario, policy)
                    except ValueError as exc:
                        assert str(exc).startswith("VMDK ")  # a calibration refusal, named
                runs += 1
        assert runs >= 60
