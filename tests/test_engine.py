"""Device model, serving with contention, migration execution, full runs."""

import copy
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, replace

import numpy as np
import pytest

from autotier import model
from autotier.calibration import collect_samples, estimate_avg_lat, regress_latency_curve
from autotier.engine import (
    probe_latencies,
    progress_migrations,
    run_scenario,
    start_migrations,
    TierEpochMetrics,
    serve_epoch,
)
from autotier.model import (
    Fleet,
    MigrationLog,
    PolicyWeights,
    ResourceVector,
    Scenario,
    SimulationConfig,
    WorkloadPhase,
)
from autotier.reporting import metrics_csv_text, write_run_artifacts
from autotier.scenario import bundled_scenario_text, load_bundled_scenario, parse_scenario

from conftest import (
    MigrationOrder,
    fleet_of,
    keyed_plan,
    log_orders,
    make_state,
    make_tier,
    make_vmdk,
    phase_at,
    pin,
    random_scenario,
    row_of_tier,
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


def probe(fleet, *args):
    """``probe_latencies`` over every row of ``fleet``."""
    return probe_latencies(fleet, range(len(fleet.roster.ids)), *args)


class TestDeviceModel:
    """The latency model as noiseless probes see it."""

    def one_probe(self, tier, spec, added_us, contention=1.0):
        fleet = probe_fleet([make_state(spec, tier=tier.id)], [tier], [contention])
        return probe(fleet, [added_us], 1, np.random.default_rng(0), 0.0)[0, 0, 0]

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


def reference_samples(fleet, added_us, samples, rng, noise_cv):
    """(N, L, S) samples from the reference loop: VMDKs x latencies x samples."""
    contention = fleet.contention.tolist()
    return np.array([
        [
            [
                reference_probe(spec, d, fleet.roster.tiers[t], contention[t], rng, noise_cv)
                for _ in range(samples)
            ]
            for d in added_us
        ]
        for spec, t in zip(fleet.roster.specs, fleet.tier_row.tolist())
    ])


def probe_setup():
    """Three VMDKs on two tiers, one of them contended."""
    tiers = (make_tier(1, 100.0), make_tier(2, 400.0))
    states = [
        make_state(make_vmdk("a", truth_slope=0.4, truth_intercept_us=30.0), tier=1),
        make_state(make_vmdk("b", truth_slope=1.3, truth_intercept_us=210.0), tier=2),
        make_state(make_vmdk("c", truth_slope=0.0, truth_intercept_us=5.0), tier=2),
    ]
    return probe_fleet(states, tiers, [1.0, 1.7])


def single(tier_base=100.0, slope=1.0, intercept=200.0):
    state = make_state(make_vmdk(truth_slope=slope, truth_intercept_us=intercept))
    return probe_fleet([state], [make_tier(1, tier_base)])


class TestProbeLatencies:
    def test_noiseless_probe_is_exact(self):
        fleet = single()
        rng = np.random.default_rng(0)
        samples = probe(fleet, [1000.0], 1, rng, 0.0)
        assert samples[0, 0, 0] == pytest.approx(1300.0)

    def test_zero_injection_gives_bare_latency(self):
        fleet = single()
        rng = np.random.default_rng(0)
        assert probe(fleet, [0.0], 1, rng, 0.0)[0, 0, 0] == pytest.approx(300.0)

    def test_fixed_seed_reproduces_sequence(self):
        fleet = single(slope=0.1, intercept=20.0)

        def draw(seed):
            return probe(fleet, [0.0], 3, np.random.default_rng(seed), 0.05)

        a, b = draw(3), draw(3)
        assert not np.array_equal(a, draw(4))
        assert np.array_equal(a, b)

    def test_samples_stay_positive(self):
        fleet = single(slope=0.0, intercept=1.0)
        rng = np.random.default_rng(1)
        samples = probe(fleet, [0.0], 500, rng, 3.0)
        assert (samples > 0).all()

    @pytest.mark.parametrize("noise_cv,seed", [(0.0, 11), (0.05, 12), (3.0, 13)])
    def test_matches_reference_stream_bitwise(self, noise_cv, seed):
        fleet = probe_setup()
        plan = (0.0, 500.0, 1000.0, 2000.0)
        batched_rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        batched = probe(fleet, plan, 2, batched_rng, noise_cv)
        reference = reference_samples(fleet, plan, 2, reference_rng, noise_cv)
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
        fleet = probe_setup()
        plan = (0.0, 500.0, 1000.0, 2000.0)
        batched_rng = np.random.default_rng(6)
        reference_rng = np.random.default_rng(6)
        batched = probe(fleet, plan, 2, batched_rng, 1.0)
        reference = reference_samples(fleet, plan, 2, reference_rng, 1.0)
        assert batched.tobytes() == reference.tobytes()
        assert batched_rng.standard_normal() == reference_rng.standard_normal()


MEASURED = ("measured_iops", "measured_latency_us", "measured_read_mbps", "measured_write_mbps")


def serve_tier(tier, members, migration_read_mbps=0.0, migration_write_mbps=0.0):
    """``serve_epoch`` on a one-tier fleet; ``members`` get the fleet's measurements."""
    fleet = fleet_of(members, [tier])
    metrics = serve_epoch(fleet, [migration_read_mbps], [migration_write_mbps])[0]
    served = {state.spec.id: state for state in fleet.states()}
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
    @pytest.mark.parametrize("seed", range(8))
    def test_bitwise_equal_to_the_member_loop(self, seed):
        rng = np.random.default_rng(seed)
        n_tiers = int(rng.integers(1, 5))
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
        fleet.contention[:] = contended  # serving sets it afresh from the load
        served = serve_epoch(fleet, debit_read, debit_write)
        states = fleet.states()

        assert [astuple(m) for m in served] == [astuple(m) for m in expected]
        measured = lambda s: (
            s.measured_iops, s.measured_latency_us, s.measured_read_mbps, s.measured_write_mbps
        )
        assert [measured(s) for s in states] == [measured(s) for s in reference_states]
        assert fleet.contention.tolist() == list(expected_contention)
        assert fleet.spare_read_mbps.tolist() == [
            max(0.0, t.read_bandwidth_cap - (m.read_mbps + r))
            for t, m, r in zip(tiers, expected, debit_read)
        ]
        assert fleet.spare_write_mbps.tolist() == [
            max(0.0, t.write_bandwidth_cap - (m.write_mbps + w))
            for t, m, w in zip(tiers, expected, debit_write)
        ]
        assert all(type(x) is float for m in served for x in astuple(m))
        assert all(type(x) is float for s in states for x in measured(s))

    def test_cases_cover_every_edge(self):
        seen = set()
        for seed in range(8):
            rng = np.random.default_rng(seed)
            tiers, states = random_fleet(rng, int(rng.integers(1, 5)))
            fleet = fleet_of(states, tiers)
            served = serve_epoch(
                fleet, [2 * t.read_bandwidth_cap for t in tiers], [0.0] * len(tiers),
            )
            states = fleet.states()
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
        metrics = serve_epoch(fleet, [1500.0, 0.0, 100.0], [0.0, np.nan, 50.0])
        third = metrics[2]
        assert third.read_mbps > 0.0 and third.write_mbps > 0.0
        assert fleet.spare_read_mbps.tolist() == [
            0.0, 1000.0 - metrics[1].read_mbps, 1000.0 - (third.read_mbps + 100.0),
        ]
        assert fleet.spare_write_mbps.tolist() == [
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
            ["v1"], lambda ids, d, n: probe(fleet, d, n, rng, 0.0),
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
        fleet.spare_read_mbps[0] = 500.0
        fleet.spare_write_mbps[1] = 400.0
        moved, debit_r, debit_w, stalled, finished = progress_migrations(
            np.array([0]), fleet, log, 300.0
        )
        # speed min(500-100+100, 500-100) = 400 MB/s, 100 GB needs 250 s < epoch
        assert finished.tolist() == [0]
        assert log.bytes_moved.tolist() == [100e9]
        assert log.speed_mbps.tolist() == [400.0]
        assert not log.stalled[0]
        assert moved == pytest.approx(100e9)
        assert stalled == []
        assert debit_r[0] == pytest.approx(100e9 / 300 / 1e6)  # tier 1
        assert debit_w[1] == pytest.approx(100e9 / 300 / 1e6)  # tier 2

    def test_zero_speed_stalls(self):
        state = make_state(make_vmdk(size_gb=100.0), tier=1, measured_read_mbps=0.0)
        tiers, fleet, log = self.setup_pair(state)
        fleet.spare_read_mbps[0] = 0.0
        fleet.spare_write_mbps[1] = 0.0
        moved, _, _, stalled, finished = progress_migrations(np.array([0]), fleet, log, 300.0)
        assert moved == 0.0
        assert stalled == ["v1"]
        assert log.stalled[0]
        assert log.bytes_moved.tolist() == [0.0]
        assert finished.tolist() == []

    def test_finished_move_is_returned_untouched(self):
        state = make_state(make_vmdk(size_gb=100.0), tier=1, measured_read_mbps=100.0)
        _, fleet, log = self.setup_pair(state)
        log.set_progress(np.array([0]), 100e9, 7.0, True)
        moved, debit_r, debit_w, stalled, finished = progress_migrations(
            np.array([0]), fleet, log, 300.0
        )
        assert (moved, debit_r, debit_w, stalled) == (0.0, [0.0, 0.0], [0.0, 0.0], [])
        assert finished.tolist() == [0]
        assert (log.bytes_moved[0], log.speed_mbps[0], log.stalled[0]) == (100e9, 7.0, True)

    def test_the_finishing_step_lands_exactly(self):
        # Adding the rest to what is moved rounds one ulp above the total here.
        state = make_state(
            make_vmdk(size_gb=49.91605619203594), tier=1, measured_read_mbps=100.0
        )
        _, fleet, log = self.setup_pair(state)
        before, total = 6755937413.0374565, log.bytes_total[0]
        assert before + (total - before) > total
        log.set_progress(np.array([0]), before, 0.0, False)
        moved, _, _, _, finished = progress_migrations(np.array([0]), fleet, log, 300.0)
        assert finished.tolist() == [0]
        assert log.bytes_moved[0] == total
        assert moved == total - before
        assert log.unfinished() == 0

    def test_empty_book_debits_nothing(self):
        state = make_state(make_vmdk(size_gb=100.0), tier=1)
        _, fleet, log = self.setup_pair(state)
        moved, debit_r, debit_w, stalled, finished = progress_migrations(
            np.zeros(0, dtype=np.intp), fleet, log, 300.0
        )
        assert (moved, debit_r, debit_w, stalled) == (0.0, [0.0, 0.0], [0.0, 0.0], [])
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


def migration_epochs(seed, epochs=10):
    """Run the engine's migration book and the reference loop side by side on random epochs.

    Yields, per epoch: both progress results, both sets of finished VMDKs,
    every log record as it stands and the reference orders as tuples, the
    tiers and the VMDKs whose move started in that epoch. Tier loads range
    from idle to saturated (zero spare bandwidth), VMDK sizes from a few GB
    (finished in the first epoch) to hundreds, and any VMDK not moving may
    start a move, including the epoch after its last one finished.
    """
    rng = np.random.default_rng(seed)
    tiers = tuple(
        make_tier(i + 1, 50.0 * (i + 1),
                  read_mbps=float(rng.uniform(50, 800)), write_mbps=float(rng.uniform(50, 800)))
        for i in range(int(rng.integers(2, 5)))
    )
    states = [
        make_state(make_vmdk(f"v{j:02d}", size_gb=float(rng.choice([1.0, 30.0, 400.0]))),
                   tier=int(rng.integers(1, len(tiers) + 1)))
        for j in range(int(rng.integers(5, 30)))
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
        fleet.spare_read_mbps[:] = np.fmax(0.0, roster.read_bandwidth_cap - served_read)
        fleet.spare_write_mbps[:] = np.fmax(0.0, roster.write_bandwidth_cap - served_write)
        measured = rng.choice([0.0, 20.0, 300.0], size=len(states))
        fleet.measured_read_mbps[:] = measured
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
                size_gb = roster.specs[roster.row[v]].size_gb
                order = MigrationOrder(v, frm, to, size_gb * 1e9, epoch)
                reference_log.append(order)
                active[v] = order
        book = np.flatnonzero(fleet.dest_row >= 0)
        got = progress_migrations(book, fleet, log, 300.0)
        expected = reference_progress(
            list(active.values()), reference_states, tiers, served_read, served_write, 300.0
        )
        finished = got[4]
        fleet.move(finished)
        reference_finished = set()
        for v in sorted(active):
            if active[v].done:
                reference_states[v].current_tier = active[v].to_tier
                reference_finished.add(v)
                del active[v]
        yield (got[:4], expected, {roster.ids[j] for j in finished.tolist()}, reference_finished,
               log_orders(log), [astuple(o) for o in reference_log], tiers, started)


class TestMigrationBookMatchesReference:
    @pytest.mark.parametrize("seed", range(10))
    def test_bitwise_equal_to_the_sorting_loop(self, seed):
        for got, expected, finished, reference_finished, records, reference_records, _, _ in (
            migration_epochs(seed)
        ):
            assert got == expected
            assert finished == reference_finished
            assert [astuple(o) for o in records] == reference_records
            assert all(type(o.speed_mbps) is float and type(o.bytes_moved) is float
                       and type(o.from_tier) is int and type(o.stalled) is bool
                       for o in records)

    def test_cases_cover_every_edge(self):
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
        assert result.epochs == []
        assert result.plans == []

    @pytest.mark.parametrize("policy", ["autotiering", "idt", "edt"])
    def test_identical_runs_are_bit_identical(self, policy):
        scenario = self.tiny()
        a = run_scenario(scenario, policy, seed=123)
        b = run_scenario(scenario, policy, seed=123)
        assert metrics_csv_text(a) == metrics_csv_text(b)

    def test_policy_moves_the_sensitive_vmdk_up(self):
        result = run_scenario(self.tiny(epochs=9), "autotiering")
        assert result.final_states["hot"].current_tier == 1

    def test_sizes_never_change(self):
        scenario = self.tiny(epochs=9)
        result = run_scenario(scenario, "autotiering")
        for spec in scenario.vmdks:
            assert result.final_states[spec.id].spec.size_gb == spec.size_gb

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
            served.append((epoch, ctx.fleet.demand_iops[ctx.fleet.roster.row[spec.id]]))

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
                epoch, ctx.fleet.contention.copy(), ctx.fleet.spare_read_mbps.copy()
            ))
            with pytest.raises(ValueError, match="read-only"):
                ctx.fleet.measured_iops[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                ctx.fleet.tier_row[0] = 0
            for name in ("contention", "spare_read_mbps", "spare_write_mbps"):
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
        previous = result.epochs[epoch - 1].per_tier
        assert [previous[t.id].read_mbps for t in contexts[0].tiers] != [0.0, 0.0]
        # Migration debits only take spare bandwidth away.
        assert all(
            spare <= max(0.0, t.read_bandwidth_cap - previous[t.id].read_mbps)
            for t, spare in zip(contexts[0].tiers, spare_read.tolist())
        )
        fleet = contexts[0].fleet
        final = [result.final_states[v] for v in fleet.roster.ids]
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
                for em in result.epochs:
                    for tier in scenario.tiers:
                        tm = em.per_tier[tier.id]
                        assert tm.read_iops <= tier.read_throughput_cap * (1 + 1e-9)
                        assert tm.write_iops <= tier.write_throughput_cap * (1 + 1e-9)
                        assert tm.read_mbps <= tier.read_bandwidth_cap * (1 + 1e-9)
                        assert tm.write_mbps <= tier.write_bandwidth_cap * (1 + 1e-9)


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
                for j, spec in enumerate(fleet.roster.specs):
                    active = (
                        fleet.demand_iops[j], fleet.avg_io_size_bytes[j], fleet.read_fraction[j]
                    )
                    assert active == phase_key(phase_at(spec, epoch))

            run_scenario(scenario, policy, on_plan=check)
            assert seen == list(range(scenario.sim.epochs))

    def test_zero_epochs_leave_the_first_phase_active(self):
        rng = np.random.default_rng(9)
        scenario = multi_phase(random_scenario(rng, epochs=0), rng)
        result = run_scenario(scenario, "autotiering")
        assert result.epochs == []
        for spec in scenario.vmdks:
            assert phase_key(result.final_states[spec.id]) == phase_key(spec.demand_profile[0])
