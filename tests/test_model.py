"""Domain type invariants and scenario validation diagnostics."""

import copy
import math
import pickle
from dataclasses import astuple, fields
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from autotier.model import (
    CalibrationFits,
    Fleet,
    MigrationLog,
    PolicyWeights,
    ResourceVector,
    Roster,
    Scenario,
    ScenarioValidationError,
    SimulationConfig,
    TierSpec,
    VmdkSpec,
    WorkloadPhase,
    check_migrations,
    validate_scenario,
)
from autotier.scenario import bundled_scenario_text, parse_scenario

from conftest import fleet_of, log_orders, make_state, make_tier, make_vmdk, phase_at

finite = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


def vec(p=0.0, b=0.0, s=0.0):
    return ResourceVector(p, b, s)


def fit_row(m, b, confidence, mean_cv=0.1):
    """Calibration fits holding one VMDK."""
    return CalibrationFits(
        ("v",), np.array([m]), np.array([b]), np.array([confidence]), np.array([mean_cv]),
    )


class TestResourceVector:
    def test_rejects_negative_components(self):
        with pytest.raises(ValueError):
            ResourceVector(-1.0, 0.0, 0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ResourceVector(float("nan"), 0.0, 0.0)

    @given(*(finite,) * 6)
    def test_multiplication_is_componentwise(self, p1, b1, s1, p2, b2, s2):
        product = vec(p1, b1, s1) * vec(p2, b2, s2)
        assert astuple(product) == (p1 * p2, b1 * b2, s1 * s2)

    @given(finite, finite, finite)
    def test_total_sums_the_components(self, p, b, s):
        assert vec(p, b, s).total() == p + b + s


class TestTierSpec:
    def test_max_usable_is_caps_times_capacity(self):
        tier = make_tier(capacity=vec(100_000, 1000, 500), caps=vec(0.9, 0.8, 0.5))
        usable = tier.max_usable()
        assert usable.p == pytest.approx(90_000)
        assert usable.b == pytest.approx(800.0)
        assert usable.s == pytest.approx(250.0)

    def test_cap_fraction_bounds(self):
        with pytest.raises(ValueError, match=r"cap fraction out of \(0,1\]"):
            make_tier(caps=vec(1.5, 1.0, 1.0))
        with pytest.raises(ValueError, match=r"cap fraction"):
            make_tier(caps=vec(0.0, 1.0, 1.0))

    def test_specialty_flags_are_binary(self):
        with pytest.raises(ValueError, match="specialty"):
            make_tier(specialty=vec(0.5, 1, 0))

    def test_kind_weights_must_not_all_vanish(self):
        with pytest.raises(ValueError, match="kind weights"):
            make_tier(kind_weights=vec(0, 0, 0))

    def test_base_latency_positive(self):
        with pytest.raises(ValueError, match="baseLatencyUs"):
            make_tier(base_latency_us=0.0)


class TestVmdkSpec:
    def test_size_must_be_positive(self):
        with pytest.raises(ValueError, match="sizeGb must be positive"):
            make_vmdk(size_gb=0.0)

    def test_intercept_must_be_positive(self):
        with pytest.raises(ValueError, match="truthInterceptUs"):
            make_vmdk(truth_intercept_us=0.0)

    def test_profile_must_start_at_epoch_zero(self):
        with pytest.raises(ValueError, match="start at epoch 0"):
            make_vmdk(phases=(WorkloadPhase(1, 100, 4096, 1.0),))

    def test_profile_starts_strictly_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            make_vmdk(
                phases=(
                    WorkloadPhase(0, 100, 4096, 1.0),
                    WorkloadPhase(0, 200, 4096, 1.0),
                )
            )

    def test_phase_at_picks_latest_started(self):
        # phase_at is the tests' reference for the phase a run holds active.
        spec = make_vmdk(
            phases=(
                WorkloadPhase(0, 100, 4096, 1.0),
                WorkloadPhase(3, 200, 4096, 1.0),
                WorkloadPhase(6, 300, 4096, 1.0),
            )
        )
        assert phase_at(spec, 0).demand_iops == 100
        assert phase_at(spec, 4).demand_iops == 200
        assert phase_at(spec, 6).demand_iops == 300
        assert phase_at(spec, 50).demand_iops == 300


class TestOtherTypes:
    def test_calibration_confidence_bounds(self):
        with pytest.raises(ValueError):
            fit_row(1.0, 10.0, confidence=0.0)
        with pytest.raises(ValueError):
            fit_row(1.0, 10.0, confidence=1.2)

    @pytest.mark.parametrize("kwargs,message", [
        ({"mean_cv": -0.1}, "meanCv must be a finite non-negative number, got -0.1"),
        ({"mean_cv": math.inf}, "meanCv must be a finite non-negative number, got inf"),
        ({"mean_cv": math.nan}, "meanCv must be a finite non-negative number, got nan"),
    ])
    def test_calibration_row_checks(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            fit_row(1.0, 10.0, confidence=0.5, **kwargs)

    def test_prediction_slope_clamps_at_zero(self):
        rec = fit_row(-0.3, 10.0, confidence=0.5)
        assert rec.m[0] == -0.3
        assert rec.prediction_slope[0] == 0.0

    def test_migration_order_requires_distinct_tiers(self):
        with pytest.raises(ValueError, match="migration must change tiers"):
            check_migrations(1, 1, bytes_total=1e9, bytes_moved=0.0)

    def test_migration_order_requires_positive_size(self):
        with pytest.raises(ValueError, match="bytesTotal must be positive"):
            check_migrations(1, 2, bytes_total=0.0, bytes_moved=0.0)

    def test_migration_order_bytes_bounds(self):
        with pytest.raises(ValueError, match=r"bytesMoved out of \[0, bytesTotal\]"):
            check_migrations(1, 2, bytes_total=1e9, bytes_moved=2e9)

    def test_policy_weights_cadence(self):
        with pytest.raises(ValueError, match="migrationEpoch"):
            PolicyWeights(monitor_epoch=2, migration_epoch=1)
        with pytest.raises(ValueError, match="multiple"):
            PolicyWeights(monitor_epoch=2, migration_epoch=3)

    def test_aging_factor_range(self):
        with pytest.raises(ValueError, match="agingFactor"):
            PolicyWeights(aging_factor=1.0)


# Every Fleet field after ``roster``: the columns a run writes.
RUN_COLUMNS = [
    "tier_row", "dest_row", "order_index", "contention", "spare_read_mbps", "spare_write_mbps",
    "demand_iops", "read_fraction", "avg_io_size_bytes", "measured_iops", "measured_latency_us",
    "measured_read_mbps", "measured_write_mbps",
]


def roster_arrays(roster):
    """Every array a roster holds, by name, the ``due`` schedule's included."""
    arrays = {
        f.name: getattr(roster, f.name)
        for f in fields(roster) if isinstance(getattr(roster, f.name), np.ndarray)
    }
    for epoch, (rows, phases) in roster.due.items():
        arrays[f"due[{epoch}].rows"], arrays[f"due[{epoch}].phases"] = rows, phases
    return arrays


class TestRoster:
    def test_every_array_and_map_is_read_only_and_two_builds_are_equal(self):
        scenario = parse_scenario(bundled_scenario_text("spike"))
        roster = scenario.roster
        assert scenario.roster is roster
        assert isinstance(roster.row, MappingProxyType)
        assert isinstance(roster.due, MappingProxyType)
        arrays = roster_arrays(roster)
        assert len(arrays) == len(fields(roster)) - 5 + 2 * len(roster.due)  # 3 tuples, 2 maps
        for name, array in arrays.items():
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        again = Roster.of(scenario.vmdks, scenario.tiers)
        assert list(roster.due) == list(again.due)
        for name, array in roster_arrays(again).items():
            assert array.dtype == arrays[name].dtype, name
            assert array.tobytes() == arrays[name].tobytes(), name

    def test_a_scenario_pickles_and_copies_without_its_built_roster(self):
        scenario = parse_scenario(bundled_scenario_text("spike"))
        roster = scenario.roster
        for copied in (pickle.loads(pickle.dumps(scenario)), copy.deepcopy(scenario)):
            assert copied == scenario and "roster" not in vars(copied)
            assert copied.roster is not roster and copied.roster.ids == roster.ids
            assert not copied.roster.phase_table.flags.writeable

    def test_no_writable_fleet_column_shares_memory_with_the_roster(self):
        scenario = parse_scenario(bundled_scenario_text("spike"))
        fleet = Fleet.of(scenario.roster)
        assert fleet.roster is scenario.roster
        assert fleet.read_only().roster is fleet.roster
        run_columns = [f.name for f in fields(fleet)][1:]
        assert run_columns == RUN_COLUMNS
        shared = roster_arrays(fleet.roster).values()
        for name in run_columns:
            column = getattr(fleet, name)
            assert isinstance(column, np.ndarray) and column.flags.writeable, name
            assert not any(np.shares_memory(column, a) for a in shared), name


class TestFleet:
    def test_move_lands_on_dest_row_and_clears_it(self):
        tiers = [make_tier(i) for i in (1, 2, 3)]
        states = [make_state(make_vmdk(v, initial_tier=3), tier=3) for v in ("a", "b")]
        fleet = fleet_of(states, tiers)
        assert fleet.dest_row.tolist() == [-1, -1]
        fleet.dest_row[1] = 0
        fleet.move(np.array([1]))
        assert fleet.tier_row.tolist() == [2, 0]
        assert fleet.dest_row.tolist() == [-1, -1]
        assert fleet.roster.tier_ids[fleet.tier_row].tolist() == [3, 1]

    def test_move_lands_every_row_at_once_and_clears_its_order(self):
        tiers = [make_tier(i) for i in (1, 2, 3)]
        states = [make_state(make_vmdk(v), tier=1) for v in ("a", "b", "c", "d")]
        fleet = fleet_of(states, tiers)
        fleet.dest_row[:] = [2, 1, 2, -1]
        fleet.order_index[:] = [0, 2, 1, -1]
        fleet.move(np.array([0, 1]))
        assert fleet.tier_row.tolist() == [2, 1, 0, 0]
        assert fleet.dest_row.tolist() == [-1, -1, 2, -1]
        assert fleet.order_index.tolist() == [-1, -1, 1, -1]
        fleet.move(np.zeros(0, dtype=np.intp))
        assert fleet.tier_row.tolist() == [2, 1, 0, 0]

    def test_the_read_only_view_refuses_writes_and_follows_the_fleet(self):
        fleet = Fleet.of(parse_scenario(bundled_scenario_text("spike")).roster)
        view = fleet.read_only()
        for name in RUN_COLUMNS:
            column = getattr(view, name)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1
            getattr(fleet, name)[0] = 1
            assert column[0] == 1, name

    def test_budget_is_each_tiers_max_usable_and_read_only_in_the_view(self):
        tiers = [
            make_tier(1, capacity=ResourceVector(1000.0, 400.0, 500.0), mig_weight=0.25,
                      kind_weights=ResourceVector(2, 1, 0.5), specialty=ResourceVector(1, 0, 1)),
            make_tier(2, 300.0, caps=ResourceVector(0.5, 0.25, 1.0), read_iops=7e4,
                      write_iops=3e4, read_mbps=900.0, write_mbps=700.0),
        ]
        fleet = Fleet.of(Roster.of([make_vmdk()], tiers))
        view = fleet.read_only()
        columns = {
            "budget": lambda t: list(astuple(t.max_usable())),
            "base_latency_us": lambda t: t.base_latency_us,
            "read_throughput_cap": lambda t: t.read_throughput_cap,
            "write_throughput_cap": lambda t: t.write_throughput_cap,
            "read_bandwidth_cap": lambda t: t.read_bandwidth_cap,
            "write_bandwidth_cap": lambda t: t.write_bandwidth_cap,
            "mig_weight": lambda t: t.mig_weight,
            "match_mask": lambda t: list(astuple(t.specialty * t.kind_weights)),
            "kind_weight_total": lambda t: t.kind_weights.total(),
        }
        for name, spec_field in columns.items():
            column = getattr(fleet.roster, name)
            assert column.dtype == float and len(column) == len(tiers), name
            assert column.tolist() == [spec_field(t) for t in tiers], name
            with pytest.raises(ValueError, match="read-only"):
                getattr(view.roster, name)[0] = 0.0

    def test_of_starts_each_spec_on_its_initial_tier_in_phase_zero_unmeasured(self):
        tiers = [make_tier(i, read_mbps=100.0 * i, write_mbps=70.0 * i) for i in (1, 2, 3)]
        later = WorkloadPhase(4, 9.0, 512.0, 0.5)
        specs = [
            make_vmdk("b", initial_tier=3, demand_iops=300.0, avg_io_size_bytes=8192.0,
                      read_fraction=0.25),
            make_vmdk("a", initial_tier=2, phases=(WorkloadPhase(0, 100.0, 4096.0, 0.75), later)),
        ]
        fleet = Fleet.of(Roster.of(specs, tiers))
        assert fleet.roster.ids == ("a", "b")
        assert fleet.roster.specs == (specs[1], specs[0])
        assert fleet.roster.tier_ids[fleet.tier_row].tolist() == [2, 3]
        assert fleet.demand_iops.tolist() == [100.0, 300.0]
        assert fleet.read_fraction.tolist() == [0.75, 0.25]
        assert fleet.avg_io_size_bytes.tolist() == [4096.0, 8192.0]
        for name in ("iops", "latency_us", "read_mbps", "write_mbps"):
            assert getattr(fleet, f"measured_{name}").tolist() == [0.0, 0.0], name
        assert (fleet.dest_row == -1).all() and (fleet.order_index == -1).all()
        # Nothing served yet: each tier's whole bandwidth is spare, in arrays of its own.
        assert fleet.spare_read_mbps.tolist() == [100.0, 200.0, 300.0]
        assert fleet.spare_write_mbps.tolist() == [70.0, 140.0, 210.0]
        assert not np.shares_memory(fleet.spare_read_mbps, fleet.roster.read_bandwidth_cap)
        assert not np.shares_memory(fleet.spare_write_mbps, fleet.roster.write_bandwidth_cap)
        assert list(fleet.roster.due) == [4]
        rows, phases = fleet.roster.due[4]
        assert rows.tolist() == [0] and phases.tolist() == [1]
        assert [astuple(s)[1:] for s in fleet.states()] == [
            (2, 100.0, 4096.0, 0.75, 0.0, 0.0, 0.0, 0.0),
            (3, 300.0, 8192.0, 0.25, 0.0, 0.0, 0.0, 0.0),
        ]


class TestMigrationLog:
    def log(self):
        tiers = [make_tier(i) for i in (1, 2, 3)]
        states = [make_state(make_vmdk(v, size_gb=10.0), tier=1) for v in ("a", "b", "c")]
        fleet = fleet_of(states, tiers)
        log = MigrationLog(fleet.roster.ids)
        fleet.order_index[[0, 2]] = log.append(
            np.array([0, 2]), np.array([1, 1]), np.array([2, 3]), np.array([10e9, 10e9]), 0
        )
        fleet.order_index[[2]] = log.append(
            np.array([2]), np.array([3]), np.array([1]), np.array([10e9]), 3
        )
        log.set_progress(fleet.order_index[[0, 2]], [10e9, 4e9], [50.0, 0.0], [False, True])
        return log

    def test_append_returns_log_indices_and_starts_at_zero(self):
        log = MigrationLog(("a",))
        for index, (frm, to, epoch) in enumerate(((1, 2, 4), (2, 1, 7))):
            k = log.append(np.array([0]), np.array([frm]), np.array([to]), np.array([1e9]), epoch)
            assert k.tolist() == [index]
        assert [astuple(o) for o in log_orders(log)] == [
            ("a", 1, 2, 1e9, 4, 0.0, 0.0, False), ("a", 2, 1, 1e9, 7, 0.0, 0.0, False),
        ]

    def test_records_hold_the_progress_where_set(self):
        log = self.log()
        assert len(log) == 3
        assert [astuple(o) for o in log_orders(log)] == [
            ("a", 1, 2, 10e9, 0, 10e9, 50.0, False),
            ("c", 1, 3, 10e9, 0, 0.0, 0.0, False),
            ("c", 3, 1, 10e9, 3, 4e9, 0.0, True),
        ]
        # The scale digest hashes these reprs: plain Python numbers, no numpy scalars.
        assert repr(log_orders(log)[0]) == (
            "MigrationOrder(vmdk_id='a', from_tier=1, to_tier=2, bytes_total=10000000000.0, "
            "started_epoch=0, bytes_moved=10000000000.0, speed_mbps=50.0, stalled=False)"
        )

    def test_summaries_read_the_columns(self):
        log = self.log()
        assert log.total_migrated_bytes() == 14e9
        assert log.migrated_vmdk_ids() == {"a", "c"}
        assert log.unfinished() == 2
        empty = MigrationLog(("a",))
        assert (empty.total_migrated_bytes(), empty.migrated_vmdk_ids(), empty.unfinished()) == (
            0, set(), 0
        )
        assert log_orders(empty) == []

    def test_total_adds_left_to_right(self):
        # A compensated sum (Python 3.12's sum()) gives 1.0000000000000002e16.
        log = MigrationLog(("a", "b", "c"))
        k = log.append(
            np.arange(3), np.array([1, 1, 1]), np.array([2, 2, 2]),
            np.array([1e16, 1.0, 1.0]), 0,
        )
        log.set_progress(k, [1e16, 1.0, 1.0], [1.0] * 3, [False] * 3)
        assert log.total_migrated_bytes() == 1e16

    def test_append_refuses_a_move_that_stays(self):
        log = MigrationLog(("a",))
        with pytest.raises(ValueError, match="migration must change tiers"):
            log.append(np.array([0]), np.array([2]), np.array([2]), np.array([1e9]), 0)
        assert len(log) == 0


class TestScenarioValidation:
    def test_bundled_paper_scenario_is_valid(self):
        scenario = parse_scenario(bundled_scenario_text("table3-table4"))
        assert len(scenario.tiers) == 3
        assert len(scenario.vmdks) == 14

    def test_tier_ids_must_be_contiguous(self):
        with pytest.raises(ScenarioValidationError, match="contiguous"):
            Scenario(
                tiers=(make_tier(1), make_tier(3, base_latency_us=300.0)),
                vmdks=(make_vmdk(),),
            )

    def test_latency_must_increase_with_tier_id(self):
        with pytest.raises(ScenarioValidationError, match="strictly increase"):
            Scenario(
                tiers=(make_tier(1, 200.0), make_tier(2, 100.0)),
                vmdks=(make_vmdk(),),
            )

    def test_initial_tier_must_exist(self):
        with pytest.raises(ScenarioValidationError, match="does not exist"):
            Scenario(tiers=(make_tier(1),), vmdks=(make_vmdk(initial_tier=4),))

    def test_diagnostics_aggregate_instead_of_aborting(self):
        doc = {
            "schemaVersion": 1,
            "tiers": [
                {
                    "id": 1, "name": "a", "baseLatencyUs": 50.0,
                    "capacity": {"p": 1000, "b": 100, "s": 100},
                    "readThroughputCap": 1000, "writeThroughputCap": 500,
                    "readBandwidthCap": 100, "writeBandwidthCap": 80,
                    "caps": {"p": 1.5, "b": 1.0, "s": 1.0},
                }
            ],
            "vmdks": [
                {
                    "id": "v1", "vmId": "vm1", "sizeGb": 0,
                    "initialTier": 1, "truthSlope": 0.1, "truthInterceptUs": 10,
                    "demandProfile": [
                        {"startEpoch": 0, "demandIops": 10, "avgIoSizeBytes": 4096}
                    ],
                },
            ],
        }
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(doc)
        messages = "\n".join(err.value.errors)
        assert "cap fraction out of (0,1]" in messages
        assert "sizeGb must be positive" in messages
        assert len(err.value.errors) >= 2

    def test_error_paths_name_the_location(self):
        doc = {
            "schemaVersion": 1,
            "tiers": "nope",
            "vmdks": [],
        }
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(doc)
        assert any(msg.startswith("tiers") for msg in err.value.errors)
        assert any(msg.startswith("vmdks") for msg in err.value.errors)

    def test_simulation_config_bounds(self):
        with pytest.raises(ValueError, match="epochs"):
            SimulationConfig(epochs=-1)
        with pytest.raises(ValueError, match="epochSeconds"):
            SimulationConfig(epochs=1, epoch_seconds=0.0)
