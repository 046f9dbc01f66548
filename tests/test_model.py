"""Domain type invariants and scenario validation diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from autotier.model import (
    CalibrationFits,
    Fleet,
    MigrationOrder,
    PolicyWeights,
    ResourceVector,
    Scenario,
    ScenarioValidationError,
    SimulationConfig,
    TierSpec,
    VmdkSpec,
    WorkloadPhase,
    validate_scenario,
)
from autotier.scenario import bundled_scenario_text, parse_scenario

from conftest import make_state, make_tier, make_vmdk

finite = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


def vec(p=0.0, b=0.0, s=0.0):
    return ResourceVector(p, b, s)


def fit_row(m, b, confidence, sample_count=5, mean_cv=0.1):
    """Calibration fits holding one VMDK."""
    return CalibrationFits(
        ("v",), np.array([m]), np.array([b]), np.array([confidence]),
        np.array([sample_count]), np.array([mean_cv]),
    )


class TestResourceVector:
    def test_rejects_negative_components(self):
        with pytest.raises(ValueError):
            ResourceVector(-1.0, 0.0, 0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ResourceVector(float("nan"), 0.0, 0.0)

    def test_fits_within_is_componentwise(self):
        assert vec(1, 2, 3).fits_within(vec(1, 2, 3))
        assert not vec(1, 2, 3.1).fits_within(vec(1, 2, 3))

    @given(finite, finite, finite, finite, finite, finite)
    def test_addition_commutes(self, p1, b1, s1, p2, b2, s2):
        a, b = vec(p1, b1, s1), vec(p2, b2, s2)
        left, right = a + b, b + a
        assert left == right

    @given(*(finite,) * 9)
    def test_addition_associates_within_tolerance(self, p1, b1, s1, p2, b2, s2, p3, b3, s3):
        a, b, c = vec(p1, b1, s1), vec(p2, b2, s2), vec(p3, b3, s3)
        left, right = (a + b) + c, a + (b + c)
        for k in ("p", "b", "s"):
            x, y = getattr(left, k), getattr(right, k)
            assert x == pytest.approx(y, rel=1e-9, abs=1e-12)


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
        spec = make_vmdk(
            phases=(
                WorkloadPhase(0, 100, 4096, 1.0),
                WorkloadPhase(3, 200, 4096, 1.0),
                WorkloadPhase(6, 300, 4096, 1.0),
            )
        )
        assert spec.phase_at(0).demand_iops == 100
        assert spec.phase_at(4).demand_iops == 200
        assert spec.phase_at(6).demand_iops == 300
        assert spec.phase_at(50).demand_iops == 300


class TestOtherTypes:
    def test_calibration_confidence_bounds(self):
        with pytest.raises(ValueError):
            fit_row(1.0, 10.0, confidence=0.0)
        with pytest.raises(ValueError):
            fit_row(1.0, 10.0, confidence=1.2)

    @pytest.mark.parametrize("kwargs,message", [
        ({"sample_count": 0}, "sampleCount must be >= 1"),
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
        with pytest.raises(ValueError):
            MigrationOrder("v", 1, 1, bytes_total=1e9, started_epoch=0)

    def test_migration_order_bytes_bounds(self):
        with pytest.raises(ValueError):
            MigrationOrder("v", 1, 2, bytes_total=1e9, started_epoch=0, bytes_moved=2e9)

    def test_policy_weights_cadence(self):
        with pytest.raises(ValueError, match="migrationEpoch"):
            PolicyWeights(monitor_epoch=2, migration_epoch=1)
        with pytest.raises(ValueError, match="multiple"):
            PolicyWeights(monitor_epoch=2, migration_epoch=3)

    def test_aging_factor_range(self):
        with pytest.raises(ValueError, match="agingFactor"):
            PolicyWeights(aging_factor=1.0)


class TestFleet:
    def test_spare_mbps_is_cap_minus_served_clamped_at_zero(self):
        tiers = [
            make_tier(i, read_mbps=1000.0, write_mbps=800.0) for i in (1, 2, 3, 4)
        ]
        fleet = Fleet.of([make_state(make_vmdk())], tiers)
        fleet.served_read_mbps[:] = [250.0, 1000.0, 1500.0, math.nan]
        fleet.served_write_mbps[:] = [900.0, math.nan, 100.0, 800.0]
        read, write = fleet.spare_mbps()
        assert read == [750.0, 0.0, 0.0, 0.0]
        assert write == [0.0, 0.0, 700.0, 0.0]

    def test_move_lands_on_dest_row_and_clears_it(self):
        tiers = [make_tier(i) for i in (1, 2, 3)]
        states = [make_state(make_vmdk(v, initial_tier=3), tier=3) for v in ("a", "b")]
        fleet = Fleet.of(states, tiers)
        assert fleet.dest_row.tolist() == [-1, -1]
        fleet.dest_row[1] = 0
        fleet.move("b")
        assert fleet.tier_row.tolist() == [2, 0]
        assert fleet.dest_row.tolist() == [-1, -1]
        assert fleet.current_tier.tolist() == [3, 1]


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
