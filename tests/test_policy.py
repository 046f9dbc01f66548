"""Scoring and greedy assignment, checked against hand computations and the oracle."""

import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from autotier import policy
from autotier.baselines import edt_assign, idt_assign
from autotier.calibration import estimate_avg_lat
from autotier.engine import probe_latencies, run_scenario, serve_epoch
from autotier.model import (
    Fleet,
    PolicyWeights,
    ResourceVector,
    Roster,
    VmdkTable,
)
from autotier.policy import (
    AutoTieringPolicy,
    PolicyContext,
    cal_capacity_matrices,
    cal_score,
    epoch_profit,
    first_fit,
    mig_cost_seconds,
    migration_penalty,
    normalize_and_gate,
    oracle_assignment,
    orthogonal_match_score,
    pack,
    profit_contributions,
    trigger_migration,
)
from autotier.scenario import load_bundled_scenario, validate_scenario

from conftest import (
    fits_within,
    fleet_of,
    hosted_usage,
    keyed_plan,
    make_state,
    make_tier,
    make_fits,
    make_vmdk,
    pin,
    random_oracle_instance,
    reference_oracle,
    reference_pack,
    row_of_tier,
    scenario_documents,
    sequential_usage,
    tier_rows,
)
from test_golden import plan_record, scale_scenario


def record(m, b, conf=1.0):
    return m, b, conf


def fits(fleet, records):
    """Calibration fits of ``records`` ((m, b, confidence) by VMDK id) in the fleet's row order."""
    return make_fits(records[v] for v in fleet.roster.ids)


P, B, S = 0, 1, 2  # component index on the last axis of cap / ratio


def build_matrices(fleet, records):
    return normalize_and_gate(cal_capacity_matrices(fits(fleet, records), fleet), fleet)


def at(fleet, tier_id, vmdk_id):
    """Array index of the (tier, vmdk) cell; tier id t is row t - 1."""
    return tier_id - 1, fleet.roster.row[vmdk_id]


def match(tier, ratios, sla, conf):
    """orthogonal_match_score of one tier and one VMDK's (p, b, s) ratios."""
    cell = np.array(ratios, dtype=float).reshape(1, 1, 3)
    fleet = Fleet.of(Roster.of(VmdkTable.of([make_vmdk(initial_tier=tier.id)]), [tier]))
    return orthogonal_match_score(fleet, cell, np.array([sla]), np.array([conf]))[0, 0]


def move_cost(fleet, target_tier):
    """mig_cost_seconds of a one-VMDK fleet to one tier."""
    return mig_cost_seconds(fleet)[row_of_tier(fleet, target_tier), 0]


class TestCapacityMatrices:
    def test_forced_iops_formula(self):
        # 20us predicted latency -> 50K IOPS
        tier = make_tier(1, base_latency_us=20.0)
        state = make_state(make_vmdk(demand_iops=1e9, avg_io_size_bytes=4096))
        fleet = fleet_of([state], [tier])
        cell = cal_capacity_matrices(make_fits([record(0.0, 20.0)]), fleet)[at(fleet, 1, "v1")]
        assert cell[P] == pytest.approx(50_000, rel=1e-9)
        assert cell[B] == pytest.approx(50_000 * 4096 / 1e6, rel=1e-9)
        assert cell[S] == state.spec.size_gb

    def test_negative_prediction_means_zero_throughput(self):
        tiers = (make_tier(1, 50.0), make_tier(2, 2050.0))
        state = make_state(make_vmdk(initial_tier=2, demand_iops=1e9), tier=2)
        records = make_fits([record(1.0, 500.0)])
        fleet = fleet_of([state], tiers)
        cap = cal_capacity_matrices(records, fleet)
        # predicted latency on tier 1: 1.0 * (50-2050) + 500 = -1500us
        assert estimate_avg_lat(records, [1], np.array([50.0, 2050.0]))[0, 0] == -1500.0
        assert cap[at(fleet, 1, "v1")][P] == 0.0
        assert cap[at(fleet, 1, "v1")][B] == 0.0

    def test_throughput_capped_at_demand(self):
        tier = make_tier(1, base_latency_us=20.0)
        state = make_state(make_vmdk(demand_iops=10_000, avg_io_size_bytes=4096))
        fleet = fleet_of([state], [tier])
        cap = cal_capacity_matrices(make_fits([record(0.0, 20.0)]), fleet)
        assert cap[at(fleet, 1, "v1")][P] == 10_000
        assert cap[at(fleet, 1, "v1")][B] == pytest.approx(10_000 * 4096 / 1e6)


class TestNormalizeAndGate:
    def test_oversized_vmdk_is_gated(self):
        # 960GB VMDK cannot fit the 480GB tier-1 budget
        tier = make_tier(1, capacity=ResourceVector(240_000, 1000, 480))
        state = make_state(make_vmdk(size_gb=960.0, demand_iops=100))
        fleet = fleet_of([state], [tier])
        mat = build_matrices(fleet, {"v1": record(0.0, 100.0)})
        assert bool(mat.feasible[at(fleet, 1, "v1")]) is False
        assert mat.ratio[at(fleet, 1, "v1")].tolist() == [0.0, 0.0, 0.0]

    def test_hand_divided_ratios(self):
        tier = make_tier(1, capacity=ResourceVector(100_000, 1000, 480))
        state = make_state(make_vmdk(size_gb=100.0, demand_iops=50_000, avg_io_size_bytes=4096))
        fleet = fleet_of([state], [tier])
        mat = build_matrices(fleet, {"v1": record(0.0, 10.0)})
        ratios = mat.ratio[at(fleet, 1, "v1")]
        assert ratios[P] == pytest.approx(0.5, rel=1e-9)
        assert ratios[B] == pytest.approx(204.8 / 1000, rel=1e-9)
        assert ratios[S] == pytest.approx(100 / 480, rel=1e-9)

    @pytest.mark.parametrize("kind", [P, B], ids=["iops", "mbps"])
    def test_a_cell_over_one_budget_has_every_ratio_zeroed(self, kind):
        # Storage fits: only the IOPS or the MB/s budget is exceeded.
        budget = [1000.0, 1000.0, 480.0]
        budget[kind] = 10.0
        tier = make_tier(1, capacity=ResourceVector(*budget))
        state = make_state(make_vmdk(size_gb=100.0, demand_iops=1000, avg_io_size_bytes=65536))
        fleet = fleet_of([state], [tier])
        mat = build_matrices(fleet, {"v1": record(0.0, 100.0)})
        assert bool(mat.feasible[at(fleet, 1, "v1")]) is False
        assert mat.ratio[at(fleet, 1, "v1")].tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("kind", [P, B, S], ids=["iops", "mbps", "size"])
    def test_a_nan_usage_is_infeasible(self, kind):
        tier = make_tier(1)
        fleet = fleet_of([make_state(make_vmdk())], [tier])
        cap = np.full((1, 1, 3), 1.0)
        cap[0, 0, kind] = math.nan
        mat = normalize_and_gate(cap, fleet)
        assert mat.feasible.tolist() == [[False]]
        assert mat.ratio.tolist() == [[[0.0, 0.0, 0.0]]]

    def test_zero_usage_is_feasible(self):
        tier = make_tier(1)
        state = make_state(make_vmdk(demand_iops=0.0))
        fleet = fleet_of([state], [tier])
        mat = build_matrices(fleet, {"v1": record(0.0, 100.0)})
        assert bool(mat.feasible[at(fleet, 1, "v1")]) is True
        assert mat.ratio[at(fleet, 1, "v1")][P] == 0.0


class TestOrthogonalMatch:
    def test_printed_equation(self):
        tier = make_tier(specialty=ResourceVector(1, 1, 0))
        score = match(tier, (0.5, 0.6, 0.3), 1.0, 1.0)
        assert score == pytest.approx(1.1 / 3, rel=1e-9)

    def test_linear_in_confidence(self):
        tier = make_tier(specialty=ResourceVector(1, 1, 0))
        full = match(tier, (0.5, 0.6, 0.3), 1.0, 1.0)
        half = match(tier, (0.5, 0.6, 0.3), 1.0, 0.5)
        assert half == pytest.approx(full / 2, rel=1e-12)
        assert half == pytest.approx(0.18335, rel=1e-3)

    def test_specialty_masks_unrelated_kinds(self):
        tier = make_tier(specialty=ResourceVector(0, 0, 1))
        score = match(tier, (0.9, 0.9, 0.1), 1.0, 1.0)
        assert score == pytest.approx(0.1 / 3, rel=1e-9)

    def test_denominator_is_the_exact_kind_weight_total(self):
        # The integer weights total 2**53 + 2 exactly; a float sum of the
        # components rounds 2**53 + 1 down and totals 2**53.
        tier = make_tier(kind_weights=ResourceVector(2**53 + 1, 1, 0))
        score = match(tier, (0.0, 1.0, 0.0), 1.0, 1.0)
        assert score == 1.0 / 9007199254740994.0 == 1.1102230246251563e-16
        assert score != 1.0 / 9007199254740992.0

    def test_active_weight_normalization_switch(self):
        tier = make_tier(specialty=ResourceVector(1, 0, 0))
        ratios = (0.6, 0.9, 0.9)
        printed = match(tier, ratios, 1.0, 1.0)
        assert printed == pytest.approx(0.2, rel=1e-9)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_linear_in_each_argument(self, rp, rb, rs, sla, conf, factor):
        tier = make_tier(specialty=ResourceVector(1, 1, 1),
                         kind_weights=ResourceVector(1.0, 0.5, 2.0))
        base = match(tier, (rp, rb, rs), sla, conf)
        scaled_sla = match(tier, (rp, rb, rs), sla * factor, conf)
        assert scaled_sla == pytest.approx(base * factor, rel=1e-9, abs=1e-12)
        # each ratio component contributes additively and linearly
        only_p = match(tier, (rp, 0, 0), sla, conf)
        only_b = match(tier, (0, rb, 0), sla, conf)
        only_s = match(tier, (0, 0, rs), sla, conf)
        assert only_p + only_b + only_s == pytest.approx(base, rel=1e-9, abs=1e-12)
        scaled_p = match(tier, (rp * factor, rb, rs), sla, conf)
        assert scaled_p - base == pytest.approx(only_p * (factor - 1), rel=1e-6, abs=1e-9)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.1, max_value=50.0),
    )
    def test_scaling_all_weights_preserves_scores(self, rp, rb, rs, sla, conf, factor):
        # the /(wetP+wetB+wetS) normalization cancels any uniform weight scaling
        base = make_tier(specialty=ResourceVector(1, 1, 0),
                         kind_weights=ResourceVector(1.0, 0.7, 0.3))
        scaled = make_tier(specialty=ResourceVector(1, 1, 0),
                           kind_weights=ResourceVector(factor, 0.7 * factor, 0.3 * factor))
        ratios = (rp, rb, rs)
        assert match(scaled, ratios, sla, conf) == pytest.approx(
            match(base, ratios, sla, conf), rel=1e-9, abs=1e-12
        )


class TestMigCost:
    def three_state_setup(self):
        return (make_tier(1, 100.0), make_tier(2, 300.0))

    def test_min_formula(self):
        # source spare read 500 + own 100 vs target spare write 400 -> 400 MB/s
        tiers = (
            make_tier(1, 100.0, read_mbps=600.0, write_mbps=500.0),
            make_tier(2, 300.0, read_mbps=900.0, write_mbps=500.0),
        )
        vmdk = make_state(make_vmdk(size_gb=100.0), tier=1, measured_read_mbps=100.0)
        fleet = fleet_of([vmdk], tiers)
        fleet.spare_mbps[0, 0] = 500.0
        fleet.spare_mbps[1, 1] = 400.0
        cost = move_cost(fleet, 2)
        assert cost == pytest.approx(250.0, rel=1e-9)

    def test_same_tier_is_free(self):
        tiers = self.three_state_setup()
        vmdk = make_state(make_vmdk(size_gb=100.0), tier=1)
        assert move_cost(fleet_of([vmdk], tiers), 1) == 0.0

    def test_saturated_target_is_impossible(self):
        tiers = self.three_state_setup()
        vmdk = make_state(make_vmdk(size_gb=100.0), tier=1, measured_read_mbps=0.0)
        fleet = fleet_of([vmdk], tiers)
        fleet.spare_mbps[1, 1] = 0.0
        fleet.spare_mbps[0, 0] = 0.0
        assert move_cost(fleet, 2) == math.inf


class TestCalScore:
    def single_cell(self, aging, previous, mig_weight):
        tier = make_tier(1, mig_weight=mig_weight)
        state = make_state(make_vmdk(demand_iops=10_000))
        records = {"v1": record(0.0, 100.0)}
        fleet = fleet_of([state], [tier])
        mat = build_matrices(fleet, records)
        weights = PolicyWeights(aging_factor=aging, migration_epoch=3, monitor_epoch=1)
        return cal_score(mat, previous, weights, fleet, fits(fleet, records),
                         migration_penalty(fleet, 900.0))

    def test_memoryless_costless_is_pure_match(self):
        score = self.single_cell(0.0, None, 0.0)
        tier = make_tier(1, mig_weight=0.0)
        state = make_state(make_vmdk(demand_iops=10_000))
        records = {"v1": record(0.0, 100.0)}
        fleet = fleet_of([state], [tier])
        mat = build_matrices(fleet, records)
        expected = match(tier, mat.ratio[at(fleet, 1, "v1")], 1.0, 1.0)
        assert score[at(fleet, 1, "v1")] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("previous", [-math.inf, math.inf, math.nan, 0.8])
    def test_only_a_finite_previous_cell_is_aged(self, previous):
        fresh = self.single_cell(0.5, None, 0.0)[0, 0]
        score = self.single_cell(0.5, np.array([[previous]]), 0.0)[0, 0]
        assert math.isfinite(fresh)
        assert score == (0.5 * previous if math.isfinite(previous) else 0.0) + fresh

    def test_hand_arithmetic(self):
        # 0.5 * 0.4 + 0.3 - 0.1 = 0.4
        tiers = (
            make_tier(1, 100.0, capacity=ResourceVector(1e6, 1e5, 500.0),
                      write_mbps=1500.0, mig_weight=0.2,
                      specialty=ResourceVector(0, 0, 1)),
            make_tier(2, 300.0, capacity=ResourceVector(1e6, 1e5, 5000.0),
                      read_mbps=1200.0),
        )
        # current match: storage ratio 450/500 over weight sum 3 -> 0.3
        state = make_state(make_vmdk(vmdk_id="w", size_gb=450.0, demand_iops=0.0,
                                     initial_tier=2), tier=2)
        records = {"w": record(0.0, 100.0)}
        fleet = fleet_of([state], tiers)
        mat = build_matrices(fleet, records)
        fleet.spare_mbps[0, 1] = 1000.0  # 200 of 1200 MB/s served -> cost 450s
        weights = PolicyWeights(aging_factor=0.5, migration_epoch=3)
        previous = np.zeros(mat.feasible.shape)
        previous[at(fleet, 1, "w")] = 0.4
        score = cal_score(mat, previous, weights, fleet, fits(fleet, records),
                          migration_penalty(fleet, 900.0))
        # penalty: 0.2 * (450 GB * 1000 / 1000 MBps) / 900 s = 0.1
        assert score[at(fleet, 1, "w")] == pytest.approx(0.4, rel=1e-12)
        # The next epoch ages this score in turn: 0.5 * 0.4 + 0.3 - 0.1 again.
        again = cal_score(mat, score, weights, fleet, fits(fleet, records),
                          migration_penalty(fleet, 900.0))
        assert again[at(fleet, 1, "w")] == pytest.approx(0.4, rel=1e-12)

    def test_infeasible_propagates_and_resets_history(self):
        state = make_state(make_vmdk(size_gb=100.0, demand_iops=100))
        records = {"v1": record(0.0, 100.0)}
        weights = PolicyWeights(aging_factor=0.9)

        def score(tier, previous):
            fleet = fleet_of([state], [tier])
            mat = build_matrices(fleet, records)
            return cal_score(mat, previous, weights, fleet, fits(fleet, records),
                             migration_penalty(fleet, 900.0))

        gated = score(make_tier(1, capacity=ResourceVector(1000, 10, 10)), np.full((1, 1), 5.0))
        assert gated.tolist() == [[-math.inf]]
        # Once the tier can host the VMDK, the -inf cell adds no aged term.
        fresh = score(make_tier(1), None)
        assert math.isfinite(fresh[0, 0])
        assert score(make_tier(1), gated).tolist() == fresh.tolist()

    def test_infinite_migration_cost_blocks_epoch_but_not_history(self):
        tiers = (make_tier(1, 100.0), make_tier(2, 300.0))
        state = make_state(make_vmdk(size_gb=10.0, demand_iops=100), tier=2)
        records = {"v1": record(0.0, 100.0)}
        fleet = fleet_of([state], tiers)
        fleet.spare_mbps[1, 0] = 0.0  # no way in
        fleet.spare_mbps[0, 1] = 0.0
        mat = build_matrices(fleet, records)
        weights = PolicyWeights(aging_factor=0.5)
        move, stay = at(fleet, 1, "v1"), at(fleet, 2, "v1")
        blocked = cal_score(mat, None, weights, fleet, fits(fleet, records),
                            migration_penalty(fleet, 900.0))
        assert blocked[move] == -math.inf
        assert math.isfinite(blocked[stay])  # staying costs nothing
        # Once bandwidth frees up, the blocked cell adds no aged term.
        fleet.spare_mbps[1, 0] = tiers[0].write_bandwidth_cap
        fleet.spare_mbps[0, 1] = tiers[1].read_bandwidth_cap
        fresh = cal_score(mat, None, weights, fleet, fits(fleet, records),
                          migration_penalty(fleet, 900.0))
        again = cal_score(mat, blocked, weights, fleet, fits(fleet, records),
                          migration_penalty(fleet, 900.0))
        assert math.isfinite(fresh[move])
        assert again[move] == fresh[move]
        assert again[stay] == 0.5 * blocked[stay] + fresh[stay]


def scores_from(mat, fleet, values):
    score = np.full(mat.feasible.shape, -math.inf)
    for (tier_id, vmdk_id), value in values.items():
        score[at(fleet, tier_id, vmdk_id)] = value
    return score


class TestTriggerMigration:
    def test_fixed_point_when_already_placed(self):
        tier = make_tier(1)
        state = make_state(make_vmdk(demand_iops=1000))
        fleet = fleet_of([state], [tier])
        mat = build_matrices(fleet, {"v1": record(0.0, 100.0)})
        sm = scores_from(mat, fleet, {(1, "v1"): 1.0})
        plan = trigger_migration(sm, mat, fleet, 0)
        assert plan.target == {"v1": 1}
        assert keyed_plan(plan).migrations == ()
        assert not keyed_plan(plan).overloaded

    def test_two_vmdks_compete_for_tier_one_storage(self):
        # both need 60% of tier-1 storage: higher score wins, other falls to tier 2
        tiers = (
            make_tier(1, 100.0, capacity=ResourceVector(1e6, 1e5, 100.0)),
            make_tier(2, 300.0, capacity=ResourceVector(1e6, 1e5, 1000.0)),
        )
        states = [
            make_state(make_vmdk("a", size_gb=60.0, demand_iops=1000), tier=2),
            make_state(make_vmdk("b", size_gb=60.0, demand_iops=1000), tier=2),
        ]
        records = {"a": record(0.0, 50.0), "b": record(0.0, 50.0)}
        fleet = fleet_of(states, tiers)
        mat = build_matrices(fleet, records)
        sm = scores_from(mat, fleet, {
            (1, "a"): 0.4, (1, "b"): 0.9, (2, "a"): 0.1, (2, "b"): 0.1,
        })
        plan = trigger_migration(sm, mat, fleet, 0)
        assert plan.target == {"a": 2, "b": 1}
        assert keyed_plan(plan).migrations == (("b", 2, 1),)

    def test_all_gated_leaves_tier_empty(self):
        tiers = (
            make_tier(1, 100.0, capacity=ResourceVector(1e6, 1e5, 10.0)),
            make_tier(2, 300.0, capacity=ResourceVector(1e6, 1e5, 1000.0)),
        )
        states = [
            make_state(make_vmdk("a", size_gb=50.0, demand_iops=10), tier=2),
            make_state(make_vmdk("b", size_gb=50.0, demand_iops=10), tier=2),
        ]
        records = {"a": record(0.0, 50.0), "b": record(0.0, 50.0)}
        fleet = fleet_of(states, tiers)
        mat = build_matrices(fleet, records)
        sm = cal_score(mat, None, PolicyWeights(), fleet, fits(fleet, records),
                       migration_penalty(fleet, 900.0))
        assert sm[at(fleet, 1, "a")] == -math.inf
        plan = trigger_migration(sm, mat, fleet, 0)
        assert all(t == 2 for t in plan.target.values())

    def test_leftover_without_room_is_overloaded(self):
        tier = make_tier(1, capacity=ResourceVector(1e6, 1e5, 100.0))
        states = [
            make_state(make_vmdk("a", size_gb=80.0, demand_iops=10), tier=1),
            make_state(make_vmdk("b", size_gb=80.0, demand_iops=10), tier=1),
        ]
        records = {"a": record(0.0, 50.0), "b": record(0.0, 50.0)}
        fleet = fleet_of(states, [tier])
        mat = build_matrices(fleet, records)
        sm = scores_from(mat, fleet, {(1, "a"): 0.5, (1, "b"): 0.4})
        plan = trigger_migration(sm, mat, fleet, 0)
        assert plan.target == {"a": 1, "b": 1}  # totality always wins
        assert keyed_plan(plan).overloaded == {"b"}

    def test_ties_break_by_vmdk_id(self):
        tiers = (
            make_tier(1, 100.0, capacity=ResourceVector(1e6, 1e5, 60.0)),
            make_tier(2, 300.0, capacity=ResourceVector(1e6, 1e5, 1000.0)),
        )
        states = [
            make_state(make_vmdk("b", size_gb=60.0, demand_iops=10), tier=2),
            make_state(make_vmdk("a", size_gb=60.0, demand_iops=10), tier=2),
        ]
        records = {"a": record(0.0, 50.0), "b": record(0.0, 50.0)}
        fleet = fleet_of(states, tiers)
        mat = build_matrices(fleet, records)
        sm = scores_from(mat, fleet, {
            (1, "a"): 0.5, (1, "b"): 0.5, (2, "a"): 0.0, (2, "b"): 0.0,
        })
        plan = trigger_migration(sm, mat, fleet, 0)
        assert plan.target["a"] == 1
        assert plan.target["b"] == 2

    def test_pinned_vmdk_keeps_destination_and_budget(self):
        tiers = (
            make_tier(1, 100.0, capacity=ResourceVector(1e6, 1e5, 100.0)),
            make_tier(2, 300.0, capacity=ResourceVector(1e6, 1e5, 1000.0)),
        )
        states = [
            make_state(make_vmdk("mover", size_gb=70.0, demand_iops=10), tier=2),
            make_state(make_vmdk("rival", size_gb=70.0, demand_iops=10), tier=2),
        ]
        records = {"mover": record(0.0, 50.0), "rival": record(0.0, 50.0)}
        fleet = fleet_of(states, tiers)
        mat = build_matrices(fleet, records)
        sm = scores_from(mat, fleet, {
            (1, "mover"): 0.1, (1, "rival"): 0.9, (2, "mover"): 0.0, (2, "rival"): 0.0,
        })
        plan = trigger_migration(sm, mat, pin(fleet, {"mover": 1}), 3)
        # the in-flight move keeps its seat even against a higher score
        assert plan.target == {"mover": 1, "rival": 2}
        assert keyed_plan(plan).migrations == ()

    def test_integer_budgets_take_fractional_seats_exactly(self):
        # All-integer capacity and caps make max_usable() integral; the pinned
        # seat must leave 7.5 GB, not 7, for the three 2.5 GB candidates.
        tiers = [make_tier(i, 100.0 * i, capacity=ResourceVector(10, 10, 10)) for i in (1, 2)]
        states = [make_state(make_vmdk(v, size_gb=2.5), tier=2) for v in "abcd"]
        fleet = pin(fleet_of(states, tiers), {"a": 1})
        usage = np.broadcast_to([0.0, 0.0, 2.5], (2, 4, 3))
        plan = pack(fleet, usage, [(0, np.arange(4))], 0)
        assert plan.target_row.tolist() == [0, 0, 0, 0]
        assert plan.used[0].tolist() == [0.0, 0.0, 10.0]


def scalar_first_fit(rows, left):
    """The loop ``first_fit`` must match bit for bit: one row at a time over Python floats."""
    left, used = list(left), [0.0, 0.0, 0.0]
    fit = []
    for row in rows:
        fit.append(not any(u > x for u, x in zip(row, left)))
        if fit[-1]:
            left = [x - u for x, u in zip(left, row)]
            used = [x + u for x, u in zip(used, row)]
    return fit, left, used


# Inexact decimals make a sum in another order round differently.
USAGE_VALUES = (0.0, -0.0, 0.1, 0.7, 1.0, 3.3, 10.0, 100.0, 1e9, math.inf, math.nan)
usage_rows = st.tuples(*[st.sampled_from(USAGE_VALUES)] * 3)
budgets = st.tuples(*[st.sampled_from((0.0, 1.0, 10.0, 100.3, 1e4))] * 3)
# Long runs of one row cross several windows, fitting until the budget runs out.
usage_runs = st.lists(st.tuples(usage_rows, st.integers(1, 200)), max_size=6).map(
    lambda runs: [row for row, count in runs for _ in range(count)]
)
# Small rows that every budget above 10.0 holds 2,500 of.
small_rows = st.tuples(*[st.sampled_from((0.0, 1e-3, 3.3e-3))] * 3)
usage_scans = st.one_of(
    st.lists(usage_rows, max_size=300),
    usage_runs,
    # A long fit prefix, then a mixed tail, up to 2,800 rows: the baselines'
    # scans look so (fits until the tier fills, then mostly misses).
    st.tuples(
        st.lists(st.tuples(small_rows, st.integers(700, 1250)), min_size=1, max_size=2),
        st.one_of(st.lists(usage_rows, max_size=300), usage_runs),
    ).map(lambda scan: [row for row, count in scan[0] for _ in range(count)] + scan[1]),
)


class Windows(np.ndarray):
    """Usage rows that add each window a scan slices off them to ``trace``: [start, stop, 0]."""

    trace = None

    def __array_finalize__(self, obj):
        self.trace = None  # a view or a result reports nothing

    def __getitem__(self, key):
        if self.trace is not None and isinstance(key, slice):
            self.trace.append([key.start, min(key.stop, len(self)), 0])
        return super().__getitem__(key)


class Writes(np.ndarray):
    """A budget that counts each write to it in the last window of ``trace``."""

    trace = None

    def __array_finalize__(self, obj):
        self.trace = None

    def __setitem__(self, key, value):
        if self.trace is not None:
            self.trace[-1][2] += 1
        super().__setitem__(key, value)


class TestFirstFit:
    def check(self, rows, budget):
        left, used = np.array(budget, dtype=float), np.zeros(3)
        fit = first_fit(np.array(rows, dtype=float).reshape(-1, 3), left, used)
        expected_fit, expected_left, expected_used = scalar_first_fit(rows, budget)
        assert fit.tolist() == expected_fit
        assert left.tobytes() == np.array(expected_left).tobytes()
        assert used.tobytes() == np.array(expected_used).tobytes()

    @given(usage_scans, budgets)
    def test_matches_the_scalar_loop(self, rows, budget):
        self.check(rows, budget)

    def test_row_equal_to_what_is_left_fits(self):
        self.check([(0.0, 0.0, 10.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1e-300)], (0.0, 0.0, 10.0))

    def test_zero_rows_fit_zero_budgets(self):
        self.check([(0.0, 0.0, 0.0)] * 200 + [(0.0, 1.0, 0.0)], (0.0, 0.0, 0.0))

    @pytest.mark.parametrize("first", [1e9, 1e-3])
    def test_strictly_alternating_scan(self, first):
        other = 1e-3 if first == 1e9 else 1e9
        self.check([(0.0, 0.0, first), (0.0, 0.0, other)] * 1400, (0.0, 0.0, 1e6))

    @pytest.mark.parametrize("offset", ["0", "1", "W-1", "W", "W+1"])
    @pytest.mark.parametrize("pass_index", [0, 1, 2])
    def test_change_point_at_the_edge_of_a_pass(self, pass_index, offset):
        # The opening pass spans the whole scan: pass 0 switches at an offset
        # of row 0. Behind a head of W/2 fits and W/2 misses, which that pass
        # commits and skips, a fit run from row W takes passes of 2W, 4W, ...
        # rows: pass p >= 1 starts at row W * (2**p - 1). Each scan switches
        # at an offset of it.
        w = policy.FIRST_FIT_WINDOW
        start, width = w * (2**pass_index - 1), w * 2**pass_index
        at = start + {"0": 0, "1": 1, "W-1": width - 1, "W": width, "W+1": width + 1}[offset]
        fits, misses, budget = (0.1, 0.7, 3.3), (0.1, 1e9, 3.3), (1e4, 1e4, 1e4)
        head = [fits] * (w // 2) + [misses] * (w // 2) if pass_index else []
        self.check(head + [fits] * (at - len(head)) + [misses] * 300, budget)
        self.check(head + [fits] * (start - len(head)) + [misses] * (at - start) + [fits] * 300,
                   budget)
        # One fit inside a miss run, as the baselines' long scans end.
        self.check(head + [fits] * (at - len(head)) + [misses] * 200 + [fits] + [misses] * 400,
                   budget)

    def test_each_pass_commits_its_whole_fit_run_and_skips_its_whole_miss_run(self):
        # Every output stays exact if a pass commits less; only the windows
        # the scan slices off the rows, and its writes to ``left``, show it.
        assert policy.FIRST_FIT_WINDOW == 64  # the trace below is laid out for it
        fits, big, misses = (0.1, 0.7, 3.3), (0.1, 0.7, 6000.0), (0.1, 1e9, 3.3)
        scan = [fits] * 99 + [big] + [misses] * 50 + [fits] * 10 + [misses] * 400
        scan += [fits] * 10 + [misses] * 10 + [fits] * 30 + [misses] * 34 + [fits] * 316
        rows, left, used = np.array(scan).view(Windows), np.full(3, 1e4).view(Writes), np.zeros(3)
        rows.trace = left.trace = []
        fit = first_fit(rows, left, used)
        assert rows.trace == [
            # The whole scan: 100 fits, the last (``big``) above half of what
            # is left, then 50 misses on the second budget alone
            [0, 960, 1],
            [150, 450, 1],  # 10 fits, then such misses up to the window's end
            [450, 960, 0],  # opens with such a miss: no write, and 110 misses skipped
            [560, 780, 1],  # 10 fits and 10 misses, fewer than 64 rows: the scalar loop
            [580, 644, 1],  # mixed, so the scalar loop goes on
            [644, 708, 1],  # all fits: array passes again, from 64 rows
            [708, 772, 1],
            [772, 900, 1],
            [900, 960, 1],
        ]
        expected_fit, expected_left, expected_used = scalar_first_fit(scan, (1e4, 1e4, 1e4))
        assert fit.tolist() == expected_fit
        assert left.tolist() == expected_left and used.tolist() == expected_used

    @given(st.integers(policy.FIRST_FIT_WINDOW + 1, 3000), st.integers(0, 2**32 - 1))
    def test_a_scan_that_fits_whole_takes_one_pass_and_one_write(self, n, seed):
        # Rows of up to 3.0 each: 3,000 of them fit a budget of 1e4 whole.
        scan = np.random.default_rng(seed).choice([0.0, -0.0, 0.1, 1.0, 3.0], size=(n, 3))
        rows, left, used = scan.view(Windows), np.full(3, 1e4).view(Writes), np.zeros(3)
        rows.trace = left.trace = []
        fit = first_fit(rows, left, used)
        assert rows.trace == [[0, n, 1]]
        expected_fit, expected_left, expected_used = scalar_first_fit(scan.tolist(), (1e4,) * 3)
        assert fit.tolist() == expected_fit == [True] * n
        assert left.tobytes() == np.array(expected_left).tobytes()
        assert used.tobytes() == np.array(expected_used).tobytes()

    def test_a_miss_run_is_judged_against_what_the_fit_run_left(self):
        # Negative rows give budget back: the last row misses the 74.0 left
        # when the second pass starts but fits the 80.0 its fit run leaves.
        self.check([(0.0, 0.0, -1.0)] * 70 + [(1.0, 0.0, 0.0), (0.0, 0.0, 77.0)], (0.0, 0.0, 10.0))


def reference_trigger_migration(scores, mat, tiers, fleet, epoch_index, pinned=None):
    """The greedy round as a Python sort of (-score, id, row) tuples, fed to the scalar packer."""
    candidates = []
    for i, row in enumerate(scores.tolist()):
        ranked = sorted(
            (-score, vmdk_id, j)
            for j, (score, vmdk_id) in enumerate(zip(row, fleet.roster.ids))
            if score > -math.inf
        )
        candidates += [(i, j) for _, _, j in ranked]
    current = dict(zip(fleet.roster.ids, fleet.roster.tier_ids[fleet.tier_row].tolist()))
    return reference_pack(
        tiers, fleet.roster.ids, mat.cap.tolist(), "pbs", candidates, current, epoch_index, pinned
    )


SCORE_VALUES = (-math.inf, math.nan, -0.0, 0.0, 0.25, 0.5, 1.0, math.inf)
SCORE_WEIGHTS = (0.2, 0.05, 0.15, 0.15, 0.15, 0.15, 0.1, 0.05)


def random_greedy_round(rng):
    """A 100-400 VMDK round with every edge of the tier scans mixed in.

    Scores tie (-0.0 against 0.0 too) and include -inf and NaN cells. Usage
    mixes tiny and large rows under budgets that are a fraction of the
    demand, so scans run past one window and switch between fits and
    misses. Some VMDKs are pinned; the pinned ``zz-big`` overloads tier 1.
    Returns the scores, matrices, tiers, fleet, pins and the fleet's specs.
    """
    n_tiers = int(rng.integers(2, 5))
    n = int(rng.integers(100, 401))
    # Inexact decimals, so a sum in another order rounds differently.
    steps = (
        np.array([0.0, 100.1, 1_000.3, 5_000.7]),
        np.array([0.0, 0.1, 10.3, 50.7]),
        np.array([10.1, 40.3, 80.7, 0.5]),
    )
    share = rng.uniform(0.1, 0.6, size=(n_tiers, 3))
    tiers = tuple(
        make_tier(i + 1, capacity=ResourceVector(*(
            float(share[i, k] * n * steps[k].mean()) for k in range(3)
        )))
        for i in range(n_tiers)
    )
    states = [
        make_state(make_vmdk(f"v{j:03d}", initial_tier=t), tier=t)
        for j, t in enumerate(rng.integers(1, n_tiers + 1, size=n).tolist())
    ]
    states.append(make_state(make_vmdk("zz-big", initial_tier=n_tiers), tier=n_tiers))
    fleet = fleet_of(states, tiers)
    ids = fleet.roster.ids
    cap = np.stack([rng.choice(values, size=(n_tiers, n + 1)) for values in steps], axis=-1)
    cap[:, fleet.roster.row["zz-big"]] = 1e12
    score = rng.choice(SCORE_VALUES, p=SCORE_WEIGHTS, size=(n_tiers, n + 1))
    mat = normalize_and_gate(cap, fleet)
    pinned = {
        v: int(rng.integers(1, n_tiers + 1))
        for v in rng.choice(ids[:-1], size=int(rng.integers(0, 20)), replace=False).tolist()
    }
    pinned["zz-big"] = 1
    pin(fleet, pinned)
    return score, mat, tiers, fleet, pinned, [s.spec for s in states]


class TestTriggerMigrationMatchesReference:
    @pytest.mark.parametrize("seed", range(10))
    def test_plan_repr_equals_the_tuple_sort(self, seed):
        scores, mat, tiers, fleet, pinned, _ = random_greedy_round(np.random.default_rng(seed))
        expected = reference_trigger_migration(scores, mat, tiers, fleet, 7, pinned)
        plan = keyed_plan(trigger_migration(scores, mat, fleet, 7))
        assert repr(plan_record(plan)) == repr(plan_record(expected))
        assert "zz-big" in plan.overloaded

    def test_cases_cover_every_edge(self, monkeypatch):
        scans = []
        first_fit = policy.first_fit

        def recording(*args):
            scans.append(first_fit(*args))
            return scans[-1]

        monkeypatch.setattr(policy, "first_fit", recording)
        seen = set()
        for seed in range(10):
            scores, mat, tiers, fleet, pinned, _ = random_greedy_round(np.random.default_rng(seed))
            plan = keyed_plan(trigger_migration(scores, mat, fleet, 7))
            signs = {math.copysign(1.0, x) for x in scores[scores == 0.0].tolist()}
            seen.update(name for name, hit in (
                ("signed zero tie", signs == {-1.0, 1.0}),
                ("placement", bool(plan.migrations)),
                ("stay-put overload", bool(plan.overloaded - set(pinned))),
            ) if hit)
        long = [fit for fit in scans if len(fit) > policy.FIRST_FIT_WINDOW]
        assert len(seen) == 3
        assert max(np.count_nonzero(fit[1:] != fit[:-1]) for fit in long) >= 3


class TestAssignmentPlanChecks:
    """Moves are written as (VMDK id, from tier id); tier id t is row t - 1.

    A move's destination is its VMDK's tier in ``TARGET``.
    """

    IDS = ("a", "b", "c")
    TARGET = {"a": 2, "b": 1, "c": 3}

    def plan(self, migrations, ids=IDS):
        return policy.AssignmentPlan(
            epoch_index=0,
            ids=ids,
            tier_ids=np.arange(1, len(ids) + 1),
            target_row=np.array([self.TARGET[v] - 1 for v in ids], dtype=np.intp),
            move_rows=np.array([ids.index(v) for v, _ in migrations], dtype=np.intp),
            move_from=np.array([t - 1 for _, t in migrations], dtype=np.intp),
            overloaded_rows=np.zeros(0, dtype=np.intp),
            used=np.zeros((len(ids), 3)),
        )

    @pytest.mark.parametrize("migrations, message", [
        ((("a", 1), ("b", 1)), "only contain actual moves"),
        ((("a", 1), ("b", 1), ("c", 1)), "only contain actual moves"),
        ((("a", 2),), "only contain actual moves"),
        ((("a", 1), ("c", 1), ("a", 1)), "name each VMDK once, in fleet-row order"),
        ((("a", 1), ("a", 1), ("b", 1)), "only contain actual moves"),
    ])
    def test_the_first_bad_move_names_the_error(self, migrations, message):
        with pytest.raises(ValueError, match=message):
            self.plan(migrations)

    @pytest.mark.parametrize("migrations", [
        (("c", 1), ("a", 1)),
        (("a", 1), ("a", 1)),
    ], ids=["out-of-order", "equal-pair"])
    def test_moves_out_of_fleet_row_order_are_refused(self, migrations):
        # The engine starts a plan's moves in the order given, so the plan
        # holds them in the id order every planner lists them in.
        with pytest.raises(ValueError, match="name each VMDK once, in fleet-row order"):
            self.plan(migrations)

    def test_consistent_moves_pass(self):
        plan = self.plan((("a", 1), ("c", 2)))
        assert keyed_plan(plan).migrations == (("a", 1, 2), ("c", 2, 3))
        assert plan.target == self.TARGET
        assert keyed_plan(self.plan((), ids=())).migrations == ()


def counting_penalties(monkeypatch) -> list[np.ndarray]:
    """Every ``migration_penalty`` the policy computes from now on, in order."""
    computed = []

    def counting(fleet, migration_epoch_seconds):
        computed.append(migration_penalty(fleet, migration_epoch_seconds))
        return computed[-1]

    monkeypatch.setattr(policy, "migration_penalty", counting)
    return computed


class TestAutoTieringPolicy:
    def test_a_plan_before_any_monitor_epoch_is_refused(self):
        def probe(latencies, samples):
            raise AssertionError("planning must not probe")

        fleet = fleet_of([make_state(make_vmdk())], [make_tier(1)])
        ctx = PolicyContext(fleet, PolicyWeights(), 60.0, probe)
        with pytest.raises(RuntimeError, match="plan requested before any monitor epoch"):
            AutoTieringPolicy().plan_migrations(ctx, 0)

    # Monitor epochs, and those that compute the penalty: the first, and each
    # after a served or landed move changed what the penalty reads.
    PENALTY_COUNTS = {"table3-table4": (50, 9), "spike": (30, 11), "tiny-oracle": (9, 9)}

    @pytest.mark.parametrize("name", sorted(PENALTY_COUNTS))
    def test_a_bundled_run_scores_with_the_penalty_as_the_fleet_stands(self, name, monkeypatch):
        scenario = load_bundled_scenario(name)
        seconds = scenario.weights.migration_epoch * scenario.sim.epoch_seconds
        computed = counting_penalties(monkeypatch)
        scored, score = [], policy.cal_score

        def recording(mat, previous, weights, fleet, fits, penalty, workspace):
            scored.append((penalty.tobytes(), migration_penalty(fleet, seconds).tobytes()))
            return score(mat, previous, weights, fleet, fits, penalty, workspace)

        monkeypatch.setattr(policy, "cal_score", recording)
        run_scenario(scenario, "autotiering")
        assert (len(scored), len(computed)) == self.PENALTY_COUNTS[name]
        assert all(kept == fresh for kept, fresh in scored)

    @staticmethod
    def monitored(monkeypatch):
        """A policy monitored once on a served ``tiny-oracle`` fleet, which stays writable."""
        scenario = load_bundled_scenario("tiny-oracle")
        fleet = Fleet.of(scenario.roster)
        serve_epoch(fleet, fleet.roster.device_caps[2:] / 4)
        probe = partial(probe_latencies, fleet, rng=np.random.default_rng(0), noise_cv=0.05)
        ctx = PolicyContext(fleet, scenario.weights, scenario.sim.epoch_seconds, probe)
        computed = counting_penalties(monkeypatch)
        at_policy = AutoTieringPolicy()
        at_policy.on_monitor(ctx)
        assert len(computed) == 1
        return at_policy, ctx, computed

    @pytest.mark.parametrize("column, cell", [
        ("tier_row", (2,)), ("spare_mbps", (1, 0)), ("spare_mbps", (0, 2)),
        ("measured_mbps", (0, 5)),
    ], ids=["tier_row", "spare_write", "spare_read", "measured_read"])
    def test_a_change_to_what_the_penalty_reads_recomputes_it(self, column, cell, monkeypatch):
        at_policy, ctx, computed = self.monitored(monkeypatch)
        array = getattr(ctx.fleet, column)
        if column == "tier_row":
            array[cell] = (array[cell] + 1) % len(ctx.fleet.roster.tiers)
        else:
            array[cell] /= 2
        at_policy.on_monitor(ctx)
        fresh = migration_penalty(ctx.fleet, ctx.migration_epoch_seconds)
        assert len(computed) == 2
        assert at_policy.penalty.tobytes() == fresh.tobytes() != computed[0].tobytes()

    @pytest.mark.parametrize("column, cell", [
        ("measured_mbps", (1, 5)), ("contention", (0,)), ("demand", (0, 5)),
    ], ids=["measured_write", "contention", "demand"])
    def test_a_change_to_anything_else_keeps_it(self, column, cell, monkeypatch):
        at_policy, ctx, computed = self.monitored(monkeypatch)
        getattr(ctx.fleet, column)[cell] *= 3
        at_policy.on_monitor(ctx)
        assert len(computed) == 1 and at_policy.penalty is computed[0]
        fresh = migration_penalty(ctx.fleet, ctx.migration_epoch_seconds)
        assert at_policy.penalty.tobytes() == fresh.tobytes()


def matrix_bytes(mat):
    return mat.cap.tobytes(), mat.ratio.tobytes(), mat.feasible.tobytes()


def plan_bytes(plan):
    fields = (plan.target_row, plan.move_rows, plan.move_from, plan.overloaded_rows, plan.used)
    return tuple(array.tobytes() for array in fields)


def checked_workspace_run(scenario, monkeypatch):
    """An AutoTiering run of ``scenario`` whose workspace layers are checked against fresh calls.

    At every monitor epoch the matrices and the score must equal, bit for bit,
    those of calls without a workspace on the same fits, fleet, last score and
    penalty; at every plan epoch, so must the plan, against the greedy round
    on those fresh ones. Every plan, and the matrices and score the policy
    holds at it, must end the run as they were handed out. Returns the numbers
    of monitor epochs that follow a landing and a phase change.
    """
    score, fresh, last, seen, handed = policy.cal_score, {}, {}, {"tier_row": 0, "demand": 0}, []

    def checking(mat, previous, weights, fleet, fits, penalty, workspace):
        kept = score(mat, previous, weights, fleet, fits, penalty, workspace)
        mine = normalize_and_gate(cal_capacity_matrices(fits, fleet), fleet)
        again = score(mine, previous, weights, fleet, fits, penalty)
        assert matrix_bytes(mat) == matrix_bytes(mine)
        assert kept.tobytes() == again.tobytes()
        fresh.update(mat=mine, score=again)
        for name in seen:
            now = getattr(fleet, name).tobytes()
            seen[name] += last.get(name, now) != now
            last[name] = now
        return kept

    def on_plan(epoch, plan, at_policy, ctx):
        expected = trigger_migration(fresh["score"], fresh["mat"], ctx.fleet, epoch)
        assert plan_bytes(plan) == plan_bytes(expected)
        mat, kept = at_policy.matrices, at_policy.score
        handed.append((plan, mat, kept, plan_bytes(plan), matrix_bytes(mat), kept.tobytes()))

    monkeypatch.setattr(policy, "cal_score", checking)
    run_scenario(scenario, "autotiering", on_plan=on_plan)
    assert handed
    for plan, mat, kept, *snapshot in handed:
        assert [plan_bytes(plan), matrix_bytes(mat), kept.tobytes()] == snapshot
    return seen["tier_row"], seen["demand"]


class TestMonitorWorkspace:
    """The workspace's matrices, scores and plans are those of fresh layer calls."""

    # Whether a run's monitor epochs follow a landing, and a phase change:
    # spike's AutoTiering run lands no move, table3-table4's changes no phase.
    COVERS = {"spike": (False, True), "table3-table4": (True, False), "scale": (True, True)}

    @pytest.mark.parametrize("name", sorted(COVERS))
    def test_a_run_matches_fresh_calls_through_landings_and_phase_changes(
        self, name, monkeypatch
    ):
        scenario = scale_scenario() if name == "scale" else load_bundled_scenario(name)
        landed, phased = checked_workspace_run(scenario, monkeypatch)
        assert (landed > 0, phased > 0) == self.COVERS[name]

    @settings(max_examples=40)
    @given(doc=scenario_documents())
    def test_a_generated_run_matches_fresh_calls(self, doc):
        with pytest.MonkeyPatch.context() as monkeypatch:
            landed, phased = checked_workspace_run(validate_scenario(doc), monkeypatch)
        event("lands a move" if landed else "lands no move")
        event("changes phase" if phased else "changes no phase")


class TestPlanViews:
    """A plan's id views are built once, and a plan lists VMDKs and moves in id order."""

    VIEWS = ("target", "planned_usage")

    def assert_cached(self, plan):
        for name in self.VIEWS:
            assert getattr(plan, name) is getattr(plan, name)

    @pytest.mark.parametrize("seed", range(4))
    def test_every_planner_lists_vmdks_and_moves_in_id_order(self, seed):
        rng = np.random.default_rng(seed)
        scores, mat, _, fleet, _, _ = random_greedy_round(rng)
        fleet.measured_iops[:] = rng.choice([0.0, 5e3, 2e4], size=len(fleet.roster.ids))
        _, oracle_fleet, _, oracle_mat, weights, previous = random_oracle_instance(rng)
        cases = (
            (trigger_migration(scores, mat, fleet, 7), fleet),
            (idt_assign(fleet, 7), fleet),
            (edt_assign(fleet, 7), fleet),
            (oracle_assignment(oracle_mat, weights, previous, oracle_fleet, 900.0), oracle_fleet),
        )
        for plan, planned in cases:
            self.assert_cached(plan)
            assert list(plan.target) == list(plan.ids)
            assert (np.diff(plan.move_rows) > 0).all()
            # Every VMDK not in flight whose target is not its tier moves, and no other.
            moving = (plan.target_row != planned.tier_row) & (planned.dest_row < 0)
            assert plan.move_rows.tolist() == np.flatnonzero(moving).tolist()
        assert min(len(plan.move_rows) for plan, _ in cases[:3]) >= 2

    @pytest.mark.parametrize("seed", range(4))
    def test_oracle_plans_seat_in_id_order(self, seed):
        tiers, fleet, records, mat, weights, previous = random_oracle_instance(
            np.random.default_rng(seed)
        )
        plan = oracle_assignment(mat, weights, previous, fleet, 900.0)
        self.assert_cached(plan)
        ids = fleet.roster.ids
        assert list(plan.target) == list(ids)
        assert [v for v, _, _ in keyed_plan(plan).migrations] == [
            ids[j] for j in np.flatnonzero(plan.target_row != previous).tolist()
        ]
        usage = {t.id: ResourceVector(*hosted_usage(mat, fleet, plan.target, t.id)) for t in tiers}
        assert repr(plan.planned_usage) == repr(usage)


class TestProfitAndOracle:
    def small_instance(self, rng):
        return random_oracle_instance(rng)

    def test_profit_collapses_without_migrations(self):
        tier = make_tier(1)
        states = [
            make_state(make_vmdk("a", demand_iops=5000, sla_weight=2.0)),
            make_state(make_vmdk("b", demand_iops=9000, sla_weight=1.0)),
        ]
        records = {"a": record(0.0, 50.0), "b": record(0.0, 50.0)}
        fleet = fleet_of(states, [tier])
        mat = build_matrices(fleet, records)
        weights = PolicyWeights(alpha=ResourceVector(1, 0, 0), beta=7.0)
        target = tier_rows(fleet, {"a": 1, "b": 1})
        profit = epoch_profit(target, target, mat, weights, fleet, 900.0)
        expected = 2.0 * mat.ratio[at(fleet, 1, "a")][P] + 1.0 * mat.ratio[at(fleet, 1, "b")][P]
        assert profit == pytest.approx(expected, rel=1e-12)

    def test_zero_beta_ignores_previous_assignment(self):
        rng = np.random.default_rng(5)
        tiers, fleet, records, mat, weights, previous = self.small_instance(rng)
        weights = PolicyWeights(alpha=weights.alpha, beta=0.0)
        target = np.where(mat.feasible[row_of_tier(fleet, 1)], row_of_tier(fleet, 1), previous)
        p1 = epoch_profit(target, previous, mat, weights, fleet, 900.0)
        other_prev = np.full_like(previous, row_of_tier(fleet, 2))
        p2 = epoch_profit(target, other_prev, mat, weights, fleet, 900.0)
        assert p1 == pytest.approx(p2, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_a_move_that_cannot_run_is_minus_inf_at_any_beta(self, beta):
        tiers = (make_tier(1, 100.0), make_tier(2, 200.0))
        fleet = fleet_of([make_state(make_vmdk(), tier=2)], tiers)
        mat = build_matrices(fleet, {"v1": record(0.0, 50.0)})
        fleet.spare_mbps[1, row_of_tier(fleet, 1)] = 0.0
        previous = tier_rows(fleet, {"v1": 2})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            contrib = profit_contributions(mat, PolicyWeights(beta=beta), previous, fleet, 900.0)
        assert contrib[row_of_tier(fleet, 1), 0] == -math.inf
        assert np.isfinite(contrib[row_of_tier(fleet, 2), 0])

    def test_oracle_picks_best_of_three_tiers(self):
        tiers = (
            make_tier(1, 50.0, specialty=ResourceVector(1, 1, 0)),
            make_tier(2, 150.0, specialty=ResourceVector(1, 1, 0)),
            make_tier(3, 450.0, specialty=ResourceVector(1, 1, 0)),
        )
        state = make_state(make_vmdk(demand_iops=1e9), tier=3)
        records = {"v1": record(1.0, 100.0)}
        fleet = fleet_of([state], tiers)
        mat = build_matrices(fleet, records)
        weights = PolicyWeights(beta=0.0)
        previous = tier_rows(fleet, {"v1": 3})
        plan = oracle_assignment(mat, weights, previous, fleet, 900.0)
        profits = {
            t.id: epoch_profit(tier_rows(fleet, {"v1": t.id}), previous, mat, weights, fleet,
                               900.0)
            for t in tiers
        }
        assert plan.target["v1"] == max(profits, key=profits.get)

    def test_oracle_errors_when_nothing_fits(self):
        tier = make_tier(1, capacity=ResourceVector(1e6, 1e5, 10.0))
        state = make_state(make_vmdk(size_gb=50.0, demand_iops=10))
        fleet = fleet_of([state], [tier])
        mat = build_matrices(fleet, {"v1": record(0.0, 50.0)})
        with pytest.raises(ValueError, match="feasible"):
            oracle_assignment(mat, PolicyWeights(), tier_rows(fleet, {"v1": 1}), fleet, 900.0)

    def test_oracle_tie_breaks_lexicographically(self):
        # The reference keeps the smallest tier-row vector among equal optima;
        # the oracle promises no tie-break, only the same profit.
        tiers = (make_tier(1, 100.0), make_tier(2, 200.0))
        state = make_state(make_vmdk(demand_iops=0.0))
        records = {"v1": record(0.0, 50.0)}
        fleet = fleet_of([state], tiers)
        mat = build_matrices(fleet, records)
        weights = PolicyWeights(beta=0.0)
        previous = tier_rows(fleet, {"v1": 1})
        profit, vector = reference_oracle(mat, weights, previous, fleet, 900.0)
        assert vector.tolist() == [row_of_tier(fleet, 1)]
        plan = oracle_assignment(mat, weights, previous, fleet, 900.0)
        assert epoch_profit(plan.target_row, previous, mat, weights, fleet, 900.0) == profit

    def assert_matches_reference(self, mat, weights, previous, fleet):
        """The oracle finds an assignment exactly when the reference does, of its profit."""
        expected = reference_oracle(mat, weights, previous, fleet, 900.0)
        try:
            plan = oracle_assignment(mat, weights, previous, fleet, 900.0)
        except ValueError as exc:
            assert expected is None, exc
            return False
        assert expected is not None
        profit = epoch_profit(plan.target_row, previous, mat, weights, fleet, 900.0)
        assert abs(profit - expected[0]) <= 1e-9
        assert plan.used.tolist() == sequential_usage(mat, plan.target_row, fleet.roster.budget)
        return True

    @pytest.mark.parametrize("sizes, budget", [
        ((0.1, 0.2), 0.3),
        ((50 + 1e-9, 50 + 1e-9), 100.0),
        ((0.1, 0.2, 0.1, 0.2, 0.3), 0.6),
    ])
    def test_oracle_keeps_the_packers_fit_inside_the_solver_tolerance(self, sizes, budget):
        # The sizes fill the fast tier's storage in decimal but overrun it in
        # float, by less than the solver's feasibility tolerance.
        tiers = (make_tier(1, 100.0, capacity=ResourceVector(1e6, 1e5, budget)),
                 make_tier(2, 400.0, capacity=ResourceVector(1e6, 1e5, 1000.0)))
        states = [make_state(make_vmdk(f"v{j}", size_gb=s, demand_iops=1000.0))
                  for j, s in enumerate(sizes)]
        fleet = fleet_of(states, tiers)
        mat = build_matrices(fleet, {s.spec.id: record(0.0, 10.0) for s in states})
        weights = PolicyWeights(beta=0.0)
        assert self.assert_matches_reference(mat, weights, fleet.tier_row.copy(), fleet)

    def test_oracle_matches_the_reference_on_random_instances(self):
        rng = np.random.default_rng(1618)
        found = []
        for _ in range(120):
            tiers, fleet, records, mat, weights, previous = random_oracle_instance(rng)
            found.append(self.assert_matches_reference(mat, weights, previous, fleet))
        assert all(found)

    def test_oracle_matches_the_reference_on_tight_budgets(self):
        # Shrunk tiers make budgets bind and often leave nothing that fits; a
        # tier with no spare write bandwidth makes moves to it impossible
        # (profit -inf), which both must leave out.
        rng = np.random.default_rng(314)
        found = []
        for k in range(200):
            scale = float(rng.uniform(0.02, 0.5))
            tiers, fleet, records, mat, weights, previous = random_oracle_instance(rng, scale)
            if k % 3 == 0:
                fleet.spare_mbps[1, int(rng.integers(0, len(tiers)))] = 0.0
            if k % 6 == 0:
                weights = PolicyWeights(alpha=weights.alpha, beta=0.0, aging_factor=0.0)
            found.append(self.assert_matches_reference(mat, weights, previous, fleet))
        assert 20 <= sum(found) <= 180  # both outcomes occur often

    def test_oracle_matches_manual_enumeration_on_2x2(self):
        tiers = (
            make_tier(1, 80.0, capacity=ResourceVector(50_000, 500, 200.0)),
            make_tier(2, 320.0, capacity=ResourceVector(30_000, 300, 800.0)),
        )
        states = [
            make_state(make_vmdk("a", size_gb=150.0, sla_weight=2.0, initial_tier=2,
                                 demand_iops=20_000), measured_read_mbps=10.0),
            make_state(make_vmdk("b", size_gb=90.0, sla_weight=1.0, initial_tier=1,
                                 demand_iops=8_000), measured_read_mbps=5.0),
        ]
        records = {"a": record(0.4, 30.0), "b": record(0.1, 60.0)}
        fleet = fleet_of(states, tiers)
        mat = build_matrices(fleet, records)
        weights = PolicyWeights(beta=0.5)
        previous = tier_rows(fleet, {"a": 2, "b": 1})
        candidates = [
            {"a": ta, "b": tb} for ta in (1, 2) for tb in (1, 2)
        ]
        feasible = []
        for target in candidates:
            usage = {t: hosted_usage(mat, fleet, target, t.id) for t in tiers}
            if all(fits_within(u, t.max_usable()) for t, u in usage.items()):
                profit = epoch_profit(
                    tier_rows(fleet, target), previous, mat, weights, fleet, 900.0
                )
                feasible.append((profit, target))
        best_profit, _ = max(feasible, key=lambda x: x[0])
        plan = oracle_assignment(mat, weights, previous, fleet, 900.0)
        oracle_profit = epoch_profit(plan.target_row, previous, mat, weights, fleet, 900.0)
        assert oracle_profit == pytest.approx(best_profit, rel=1e-12)

    def test_greedy_never_beats_oracle_on_random_instances(self):
        rng = np.random.default_rng(20240811)
        agree = 0
        total = 60
        for _ in range(total):
            tiers, fleet, records, mat, weights, previous = self.small_instance(rng)
            sm = cal_score(mat, None, weights, fleet, records, migration_penalty(fleet, 900.0))
            greedy = trigger_migration(sm, mat, fleet, 0)
            try:
                oracle = oracle_assignment(mat, weights, previous, fleet, 900.0)
            except ValueError:
                continue
            assert not keyed_plan(greedy).overloaded
            # recompute capacity safety from the matrices, independent of the
            # planner's own usage accounting
            for tier in tiers:
                total = hosted_usage(mat, fleet, greedy.target, tier.id)
                budget = tier.max_usable()
                assert fits_within(total, budget, slack=1e-9 * (1 + budget.total()))
                recorded = greedy.planned_usage[tier.id]
                assert recorded.p == pytest.approx(total[0], rel=1e-9, abs=1e-9)
                assert recorded.s == pytest.approx(total[2], rel=1e-9, abs=1e-9)
            g = epoch_profit(greedy.target_row, previous, mat, weights, fleet, 900.0)
            o = epoch_profit(oracle.target_row, previous, mat, weights, fleet, 900.0)
            assert g <= o + 1e-9
            if greedy.target == oracle.target:
                agree += 1
        assert agree > 0  # sanity: they do coincide sometimes
