"""Scoring and greedy assignment, checked against hand computations and the oracle."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from autotier import policy
from autotier.baselines import idt_assign
from autotier.calibration import estimate_avg_lat
from autotier.model import (
    CapacityMatrices,
    Fleet,
    PolicyWeights,
    ResourceVector,
    Roster,
)
from autotier.policy import (
    cal_capacity_matrices,
    cal_score,
    epoch_profit,
    first_fit,
    mig_cost_seconds,
    normalize_and_gate,
    oracle_assignment,
    orthogonal_match_score,
    pack,
    trigger_migration,
)

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
    reference_pack,
    row_of_tier,
    tier_rows,
)
from test_baselines import REFERENCE_RULES, reference_pack_by_metric
from test_golden import plan_record


def record(vmdk_id, m, b, conf=1.0):
    return vmdk_id, m, b, conf


def fits(fleet, records):
    """Calibration fits of ``records`` (rows by VMDK id) in the fleet's row order."""
    return make_fits(records[v] for v in fleet.roster.ids)


P, B, S = 0, 1, 2  # component index on the last axis of cap / ratio


def build_matrices(fleet, records):
    mat = cal_capacity_matrices(fits(fleet, records), fleet)
    return normalize_and_gate(mat, fleet)


def at(mat, tier_id, vmdk_id):
    """Array index of the (tier, vmdk) cell; tier id t is row t - 1."""
    return tier_id - 1, mat.vmdk_ids.index(vmdk_id)


def match(tier, ratios, sla, conf):
    """orthogonal_match_score of one tier and one VMDK's (p, b, s) ratios."""
    cell = np.array(ratios, dtype=float).reshape(1, 1, 3)
    fleet = Fleet.of(Roster.of([make_vmdk(initial_tier=tier.id)], [tier]))
    return orthogonal_match_score(fleet, cell, np.array([sla]), np.array([conf]))[0, 0]


def move_cost(fleet, target_tier):
    """mig_cost_seconds of a one-VMDK fleet to one tier."""
    return mig_cost_seconds(fleet)[row_of_tier(fleet, target_tier), 0]


class TestCapacityMatrices:
    def test_forced_iops_formula(self):
        # 20us predicted latency -> 50K IOPS
        tier = make_tier(1, base_latency_us=20.0)
        state = make_state(make_vmdk(demand_iops=1e9, avg_io_size_bytes=4096))
        mat = cal_capacity_matrices(
            make_fits([record("v1", 0.0, 20.0)]), fleet_of([state], [tier])
        )
        cell = mat.cap[at(mat, 1, "v1")]
        assert cell[P] == pytest.approx(50_000, rel=1e-9)
        assert cell[B] == pytest.approx(50_000 * 4096 / 1e6, rel=1e-9)
        assert cell[S] == state.spec.size_gb

    def test_negative_prediction_means_zero_throughput(self):
        tiers = (make_tier(1, 50.0), make_tier(2, 2050.0))
        state = make_state(make_vmdk(initial_tier=2, demand_iops=1e9), tier=2)
        records = make_fits([record("v1", 1.0, 500.0)])
        mat = cal_capacity_matrices(records, fleet_of([state], tiers))
        # predicted latency on tier 1: 1.0 * (50-2050) + 500 = -1500us
        assert estimate_avg_lat(records, [1], np.array([50.0, 2050.0]))[0, 0] == -1500.0
        assert mat.cap[at(mat, 1, "v1")][P] == 0.0
        assert mat.cap[at(mat, 1, "v1")][B] == 0.0

    def test_throughput_capped_at_demand(self):
        tier = make_tier(1, base_latency_us=20.0)
        state = make_state(make_vmdk(demand_iops=10_000, avg_io_size_bytes=4096))
        mat = cal_capacity_matrices(
            make_fits([record("v1", 0.0, 20.0)]), fleet_of([state], [tier])
        )
        assert mat.cap[at(mat, 1, "v1")][P] == 10_000
        assert mat.cap[at(mat, 1, "v1")][B] == pytest.approx(10_000 * 4096 / 1e6)


class TestNormalizeAndGate:
    def test_oversized_vmdk_is_gated(self):
        # 960GB VMDK cannot fit the 480GB tier-1 budget
        tier = make_tier(1, capacity=ResourceVector(240_000, 1000, 480))
        state = make_state(make_vmdk(size_gb=960.0, demand_iops=100))
        fleet = fleet_of([state], [tier])
        mat = build_matrices(fleet, {"v1": record("v1", 0.0, 100.0)})
        assert bool(mat.feasible[at(mat, 1, "v1")]) is False
        assert mat.ratio[at(mat, 1, "v1")].tolist() == [0.0, 0.0, 0.0]

    def test_hand_divided_ratios(self):
        tier = make_tier(1, capacity=ResourceVector(100_000, 1000, 480))
        state = make_state(make_vmdk(size_gb=100.0, demand_iops=50_000, avg_io_size_bytes=4096))
        fleet = fleet_of([state], [tier])
        mat = build_matrices(fleet, {"v1": record("v1", 0.0, 10.0)})
        ratios = mat.ratio[at(mat, 1, "v1")]
        assert ratios[P] == pytest.approx(0.5, rel=1e-9)
        assert ratios[B] == pytest.approx(204.8 / 1000, rel=1e-9)
        assert ratios[S] == pytest.approx(100 / 480, rel=1e-9)

    def test_zero_usage_is_feasible(self):
        tier = make_tier(1)
        state = make_state(make_vmdk(demand_iops=0.0))
        fleet = fleet_of([state], [tier])
        mat = build_matrices(fleet, {"v1": record("v1", 0.0, 100.0)})
        assert bool(mat.feasible[at(mat, 1, "v1")]) is True
        assert mat.ratio[at(mat, 1, "v1")][P] == 0.0


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
        fleet.spare_read_mbps[0] = 500.0
        fleet.spare_write_mbps[1] = 400.0
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
        fleet.spare_write_mbps[1] = 0.0
        fleet.spare_read_mbps[0] = 0.0
        assert move_cost(fleet, 2) == math.inf


class TestCalScore:
    def single_cell(self, aging, previous, mig_weight):
        tier = make_tier(1, mig_weight=mig_weight)
        state = make_state(make_vmdk(demand_iops=10_000))
        records = {"v1": record("v1", 0.0, 100.0)}
        fleet = fleet_of([state], [tier])
        mat = build_matrices(fleet, records)
        weights = PolicyWeights(aging_factor=aging, migration_epoch=3, monitor_epoch=1)
        return cal_score(mat, previous, weights, fleet, fits(fleet, records), 900.0)

    def test_memoryless_costless_is_pure_match(self):
        score = self.single_cell(0.0, None, 0.0)
        tier = make_tier(1, mig_weight=0.0)
        state = make_state(make_vmdk(demand_iops=10_000))
        records = {"v1": record("v1", 0.0, 100.0)}
        fleet = fleet_of([state], [tier])
        mat = build_matrices(fleet, records)
        expected = match(tier, mat.ratio[at(mat, 1, "v1")], 1.0, 1.0)
        assert score[at(mat, 1, "v1")] == pytest.approx(expected, rel=1e-12)

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
        records = {"w": record("w", 0.0, 100.0)}
        fleet = fleet_of([state], tiers)
        mat = build_matrices(fleet, records)
        fleet.spare_read_mbps[1] = 1000.0  # 200 of 1200 MB/s served -> cost 450s
        weights = PolicyWeights(aging_factor=0.5, migration_epoch=3)
        previous = np.zeros(mat.feasible.shape)
        previous[at(mat, 1, "w")] = 0.4
        score = cal_score(mat, previous, weights, fleet, fits(fleet, records), 900.0)
        # penalty: 0.2 * (450 GB * 1000 / 1000 MBps) / 900 s = 0.1
        assert score[at(mat, 1, "w")] == pytest.approx(0.4, rel=1e-12)
        # The next epoch ages this score in turn: 0.5 * 0.4 + 0.3 - 0.1 again.
        again = cal_score(mat, score, weights, fleet, fits(fleet, records), 900.0)
        assert again[at(mat, 1, "w")] == pytest.approx(0.4, rel=1e-12)

    def test_infeasible_propagates_and_resets_history(self):
        state = make_state(make_vmdk(size_gb=100.0, demand_iops=100))
        records = {"v1": record("v1", 0.0, 100.0)}
        weights = PolicyWeights(aging_factor=0.9)

        def score(tier, previous):
            fleet = fleet_of([state], [tier])
            mat = build_matrices(fleet, records)
            return cal_score(mat, previous, weights, fleet, fits(fleet, records), 900.0)

        gated = score(make_tier(1, capacity=ResourceVector(1000, 10, 10)), np.full((1, 1), 5.0))
        assert gated.tolist() == [[-math.inf]]
        # Once the tier can host the VMDK, the -inf cell adds no aged term.
        fresh = score(make_tier(1), None)
        assert math.isfinite(fresh[0, 0])
        assert score(make_tier(1), gated).tolist() == fresh.tolist()

    def test_infinite_migration_cost_blocks_epoch_but_not_history(self):
        tiers = (make_tier(1, 100.0), make_tier(2, 300.0))
        state = make_state(make_vmdk(size_gb=10.0, demand_iops=100), tier=2)
        records = {"v1": record("v1", 0.0, 100.0)}
        fleet = fleet_of([state], tiers)
        fleet.spare_write_mbps[0] = 0.0  # no way in
        fleet.spare_read_mbps[1] = 0.0
        mat = build_matrices(fleet, records)
        weights = PolicyWeights(aging_factor=0.5)
        move, stay = at(mat, 1, "v1"), at(mat, 2, "v1")
        blocked = cal_score(mat, None, weights, fleet, fits(fleet, records), 900.0)
        assert blocked[move] == -math.inf
        assert math.isfinite(blocked[stay])  # staying costs nothing
        # Once bandwidth frees up, the blocked cell adds no aged term.
        fleet.spare_write_mbps[0] = tiers[0].write_bandwidth_cap
        fleet.spare_read_mbps[1] = tiers[1].read_bandwidth_cap
        fresh = cal_score(mat, None, weights, fleet, fits(fleet, records), 900.0)
        again = cal_score(mat, blocked, weights, fleet, fits(fleet, records), 900.0)
        assert math.isfinite(fresh[move])
        assert again[move] == fresh[move]
        assert again[stay] == 0.5 * blocked[stay] + fresh[stay]


def scores_from(mat, tiers, values):
    score = np.full(mat.feasible.shape, -math.inf)
    for (tier_id, vmdk_id), value in values.items():
        score[at(mat, tier_id, vmdk_id)] = value
    return score


class TestTriggerMigration:
    def test_fixed_point_when_already_placed(self):
        tier = make_tier(1)
        state = make_state(make_vmdk(demand_iops=1000))
        fleet = fleet_of([state], [tier])
        mat = build_matrices(fleet, {"v1": record("v1", 0.0, 100.0)})
        sm = scores_from(mat, [tier], {(1, "v1"): 1.0})
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
        records = {"a": record("a", 0.0, 50.0), "b": record("b", 0.0, 50.0)}
        fleet = fleet_of(states, tiers)
        mat = build_matrices(fleet, records)
        sm = scores_from(mat, tiers, {
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
        records = {"a": record("a", 0.0, 50.0), "b": record("b", 0.0, 50.0)}
        fleet = fleet_of(states, tiers)
        mat = build_matrices(fleet, records)
        sm = cal_score(mat, None, PolicyWeights(), fleet, fits(fleet, records), 900.0)
        assert sm[at(mat, 1, "a")] == -math.inf
        plan = trigger_migration(sm, mat, fleet, 0)
        assert all(t == 2 for t in plan.target.values())

    def test_leftover_without_room_is_overloaded(self):
        tier = make_tier(1, capacity=ResourceVector(1e6, 1e5, 100.0))
        states = [
            make_state(make_vmdk("a", size_gb=80.0, demand_iops=10), tier=1),
            make_state(make_vmdk("b", size_gb=80.0, demand_iops=10), tier=1),
        ]
        records = {"a": record("a", 0.0, 50.0), "b": record("b", 0.0, 50.0)}
        fleet = fleet_of(states, [tier])
        mat = build_matrices(fleet, records)
        sm = scores_from(mat, [tier], {(1, "a"): 0.5, (1, "b"): 0.4})
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
        records = {"a": record("a", 0.0, 50.0), "b": record("b", 0.0, 50.0)}
        fleet = fleet_of(states, tiers)
        mat = build_matrices(fleet, records)
        sm = scores_from(mat, tiers, {
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
        records = {"mover": record("mover", 0.0, 50.0), "rival": record("rival", 0.0, 50.0)}
        fleet = fleet_of(states, tiers)
        mat = build_matrices(fleet, records)
        sm = scores_from(mat, tiers, {
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
usage_scans = st.one_of(
    st.lists(usage_rows, max_size=300),
    st.lists(st.tuples(usage_rows, st.integers(1, 200)), max_size=6).map(
        lambda runs: [row for row, count in runs for _ in range(count)]
    ),
)


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


def reference_trigger_migration(scores, mat, tiers, fleet, epoch_index, pinned=None):
    """The greedy round as a Python sort of (-score, id, row) tuples, fed to the scalar packer."""
    candidates = []
    for i, row in enumerate(scores.tolist()):
        ranked = sorted(
            (-score, vmdk_id, j)
            for j, (score, vmdk_id) in enumerate(zip(row, mat.vmdk_ids))
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
    mat = CapacityMatrices(ids, cap)
    pinned = {
        v: int(rng.integers(1, n_tiers + 1))
        for v in rng.choice(ids[:-1], size=int(rng.integers(0, 20)), replace=False).tolist()
    }
    pinned["zz-big"] = 1
    pin(fleet, pinned)
    return score, mat, tiers, fleet, pinned


class TestTriggerMigrationMatchesReference:
    @pytest.mark.parametrize("seed", range(10))
    def test_plan_repr_equals_the_tuple_sort(self, seed):
        scores, mat, tiers, fleet, pinned = random_greedy_round(np.random.default_rng(seed))
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
            scores, mat, tiers, fleet, pinned = random_greedy_round(np.random.default_rng(seed))
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
    """Moves are written as (VMDK id, from tier id, to tier id); tier id t is row t - 1."""

    IDS = ("a", "b", "c")
    TARGET = {"a": 2, "b": 1, "c": 3}

    def plan(self, migrations, ids=IDS):
        def column(k, row):
            return np.array([row(move[k]) for move in migrations], dtype=np.intp)

        def tier_row(t):
            return t - 1

        return policy.AssignmentPlan(
            epoch_index=0,
            ids=ids,
            tier_ids=np.arange(1, len(ids) + 1),
            target_row=np.array([tier_row(self.TARGET[v]) for v in ids], dtype=np.intp),
            order=np.arange(len(ids)),
            move_rows=column(0, ids.index),
            move_from=column(1, tier_row),
            move_to=column(2, tier_row),
            overloaded_rows=np.zeros(0, dtype=np.intp),
            used=np.zeros((len(ids), 3)),
        )

    @pytest.mark.parametrize("migrations, message", [
        ((("a", 1, 2), ("b", 1, 1)), "only contain actual moves"),
        ((("a", 1, 3), ("b", 1, 1)), "inconsistent with assignment"),
        ((("a", 1, 2), ("b", 1, 1), ("c", 1, 2)), "only contain actual moves"),
        ((("a", 1, 2), ("c", 1, 2), ("b", 1, 1)), "inconsistent with assignment"),
        ((("a", 2, 2),), "only contain actual moves"),
        ((("b", 2, 3),), "inconsistent with assignment"),  # b's target is tier 1
        ((("a", 1, 2), ("c", 1, 3), ("a", 1, 2)), "names a VMDK more than once"),
        ((("a", 1, 2), ("a", 1, 2), ("b", 1, 1)), "only contain actual moves"),
    ])
    def test_the_first_bad_move_names_the_error(self, migrations, message):
        with pytest.raises(ValueError, match=message):
            self.plan(migrations)

    def test_consistent_moves_pass(self):
        plan = self.plan((("a", 1, 2), ("c", 2, 3)))
        assert keyed_plan(plan).migrations == (("a", 1, 2), ("c", 2, 3))
        assert plan.target == self.TARGET
        assert keyed_plan(self.plan((), ids=())).migrations == ()


class TestPlanViews:
    """A plan's id views are built once, and ``target`` lists VMDKs as they were seated."""

    VIEWS = ("target", "planned_usage")

    def assert_cached(self, plan):
        for name in self.VIEWS:
            assert getattr(plan, name) is getattr(plan, name)

    @pytest.mark.parametrize("seed", range(4))
    def test_packed_plans_seat_pins_then_placements_then_stay_puts(self, seed):
        rng = np.random.default_rng(seed)
        scores, mat, tiers, fleet, pinned = random_greedy_round(rng)
        fleet.measured_iops[:] = rng.choice([0.0, 5e3, 2e4], size=len(fleet.roster.ids))
        cases = (
            (trigger_migration(scores, mat, fleet, 7),
             reference_trigger_migration(scores, mat, tiers, fleet, 7, pinned)),
            (idt_assign(fleet, 7),
             reference_pack_by_metric(fleet.states(), tiers, *REFERENCE_RULES[idt_assign], 7,
                                      pinned)),
        )
        for plan, expected in cases:
            self.assert_cached(plan)
            seated = list(plan.target)
            assert seated == [fleet.roster.ids[j] for j in plan.order.tolist()]
            assert seated[:len(pinned)] == sorted(pinned)
            moved = [v for v, _, _ in keyed_plan(plan).migrations]
            assert [v for v in seated if v in set(moved)] == moved
            # The reference seats pins, then candidates as placed, then stay-puts by id.
            assert seated == list(expected.target)
            assert seated != sorted(seated)

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
        usage = {t.id: ResourceVector(*hosted_usage(mat, plan.target, t.id)) for t in tiers}
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
        records = {"a": record("a", 0.0, 50.0), "b": record("b", 0.0, 50.0)}
        fleet = fleet_of(states, [tier])
        mat = build_matrices(fleet, records)
        weights = PolicyWeights(alpha=ResourceVector(1, 0, 0), beta=7.0)
        target = tier_rows(fleet, {"a": 1, "b": 1})
        profit = epoch_profit(target, target, mat, weights, fleet, 900.0)
        expected = 2.0 * mat.ratio[at(mat, 1, "a")][P] + 1.0 * mat.ratio[at(mat, 1, "b")][P]
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

    def test_oracle_picks_best_of_three_tiers(self):
        tiers = (
            make_tier(1, 50.0, specialty=ResourceVector(1, 1, 0)),
            make_tier(2, 150.0, specialty=ResourceVector(1, 1, 0)),
            make_tier(3, 450.0, specialty=ResourceVector(1, 1, 0)),
        )
        state = make_state(make_vmdk(demand_iops=1e9), tier=3)
        records = {"v1": record("v1", 1.0, 100.0)}
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
        mat = build_matrices(fleet, {"v1": record("v1", 0.0, 50.0)})
        with pytest.raises(ValueError, match="feasible"):
            oracle_assignment(mat, PolicyWeights(), tier_rows(fleet, {"v1": 1}), fleet, 900.0)

    def test_oracle_rejects_oversized_instances(self):
        tiers = (make_tier(1),)
        states = [make_state(make_vmdk(f"v{i}", demand_iops=10)) for i in range(11)]
        records = {s.spec.id: record(s.spec.id, 0.0, 50.0) for s in states}
        fleet = fleet_of(states, tiers)
        mat = build_matrices(fleet, records)
        with pytest.raises(ValueError, match="limited"):
            oracle_assignment(mat, PolicyWeights(), fleet.tier_row, fleet, 900.0)

    def test_oracle_tie_breaks_lexicographically(self):
        # two identical tiers except latency ordering; equal profit everywhere
        tiers = (make_tier(1, 100.0), make_tier(2, 200.0))
        state = make_state(make_vmdk(demand_iops=0.0))
        records = {"v1": record("v1", 0.0, 50.0)}
        fleet = fleet_of([state], tiers)
        mat = build_matrices(fleet, records)
        weights = PolicyWeights(beta=0.0)
        plan = oracle_assignment(mat, weights, tier_rows(fleet, {"v1": 1}), fleet, 900.0)
        assert plan.target["v1"] == 1

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
        records = {"a": record("a", 0.4, 30.0), "b": record("b", 0.1, 60.0)}
        fleet = fleet_of(states, tiers)
        mat = build_matrices(fleet, records)
        weights = PolicyWeights(beta=0.5)
        previous = tier_rows(fleet, {"a": 2, "b": 1})
        candidates = [
            {"a": ta, "b": tb} for ta in (1, 2) for tb in (1, 2)
        ]
        feasible = []
        for target in candidates:
            if all(fits_within(hosted_usage(mat, target, t.id), t.max_usable()) for t in tiers):
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
            sm = cal_score(mat, None, weights, fleet, records, 900.0)
            greedy = trigger_migration(sm, mat, fleet, 0)
            try:
                oracle = oracle_assignment(mat, weights, previous, fleet, 900.0)
            except ValueError:
                continue
            assert not keyed_plan(greedy).overloaded
            # recompute capacity safety from the matrices, independent of the
            # planner's own usage accounting
            for tier in tiers:
                total = hosted_usage(mat, greedy.target, tier.id)
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
