"""IDT and EDT packing rules, including the stay-put tie handling."""

import numpy as np
import pytest

from autotier.baselines import edt_assign, idt_assign
from autotier.model import ResourceVector

from conftest import make_state, make_tier, make_vmdk, random_scenario

# Fourteen-workload mix: (measured IOPS as served under tier caps, size GB)
WORKLOAD_MIX = {
    "basic-verify": (16_000, 75),
    "ssd-steady": (18_000, 100),
    "zipf-ios": (60_000, 260),
    "async-read": (30_000, 115),
    "async-write": (6_500, 120),
    "flow": (15_000, 150),
    "iometer": (13_000, 90),
    "jesd": (12_000, 110),
    "latency-profile": (11_000, 80),
    "ssd-test": (13_000, 100),
    "rand-zone": (7_750, 70),
    "surface-scan": (6_980, 200),
    "sync-read": (2_500, 60),
    "sync-write": (4, 40),
}


def tiers_3():
    return (
        make_tier(1, 60.0, ResourceVector(240_000, 1000, 480), read_iops=240_000),
        make_tier(2, 150.0, ResourceVector(200_000, 1400, 900), read_iops=200_000),
        make_tier(3, 400.0, ResourceVector(99_000, 540, 2000), read_iops=99_000),
    )


class TestIdt:
    def test_hotter_vmdk_wins_the_small_tier(self):
        tiers = (
            make_tier(1, 100.0, ResourceVector(1e6, 1e4, 100.0), read_iops=500_000),
            make_tier(2, 300.0, ResourceVector(1e6, 1e4, 1000.0), read_iops=100_000),
        )
        states = [
            make_state(make_vmdk("hot", size_gb=80.0, initial_tier=2), measured_iops=100_000),
            make_state(make_vmdk("warm", size_gb=80.0, initial_tier=2), measured_iops=10_000),
        ]
        plan = idt_assign(states, tiers)
        assert plan.target == {"hot": 1, "warm": 2}

    def test_idle_vmdks_never_migrate(self):
        tiers = (
            make_tier(1, 100.0, ResourceVector(1e6, 1e4, 1000.0), read_iops=500_000),
            make_tier(2, 300.0, ResourceVector(1e6, 1e4, 1000.0), read_iops=100_000),
        )
        states = [
            make_state(make_vmdk("a", initial_tier=2), measured_iops=0.0),
            make_state(make_vmdk("b", initial_tier=1), measured_iops=0.0),
            make_state(make_vmdk("c", initial_tier=2), measured_iops=0.0),
        ]
        plan = idt_assign(states, tiers)
        assert plan.migrations == ()

    def test_zipf_mix_places_the_heaviest_first(self):
        tiers = tiers_3()
        states = [
            make_state(make_vmdk(vid, size_gb=size, initial_tier=3), measured_iops=iops)
            for vid, (iops, size) in WORKLOAD_MIX.items()
        ]
        plan = idt_assign(states, tiers)
        assert plan.target["zipf-ios"] == 1

    def test_only_storage_is_checked(self):
        # combined measured IOPS vastly exceeds any tier cap; IDT packs anyway
        tiers = (make_tier(1, 100.0, ResourceVector(1000, 10, 1000.0), read_iops=1000),)
        states = [
            make_state(make_vmdk(f"v{i}", size_gb=10.0), measured_iops=50_000)
            for i in range(5)
        ]
        plan = idt_assign(states, tiers)
        assert all(t == 1 for t in plan.target.values())
        assert not plan.overloaded


class TestEdt:
    def test_small_hot_vmdk_wins_on_density(self):
        tiers = (
            make_tier(1, 100.0, ResourceVector(1e6, 1e4, 100.0), read_iops=500_000),
            make_tier(2, 300.0, ResourceVector(1e6, 1e4, 1000.0), read_iops=100_000),
        )
        states = [
            make_state(make_vmdk("small", size_gb=50.0, initial_tier=2), measured_iops=50_000),
            make_state(make_vmdk("large", size_gb=90.0, initial_tier=2), measured_iops=50_000),
        ]
        plan = edt_assign(states, tiers)
        assert plan.target == {"small": 1, "large": 2}

    def test_density_ties_keep_current_tier(self):
        tiers = (
            make_tier(1, 100.0, ResourceVector(1e6, 1e4, 100.0), read_iops=500_000),
            make_tier(2, 300.0, ResourceVector(1e6, 1e4, 1000.0), read_iops=100_000),
        )
        states = [
            make_state(make_vmdk("a", size_gb=80.0, initial_tier=1), measured_iops=8000),
            make_state(make_vmdk("b", size_gb=80.0, initial_tier=2), measured_iops=8000),
        ]
        plan = edt_assign(states, tiers)
        assert plan.target == {"a": 1, "b": 2}
        assert plan.migrations == ()

    def test_sync_write_lands_on_capacity_tier(self):
        tiers = tiers_3()
        states = [
            make_state(make_vmdk(vid, size_gb=size, initial_tier=3), measured_iops=iops)
            for vid, (iops, size) in WORKLOAD_MIX.items()
        ]
        plan = edt_assign(states, tiers)
        assert plan.target["sync-write"] == 3

    def test_throughput_cap_is_honored(self):
        tiers = (
            make_tier(1, 100.0, ResourceVector(60_000, 1e4, 1000.0), read_iops=500_000),
            make_tier(2, 300.0, ResourceVector(1e6, 1e4, 1000.0), read_iops=100_000),
        )
        states = [
            make_state(make_vmdk("a", size_gb=10.0, initial_tier=2), measured_iops=50_000),
            make_state(make_vmdk("b", size_gb=10.0, initial_tier=2), measured_iops=50_000),
        ]
        plan = edt_assign(states, tiers)
        placed_p = sum(
            s.measured_iops for s in states if plan.target[s.spec.id] == 1
        )
        assert placed_p <= 60_000


def mover_and_rival():
    """Tier 1 holds one of two 70GB VMDKs; the rival is hotter and denser."""
    tiers = (
        make_tier(1, 100.0, ResourceVector(60_000, 1e4, 100.0), read_iops=500_000),
        make_tier(2, 300.0, ResourceVector(1e6, 1e4, 1000.0), read_iops=100_000),
    )
    states = [
        make_state(make_vmdk("mover", size_gb=70.0, initial_tier=2), measured_iops=1_000),
        make_state(make_vmdk("rival", size_gb=70.0, initial_tier=2), measured_iops=50_000),
    ]
    return tiers, states


class TestPinned:
    @pytest.mark.parametrize("assign", [idt_assign, edt_assign])
    def test_rival_takes_the_seat_without_a_pin(self, assign):
        tiers, states = mover_and_rival()
        assert assign(states, tiers).target == {"mover": 2, "rival": 1}

    @pytest.mark.parametrize("assign", [idt_assign, edt_assign])
    def test_pinned_vmdk_keeps_destination_and_budget(self, assign):
        # the in-flight mover takes tier 1's budget before the rival is packed
        tiers, states = mover_and_rival()
        plan = assign(states, tiers, epoch_index=3, pinned={"mover": 1})
        assert plan.target == {"mover": 1, "rival": 2}
        assert plan.migrations == ()
        assert not plan.overloaded
        assert plan.planned_usage[1].s == 70.0
        assert plan.planned_usage[2].s == 70.0


class TestBaselineProperties:
    @pytest.mark.parametrize("assign", [idt_assign, edt_assign])
    def test_totality_and_checked_caps(self, assign):
        rng = np.random.default_rng(99)
        for _ in range(25):
            scenario = random_scenario(rng)
            states = [make_state(spec) for spec in scenario.vmdks]
            for s in states:
                s.measured_iops = float(rng.uniform(0, 50_000))
            plan = assign(states, scenario.tiers)
            assert set(plan.target) == {s.spec.id for s in states}
            for tier in scenario.tiers:
                if any(v in plan.overloaded for v, t in plan.target.items() if t == tier.id):
                    continue
                placed = [s for s in states
                          if plan.target[s.spec.id] == tier.id
                          and s.spec.id not in plan.overloaded]
                total_gb = sum(s.spec.size_gb for s in placed)
                assert total_gb <= tier.max_usable().s * (1 + 1e-9)
                if assign is edt_assign:
                    total_p = sum(s.measured_iops for s in placed)
                    assert total_p <= tier.max_usable().p * (1 + 1e-9)
