"""IDT and EDT packing rules, including the stay-put tie handling."""

import numpy as np
import pytest

from autotier import policy
from autotier.baselines import edt_assign, idt_assign
from autotier.model import ResourceVector

from conftest import (
    fleet_of,
    keyed_plan,
    make_state,
    make_tier,
    make_vmdk,
    pin,
    random_scenario,
    reference_pack,
)
from test_golden import plan_record

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
        plan = idt_assign(fleet_of(states, tiers))
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
        plan = idt_assign(fleet_of(states, tiers))
        assert keyed_plan(plan).migrations == ()

    def test_zipf_mix_places_the_heaviest_first(self):
        tiers = tiers_3()
        states = [
            make_state(make_vmdk(vid, size_gb=size, initial_tier=3), measured_iops=iops)
            for vid, (iops, size) in WORKLOAD_MIX.items()
        ]
        plan = idt_assign(fleet_of(states, tiers))
        assert plan.target["zipf-ios"] == 1

    def test_only_storage_is_checked(self):
        # combined measured IOPS vastly exceeds any tier cap; IDT packs anyway
        tiers = (make_tier(1, 100.0, ResourceVector(1000, 10, 1000.0), read_iops=1000),)
        states = [
            make_state(make_vmdk(f"v{i}", size_gb=10.0), measured_iops=50_000)
            for i in range(5)
        ]
        plan = idt_assign(fleet_of(states, tiers))
        assert all(t == 1 for t in plan.target.values())
        assert not keyed_plan(plan).overloaded


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
        plan = edt_assign(fleet_of(states, tiers))
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
        plan = edt_assign(fleet_of(states, tiers))
        assert plan.target == {"a": 1, "b": 2}
        assert keyed_plan(plan).migrations == ()

    def test_sync_write_lands_on_capacity_tier(self):
        tiers = tiers_3()
        states = [
            make_state(make_vmdk(vid, size_gb=size, initial_tier=3), measured_iops=iops)
            for vid, (iops, size) in WORKLOAD_MIX.items()
        ]
        plan = edt_assign(fleet_of(states, tiers))
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
        plan = edt_assign(fleet_of(states, tiers))
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
        assert assign(fleet_of(states, tiers)).target == {"mover": 2, "rival": 1}

    @pytest.mark.parametrize("assign", [idt_assign, edt_assign])
    def test_pinned_vmdk_keeps_destination_and_budget(self, assign):
        # the in-flight mover takes tier 1's budget before the rival is packed
        tiers, states = mover_and_rival()
        plan = assign(pin(fleet_of(states, tiers), {"mover": 1}), epoch_index=3)
        assert plan.target == {"mover": 1, "rival": 2}
        assert keyed_plan(plan).migrations == ()
        assert not keyed_plan(plan).overloaded
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
            plan = keyed_plan(assign(fleet_of(states, scenario.tiers)))
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


def reference_pack_by_metric(vmdks, tiers, metric, tier_capability, kinds, epoch_index, pinned):
    """Baseline candidates as built from ``VmdkState`` objects, ids ranked by a Python sort."""
    tier_order = sorted(range(len(tiers)), key=lambda i: (-tier_capability(tiers[i]), tiers[i].id))
    rank = {tiers[i].id: r for r, i in enumerate(tier_order)}
    iops = [v.measured_iops for v in vmdks]
    size = [v.spec.size_gb for v in vmdks]
    ids = [v.spec.id for v in vmdks]
    values = metric(np.array(iops, dtype=float), np.array(size, dtype=float))
    current_rank = np.array([rank[v.current_tier] for v in vmdks], dtype=np.intp)
    id_rank = np.empty(len(ids), dtype=np.intp)
    id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    vmdk_order = np.lexsort((id_rank, current_rank, -values))
    allowed = (values[vmdk_order] != 0)[:, None] | (
        np.arange(len(tiers)) >= current_rank[vmdk_order, None]
    )
    at, column = np.nonzero(allowed)
    candidates = zip(
        np.array(tier_order, dtype=np.intp)[column].tolist(), vmdk_order[at].tolist()
    )
    rows = [(p, 0.0, s) for p, s in zip(iops, size)]
    return reference_pack(
        tiers, ids, [rows] * len(tiers), kinds, candidates,
        {v.spec.id: v.current_tier for v in vmdks}, epoch_index, pinned,
    )


REFERENCE_RULES = {
    idt_assign: (lambda iops, size: iops, lambda t: t.read_throughput_cap, "s"),
    edt_assign: (
        lambda iops, size: iops / size,
        lambda t: t.read_throughput_cap / t.capacity.s if t.capacity.s > 0 else 0.0,
        "ps",
    ),
}


def random_packing_case(rng, size=40):
    """Tiers and shuffled states with every packing edge case mixed in.

    Tier 1 has no storage (an EDT capability of 0); every tier hosts a
    zero-IOPS VMDK; IOPS and sizes come from small sets, so metrics tie;
    one pinned VMDK is too large for its destination and overloads it.
    There are fewer than ``size`` VMDKs; storage budgets grow with ``size``.
    """
    n_tiers = int(rng.integers(2, 5))
    tiers = tuple(
        make_tier(
            i + 1,
            50.0 * (i + 1),
            ResourceVector(
                float(rng.uniform(2e4, 2e5)),
                1e4,
                0.0 if i == 0 else float(rng.uniform(100, 900)) * size / 40,
            ),
            read_iops=float(rng.choice([50_000.0, 100_000.0, 200_000.0])),
        )
        for i in range(n_tiers)
    )
    states = []
    for j in range(int(rng.integers(n_tiers + 2, size))):
        tier = j % n_tiers + 1 if j < n_tiers else int(rng.integers(1, n_tiers + 1))
        iops = 0.0 if j < n_tiers else float(rng.choice([0.0, 5_000.0, 20_000.0, 60_000.0]))
        spec = make_vmdk(f"v{j:02d}", size_gb=float(rng.choice([10.0, 40.0, 80.0])),
                         initial_tier=tier)
        states.append(make_state(spec, tier=tier, measured_iops=iops))
    ids = [s.spec.id for s in states]
    pinned = {
        v: int(rng.integers(1, n_tiers + 1))
        for v in rng.choice(ids, size=int(rng.integers(0, 5)), replace=False).tolist()
    }
    big = make_state(make_vmdk("zz-big", size_gb=1e6, initial_tier=n_tiers), tier=n_tiers)
    states.append(big)
    pinned[big.spec.id] = 1
    rng.shuffle(states)
    return tiers, states, pinned


LONG_FLEET = 400  # several first_fit windows per tier scan


def assert_matches_reference(assign, seed, size=40):
    tiers, states, pinned = random_packing_case(np.random.default_rng(seed), size)
    metric, capability, kinds = REFERENCE_RULES[assign]
    expected = reference_pack_by_metric(
        sorted(states, key=lambda s: s.spec.id), tiers, metric, capability, kinds, 4, pinned
    )
    plan = keyed_plan(assign(pin(fleet_of(states, tiers), pinned), 4))
    assert repr(plan_record(plan)) == repr(plan_record(expected))
    assert "zz-big" in plan.overloaded


class TestPackMatchesReference:
    @pytest.mark.parametrize("assign", [idt_assign, edt_assign])
    @pytest.mark.parametrize("seed", range(12))
    def test_plan_repr_equals_the_object_path(self, assign, seed):
        assert_matches_reference(assign, seed)

    @pytest.mark.parametrize("assign", [idt_assign, edt_assign])
    @pytest.mark.parametrize("seed", range(6))
    def test_long_fleets_match_the_object_path(self, assign, seed):
        assert_matches_reference(assign, seed, LONG_FLEET)

    def test_long_fleets_scan_past_one_window_and_switch(self, monkeypatch):
        scans = []
        first_fit = policy.first_fit

        def recording(*args):
            scans.append(first_fit(*args))
            return scans[-1]

        monkeypatch.setattr(policy, "first_fit", recording)
        for seed in range(6):
            tiers, states, pinned = random_packing_case(np.random.default_rng(seed), LONG_FLEET)
            for assign in (idt_assign, edt_assign):
                assign(pin(fleet_of(states, tiers), pinned))
        long = [fit for fit in scans if len(fit) > policy.FIRST_FIT_WINDOW]
        assert long
        assert max(np.count_nonzero(fit[1:] != fit[:-1]) for fit in long) >= 3

    def test_cases_cover_every_edge(self):
        seen = set()
        for seed in range(12):
            tiers, states, pinned = random_packing_case(np.random.default_rng(seed))
            plans = [keyed_plan(assign(pin(fleet_of(states, tiers), pinned)))
                     for assign in (idt_assign, edt_assign)]
            iops = [s.measured_iops for s in states if s.measured_iops > 0]
            seen.update(
                name for name, hit in (
                    ("tied metric", len(iops) > len(set(iops))),
                    ("pinned move", any(v != "zz-big" for v in pinned)),
                    ("placement", any(plan.migrations for plan in plans)),
                    ("stay-put overload", any(
                        plan.overloaded - set(pinned) for plan in plans
                    )),
                ) if hit
            )
        assert len(seen) == 4
