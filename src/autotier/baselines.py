"""Measurement-only comparison policies.

IDT packs by measured IOPS into tiers ordered by read-IOPS capability and
checks storage only. EDT packs by IOPS density (measured IOPS per GB) into
tiers ordered by IOPS-per-GB capability and checks storage plus throughput.
Neither predicts: both act on the last epoch's measurements. Both feed the
shared greedy packer (``policy.pack``) one usage row per VMDK, the same on
every tier: measured IOPS and size.

Both use the same churn-avoidance reading of their one-line definitions:
sort ties prefer the VMDK's current tier, and a VMDK whose metric is zero
never moves to a more capable tier than its current one.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from .model import TierSpec, VmdkState
from .policy import AssignmentPlan, PolicyContext, pack


def _pack_by_metric(
    vmdks: Sequence[VmdkState],
    tiers: Sequence[TierSpec],
    metric: Callable[[VmdkState], float],
    tier_capability: Callable[[TierSpec], float],
    kinds: str,
    epoch_index: int,
    pinned: Mapping[str, int] | None,
) -> AssignmentPlan:
    """Candidates: VMDKs by descending metric, each over tiers by descending capability."""
    tier_order = sorted(range(len(tiers)), key=lambda i: (-tier_capability(tiers[i]), tiers[i].id))
    rank = {tiers[i].id: r for r, i in enumerate(tier_order)}
    values = [metric(v) for v in vmdks]
    vmdk_order = sorted(
        range(len(vmdks)),
        key=lambda j: (-values[j], rank[vmdks[j].current_tier], vmdks[j].spec.id),
    )
    candidates = [
        (i, j)
        for j in vmdk_order
        for i in tier_order
        if values[j] != 0 or rank[tiers[i].id] >= rank[vmdks[j].current_tier]
    ]
    rows = [(v.measured_iops, 0.0, v.spec.size_gb) for v in vmdks]
    return pack(
        tiers,
        [v.spec.id for v in vmdks],
        [rows] * len(tiers),
        kinds,
        candidates,
        {v.spec.id: v.current_tier for v in vmdks},
        epoch_index,
        pinned,
    )


def idt_assign(
    vmdks: Sequence[VmdkState],
    tiers: Sequence[TierSpec],
    epoch_index: int = 0,
    pinned: Mapping[str, int] | None = None,
) -> AssignmentPlan:
    """Greedy IOPS-only placement: hotter VMDKs onto higher-IOPS tiers.

    Only the storage budget is checked; bandwidth pressure is invisible to
    this policy by construction.
    """
    return _pack_by_metric(
        vmdks,
        tiers,
        metric=lambda v: v.measured_iops,
        tier_capability=lambda t: t.read_throughput_cap,
        kinds="s",
        epoch_index=epoch_index,
        pinned=pinned,
    )


def edt_assign(
    vmdks: Sequence[VmdkState],
    tiers: Sequence[TierSpec],
    epoch_index: int = 0,
    pinned: Mapping[str, int] | None = None,
) -> AssignmentPlan:
    """Density-based placement: measured IOPS per GB onto IOPS-per-GB tiers.

    Checks storage and throughput budgets; still blind to bandwidth.
    """
    return _pack_by_metric(
        vmdks,
        tiers,
        metric=lambda v: v.measured_iops / v.spec.size_gb,
        tier_capability=lambda t: (
            t.read_throughput_cap / t.capacity.s if t.capacity.s > 0 else 0.0
        ),
        kinds="ps",
        epoch_index=epoch_index,
        pinned=pinned,
    )


class IdtPolicy:
    name = "idt"

    def on_monitor(self, ctx: PolicyContext) -> None:
        pass  # measurement arrives through VmdkState; nothing to precompute

    def plan_migrations(self, ctx: PolicyContext, epoch_index: int) -> AssignmentPlan:
        return idt_assign(ctx.sorted_states(), ctx.tiers, epoch_index, pinned=ctx.in_flight)


class EdtPolicy:
    name = "edt"

    def on_monitor(self, ctx: PolicyContext) -> None:
        pass

    def plan_migrations(self, ctx: PolicyContext, epoch_index: int) -> AssignmentPlan:
        return edt_assign(ctx.sorted_states(), ctx.tiers, epoch_index, pinned=ctx.in_flight)
