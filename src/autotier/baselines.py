"""Measurement-only comparison policies.

IDT packs by measured IOPS into tiers ordered by read-IOPS capability and
checks storage only. EDT packs by IOPS density (measured IOPS per GB) into
tiers ordered by IOPS-per-GB capability and checks storage plus throughput.
Neither predicts: both act on the last epoch's measurements. Both feed the
shared greedy packer (``policy.pack``) one usage row per VMDK, the same on
every tier: measured IOPS and size, with 0.0 in each column the policy does
not check.

Both use the same churn-avoidance reading of their one-line definitions:
sort ties prefer the VMDK's current tier, and a VMDK whose metric is zero
never moves to a more capable tier than its current one. Both read the
run's ``Fleet`` directly, its roster's tiers and its in-flight destinations
included: one stable ``np.lexsort`` over (metric, current tier rank) orders
the VMDKs, with the fleet's row order breaking the remaining ties by id,
and a boolean (N, T) mask drops the upward moves of zero-metric VMDKs.
Each VMDK walks its allowed tiers by descending capability until one
absorbs it; ``pack`` gets the same plan by scanning the tiers in that
order, each over the VMDKs allowed on it, and lists the placements in VMDK
order. A VMDK already migrating keeps its destination, as under every
policy.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .model import Fleet, TierSpec
from .policy import AssignmentPlan, PolicyContext, pack


def _pack_by_metric(
    fleet: Fleet,
    metric: Callable[[np.ndarray, np.ndarray], np.ndarray],
    tier_capability: Callable[[TierSpec], float],
    kinds: str,
    epoch_index: int,
) -> AssignmentPlan:
    """Candidates: VMDKs by descending metric, each over tiers by descending capability.

    ``metric`` maps the (N,) measured IOPS and size arrays to the (N,) sort
    key. One stable ``np.lexsort`` orders the VMDKs by descending metric,
    then rank of the current tier, then fleet row (VMDK id); a VMDK whose
    metric is zero keeps only the tiers ranked at or below its current one.
    Only the budget kinds named in ``kinds`` (a subset of "pbs") are
    checked: the usage rows hold measured IOPS and size in those columns
    and 0.0 in the others.
    """
    roster = fleet.roster
    tiers = roster.tiers
    tier_order = sorted(range(len(tiers)), key=lambda i: (-tier_capability(tiers[i]), tiers[i].id))
    rank = np.empty(len(tiers), dtype=np.intp)
    rank[tier_order] = np.arange(len(tiers))
    values = metric(fleet.measured_iops, roster.size_gb)
    current_rank = rank[fleet.tier_row]
    vmdk_order = np.lexsort((current_rank, -values))
    allowed = (values[vmdk_order] != 0)[:, None] | (
        np.arange(len(tiers)) >= current_rank[vmdk_order, None]
    )
    ranked = [(i, vmdk_order[allowed[:, c]]) for c, i in enumerate(tier_order)]
    walk_rank = np.empty_like(vmdk_order)
    walk_rank[vmdk_order] = np.arange(len(vmdk_order))
    measured = np.stack([fleet.measured_iops, np.zeros(len(values)), roster.size_gb], axis=-1)
    usage = np.where([k in kinds for k in "pbs"], measured, 0.0)
    return pack(
        fleet, np.broadcast_to(usage, (len(tiers), *usage.shape)), ranked, epoch_index, walk_rank
    )


def idt_assign(fleet: Fleet, epoch_index: int = 0) -> AssignmentPlan:
    """Greedy IOPS-only placement: hotter VMDKs onto higher-IOPS tiers.

    Only the storage budget is checked; bandwidth pressure is invisible to
    this policy by construction.
    """
    return _pack_by_metric(
        fleet,
        metric=lambda iops, size: iops,
        tier_capability=lambda t: t.read_throughput_cap,
        kinds="s",
        epoch_index=epoch_index,
    )


def edt_assign(fleet: Fleet, epoch_index: int = 0) -> AssignmentPlan:
    """Density-based placement: measured IOPS per GB onto IOPS-per-GB tiers.

    Checks storage and throughput budgets; still blind to bandwidth.
    """
    return _pack_by_metric(
        fleet,
        metric=lambda iops, size: iops / size,
        tier_capability=lambda t: (
            t.read_throughput_cap / t.capacity.s if t.capacity.s > 0 else 0.0
        ),
        kinds="ps",
        epoch_index=epoch_index,
    )


class IdtPolicy:
    name = "idt"

    def on_monitor(self, ctx: PolicyContext) -> None:
        pass  # measurements arrive in the fleet's arrays; nothing to precompute

    def plan_migrations(self, ctx: PolicyContext, epoch_index: int) -> AssignmentPlan:
        return idt_assign(ctx.fleet, epoch_index)


class EdtPolicy:
    name = "edt"

    def on_monitor(self, ctx: PolicyContext) -> None:
        pass

    def plan_migrations(self, ctx: PolicyContext, epoch_index: int) -> AssignmentPlan:
        return edt_assign(ctx.fleet, epoch_index)
