"""Measurement-only comparison policies.

IDT packs by measured IOPS into tiers ordered by read-IOPS capability and
checks storage only. EDT packs by IOPS density (measured IOPS per GB) into
tiers ordered by IOPS-per-GB capability and checks storage plus throughput.
Neither predicts: both act on the last epoch's measurements. Both feed the
shared greedy packer (``policy.pack``) one usage row per VMDK, the same on
every tier: measured IOPS and size.

Both use the same churn-avoidance reading of their one-line definitions:
sort ties prefer the VMDK's current tier, and a VMDK whose metric is zero
never moves to a more capable tier than its current one. The candidate list
comes from (N,) arrays: one ``np.lexsort`` over (metric, current tier rank,
id) orders the VMDKs and a boolean (N, T) mask drops the upward moves of
zero-metric VMDKs.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from .model import TierSpec, VmdkState
from .policy import AssignmentPlan, PolicyContext, pack


def _pack_by_metric(
    vmdks: Sequence[VmdkState],
    tiers: Sequence[TierSpec],
    metric: Callable[[np.ndarray, np.ndarray], np.ndarray],
    tier_capability: Callable[[TierSpec], float],
    kinds: str,
    epoch_index: int,
    pinned: Mapping[str, int] | None,
) -> AssignmentPlan:
    """Candidates: VMDKs by descending metric, each over tiers by descending capability.

    ``metric`` maps the (N,) measured IOPS and size arrays to the (N,) sort
    key. One ``np.lexsort`` orders the VMDKs by descending metric, then rank
    of the current tier, then id; a VMDK whose metric is zero keeps only the
    tiers ranked at or below its current one.
    """
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
    return pack(
        tiers,
        ids,
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
        metric=lambda iops, size: iops,
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
        metric=lambda iops, size: iops / size,
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
