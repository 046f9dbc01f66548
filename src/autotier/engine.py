"""Deterministic epoch loop: the ground truth policies perceive only via samples.

Each epoch activates workload phases, lets the active policy monitor and
(at the migration cadence) plan moves, progresses in-flight migrations with
bandwidth accounting, then serves I/O demands against per-tier device
models with a proportional contention model and records metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .baselines import EdtPolicy, IdtPolicy
from .model import (
    MigrationOrder,
    Scenario,
    TierSpec,
    TierState,
    VmdkSpec,
    VmdkState,
)
from .policy import AssignmentPlan, AutoTieringPolicy, PolicyContext

POLICY_NAMES = ("autotiering", "idt", "edt")


def make_policy(name: str):
    if name == "autotiering":
        return AutoTieringPolicy()
    if name == "idt":
        return IdtPolicy()
    if name == "edt":
        return EdtPolicy()
    raise ValueError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")


@dataclass
class DeviceModel:
    """Latency model of one tier: linear in added latency, load-inflated intercept."""

    tier: TierSpec
    contention: float = 1.0

    def true_latency(self, spec: VmdkSpec, added_us: float = 0.0) -> float:
        return (
            spec.truth_slope * (self.tier.base_latency_us + added_us)
            + spec.truth_intercept_us * self.contention
        )

    def unloaded_latency(self, spec: VmdkSpec) -> float:
        return spec.truth_slope * self.tier.base_latency_us + spec.truth_intercept_us


def probe_latencies(
    states: Sequence[VmdkState],
    devices: Mapping[int, DeviceModel],
    added_us: Sequence[float],
    samples_per_latency: int,
    rng: np.random.Generator,
    noise_cv: float,
) -> np.ndarray:
    """(N, L, S) calibration samples: true latency with multiplicative Gaussian noise.

    Axes are ``states`` × ``added_us`` × samples. The true latency is
    ``DeviceModel.true_latency`` on each VMDK's current device, computed
    elementwise in the same operation order. Noise factors ``1 + noise_cv * z``
    come from one ``standard_normal`` draw taken in C order; every factor
    <= 0 is dropped and the rest topped up from the same generator, which
    consumes the stream exactly as drawing sample by sample, redrawing while
    the factor is <= 0, would.
    """
    devs = [devices[s.current_tier] for s in states]

    def column(values: Iterable[float]) -> np.ndarray:
        return np.array(list(values), dtype=float)[:, None, None]

    slope = column(s.spec.truth_slope for s in states)
    base = column(d.tier.base_latency_us for d in devs)
    intercept = column(s.spec.truth_intercept_us for s in states)
    contention = column(d.contention for d in devs)
    added = np.asarray(added_us, dtype=float)[:, None]
    truth = slope * (base + added) + intercept * contention
    shape = (len(states), len(added_us), samples_per_latency)
    count = shape[0] * shape[1] * shape[2]
    factor = 1.0 + noise_cv * rng.standard_normal(count)
    factor = factor[factor > 0.0]
    while factor.size < count:
        more = 1.0 + noise_cv * rng.standard_normal(count - factor.size)
        factor = np.concatenate([factor, more[more > 0.0]])
    return truth * factor.reshape(shape)


@dataclass
class TierEpochMetrics:
    read_iops: float = 0.0
    write_iops: float = 0.0
    read_mbps: float = 0.0
    write_mbps: float = 0.0
    mean_latency_us: float = 0.0


@dataclass
class EpochMetrics:
    epoch: int
    per_tier: dict[int, TierEpochMetrics]
    total: TierEpochMetrics
    migration_bytes: float = 0.0
    migration_count: int = 0
    migrated_vmdks: tuple[str, ...] = ()
    overloaded: tuple[str, ...] = ()
    stalled: tuple[str, ...] = ()


@dataclass
class RunResult:
    scenario: Scenario
    policy: str
    seed: int
    epochs: list[EpochMetrics] = field(default_factory=list)
    plans: list[AssignmentPlan] = field(default_factory=list)
    migration_log: list[MigrationOrder] = field(default_factory=list)
    final_states: dict[str, VmdkState] = field(default_factory=dict)

    def migrated_vmdk_ids(self) -> set[str]:
        return {order.vmdk_id for order in self.migration_log}

    def total_migrated_bytes(self) -> float:
        return sum(order.bytes_moved for order in self.migration_log)


def _utilization(load: float, cap: float) -> float:
    return load / cap if cap > 0 else 0.0


def serve_epoch_tier(
    tier: TierSpec,
    members: Sequence[VmdkState],
    device: DeviceModel,
    migration_read_mbps: float = 0.0,
    migration_write_mbps: float = 0.0,
) -> TierEpochMetrics:
    """Serve one tier's members for one epoch and update measured stats.

    Offered load per VMDK is its demand capped at the unloaded achievable
    rate 10^6/latency. Aggregate offered load sets the contention factor,
    which inflates intercept latency; if the (migration-debited) directional
    caps are exceeded, every member scales down proportionally. Updates the
    device's contention for subsequent probes.
    """
    eff_read_bw = max(0.0, tier.read_bandwidth_cap - migration_read_mbps)
    eff_write_bw = max(0.0, tier.write_bandwidth_cap - migration_write_mbps)

    loads = []
    for v in members:
        unloaded = device.unloaded_latency(v.spec)
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
    # Contention responds to offered load against the raw device caps (it
    # inflates latency, so must stay finite); the proportional scale honors
    # the migration-debited effective caps so conservation always holds.
    contention = max(
        1.0,
        _utilization(load_r_iops, tier.read_throughput_cap),
        _utilization(load_w_iops, tier.write_throughput_cap),
        _utilization(load_r_bw, tier.read_bandwidth_cap),
        _utilization(load_w_bw, tier.write_bandwidth_cap),
    )
    device.contention = contention
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
        latency = device.true_latency(v.spec)
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
        if math.isfinite(latency):
            latency_weight += served * latency
    total_iops = metrics.read_iops + metrics.write_iops
    metrics.mean_latency_us = latency_weight / total_iops if total_iops > 0 else 0.0
    return metrics


def progress_migrations(
    orders: Sequence[MigrationOrder],
    vmdk_states: Mapping[str, VmdkState],
    tier_states: Mapping[int, TierState],
    epoch_seconds: float,
) -> tuple[float, dict[int, float], dict[int, float], list[str]]:
    """Advance in-flight migrations one epoch, debiting tier bandwidth.

    Speed is recomputed per epoch from spare bandwidth (last epoch's served
    load plus debits already taken this epoch). Returns total bytes moved,
    per-tier read/write debits in MB/s, and stalled VMDK ids.
    """
    debit_read: dict[int, float] = {t: 0.0 for t in tier_states}
    debit_write: dict[int, float] = {t: 0.0 for t in tier_states}
    moved_total = 0.0
    stalled: list[str] = []
    for order in sorted(orders, key=lambda o: o.vmdk_id):
        if order.done:
            continue
        v = vmdk_states[order.vmdk_id]
        read_side = (
            max(0.0, tier_states[order.from_tier].remaining_read_mbps() - debit_read[order.from_tier])
            + v.measured_read_mbps
        )
        write_side = max(
            0.0, tier_states[order.to_tier].remaining_write_mbps() - debit_write[order.to_tier]
        )
        speed = min(read_side, write_side)
        order.speed_mbps = speed
        if speed <= 0.0:
            order.stalled = True
            stalled.append(order.vmdk_id)
            continue
        order.stalled = False
        moved = min(order.bytes_total - order.bytes_moved, speed * 1e6 * epoch_seconds)
        order.bytes_moved += moved
        moved_total += moved
        rate = moved / epoch_seconds / 1e6
        debit_read[order.from_tier] += rate
        debit_write[order.to_tier] += rate
    return moved_total, debit_read, debit_write, stalled


def run_scenario(
    scenario: Scenario,
    policy_name: str,
    seed: int | None = None,
    on_plan: Callable[[int, AssignmentPlan, object, PolicyContext], None] | None = None,
) -> RunResult:
    """Run the full epoch loop for one policy; deterministic given the seed.

    ``on_plan`` is called right after each migration-epoch plan, before any
    order starts, with (epoch, plan, policy, context); used by oracle checks.
    """
    actual_seed = scenario.sim.seed if seed is None else seed
    rng = np.random.default_rng(actual_seed)
    noise_cv = scenario.sim.noise_cv
    policy = make_policy(policy_name)

    vmdk_states = {
        spec.id: VmdkState.initial(spec)
        for spec in sorted(scenario.vmdks, key=lambda s: s.id)
    }
    tier_states = {t.id: TierState(spec=t) for t in scenario.tiers}
    devices = {t.id: DeviceModel(tier=t) for t in scenario.tiers}
    active_orders: dict[str, MigrationOrder] = {}
    result = RunResult(scenario=scenario, policy=policy_name, seed=actual_seed)

    def probe(vmdk_ids: Sequence[str], added_us: Sequence[float], samples: int) -> np.ndarray:
        states = [vmdk_states[v] for v in vmdk_ids]
        return probe_latencies(states, devices, added_us, samples, rng, noise_cv)

    weights = scenario.weights
    for epoch in range(scenario.sim.epochs):
        for state in vmdk_states.values():
            state.activate_phase(epoch)
        ctx = PolicyContext(
            tiers=scenario.tiers,
            tier_states=tier_states,
            vmdk_states=vmdk_states,
            weights=weights,
            epoch_seconds=scenario.sim.epoch_seconds,
            probe=probe,
            in_flight={v: o.to_tier for v, o in active_orders.items()},
        )
        if epoch % weights.monitor_epoch == 0:
            policy.on_monitor(ctx)

        plan: AssignmentPlan | None = None
        started: list[str] = []
        if epoch % weights.migration_epoch == 0:
            plan = policy.plan_migrations(ctx, epoch)
            result.plans.append(plan)
            if on_plan is not None:
                on_plan(epoch, plan, policy, ctx)
            for vmdk_id, from_tier, to_tier in sorted(plan.migrations):
                if vmdk_id in active_orders:
                    continue  # finish the in-flight move first
                order = MigrationOrder(
                    vmdk_id=vmdk_id,
                    from_tier=from_tier,
                    to_tier=to_tier,
                    bytes_total=vmdk_states[vmdk_id].spec.size_gb * 1e9,
                    started_epoch=epoch,
                )
                active_orders[vmdk_id] = order
                result.migration_log.append(order)
                started.append(vmdk_id)

        moved_bytes, debit_read, debit_write, stalled = progress_migrations(
            list(active_orders.values()), vmdk_states, tier_states, scenario.sim.epoch_seconds
        )

        per_tier: dict[int, TierEpochMetrics] = {}
        total = TierEpochMetrics()
        latency_weight = 0.0
        for tier in scenario.tiers:
            members = [
                vmdk_states[v] for v in sorted(vmdk_states)
                if vmdk_states[v].current_tier == tier.id
            ]
            tm = serve_epoch_tier(
                tier, members, devices[tier.id], debit_read[tier.id], debit_write[tier.id]
            )
            per_tier[tier.id] = tm
            total.read_iops += tm.read_iops
            total.write_iops += tm.write_iops
            total.read_mbps += tm.read_mbps
            total.write_mbps += tm.write_mbps
            latency_weight += tm.mean_latency_us * (tm.read_iops + tm.write_iops)
            state = tier_states[tier.id]
            state.served_read_iops = tm.read_iops
            state.served_write_iops = tm.write_iops
            state.served_read_mbps = tm.read_mbps + debit_read[tier.id]
            state.served_write_mbps = tm.write_mbps + debit_write[tier.id]
        grand_iops = total.read_iops + total.write_iops
        total.mean_latency_us = latency_weight / grand_iops if grand_iops > 0 else 0.0

        for vmdk_id in sorted(active_orders):
            order = active_orders[vmdk_id]
            if order.done:
                vmdk_states[vmdk_id].current_tier = order.to_tier
                del active_orders[vmdk_id]

        result.epochs.append(
            EpochMetrics(
                epoch=epoch,
                per_tier=per_tier,
                total=total,
                migration_bytes=moved_bytes,
                migration_count=len(started),
                migrated_vmdks=tuple(started),
                overloaded=tuple(sorted(plan.overloaded)) if plan else (),
                stalled=tuple(stalled),
            )
        )

    result.final_states = vmdk_states
    return result
