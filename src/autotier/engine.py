"""Deterministic epoch loop: the ground truth policies perceive only via samples.

Each epoch applies the workload phases that start in it, lets the active
policy monitor and (at the migration cadence) plan moves, progresses
in-flight migrations with bandwidth accounting, then serves I/O demands
against each tier's device with a proportional contention model and
records metrics.

The run's state lives in one ``Fleet``: dense (N,) arrays in VMDK-id order
holding static truth, the active phase's demand, each VMDK's tier row and
its last measurements, and (T,) arrays holding each tier's contention and
served MB/s. ``serve_epoch`` serves every tier in one vectorized pass and
writes the measurements and the tier arrays in place; probes, migration
progress and policies read the same arrays, policies through a read-only
view, and ``VmdkState`` objects are built once, for the result, after the
last epoch. In-flight migrations form a book kept in VMDK-id order as
orders start and finish; the fleet's ``dest_row`` marks each VMDK with an
order in the book, so an order starts only for a VMDK that has none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from .baselines import EdtPolicy, IdtPolicy
from .model import Fleet, MigrationOrder, Scenario, VmdkState
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


def probe_latencies(
    fleet: Fleet,
    rows: Sequence[int],
    added_us: Sequence[float],
    samples_per_latency: int,
    rng: np.random.Generator,
    noise_cv: float,
) -> np.ndarray:
    """(N, L, S) calibration samples: true latency with multiplicative Gaussian noise.

    Axes are the fleet ``rows`` × ``added_us`` × samples. The true latency on
    each VMDK's current tier is ``slope * (base + added) + intercept *
    contention``, with the tier's contention as serving last left it. Noise
    factors ``1 + noise_cv * z`` come from one ``standard_normal`` draw taken
    in C order; every factor <= 0 is dropped and the rest topped up from the
    same generator, which consumes the stream exactly as drawing sample by
    sample, redrawing while the factor is <= 0, would.
    """
    rows = np.asarray(rows, dtype=np.intp)
    tier = fleet.tier_row[rows]
    slope = fleet.truth_slope[rows][:, None, None]
    base = np.array([t.base_latency_us for t in fleet.tiers])[tier][:, None, None]
    intercept = fleet.truth_intercept_us[rows][:, None, None]
    contention = fleet.contention[tier][:, None, None]
    added = np.asarray(added_us, dtype=float)[:, None]
    truth = slope * (base + added) + intercept * contention
    shape = (len(rows), len(added_us), samples_per_latency)
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


def serve_epoch(
    fleet: Fleet,
    migration_read_mbps: Sequence[float],
    migration_write_mbps: Sequence[float],
) -> list[TierEpochMetrics]:
    """Serve every tier's members for one epoch and write the fleet's measurements.

    The migration debits (MB/s) follow the fleet's tier rows. Offered load
    per VMDK is its demand capped at the unloaded achievable rate
    10^6/latency. Aggregate offered load sets the contention factor, which
    inflates intercept latency; if the (migration-debited) directional caps
    are exceeded, every member scales down proportionally. Writes each
    tier's contention, for later probes, and its served MB/s plus its
    debits, for later migration speeds, into the fleet's tier arrays.
    Per-tier sums accumulate in row order from 0.0 (``np.bincount`` adds
    sequentially), so they repeat bit for bit what a loop over each tier's
    members in id order gives.
    """
    tiers = fleet.tiers
    row = fleet.tier_row
    slope, intercept = fleet.truth_slope, fleet.truth_intercept_us
    demand, rf, io = fleet.demand_iops, fleet.read_fraction, fleet.avg_io_size_bytes

    def per_tier(values: np.ndarray) -> list[float]:
        return np.bincount(row, weights=values, minlength=len(tiers)).tolist()

    with np.errstate(all="ignore"):
        bare = slope * np.array([t.base_latency_us for t in tiers])[row]
        wf = 1 - rf
        loads = np.minimum(demand, 1e6 / (bare + intercept))
        loads_r, loads_w = loads * rf, loads * wf
        load_r_iops, load_w_iops = per_tier(loads_r), per_tier(loads_w)
        load_r_bw, load_w_bw = per_tier(loads_r * io / 1e6), per_tier(loads_w * io / 1e6)

        contention, scale = [], []
        for i, tier in enumerate(tiers):
            # Contention responds to offered load against the raw device caps
            # (it inflates latency, so must stay finite); the proportional
            # scale honors the migration-debited effective caps so
            # conservation always holds.
            contention.append(max(
                1.0,
                load_r_iops[i] / tier.read_throughput_cap,
                load_w_iops[i] / tier.write_throughput_cap,
                load_r_bw[i] / tier.read_bandwidth_cap,
                load_w_bw[i] / tier.write_bandwidth_cap,
            ))
            eff_read_bw = max(0.0, tier.read_bandwidth_cap - migration_read_mbps[i])
            eff_write_bw = max(0.0, tier.write_bandwidth_cap - migration_write_mbps[i])
            s = 1.0
            for load, cap in (
                (load_r_iops[i], tier.read_throughput_cap),
                (load_w_iops[i], tier.write_throughput_cap),
                (load_r_bw[i], eff_read_bw),
                (load_w_bw[i], eff_write_bw),
            ):
                if load > 0:
                    s = min(s, cap / load)
            scale.append(s)

        # The probes' true latency at zero added latency; it is positive (or
        # inf) because intercepts are positive and contention is at least 1.
        fleet.contention[:] = contention
        latency = bare + intercept * fleet.contention[row]
        served = np.minimum(demand, 1e6 / latency) * np.array(scale)[row]
        served_r, served_w = served * rf, served * wf
        read_mbps, write_mbps = served_r * io / 1e6, served_w * io / 1e6
        read_iops, write_iops = per_tier(served_r), per_tier(served_w)
        tier_read_mbps, tier_write_mbps = per_tier(read_mbps), per_tier(write_mbps)
        latency_weight = per_tier(np.where(np.isfinite(latency), served * latency, 0.0))

    fleet.measured_iops[:] = served
    fleet.measured_latency_us[:] = latency
    fleet.measured_read_mbps[:] = read_mbps
    fleet.measured_write_mbps[:] = write_mbps
    fleet.served_read_mbps[:] = np.add(tier_read_mbps, migration_read_mbps)
    fleet.served_write_mbps[:] = np.add(tier_write_mbps, migration_write_mbps)

    metrics = []
    for r_iops, w_iops, r_mbps, w_mbps, weight in zip(
        read_iops, write_iops, tier_read_mbps, tier_write_mbps, latency_weight
    ):
        total_iops = r_iops + w_iops
        metrics.append(TierEpochMetrics(
            read_iops=r_iops,
            write_iops=w_iops,
            read_mbps=r_mbps,
            write_mbps=w_mbps,
            mean_latency_us=weight / total_iops if total_iops > 0 else 0.0,
        ))
    return metrics


def progress_migrations(
    orders: Sequence[MigrationOrder],
    fleet: Fleet,
    epoch_seconds: float,
) -> tuple[float, list[float], list[float], list[str], list[MigrationOrder], list[MigrationOrder]]:
    """Advance the in-flight ``orders``, in VMDK-id order, one epoch, debiting tier bandwidth.

    Speed is recomputed per epoch from spare bandwidth (last epoch's served
    load plus debits already taken this epoch) and the VMDK's own measured
    read bandwidth. Returns total bytes moved, read/write debits in MB/s by
    tier row, stalled VMDK ids, the orders still in flight and the orders that
    finished, both in id order; ``orders`` itself is left as it is.
    """
    spare_read, spare_write = fleet.spare_mbps()
    debit_read = [0.0] * len(spare_read)
    debit_write = [0.0] * len(spare_write)
    measured_read = fleet.measured_read_mbps.tolist()
    row, row_of_tier = fleet.row, fleet.row_of_tier
    moved_total = 0.0
    stalled: list[str] = []
    running: list[MigrationOrder] = []
    finished: list[MigrationOrder] = []
    # Conditional expressions stand in for max(0.0, x) and min(a, b): the
    # same result, NaN included, without a call per order.
    for order in orders:
        left = order.bytes_total - order.bytes_moved
        if left <= 0.0:
            finished.append(order)
            continue
        source, dest = row_of_tier[order.from_tier], row_of_tier[order.to_tier]
        spare = spare_read[source] - debit_read[source]
        read_side = (spare if spare > 0.0 else 0.0) + measured_read[row[order.vmdk_id]]
        spare = spare_write[dest] - debit_write[dest]
        write_side = spare if spare > 0.0 else 0.0
        speed = write_side if write_side < read_side else read_side
        order.speed_mbps = speed
        if speed <= 0.0:
            order.stalled = True
            stalled.append(order.vmdk_id)
            running.append(order)
            continue
        order.stalled = False
        step = speed * 1e6 * epoch_seconds
        moved = step if step < left else left
        order.bytes_moved += moved
        moved_total += moved
        rate = moved / epoch_seconds / 1e6
        debit_read[source] += rate
        debit_write[dest] += rate
        (finished if order.bytes_moved >= order.bytes_total else running).append(order)
    return moved_total, debit_read, debit_write, stalled, running, finished


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
    epoch_seconds = scenario.sim.epoch_seconds
    policy = make_policy(policy_name)

    fleet = Fleet.of([VmdkState.initial(spec) for spec in scenario.vmdks], scenario.tiers)
    book: list[MigrationOrder] = []  # in-flight orders in VMDK-id order
    result = RunResult(scenario=scenario, policy=policy_name, seed=actual_seed)

    def probe(vmdk_ids: Sequence[str], added_us: Sequence[float], samples: int) -> np.ndarray:
        rows = [fleet.row[v] for v in vmdk_ids]
        return probe_latencies(fleet, rows, added_us, samples, rng, noise_cv)

    weights = scenario.weights
    ctx = PolicyContext(
        fleet=fleet.read_only(),
        weights=weights,
        epoch_seconds=epoch_seconds,
        probe=probe,
    )
    for epoch in range(scenario.sim.epochs):
        fleet.activate_phases(epoch)
        if epoch % weights.monitor_epoch == 0:
            policy.on_monitor(ctx)

        plan: AssignmentPlan | None = None
        started: list[MigrationOrder] = []
        if epoch % weights.migration_epoch == 0:
            plan = policy.plan_migrations(ctx, epoch)
            result.plans.append(plan)
            if on_plan is not None:
                on_plan(epoch, plan, policy, ctx)
            for vmdk_id, from_tier, to_tier in sorted(plan.migrations):
                j = fleet.row[vmdk_id]
                if fleet.dest_row[j] >= 0:
                    continue  # finish the in-flight move first
                order = MigrationOrder(
                    vmdk_id=vmdk_id,
                    from_tier=from_tier,
                    to_tier=to_tier,
                    bytes_total=fleet.specs[j].size_gb * 1e9,
                    started_epoch=epoch,
                )
                started.append(order)
                fleet.dest_row[j] = fleet.row_of_tier[to_tier]
            result.migration_log += started
            # Both runs are in id order, so the sort is one linear merge.
            book += started
            book.sort(key=attrgetter("vmdk_id"))

        moved_bytes, debit_read, debit_write, stalled, book, finished = progress_migrations(
            book, fleet, epoch_seconds
        )

        per_tier: dict[int, TierEpochMetrics] = {}
        total = TierEpochMetrics()
        latency_weight = 0.0
        for tier, tm in zip(scenario.tiers, serve_epoch(fleet, debit_read, debit_write)):
            per_tier[tier.id] = tm
            total.read_iops += tm.read_iops
            total.write_iops += tm.write_iops
            total.read_mbps += tm.read_mbps
            total.write_mbps += tm.write_mbps
            latency_weight += tm.mean_latency_us * (tm.read_iops + tm.write_iops)
        grand_iops = total.read_iops + total.write_iops
        total.mean_latency_us = latency_weight / grand_iops if grand_iops > 0 else 0.0

        for order in finished:
            fleet.move(order.vmdk_id)

        result.epochs.append(
            EpochMetrics(
                epoch=epoch,
                per_tier=per_tier,
                total=total,
                migration_bytes=moved_bytes,
                migration_count=len(started),
                migrated_vmdks=tuple(order.vmdk_id for order in started),
                overloaded=tuple(sorted(plan.overloaded)) if plan else (),
                stalled=tuple(stalled),
            )
        )

    result.final_states = {state.spec.id: state for state in fleet.states()}
    return result
