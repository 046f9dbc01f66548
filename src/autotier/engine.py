"""Deterministic epoch loop: the ground truth policies perceive only via samples.

Each epoch applies the workload phases that start in it, lets the active
policy monitor and (at the migration cadence) plan moves, progresses
in-flight migrations with bandwidth accounting, then serves I/O demands
against each tier's device with a proportional contention model and
records metrics.

The run's state lives in one ``Fleet``, built by ``Fleet.of`` around the
scenario's ``roster`` (every static fact, built once per scenario and
shared read-only by its runs, in dense (N,) VMDK-id-ordered and (T,) tier
columns): the fleet's own (N,) arrays hold the active phase's demand (the
run's only record of the phase), each VMDK's tier row and its last
measurements, and its (T,) arrays each tier's contention and spare MB/s.
``serve_epoch`` serves every tier in one vectorized pass and writes the
measurements and the tier arrays in place; probes, migration
progress and policies read the same arrays, policies through a read-only
view, and ``VmdkState`` objects are built once, for the result, after the
last epoch. The book of in-flight migrations is the fleet rows whose
``dest_row`` is set, in id order; an order starts only for a VMDK that has
none. Plans come in fleet rows too: the engine starts a plan's moves from
its ``move_rows``, ``move_from`` and ``move_to`` arrays and reads its
overloaded VMDKs from ``overloaded_rows``, never looking up a VMDK id. The
run's ``MigrationLog`` holds every order as columns, progress included, and
is its only record; the fleet's ``order_index`` leads each moving row to
its order. Starting, advancing and landing orders each take one array
operation per column; only the per-tier bandwidth debits run as a loop
over the book.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .baselines import EdtPolicy, IdtPolicy
from .model import Fleet, MigrationLog, Scenario, VmdkState
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
    roster = fleet.roster
    rows = np.asarray(rows, dtype=np.intp)
    tier = fleet.tier_row[rows]
    slope = roster.truth_slope[rows][:, None, None]
    base = roster.base_latency_us[tier][:, None, None]
    intercept = roster.truth_intercept_us[rows][:, None, None]
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
    migration_log: MigrationLog = field(default_factory=MigrationLog)
    final_states: dict[str, VmdkState] = field(default_factory=dict)


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
    tier's contention, for later probes, and its spare MB/s, its bandwidth
    cap less its served MB/s and debits and never below 0.0 (a NaN is 0.0),
    for later migration speeds, into the fleet's tier arrays.
    Per-tier sums accumulate in row order from 0.0 (``np.bincount`` adds
    sequentially), so they repeat bit for bit what a loop over each tier's
    members in id order gives.
    """
    roster = fleet.roster
    row = fleet.tier_row
    slope, intercept = roster.truth_slope, roster.truth_intercept_us
    demand, rf, io = fleet.demand_iops, fleet.read_fraction, fleet.avg_io_size_bytes
    caps = np.stack((
        roster.read_throughput_cap, roster.write_throughput_cap,
        roster.read_bandwidth_cap, roster.write_bandwidth_cap,
    ))

    def per_tier(values: np.ndarray) -> np.ndarray:
        return np.bincount(row, weights=values, minlength=len(roster.tiers))

    with np.errstate(all="ignore"):
        bare = slope * roster.base_latency_us[row]
        wf = 1 - rf
        loads = np.minimum(demand, 1e6 / (bare + intercept))
        loads_r, loads_w = loads * rf, loads * wf
        load = np.stack((  # (4, T) in the order of ``caps``, each >= 0.0 or NaN
            per_tier(loads_r), per_tier(loads_w),
            per_tier(loads_r * io / 1e6), per_tier(loads_w * io / 1e6),
        ))
        # Contention responds to offered load against the raw device caps
        # (it inflates latency, so must stay finite); the proportional scale
        # honors the migration-debited effective caps so conservation always
        # holds. fmax and fmin skip NaN as max(1.0, ...) and min(1.0, ...) do,
        # and a zero load's cap ratio is inf or 0/0, so loads <= 0 drop out.
        contention = np.fmax.reduce(load / caps, axis=0, initial=1.0)
        effective = caps.copy()
        effective[2:] = np.fmax(0.0, caps[2:] - (migration_read_mbps, migration_write_mbps))
        scale = np.fmin.reduce(effective / load, axis=0, initial=1.0)

        # The probes' true latency at zero added latency; it is positive (or
        # inf) because intercepts are positive and contention is at least 1.
        fleet.contention[:] = contention
        latency = bare + intercept * contention[row]
        served = np.minimum(demand, 1e6 / latency) * scale[row]
        served_r, served_w = served * rf, served * wf
        read_mbps, write_mbps = served_r * io / 1e6, served_w * io / 1e6
        read_iops, write_iops = per_tier(served_r), per_tier(served_w)
        tier_read_mbps, tier_write_mbps = per_tier(read_mbps), per_tier(write_mbps)
        latency_weight = per_tier(np.where(np.isfinite(latency), served * latency, 0.0))

    fleet.measured_iops[:] = served
    fleet.measured_latency_us[:] = latency
    fleet.measured_read_mbps[:] = read_mbps
    fleet.measured_write_mbps[:] = write_mbps
    # fmax, like max(0.0, x), yields 0.0 where x is NaN.
    fleet.spare_read_mbps[:], fleet.spare_write_mbps[:] = np.fmax(0.0, caps[2:] - (
        tier_read_mbps + migration_read_mbps, tier_write_mbps + migration_write_mbps
    ))

    metrics = []
    for r_iops, w_iops, r_mbps, w_mbps, weight in zip(
        read_iops.tolist(), write_iops.tolist(), tier_read_mbps.tolist(),
        tier_write_mbps.tolist(), latency_weight.tolist(),
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
    rows: np.ndarray,
    fleet: Fleet,
    log: MigrationLog,
    epoch_seconds: float,
) -> tuple[float, list[float], list[float], list[str], np.ndarray]:
    """Advance the in-flight migrations of fleet ``rows``, in id order, one epoch.

    Each row's open order is its ``order_index`` entry in ``log``, which
    holds the order's progress. Speed is recomputed per epoch from the
    fleet's spare bandwidth, less the debits already taken this epoch, and
    the VMDK's own measured read bandwidth; each move debits its
    source (``tier_row``) and its destination (``dest_row``). The step that
    reaches the rest of a move sets its bytes moved to its bytes total.
    Writes each order's bytes moved, speed and stall flag to the log.
    Returns total bytes moved, read/write debits in MB/s by tier row,
    stalled VMDK ids and the rows whose migration finished, in id order.
    """
    roster = fleet.roster
    debit_read = [0.0] * len(roster.tiers)
    debit_write = [0.0] * len(roster.tiers)
    if not len(rows):
        return 0.0, debit_read, debit_write, [], rows
    k = fleet.order_index[rows]
    if (k < 0).any():
        raise ValueError("only a VMDK with an open order can make progress")
    spare_read, spare_write = fleet.spare_read_mbps.tolist(), fleet.spare_write_mbps.tolist()
    ids = roster.ids
    row_list = rows.tolist()
    source = fleet.tier_row[rows].tolist()
    dest = fleet.dest_row[rows].tolist()
    bytes_total = log.bytes_total[k]
    moved = log.bytes_moved[k].tolist()
    speed = log.speed_mbps[k].tolist()
    stall = log.stalled[k].tolist()
    moved_total = 0.0
    stalled: list[str] = []
    # Conditional expressions stand in for max(0.0, x) and min(a, b): the
    # same result, NaN included, without a call per order.
    for i, (total, measured, s, d) in enumerate(zip(
        bytes_total.tolist(), fleet.measured_read_mbps[rows].tolist(), source, dest
    )):
        left = total - moved[i]
        if left <= 0.0:
            continue  # finished already
        spare = spare_read[s] - debit_read[s]
        read_side = (spare if spare > 0.0 else 0.0) + measured
        spare = spare_write[d] - debit_write[d]
        write_side = spare if spare > 0.0 else 0.0
        speed[i] = mbps = write_side if write_side < read_side else read_side
        if mbps <= 0.0:
            stall[i] = True
            stalled.append(ids[row_list[i]])
            continue
        stall[i] = False
        step = mbps * 1e6 * epoch_seconds
        if step < left:
            moved[i] += step
        else:
            step, moved[i] = left, total
        moved_total += step
        rate = step / epoch_seconds / 1e6
        debit_read[s] += rate
        debit_write[d] += rate
    moved_now = np.array(moved)
    log.set_progress(k, moved_now, speed, stall)
    return moved_total, debit_read, debit_write, stalled, rows[moved_now >= bytes_total]


def start_migrations(
    fleet: Fleet,
    log: MigrationLog,
    rows: np.ndarray,
    from_rows: np.ndarray,
    to_rows: np.ndarray,
    epoch: int,
) -> np.ndarray:
    """Start the moves of fleet ``rows`` from tier ``from_rows`` to ``to_rows``.

    The three arrays are aligned and name each VMDK at most once, as an
    ``AssignmentPlan``'s moves do. Moves of VMDKs already moving wait. Logs
    the started orders in id order and returns their fleet rows. A move
    must start from its VMDK's current tier.
    """
    if not len(rows):
        return np.zeros(0, dtype=np.intp)
    order = rows.argsort()
    order = order[fleet.dest_row[rows[order]] < 0]  # finish an in-flight move first
    rows, source, dest = rows[order], from_rows[order], to_rows[order]
    if (source != fleet.tier_row[rows]).any():
        raise ValueError("migration must start from the VMDK's current tier")
    roster = fleet.roster
    fleet.order_index[rows] = log.append(
        rows, roster.tier_ids[source], roster.tier_ids[dest], roster.size_gb[rows] * 1e9, epoch
    )
    fleet.dest_row[rows] = dest
    return rows


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

    roster = scenario.roster
    fleet = Fleet.of(roster)
    log = MigrationLog(roster.ids)
    result = RunResult(scenario=scenario, policy=policy_name, seed=actual_seed, migration_log=log)

    def probe(vmdk_ids: Sequence[str], added_us: Sequence[float], samples: int) -> np.ndarray:
        rows = [roster.row[v] for v in vmdk_ids]
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

        started: tuple[str, ...] = ()
        overloaded: tuple[str, ...] = ()
        if epoch % weights.migration_epoch == 0:
            plan = policy.plan_migrations(ctx, epoch)
            result.plans.append(plan)
            if on_plan is not None:
                on_plan(epoch, plan, policy, ctx)
            rows = start_migrations(
                fleet, log, plan.move_rows, plan.move_from, plan.move_to, epoch
            )
            started = tuple(map(roster.ids.__getitem__, rows.tolist()))
            # Rows are in id order, so sorted rows name the VMDKs sorted by id.
            overloaded = tuple(map(roster.ids.__getitem__, np.sort(plan.overloaded_rows).tolist()))

        moved_bytes, debit_read, debit_write, stalled, finished = progress_migrations(
            (fleet.dest_row >= 0).nonzero()[0], fleet, log, epoch_seconds
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

        fleet.move(finished)

        result.epochs.append(
            EpochMetrics(
                epoch=epoch,
                per_tier=per_tier,
                total=total,
                migration_bytes=moved_bytes,
                migration_count=len(started),
                migrated_vmdks=started,
                overloaded=overloaded,
                stalled=tuple(stalled),
            )
        )

    result.final_states = {state.spec.id: state for state in fleet.states()}
    return result
