"""Deterministic epoch loop: the ground truth policies perceive only via samples.

Each epoch applies the workload phases that start in it, lets the active
policy monitor and (at the migration cadence) plan moves, progresses
in-flight migrations with bandwidth accounting, then serves I/O demands
against each tier's device with a proportional contention model and
records metrics.

The run's state lives in one ``Fleet``, built by ``Fleet.of`` around the
scenario's ``roster`` (every static fact, built once per scenario and
shared read-only by its runs, in dense (N,) VMDK-id-ordered and (T,) tier
columns): the fleet's own arrays hold the active phase's (3, N) demand
(the run's only record of the phase), each VMDK's tier row and its last
measurements, and each tier's contention and (2, T) read and write spare
MB/s. ``serve_epoch`` serves every tier in one vectorized pass and writes
the measurements and the tier arrays in place; probes, migration
progress and policies read the same arrays, policies through a read-only
view. The result keeps the fleet the run left.
A run serves when the bytes of what serving reads (the epoch's debits,
``tier_row`` and ``demand``) differ from its last serve's, and otherwise
carries that serve's tier figures forward.
The book of in-flight migrations is the fleet rows whose ``dest_row`` is
set, in id order; an order starts only for a VMDK that has none. Plans
come in fleet rows too: the engine starts a plan's moves from its
``move_rows``, ``move_from`` and ``move_to`` arrays and reads its
overloaded VMDKs from ``overloaded_rows``, never looking up a VMDK id. The
run's ``MigrationLog`` holds every order as columns, progress included, and
is its only record; the fleet's ``order_index`` leads each moving row to
its order. Starting and landing orders each take one array operation per
column. Advancing them charges each move, in id order, to the spare
bandwidth of its two tiers: a short book runs that as a scalar loop, a
long one as fixed-point passes of array operations that repeat the loop
bit for bit (see ``progress_migrations``).
The run's record is three arrays, allocated at its start and written in
place: ``RunResult.epochs``, the ``TIER_FIGURES`` of each tier row and of
the fleet; ``migration_bytes``; and ``flags``, the ``STARTED``,
``OVERLOADED`` and ``STALLED`` bits of each fleet row. Each epoch writes
its tier rows, bytes and flags; the run's end adds up every epoch's fleet
row from its tier rows in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .baselines import EdtPolicy, IdtPolicy
from .model import Fleet, MigrationLog, Scenario
from .policy import AssignmentPlan, AutoTieringPolicy, PolicyContext

_POLICIES = {"autotiering": AutoTieringPolicy, "idt": IdtPolicy, "edt": EdtPolicy}
POLICY_NAMES = tuple(_POLICIES)


def make_policy(name: str):
    if name not in POLICY_NAMES:  # compares by ==, so an unhashable name is refused too
        raise ValueError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
    return _POLICIES[name]()


def probe_latencies(
    fleet: Fleet,
    added_us: Sequence[float],
    samples_per_latency: int,
    rng: np.random.Generator,
    noise_cv: float,
) -> np.ndarray:
    """(N, L, S) calibration samples: true latency with multiplicative Gaussian noise.

    Axes are every fleet row × ``added_us`` × samples. The true latency on
    each VMDK's current tier is ``slope * (base + added) + intercept *
    contention``, with the tier's contention as serving last left it. Noise
    factors ``1 + noise_cv * z`` come from one ``standard_normal`` draw taken
    in C order; every factor <= 0 is dropped and the rest topped up from the
    same generator, which consumes the stream exactly as drawing sample by
    sample, redrawing while the factor is <= 0, would.
    """
    roster = fleet.roster
    tier = fleet.tier_row
    slope = roster.truth_slope[:, None, None]
    base = roster.base_latency_us[tier][:, None, None]
    intercept = roster.truth_intercept_us[:, None, None]
    contention = fleet.contention[tier][:, None, None]
    added = np.asarray(added_us, dtype=float)[:, None]
    truth = slope * (base + added) + intercept * contention
    shape = (len(tier), len(added_us), samples_per_latency)
    count = shape[0] * shape[1] * shape[2]
    factor = rng.standard_normal(count)
    factor *= noise_cv
    factor += 1.0
    if not factor.min(initial=1.0) > 0.0:
        factor = factor[factor > 0.0]
    while factor.size < count:
        more = 1.0 + noise_cv * rng.standard_normal(count - factor.size)
        factor = np.concatenate([factor, more[more > 0.0]])
    return np.multiply(factor.reshape(shape), truth, out=factor.reshape(shape))


# The five figures of every tier and of the whole fleet each epoch, in the
# order of the last axis of ``RunResult.epochs``.
TIER_FIGURES = ("read_iops", "write_iops", "read_mbps", "write_mbps", "mean_latency_us")
# The bits of ``RunResult.flags``: in that epoch the row's move started, its
# plan overloaded it, or its move in flight stalled.
STARTED, OVERLOADED, STALLED = 1, 2, 4


@dataclass
class RunResult:
    """One run: its record, plans and migration log, and the ``fleet`` it left.

    The record spans the run's E epochs. ``epochs`` is (E, T + 1, 5): each
    tier row's ``TIER_FIGURES``, then the fleet's in row T. ``migration_bytes``
    is (E,), the bytes moved; ``flags`` is (E, N) ``uint8``, each fleet row's
    ``STARTED``, ``OVERLOADED`` and ``STALLED`` bits.
    """

    scenario: Scenario
    policy: str
    seed: int
    fleet: Fleet = field(repr=False)
    epochs: np.ndarray
    migration_bytes: np.ndarray
    flags: np.ndarray
    plans: list[AssignmentPlan] = field(default_factory=list)
    migration_log: MigrationLog = field(default_factory=MigrationLog)


def serve_epoch(fleet: Fleet, debits: np.ndarray) -> np.ndarray:
    """Serve every tier's members for one epoch; return the (5, T) ``TIER_FIGURES``.

    The (2, T) ``debits`` are the read and write MB/s that migrations take
    from each tier row, as ``progress_migrations`` returns them. Offered
    load per VMDK is its demand capped at the unloaded achievable rate
    10^6/latency. Aggregate offered load sets the contention factor, which
    inflates intercept latency; if the (migration-debited) directional caps
    are exceeded, every member scales down proportionally. Writes each
    tier's contention, for later probes, and its spare MB/s, its bandwidth
    cap less its served MB/s and debits and never below 0.0 (a NaN is 0.0),
    for later migration speeds, into the fleet's tier arrays, and each
    VMDK's measurements into its rows. A tier's mean latency is its
    IOPS-weighted latency over its IOPS, or 0.0 where it serves none.
    Reads only the roster, ``tier_row``, ``demand`` and the debits, and
    none of the columns it writes: served again on the same inputs it
    writes the same bits and returns them, which lets ``run_scenario``
    skip it at an epoch where none has changed.
    Each stage's per-tier sums take one ``np.bincount`` over lanes
    ``tier_row + T * k``, one lane per tier and sum ``k``: every bin
    accumulates its members in row order from 0.0 (``np.bincount`` adds
    sequentially), so the sums repeat bit for bit what a loop over each
    tier's members in id order gives.
    """
    roster = fleet.roster
    n_tiers, row = len(roster.tiers), fleet.tier_row
    slope, intercept = roster.truth_slope, roster.truth_intercept_us
    demand, rf, io = fleet.demand
    caps = roster.device_caps  # (4, T): read and write IOPS, then read and write MB/s
    lanes = (row + n_tiers * np.arange(5)[:, None]).ravel()

    def per_tier(values: np.ndarray) -> np.ndarray:
        """(k, T) per-tier sums of the (k, N) ``values``, one row per sum."""
        k = len(values)
        sums = np.bincount(lanes[:k * len(row)], weights=values.ravel(), minlength=k * n_tiers)
        return sums.reshape(k, n_tiers)

    with np.errstate(all="ignore"):
        bare = slope * roster.base_latency_us[row]
        wf = 1 - rf
        loads = np.minimum(demand, 1e6 / (bare + intercept))
        offered = np.empty((4, len(row)))  # per VMDK in the order of ``caps``
        np.multiply(loads, rf, out=offered[0])
        np.multiply(loads, wf, out=offered[1])
        np.multiply(offered[:2], io, out=offered[2:])
        offered[2:] /= 1e6
        load = per_tier(offered)  # (4, T), each >= 0.0 or NaN
        # Contention responds to offered load against the raw device caps
        # (it inflates latency, so must stay finite); the proportional scale
        # honors the migration-debited effective caps so conservation always
        # holds. fmax and fmin skip NaN as max(1.0, ...) and min(1.0, ...) do,
        # and a zero load's cap ratio is inf or 0/0, so loads <= 0 drop out.
        contention = np.fmax.reduce(load / caps, axis=0, initial=1.0)
        effective = caps.copy()
        effective[2:] = np.fmax(0.0, caps[2:] - debits)
        scale = np.fmin.reduce(effective / load, axis=0, initial=1.0)

        # The probes' true latency at zero added latency; it is positive (or
        # inf) because intercepts are positive and contention is at least 1.
        fleet.contention[:] = contention
        latency = bare + intercept * contention[row]
        served = np.minimum(demand, 1e6 / latency) * scale[row]
        # Read and write IOPS, read and write MB/s, and latency weight per VMDK.
        out = np.zeros((5, len(row)))
        np.multiply(served, rf, out=out[0])
        np.multiply(served, wf, out=out[1])
        np.multiply(out[:2], io, out=out[2:4])
        out[2:4] /= 1e6
        np.multiply(served, latency, out=out[4], where=np.isfinite(latency))
        tier_out = per_tier(out)
        iops = tier_out[0] + tier_out[1]
        tier_out[4] = np.divide(tier_out[4], iops, out=np.zeros(n_tiers), where=iops > 0)

    fleet.measured_iops[:] = served
    fleet.measured_latency_us[:] = latency
    fleet.measured_mbps[:] = out[2:4]
    # fmax, like max(0.0, x), yields 0.0 where x is NaN.
    fleet.spare_mbps[:] = np.fmax(0.0, caps[2:] - (tier_out[2:4] + debits))

    return tier_out


# Books shorter than this advance in the scalar loop: the passes' fixed cost is
# about that of a 350-row loop (measured on 2 x86_64 vCPUs, numpy 2.4).
PROGRESS_LOOP_ROWS = 384
PROGRESS_PASSES = 32  # fixed-point passes tried before a book falls back to the loop


def progress_migrations(
    rows: np.ndarray,
    fleet: Fleet,
    log: MigrationLog,
    epoch_seconds: float,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Advance the in-flight migrations of fleet ``rows``, in id order, one epoch.

    Each row's open order is its ``order_index`` entry in ``log``, which
    holds the progress of its move in flight. Speed is recomputed per epoch
    from the fleet's spare bandwidth, less the debits already taken this
    epoch, and the VMDK's own measured read bandwidth; each move debits its
    source (``tier_row``) and its destination (``dest_row``). A move whose
    speed is <= 0.0 (not NaN) stalls; any other steps, and a step that
    reaches its rest lands on its bytes total, so a finished move moves 0.
    Writes each order's bytes moved, speed and stall flag to the log.
    Returns total bytes moved, the (2, T) read and write debits in MB/s by
    tier row (``serve_epoch``'s ``debits``), and the rows whose migration
    stalled and those whose migration finished, each in id order.

    A book of fewer than ``PROGRESS_LOOP_ROWS`` rows runs the scalar loop
    (``_progress_loop``); a longer one runs fixed-point passes
    (``_progress_passes``) that repeat the loop's every bit. Row i's rate
    depends only on the debits of rows before it, so rates that a pass
    returns unchanged, bit for bit, are the loop's own, and pass p gets
    rows 0..p-1 right: n + 1 passes settle any n rows. A book none of
    ``PROGRESS_PASSES`` passes settles runs the loop after all.
    """
    if not len(rows):
        return 0.0, np.zeros((2, len(fleet.roster.tiers))), rows, rows
    k = fleet.order_index[rows]
    if (k < 0).any():
        raise ValueError("only a VMDK with an open order can make progress")
    if len(rows) >= PROGRESS_LOOP_ROWS:
        progress = _progress_passes(rows, k, fleet, log, epoch_seconds)
        if progress is not None:
            return progress
    return _progress_loop(rows, k, fleet, log, epoch_seconds)


def _progress_passes(
    rows: np.ndarray, k: np.ndarray, fleet: Fleet, log: MigrationLog, epoch_seconds: float,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray] | None:
    """``_progress_loop``'s result from fixed-point passes, or None if none settles.

    Each row debits two lanes, its source's reads and its destination's
    writes. A pass lays each lane's rates, as the last pass left them (0.0
    at first), along a row of a grid in id order after a 0.0, and
    accumulates the grid's rows: every row so finds the debits the rows
    before it took, added from 0.0 in id order as the loop adds them, and
    recomputes its rate with the loop's operations in the loop's order.
    The fixed point is unique, so any start gives the loop's bits. After
    the first pass, from 0.0, each row starts at the rate that pass gave it,
    or at 0.0 where the rates before it in either lane exceed its spare:
    this lane fill settles a lane that runs out in fewer passes. Stalls
    take the loop's rule, from the settled speeds.
    """
    n, t = len(rows), len(fleet.roster.tiers)
    total, moved = log.bytes_total[k], log.bytes_moved[k]
    left = total - moved
    measured = fleet.measured_mbps[0, rows]
    # Lane r < t is tier row r's reads, lane t + r its writes.
    lane = np.concatenate((fleet.tier_row[rows], t + fleet.dest_row[rows]))
    spare = fleet.spare_mbps.ravel()[lane]
    count = np.bincount(lane, minlength=2 * t)
    width = int(count.max()) + 1
    rank = np.empty(2 * n, dtype=np.intp)  # each row's place in its lane; small ints sort by radix
    rank[lane.astype(np.min_scalar_type(2 * t)).argsort(kind="stable")] = (
        np.arange(2 * n) - np.repeat(count.cumsum() - count, count)
    )
    at = lane * width + rank  # flat grid index of the debit the row finds: reads, then writes
    grid, debits = np.zeros((2 * t, width)), np.empty((2 * t, width))
    cells = grid.reshape(-1)
    read_cell, write_cell = at[:n] + 1, at[n:] + 1
    rates = np.zeros(n)

    def found() -> np.ndarray:
        """The debits each row finds in its two lanes at the current ``rates``."""
        cells[read_cell] = rates
        cells[write_cell] = rates
        np.add.accumulate(grid, axis=1, out=debits)
        return debits.take(at)

    with np.errstate(all="ignore"):
        for p in range(PROGRESS_PASSES):
            rest = spare - found()
            side = np.where(rest > 0.0, rest, 0.0)  # the read sides, then the write sides
            side[:n] += measured
            mbps = np.where(side[n:] < side[:n], side[n:], side[:n])
            step = mbps * 1e6 * epoch_seconds
            # The rest of the move where the step reaches it or is NaN, as in
            # the loop; a stalled row's step <= 0.0 takes 0.0.
            taken = np.fmax(np.fmin(step, left), 0.0)
            rate = taken / epoch_seconds / 1e6
            if rate.tobytes() == rates.tobytes():
                break
            rates = rate
            if p == 0:  # the lane fill: rows past a lane's spare start at 0.0
                full = found() > spare
                rates = np.where(full[:n] | full[n:], 0.0, rate)
        else:
            return None
    stuck = mbps <= 0.0
    moved_now = np.where(stuck, moved, np.where(step < left, moved + step, total))
    log.set_progress(k, moved_now, mbps, stuck)
    moved_total = np.add.accumulate(np.concatenate(([0.0], taken)))[-1]
    # Each lane's total is its grid row's last cell; copied, to hold no view of the grid.
    return float(moved_total), debits[:, -1].reshape(2, t).copy(), rows[stuck], rows[moved_now >= total]


def _progress_loop(
    rows: np.ndarray, k: np.ndarray, fleet: Fleet, log: MigrationLog, epoch_seconds: float,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """``progress_migrations`` as a scalar loop over the book; its stall flags come after it."""
    roster = fleet.roster
    debit_read = [0.0] * len(roster.tiers)
    debit_write = [0.0] * len(roster.tiers)
    spare_read, spare_write = fleet.spare_mbps.tolist()
    source = fleet.tier_row[rows].tolist()
    dest = fleet.dest_row[rows].tolist()
    bytes_total = log.bytes_total[k]
    moved = log.bytes_moved[k].tolist()
    speed = [0.0] * len(rows)
    moved_total = 0.0
    # Conditional expressions stand in for max(0.0, x) and min(a, b): the
    # same result, NaN included, without a call per order.
    for i, (total, measured, s, d) in enumerate(zip(
        bytes_total.tolist(), fleet.measured_mbps[0, rows].tolist(), source, dest
    )):
        spare = spare_read[s] - debit_read[s]
        read_side = (spare if spare > 0.0 else 0.0) + measured
        spare = spare_write[d] - debit_write[d]
        write_side = spare if spare > 0.0 else 0.0
        speed[i] = mbps = write_side if write_side < read_side else read_side
        if mbps <= 0.0:
            continue
        left = total - moved[i]
        step = mbps * 1e6 * epoch_seconds
        if step < left:
            moved[i] += step
        else:
            step, moved[i] = left, total
        moved_total += step
        rate = step / epoch_seconds / 1e6
        debit_read[s] += rate
        debit_write[d] += rate
    moved_now, speed = np.array(moved), np.array(speed)
    stall = speed <= 0.0
    log.set_progress(k, moved_now, speed, stall)
    debits = np.array((debit_read, debit_write))
    return moved_total, debits, rows[stall], rows[moved_now >= bytes_total]


def start_migrations(
    fleet: Fleet,
    log: MigrationLog,
    rows: np.ndarray,
    from_rows: np.ndarray,
    to_rows: np.ndarray,
    epoch: int,
) -> np.ndarray:
    """Start the moves of fleet ``rows`` from tier ``from_rows`` to ``to_rows``.

    The three arrays are aligned and name each VMDK at most once, in
    increasing fleet rows, as an ``AssignmentPlan``'s moves do. Moves of
    VMDKs already moving wait. Logs the started orders in the order given
    and returns their fleet rows. A move must start from its VMDK's current
    tier.
    """
    if not len(rows):
        return np.zeros(0, dtype=np.intp)
    idle = fleet.dest_row[rows] < 0  # finish an in-flight move first
    rows, source, dest = rows[idle], from_rows[idle], to_rows[idle]
    if (source != fleet.tier_row[rows]).any():
        raise ValueError("migration must start from the VMDK's current tier")
    roster = fleet.roster
    fleet.order_index[rows] = log.append(
        rows, roster.tier_ids[source], roster.tier_ids[dest], roster.size_gb[rows] * 1e9, epoch
    )
    fleet.dest_row[rows] = dest
    return rows


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def run_scenario(
    scenario: Scenario,
    policy_name: str,
    seed: int | None = None,
    on_plan: Callable[[int, AssignmentPlan, object, PolicyContext], None] | None = None,
) -> RunResult:
    """Run the full epoch loop for one policy; deterministic given the seed.

    ``on_plan`` is called right after each migration-epoch plan, before any
    order starts, with (epoch, plan, policy, context); used by oracle checks.
    The run reports no IEEE exception: an extreme accepted document may
    overflow or divide by zero to inf or NaN, which the run's own checks
    take or refuse by name, and an error state changes no value.
    """
    sim = scenario.sim if seed is None else replace(scenario.sim, seed=seed)  # checks the override
    epoch_seconds = sim.epoch_seconds
    policy = make_policy(policy_name)

    roster = scenario.roster
    fleet = Fleet.of(roster)
    log = MigrationLog(roster.ids)
    t = len(roster.tiers)
    result = RunResult(
        scenario=scenario, policy=policy_name, seed=sim.seed, fleet=fleet,
        epochs=np.zeros((sim.epochs, t + 1, len(TIER_FIGURES))),
        migration_bytes=np.zeros(sim.epochs),
        flags=np.zeros((sim.epochs, len(roster.ids)), dtype=np.uint8),
        migration_log=log,
    )

    weights = scenario.weights
    ctx = PolicyContext(
        fleet=fleet.read_only(),
        weights=weights,
        epoch_seconds=epoch_seconds,
        probe=partial(probe_latencies, fleet, rng=np.random.default_rng(sim.seed),
                      noise_cv=sim.noise_cv),
    )
    served = ()  # the bytes of what the last serve read, none before the first
    for epoch, figures, flags in zip(range(sim.epochs), result.epochs, result.flags):
        fleet.activate_phases(epoch)
        if epoch % weights.monitor_epoch == 0:
            policy.on_monitor(ctx)

        if epoch % weights.migration_epoch == 0:
            plan = policy.plan_migrations(ctx, epoch)
            result.plans.append(plan)
            if on_plan is not None:
                on_plan(epoch, plan, policy, ctx)
            flags[start_migrations(
                fleet, log, plan.move_rows, plan.move_from, plan.move_to, epoch
            )] |= STARTED
            flags[plan.overloaded_rows] |= OVERLOADED

        result.migration_bytes[epoch], debits, stalled, finished = (
            progress_migrations((fleet.dest_row >= 0).nonzero()[0], fleet, log, epoch_seconds)
        )
        if len(stalled):
            flags[stalled] |= STALLED

        inputs = (debits.tobytes(), fleet.tier_row.tobytes(), fleet.demand.tobytes())
        if inputs != served:
            tier_figures = serve_epoch(fleet, debits).T
            served = inputs
        figures[:t] = tier_figures
        if len(finished):
            fleet.move(finished)

    # Each epoch's fleet row adds its tier rows left to right from 0.0 and
    # weights each tier's mean latency by its IOPS, as a loop over the tiers does.
    parts = np.zeros_like(result.epochs)
    parts[:, 1:] = result.epochs[:, :t]
    parts[:, 1:, 4] *= parts[:, 1:, 0] + parts[:, 1:, 1]
    total = result.epochs[:, t]
    total[:] = np.add.accumulate(parts, axis=1)[:, -1]
    iops = total[:, 0] + total[:, 1]
    total[:, 4] = np.where(iops > 0, total[:, 4] / iops, 0.0)
    return result
