"""Prediction-driven tier placement: scoring and greedy assignment.

Per monitor epoch the policy calibrates every VMDK in one batch, turns the
(N,) calibration fits into predicted per-tier resource usage, normalizes
against each tier's usable budget, scores every (tier, vmdk) cell with the
specialty-weighted match plus an aged copy of last epoch's score minus a
migration-cost penalty, and at migration epochs assigns VMDKs tier by
tier, best score first, under running capacity accounting. Every per-cell
quantity is a dense (T, N) array (or (T, N, 3) over the p, b, s kinds)
over the fleet's tier and VMDK rows; a cell that cannot host its VMDK
scores -inf.

Every input but the policy weights is read from the run's ``Fleet``: its
roster's VMDK rows (id order) are the matrices' VMDK axis and its tier rows
their tier axis, the roster's tier columns (budget, base latency, match
mask, kind-weight total, migration weight) and the fleet's spare MB/s are
every tier number, and the fleet's ``dest_row`` marks the VMDKs whose
in-flight migration is committed.
``pack`` is the one greedy packer: it seats those VMDKs on their
destination, takes each tier's ranked fleet rows and places them tier by
tier with ``first_fit``, a windowed scan that decides whole windows with
numpy and runs a scalar loop only where fits and misses alternate. This
policy ranks each tier's row with one stable ``np.argsort``; the baselines
rank VMDKs by their metric and put 0.0 in the usage columns they do not
check. A brute-force per-epoch profit maximizer doubles as the test oracle
for the greedy round; it and ``epoch_profit`` share one per-(tier, vmdk)
profit table, and both take assignments as (N,) tier rows.

Every planner returns an ``AssignmentPlan`` in fleet rows: each VMDK's
target tier row, the order VMDKs were seated in, and the moves as aligned
row arrays. Its checks run on those arrays. The target and planned usage
keyed by VMDK and tier id (``target``, ``planned_usage``) are built only
when something reads them, and then kept.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Mapping

import numpy as np

from . import calibration
from .calibration import SampleProbe, estimate_avg_lat
from .model import (
    CalibrationFits,
    CapacityMatrices,
    Fleet,
    PolicyWeights,
    ResourceVector,
    TierSpec,
)

ORACLE_MAX_VMDKS = 10
ORACLE_MAX_TIERS = 4


@dataclass(frozen=True, eq=False)
class AssignmentPlan:
    """A total assignment for one migration epoch, held in fleet rows.

    ``ids`` and ``tier_ids`` are the fleet's VMDK ids and tier ids; every
    other field indexes them. ``target_row`` is each VMDK's tier row and
    ``order`` the order the packer seated the VMDKs in: in-flight VMDKs,
    then placements, then stay-puts. The moves are the aligned
    ``move_rows`` (fleet rows), ``move_from`` and ``move_to`` (tier rows),
    at most one per VMDK. VMDKs force-kept on a tier whose remaining
    capacity could not absorb them are in ``overloaded_rows``. ``used`` is
    the (T, 3) usage the planner accounted against each tier's budget (only
    the kinds the policy checks; overloaded VMDKs are not counted).

    ``target`` and ``planned_usage`` are the target and the usage keyed by
    id, built on first access and kept: ``target`` lists the VMDKs in
    ``order``.
    """

    epoch_index: int
    ids: tuple[str, ...]
    tier_ids: np.ndarray
    target_row: np.ndarray
    order: np.ndarray
    move_rows: np.ndarray
    move_from: np.ndarray
    move_to: np.ndarray
    overloaded_rows: np.ndarray
    used: np.ndarray

    def __post_init__(self) -> None:
        still = self.move_from == self.move_to
        bad = still | (self.target_row[self.move_rows] != self.move_to)
        if bad.any():
            # Report the first bad move's first failing check.
            if still[bad.argmax()]:
                raise ValueError("migration list may only contain actual moves")
            raise ValueError("migration target inconsistent with assignment")
        if (np.bincount(self.move_rows) > 1).any():
            raise ValueError("migration list names a VMDK more than once")

    @cached_property
    def target(self) -> dict[str, int]:
        """VMDK id -> tier id, in seating order."""
        return dict(zip(
            map(self.ids.__getitem__, self.order.tolist()),
            self.tier_ids[self.target_row[self.order]].tolist(),
        ))

    @cached_property
    def planned_usage(self) -> dict[int, ResourceVector]:
        """Tier id -> planned usage, in tier order."""
        return {t: ResourceVector(*u) for t, u in zip(self.tier_ids.tolist(), self.used.tolist())}


def cal_capacity_matrices(fits: CalibrationFits, fleet: Fleet) -> CapacityMatrices:
    """Predict absolute resource usage of every VMDK on every tier.

    Throughput is the latency-implied ceiling 10^6/latency, additionally
    capped at the VMDK's current demand (an idle VMDK must not look like a
    heavy consumer); bandwidth follows from throughput and mean I/O size;
    storage is the VMDK size. The rows of ``fits`` must follow the fleet's.
    """
    roster = fleet.roster
    if fits.vmdk_ids != roster.ids:
        raise ValueError("calibration fits must follow the VMDK order")
    lat = estimate_avg_lat(fits, fleet.tier_row, roster.base_latency_us)
    with np.errstate(divide="ignore"):
        iops = np.where(lat > 0, 1e6 / lat, 0.0)
    iops = np.minimum(iops, fleet.demand_iops)
    size = np.broadcast_to(roster.size_gb, iops.shape)
    return CapacityMatrices(
        vmdk_ids=roster.ids,
        cap=np.stack([iops, iops * fleet.avg_io_size_bytes / 1e6, size], axis=-1),
    )


def normalize_and_gate(mat: CapacityMatrices, fleet: Fleet) -> CapacityMatrices:
    """Fill per-cell feasibility and budget-normalized usage ratios.

    A cell is infeasible when any predicted component exceeds the tier's
    usable budget (``fleet.roster.budget``); its ratios are zeroed so
    downstream scores ignore it. The matrices' tier axis must follow the
    fleet's.
    """
    budget = fleet.roster.budget[:, None, :]
    mat.feasible = (mat.cap <= budget).all(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(budget > 0, mat.cap / budget, 0.0)
    ratio[~mat.feasible] = 0.0
    mat.ratio = ratio
    return mat


def orthogonal_match_score(
    fleet: Fleet,
    ratios: np.ndarray,
    sla_weight: np.ndarray,
    confidence: np.ndarray,
) -> np.ndarray:
    """(T, N) specialty-masked, weight-scaled inner products of tier and VMDK vectors.

    ``ratios`` is (T, N, 3) with its tier axis in the fleet's tier rows;
    ``sla_weight`` and ``confidence`` are per VMDK. Each tier's kinds are
    weighted by the roster's ``match_mask`` and the sum normalized by its
    ``kind_weight_total``, which TierSpec keeps finite and positive.
    """
    roster = fleet.roster
    masked = roster.match_mask[:, None, :]
    denominator = roster.kind_weight_total[:, None]
    numerator = (
        masked[..., 0] * ratios[..., 0]
        + masked[..., 1] * ratios[..., 1]
        + masked[..., 2] * ratios[..., 2]
    )
    return numerator * sla_weight * confidence / denominator


def mig_cost_seconds(fleet: Fleet, sources: np.ndarray | None = None) -> np.ndarray:
    """(T, N) estimated seconds to move each VMDK of the fleet to each tier row.

    Speed is bottlenecked by spare bandwidth: the source's spare read
    bandwidth gets the VMDK's own read share back (a live migration frees
    it); the target contributes spare write bandwidth. Zero speed means the
    move is impossible this epoch (+inf); staying on the source is free.
    ``sources`` (the (N,) source tier rows) defaults to each VMDK's current
    tier.
    """
    source_row = fleet.tier_row if sources is None else sources
    read_side = fleet.spare_read_mbps[source_row] + fleet.measured_read_mbps
    speed = np.minimum(read_side, fleet.spare_write_mbps[:, None])
    with np.errstate(divide="ignore"):
        seconds = fleet.roster.size_gb * 1000.0 / speed
    seconds[source_row, np.arange(len(source_row))] = 0.0
    return seconds


def cal_score(
    mat: CapacityMatrices,
    previous: np.ndarray | None,
    weights: PolicyWeights,
    fleet: Fleet,
    fits: CalibrationFits,
    migration_epoch_seconds: float,
) -> np.ndarray:
    """(T, N) convolutional score: aged last score + match - weighted migration cost.

    Migration seconds are divided by the migration-epoch duration so the
    penalty is dimensionless. ``previous`` is last epoch's score, None
    before the first epoch. Infeasible cells score -inf. A previous cell that
    is not finite (infeasible, or blocked by an infinite migration cost,
    which only blocks its own epoch) ages as 0.0.
    """
    roster = fleet.roster
    current = orthogonal_match_score(fleet, mat.ratio, roster.sla_weight, fits.confidence)
    cost = mig_cost_seconds(fleet) / migration_epoch_seconds
    # An impossible move (infinite cost) blocks the cell this epoch no
    # matter how small the per-tier cost weight is.
    finite = np.isfinite(cost)
    penalty = np.where(finite, roster.mig_weight[:, None] * np.where(finite, cost, 0.0), math.inf)
    history = 0.0 if previous is None else np.where(np.isfinite(previous), previous, 0.0)
    return np.where(mat.feasible, weights.aging_factor * history + current - penalty, -math.inf)


FIRST_FIT_WINDOW = 64


def first_fit(rows: np.ndarray, left: np.ndarray, used: np.ndarray) -> np.ndarray:
    """Which of the (n, 3) usage ``rows`` fit, in order, into ``left``.

    Exactly the scalar loop ``for r in rows: if not any(r > left): left -= r;
    used += r``, bit for bit and NaN included, with ``left`` and ``used``
    (3,) arrays written in place. The scan runs in windows that double after
    each window whose rows all fit (taken with sequential
    ``np.subtract.accumulate`` and ``np.add.accumulate``) or all miss
    (skipped after one comparison). A larger window with both is tried again
    at ``FIRST_FIT_WINDOW`` rows. A window of that size with both runs the
    scalar loop, as does every shorter window and every window after a mixed
    one until one comes out uniform, so a scan that keeps switching costs
    little more than the scalar loop.
    """
    fit = np.zeros(len(rows), dtype=bool)
    start, width, expect = 0, FIRST_FIT_WINDOW, True  # expect None: a mixed window
    while start < len(rows):
        window = rows[start:start + width]
        stop = start + len(window)
        if expect is not None and len(window) >= FIRST_FIT_WINDOW:
            if expect:
                after = np.subtract.accumulate(np.concatenate((left[None], window)))
                if not (window > after[:-1]).any():
                    fit[start:stop], left[:], start, width = True, after[-1], stop, 2 * width
                    used[:] = np.add.accumulate(np.concatenate((used[None], window)))[-1]
                    continue
            if (window > left).any(axis=1).all():
                start, width, expect = stop, 2 * width, False
                continue
            if width > FIRST_FIT_WINDOW:
                width = FIRST_FIT_WINDOW
                continue
        (l0, l1, l2), (u0, u1, u2) = left.tolist(), used.tolist()
        flags = []
        for p, b, s in window.tolist():
            if p > l0 or b > l1 or s > l2:
                flags.append(False)
            else:
                l0, l1, l2, u0, u1, u2 = l0 - p, l1 - b, l2 - s, u0 + p, u1 + b, u2 + s
                flags.append(True)
        fit[start:stop], left[:], used[:], start = flags, (l0, l1, l2), (u0, u1, u2), stop
        expect = flags[0] if len(set(flags)) == 1 else None
    return fit


def pack(
    fleet: Fleet,
    usage: np.ndarray,
    ranked: Iterable[tuple[int, np.ndarray]],
    epoch_index: int,
    rank: np.ndarray | None = None,
) -> AssignmentPlan:
    """Greedy multidimensional packing shared by every policy, one tier at a time.

    ``usage[i, j]`` is the (p, b, s) usage the VMDK in fleet row ``j`` would
    put on tier row ``i``. A policy that does not check a kind puts 0.0 in
    its column: budgets are finite and at least 0, so 0.0 always fits and its
    planned usage stays 0.0. ``ranked`` holds, per tier in processing order,
    its tier row and its candidate fleet rows, best first.

    VMDKs with an in-flight migration (``fleet.dest_row`` >= 0) absorb
    budget at their committed destination first, in id order, and are never
    re-targeted. Then one ``first_fit`` scan per tier places its candidates
    not placed yet. Whatever remains stays on its current tier, in id order,
    with an overload flag when even that tier cannot absorb it; totality
    always wins over capacity. A tier's decisions depend only on the rows
    that reach it, in order, so a VMDK-major walk (each VMDK tries its tiers
    in order until one absorbs it) places every VMDK as this scan does.
    The plan's ``order`` lists the in-flight VMDKs, then the placements, in
    scan order or in walk order given ``rank`` (each fleet row's position in
    the walk), then the stay-puts; its moves are the placements that change
    tiers, in the same order.
    """
    roster = fleet.roster
    left = roster.budget.copy()
    used = np.zeros((len(left), 3))
    where = fleet.dest_row.copy()
    overloaded = [np.zeros(0, dtype=np.intp)]

    def hold(rows: np.ndarray, at: np.ndarray) -> None:
        """Put each row on tier row ``at``, in order, overloaded where it does not fit."""
        for i in sorted(set(at.tolist())):
            group = rows[at == i]
            overloaded.append(group[~first_fit(usage[i, group], left[i], used[i])])

    pins = np.flatnonzero(where >= 0)
    hold(pins, where[pins])
    chosen = [np.zeros(0, dtype=np.intp)]
    for i, rows in ranked:
        rows = rows[where[rows] < 0]
        chosen.append(rows[first_fit(usage[i, rows], left[i], used[i])])
        where[chosen[-1]] = i
    chosen = np.concatenate(chosen)
    if rank is not None:
        chosen = chosen[np.argsort(rank[chosen])]
    rest = np.flatnonzero(where < 0)
    hold(rest, fleet.tier_row[rest])

    where[rest] = fleet.tier_row[rest]
    moves = chosen[where[chosen] != fleet.tier_row[chosen]]
    # A run keeps every plan, so a plan's rows take half the fleet's width.
    return AssignmentPlan(
        epoch_index=epoch_index,
        ids=roster.ids,
        tier_ids=roster.tier_ids,
        target_row=where.astype(np.int32),
        order=np.concatenate((pins, chosen, rest)).astype(np.int32),
        move_rows=moves.astype(np.int32),
        move_from=fleet.tier_row[moves].astype(np.int32),
        move_to=where[moves].astype(np.int32),
        overloaded_rows=np.concatenate(overloaded).astype(np.int32),
        used=used,
    )


def trigger_migration(
    score: np.ndarray,
    mat: CapacityMatrices,
    fleet: Fleet,
    epoch_index: int,
) -> AssignmentPlan:
    """Greedy assignment round: tiers in id order, VMDKs by descending score.

    The matrices' VMDK axis must follow the fleet's rows. One stable
    ``np.argsort`` ranks each tier's row, so score ties break by fleet row,
    which is VMDK id. A -inf or NaN cell (infeasible, or a migration that
    cannot run this epoch) is never a candidate. All three budget kinds are
    checked; see ``pack`` for in-flight VMDKs and the stay-put fallback.
    """
    if mat.vmdk_ids != fleet.roster.ids:
        raise ValueError("capacity matrices must follow the fleet's VMDK order")
    # -inf cells rank after every other cell and NaN cells last, so each
    # tier's candidates are a prefix of its ranking.
    order = np.argsort(-score, axis=1, kind="stable")
    counts = (score > -math.inf).sum(axis=1).tolist()
    ranked = [(i, rows[:n]) for i, (rows, n) in enumerate(zip(order, counts))]
    return pack(fleet, mat.cap, ranked, epoch_index)


def profit_contributions(
    mat: CapacityMatrices,
    weights: PolicyWeights,
    previous: np.ndarray,
    fleet: Fleet,
    migration_epoch_seconds: float,
) -> np.ndarray:
    """(T, N) single-epoch profit of hosting each VMDK on each tier.

    SLA weight times (alpha-weighted budget-normalized ratios minus beta
    times the normalized cost of moving from ``previous``). Resource terms
    use ratios so the three kinds are commensurable; the migration term uses
    the same normalized cost as the score. The objective is separable once
    the previous assignment (``previous``, each VMDK's tier row) and the
    tiers' spare bandwidth are fixed. The matrices' axes must follow the
    fleet's tier and VMDK rows.
    """
    roster = fleet.roster
    if mat.vmdk_ids != roster.ids:
        raise ValueError("capacity matrices must follow the fleet's VMDK order")
    alpha, ratio = weights.alpha, mat.ratio
    gain = alpha.p * ratio[..., 0] + alpha.b * ratio[..., 1] + alpha.s * ratio[..., 2]
    cost = mig_cost_seconds(fleet, previous) / migration_epoch_seconds
    return roster.sla_weight * (gain - weights.beta * cost)


def epoch_profit(
    target: np.ndarray,
    previous: np.ndarray,
    mat: CapacityMatrices,
    weights: PolicyWeights,
    fleet: Fleet,
    migration_epoch_seconds: float,
) -> float:
    """Single-epoch profit of an assignment: its cells of ``profit_contributions``.

    ``target`` and ``previous`` are (N,) tier rows, such as a plan's
    ``target_row``. The cells are added one at a time in row order, from
    0.0. Used for oracle comparison and reporting only.
    """
    contrib = profit_contributions(mat, weights, previous, fleet, migration_epoch_seconds)
    cells = contrib[target, np.arange(len(target))].tolist()
    return reduce(operator.add, cells, 0.0)


def oracle_assignment(
    mat: CapacityMatrices,
    weights: PolicyWeights,
    previous: np.ndarray,
    fleet: Fleet,
    migration_epoch_seconds: float,
    epoch_index: int = 0,
) -> AssignmentPlan:
    """Exhaustive per-epoch profit maximizer over capacity-feasible assignments.

    Enumeration only; bounded to small instances. Ties break toward the
    lexicographically smallest assignment vector (VMDKs in id order, the
    fleet's row order). The matrices' tier axis must follow the fleet's.
    ``previous`` is each VMDK's tier row before the epoch; the plan moves
    every VMDK whose best tier row differs, in id order, and seats the VMDKs
    in id order.
    """
    roster = fleet.roster
    vmdk_ids, tiers = roster.ids, roster.tiers
    if len(vmdk_ids) > ORACLE_MAX_VMDKS or len(tiers) > ORACLE_MAX_TIERS:
        raise ValueError(
            f"oracle limited to {ORACLE_MAX_VMDKS} VMDKs and {ORACLE_MAX_TIERS} tiers"
        )
    contrib = profit_contributions(mat, weights, previous, fleet, migration_epoch_seconds).tolist()
    cap = mat.cap.tolist()
    remaining = roster.budget.tolist()
    choice: list[int] = []
    best_profit = -math.inf
    best_vector: list[int] | None = None

    def recurse(index: int, profit: float) -> None:
        nonlocal best_profit, best_vector
        if index == len(vmdk_ids):
            if profit > best_profit:
                best_profit = profit
                best_vector = list(choice)
            return
        for i, rem in enumerate(remaining):
            c = cap[i][index]
            if c[0] <= rem[0] and c[1] <= rem[1] and c[2] <= rem[2]:
                rem[0] -= c[0]
                rem[1] -= c[1]
                rem[2] -= c[2]
                choice.append(i)
                recurse(index + 1, profit + contrib[i][index])
                choice.pop()
                rem[0] += c[0]
                rem[1] += c[1]
                rem[2] += c[2]

    recurse(0, 0.0)
    if best_vector is None:
        raise ValueError("no capacity-feasible assignment exists")

    used = np.zeros((len(tiers), 3))
    for j, i in enumerate(best_vector):
        used[i] += cap[i][j]
    target = np.array(best_vector, dtype=np.intp)
    moves = np.flatnonzero(target != previous)
    return AssignmentPlan(
        epoch_index=epoch_index,
        ids=vmdk_ids,
        tier_ids=roster.tier_ids,
        target_row=target,
        order=np.arange(len(vmdk_ids)),
        move_rows=moves,
        move_from=previous[moves],
        move_to=target[moves],
        overloaded_rows=np.zeros(0, dtype=np.intp),
        used=used,
    )


@dataclass
class PolicyContext:
    """Everything a policy may look at when monitoring or planning.

    ``probe`` is the one calibration sampler: given VMDK ids, injected
    latencies and a sample count it returns the dense (N, L, S) sample grid
    (see ``calibration.CalibrationSamples``), drawn from the run's seeded
    generator against each VMDK's current device. A monitor epoch probes
    every VMDK at once and fits the grid into (N,) ``CalibrationFits``.

    ``fleet`` is a read-only view of the run's store of VMDK and tier rows,
    made once per run: it follows every write of the engine, and a policy
    that tries to write it gets an error. Its ``roster`` holds the run's
    tier specs and every static column, and its ``dest_row`` the
    destination of each in-flight migration. The context's own ``tiers``
    and ``vmdk_states`` are the roster's tier specs and id-to-row map.
    """

    fleet: Fleet
    weights: PolicyWeights
    epoch_seconds: float
    probe: SampleProbe

    @property
    def migration_epoch_seconds(self) -> float:
        return self.weights.migration_epoch * self.epoch_seconds

    @property
    def tiers(self) -> tuple[TierSpec, ...]:
        """The roster's tier specs; kept because perfbench's ``policy.cells`` tally reads it."""
        return self.fleet.roster.tiers

    @property
    def vmdk_states(self) -> Mapping[str, int]:
        """VMDK id -> fleet row; kept because perfbench's ``policy.cells`` tally reads it."""
        return self.fleet.roster.row


class AutoTieringPolicy:
    """Calibrates at monitor epochs, plans greedy migrations at migration epochs."""

    name = "autotiering"

    def __init__(self) -> None:
        self.calibrations: CalibrationFits | None = None
        self.matrices: CapacityMatrices | None = None
        self.score: np.ndarray | None = None  # last monitor epoch's (T, N) score

    def on_monitor(self, ctx: PolicyContext) -> None:
        fleet = ctx.fleet
        weights = ctx.weights
        # Looked up through the module so the calibration layers stay patchable.
        samples = calibration.collect_samples(
            fleet.roster.ids, ctx.probe, weights.injected_latencies_us,
            weights.samples_per_latency,
        )
        self.calibrations = calibration.regress_latency_curve(
            samples, floor=weights.confidence_floor
        )
        mat = cal_capacity_matrices(self.calibrations, fleet)
        normalize_and_gate(mat, fleet)
        self.score = cal_score(
            mat,
            self.score,
            ctx.weights,
            fleet,
            self.calibrations,
            ctx.migration_epoch_seconds,
        )
        self.matrices = mat

    def plan_migrations(self, ctx: PolicyContext, epoch_index: int) -> AssignmentPlan:
        if self.score is None or self.matrices is None:
            raise RuntimeError("plan requested before any monitor epoch")
        return trigger_migration(self.score, self.matrices, ctx.fleet, epoch_index)
