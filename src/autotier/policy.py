"""Prediction-driven tier placement: scoring and greedy assignment.

Per monitor epoch the policy calibrates every VMDK in one batch, turns the
(N,) calibration fits into predicted per-tier resource usage, normalizes
against each tier's usable budget, scores every (tier, vmdk) cell with the
specialty-weighted match plus an aged history term minus a migration-cost
penalty, and at migration epochs assigns VMDKs tier by tier, best score
first, under running capacity accounting. Every per-cell quantity is a
dense (T, N) array (or (T, N, 3) over the p, b, s kinds) with axes in
``CapacityMatrices`` order; a cell that cannot host its VMDK scores -inf.

``pack`` is the one greedy packer: this policy and both baselines differ
only in the candidate (tier, vmdk) order they feed it and the budget kinds
it checks. A brute-force per-epoch profit maximizer doubles as the test
oracle for the greedy round; it and ``epoch_profit`` share one
per-(tier, vmdk) profit table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import calibration
from .calibration import SampleProbe, estimate_avg_lat
from .model import (
    CalibrationFits,
    CapacityMatrices,
    PolicyWeights,
    ResourceVector,
    TierSpec,
    TierState,
    VmdkState,
)

ORACLE_MAX_VMDKS = 10
ORACLE_MAX_TIERS = 4


@dataclass
class ScoreMatrix:
    """(T, N) convolutional scores plus the history feeding the next epoch."""

    score: np.ndarray
    history: np.ndarray


@dataclass(frozen=True)
class AssignmentPlan:
    """A total assignment for one migration epoch.

    ``target`` maps every VMDK to exactly one tier; ``migrations`` lists only
    actual moves. VMDKs force-kept on a tier whose remaining capacity could
    not absorb them are in ``overloaded``. ``planned_usage`` records, per
    tier, the usage the planner accounted against the tier budget (only the
    kinds the policy checks; overloaded VMDKs are not counted).
    """

    epoch_index: int
    target: dict[str, int]
    migrations: tuple[tuple[str, int, int], ...]
    overloaded: frozenset[str] = frozenset()
    planned_usage: dict[int, ResourceVector] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for vmdk_id, frm, to in self.migrations:
            if frm == to:
                raise ValueError("migration list may only contain actual moves")
            if self.target.get(vmdk_id) != to:
                raise ValueError("migration target inconsistent with assignment")


def _budgets(tiers: Sequence[TierSpec]) -> list[list[float]]:
    """Per tier, the usable [p, b, s] budget."""
    return [[b.p, b.b, b.s] for b in (t.max_usable() for t in tiers)]


def cal_capacity_matrices(
    fits: CalibrationFits,
    vmdks: Sequence[VmdkState],
    tiers: Sequence[TierSpec],
) -> CapacityMatrices:
    """Predict absolute resource usage of every VMDK on every tier.

    Throughput is the latency-implied ceiling 10^6/latency, additionally
    capped at the VMDK's current demand (an idle VMDK must not look like a
    heavy consumer); bandwidth follows from throughput and mean I/O size;
    storage is the VMDK size. The rows of ``fits`` must follow ``vmdks``.
    """
    if fits.vmdk_ids != tuple(v.spec.id for v in vmdks):
        raise ValueError("calibration fits must follow the VMDK order")
    lat = estimate_avg_lat(
        fits, [v.current_tier for v in vmdks], {t.id: t.base_latency_us for t in tiers}
    )
    with np.errstate(divide="ignore"):
        iops = np.where(lat > 0, 1e6 / lat, 0.0)
    iops = np.minimum(iops, [v.demand_iops for v in vmdks])
    io_size = np.array([v.avg_io_size_bytes for v in vmdks])
    size = np.broadcast_to([v.spec.size_gb for v in vmdks], iops.shape)
    return CapacityMatrices(
        tier_ids=tuple(t.id for t in tiers),
        vmdk_ids=tuple(v.spec.id for v in vmdks),
        cap=np.stack([iops, iops * io_size / 1e6, size], axis=-1),
    )


def normalize_and_gate(mat: CapacityMatrices, tiers: Sequence[TierSpec]) -> CapacityMatrices:
    """Fill per-cell feasibility and budget-normalized usage ratios.

    A cell is infeasible when any predicted component exceeds the tier's
    usable budget; its ratios are zeroed so downstream scores ignore it.
    """
    budget = np.array(_budgets(tiers))[:, None, :]
    mat.feasible = (mat.cap <= budget).all(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(budget > 0, mat.cap / budget, 0.0)
    ratio[~mat.feasible] = 0.0
    mat.ratio = ratio
    return mat


def orthogonal_match_score(
    tiers: Sequence[TierSpec],
    ratios: np.ndarray,
    sla_weight: np.ndarray,
    confidence: np.ndarray,
) -> np.ndarray:
    """(T, N) specialty-masked, weight-scaled inner products of tier and VMDK vectors.

    ``ratios`` is (T, N, 3); ``sla_weight`` and ``confidence`` are per VMDK.
    Each tier normalizes by the sum of all its kind weights, which TierSpec
    keeps finite and positive.
    """
    masked = np.array([
        (m.p, m.b, m.s) for m in (t.specialty * t.kind_weights for t in tiers)
    ])[:, None, :]
    denominator = np.array([[t.kind_weights.total()] for t in tiers])
    numerator = (
        masked[..., 0] * ratios[..., 0]
        + masked[..., 1] * ratios[..., 1]
        + masked[..., 2] * ratios[..., 2]
    )
    return numerator * sla_weight * confidence / denominator


def mig_cost_seconds(
    vmdks: Sequence[VmdkState],
    tier_ids: Sequence[int],
    tier_states: Mapping[int, TierState],
    sources: Sequence[int] | None = None,
) -> np.ndarray:
    """(T, N) estimated seconds to move each VMDK to each tier.

    Speed is bottlenecked by spare bandwidth: the source's spare read
    bandwidth gets the VMDK's own read share back (a live migration frees
    it); the target contributes spare write bandwidth. Zero speed means the
    move is impossible this epoch (+inf); staying on the source is free.
    ``sources`` defaults to each VMDK's current tier.
    """
    if sources is None:
        sources = [v.current_tier for v in vmdks]
    read_side = np.array([
        tier_states[src].remaining_read_mbps() + v.measured_read_mbps
        for v, src in zip(vmdks, sources)
    ])
    write_side = np.array([tier_states[t].remaining_write_mbps() for t in tier_ids])
    speed = np.minimum(read_side, write_side[:, None])
    with np.errstate(divide="ignore"):
        seconds = np.array([v.spec.size_gb for v in vmdks]) * 1000.0 / speed
    seconds[np.equal.outer(tier_ids, sources)] = 0.0
    return seconds


def cal_score(
    mat: CapacityMatrices,
    history: np.ndarray | None,
    tiers: Sequence[TierSpec],
    weights: PolicyWeights,
    tier_states: Mapping[int, TierState],
    vmdks: Sequence[VmdkState],
    fits: CalibrationFits,
    migration_epoch_seconds: float,
) -> ScoreMatrix:
    """Convolutional score: aged history + current match - weighted migration cost.

    Migration seconds are divided by the migration-epoch duration so the
    penalty is dimensionless. ``history`` is None before the first epoch.
    Infeasible cells score -inf and their history resets to zero; so does
    history under an infinite migration cost, which only blocks the current
    epoch.
    """
    current = orthogonal_match_score(
        tiers,
        mat.ratio,
        np.array([v.spec.sla_weight for v in vmdks]),
        fits.confidence,
    )
    cost = mig_cost_seconds(vmdks, mat.tier_ids, tier_states) / migration_epoch_seconds
    # An impossible move (infinite cost) blocks the cell this epoch no
    # matter how small the per-tier cost weight is.
    finite = np.isfinite(cost)
    mig_weight = np.array([[t.mig_weight] for t in tiers])
    penalty = np.where(finite, mig_weight * np.where(finite, cost, 0.0), math.inf)
    aged = weights.aging_factor * (0.0 if history is None else history)
    score = np.where(mat.feasible, aged + current - penalty, -math.inf)
    return ScoreMatrix(score=score, history=np.where(np.isfinite(score), score, 0.0))


def pack(
    tiers: Sequence[TierSpec],
    vmdk_ids: Sequence[str],
    usage: Sequence[Sequence[Sequence[float]]],
    kinds: str,
    candidates: Iterable[tuple[int, int]],
    current_assignment: Mapping[str, int],
    epoch_index: int,
    pinned: Mapping[str, int] | None = None,
) -> AssignmentPlan:
    """Greedy multidimensional packing shared by every policy.

    ``usage[i][j]`` is the (p, b, s) usage VMDK ``vmdk_ids[j]`` would put on
    ``tiers[i]``; only the components named in ``kinds`` (a subset of "pbs")
    are checked against, and accounted in, the running tier budgets.

    Pinned VMDKs (an in-flight migration) absorb budget at their committed
    destination first and are never re-targeted. Then each (tier index,
    vmdk index) candidate, in preference order, places its VMDK if the VMDK
    is still unplaced and the tier can absorb it. Whatever remains stays on
    its current tier, with an overload flag when even that tier cannot
    absorb it; totality always wins over capacity.
    """
    checked = ["pbs".index(k) for k in kinds]
    row = {t.id: i for i, t in enumerate(tiers)}
    col = {v: j for j, v in enumerate(vmdk_ids)}
    remaining = _budgets(tiers)
    used = [[0.0, 0.0, 0.0] for _ in tiers]
    target: dict[str, int] = {}
    overloaded: set[str] = set()

    def absorb(i: int, j: int) -> bool:
        cell, left = usage[i][j], remaining[i]
        for k in checked:
            if cell[k] > left[k]:
                return False
        for k in checked:
            left[k] -= cell[k]
            used[i][k] += cell[k]
        return True

    effective_current = dict(current_assignment)
    for vmdk_id, dest in sorted((pinned or {}).items()):
        target[vmdk_id] = dest
        effective_current[vmdk_id] = dest
        if not absorb(row[dest], col[vmdk_id]):
            overloaded.add(vmdk_id)

    for i, j in candidates:
        vmdk_id = vmdk_ids[j]
        if vmdk_id not in target and absorb(i, j):
            target[vmdk_id] = tiers[i].id

    for j, vmdk_id in enumerate(vmdk_ids):
        if vmdk_id in target:
            continue
        current = effective_current[vmdk_id]
        target[vmdk_id] = current
        if not absorb(row[current], j):
            overloaded.add(vmdk_id)

    migrations = tuple(
        (v, effective_current[v], t)
        for v, t in target.items()
        if t != effective_current[v]
    )
    return AssignmentPlan(
        epoch_index=epoch_index,
        target=target,
        migrations=migrations,
        overloaded=frozenset(overloaded),
        planned_usage={t.id: ResourceVector(*u) for t, u in zip(tiers, used)},
    )


def trigger_migration(
    scores: ScoreMatrix,
    mat: CapacityMatrices,
    tiers: Sequence[TierSpec],
    current_assignment: Mapping[str, int],
    epoch_index: int,
    pinned: Mapping[str, int] | None = None,
) -> AssignmentPlan:
    """Greedy assignment round: tiers in id order, VMDKs by descending score.

    Score ties break by VMDK id. A -inf cell (infeasible, or a migration that
    cannot run this epoch) is never a candidate. All three budget kinds are
    checked; see ``pack`` for pinned VMDKs and the stay-put fallback.
    """
    candidates: list[tuple[int, int]] = []
    for i, row in enumerate(scores.score.tolist()):
        ranked = sorted(
            (-score, vmdk_id, j)
            for j, (score, vmdk_id) in enumerate(zip(row, mat.vmdk_ids))
            if score > -math.inf
        )
        candidates += [(i, j) for _, _, j in ranked]
    return pack(
        tiers, mat.vmdk_ids, mat.cap.tolist(), "pbs", candidates,
        current_assignment, epoch_index, pinned,
    )


def profit_contributions(
    mat: CapacityMatrices,
    weights: PolicyWeights,
    previous: Mapping[str, int],
    vmdks: Sequence[VmdkState],
    tier_states: Mapping[int, TierState],
    migration_epoch_seconds: float,
) -> np.ndarray:
    """(T, N) single-epoch profit of hosting each VMDK on each tier.

    SLA weight times (alpha-weighted budget-normalized ratios minus beta
    times the normalized cost of moving from ``previous``). Resource terms
    use ratios so the three kinds are commensurable; the migration term uses
    the same normalized cost as the score. The objective is separable once
    the previous assignment and tier states are fixed.
    """
    by_id = {v.spec.id: v for v in vmdks}
    states = [by_id[v] for v in mat.vmdk_ids]
    alpha, ratio = weights.alpha, mat.ratio
    gain = alpha.p * ratio[..., 0] + alpha.b * ratio[..., 1] + alpha.s * ratio[..., 2]
    cost = mig_cost_seconds(
        states, mat.tier_ids, tier_states, [previous[v] for v in mat.vmdk_ids]
    ) / migration_epoch_seconds
    sla = np.array([v.spec.sla_weight for v in states])
    return sla * (gain - weights.beta * cost)


def epoch_profit(
    target: Mapping[str, int],
    previous: Mapping[str, int],
    mat: CapacityMatrices,
    weights: PolicyWeights,
    vmdks: Sequence[VmdkState],
    tier_states: Mapping[int, TierState],
    migration_epoch_seconds: float,
) -> float:
    """Single-epoch profit of an assignment: its cells of ``profit_contributions``.

    Used for oracle comparison and reporting only.
    """
    contrib = profit_contributions(
        mat, weights, previous, vmdks, tier_states, migration_epoch_seconds
    ).tolist()
    row = {t: i for i, t in enumerate(mat.tier_ids)}
    col = {v: j for j, v in enumerate(mat.vmdk_ids)}
    total = 0.0
    for v in vmdks:
        total += contrib[row[target[v.spec.id]]][col[v.spec.id]]
    return total


def oracle_assignment(
    mat: CapacityMatrices,
    weights: PolicyWeights,
    previous: Mapping[str, int],
    tiers: Sequence[TierSpec],
    vmdks: Sequence[VmdkState],
    tier_states: Mapping[int, TierState],
    migration_epoch_seconds: float,
    epoch_index: int = 0,
) -> AssignmentPlan:
    """Exhaustive per-epoch profit maximizer over capacity-feasible assignments.

    Enumeration only; bounded to small instances. Ties break toward the
    lexicographically smallest assignment vector (VMDKs in id order). The
    matrices' tier axis must follow ``tiers``.
    """
    vmdk_ids = sorted(v.spec.id for v in vmdks)
    if len(vmdk_ids) > ORACLE_MAX_VMDKS or len(tiers) > ORACLE_MAX_TIERS:
        raise ValueError(
            f"oracle limited to {ORACLE_MAX_VMDKS} VMDKs and {ORACLE_MAX_TIERS} tiers"
        )
    col = {v: j for j, v in enumerate(mat.vmdk_ids)}
    contrib = profit_contributions(
        mat, weights, previous, vmdks, tier_states, migration_epoch_seconds
    ).tolist()
    cap = mat.cap.tolist()
    remaining = _budgets(tiers)
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
        j = col[vmdk_ids[index]]
        for i, rem in enumerate(remaining):
            c = cap[i][j]
            if c[0] <= rem[0] and c[1] <= rem[1] and c[2] <= rem[2]:
                rem[0] -= c[0]
                rem[1] -= c[1]
                rem[2] -= c[2]
                choice.append(i)
                recurse(index + 1, profit + contrib[i][j])
                choice.pop()
                rem[0] += c[0]
                rem[1] += c[1]
                rem[2] += c[2]

    recurse(0, 0.0)
    if best_vector is None:
        raise ValueError("no capacity-feasible assignment exists")

    target: dict[str, int] = {}
    usage: dict[int, ResourceVector] = {t.id: ResourceVector() for t in tiers}
    for v, i in zip(vmdk_ids, best_vector):
        t = target[v] = tiers[i].id
        usage[t] = usage[t] + ResourceVector(*cap[i][col[v]])
    migrations = tuple(
        (v, previous[v], t) for v, t in target.items() if t != previous[v]
    )
    return AssignmentPlan(
        epoch_index=epoch_index,
        target=target,
        migrations=migrations,
        planned_usage=usage,
    )


@dataclass
class PolicyContext:
    """Everything a policy may look at when monitoring or planning.

    ``probe`` is the one calibration sampler: given VMDK ids, injected
    latencies and a sample count it returns the dense (N, L, S) sample grid
    (see ``calibration.CalibrationSamples``), drawn from the run's seeded
    generator against each VMDK's current device. A monitor epoch probes
    every VMDK at once and fits the grid into (N,) ``CalibrationFits``.
    """

    tiers: tuple[TierSpec, ...]
    tier_states: dict[int, TierState]
    vmdk_states: dict[str, VmdkState]
    weights: PolicyWeights
    epoch_seconds: float
    probe: SampleProbe
    in_flight: dict[str, int] = field(default_factory=dict)

    @property
    def migration_epoch_seconds(self) -> float:
        return self.weights.migration_epoch * self.epoch_seconds

    def current_assignment(self) -> dict[str, int]:
        return {v: s.current_tier for v, s in self.vmdk_states.items()}

    def sorted_states(self) -> list[VmdkState]:
        return [self.vmdk_states[v] for v in sorted(self.vmdk_states)]


class AutoTieringPolicy:
    """Calibrates at monitor epochs, plans greedy migrations at migration epochs."""

    name = "autotiering"

    def __init__(self) -> None:
        self.calibrations: CalibrationFits | None = None
        self.history: np.ndarray | None = None
        self.matrices: CapacityMatrices | None = None
        self.scores: ScoreMatrix | None = None

    def on_monitor(self, ctx: PolicyContext) -> None:
        states = ctx.sorted_states()
        weights = ctx.weights
        # Looked up through the module so the calibration layers stay patchable.
        samples = calibration.collect_samples(
            [v.spec.id for v in states], ctx.probe,
            weights.injected_latencies_us, weights.samples_per_latency,
        )
        self.calibrations = calibration.regress_latency_curve(
            samples, floor=weights.confidence_floor
        )
        mat = cal_capacity_matrices(self.calibrations, states, ctx.tiers)
        normalize_and_gate(mat, ctx.tiers)
        self.scores = cal_score(
            mat,
            self.history,
            ctx.tiers,
            ctx.weights,
            ctx.tier_states,
            states,
            self.calibrations,
            ctx.migration_epoch_seconds,
        )
        self.history = self.scores.history
        self.matrices = mat

    def plan_migrations(self, ctx: PolicyContext, epoch_index: int) -> AssignmentPlan:
        if self.scores is None or self.matrices is None:
            raise RuntimeError("plan requested before any monitor epoch")
        return trigger_migration(
            self.scores,
            self.matrices,
            ctx.tiers,
            ctx.current_assignment(),
            epoch_index,
            pinned=ctx.in_flight,
        )
