"""Prediction-driven tier placement: scoring and greedy assignment.

Per monitor epoch the policy calibrates every VMDK in one batch, turns the
(N,) calibration fits into predicted per-tier resource usage, normalizes
against each tier's usable budget, scores every (tier, vmdk) cell with the
specialty-weighted match plus an aged copy of last epoch's score minus a
migration-cost penalty, and at migration epochs assigns VMDKs tier by
tier, best score first, under running capacity accounting. The policy
keeps the penalty between monitor epochs and computes it again only when
the bytes of the fleet columns it reads change, and reads what no epoch
changes from one ``MonitorWorkspace`` per run. Every per-cell quantity is
a dense (T, N) array (or (T, N, 3) over the p, b, s kinds) over the
fleet's tier and VMDK rows; a cell that cannot host its VMDK scores -inf.

Every input but the policy weights is read from the run's ``Fleet``: its
roster's VMDK rows (id order) are the VMDK axis of the fits, matrices,
score and plans, which carry no VMDK ids of their own, and its tier rows
their tier axis. The roster's tier columns (budget, base latency, match
mask, kind-weight total, migration weight) and the fleet's spare MB/s are
every tier number, and the fleet's ``dest_row`` marks the VMDKs whose
in-flight migration is committed.
``pack`` is the one greedy packer: it seats those VMDKs on their
destination, takes each tier's ranked fleet rows and places them tier by
tier with ``first_fit``, a scan that commits whole runs of fits and
misses with numpy and runs a scalar loop only where they alternate. This
policy ranks each tier's row with one stable ``np.argsort``; the baselines
rank VMDKs by their metric and put 0.0 in the usage columns they do not
check. An exact per-epoch profit maximizer (a HiGHS binary program) is the
oracle for the greedy round; it and ``epoch_profit`` share one per-(tier,
vmdk) profit table, and both take assignments as (N,) tier rows.

Every planner returns an ``AssignmentPlan`` in fleet rows: each VMDK's
target tier row, and the moves as fleet rows in id order with their
source tier rows; each move's destination is read from the target. A plan
records where each VMDK goes, not the order it was placed in. Its checks
run on those arrays and refuse moves out of id order. The target and
planned usage keyed by VMDK and tier id (``target``, ``planned_usage``)
are built only when something reads them, and then kept.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Mapping

import numpy as np

from . import calibration
from .calibration import SampleProbe, estimate_avg_lat, latency_grids
from .model import (
    CalibrationFits,
    CapacityMatrices,
    Fleet,
    PolicyWeights,
    ResourceVector,
    TierSpec,
)

@dataclass(frozen=True, eq=False)
class AssignmentPlan:
    """A total assignment for one migration epoch, held in fleet rows.

    ``ids`` and ``tier_ids`` are the fleet's VMDK ids and tier ids; every
    other field follows the fleet's rows and indexes them. ``target_row`` is
    each VMDK's tier row. The moves are the aligned ``move_rows`` (fleet
    rows, strictly increasing, so at most one per VMDK; the engine starts
    them in that order) and ``move_from`` (tier rows); ``move_to`` reads
    their tier rows from ``target_row``.
    VMDKs force-kept on a tier whose remaining capacity could not absorb
    them are in ``overloaded_rows``. ``used`` is the (T, 3) usage the
    planner accounted against each tier's budget (only the kinds the policy
    checks; overloaded VMDKs are not counted).

    ``target`` and ``planned_usage`` are the target and the usage keyed by
    id, in id order, built on first access and kept.
    """

    epoch_index: int
    ids: tuple[str, ...]
    tier_ids: np.ndarray
    target_row: np.ndarray
    move_rows: np.ndarray
    move_from: np.ndarray
    overloaded_rows: np.ndarray
    used: np.ndarray

    def __post_init__(self) -> None:
        if (self.move_from == self.move_to).any():
            raise ValueError("migration list may only contain actual moves")
        if (np.diff(self.move_rows) <= 0).any():
            raise ValueError("migration list must name each VMDK once, in fleet-row order")

    @property
    def move_to(self) -> np.ndarray:
        """Each move's destination tier row, aligned with ``move_rows``."""
        return self.target_row[self.move_rows]

    @cached_property
    def target(self) -> dict[str, int]:
        """VMDK id -> tier id, in id order."""
        return dict(zip(self.ids, self.tier_ids[self.target_row].tolist()))

    @cached_property
    def planned_usage(self) -> dict[int, ResourceVector]:
        """Tier id -> planned usage, in tier order."""
        return {t: ResourceVector(*u) for t, u in zip(self.tier_ids.tolist(), self.used.tolist())}


class MonitorWorkspace:
    """A fleet's (3, T, N) and (T, N) arrays that no monitor epoch changes; layers return copies.

    ``cap`` is 0.0 but for the storage kind, each VMDK's size (or ``storage``);
    ``grids`` are the ``latency_grids`` of the tier rows whose bytes are ``grid_key``.
    """

    def __init__(self, fleet: Fleet, storage: np.ndarray | None = None) -> None:
        roster = fleet.roster
        shape = (3, len(roster.tiers), len(roster.ids))
        self.grid_key, self.grids = None, None
        self.cap = np.zeros(shape)
        self.cap[2] = roster.size_gb if storage is None else storage
        self.budget = np.repeat(roster.budget.T[:, :, None], shape[2], axis=2)
        self.positive = self.budget > 0
        self.storage_feasible = self.cap[2] <= self.budget[2]
        self.storage_ratio = np.divide(self.cap[2], self.budget[2], out=np.zeros(shape[1:]),
                                       where=self.positive[2] & self.storage_feasible)
        self.match_mask = np.repeat(roster.match_mask.T[:, :, None], shape[2], axis=2)
        self.kind_weight_total = np.repeat(roster.kind_weight_total[:, None], shape[2], axis=1)


def cal_capacity_matrices(
    fits: CalibrationFits, fleet: Fleet, workspace: MonitorWorkspace | None = None
) -> np.ndarray:
    """(T, N, 3) predicted absolute p, b, s usage of every VMDK on every tier.

    Throughput is the latency-implied ceiling 10^6/latency, additionally
    capped at the VMDK's current demand (an idle VMDK must not look like a
    heavy consumer); bandwidth follows from throughput and mean I/O size;
    storage is the VMDK size. The rows of ``fits`` must follow the fleet's.
    """
    ws, key = workspace or MonitorWorkspace(fleet), fleet.tier_row.tobytes()
    if key != ws.grid_key:  # ``latency_grids`` change only when a move lands
        ws.grids, ws.grid_key = latency_grids(fleet.tier_row, fleet.roster.base_latency_us), key
    lat = estimate_avg_lat(fits, fleet.tier_row, fleet.roster.base_latency_us, ws.grids)
    cap = ws.cap.copy()
    np.divide(1e6, lat, out=cap[0], where=lat > 0)
    np.minimum(cap[0], fleet.demand[0], out=cap[0])
    np.multiply(cap[0], fleet.demand[2], out=cap[1])
    cap[1] /= 1e6
    return cap.transpose(1, 2, 0)


def normalize_and_gate(
    cap: np.ndarray, fleet: Fleet, workspace: MonitorWorkspace | None = None
) -> CapacityMatrices:
    """The matrices of the (T, N, 3) usage ``cap``: per-cell feasibility and budget ratios.

    A cell is infeasible when any predicted component exceeds the tier's
    usable budget (``fleet.roster.budget``); its ratios are zeroed so
    downstream scores ignore it. The axes of ``cap`` must follow the
    fleet's tier and VMDK rows, and its storage kind the ``workspace``'s.
    """
    ws = workspace or MonitorWorkspace(fleet, cap[..., 2])
    kinds, ratio = cap.transpose(2, 0, 1), np.zeros(ws.cap.shape)
    feasible = (kinds[0] <= ws.budget[0]) & (kinds[1] <= ws.budget[1]) & ws.storage_feasible
    np.divide(kinds[:2], ws.budget[:2], out=ratio[:2], where=ws.positive[:2] & feasible)
    np.copyto(ratio[2], ws.storage_ratio, where=feasible)
    return CapacityMatrices(cap, ratio.transpose(1, 2, 0), feasible)


def orthogonal_match_score(
    fleet: Fleet,
    ratios: np.ndarray,
    sla_weight: np.ndarray,
    confidence: np.ndarray,
    workspace: MonitorWorkspace | None = None,
) -> np.ndarray:
    """(T, N) specialty-masked, weight-scaled inner products of tier and VMDK vectors.

    ``ratios`` is (T, N, 3) with its tier axis in the fleet's tier rows;
    ``sla_weight`` and ``confidence`` are per VMDK. Each tier's kinds are
    weighted by the roster's ``match_mask`` and the sum normalized by its
    ``kind_weight_total`` (from the ``workspace``), which TierSpec keeps
    finite and positive. A layer called without a workspace builds one.
    """
    ws = workspace or MonitorWorkspace(fleet)
    mask, kinds = ws.match_mask, ratios.transpose(2, 0, 1)
    numerator = mask[0] * kinds[0] + mask[1] * kinds[1] + mask[2] * kinds[2]
    return numerator * sla_weight * confidence / ws.kind_weight_total


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
    read_side = fleet.spare_mbps[0, source_row] + fleet.measured_mbps[0]
    speed = np.minimum(read_side, fleet.spare_mbps[1, :, None])
    with np.errstate(divide="ignore"):
        seconds = fleet.roster.size_gb * 1000.0 / speed
    seconds[source_row, np.arange(len(source_row))] = 0.0
    return seconds


def migration_penalty(fleet: Fleet, migration_epoch_seconds: float) -> np.ndarray:
    """(T, N) weighted migration cost of moving each VMDK to each tier row.

    Migration seconds are divided by the migration-epoch duration so the
    penalty is dimensionless, then scaled by the target tier's
    ``mig_weight``. It reads from the fleet only what ``mig_cost_seconds``
    reads: ``tier_row``, ``spare_mbps``, ``measured_mbps[0]`` and the
    roster's ``size_gb``, besides the roster's ``mig_weight``.
    """
    cost = mig_cost_seconds(fleet) / migration_epoch_seconds
    # An impossible move (infinite cost) blocks the cell this epoch no
    # matter how small the per-tier cost weight is.
    penalty = np.full(cost.shape, math.inf)
    np.multiply(fleet.roster.mig_weight[:, None], cost, out=penalty, where=np.isfinite(cost))
    return penalty


def cal_score(
    mat: CapacityMatrices,
    previous: np.ndarray | None,
    weights: PolicyWeights,
    fleet: Fleet,
    fits: CalibrationFits,
    penalty: np.ndarray,
    workspace: MonitorWorkspace | None = None,
) -> np.ndarray:
    """(T, N) convolutional score: aged last score + match - migration penalty.

    ``penalty`` is this epoch's (T, N) ``migration_penalty``. ``previous``
    is last epoch's score, None before the first epoch. Infeasible cells
    score -inf. A previous cell that is not finite (infeasible, or blocked
    by an infinite migration cost, which only blocks its own epoch) ages as
    0.0. ``workspace`` goes to ``orthogonal_match_score``.
    """
    current = orthogonal_match_score(fleet, mat.ratio, fleet.roster.sla_weight, fits.confidence,
                                     workspace)
    history = 0.0 if previous is None else np.where(np.isfinite(previous), previous, 0.0)
    return np.where(mat.feasible, weights.aging_factor * history + current - penalty, -math.inf)


FIRST_FIT_WINDOW = 64


def first_fit(rows: np.ndarray, left: np.ndarray, used: np.ndarray) -> np.ndarray:
    """Which of the (n, 3) usage ``rows`` fit, in order, into ``left``.

    Exactly the scalar loop ``for r in rows: if not any(r > left): left -= r;
    used += r``, bit for bit and NaN included, with ``left`` and ``used``
    (3,) arrays written in place. The scan runs in array passes over a
    window of rows, the first over the whole scan. One sequential
    ``np.subtract.accumulate`` (and ``np.add.accumulate`` for ``used``)
    commits the fit run the window opens with, if any, up to the first row
    that misses what the rows before it left; one comparison with the
    ``left`` it leaves then skips the miss run that follows, up to the next
    row that fits. So a scan that fits whole takes one pass, and the first
    pass commits the whole fit run the scan opens with. The next window is
    twice what the pass committed, so a pass that commits its whole window
    doubles it. A scan shorter than ``FIRST_FIT_WINDOW``, or a pass that
    commits fewer rows than that, runs the scalar loop instead, in windows
    of ``FIRST_FIT_WINDOW`` rows, until one comes out all fits or all
    misses, and the array passes start again from that many rows; so a
    scan that keeps switching costs little more than the scalar loop.
    """
    fit = np.zeros(len(rows), dtype=bool)
    start, width, scalar = 0, len(rows), len(rows) < FIRST_FIT_WINDOW
    while start < len(rows):
        if not scalar:
            window = rows[start:start + width]
            (l0, l1, l2), (p, b, s) = left.tolist(), window[0].tolist()
            k = 0  # the length of the fit run the pass opens with
            if not (p > l0 or b > l1 or s > l2):
                after = np.subtract.accumulate(np.concatenate((left[None], window)))
                # The first True of the flat (rows, 3) comparison is in the first row that misses.
                over = (window > after[:-1]).ravel()
                k = int(over.argmax())
                k = k // 3 if over[k] else len(window)
                fit[start:start + k], left[:] = True, after[k]
                used[:] = np.add.accumulate(np.concatenate((used[None], window[:k])))[-1]
                l0, l1, l2 = left.tolist()
            step = k
            if k < len(window):
                rest = window[k:]
                miss = (rest[:, 0] > l0) | (rest[:, 1] > l1) | (rest[:, 2] > l2)
                j = int(miss.argmin())
                step += j if not miss[j] else len(miss)
            start, width, scalar = start + step, 2 * step, step < FIRST_FIT_WINDOW
            continue
        window = rows[start:start + FIRST_FIT_WINDOW]
        (l0, l1, l2), (u0, u1, u2) = left.tolist(), used.tolist()
        flags = []
        for p, b, s in window.tolist():
            if p > l0 or b > l1 or s > l2:
                flags.append(False)
            else:
                l0, l1, l2, u0, u1, u2 = l0 - p, l1 - b, l2 - s, u0 + p, u1 + b, u2 + s
                flags.append(True)
        fit[start:start + len(window)], left[:], used[:] = flags, (l0, l1, l2), (u0, u1, u2)
        start += len(window)
        if len(set(flags)) == 1:
            width, scalar = FIRST_FIT_WINDOW, False
    return fit


def pack(
    fleet: Fleet,
    usage: np.ndarray,
    ranked: Iterable[tuple[int, np.ndarray]],
    epoch_index: int,
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
    in order until one absorbs it) places every VMDK as this scan does. The
    plan's moves are the VMDKs not in flight whose target is not their
    current tier, in id order.
    """
    roster = fleet.roster
    left = roster.budget.copy()
    used = np.zeros((len(left), 3))
    where = fleet.dest_row.copy()
    overloaded = [np.zeros(0, dtype=np.intp)]
    # Each scan gathers its usage rows with ``take``: the same rows as
    # ``usage[i, rows]``, several times faster on (n, 3) rows.

    def hold(rows: np.ndarray, at: np.ndarray) -> None:
        """Put each row on tier row ``at``, in order, overloaded where it does not fit."""
        if not len(rows):
            return
        for i in np.flatnonzero(np.bincount(at, minlength=len(left))).tolist():
            group = rows[at == i]
            overloaded.append(group[~first_fit(usage[i].take(group, axis=0), left[i], used[i])])

    pins = np.flatnonzero(where >= 0)
    hold(pins, where[pins])
    for i, rows in ranked:
        rows = rows[where[rows] < 0]
        where[rows[first_fit(usage[i].take(rows, axis=0), left[i], used[i])]] = i
    rest = np.flatnonzero(where < 0)
    hold(rest, fleet.tier_row[rest])

    where[rest] = fleet.tier_row[rest]
    moves = np.flatnonzero((where != fleet.tier_row) & (fleet.dest_row < 0))
    # A run keeps every plan, so a plan's rows take half the fleet's width.
    return AssignmentPlan(
        epoch_index=epoch_index,
        ids=roster.ids,
        tier_ids=roster.tier_ids,
        target_row=where.astype(np.int32),
        move_rows=moves.astype(np.int32),
        move_from=fleet.tier_row[moves].astype(np.int32),
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

    The axes of ``score`` and ``mat`` must follow the fleet's rows. One
    stable ``np.argsort`` ranks each tier's row, so score ties break by fleet
    row, which is VMDK id. A -inf or NaN cell (infeasible, or a migration
    that cannot run this epoch) is never a candidate. All three budget kinds
    are checked; see ``pack`` for in-flight VMDKs and the stay-put fallback.
    """
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
    tiers' spare bandwidth are fixed. A move that cannot run this epoch
    (infinite cost) is -inf at any beta, as ``cal_score`` blocks it. The
    matrices' axes must follow the fleet's tier and VMDK rows.
    """
    roster = fleet.roster
    alpha, ratio = weights.alpha, mat.ratio
    gain = alpha.p * ratio[..., 0] + alpha.b * ratio[..., 1] + alpha.s * ratio[..., 2]
    cost = mig_cost_seconds(fleet, previous) / migration_epoch_seconds
    finite = np.isfinite(cost)
    profit = roster.sla_weight * (gain - weights.beta * np.where(finite, cost, 0.0))
    return np.where(finite, profit, -math.inf)


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
    """Exact per-epoch profit maximizer over capacity-feasible assignments.

    A binary program over the (tier, VMDK) cells, solved by HiGHS through
    ``scipy.optimize.milp`` (the ``oracle`` extra; runs need numpy only):
    maximize ``profit_contributions``, one tier per VMDK, three budgets per
    tier over ``mat.cap``; a cell of non-finite profit, or that overruns its
    tier alone, is fixed to 0. The optimum must also pass ``first_fit`` per
    tier in id order, which gives its ``used``; a tier it overruns within the
    solver's tolerance is cut off and the program solved again. Equal optima
    are not tie-broken. The plan moves each VMDK whose row differs from
    ``previous``.
    """
    try:
        from scipy.optimize import Bounds, LinearConstraint, milp
    except ImportError as exc:
        raise ImportError("the oracle needs scipy: pip install 'autotier[oracle]'") from exc

    roster = fleet.roster
    contrib = profit_contributions(mat, weights, previous, fleet, migration_epoch_seconds)
    n_tiers, n = contrib.shape
    allowed = np.isfinite(contrib) & mat.feasible
    cost, bounds = np.where(allowed, -contrib, 0.0).ravel(), Bounds(0.0, allowed.ravel() * 1.0)
    # Cell (i, j) is variable i * n + j; budget row (i, k) reads tier i's cells.
    cap = np.where(allowed[..., None], mat.cap, 0.0)
    budget_rows = np.einsum("ab,bjk->akbj", np.eye(n_tiers), cap).reshape(3 * n_tiers, -1)
    constraints = [
        LinearConstraint(np.tile(np.eye(n), n_tiers), 1.0, 1.0),
        LinearConstraint(budget_rows, -np.inf, roster.budget.ravel()),
    ]
    while True:
        result = milp(cost, integrality=np.ones(cost.size), bounds=bounds,
                      constraints=constraints, options={"mip_rel_gap": 0.0})
        if not result.success:
            raise ValueError("no capacity-feasible assignment exists")
        target = result.x.reshape(n_tiers, n).argmax(axis=0)
        used = np.zeros((n_tiers, 3))
        for i in range(n_tiers):
            rows = np.flatnonzero(target == i)
            fit = first_fit(mat.cap[i, rows], roster.budget[i].copy(), used[i])
            if not fit.all():
                # These rows up to the first miss overrun tier i, and so do any more
                # (what is left only shrinks), though not by the solver's tolerance.
                k = int(fit.argmin())
                cut = np.isin(np.arange(cost.size), i * n + rows[:k + 1]) * 1.0
                constraints.append(LinearConstraint(cut, -np.inf, k))
                break
        else:
            break
    moves = np.flatnonzero(target != previous)
    return AssignmentPlan(
        epoch_index=epoch_index,
        ids=roster.ids,
        tier_ids=roster.tier_ids,
        target_row=target,
        move_rows=moves,
        move_from=previous[moves],
        overloaded_rows=np.zeros(0, dtype=np.intp),
        used=used,
    )


@dataclass
class PolicyContext:
    """Everything a policy may look at when monitoring or planning.

    ``probe`` is the one calibration sampler: given injected latencies and a
    sample count it returns the dense (N, L, S) sample grid of every VMDK in
    fleet row order (see ``calibration.CalibrationSamples``), drawn from the
    run's seeded generator against each VMDK's current device. A monitor
    epoch probes once and fits the grid into (N,) ``CalibrationFits``.

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
    """Calibrates at monitor epochs, plans greedy migrations at migration epochs.

    The migration penalty changes only when a move is served or lands, so
    the policy keeps it with the bytes of what it read from the fleet
    (``tier_row``, ``spare_mbps`` and ``measured_mbps[0]``) and computes it
    again only when they differ. The rest of what it reads, the roster's
    ``size_gb`` and ``mig_weight`` and the context's migration-epoch
    seconds, is fixed for a policy, since ``make_policy`` builds one policy
    per run.
    """

    def __init__(self) -> None:
        self.matrices: CapacityMatrices | None = None
        self.score: np.ndarray | None = None  # last monitor epoch's (T, N) score, set with matrices
        self.penalty: np.ndarray | None = None  # the (T, N) migration penalty, kept with its key
        self.penalty_key: tuple[bytes, ...] = ()
        self.workspace: MonitorWorkspace | None = None  # built at the first monitor epoch

    def on_monitor(self, ctx: PolicyContext) -> None:
        fleet = ctx.fleet
        weights = ctx.weights
        ws = self.workspace = self.workspace or MonitorWorkspace(fleet)
        # Looked up through the module so the calibration layers stay patchable.
        samples = calibration.collect_samples(
            fleet.roster.ids, ctx.probe, weights.injected_latencies_us,
            weights.samples_per_latency,
        )
        fits = calibration.regress_latency_curve(samples, floor=weights.confidence_floor)
        mat = normalize_and_gate(cal_capacity_matrices(fits, fleet, ws), fleet, ws)
        key = (fleet.tier_row.tobytes(), fleet.spare_mbps.tobytes(),
               fleet.measured_mbps[0].tobytes())
        if key != self.penalty_key:
            self.penalty = migration_penalty(fleet, ctx.migration_epoch_seconds)
            self.penalty_key = key
        self.score = cal_score(mat, self.score, weights, fleet, fits, self.penalty, ws)
        self.matrices = mat

    def plan_migrations(self, ctx: PolicyContext, epoch_index: int) -> AssignmentPlan:
        if self.matrices is None:
            raise RuntimeError("plan requested before any monitor epoch")
        return trigger_migration(self.score, self.matrices, ctx.fleet, epoch_index)
