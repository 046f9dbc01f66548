"""Shared builders and random-instance generators for the test suite."""

from __future__ import annotations

import json
import random
from dataclasses import astuple, dataclass, fields
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st

# Local runs draw new examples each time; ``--hypothesis-profile=ci`` draws
# the same ones on every run, so a failure, or a mutant's kill, repeats.
# ``mutants`` is ``ci`` without shrinking: tests/mutants.py needs only to see
# a named test fail, not its smallest failing example.
settings.register_profile("autotier", deadline=None)
settings.register_profile("ci", deadline=None, derandomize=True, database=None)
settings.register_profile(
    "mutants", settings.get_profile("ci"), phases=[p for p in Phase if p is not Phase.shrink]
)
settings.load_profile("autotier")

from autotier.calibration import _mean_and_cv
from autotier.engine import OVERLOADED, STALLED, STARTED
from autotier.model import (
    CalibrationFits,
    Fleet,
    PolicyWeights,
    ResourceVector,
    Roster,
    Scenario,
    SimulationConfig,
    TierSpec,
    VmdkSpec,
    VmdkTable,
    WorkloadPhase,
)
from autotier.scenario import bundled_scenario_text


def make_tier(
    tier_id: int = 1,
    base_latency_us: float = 100.0,
    capacity: ResourceVector = ResourceVector(100_000, 1000.0, 500.0),
    read_iops: float = 100_000,
    write_iops: float = 50_000,
    read_mbps: float = 1000.0,
    write_mbps: float = 800.0,
    specialty: ResourceVector = ResourceVector(1, 1, 1),
    kind_weights: ResourceVector = ResourceVector(1, 1, 1),
    mig_weight: float = 0.0,
    caps: ResourceVector = ResourceVector(1, 1, 1),
    name: str | None = None,
) -> TierSpec:
    return TierSpec(
        id=tier_id,
        name=name or f"tier{tier_id}",
        base_latency_us=base_latency_us,
        capacity=capacity,
        read_throughput_cap=read_iops,
        write_throughput_cap=write_iops,
        read_bandwidth_cap=read_mbps,
        write_bandwidth_cap=write_mbps,
        specialty=specialty,
        kind_weights=kind_weights,
        mig_weight=mig_weight,
        caps=caps,
    )


def make_vmdk(
    vmdk_id: str = "v1",
    size_gb: float = 50.0,
    sla_weight: float = 1.0,
    initial_tier: int = 1,
    truth_slope: float = 0.1,
    truth_intercept_us: float = 20.0,
    demand_iops: float = 10_000,
    avg_io_size_bytes: float = 4096,
    read_fraction: float = 1.0,
    phases: tuple[WorkloadPhase, ...] | None = None,
) -> VmdkSpec:
    if phases is None:
        phases = (WorkloadPhase(0, demand_iops, avg_io_size_bytes, read_fraction),)
    return VmdkSpec(
        id=vmdk_id,
        vm_id=f"vm-{vmdk_id}",
        size_gb=size_gb,
        sla_weight=sla_weight,
        initial_tier=initial_tier,
        truth_slope=truth_slope,
        truth_intercept_us=truth_intercept_us,
        demand_profile=phases,
    )


@dataclass
class VmdkState:
    """One VMDK as a run leaves it: placement, active demand, last measurements."""

    spec: VmdkSpec
    current_tier: int
    demand_iops: float = 0.0
    avg_io_size_bytes: float = 4096.0
    read_fraction: float = 1.0
    measured_iops: float = 0.0
    measured_read_mbps: float = 0.0
    measured_write_mbps: float = 0.0
    measured_latency_us: float = 0.0


def fleet_states(fleet: Fleet, specs) -> list[VmdkState]:
    """One ``VmdkState`` per fleet row, in row order, with the spec of its id among ``specs``."""
    by_id = {spec.id: spec for spec in specs}
    tier_ids = fleet.roster.tier_ids.tolist()
    columns = zip(*(state_column(fleet, name).tolist() for name in (
        "demand_iops", "avg_io_size_bytes", "read_fraction", "measured_iops",
        "measured_read_mbps", "measured_write_mbps", "measured_latency_us",
    )))
    return [
        VmdkState(by_id[vmdk_id], tier_ids[t], *c)
        for vmdk_id, t, c in zip(fleet.roster.ids, fleet.tier_row.tolist(), columns)
    ]


def final_states(result) -> dict[str, VmdkState]:
    """VMDK id -> ``VmdkState`` of each VMDK as ``result``'s run left it, in id order."""
    return {s.spec.id: s for s in fleet_states(result.fleet, result.scenario.vmdks)}


def compute_cv(samples) -> np.ndarray:
    """Coefficient of variation along the last axis, as calibration computes it."""
    return _mean_and_cv(np.asarray(samples, dtype=float))[1]


def make_state(spec: VmdkSpec, tier: int | None = None, **measured) -> VmdkState:
    """A ``VmdkState`` in ``spec``'s first phase, on ``tier`` or else its initial tier."""
    phase = spec.demand_profile[0]
    state = VmdkState(
        spec, spec.initial_tier if tier is None else tier,
        phase.demand_iops, phase.avg_io_size_bytes, phase.read_fraction,
    )
    for key, value in measured.items():
        setattr(state, key, value)
    return state


# Each ``VmdkState`` field a fleet holds: its ``Fleet`` array and, in a 2-D
# block, its row there.
STATE_COLUMNS = {
    "demand_iops": ("demand", 0),
    "read_fraction": ("demand", 1),
    "avg_io_size_bytes": ("demand", 2),
    "measured_iops": ("measured_iops",),
    "measured_latency_us": ("measured_latency_us",),
    "measured_read_mbps": ("measured_mbps", 0),
    "measured_write_mbps": ("measured_mbps", 1),
}


def state_column(fleet: Fleet, name: str) -> np.ndarray:
    """The (N,) fleet column, a view, that holds ``VmdkState`` field ``name``."""
    array, *row = STATE_COLUMNS[name]
    return getattr(fleet, array)[tuple(row)]


def phase_at(spec: VmdkSpec, epoch: int) -> WorkloadPhase:
    """The phase of ``spec`` active at ``epoch``: the last one started by then."""
    return [phase for phase in spec.demand_profile if phase.start_epoch <= epoch][-1]


def row_of_tier(fleet: Fleet, tier_id: int) -> int:
    """The tier row of tier ``tier_id``."""
    return fleet.roster.tier_ids.tolist().index(tier_id)


def fleet_of(states, tiers) -> Fleet:
    """``Fleet.of`` the states' specs' roster, each row then set to its state as it stands.

    A case can so start VMDKs off their initial tier, or with measurements.
    """
    fleet = Fleet.of(Roster.of(VmdkTable.of(state.spec for state in states), tiers))
    for state in states:
        j = fleet.roster.row[state.spec.id]
        fleet.tier_row[j] = row_of_tier(fleet, state.current_tier)
        for name in STATE_COLUMNS:
            state_column(fleet, name)[j] = getattr(state, name)
    return fleet


def make_fits(rows) -> CalibrationFits:
    """Fits from (m, b, confidence) rows, one per VMDK in fleet row order, mean CV 0."""
    m, b, confidence = np.array(list(rows), dtype=float).reshape(-1, 3).T.copy()
    return CalibrationFits(m=m, b=b, confidence=confidence, mean_cv=np.zeros(len(m)))


def pin(fleet: Fleet, pinned) -> Fleet:
    """``fleet`` with ``dest_row`` set from ``pinned``, VMDK id -> destination tier id.

    This is what the engine writes when orders start, so a packer that reads
    the fleet and a reference that takes the mapping see the same case.
    """
    for vmdk_id, tier_id in pinned.items():
        fleet.dest_row[fleet.roster.row[vmdk_id]] = row_of_tier(fleet, tier_id)
    return fleet


def tier_rows(fleet: Fleet, assignment) -> np.ndarray:
    """(N,) tier rows of ``assignment``, VMDK id -> tier id, in the fleet's row order."""
    return np.array([row_of_tier(fleet, assignment[v]) for v in fleet.roster.ids], dtype=np.intp)


def hosted_usage(mat, fleet: Fleet, target, tier_id: int) -> tuple[float, float, float]:
    """(p, b, s) sum of the capacity cells of the VMDKs ``target`` puts on tier ``tier_id``.

    Cells are added in ``target``'s order, from 0.0; tier id t is row t - 1.
    """
    total = (0.0, 0.0, 0.0)
    for vmdk_id, t in target.items():
        if t == tier_id:
            cell = mat.cap[t - 1, fleet.roster.row[vmdk_id]].tolist()
            total = tuple(a + b for a, b in zip(total, cell))
    return total


def fits_within(usage, budget: ResourceVector, slack: float = 0.0) -> bool:
    """Component-wise ``usage <= budget``, with an absolute slack per component."""
    return all(u <= b + slack for u, b in zip(usage, astuple(budget)))


@dataclass
class MigrationOrder:
    """One order of a ``MigrationLog`` keyed by VMDK and tier id, as a record."""

    vmdk_id: str
    from_tier: int
    to_tier: int
    bytes_total: float
    started_epoch: int
    bytes_moved: float = 0.0
    speed_mbps: float = 0.0
    stalled: bool = False

    @property
    def done(self) -> bool:
        return self.bytes_moved >= self.bytes_total


def log_orders(log) -> list[MigrationOrder]:
    """One ``MigrationOrder`` per order of ``log``, in log order, read from its columns."""
    columns = (getattr(log, f.name).tolist() for f in fields(MigrationOrder)[1:])
    ids = map(log.ids.__getitem__, log.row.tolist())
    return [MigrationOrder(*order) for order in zip(ids, *columns)]


@dataclass
class TierEpochMetrics:
    """The five ``TIER_FIGURES`` of one tier, or of the fleet, in one epoch, as a record."""

    read_iops: float = 0.0
    write_iops: float = 0.0
    read_mbps: float = 0.0
    write_mbps: float = 0.0
    mean_latency_us: float = 0.0


@dataclass
class EpochMetrics:
    """One epoch of a run's record keyed by tier and VMDK id, as a record."""

    epoch: int
    per_tier: dict[int, TierEpochMetrics]
    total: TierEpochMetrics
    migration_bytes: float = 0.0
    migration_count: int = 0
    migrated_vmdks: tuple[str, ...] = ()
    overloaded: tuple[str, ...] = ()
    stalled: tuple[str, ...] = ()


def epoch_records(result) -> list[EpochMetrics]:
    """One ``EpochMetrics`` per epoch of ``result``, read from its record's three arrays.

    Each tuple of ids names the rows with that flag set, in row order.
    """
    ids = result.scenario.roster.ids
    tier_ids = result.scenario.roster.tier_ids.tolist()
    named = lambda flags, bit: tuple(map(ids.__getitem__, np.flatnonzero(flags & bit).tolist()))
    records = []
    for epoch, ((*tiers, total), moved, flags) in enumerate(
        zip(result.epochs.tolist(), result.migration_bytes.tolist(), result.flags)
    ):
        started = named(flags, STARTED)
        records.append(EpochMetrics(
            epoch, {t: TierEpochMetrics(*figures) for t, figures in zip(tier_ids, tiers)},
            TierEpochMetrics(*total), moved, len(started), started,
            named(flags, OVERLOADED), named(flags, STALLED),
        ))
    return records


class ReferencePlan(NamedTuple):
    """A plan keyed by VMDK and tier id, with the fields ``plan_record`` reads."""

    epoch_index: int
    target: dict[str, int]
    migrations: tuple[tuple[str, int, int], ...]
    overloaded: frozenset[str]
    planned_usage: dict[int, ResourceVector]


def keyed_plan(plan) -> ReferencePlan:
    """An ``AssignmentPlan`` keyed by VMDK and tier id, as ``reference_pack`` gives one.

    ``target`` lists the VMDKs in id order, and ``migrations`` holds (VMDK
    id, from tier id, to tier id) per move, in id order.
    """
    ids, tier_ids = plan.ids, plan.tier_ids
    return ReferencePlan(
        epoch_index=plan.epoch_index,
        target=plan.target,
        migrations=tuple(zip(
            map(ids.__getitem__, plan.move_rows.tolist()),
            tier_ids[plan.move_from].tolist(),
            tier_ids[plan.move_to].tolist(),
        )),
        overloaded=frozenset(map(ids.__getitem__, plan.overloaded_rows.tolist())),
        planned_usage=plan.planned_usage,
    )


def reference_pack(tiers, vmdk_ids, usage, kinds, candidates, current_assignment, epoch_index,
                   pinned=None):
    """The scalar packer every plan must match, as it was before the tier-by-tier scan.

    One ``absorb`` per (tier index, row) candidate in order, checking and
    accounting only the kinds named in ``kinds``; placement is tracked by
    string membership in ``target``. Returns a ``ReferencePlan`` whose
    target and migrations are in id order.
    """
    checked = ["pbs".index(k) for k in kinds]
    row = {t.id: i for i, t in enumerate(tiers)}
    col = {v: j for j, v in enumerate(vmdk_ids)}
    remaining = [[b.p, b.b, b.s] for b in (t.max_usable() for t in tiers)]
    used = [[0.0, 0.0, 0.0] for _ in tiers]
    target = {}
    overloaded = set()

    def absorb(i, j):
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
    target = dict(sorted(target.items()))
    migrations = tuple(
        (v, effective_current[v], t) for v, t in target.items() if t != effective_current[v]
    )
    return ReferencePlan(
        epoch_index=epoch_index,
        target=target,
        migrations=migrations,
        overloaded=frozenset(overloaded),
        planned_usage={t.id: ResourceVector(*u) for t, u in zip(tiers, used)},
    )


def random_scenario(rng: np.random.Generator, epochs: int = 6) -> Scenario:
    """A random but internally consistent scenario for property testing.

    Tier budgets leave slack (total VMDK storage under ~60% of total usable
    storage) so plans without overload flags are the norm.
    """
    n_tiers = int(rng.integers(2, 5))
    n_vmdks = int(rng.integers(5, 31))
    latencies = np.sort(rng.uniform(20.0, 900.0, size=n_tiers))
    # keep latencies strictly increasing
    latencies += np.arange(n_tiers) * 1.0

    tiers = []
    for i in range(n_tiers):
        read_iops = float(rng.uniform(20_000, 300_000))
        write_iops = float(read_iops * rng.uniform(0.1, 1.0))
        read_bw = float(rng.uniform(300, 2000))
        write_bw = float(read_bw * rng.uniform(0.4, 1.0))
        tiers.append(
            TierSpec(
                id=i + 1,
                name=f"t{i + 1}",
                base_latency_us=float(latencies[i]),
                capacity=ResourceVector(
                    p=(read_iops + write_iops) * float(rng.uniform(1.0, 1.4)),
                    b=(read_bw + write_bw) * float(rng.uniform(0.8, 1.2)),
                    s=float(rng.uniform(300, 3000)),
                ),
                read_throughput_cap=read_iops,
                write_throughput_cap=write_iops,
                read_bandwidth_cap=read_bw,
                write_bandwidth_cap=write_bw,
                specialty=ResourceVector(*(float(x) for x in rng.integers(0, 2, size=3))),
                kind_weights=ResourceVector(*(float(x) for x in rng.uniform(0.1, 2.0, size=3))),
                mig_weight=float(rng.uniform(0.0, 0.3)),
                caps=ResourceVector(*(float(x) for x in rng.uniform(0.5, 1.0, size=3))),
            )
        )

    total_usable_gb = sum(t.max_usable().s for t in tiers)
    size_budget = 0.6 * total_usable_gb
    vmdks = []
    for j in range(n_vmdks):
        size = float(rng.uniform(5.0, max(6.0, size_budget / n_vmdks)))
        phases = [
            WorkloadPhase(
                0,
                float(rng.uniform(0, 120_000)),
                float(rng.uniform(512, 65_536)),
                float(rng.uniform(0.0, 1.0)),
            )
        ]
        if rng.uniform() < 0.4:
            phases.append(
                WorkloadPhase(
                    int(rng.integers(1, epochs + 2)),
                    float(rng.uniform(0, 120_000)),
                    float(rng.uniform(512, 65_536)),
                    float(rng.uniform(0.0, 1.0)),
                )
            )
        vmdks.append(
            VmdkSpec(
                id=f"v{j:02d}",
                vm_id=f"vm{j:02d}",
                size_gb=size,
                sla_weight=float(rng.uniform(0.2, 3.0)),
                initial_tier=int(rng.integers(1, n_tiers + 1)),
                truth_slope=float(rng.uniform(0.0, 1.5)),
                truth_intercept_us=float(rng.uniform(2.0, 300.0)),
                demand_profile=tuple(phases),
            )
        )

    monitor = 1
    migration = int(rng.integers(1, 4))
    weights = PolicyWeights(
        alpha=ResourceVector(*(float(x) for x in rng.uniform(0.0, 2.0, size=3))),
        beta=float(rng.uniform(0.0, 2.0)),
        aging_factor=float(rng.uniform(0.0, 0.9)),
        monitor_epoch=monitor,
        migration_epoch=migration,
        samples_per_latency=3,
    )
    sim = SimulationConfig(
        epochs=epochs,
        epoch_seconds=300.0,
        noise_cv=float(rng.uniform(0.0, 0.1)),
        seed=int(rng.integers(0, 2**31)),
    )
    return Scenario(tiers=tuple(tiers), vmdks=tuple(vmdks), weights=weights, sim=sim)


@st.composite
def scenario_documents(draw) -> dict:
    """A small valid scenario document: 2-4 tiers, 1-12 VMDKs of 1-4 phases, 5-20 epochs.

    Ids are unique and listed in no particular order. The budgets and
    bandwidth caps are tight against the demand, so plans overload tiers and
    migrations stall on a saturated tier. Every phase starts inside the run,
    so with at least 5 epochs each VMDK has a phase that spans two or more.
    Each phase after the first repeats the previous phase's demand on half
    the draws.
    """
    n_tiers = draw(st.integers(2, 4))
    epochs = draw(st.integers(5, 20))
    latency = 0
    tiers = []
    for i in range(n_tiers):
        latency += draw(st.integers(20, 400))
        tiers.append({
            "id": i + 1,
            "name": f"t{i + 1}",
            "baseLatencyUs": float(latency),
            "capacity": {"p": draw(st.integers(1_000, 60_000)),
                         "b": draw(st.integers(20, 600)), "s": draw(st.integers(20, 400))},
            "readThroughputCap": draw(st.integers(2_000, 60_000)),
            "writeThroughputCap": draw(st.integers(1_000, 30_000)),
            "readBandwidthCap": draw(st.integers(20, 600)),
            "writeBandwidthCap": draw(st.integers(10, 400)),
            "specialty": {k: draw(st.integers(0, 1)) for k in "pbs"},
            "kindWeights": {k: draw(st.sampled_from([0.5, 1.0, 2.0])) for k in "pbs"},
            "migWeight": draw(st.sampled_from([0.0, 0.1, 0.3])),
            "caps": {k: draw(st.sampled_from([0.5, 0.9, 1.0])) for k in "pbs"},
        })
    names = draw(st.lists(st.integers(0, 99), min_size=1, max_size=12, unique=True))
    vmdks = []
    for k in names:
        starts = draw(st.lists(st.integers(1, epochs - 1), max_size=3, unique=True))
        phases = []
        for start in [0, *sorted(starts)]:
            if phases and draw(st.booleans()):
                # A phase start that repeats the demand: serving it again
                # would write what the fleet already holds.
                phases.append({**phases[-1], "startEpoch": start})
                continue
            phases.append({
                "startEpoch": start,
                "demandIops": draw(st.sampled_from([0, 500, 4_000, 20_000])),
                "avgIoSizeBytes": draw(st.sampled_from([4096, 16384, 65536])),
                "readFraction": draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
            })
        vmdks.append({
            "id": f"v{k:02d}",
            "vmId": f"vm{k % 4}",
            "sizeGb": float(draw(st.integers(5, 150))),
            "slaWeight": draw(st.sampled_from([0.5, 1.0, 2.0])),
            "initialTier": draw(st.integers(1, n_tiers)),
            "truthSlope": draw(st.sampled_from([0.0, 0.1, 0.5, 1.2])),
            "truthInterceptUs": float(draw(st.integers(5, 300))),
            "demandProfile": phases,
        })
    migration_epoch = draw(st.integers(1, 3))
    return {
        "schemaVersion": 1,
        "tiers": tiers,
        "vmdks": vmdks,
        "policyWeights": {"monitorEpoch": 1, "migrationEpoch": migration_epoch,
                          "samplesPerLatency": 3},
        "simulation": {"epochs": epochs, "epochSeconds": 300.0, "noiseCv": 0.05,
                       "seed": draw(st.integers(0, 2**16))},
    }


def scale_tiers(tiers: list[dict], replicas: int) -> None:
    """Scale each tier object's pools and serve caps by ``replicas``, in place.

    A document whose VMDKs are copied ``replicas`` times is then as loaded as
    the original.
    """
    for tier in tiers:
        tier["capacity"] = {k: v * replicas for k, v in tier["capacity"].items()}
        for key in ("readThroughputCap", "writeThroughputCap", "readBandwidthCap",
                    "writeBandwidthCap"):
            tier[key] *= replicas


def replicated_document(
    name: str, replicas: int, epochs: int, seed: int, churn_period: int = 0,
) -> str:
    """Bundled scenario ``name`` with every VMDK copied ``replicas`` times, as JSON text.

    Each copy's ``id`` and ``vmId`` gain ``-r000``, ``-r001`` and so on, and
    each tier's pools and serve caps scale by ``replicas`` (``scale_tiers``).
    The run takes ``epochs`` epochs at ``seed``. A ``churn_period`` above 0
    gives every VMDK one phase per that many epochs, its first phase's
    demand scaled by a log-normal factor and its read fraction redrawn, both
    drawn from ``random.Random(seed)`` in VMDK and phase order. This is the
    document the benchmark's workloads build, text for text: ``table3-table4``
    x200 with churn every 5 epochs is its ``baseline-churn``.
    """
    doc = json.loads(bundled_scenario_text(name))
    scale_tiers(doc["tiers"], replicas)
    doc["vmdks"] = [
        dict(v, id=f"{v['id']}-r{r:03d}", vmId=f"{v['vmId']}-r{r:03d}")
        for r in range(replicas) for v in doc["vmdks"]
    ]
    doc["simulation"].update(epochs=epochs, seed=seed)
    if churn_period:
        rng = random.Random(seed)
        for v in doc["vmdks"]:
            base = v["demandProfile"][0]
            v["demandProfile"] = [
                {
                    "startEpoch": start,
                    "demandIops": round(base["demandIops"] * rng.lognormvariate(0.0, 1.0), 3),
                    "avgIoSizeBytes": base["avgIoSizeBytes"],
                    "readFraction": round(rng.uniform(0.05, 1.0), 4),
                }
                for start in range(0, max(epochs, 1), churn_period)
            ]
    return json.dumps(doc)


def random_oracle_instance(rng: np.random.Generator, capacity_scale: float = 1.0):
    """A small (<=8 VMDK, 3 tier) instance with its fleet and matrices built.

    The fleet's tiers have random served read and write MB/s taken off their
    spare bandwidth. The last item is the previous assignment: each VMDK's
    current tier row.

    Ranges keep every VMDK individually feasible on every tier with aggregate
    slack, so the greedy's stay-put fallback never has to overload. A
    ``capacity_scale`` below 1 shrinks every tier's capacity after the same
    draws, which makes budgets bind and, small enough, leaves no assignment.
    """
    from autotier.policy import cal_capacity_matrices, normalize_and_gate

    tiers = tuple(
        make_tier(
            i + 1,
            base_latency_us=50.0 * (i + 1) ** 2,
            capacity=ResourceVector(
                capacity_scale * float(rng.uniform(70_000, 140_000)),
                capacity_scale * float(rng.uniform(700, 1500)),
                capacity_scale * float(rng.uniform(250, 800)),
            ),
            specialty=ResourceVector(*(float(x) for x in rng.integers(0, 2, size=3))),
            kind_weights=ResourceVector(*(float(x) for x in rng.uniform(0.2, 2.0, size=3))),
            mig_weight=float(rng.uniform(0.0, 0.3)),
        )
        for i in range(3)
    )
    n = int(rng.integers(2, 9))
    states = []
    rows = []
    for j in range(n):
        vid = f"v{j}"
        spec = make_vmdk(
            vid,
            size_gb=float(rng.uniform(5, 50)),
            sla_weight=float(rng.uniform(0.2, 3.0)),
            initial_tier=int(rng.integers(1, 4)),
            demand_iops=float(rng.uniform(0, 25_000)),
            avg_io_size_bytes=float(rng.uniform(512, 8_192)),
        )
        states.append(make_state(spec, measured_read_mbps=float(rng.uniform(0, 100))))
        rows.append((
            float(rng.uniform(0, 1.5)),
            float(rng.uniform(5, 200)),
            float(rng.uniform(0.05, 1.0)),
        ))
    records = make_fits(rows)
    fleet = fleet_of(states, tiers)
    mat = normalize_and_gate(cal_capacity_matrices(records, fleet), fleet)
    roster = fleet.roster
    for i in range(len(tiers)):
        fleet.spare_mbps[0, i] = roster.device_caps[2, i] - float(rng.uniform(0, 100))
        fleet.spare_mbps[1, i] = roster.device_caps[3, i] - float(rng.uniform(0, 100))
    weights = PolicyWeights(
        alpha=ResourceVector(*(float(x) for x in rng.uniform(0, 2, size=3))),
        beta=float(rng.uniform(0, 2)),
        aging_factor=0.0,
    )
    return tiers, fleet, records, mat, weights, fleet.tier_row.copy()


def sequential_usage(mat, target_row, budget) -> list[list[float]] | None:
    """Each tier row's usage of ``target_row``, or None if some VMDK overruns its tier.

    Each tier charges its VMDKs in id order, each checked with ``<=``
    against what is left, as ``first_fit``'s scalar loop does.
    """
    usage = []
    for i, left in enumerate(budget.tolist()):
        used = [0.0, 0.0, 0.0]
        for j in np.flatnonzero(target_row == i).tolist():
            cell = mat.cap[i, j].tolist()
            if any(c > l for c, l in zip(cell, left)):
                return None
            left = [l - c for l, c in zip(left, cell)]
            used = [u + c for u, c in zip(used, cell)]
        usage.append(used)
    return usage


REFERENCE_ORACLE_MAX_VMDKS = 8


def reference_oracle(mat, weights, previous, fleet, migration_epoch_seconds):
    """The optimum profit and its assignment by enumeration, or None when nothing fits.

    Every assignment of at most ``REFERENCE_ORACLE_MAX_VMDKS`` VMDKs is
    tried, VMDK by VMDK in id order and tiers in row order. Each tier's
    budget is charged as ``first_fit`` charges it (its VMDKs subtracted in
    id order, each checked with ``<=``) and the cells' profits are added
    from 0.0 in id order, as ``epoch_profit`` adds them. An
    assignment whose profit is -inf or NaN never wins, and ties keep the
    lexicographically smallest (N,) tier-row vector.
    """
    from autotier.policy import profit_contributions

    n = len(fleet.roster.ids)
    assert n <= REFERENCE_ORACLE_MAX_VMDKS
    contrib = profit_contributions(mat, weights, previous, fleet,
                                   migration_epoch_seconds).tolist()
    cap = mat.cap.tolist()
    remaining = fleet.roster.budget.tolist()
    choice: list[int] = []
    best: list = [-np.inf, None]

    def recurse(j: int, profit: float) -> None:
        if j == n:
            if profit > best[0]:
                best[:] = profit, np.array(choice, dtype=np.intp)
            return
        for i, rem in enumerate(remaining):
            c = cap[i][j]
            if c[0] <= rem[0] and c[1] <= rem[1] and c[2] <= rem[2]:
                remaining[i] = [r - u for r, u in zip(rem, c)]
                choice.append(i)
                recurse(j + 1, profit + contrib[i][j])
                choice.pop()
                remaining[i] = rem

    recurse(0, 0.0)
    return None if best[1] is None else tuple(best)


@pytest.fixture
def three_tiers():
    return (
        make_tier(1, 60.0, ResourceVector(250_000, 1500, 480), name="fast"),
        make_tier(2, 150.0, ResourceVector(200_000, 1800, 960), name="mid"),
        make_tier(3, 400.0, ResourceVector(100_000, 800, 960), name="cold"),
    )
