"""Shared builders and random-instance generators for the test suite."""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("autotier", deadline=None)
settings.load_profile("autotier")

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
    VmdkState,
    WorkloadPhase,
)


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


STATE_COLUMNS = (
    "demand_iops", "read_fraction", "avg_io_size_bytes", "measured_iops",
    "measured_latency_us", "measured_read_mbps", "measured_write_mbps",
)


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
    fleet = Fleet.of(Roster.of([state.spec for state in states], tiers))
    for state in states:
        j = fleet.roster.row[state.spec.id]
        fleet.tier_row[j] = row_of_tier(fleet, state.current_tier)
        for name in STATE_COLUMNS:
            getattr(fleet, name)[j] = getattr(state, name)
    return fleet


def make_fits(rows) -> CalibrationFits:
    """Fits from (vmdk_id, m, b, confidence) rows, mean CV 0."""
    rows = list(rows)
    column = lambda k: np.array([row[k] for row in rows], dtype=float)
    return CalibrationFits(
        vmdk_ids=tuple(row[0] for row in rows),
        m=column(1),
        b=column(2),
        confidence=column(3),
        mean_cv=np.zeros(len(rows)),
    )


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


def hosted_usage(mat, target, tier_id: int) -> tuple[float, float, float]:
    """(p, b, s) sum of the capacity cells of the VMDKs ``target`` puts on tier ``tier_id``.

    Cells are added in ``target``'s order, from 0.0; tier id t is row t - 1.
    """
    total = (0.0, 0.0, 0.0)
    for vmdk_id, t in target.items():
        if t == tier_id:
            cell = mat.cap[t - 1, mat.vmdk_ids.index(vmdk_id)].tolist()
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


class ReferencePlan(NamedTuple):
    """A plan keyed by VMDK and tier id, with the fields ``plan_record`` reads."""

    epoch_index: int
    target: dict[str, int]
    migrations: tuple[tuple[str, int, int], ...]
    overloaded: frozenset[str]
    planned_usage: dict[int, ResourceVector]


def keyed_plan(plan) -> ReferencePlan:
    """An ``AssignmentPlan`` keyed by VMDK and tier id, as ``reference_pack`` gives one.

    ``migrations`` holds (VMDK id, from tier id, to tier id) per move, in
    placement order.
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
    string membership in ``target``. Returns a ``ReferencePlan``.
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


def random_oracle_instance(rng: np.random.Generator):
    """A small (<=8 VMDK, 3 tier) instance with its fleet and matrices built.

    The fleet's tiers have random served read and write MB/s taken off their
    spare bandwidth. The last item is the previous assignment: each VMDK's
    current tier row.

    Ranges keep every VMDK individually feasible on every tier with aggregate
    slack, so the greedy's stay-put fallback never has to overload.
    """
    from autotier.policy import cal_capacity_matrices, normalize_and_gate

    tiers = tuple(
        make_tier(
            i + 1,
            base_latency_us=50.0 * (i + 1) ** 2,
            capacity=ResourceVector(
                float(rng.uniform(70_000, 140_000)),
                float(rng.uniform(700, 1500)),
                float(rng.uniform(250, 800)),
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
            vid,
            float(rng.uniform(0, 1.5)),
            float(rng.uniform(5, 200)),
            float(rng.uniform(0.05, 1.0)),
        ))
    records = make_fits(rows)
    fleet = fleet_of(states, tiers)
    mat = normalize_and_gate(cal_capacity_matrices(records, fleet), fleet)
    roster = fleet.roster
    for i in range(len(tiers)):
        fleet.spare_read_mbps[i] = roster.read_bandwidth_cap[i] - float(rng.uniform(0, 100))
        fleet.spare_write_mbps[i] = roster.write_bandwidth_cap[i] - float(rng.uniform(0, 100))
    weights = PolicyWeights(
        alpha=ResourceVector(*(float(x) for x in rng.uniform(0, 2, size=3))),
        beta=float(rng.uniform(0, 2)),
        aging_factor=0.0,
    )
    return tiers, fleet, records, mat, weights, fleet.tier_row.copy()


@pytest.fixture
def three_tiers():
    return (
        make_tier(1, 60.0, ResourceVector(250_000, 1500, 480), name="fast"),
        make_tier(2, 150.0, ResourceVector(200_000, 1800, 960), name="mid"),
        make_tier(3, 400.0, ResourceVector(100_000, 800, 960), name="cold"),
    )
