"""Shared domain types for the multi-tier placement simulator.

Units are fixed across the package: latency in microseconds, throughput in
IOPS, bandwidth in MB/s (10^6 bytes/s), storage in GB (10^9 bytes).
All spec types are immutable after construction; the mutable per-run state
(Fleet, MigrationLog) is owned by a single simulation run. A scenario's
``Roster`` holds every static fact, built once from the specs and
read-only: one row per VMDK and one per tier, each tier number and static
VMDK figure a column. Each run's ``Fleet``, built by ``Fleet.of``, shares
that roster and owns only the columns the run writes, each fact once: each
VMDK's tier, active phase's demand and last measurements, each in-flight
migration's destination and log index, and each tier's contention and
spare MB/s. The MigrationLog holds every migration started, progress
included, as columns.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import InitVar, astuple, dataclass, fields, replace
from functools import cached_property, reduce
from itertools import chain
from operator import add, attrgetter
from types import MappingProxyType
from typing import Any

import numpy as np

SCHEMA_VERSION = 1


class ScenarioValidationError(ValueError):
    """Aggregate of per-field scenario diagnostics, each tagged with a path."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _require_finite_nonneg(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite non-negative number, got {value}")


@dataclass(frozen=True)
class ResourceVector:
    """Per-kind amounts: p in IOPS, b in MB/s, s in GB.

    Components are non-negative and finite. Multiplication is
    component-wise (``TierSpec.max_usable`` weights capacity by the cap
    fractions with it).
    """

    p: float = 0.0
    b: float = 0.0
    s: float = 0.0

    def __post_init__(self) -> None:
        _require_finite_nonneg("p", self.p)
        _require_finite_nonneg("b", self.b)
        _require_finite_nonneg("s", self.s)

    def __mul__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.p * other.p, self.b * other.b, self.s * other.s)

    def total(self) -> float:
        return self.p + self.b + self.s


@dataclass(frozen=True)
class TierSpec:
    """Static description of one storage tier.

    ``capacity`` is the raw per-kind resource pool; ``caps`` holds the usable
    fraction per kind, so the placement budget is ``max_usable()``. The
    direction-split throughput/bandwidth caps bound what the device can
    actually serve per epoch. ``specialty`` flags (0/1 per kind) mark what the
    tier is meant to optimize and ``kind_weights`` tune the per-kind score
    contribution; ``mig_weight`` scales the migration-cost penalty.
    """

    id: int
    name: str
    base_latency_us: float
    capacity: ResourceVector
    read_throughput_cap: float
    write_throughput_cap: float
    read_bandwidth_cap: float
    write_bandwidth_cap: float
    specialty: ResourceVector = ResourceVector(1.0, 1.0, 1.0)
    kind_weights: ResourceVector = ResourceVector(1.0, 1.0, 1.0)
    mig_weight: float = 1.0
    caps: ResourceVector = ResourceVector(1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        if self.id < 1:
            raise ValueError("tier id must be >= 1")
        if not (math.isfinite(self.base_latency_us) and self.base_latency_us > 0):
            raise ValueError("baseLatencyUs must be positive")
        for direction in (
            self.read_throughput_cap,
            self.write_throughput_cap,
            self.read_bandwidth_cap,
            self.write_bandwidth_cap,
        ):
            if not (math.isfinite(direction) and direction > 0):
                raise ValueError("tier serve caps must be positive")
        for flag in (self.specialty.p, self.specialty.b, self.specialty.s):
            if flag not in (0.0, 1.0):
                raise ValueError("specialty flags must be 0 or 1")
        try:  # integer weights may total past the float range
            weight_sum = float(self.kind_weights.total())
        except OverflowError:
            weight_sum = math.inf
        if not (math.isfinite(weight_sum) and weight_sum > 0):
            raise ValueError("kind weights must sum to a finite positive value")
        _require_finite_nonneg("migWeight", self.mig_weight)
        for frac in (self.caps.p, self.caps.b, self.caps.s):
            if not (0.0 < frac <= 1.0):
                raise ValueError("cap fraction out of (0,1]")

    def max_usable(self) -> ResourceVector:
        """Per-kind placement budget: usable fraction times raw capacity."""
        return self.caps * self.capacity


@dataclass(frozen=True)
class WorkloadPhase:
    """One demand phase of a VMDK, active from start_epoch until the next phase."""

    start_epoch: int
    demand_iops: float
    avg_io_size_bytes: float
    read_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.start_epoch < 0:
            raise ValueError("startEpoch must be >= 0")
        _require_finite_nonneg("demandIops", self.demand_iops)
        if not (math.isfinite(self.avg_io_size_bytes) and self.avg_io_size_bytes > 0):
            raise ValueError("avgIoSizeBytes must be positive")
        if not (0.0 <= self.read_fraction <= 1.0):
            raise ValueError("readFraction out of [0,1]")


@dataclass(frozen=True)
class VmdkSpec:
    """Static description of one VMDK.

    ``truth_slope`` / ``truth_intercept_us`` are the simulator's ground-truth
    latency sensitivity, visible to policies only through injected-latency
    samples. ``size_gb`` never changes across a run.
    """

    id: str
    size_gb: float
    initial_tier: int
    truth_slope: float
    truth_intercept_us: float
    demand_profile: tuple[WorkloadPhase, ...]
    vm_id: str = ""
    sla_weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("vmdk id must be non-empty")
        if not (math.isfinite(self.size_gb) and self.size_gb > 0):
            raise ValueError("sizeGb must be positive")
        if not (math.isfinite(self.sla_weight) and self.sla_weight > 0):
            raise ValueError("slaWeight must be positive")
        if self.initial_tier < 1:
            raise ValueError("initialTier must be >= 1")
        _require_finite_nonneg("truthSlope", self.truth_slope)
        if not (math.isfinite(self.truth_intercept_us) and self.truth_intercept_us > 0):
            raise ValueError("truthInterceptUs must be positive")
        if not self.demand_profile:
            raise ValueError("demandProfile must have at least one phase")
        if self.demand_profile[0].start_epoch != 0:
            raise ValueError("demandProfile phase 0 must start at epoch 0")
        starts = [ph.start_epoch for ph in self.demand_profile]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("demandProfile phases must have strictly increasing startEpoch")


@dataclass(frozen=True)
class CalibrationFits:
    """Regression output of one monitor epoch's calibration, one row per VMDK.

    ``m``, ``b``, ``confidence`` and ``mean_cv`` are (N,) arrays whose
    rows follow ``vmdk_ids``. ``m`` is the raw fitted slope
    (kept even if negative); predictions use ``prediction_slope``, which
    clamps at zero since a VMDK cannot speed up when its device slows down.
    """

    vmdk_ids: tuple[str, ...]
    m: np.ndarray
    b: np.ndarray
    confidence: np.ndarray
    mean_cv: np.ndarray

    def __post_init__(self) -> None:
        rows = (len(self.vmdk_ids),)
        for column in (self.m, self.b, self.confidence, self.mean_cv):
            if column.shape != rows:
                raise ValueError("calibration fits need one row per VMDK")
        if not ((self.confidence > 0.0) & (self.confidence <= 1.0)).all():
            raise ValueError("confidence out of (0,1]")
        bad = ~(np.isfinite(self.mean_cv) & (self.mean_cv >= 0))
        if bad.any():
            _require_finite_nonneg("meanCv", float(self.mean_cv[bad.argmax()]))

    @property
    def prediction_slope(self) -> np.ndarray:
        return np.maximum(self.m, 0.0)


@dataclass
class CapacityMatrices:
    """Predicted absolute usage, normalized ratios and feasibility per (tier, vmdk).

    ``cap`` and ``ratio`` are (T, N, 3) float arrays whose last axis holds the
    p, b, s components; ``feasible`` is a (T, N) bool array. The tier axis
    follows the fleet's tier rows and the VMDK axis ``vmdk_ids``. ``ratio``
    and ``feasible`` stay None until the matrices are normalized against the
    tier budgets.
    """

    vmdk_ids: tuple[str, ...]
    cap: np.ndarray
    ratio: np.ndarray | None = None
    feasible: np.ndarray | None = None


DEFAULT_INJECTED_LATENCIES_US = (0.0, 500.0, 1000.0, 2000.0, 4000.0)


@dataclass(frozen=True)
class PolicyWeights:
    """Every policy tunable: objective weights, score aging, cadences, probe plan."""

    alpha: ResourceVector = ResourceVector(1.0, 1.0, 1.0)
    beta: float = 1.0
    aging_factor: float = 0.5
    monitor_epoch: int = 1
    migration_epoch: int = 3
    confidence_floor: float = 0.05
    injected_latencies_us: tuple[float, ...] = DEFAULT_INJECTED_LATENCIES_US
    samples_per_latency: int = 10

    def __post_init__(self) -> None:
        _require_finite_nonneg("beta", self.beta)
        if not (0.0 <= self.aging_factor < 1.0):
            raise ValueError("agingFactor out of [0,1)")
        if self.monitor_epoch < 1:
            raise ValueError("monitorEpoch must be >= 1")
        if self.migration_epoch < self.monitor_epoch:
            raise ValueError("migrationEpoch must be >= monitorEpoch")
        if self.migration_epoch % self.monitor_epoch != 0:
            raise ValueError("migrationEpoch must be a multiple of monitorEpoch")
        if not (0.0 < self.confidence_floor <= 1.0):
            raise ValueError("confidenceFloor out of (0,1]")
        if len(self.injected_latencies_us) < 2:
            raise ValueError("need at least two injected latencies")
        if any(d < 0 for d in self.injected_latencies_us):
            raise ValueError("injected latencies must be non-negative")
        if len(set(self.injected_latencies_us)) != len(self.injected_latencies_us):
            raise ValueError("injected latencies must be distinct")
        if self.samples_per_latency < 1:
            raise ValueError("samplesPerLatency must be >= 1")


@dataclass(frozen=True)
class SimulationConfig:
    epochs: int
    epoch_seconds: float = 300.0
    noise_cv: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not (math.isfinite(self.epoch_seconds) and self.epoch_seconds > 0):
            raise ValueError("epochSeconds must be positive")
        _require_finite_nonneg("noiseCv", self.noise_cv)


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: tiers plus VMDKs plus all run tunables.

    Safe to share read-only across concurrent runs. ``roster``, the part of
    a run's start that follows from the specs alone, is built on first use
    and then serves every run of this object; it is no field, so it stays
    out of ``==``, ``repr``, the document and pickles, and
    ``dataclasses.replace`` gives the new scenario a roster of its own.
    """

    tiers: tuple[TierSpec, ...]
    vmdks: tuple[VmdkSpec, ...]
    weights: PolicyWeights = PolicyWeights()
    sim: SimulationConfig = SimulationConfig(epochs=0)
    # Format version of the document; the reader accepts SCHEMA_VERSION only.
    schema_version: InitVar[int] = SCHEMA_VERSION

    def __post_init__(self, schema_version: int) -> None:
        problems = cross_checks(self.tiers, self.vmdks)
        if problems:
            raise ScenarioValidationError(problems)

    @cached_property
    def roster(self) -> Roster:
        # Two first uses at once may both build it; the builds are equal.
        return Roster.of(self.vmdks, self.tiers)

    def __getstate__(self) -> dict[str, Any]:
        # A pickle or copy leaves the roster out (its maps do not pickle) and
        # builds its own on first use.
        return {name: value for name, value in vars(self).items() if name != "roster"}


def cross_checks(tiers: Sequence[TierSpec], vmdks: Sequence[VmdkSpec]) -> list[str]:
    """Scenario-level invariants that span more than one object."""
    problems: list[str] = []
    ids = [t.id for t in tiers]
    if not tiers:
        problems.append("tiers: at least one tier required")
    elif ids != list(range(1, len(tiers) + 1)):
        problems.append(f"tiers: ids must be contiguous from 1, got {ids}")
    else:
        lats = [t.base_latency_us for t in tiers]
        if any(b <= a for a, b in zip(lats, lats[1:])):
            problems.append("tiers: baseLatencyUs must strictly increase with tier id")
    tier_ids = set(ids)
    seen: set[str] = set()
    for i, v in enumerate(vmdks):
        if v.id in seen:
            problems.append(f"vmdks[{i}].id: duplicate vmdk id {v.id!r}")
        seen.add(v.id)
        if v.initial_tier not in tier_ids:
            problems.append(f"vmdks[{i}].initialTier: tier {v.initial_tier} does not exist")
    return problems


def check_migrations(from_tier: Any, to_tier: Any, bytes_total: Any, bytes_moved: Any) -> None:
    """Raise ValueError unless every move changes tiers and its bytes are in range.

    Takes one move's scalars or aligned arrays of many moves.
    """
    stays = np.equal(from_tier, to_tier)
    empty = np.less_equal(bytes_total, 0)
    inside = np.less_equal(0.0, bytes_moved) & np.less_equal(bytes_moved, bytes_total)
    if (stays | empty | ~inside).any():
        if stays.any():
            raise ValueError("migration must change tiers")
        if empty.any():
            raise ValueError("bytesTotal must be positive")
        raise ValueError("bytesMoved out of [0, bytesTotal]")


# The log's columns after the VMDK, with their dtypes.
_ORDER_COLUMNS = (
    ("from_tier", np.int64),
    ("to_tier", np.int64),
    ("bytes_total", float),
    ("started_epoch", np.int64),
    ("bytes_moved", float),
    ("speed_mbps", float),
    ("stalled", bool),
)


class MigrationLog:
    """Every migration a run started, in start order, held as (M,) columns.

    ``row`` is the fleet row of each order's VMDK (``ids`` names it); the
    other columns are each order's source and destination tier ids, bytes
    total, start epoch, bytes moved, speed in MB/s and stall flag. The log
    is the run's only record of each order's progress: ``append`` adds one
    plan's started orders at once, and ``set_progress`` writes the bytes
    moved, speed and stall flag of the orders the engine advanced.
    """

    def __init__(self, ids: Sequence[str] = ()):
        self.ids = tuple(ids)
        self.row = np.zeros(0, dtype=np.intp)
        for name, dtype in _ORDER_COLUMNS:
            setattr(self, name, np.zeros(0, dtype=dtype))

    def __len__(self) -> int:
        return len(self.row)

    def append(
        self, rows: np.ndarray, from_tier: np.ndarray, to_tier: np.ndarray,
        bytes_total: np.ndarray, epoch: int,
    ) -> np.ndarray:
        """Log one block of orders started at ``epoch``; returns their log indices."""
        check_migrations(from_tier, to_tier, bytes_total, 0.0)
        start, n = len(self.row), len(rows)
        self.row = np.concatenate((self.row, rows))
        block = (
            from_tier, to_tier, bytes_total, np.full(n, epoch), np.zeros(n), np.zeros(n),
            np.zeros(n, dtype=bool),
        )
        for (name, dtype), part in zip(_ORDER_COLUMNS, block):
            setattr(self, name, np.concatenate((getattr(self, name), part), dtype=dtype))
        return np.arange(start, start + n)

    def set_progress(self, k: np.ndarray, bytes_moved: Any, speed_mbps: Any, stalled: Any) -> None:
        """Write the bytes moved, speed and stall flag of orders ``k``, checked first."""
        check_migrations(self.from_tier[k], self.to_tier[k], self.bytes_total[k], bytes_moved)
        self.bytes_moved[k] = bytes_moved
        self.speed_mbps[k] = speed_mbps
        self.stalled[k] = stalled

    def total_migrated_bytes(self) -> float:
        """Bytes moved over every order, added left to right in log order."""
        return reduce(add, self.bytes_moved.tolist(), 0)

    def migrated_vmdk_ids(self) -> set[str]:
        return set(map(self.ids.__getitem__, self.row.tolist()))

    def unfinished(self) -> int:
        """Orders whose bytes moved fall short of their bytes total."""
        return int(np.count_nonzero(~(self.bytes_moved >= self.bytes_total)))


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


NEVER = np.iinfo(np.int64).max  # stands in for start epochs past the int64 range
_DEMAND_COLUMNS = ("demand_iops", "read_fraction", "avg_io_size_bytes")


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` itself, its writes refused from now on."""
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class Roster:
    """Everything a run's start takes from the specs alone, built once per scenario.

    VMDK rows are in id order (``ids``, ``specs``, and ``row`` mapping an id
    to its row) with the static columns ``size_gb``, ``sla_weight``,
    ``truth_slope`` and ``truth_intercept_us`` and ``tier_row``, each
    VMDK's initial tier as a row of ``tiers``. Tier rows follow ``tiers``
    and hold every tier number the epoch loop reads (see ``Fleet``). The
    (3, P) ``phase_table`` holds the demand, read fraction and I/O size of
    every row's demand profile, one profile after another, and
    ``first_phase`` each row's phase 0 in it; ``due`` maps an epoch to the
    rows whose next phase starts then and the index of that phase. Every
    array is read-only and every map a ``MappingProxyType``, so one roster
    serves any number of runs, concurrent ones too: each run's ``Fleet``
    holds the roster itself and only the columns the run writes.
    """

    ids: tuple[str, ...]
    specs: tuple[VmdkSpec, ...]
    row: Mapping[str, int]
    tiers: tuple[TierSpec, ...]
    tier_ids: np.ndarray
    tier_row: np.ndarray
    budget: np.ndarray
    base_latency_us: np.ndarray
    read_throughput_cap: np.ndarray
    write_throughput_cap: np.ndarray
    read_bandwidth_cap: np.ndarray
    write_bandwidth_cap: np.ndarray
    mig_weight: np.ndarray
    match_mask: np.ndarray
    kind_weight_total: np.ndarray
    size_gb: np.ndarray
    sla_weight: np.ndarray
    truth_slope: np.ndarray
    truth_intercept_us: np.ndarray
    phase_table: np.ndarray
    first_phase: np.ndarray
    due: Mapping[int, tuple[np.ndarray, np.ndarray]]

    @classmethod
    def of(cls, specs: Sequence[VmdkSpec], tiers: Sequence[TierSpec]) -> "Roster":
        """The roster of ``specs``, sorted by id, on ``tiers``."""
        specs = tuple(sorted(specs, key=attrgetter("id")))
        row_of_tier = {t.id: i for i, t in enumerate(tiers)}
        phases = tuple(chain.from_iterable(spec.demand_profile for spec in specs))
        counts = [len(spec.demand_profile) for spec in specs]
        owner = np.repeat(np.arange(len(specs)), counts)
        start = np.array([p.start_epoch for p in phases], dtype=object)
        start = start.clip(max=NEVER).astype(np.int64)
        # Phase 0 starts at epoch 0 and every later phase after it.
        later = np.flatnonzero(start > 0)
        later = later[np.argsort(start[later], kind="stable")]
        epochs, cuts = np.unique(start[later], return_index=True)

        def column(items: Sequence[Any], name: str) -> np.ndarray:
            return np.fromiter(map(attrgetter(name), items), float, len(items))

        roster = cls(
            ids=tuple(spec.id for spec in specs),
            specs=specs,
            row=MappingProxyType({spec.id: j for j, spec in enumerate(specs)}),
            tiers=tuple(tiers),
            tier_ids=np.array([t.id for t in tiers], dtype=np.int64),
            tier_row=np.array([row_of_tier[s.initial_tier] for s in specs], dtype=np.intp),
            budget=np.array([astuple(t.max_usable()) for t in tiers], dtype=float),
            **{
                name: column(tiers, name)
                for name in (
                    "base_latency_us", "read_throughput_cap", "write_throughput_cap",
                    "read_bandwidth_cap", "write_bandwidth_cap", "mig_weight",
                )
            },
            match_mask=np.array([
                [f * w for f, w in zip(astuple(t.specialty), astuple(t.kind_weights))]
                for t in tiers
            ], dtype=float),
            kind_weight_total=np.array([float(t.kind_weights.total()) for t in tiers]),
            **{
                name: column(specs, name)
                for name in ("size_gb", "sla_weight", "truth_slope", "truth_intercept_us")
            },
            phase_table=np.stack([column(phases, name) for name in _DEMAND_COLUMNS]),
            first_phase=np.cumsum(counts, dtype=np.intp) - counts,
            due=MappingProxyType({
                e: (_frozen(owner[k]), _frozen(k))
                for e, k in zip(epochs.tolist(), np.split(later, cuts[1:]))
            }),
        )
        for f in fields(roster):
            value = getattr(roster, f.name)
            if isinstance(value, np.ndarray):
                _frozen(value)
        return roster


@dataclass
class Fleet:
    """The state of one run: its scenario's ``roster`` and the columns the run writes.

    Every static fact (ids, specs, tier numbers, static VMDK columns, the
    phase table and schedule) is read from ``roster``, shared read-only by
    every run of its scenario. The fleet's own arrays belong to this run
    alone. VMDK rows follow ``roster.ids``: ``tier_row`` (each VMDK's
    current tier as a row of ``roster.tiers``, starting from the roster's
    initial one), ``dest_row`` (the tier row its in-flight migration lands
    on, -1 when it has none), the active phase's demand, read fraction and
    I/O size (the run's only record of the active phase) and the last
    epoch's four ``measured_*`` figures. An in-flight migration moves
    ``size_gb * 1e9`` bytes from ``tier_row`` to ``dest_row``;
    ``order_index`` is its index in the run's ``MigrationLog`` (-1 for a
    VMDK that has none), which alone holds its progress.

    Tier rows follow ``roster.tiers``. Each device's ``contention``
    inflates the latency probes see, and ``spare_read_mbps`` and
    ``spare_write_mbps`` are its bandwidth caps less last epoch's served
    MB/s and migration debits, never below 0.0 (the caps before the first
    epoch); serving writes those and the measurements in place. Policies
    read a ``read_only`` view.
    """

    roster: Roster
    tier_row: np.ndarray
    dest_row: np.ndarray
    order_index: np.ndarray
    contention: np.ndarray
    spare_read_mbps: np.ndarray
    spare_write_mbps: np.ndarray
    demand_iops: np.ndarray
    read_fraction: np.ndarray
    avg_io_size_bytes: np.ndarray
    measured_iops: np.ndarray
    measured_latency_us: np.ndarray
    measured_read_mbps: np.ndarray
    measured_write_mbps: np.ndarray

    @classmethod
    def of(cls, roster: Roster) -> "Fleet":
        """A run's start: each VMDK on its initial tier in phase 0, unmeasured."""
        n, t = len(roster.ids), len(roster.tiers)
        return cls(
            roster=roster,
            tier_row=roster.tier_row.copy(),
            dest_row=np.full(n, -1, dtype=np.intp),
            order_index=np.full(n, -1, dtype=np.intp),
            contention=np.ones(t),
            spare_read_mbps=roster.read_bandwidth_cap.copy(),
            spare_write_mbps=roster.write_bandwidth_cap.copy(),
            **dict(zip(_DEMAND_COLUMNS, roster.phase_table[:, roster.first_phase])),
            **{
                f"measured_{name}": np.zeros(n)
                for name in ("iops", "latency_us", "read_mbps", "write_mbps")
            },
        )

    def read_only(self) -> "Fleet":
        """A view that follows this fleet but refuses writes to its arrays.

        The roster, read-only already, is passed through as it is.
        """
        run_columns = (f.name for f in fields(self) if f.name != "roster")
        return replace(self, **{name: _frozen(getattr(self, name).view()) for name in run_columns})

    def activate_phases(self, epoch: int) -> None:
        """Apply every phase that starts at ``epoch``, copying its table row."""
        hit = self.roster.due.get(epoch)
        if hit is not None:
            rows, k = hit
            self.demand_iops[rows], self.read_fraction[rows], self.avg_io_size_bytes[rows] = (
                self.roster.phase_table[:, k]
            )

    def move(self, rows: np.ndarray) -> None:
        """Land the in-flight migrations of ``rows`` on their ``dest_row`` and clear them."""
        self.tier_row[rows] = self.dest_row[rows]
        self.dest_row[rows] = -1
        self.order_index[rows] = -1

    def states(self) -> list[VmdkState]:
        """One ``VmdkState`` per row: its tier, demand columns and measurements."""
        tier_ids = self.roster.tier_ids.tolist()
        columns = zip(*(getattr(self, name).tolist() for name in (
            "demand_iops", "avg_io_size_bytes", "read_fraction", "measured_iops",
            "measured_read_mbps", "measured_write_mbps", "measured_latency_us",
        )))
        return [
            VmdkState(spec, tier_ids[t], *c)
            for spec, t, c in zip(self.roster.specs, self.tier_row.tolist(), columns)
        ]


# --- scenario document schema ------------------------------------------------
#
# One table per spec type holds the whole document format. Each row is
# (JSON key, constructor argument, reader, default), in document order: the
# order diagnostics are reported in and serialization writes. A reader turns
# a JSON value into the constructor argument or raises _Invalid; readers of
# nested objects report their own fields' problems into ``errors``. The
# default says what a missing key means: REQUIRED reports it, OPTIONAL keeps
# the dataclass default, and None reads it as JSON null, which the readers of
# non-empty values refuse with their own "required ..." diagnostic.

REQUIRED = "required"
OPTIONAL = "optional"
Reader = Callable[[Any, str, str, list[str]], Any]


class _Invalid(Exception):
    """A value its field's reader refuses; the message follows the field path."""


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _number(value: Any, path: str, key: str, errors: list[str]) -> float:
    """A JSON number as a float; an integer too large for a float is refused."""
    kind = type(value)
    if kind is float:
        return value
    if kind is not int and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise _Invalid(f"expected a number, got {kind.__name__}")
    try:
        return float(value)
    except OverflowError:
        raise _Invalid("expected a number, got an integer too large for a float") from None


def _component(value: Any, path: str, key: str, errors: list[str]) -> Any:
    """A vector component: a number, kept as written so an int stays an int."""
    _number(value, path, key, errors)
    return value


def _integer(value: Any, path: str, key: str, errors: list[str]) -> int:
    """An integer of any size; a float must be finite and integral (``3.0`` is 3)."""
    if type(value) is int:
        return value
    number = _number(value, path, key, errors)
    if not (math.isfinite(number) and number.is_integer()):
        raise _Invalid(f"expected an integer, got {value!r}")
    return int(value)


def _string(value: Any, path: str, key: str, errors: list[str]) -> str:
    if not isinstance(value, str):
        raise _Invalid("expected a string")
    return value


def _name(value: Any, path: str, key: str, errors: list[str]) -> str:
    if not isinstance(value, str) or not value:
        raise _Invalid("required non-empty string")
    return value


def _version(value: Any, path: str, key: str, errors: list[str]) -> int:
    """SCHEMA_VERSION, read as any integer field is, so ``true`` is refused."""
    if value is None or _integer(value, path, key, errors) != SCHEMA_VERSION:
        raise _Invalid(f"expected {SCHEMA_VERSION}, got {value!r}")
    return SCHEMA_VERSION


def _latencies(value: Any, path: str, key: str, errors: list[str]) -> tuple[float, ...]:
    if not isinstance(value, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in value
    ):
        raise _Invalid("expected a list of numbers")
    try:
        latencies = tuple(float(x) for x in value)
        if all(map(math.isfinite, latencies)):
            return latencies
    except OverflowError:
        pass
    raise _Invalid(f"expected finite numbers, got {value!r}")


def _vector(value: Any, path: str, key: str, errors: list[str]) -> ResourceVector | None:
    if not isinstance(value, Mapping):
        raise _Invalid("expected an object with p/b/s")
    return _build(ResourceVector, value, _at(path, key), errors)


def _object(cls: type) -> Reader:
    def read(value: Any, path: str, key: str, errors: list[str]) -> Any:
        return _build(cls, value, _at(path, key), errors)

    return read


def _list_of(cls: type) -> Reader:
    """Reader of a non-empty list of ``cls`` objects; an element that fails is left out."""

    def read(value: Any, path: str, key: str, errors: list[str]) -> tuple[Any, ...]:
        if not isinstance(value, list) or not value:
            raise _Invalid("required non-empty list")
        where = _at(path, key)
        built = [_build(cls, item, f"{where}[{i}]", errors) for i, item in enumerate(value)]
        return tuple(x for x in built if x is not None)

    return read


SCHEMA: dict[type, tuple[tuple[str, str, Reader, Any], ...]] = {
    ResourceVector: (
        ("p", "p", _component, OPTIONAL),
        ("b", "b", _component, OPTIONAL),
        ("s", "s", _component, OPTIONAL),
    ),
    TierSpec: (
        ("id", "id", _integer, REQUIRED),
        ("name", "name", _name, None),
        ("baseLatencyUs", "base_latency_us", _number, REQUIRED),
        ("capacity", "capacity", _vector, REQUIRED),
        ("readThroughputCap", "read_throughput_cap", _number, REQUIRED),
        ("writeThroughputCap", "write_throughput_cap", _number, REQUIRED),
        ("readBandwidthCap", "read_bandwidth_cap", _number, REQUIRED),
        ("writeBandwidthCap", "write_bandwidth_cap", _number, REQUIRED),
        ("specialty", "specialty", _vector, OPTIONAL),
        ("kindWeights", "kind_weights", _vector, OPTIONAL),
        ("migWeight", "mig_weight", _number, OPTIONAL),
        ("caps", "caps", _vector, OPTIONAL),
    ),
    WorkloadPhase: (
        ("startEpoch", "start_epoch", _integer, REQUIRED),
        ("demandIops", "demand_iops", _number, REQUIRED),
        ("avgIoSizeBytes", "avg_io_size_bytes", _number, REQUIRED),
        ("readFraction", "read_fraction", _number, OPTIONAL),
    ),
    VmdkSpec: (
        ("id", "id", _name, None),
        ("vmId", "vm_id", _string, OPTIONAL),
        ("sizeGb", "size_gb", _number, REQUIRED),
        ("slaWeight", "sla_weight", _number, OPTIONAL),
        ("initialTier", "initial_tier", _integer, REQUIRED),
        ("truthSlope", "truth_slope", _number, REQUIRED),
        ("truthInterceptUs", "truth_intercept_us", _number, REQUIRED),
        ("demandProfile", "demand_profile", _list_of(WorkloadPhase), None),
    ),
    PolicyWeights: (
        ("alpha", "alpha", _vector, OPTIONAL),
        ("beta", "beta", _number, OPTIONAL),
        ("agingFactor", "aging_factor", _number, OPTIONAL),
        ("monitorEpoch", "monitor_epoch", _integer, OPTIONAL),
        ("migrationEpoch", "migration_epoch", _integer, OPTIONAL),
        ("confidenceFloor", "confidence_floor", _number, OPTIONAL),
        ("injectedLatenciesUs", "injected_latencies_us", _latencies, OPTIONAL),
        ("samplesPerLatency", "samples_per_latency", _integer, OPTIONAL),
    ),
    SimulationConfig: (
        ("epochs", "epochs", _integer, REQUIRED),
        ("epochSeconds", "epoch_seconds", _number, OPTIONAL),
        ("noiseCv", "noise_cv", _number, OPTIONAL),
        ("seed", "seed", _integer, OPTIONAL),
    ),
    Scenario: (
        ("schemaVersion", "schema_version", _version, None),
        ("tiers", "tiers", _list_of(TierSpec), None),
        ("vmdks", "vmdks", _list_of(VmdkSpec), None),
        ("policyWeights", "weights", _object(PolicyWeights), OPTIONAL),
        ("simulation", "sim", _object(SimulationConfig), OPTIONAL),
    ),
}
_KEYS = {cls: frozenset(row[0] for row in rows) for cls, rows in SCHEMA.items()}


def _read(cls: type, doc: Any, path: str, errors: list[str]) -> dict[str, Any] | None:
    """Constructor arguments of ``cls`` read from ``doc``; None if a field failed.

    An unknown key is reported but does not stop the read. A vector is read
    even when a component failed (that component keeps its default), so the
    vector's own range checks still report the other components.
    """
    if type(doc) is not dict and not isinstance(doc, Mapping):
        errors.append(f"{path}: expected an object")
        return None
    if not doc.keys() <= _KEYS[cls]:
        allowed = _KEYS[cls]
        errors.extend(f"{_at(path, key)}: unknown field" for key in doc if key not in allowed)
    before = len(errors)
    kwargs = {}
    for key, arg, read, default in SCHEMA[cls]:
        if key in doc:
            value = doc[key]
        elif default is None:
            value = None
        else:
            if default is REQUIRED:
                errors.append(f"{_at(path, key)}: required field missing")
            continue
        try:
            kwargs[arg] = read(value, path, key, errors)
        except _Invalid as exc:
            errors.append(f"{_at(path, key)}: {exc}")
    if len(errors) > before and cls is not ResourceVector:
        return None
    return kwargs


def _build(cls: type, doc: Any, path: str, errors: list[str]) -> Any:
    """A ``cls`` built from ``doc``, or None with every problem in ``errors``."""
    kwargs = _read(cls, doc, path, errors)
    if kwargs is None:
        return None
    try:
        return cls(**kwargs)
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return None


def validate_scenario(doc: Mapping[str, Any]) -> Scenario:
    """Check every invariant of a parsed scenario document and build a Scenario.

    Collects per-field diagnostics (path-prefixed) instead of aborting on the
    first failure; raises ScenarioValidationError with the aggregate list.
    """
    if not isinstance(doc, Mapping):
        raise ScenarioValidationError(["document: expected a top-level object"])
    errors: list[str] = []
    kwargs = _read(Scenario, doc, "", errors)
    if errors:
        raise ScenarioValidationError(errors)
    return Scenario(**kwargs)
