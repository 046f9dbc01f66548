"""Shared domain types for the multi-tier placement simulator.

Units are fixed across the package: latency in microseconds, throughput in
IOPS, bandwidth in MB/s (10^6 bytes/s), storage in GB (10^9 bytes).
All spec types are immutable after construction; the mutable per-run state
(Fleet, MigrationLog) is owned by a single simulation run. A scenario
holds its VMDKs as one read-only ``VmdkTable`` of columns, every demand
profile a span of its two phase columns; an item read builds its ``VmdkSpec``.
A plain, valid document is read into the table in one column pass; any
other document's VMDKs are read item by item by the ``SCHEMA`` readers,
the one source of diagnostics, and gathered into a table, as specs built
in Python are. A scenario's ``Roster`` holds every static fact as
read-only columns, built once from the table; each run's ``Fleet`` shares
it and owns only the columns the run writes, and its ``MigrationLog``
every migration started, progress included.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import InitVar, astuple, dataclass, field, fields, replace
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import attrgetter, contains, itemgetter
from types import MappingProxyType
from typing import Any

import numpy as np

SCHEMA_VERSION = 1
INT64_MAX = 2**63 - 1  # bounds startEpoch, epochs, migrationEpoch and samplesPerLatency


class ScenarioValidationError(ValueError):
    """Aggregate of per-field scenario diagnostics, each tagged with a path."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# A field's rule: its value lies in the closed range [low, high], where NaN
# lies in none, or it is refused with the message formatted with the field's
# key and value. Each ``SCHEMA`` row holds its field's rule, or None.
Rule = tuple[Any, Any, str]
_TINY, _MAX = math.ulp(0.0), sys.float_info.max
NONNEG: Rule = (0.0, _MAX, "{} must be a finite non-negative number, got {}")
POSITIVE: Rule = (_TINY, _MAX, "{} must be positive")
FRACTION: Rule = (0.0, 1.0, "{} out of [0,1]")
BELOW_ONE: Rule = (0.0, math.nextafter(1.0, 0.0), "{} out of [0,1)")
ABOVE_ZERO: Rule = (_TINY, 1.0, "{} out of (0,1]")
AT_LEAST_0: Rule = (0, math.inf, "{} must be >= 0")
AT_LEAST_1: Rule = (1, math.inf, "{} must be >= 1")
SERVE_CAP: Rule = (_TINY, _MAX, "tier serve caps must be positive")


def _require_integer(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer")


def _require_int64(name: str, value: int) -> None:
    if value > INT64_MAX:
        raise ValueError(f"{name} must be <= {INT64_MAX}")


def _check_fields(spec: Any) -> None:
    """Refuse the first field of ``spec`` that its ``SCHEMA`` row refuses, in document order.

    A field an ``_integer`` row reads must be an int, not a bool, before the rule applies.
    """
    for key, arg, integer, low, high, message in _CHECKED[type(spec)]:
        value = getattr(spec, arg)
        if integer:
            _require_integer(key, value)
        if not low <= value <= high:
            raise ValueError(message.format(key, value))


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
        low, high, message = NONNEG  # its rows' rule: defaults are built before SCHEMA
        for key, value in zip("pbs", (self.p, self.b, self.s)):
            if not low <= value <= high:
                raise ValueError(message.format(key, value))

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
        _check_fields(self)
        for flag in (self.specialty.p, self.specialty.b, self.specialty.s):
            if flag not in (0.0, 1.0):
                raise ValueError("specialty flags must be 0 or 1")
        try:  # integer weights may total past the float range
            weight_sum = float(self.kind_weights.total())
        except OverflowError:
            weight_sum = math.inf
        if not (math.isfinite(weight_sum) and weight_sum > 0):
            raise ValueError("kind weights must sum to a finite positive value")
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
        _check_fields(self)
        _require_int64("startEpoch", self.start_epoch)


_DEMAND_COLUMNS = ("demand_iops", "read_fraction", "avg_io_size_bytes")


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` itself, its writes refused from now on."""
    array.setflags(write=False)
    return array


class _Columns:
    """Base of a frozen dataclass whose arrays refuse writes once it is built."""

    def __post_init__(self) -> None:
        for f in fields(self):
            if isinstance(value := getattr(self, f.name), np.ndarray):
                _frozen(value)

    def __reduce__(self) -> tuple[Any, ...]:
        # rebuilt through the constructor, so an unpickled copy is read-only too
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


class _TupleView(Sequence):
    """A read-only sequence that compares, hashes and prints as the tuple of its items.

    A subclass gives ``__len__`` and ``_item(k)``, which builds item ``k``
    for ``0 <= k < len``; a slice is a tuple of items.
    """

    __slots__ = ()

    def __getitem__(self, i: Any) -> Any:
        rows = range(len(self))[i]
        return tuple(map(self._item, rows)) if isinstance(i, slice) else self._item(rows)

    def __eq__(self, other: object) -> bool:
        other = tuple(other) if isinstance(other, type(self)) else other
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class DemandProfile(_TupleView):
    """One VMDK's demand profile: phases ``first:stop`` of two read-only columns, read as phases.

    ``start_epoch`` is int64, and the rows of the (3, P) ``demand`` are
    each phase's demand, read fraction and I/O size.
    """

    start_epoch: np.ndarray
    demand: np.ndarray
    first: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.first

    def _item(self, k: int) -> WorkloadPhase:
        demand, fraction, size = self.demand[:, self.first + k].tolist()
        return WorkloadPhase(int(self.start_epoch[self.first + k]), demand, size, fraction)


@dataclass(frozen=True, slots=True)
class VmdkSpec:
    """Static description of one VMDK, its fields in slots, so a spec builds no dict.

    ``truth_slope`` / ``truth_intercept_us`` are the simulator's ground-truth
    latency sensitivity, visible to policies only through injected-latency
    samples. ``size_gb`` never changes across a run. ``demand_profile`` is
    always held as a ``DemandProfile`` view: a spec read from a
    ``VmdkTable`` views that table's two phase columns, and a profile given
    as ``WorkloadPhase``s is checked and stored as two frozen arrays of its own.
    """

    id: str
    size_gb: float
    initial_tier: int
    truth_slope: float
    truth_intercept_us: float
    demand_profile: Sequence[WorkloadPhase]
    vm_id: str = ""
    sla_weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("vmdk id must be non-empty")
        _check_fields(self)
        if isinstance(self.demand_profile, DemandProfile):
            return  # a view of a table checked already, by the column pass or below
        phases = tuple(self.demand_profile)
        if not phases:
            raise ValueError("demandProfile must have at least one phase")
        if phases[0].start_epoch != 0:
            raise ValueError("demandProfile phase 0 must start at epoch 0")
        starts = [ph.start_epoch for ph in phases]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("demandProfile phases must have strictly increasing startEpoch")
        demand = [[getattr(ph, name) for ph in phases] for name in _DEMAND_COLUMNS]
        columns = _frozen(np.array(starts, dtype=np.int64)), _frozen(np.array(demand, dtype=float))
        object.__setattr__(self, "demand_profile", DemandProfile(*columns, 0, len(phases)))


# The float columns of a ``VmdkTable``, in the order ``_read_vmdks`` reads them.
_VMDK_NUMBERS = ("size_gb", "sla_weight", "truth_slope", "truth_intercept_us")


@dataclass(frozen=True, eq=False, repr=False)
class VmdkTable(_Columns, _TupleView):
    """Every VMDK of a scenario as read-only columns, one row per VMDK in given order.

    ``id``, ``vm_id`` and ``initial_tier`` are tuples, the ``_VMDK_NUMBERS``
    float arrays. Every demand phase is held here once, in document order:
    ``start_epoch`` (int64, (P,)) and ``demand`` ((3, P): demand, read
    fraction and I/O size), and row i's profile is phases ``offsets[i]`` up
    to ``offsets[i + 1]``. Reading item i builds its ``VmdkSpec`` and that
    ``DemandProfile`` view.
    """

    id: tuple[str, ...]
    vm_id: tuple[str, ...]
    size_gb: np.ndarray
    sla_weight: np.ndarray
    truth_slope: np.ndarray
    truth_intercept_us: np.ndarray
    initial_tier: tuple[int, ...]
    start_epoch: np.ndarray
    demand: np.ndarray
    offsets: np.ndarray

    @classmethod
    def of(cls, specs: Iterable[VmdkSpec]) -> "VmdkTable":
        """The table of ``specs`` in their order, the rows their profiles view joined."""
        specs = tuple(specs)
        profiles = [spec.demand_profile for spec in specs]
        starts = [p.start_epoch[p.first:p.stop] for p in profiles]
        demand = [p.demand[:, p.first:p.stop] for p in profiles]
        column = lambda name: tuple(map(attrgetter(name), specs))
        return cls(
            id=column("id"), vm_id=column("vm_id"),
            **{name: np.array(column(name), dtype=float) for name in _VMDK_NUMBERS},
            initial_tier=column("initial_tier"),
            start_epoch=np.concatenate([np.zeros(0, np.int64), *starts]),
            demand=np.concatenate([np.zeros((3, 0)), *demand], axis=1),
            offsets=np.fromiter(accumulate(map(len, profiles), initial=0), np.intp, len(specs) + 1),
        )

    def __len__(self) -> int:
        return len(self.id)

    def _item(self, i: int) -> VmdkSpec:
        size, sla, slope, intercept = (getattr(self, n)[i].item() for n in _VMDK_NUMBERS)
        profile = DemandProfile(self.start_epoch, self.demand, *self.offsets[i:i + 2].tolist())
        return VmdkSpec(self.id[i], size, self.initial_tier[i], slope, intercept, profile,
                        self.vm_id[i], sla)


@dataclass(frozen=True, eq=False)
class CalibrationFits:
    """Regression output of one monitor epoch's calibration, one row per VMDK.

    ``m``, ``b``, ``confidence`` and ``mean_cv`` are (N,) arrays whose
    rows follow the fleet's VMDK rows. ``m`` is the raw fitted slope
    (kept even if negative); predictions use ``prediction_slope``, which
    clamps at zero since a VMDK cannot speed up when its device slows down.
    A record equals and hashes as itself alone, as its array fields give no
    single truth value.
    """

    m: np.ndarray
    b: np.ndarray
    confidence: np.ndarray
    mean_cv: np.ndarray

    def __post_init__(self) -> None:
        shape = self.m.shape
        if len(shape) != 1 or not (shape == self.b.shape == self.confidence.shape
                                   == self.mean_cv.shape):
            raise ValueError("calibration fits need one row per VMDK")
        if not 0.0 < self.confidence.min(initial=1.0) <= self.confidence.max(initial=1.0) <= 1.0:
            raise ValueError("confidence out of (0,1]")  # whole-array bounds, which NaN fails
        if not 0.0 <= self.mean_cv.min(initial=0.0) <= self.mean_cv.max(initial=0.0) < math.inf:
            bad = ~(np.isfinite(self.mean_cv) & (self.mean_cv >= 0))
            value = float(self.mean_cv[bad.argmax()])
            raise ValueError(f"meanCv must be a finite non-negative number, got {value}")

    @property
    def prediction_slope(self) -> np.ndarray:
        return np.maximum(self.m, 0.0)


@dataclass(frozen=True, eq=False)
class CapacityMatrices:
    """Predicted absolute usage, normalized ratios and feasibility per (tier, vmdk).

    ``cap`` and ``ratio`` are (T, N, 3) float arrays whose last axis holds the
    p, b, s components; ``feasible`` is a (T, N) bool array. The axes follow
    the fleet's tier and VMDK rows. ``policy.normalize_and_gate`` builds the
    record whole from ``cap`` and the tier budgets.
    """

    cap: np.ndarray
    ratio: np.ndarray
    feasible: np.ndarray


DEFAULT_INJECTED_LATENCIES_US = (0.0, 500.0, 1000.0, 2000.0, 4000.0)


def latency_norm(latencies: Iterable[float]) -> float:
    """sqrt(sum(d * d)) of a probe plan, the norm the fit scales its latency column by.

    The squares add left to right in ascending order, as ``np.polyfit`` sums
    them. A norm of 0.0 (every square underflows), inf (a square or their
    sum overflows) or NaN (a latency is NaN) cannot scale the column, and
    raises ValueError.
    """
    total = 0.0
    for d in sorted(latencies):
        total += d * d
    norm = math.sqrt(total)
    if math.isnan(norm):
        raise ValueError("injectedLatenciesUs holds NaN, so the fit cannot scale them")
    if norm == 0.0:
        raise ValueError("injectedLatenciesUs too close to 0: every square underflows, "
                         "so the fit cannot scale them")
    if norm == math.inf:
        raise ValueError("injectedLatenciesUs too large: a square overflows, "
                         "so the fit cannot scale them")
    return norm


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
        _check_fields(self)
        if self.migration_epoch < self.monitor_epoch:
            raise ValueError("migrationEpoch must be >= monitorEpoch")
        _require_int64("migrationEpoch", self.migration_epoch)
        if self.migration_epoch % self.monitor_epoch != 0:
            raise ValueError("migrationEpoch must be a multiple of monitorEpoch")
        if len(self.injected_latencies_us) < 2:
            raise ValueError("need at least two injected latencies")
        if any(d < 0 for d in self.injected_latencies_us):
            raise ValueError("injected latencies must be non-negative")
        if len(set(self.injected_latencies_us)) != len(self.injected_latencies_us):
            raise ValueError("injected latencies must be distinct")
        latency_norm(self.injected_latencies_us)  # the fit scales by it: refuses 0.0, inf and NaN
        _require_int64("samplesPerLatency", self.samples_per_latency)


@dataclass(frozen=True)
class SimulationConfig:
    epochs: int
    epoch_seconds: float = 300.0
    noise_cv: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        _check_fields(self)
        _require_int64("epochs", self.epochs)


# The most calibration samples (VMDKs x injected latencies x samples per
# latency) a monitor epoch may draw; ``probe_latencies`` holds 128 MiB at it.
MAX_PROBE_SAMPLES = 2**24
# The most VMDK-epochs (epochs x VMDKs) a run may take, so that every
# accepted run ends in useful time; its record holds 16 MiB of flags at it.
MAX_RUN_VMDK_EPOCHS = 2**24


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: tiers plus VMDKs plus all run tunables.

    ``vmdks`` is always a ``VmdkTable``; specs given in Python are gathered
    into one, so every scenario is checked, run and written from one form.
    Safe to share read-only across concurrent runs. ``roster`` is built on
    first use and then serves every run of this object; it is no field, so
    it stays out of ``==``, ``repr``, the document and pickles, and
    ``dataclasses.replace`` gives the new scenario a roster of its own.
    """

    tiers: tuple[TierSpec, ...]
    vmdks: VmdkTable
    # Factories, since a spec built here, before SCHEMA exists, could not be checked.
    weights: PolicyWeights = field(default_factory=PolicyWeights)
    sim: SimulationConfig = field(default_factory=lambda: SimulationConfig(epochs=0))
    # Format version of the document; the reader accepts SCHEMA_VERSION only.
    schema_version: InitVar[int] = SCHEMA_VERSION

    def __post_init__(self, schema_version: int) -> None:
        if not isinstance(self.vmdks, VmdkTable):
            object.__setattr__(self, "vmdks", VmdkTable.of(self.vmdks))
        problems = cross_checks(self.tiers, self.vmdks)
        weights = self.weights
        grid = (len(self.vmdks), len(weights.injected_latencies_us), weights.samples_per_latency)
        if math.prod(grid) > MAX_PROBE_SAMPLES:
            problems.append("policyWeights.samplesPerLatency: {} VMDKs x {} injected latencies x "
                            "{} samples exceed {} per monitor epoch".format(*grid, MAX_PROBE_SAMPLES))
        run = (self.sim.epochs, len(self.vmdks))
        if math.prod(run) > MAX_RUN_VMDK_EPOCHS:
            problems.append("simulation.epochs: {} epochs x {} VMDKs exceed {} VMDK-epochs "
                            "per run".format(*run, MAX_RUN_VMDK_EPOCHS))
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


def cross_checks(tiers: Sequence[TierSpec], vmdks: VmdkTable) -> list[str]:
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
    for i, (vmdk_id, tier) in enumerate(zip(vmdks.id, vmdks.initial_tier)):
        if vmdk_id in seen:
            problems.append(f"vmdks[{i}].id: duplicate vmdk id {vmdk_id!r}")
        seen.add(vmdk_id)
        if tier not in tier_ids:
            problems.append(f"vmdks[{i}].initialTier: tier {tier} does not exist")
    return problems


# The log's columns, the fleet row of each order's VMDK first, with their dtypes.
_ORDER_COLUMNS = (
    ("row", np.intp), ("from_tier", np.int64), ("to_tier", np.int64), ("bytes_total", float),
    ("started_epoch", np.int64), ("bytes_moved", float), ("speed_mbps", float), ("stalled", bool),
)


def _column(name: str) -> property:
    """A ``MigrationLog`` column: the filled prefix of the log's buffer for it."""
    return property(lambda log: log._buffers[name][:log._size])


class MigrationLog:
    """Every migration a run started, in start order, held as (M,) columns.

    ``row`` is the fleet row of each order's VMDK (``ids`` names it); the
    other columns are each order's source and destination tier ids, bytes
    total, start epoch, bytes moved, speed in MB/s and stall flag. The log
    is the run's only record of each order's progress: ``append`` adds one
    plan's started orders at once, and ``set_progress`` writes the bytes
    moved, speed and stall flag of the orders the engine advanced. Each
    column reads the filled prefix of a buffer whose capacity doubles when
    an append outgrows it, so an append writes only its own block.
    """

    row, from_tier, to_tier, bytes_total, started_epoch, bytes_moved, speed_mbps, stalled = (
        _column(name) for name, _ in _ORDER_COLUMNS
    )

    def __init__(self, ids: Sequence[str] = ()):
        self.ids = tuple(ids)
        self._size = 0
        self._buffers = {name: np.zeros(0, dtype=dtype) for name, dtype in _ORDER_COLUMNS}

    def __len__(self) -> int:
        return self._size

    def append(
        self, rows: np.ndarray, from_tier: np.ndarray, to_tier: np.ndarray,
        bytes_total: np.ndarray, epoch: int,
    ) -> np.ndarray:
        """Log one block of orders started at ``epoch``; returns their log indices."""
        if np.equal(from_tier, to_tier).any():
            raise ValueError("migration must change tiers")
        if not np.greater(bytes_total, 0).all():
            raise ValueError("bytesTotal must be positive")
        start, end = self._size, self._size + len(rows)
        for name, buffer in self._buffers.items():
            if end > len(buffer):
                self._buffers[name] = np.zeros(max(end, 2 * len(buffer)), dtype=buffer.dtype)
                self._buffers[name][:start] = buffer[:start]
        block = (rows, from_tier, to_tier, bytes_total, epoch, 0.0, 0.0, False)
        for buffer, part in zip(self._buffers.values(), block):
            np.copyto(buffer[start:end], part, casting="same_kind")
        self._size = end
        return np.arange(start, end)

    def set_progress(self, k: np.ndarray, bytes_moved: Any, speed_mbps: Any, stalled: Any) -> None:
        """Write the bytes moved, speed and stall flag of orders ``k``, checked first."""
        total = self.bytes_total[k]  # append checked the tiers and totals, which nothing changes
        if not (np.less_equal(0.0, bytes_moved) & np.less_equal(bytes_moved, total)).all():
            raise ValueError("bytesMoved out of [0, bytesTotal]")
        self.bytes_moved[k] = bytes_moved
        self.speed_mbps[k] = speed_mbps
        self.stalled[k] = stalled

    def total_migrated_bytes(self) -> float:
        """Bytes moved over every order, added left to right in log order; int 0 if none."""
        if not len(self.row):
            return 0
        return float(np.add.accumulate(np.concatenate(([0.0], self.bytes_moved)))[-1])

    def migrated_vmdk_ids(self) -> tuple[str, ...]:
        """Each VMDK with an order, once, in id order (the order of the fleet's rows)."""
        rows = np.flatnonzero(np.bincount(self.row, minlength=len(self.ids)))
        return tuple(map(self.ids.__getitem__, rows.tolist()))

    def unfinished(self) -> int:
        """Orders whose bytes moved fall short of their bytes total."""
        return int(np.count_nonzero(~(self.bytes_moved >= self.bytes_total)))


@dataclass(frozen=True, eq=False)
class Roster(_Columns):
    """Everything a run's start takes from the VMDKs and tiers alone, built once per scenario.

    VMDK rows are in id order (``ids``, and ``row`` mapping an id to its
    row) with the ``VmdkTable``'s float columns and ``initial_tier_row``,
    each VMDK's initial tier as a row of ``tiers``. Tier rows follow
    ``tiers`` and hold every tier number the epoch loop reads (see
    ``Fleet``); ``device_caps`` stacks the four serve caps as one (4, T)
    array, read and write throughput, then read and write bandwidth. The
    (3, P) ``phase_table`` is the table's own ``demand``, shared and not
    copied, its phases in document order; ``first_phase`` holds each row's
    phase 0 in it, and ``due`` maps an epoch to the rows whose next phase
    starts then and that phase's index in it. Every array is read-only and
    every map a ``MappingProxyType``, so one roster serves any number of
    runs, concurrent ones too.
    """

    ids: tuple[str, ...]
    row: Mapping[str, int]
    tiers: tuple[TierSpec, ...]
    tier_ids: np.ndarray
    initial_tier_row: np.ndarray
    budget: np.ndarray
    base_latency_us: np.ndarray
    device_caps: np.ndarray
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
    def of(cls, vmdks: VmdkTable, tiers: Sequence[TierSpec]) -> "Roster":
        """The roster of ``vmdks``, its rows sorted by id, on ``tiers``."""
        n = len(vmdks)
        order = np.array(sorted(range(n), key=vmdks.id.__getitem__), dtype=np.intp)
        ids = tuple(map(vmdks.id.__getitem__, order.tolist()))
        row_of_tier = {t.id: i for i, t in enumerate(tiers)}
        # Each phase's fleet row: its profile's table row, through the inverse of ``order``.
        owner = np.repeat(np.argsort(order), np.diff(vmdks.offsets))
        start = vmdks.start_epoch
        # Phase 0 starts at epoch 0 and every later phase after it.
        later = np.flatnonzero(start > 0)
        later = later[np.argsort(start[later], kind="stable")]
        epochs, cuts = np.unique(start[later], return_index=True)
        column = lambda name: np.fromiter(map(attrgetter(name), tiers), float, len(tiers))
        caps = ("read_throughput_cap", "write_throughput_cap", "read_bandwidth_cap",
                "write_bandwidth_cap")
        initial = np.fromiter(map(row_of_tier.__getitem__, vmdks.initial_tier), np.intp, n)
        return cls(
            ids=ids,
            row=MappingProxyType(dict(zip(ids, range(n)))),
            tiers=tuple(tiers),
            tier_ids=np.array([t.id for t in tiers], dtype=np.int64),
            initial_tier_row=initial[order],
            budget=np.array([astuple(t.max_usable()) for t in tiers], dtype=float),
            base_latency_us=column("base_latency_us"),
            device_caps=np.stack([column(name) for name in caps]),
            mig_weight=column("mig_weight"),
            match_mask=np.array([
                [f * w for f, w in zip(astuple(t.specialty), astuple(t.kind_weights))]
                for t in tiers
            ], dtype=float),
            kind_weight_total=np.array([float(t.kind_weights.total()) for t in tiers]),
            **{name: getattr(vmdks, name)[order] for name in _VMDK_NUMBERS},
            phase_table=vmdks.demand,
            first_phase=vmdks.offsets[order],
            due=MappingProxyType({
                e: (_frozen(owner[k]), _frozen(k))
                for e, k in zip(epochs.tolist(), np.split(later, cuts[1:]))
            }),
        )


@dataclass(eq=False)
class Fleet:
    """The state of one run: its scenario's ``roster`` and the columns the run writes.

    Every static fact is read from ``roster``, shared read-only by every
    run of its scenario; the fleet's own arrays belong to this run alone.
    VMDK rows follow ``roster.ids``: ``tier_row`` (each VMDK's current tier
    as a row of ``roster.tiers``), ``dest_row`` (the tier row its in-flight
    migration lands on, -1 when it has none), the active phase's (3, N)
    ``demand`` in ``_DEMAND_COLUMNS`` rows, C-ordered so each row is
    contiguous (the run's only record of the phase), and the last epoch's
    ``measured_iops``, ``measured_latency_us`` and (2, N) read and write
    ``measured_mbps``. An in-flight migration moves ``size_gb * 1e9``
    bytes from ``tier_row`` to ``dest_row``; ``order_index`` is its index
    in the run's ``MigrationLog`` (-1 for a VMDK that has none), which
    alone holds its progress.

    Tier rows follow ``roster.tiers``. Each device's ``contention``
    inflates the latency probes see, and the (2, T) read and write
    ``spare_mbps`` are its bandwidth caps less last epoch's served MB/s
    and migration debits, never below 0.0; serving writes those and the
    measurements in place. Policies read a ``read_only`` view.
    """

    roster: Roster
    tier_row: np.ndarray
    dest_row: np.ndarray
    order_index: np.ndarray
    contention: np.ndarray
    spare_mbps: np.ndarray
    demand: np.ndarray
    measured_iops: np.ndarray
    measured_latency_us: np.ndarray
    measured_mbps: np.ndarray

    @classmethod
    def of(cls, roster: Roster) -> "Fleet":
        """A run's start: each VMDK on its initial tier in phase 0, unmeasured."""
        n, t = len(roster.ids), len(roster.tiers)
        return cls(
            roster=roster,
            tier_row=roster.initial_tier_row.copy(),
            dest_row=np.full(n, -1, dtype=np.intp),
            order_index=np.full(n, -1, dtype=np.intp),
            contention=np.ones(t),
            spare_mbps=roster.device_caps[2:].copy(),
            demand=roster.phase_table.take(roster.first_phase, axis=1),
            measured_iops=np.zeros(n),
            measured_latency_us=np.zeros(n),
            measured_mbps=np.zeros((2, n)),
        )

    def read_only(self) -> "Fleet":
        """A view that follows this fleet but refuses writes to its arrays; the roster as is."""
        run_columns = (f.name for f in fields(self) if f.name != "roster")
        return replace(self, **{name: _frozen(getattr(self, name).view()) for name in run_columns})

    def activate_phases(self, epoch: int) -> None:
        """Apply every phase that starts at ``epoch``, copying its table row."""
        hit = self.roster.due.get(epoch)
        if hit is not None:
            rows, k = hit
            self.demand[:, rows] = self.roster.phase_table[:, k]

    def move(self, rows: np.ndarray) -> None:
        """Land the in-flight migrations of ``rows`` on their ``dest_row`` and clear them."""
        self.tier_row[rows] = self.dest_row[rows]
        self.dest_row[rows] = -1
        self.order_index[rows] = -1


# --- scenario document schema ------------------------------------------------
#
# One table per spec type holds the whole document format. Each row is
# (JSON key, constructor argument, reader, default, rule), in document order:
# the order diagnostics are reported in and serialization writes. A reader
# turns a JSON value into the constructor argument or raises _Invalid; readers
# of nested objects report their own fields' problems into ``errors``. The
# default says what a missing key means: REQUIRED reports it, OPTIONAL keeps
# the dataclass default, and None reads it as JSON null, which the readers of
# non-empty values refuse with their own "required ..." diagnostic. The rule
# is the field's range (a ``Rule``) or None: the spec's ``__post_init__``
# applies it, and the column pass reads its ranges from it.

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


def _list_of(
    cls: type, read_all: Callable[[list[Any]], Sequence[Any] | None] | None = None,
) -> Reader:
    """Reader of a non-empty list of ``cls`` objects; an element that fails is left out.

    ``read_all``, when given, builds every element of a list it reads whole,
    or returns None; then each element is read by itself with
    ``SCHEMA[cls]``, whose readers report its diagnostics.
    """

    def read(value: Any, path: str, key: str, errors: list[str]) -> Sequence[Any]:
        if not isinstance(value, list) or not value:
            raise _Invalid("required non-empty list")
        built = read_all(value) if read_all else None
        if built is not None:
            return built
        where = _at(path, key)
        items = (_build(cls, item, f"{where}[{i}]", errors) for i, item in enumerate(value))
        return tuple(x for x in items if x is not None)

    return read


def _columns(items: list[Any], cls: type) -> dict[str, list[Any]] | None:
    """Each ``SCHEMA[cls]`` field of ``items`` as a column, by constructor argument, or None.

    None unless each item is a dict with ``cls``'s keys alone and every
    required one; an optional key left out reads as its dataclass default.
    """
    if set(map(type, items)) != {dict}:
        return None
    defaults = {f.name: f.default for f in fields(cls)}
    columns, known = {}, 0
    for key, arg, _, default, _ in SCHEMA[cls]:
        if default is OPTIONAL:
            columns[arg] = list(map(dict.get, items, repeat(key), repeat(defaults[arg])))
            known += sum(map(contains, items, repeat(key)))
            continue
        try:
            columns[arg] = list(map(itemgetter(key), items))
        except KeyError:
            return None
        known += len(items)
    # Each key past the schema's is an unknown one.
    return columns if sum(map(len, items)) == known else None


def _read_profiles(profiles: list[Any]) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Every given demand profile read in one column pass, or None: ``(start, demand, offsets)``.

    Profile i is phases ``offsets[i]`` up to ``offsets[i + 1]`` of the
    int64 ``start`` and the (3, P) ``demand``. The pass
    reads only plain, valid profiles: each a non-empty list of objects with
    the phase keys alone, each start a Python int within int64 and each
    other value an int or float within the float range, and every check the
    phase readers, ``WorkloadPhase`` and ``VmdkSpec`` make passed.
    """
    if set(map(type, profiles)) != {list} or not all(profiles):
        return None
    flat = list(chain.from_iterable(profiles))
    columns = _columns(flat, WorkloadPhase)
    if columns is None:
        return None
    starts = columns["start_epoch"]
    values = list(chain.from_iterable(map(columns.get, _DEMAND_COLUMNS)))
    if set(map(type, starts)) != {int} or not set(map(type, values)) <= {int, float}:
        return None
    try:
        start = np.fromiter(starts, np.int64, len(starts))
        demand = np.fromiter(values, float, len(values)).reshape(3, len(flat))
    except OverflowError:
        return None
    offsets = np.fromiter(accumulate(map(len, profiles), initial=0), np.intp, len(profiles) + 1)
    first = offsets[:-1]
    # Phase 0 starts at epoch 0 and each later phase after the one before.
    rising = np.empty(len(flat), dtype=bool)
    rising[1:] = start[1:] > start[:-1]
    rising[first] = start[first] == 0
    inside = (demand >= _DEMAND_RANGE[0]) & (demand <= _DEMAND_RANGE[1])
    if not (rising.all() and inside.all()):
        return None
    return start, demand, offsets


def _read_vmdks(vmdks: list[Any]) -> VmdkTable | None:
    """Every VMDK of a plain list read in one column pass into a ``VmdkTable``, or None.

    Plain means each item an object with the ``VmdkSpec`` keys alone and
    every required one, its ``id`` a non-empty string, its ``vmId`` a
    string, its ``initialTier`` an int (not a bool) of at least 1, each
    other number an int or float within the float range, and its demand
    profile plain to ``_read_profiles``; each number column then passes
    ``VmdkSpec``'s range checks, made once per column. On None the list is
    read item by item by ``SCHEMA[VmdkSpec]``, whose readers word every
    diagnostic.
    """
    columns = _columns(vmdks, VmdkSpec)
    if columns is None:
        return None
    ids, tiers = columns["id"], columns["initial_tier"]
    numbers = list(chain.from_iterable(map(columns.get, _VMDK_NUMBERS)))
    if (
        set(map(type, ids + columns["vm_id"])) != {str} or not all(ids)
        or set(map(type, tiers)) != {int} or min(tiers) < _LEAST_TIER
        or not set(map(type, numbers)) <= {int, float}
    ):
        return None
    profiles = _read_profiles(columns["demand_profile"])
    try:
        block = np.fromiter(numbers, float, len(numbers)).reshape(len(_VMDK_NUMBERS), -1)
    except OverflowError:
        return None
    if profiles is None or not ((block >= _VMDK_RANGE[0]) & (block <= _VMDK_RANGE[1])).all():
        return None
    return VmdkTable(tuple(ids), tuple(columns["vm_id"]), *block, tuple(tiers), *profiles)


SCHEMA: dict[type, tuple[tuple[str, str, Reader, Any, Rule | None], ...]] = {
    ResourceVector: (
        ("p", "p", _component, OPTIONAL, NONNEG),
        ("b", "b", _component, OPTIONAL, NONNEG),
        ("s", "s", _component, OPTIONAL, NONNEG),
    ),
    TierSpec: (
        ("id", "id", _integer, REQUIRED, (1, math.inf, "tier id must be >= 1")),
        ("name", "name", _name, None, None),
        ("baseLatencyUs", "base_latency_us", _number, REQUIRED, POSITIVE),
        ("capacity", "capacity", _vector, REQUIRED, None),
        ("readThroughputCap", "read_throughput_cap", _number, REQUIRED, SERVE_CAP),
        ("writeThroughputCap", "write_throughput_cap", _number, REQUIRED, SERVE_CAP),
        ("readBandwidthCap", "read_bandwidth_cap", _number, REQUIRED, SERVE_CAP),
        ("writeBandwidthCap", "write_bandwidth_cap", _number, REQUIRED, SERVE_CAP),
        ("specialty", "specialty", _vector, OPTIONAL, None),
        ("kindWeights", "kind_weights", _vector, OPTIONAL, None),
        ("migWeight", "mig_weight", _number, OPTIONAL, NONNEG),
        ("caps", "caps", _vector, OPTIONAL, None),
    ),
    WorkloadPhase: (
        ("startEpoch", "start_epoch", _integer, REQUIRED, AT_LEAST_0),
        ("demandIops", "demand_iops", _number, REQUIRED, NONNEG),
        ("avgIoSizeBytes", "avg_io_size_bytes", _number, REQUIRED, POSITIVE),
        ("readFraction", "read_fraction", _number, OPTIONAL, FRACTION),
    ),
    VmdkSpec: (
        ("id", "id", _name, None, None),
        ("vmId", "vm_id", _string, OPTIONAL, None),
        ("sizeGb", "size_gb", _number, REQUIRED, POSITIVE),
        ("slaWeight", "sla_weight", _number, OPTIONAL, POSITIVE),
        ("initialTier", "initial_tier", _integer, REQUIRED, AT_LEAST_1),
        ("truthSlope", "truth_slope", _number, REQUIRED, NONNEG),
        ("truthInterceptUs", "truth_intercept_us", _number, REQUIRED, POSITIVE),
        ("demandProfile", "demand_profile", _list_of(WorkloadPhase), None, None),
    ),
    PolicyWeights: (
        ("alpha", "alpha", _vector, OPTIONAL, None),
        ("beta", "beta", _number, OPTIONAL, NONNEG),
        ("agingFactor", "aging_factor", _number, OPTIONAL, BELOW_ONE),
        ("monitorEpoch", "monitor_epoch", _integer, OPTIONAL, AT_LEAST_1),
        ("migrationEpoch", "migration_epoch", _integer, OPTIONAL, None),
        ("confidenceFloor", "confidence_floor", _number, OPTIONAL, ABOVE_ZERO),
        ("injectedLatenciesUs", "injected_latencies_us", _latencies, OPTIONAL, None),
        ("samplesPerLatency", "samples_per_latency", _integer, OPTIONAL, AT_LEAST_1),
    ),
    SimulationConfig: (
        ("epochs", "epochs", _integer, REQUIRED, AT_LEAST_0),
        ("epochSeconds", "epoch_seconds", _number, OPTIONAL, POSITIVE),
        ("noiseCv", "noise_cv", _number, OPTIONAL, NONNEG),
        ("seed", "seed", _integer, OPTIONAL, AT_LEAST_0),
    ),
    Scenario: (
        ("schemaVersion", "schema_version", _version, None, None),
        ("tiers", "tiers", _list_of(TierSpec), None, None),
        ("vmdks", "vmdks", _list_of(VmdkSpec, _read_vmdks), None, None),
        ("policyWeights", "weights", _object(PolicyWeights), OPTIONAL, None),
        ("simulation", "sim", _object(SimulationConfig), OPTIONAL, None),
    ),
}
_KEYS = {cls: frozenset(row[0] for row in rows) for cls, rows in SCHEMA.items()}
_RULES = {(cls, row[1]): row[4] for cls, rows in SCHEMA.items() for row in rows}
# ``_check_fields``'s (key, argument, is an integer, *rule) per row that checks something.
_CHECKED = {cls: tuple((key, arg, read is _integer, *(rule or (-math.inf, math.inf, "")))
                       for key, arg, read, _, rule in rows if read is _integer or rule)
            for cls, rows in SCHEMA.items()}
# The column pass's (2, K, 1) lows and highs, read once from the rules the specs apply.
_DEMAND_RANGE, _VMDK_RANGE = (
    np.array([[[_RULES[cls, arg][end]] for arg in args] for end in (0, 1)])
    for cls, args in ((WorkloadPhase, _DEMAND_COLUMNS), (VmdkSpec, _VMDK_NUMBERS))
)
_LEAST_TIER = _RULES[VmdkSpec, "initial_tier"][0]


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
    for key, arg, read, default, _ in SCHEMA[cls]:
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
