"""Shared domain types for the multi-tier placement simulator.

Units are fixed across the package: latency in microseconds, throughput in
IOPS, bandwidth in MB/s (10^6 bytes/s), storage in GB (10^9 bytes).
All spec types are immutable after construction; the mutable per-run state
(VmdkState, TierState, MigrationOrder) is owned by a single simulation run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

GB_BYTES = 1e9
MB_BYTES = 1e6


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

    Components are non-negative and finite. Addition and component-wise
    comparison are defined; multiplication is component-wise (used for
    masking and weighting).
    """

    p: float = 0.0
    b: float = 0.0
    s: float = 0.0

    def __post_init__(self) -> None:
        _require_finite_nonneg("p", self.p)
        _require_finite_nonneg("b", self.b)
        _require_finite_nonneg("s", self.s)

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.p + other.p, self.b + other.b, self.s + other.s)

    def __mul__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.p * other.p, self.b * other.b, self.s * other.s)

    def total(self) -> float:
        return self.p + self.b + self.s

    def fits_within(self, other: "ResourceVector", slack: float = 0.0) -> bool:
        """Component-wise <=, with optional absolute slack per component."""
        return (
            self.p <= other.p + slack
            and self.b <= other.b + slack
            and self.s <= other.s + slack
        )

    def as_dict(self) -> dict[str, float]:
        return {"p": self.p, "b": self.b, "s": self.s}


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
        if self.kind_weights.total() <= 0:
            raise ValueError("kind weights must sum to a positive value")
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
    vm_id: str
    size_gb: float
    sla_weight: float
    initial_tier: int
    truth_slope: float
    truth_intercept_us: float
    demand_profile: tuple[WorkloadPhase, ...]

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

    def phase_at(self, epoch: int) -> WorkloadPhase:
        active = self.demand_profile[0]
        for phase in self.demand_profile[1:]:
            if phase.start_epoch <= epoch:
                active = phase
            else:
                break
        return active


@dataclass(frozen=True)
class CalibrationFits:
    """Regression output of one monitor epoch's calibration, one row per VMDK.

    ``m``, ``b``, ``confidence``, ``sample_count`` and ``mean_cv`` are (N,)
    arrays whose rows follow ``vmdk_ids``. ``m`` is the raw fitted slope
    (kept even if negative); predictions use ``prediction_slope``, which
    clamps at zero since a VMDK cannot speed up when its device slows down.
    """

    vmdk_ids: tuple[str, ...]
    m: np.ndarray
    b: np.ndarray
    confidence: np.ndarray
    sample_count: np.ndarray
    mean_cv: np.ndarray

    def __post_init__(self) -> None:
        rows = (len(self.vmdk_ids),)
        for column in (self.m, self.b, self.confidence, self.sample_count, self.mean_cv):
            if column.shape != rows:
                raise ValueError("calibration fits need one row per VMDK")
        if not ((self.confidence > 0.0) & (self.confidence <= 1.0)).all():
            raise ValueError("confidence out of (0,1]")
        if (self.sample_count < 1).any():
            raise ValueError("sampleCount must be >= 1")
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
    p, b, s components; ``feasible`` is a (T, N) bool array. Axis order follows
    ``tier_ids`` and ``vmdk_ids``. ``ratio`` and ``feasible`` stay None until
    the matrices are normalized against the tier budgets.
    """

    tier_ids: tuple[int, ...]
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
    # Alternative reading of the score normalization: divide by the summed
    # weights of specialty-active kinds only. Defaults to the printed form
    # (all kind weights).
    normalize_by_active_weights: bool = False

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

    Safe to share read-only across concurrent runs.
    """

    tiers: tuple[TierSpec, ...]
    vmdks: tuple[VmdkSpec, ...]
    weights: PolicyWeights = PolicyWeights()
    sim: SimulationConfig = SimulationConfig(epochs=0)

    def __post_init__(self) -> None:
        problems = cross_checks(self.tiers, self.vmdks)
        if problems:
            raise ScenarioValidationError(problems)

    def tier_by_id(self, tier_id: int) -> TierSpec:
        return self.tiers[tier_id - 1]


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


@dataclass
class MigrationOrder:
    """An in-flight VMDK move; progresses over epochs until bytes_total moved."""

    vmdk_id: str
    from_tier: int
    to_tier: int
    bytes_total: float
    started_epoch: int
    bytes_moved: float = 0.0
    speed_mbps: float = 0.0
    stalled: bool = False

    def __post_init__(self) -> None:
        if self.from_tier == self.to_tier:
            raise ValueError("migration must change tiers")
        if self.bytes_total <= 0:
            raise ValueError("bytesTotal must be positive")
        if not (0.0 <= self.bytes_moved <= self.bytes_total):
            raise ValueError("bytesMoved out of [0, bytesTotal]")

    @property
    def done(self) -> bool:
        return self.bytes_moved >= self.bytes_total


@dataclass
class VmdkState:
    """Run-owned mutable view of one VMDK: placement, active demand, last measurements."""

    spec: VmdkSpec
    current_tier: int
    demand_iops: float = 0.0
    avg_io_size_bytes: float = 4096.0
    read_fraction: float = 1.0
    measured_iops: float = 0.0
    measured_read_mbps: float = 0.0
    measured_write_mbps: float = 0.0
    measured_latency_us: float = 0.0

    @classmethod
    def initial(cls, spec: VmdkSpec) -> "VmdkState":
        state = cls(spec=spec, current_tier=spec.initial_tier)
        state.activate_phase(0)
        return state

    def activate_phase(self, epoch: int) -> None:
        phase = self.spec.phase_at(epoch)
        self.demand_iops = phase.demand_iops
        self.avg_io_size_bytes = phase.avg_io_size_bytes
        self.read_fraction = phase.read_fraction

    @property
    def measured_mbps(self) -> float:
        return self.measured_read_mbps + self.measured_write_mbps


@dataclass
class TierState:
    """Run-owned mutable view of one tier: last-epoch served load."""

    spec: TierSpec
    served_read_mbps: float = 0.0
    served_write_mbps: float = 0.0
    served_read_iops: float = 0.0
    served_write_iops: float = 0.0

    def remaining_read_mbps(self) -> float:
        return max(0.0, self.spec.read_bandwidth_cap - self.served_read_mbps)

    def remaining_write_mbps(self) -> float:
        return max(0.0, self.spec.write_bandwidth_cap - self.served_write_mbps)


# --- document validation -----------------------------------------------------

_TIER_KEYS = {
    "id", "name", "baseLatencyUs", "capacity", "readThroughputCap",
    "writeThroughputCap", "readBandwidthCap", "writeBandwidthCap",
    "specialty", "kindWeights", "migWeight", "caps",
}
_VMDK_KEYS = {
    "id", "vmId", "sizeGb", "slaWeight", "initialTier", "truthSlope",
    "truthInterceptUs", "demandProfile",
}
_PHASE_KEYS = {"startEpoch", "demandIops", "avgIoSizeBytes", "readFraction"}
_WEIGHT_KEYS = {
    "alpha", "beta", "agingFactor", "monitorEpoch", "migrationEpoch",
    "confidenceFloor", "injectedLatenciesUs", "samplesPerLatency",
    "normalizeByActiveWeights",
}
_SIM_KEYS = {"epochs", "epochSeconds", "noiseCv", "seed"}
_TOP_KEYS = {"schemaVersion", "tiers", "vmdks", "policyWeights", "simulation"}

SCHEMA_VERSION = 1


def _unknown_keys(doc: Mapping[str, Any], allowed: set[str], path: str, errors: list[str]) -> None:
    for key in doc:
        if key not in allowed:
            errors.append(f"{path}{key}: unknown field")


def _get_number(doc: Mapping[str, Any], key: str, path: str, errors: list[str],
                default: Any = None, required: bool = False) -> Any:
    if key not in doc:
        if required:
            errors.append(f"{path}{key}: required field missing")
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errors.append(f"{path}{key}: expected a number, got {type(value).__name__}")
        return default
    return value


def _get_int(doc: Mapping[str, Any], key: str, path: str, errors: list[str],
             default: int | None = None, required: bool = False) -> int | None:
    """An integer field; a float must be finite and integral (JSON ``3.0`` is 3)."""
    value = _get_number(doc, key, path, errors, default=None, required=required)
    if value is None:
        return default
    if isinstance(value, float) and not (math.isfinite(value) and value.is_integer()):
        errors.append(f"{path}{key}: expected an integer, got {value!r}")
        return default
    return int(value)


def _is_finite(value: float) -> bool:
    """math.isfinite that also rejects a JSON integer too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _get_vector(doc: Mapping[str, Any], key: str, path: str, errors: list[str],
                default: ResourceVector | None = None,
                required: bool = False) -> ResourceVector | None:
    if key not in doc:
        if required:
            errors.append(f"{path}{key}: required field missing")
        return default
    raw = doc[key]
    if not isinstance(raw, Mapping):
        errors.append(f"{path}{key}: expected an object with p/b/s")
        return default
    _unknown_keys(raw, {"p", "b", "s"}, f"{path}{key}.", errors)
    comps = {}
    for comp in ("p", "b", "s"):
        comps[comp] = _get_number(raw, comp, f"{path}{key}.", errors, default=0.0)
    try:
        return ResourceVector(**comps)
    except ValueError as exc:
        errors.append(f"{path}{key}: {exc}")
        return default


def _build_tier(doc: Mapping[str, Any], path: str, errors: list[str]) -> TierSpec | None:
    if not isinstance(doc, Mapping):
        errors.append(f"{path}: expected an object")
        return None
    _unknown_keys(doc, _TIER_KEYS, f"{path}.", errors)
    before = len(errors)
    tier_id = _get_int(doc, "id", f"{path}.", errors, required=True)
    name = doc.get("name", "")
    if not isinstance(name, str) or not name:
        errors.append(f"{path}.name: required non-empty string")
    base = _get_number(doc, "baseLatencyUs", f"{path}.", errors, required=True)
    capacity = _get_vector(doc, "capacity", f"{path}.", errors, required=True)
    kwargs = {}
    for key, attr in (
        ("readThroughputCap", "read_throughput_cap"),
        ("writeThroughputCap", "write_throughput_cap"),
        ("readBandwidthCap", "read_bandwidth_cap"),
        ("writeBandwidthCap", "write_bandwidth_cap"),
    ):
        kwargs[attr] = _get_number(doc, key, f"{path}.", errors, required=True)
    specialty = _get_vector(doc, "specialty", f"{path}.", errors, default=ResourceVector(1, 1, 1))
    weights = _get_vector(doc, "kindWeights", f"{path}.", errors, default=ResourceVector(1, 1, 1))
    mig_weight = _get_number(doc, "migWeight", f"{path}.", errors, default=1.0)
    caps = _get_vector(doc, "caps", f"{path}.", errors, default=ResourceVector(1, 1, 1))
    if len(errors) > before:
        return None
    try:
        return TierSpec(
            id=tier_id, name=name, base_latency_us=float(base),
            capacity=capacity, specialty=specialty, kind_weights=weights,
            mig_weight=float(mig_weight), caps=caps,
            **{k: float(v) for k, v in kwargs.items()},
        )
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return None


def _build_phase(doc: Mapping[str, Any], path: str, errors: list[str]) -> WorkloadPhase | None:
    if not isinstance(doc, Mapping):
        errors.append(f"{path}: expected an object")
        return None
    _unknown_keys(doc, _PHASE_KEYS, f"{path}.", errors)
    before = len(errors)
    start = _get_int(doc, "startEpoch", f"{path}.", errors, required=True)
    demand = _get_number(doc, "demandIops", f"{path}.", errors, required=True)
    io_size = _get_number(doc, "avgIoSizeBytes", f"{path}.", errors, required=True)
    read_frac = _get_number(doc, "readFraction", f"{path}.", errors, default=1.0)
    if len(errors) > before:
        return None
    try:
        return WorkloadPhase(start, float(demand), float(io_size), float(read_frac))
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return None


def _build_vmdk(doc: Mapping[str, Any], path: str, errors: list[str]) -> VmdkSpec | None:
    if not isinstance(doc, Mapping):
        errors.append(f"{path}: expected an object")
        return None
    _unknown_keys(doc, _VMDK_KEYS, f"{path}.", errors)
    before = len(errors)
    vmdk_id = doc.get("id")
    if not isinstance(vmdk_id, str) or not vmdk_id:
        errors.append(f"{path}.id: required non-empty string")
    vm_id = doc.get("vmId", "")
    if not isinstance(vm_id, str):
        errors.append(f"{path}.vmId: expected a string")
    size = _get_number(doc, "sizeGb", f"{path}.", errors, required=True)
    sla = _get_number(doc, "slaWeight", f"{path}.", errors, default=1.0)
    tier = _get_int(doc, "initialTier", f"{path}.", errors, required=True)
    slope = _get_number(doc, "truthSlope", f"{path}.", errors, required=True)
    intercept = _get_number(doc, "truthInterceptUs", f"{path}.", errors, required=True)
    raw_profile = doc.get("demandProfile")
    phases: list[WorkloadPhase] = []
    if not isinstance(raw_profile, list) or not raw_profile:
        errors.append(f"{path}.demandProfile: required non-empty list")
    else:
        for i, raw_phase in enumerate(raw_profile):
            phase = _build_phase(raw_phase, f"{path}.demandProfile[{i}]", errors)
            if phase is not None:
                phases.append(phase)
    if len(errors) > before:
        return None
    try:
        return VmdkSpec(
            id=vmdk_id, vm_id=vm_id, size_gb=float(size), sla_weight=float(sla),
            initial_tier=tier, truth_slope=float(slope),
            truth_intercept_us=float(intercept), demand_profile=tuple(phases),
        )
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return None


def _build_weights(doc: Mapping[str, Any], errors: list[str]) -> PolicyWeights | None:
    path = "policyWeights"
    if not isinstance(doc, Mapping):
        errors.append(f"{path}: expected an object")
        return None
    _unknown_keys(doc, _WEIGHT_KEYS, f"{path}.", errors)
    before = len(errors)
    defaults = PolicyWeights()
    alpha = _get_vector(doc, "alpha", f"{path}.", errors, default=defaults.alpha)
    beta = _get_number(doc, "beta", f"{path}.", errors, default=defaults.beta)
    aging = _get_number(doc, "agingFactor", f"{path}.", errors, default=defaults.aging_factor)
    monitor = _get_int(doc, "monitorEpoch", f"{path}.", errors, default=defaults.monitor_epoch)
    migration = _get_int(doc, "migrationEpoch", f"{path}.", errors, default=defaults.migration_epoch)
    floor = _get_number(doc, "confidenceFloor", f"{path}.", errors, default=defaults.confidence_floor)
    samples = _get_int(doc, "samplesPerLatency", f"{path}.", errors, default=defaults.samples_per_latency)
    latencies = doc.get("injectedLatenciesUs", list(defaults.injected_latencies_us))
    if not isinstance(latencies, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in latencies
    ):
        errors.append(f"{path}.injectedLatenciesUs: expected a list of numbers")
        latencies = list(defaults.injected_latencies_us)
    elif not all(_is_finite(x) for x in latencies):
        errors.append(f"{path}.injectedLatenciesUs: expected finite numbers, got {latencies!r}")
    normalize = doc.get("normalizeByActiveWeights", defaults.normalize_by_active_weights)
    if not isinstance(normalize, bool):
        errors.append(f"{path}.normalizeByActiveWeights: expected a boolean")
        normalize = defaults.normalize_by_active_weights
    if len(errors) > before:
        return None
    try:
        return PolicyWeights(
            alpha=alpha, beta=float(beta), aging_factor=float(aging),
            monitor_epoch=monitor, migration_epoch=migration,
            confidence_floor=float(floor),
            injected_latencies_us=tuple(float(x) for x in latencies),
            samples_per_latency=samples,
            normalize_by_active_weights=normalize,
        )
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return None


def _build_sim(doc: Mapping[str, Any], errors: list[str]) -> SimulationConfig | None:
    path = "simulation"
    if not isinstance(doc, Mapping):
        errors.append(f"{path}: expected an object")
        return None
    _unknown_keys(doc, _SIM_KEYS, f"{path}.", errors)
    before = len(errors)
    epochs = _get_int(doc, "epochs", f"{path}.", errors, required=True)
    seconds = _get_number(doc, "epochSeconds", f"{path}.", errors, default=300.0)
    noise = _get_number(doc, "noiseCv", f"{path}.", errors, default=0.05)
    seed = _get_int(doc, "seed", f"{path}.", errors, default=0)
    if len(errors) > before:
        return None
    try:
        return SimulationConfig(
            epochs=epochs, epoch_seconds=float(seconds),
            noise_cv=float(noise), seed=seed,
        )
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return None


def validate_scenario(doc: Mapping[str, Any]) -> Scenario:
    """Check every invariant of a parsed scenario document and build a Scenario.

    Collects per-field diagnostics (path-prefixed) instead of aborting on the
    first failure; raises ScenarioValidationError with the aggregate list.
    """
    errors: list[str] = []
    if not isinstance(doc, Mapping):
        raise ScenarioValidationError(["document: expected a top-level object"])
    _unknown_keys(doc, _TOP_KEYS, "", errors)
    version = doc.get("schemaVersion")
    if version != SCHEMA_VERSION:
        errors.append(f"schemaVersion: expected {SCHEMA_VERSION}, got {version!r}")

    tiers: list[TierSpec] = []
    raw_tiers = doc.get("tiers")
    if not isinstance(raw_tiers, list) or not raw_tiers:
        errors.append("tiers: required non-empty list")
    else:
        for i, raw in enumerate(raw_tiers):
            tier = _build_tier(raw, f"tiers[{i}]", errors)
            if tier is not None:
                tiers.append(tier)

    vmdks: list[VmdkSpec] = []
    raw_vmdks = doc.get("vmdks")
    if not isinstance(raw_vmdks, list) or not raw_vmdks:
        errors.append("vmdks: required non-empty list")
    else:
        for i, raw in enumerate(raw_vmdks):
            vmdk = _build_vmdk(raw, f"vmdks[{i}]", errors)
            if vmdk is not None:
                vmdks.append(vmdk)

    weights = _build_weights(doc.get("policyWeights", {}), errors)
    sim = _build_sim(doc.get("simulation", {"epochs": 0}), errors)

    if not errors:
        errors.extend(cross_checks(tiers, vmdks))
    if errors:
        raise ScenarioValidationError(errors)
    assert weights is not None and sim is not None
    return Scenario(tiers=tuple(tiers), vmdks=tuple(vmdks), weights=weights, sim=sim)
