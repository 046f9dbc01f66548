"""Scenario documents, metrics files, CDF emission, and the CLI surface."""

import copy
import inspect
import json
import math
import operator
import os
import subprocess
import sys
import tracemalloc
from dataclasses import MISSING, fields, is_dataclass, replace
from functools import reduce
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import autotier
from autotier import model
from autotier.cli import main
from autotier.engine import run_scenario
from autotier.model import (
    OPTIONAL,
    REQUIRED,
    MAX_PROBE_SAMPLES,
    MAX_RUN_VMDK_EPOCHS,
    SCHEMA,
    DemandProfile,
    MigrationLog,
    PolicyWeights,
    ResourceVector,
    Scenario,
    ScenarioValidationError,
    SimulationConfig,
    TierSpec,
    VmdkSpec,
    VmdkTable,
    WorkloadPhase,
    validate_scenario,
)
from autotier.reporting import (
    RUN_FILES,
    _series_stats,
    cdf_text,
    comparison_dict,
    csv_header,
    emit_cdf,
    metrics_csv_text,
    migrations_dict,
    summary_dict,
    write_run_artifacts,
)
from autotier.scenario import (
    BUNDLED_SCENARIOS,
    bundled_scenario_text,
    load_bundled_scenario,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)

from conftest import make_tier, make_vmdk, random_scenario
from test_golden import scale_document


INTEGER_FIELDS = [
    ("simulation", "epochs"),
    ("simulation", "seed"),
    ("policyWeights", "monitorEpoch"),
    ("policyWeights", "migrationEpoch"),
    ("policyWeights", "samplesPerLatency"),
    ("tiers", 0, "id"),
    ("vmdks", 0, "initialTier"),
    ("vmdks", 0, "demandProfile", 0, "startEpoch"),
]

# The integer fields bounded by int64 (monitorEpoch too, as migrationEpoch
# must be >= monitorEpoch); seed is not, and tier ids and initial tiers are
# checked against the tiers.
BOUNDED_FIELDS = [
    ("simulation", "epochs"),
    ("policyWeights", "migrationEpoch"),
    ("policyWeights", "samplesPerLatency"),
    ("vmdks", 0, "demandProfile", 0, "startEpoch"),
]

FLOAT_FIELDS = [
    *[("tiers", 0, key) for key in (
        "baseLatencyUs", "readThroughputCap", "writeThroughputCap",
        "readBandwidthCap", "writeBandwidthCap", "migWeight",
    )],
    *[("tiers", 0, vector, comp)
      for vector in ("capacity", "specialty", "kindWeights", "caps") for comp in "pbs"],
    *[("vmdks", 0, key) for key in ("sizeGb", "slaWeight", "truthSlope", "truthInterceptUs")],
    *[("vmdks", 0, "demandProfile", 0, key)
      for key in ("demandIops", "avgIoSizeBytes", "readFraction")],
    *[("policyWeights", "alpha", comp) for comp in "pbs"],
    *[("policyWeights", key) for key in ("beta", "agingFactor", "confidenceFloor")],
    *[("simulation", key) for key in ("epochSeconds", "noiseCv")],
]

HUGE_INTEGER = "1" + "0" * 400  # a JSON integer no float can hold


def with_token(location, token, name="tiny-oracle"):
    """Bundled scenario text with the value at ``location`` replaced by a raw JSON token."""
    doc = json.loads(bundled_scenario_text(name))
    node = doc
    for step in location[:-1]:
        node = node[step]
    node[location[-1]] = "PLACEHOLDER"
    return json.dumps(doc).replace('"PLACEHOLDER"', token)


def field_path(location):
    """Diagnostic path of a document location, e.g. vmdks[0].initialTier."""
    return "".join(
        f"[{step}]" if isinstance(step, int) else f".{step}" for step in location
    ).lstrip(".")


class TestParsing:
    def test_bundled_scenario_parses(self):
        scenario = load_bundled_scenario("table3-table4")
        assert len(scenario.tiers) == 3
        assert len(scenario.vmdks) == 14
        assert scenario.tiers[0].name == "nvme-pm953"

    def test_all_bundled_scenarios_parse(self):
        for name in BUNDLED_SCENARIOS:
            scenario = load_bundled_scenario(name)
            assert scenario.sim.epochs > 0

    def test_missing_aging_factor_defaults(self):
        doc = json.loads(bundled_scenario_text("tiny-oracle"))
        del doc["policyWeights"]["agingFactor"]
        scenario = parse_scenario(json.dumps(doc))
        assert scenario.weights.aging_factor == 0.5

    def test_unknown_field_is_named(self):
        doc = json.loads(bundled_scenario_text("tiny-oracle"))
        doc["vmdks"][0]["sizeTb"] = 1
        with pytest.raises(ScenarioValidationError, match="sizeTb: unknown field"):
            parse_scenario(json.dumps(doc))

    def test_syntax_error_reports_position(self):
        with pytest.raises(ScenarioValidationError, match=r"line \d+, column \d+"):
            parse_scenario('{"schemaVersion": 1,,}')

    def test_round_trip_is_identity(self):
        for name in BUNDLED_SCENARIOS:
            first = parse_scenario(bundled_scenario_text(name))
            second = parse_scenario(serialize_scenario(first))
            assert first == second

    def test_missing_file_and_unknown_name(self):
        with pytest.raises(FileNotFoundError):
            load_scenario("/nonexistent/path.json")
        with pytest.raises(KeyError, match="'nope'"):
            bundled_scenario_text("nope")

    def test_a_document_that_is_not_an_object_is_refused(self):
        with pytest.raises(ScenarioValidationError, match="document: expected a top-level object"):
            parse_scenario("[]")

    def test_a_repeated_vmdk_id_is_named(self):
        doc = json.loads(bundled_scenario_text("tiny-oracle"))
        doc["vmdks"][2]["id"] = doc["vmdks"][0]["id"]
        with pytest.raises(ScenarioValidationError, match=r"vmdks\[2\]\.id: duplicate vmdk id 'db'"):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("token", ["1e400", "2.7", "NaN"])
    @pytest.mark.parametrize("location", INTEGER_FIELDS, ids=field_path)
    def test_integer_field_rejects_non_integral_number(self, location, token):
        # raw JSON tokens: 1e400 parses to inf, NaN to nan
        with pytest.raises(ScenarioValidationError) as excinfo:
            parse_scenario(with_token(location, token))
        prefix = f"{field_path(location)}: expected an integer"
        assert any(e.startswith(prefix) for e in excinfo.value.errors), excinfo.value.errors

    def test_schema_version_refuses_a_bool(self):
        with pytest.raises(ScenarioValidationError) as excinfo:
            parse_scenario(with_token(("schemaVersion",), "true"))
        assert excinfo.value.errors == ["schemaVersion: expected a number, got bool"]

    @pytest.mark.parametrize("location", FLOAT_FIELDS, ids=field_path)
    def test_float_field_rejects_integer_too_large_for_a_float(self, location):
        with pytest.raises(ScenarioValidationError) as excinfo:
            parse_scenario(with_token(location, HUGE_INTEGER))
        prefix = f"{field_path(location)}: expected a number, got an integer too large"
        assert any(e.startswith(prefix) for e in excinfo.value.errors), excinfo.value.errors

    def test_integer_field_accepts_integer_too_large_for_a_float(self):
        scenario = parse_scenario(with_token(("simulation", "seed"), HUGE_INTEGER))
        assert scenario.sim.seed == int(HUGE_INTEGER)

    # tiny-oracle probes 6 VMDKs at 5 injected latencies: each sample per latency adds 30.
    @pytest.mark.parametrize("samples", [2**40, 2**63 - 1, MAX_PROBE_SAMPLES // 30 + 1],
                             ids=["2**40", "int64-max", "first-past-the-bound"])
    def test_a_sample_grid_past_the_bound_is_refused_at_parse_unallocated(self, samples):
        doc = json.loads(bundled_scenario_text("tiny-oracle"))
        doc["policyWeights"]["samplesPerLatency"] = samples
        text = json.dumps(doc)
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioValidationError) as excinfo:
                parse_scenario(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert excinfo.value.errors == [
            f"policyWeights.samplesPerLatency: 6 VMDKs x 5 injected latencies x {samples} "
            "samples exceed 16777216 per monitor epoch"
        ]
        assert peak < 2**20  # bytes: nothing the size of the grid was allocated

    def test_a_sample_grid_at_the_bound_parses_and_one_past_it_is_refused_alike(self):
        doc = json.loads(bundled_scenario_text("tiny-oracle"))
        doc["policyWeights"]["samplesPerLatency"] = MAX_PROBE_SAMPLES // 30
        assert parse_scenario(json.dumps(doc)).weights.samples_per_latency == 559240
        # One VMDK at two latencies, built in Python: exactly 2**24 samples at 2**23.
        weights = PolicyWeights(injected_latencies_us=(0.0, 1.0), samples_per_latency=2**23)
        Scenario((make_tier(),), (make_vmdk(),), weights)
        weights = replace(weights, samples_per_latency=2**23 + 1)
        with pytest.raises(ScenarioValidationError) as excinfo:
            Scenario((make_tier(),), (make_vmdk(),), weights)
        assert excinfo.value.errors == [
            "policyWeights.samplesPerLatency: 1 VMDKs x 2 injected latencies x 8388609 samples "
            "exceed 16777216 per monitor epoch"
        ]

    # tiny-oracle holds 6 VMDKs: each epoch adds 6 VMDK-epochs to the run.
    @pytest.mark.parametrize("epochs", [10**10, 2**63 - 1, MAX_RUN_VMDK_EPOCHS // 6 + 1],
                             ids=["1e10", "int64-max", "first-past-the-bound"])
    def test_a_run_past_the_bound_is_refused_at_parse_unallocated(self, epochs):
        doc = json.loads(bundled_scenario_text("tiny-oracle"))
        doc["simulation"]["epochs"] = epochs
        text = json.dumps(doc)
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioValidationError) as excinfo:
                parse_scenario(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert excinfo.value.errors == [
            f"simulation.epochs: {epochs} epochs x 6 VMDKs exceed 16777216 VMDK-epochs per run"
        ]
        assert peak < 2**20  # bytes: nothing the size of the run's record was allocated

    def test_a_run_at_the_bound_parses_and_one_past_it_is_refused_alike(self):
        # Parsed only: an accepted extreme is never run.
        doc = json.loads(bundled_scenario_text("tiny-oracle"))
        doc["simulation"]["epochs"] = MAX_RUN_VMDK_EPOCHS // 6
        assert parse_scenario(json.dumps(doc)).sim.epochs == 2_796_202
        # One VMDK, built in Python: exactly 2**24 VMDK-epochs at 2**24 epochs.
        Scenario((make_tier(),), (make_vmdk(),), sim=SimulationConfig(epochs=2**24))
        with pytest.raises(ScenarioValidationError) as excinfo:
            Scenario((make_tier(),), (make_vmdk(),), sim=SimulationConfig(epochs=2**24 + 1))
        assert excinfo.value.errors == [
            "simulation.epochs: 16777217 epochs x 1 VMDKs exceed 16777216 VMDK-epochs per run"
        ]

    @pytest.mark.parametrize("token", [str(2**63), HUGE_INTEGER], ids=["2**63", "int-1e400"])
    @pytest.mark.parametrize("location", BOUNDED_FIELDS, ids=field_path)
    def test_bounded_integer_field_refuses_a_value_past_int64(self, location, token):
        with pytest.raises(ScenarioValidationError) as excinfo:
            parse_scenario(with_token(location, token))
        assert excinfo.value.errors == [
            f"{field_path(location[:-1])}: {location[-1]} must be <= 9223372036854775807"
        ]

    @pytest.mark.parametrize("text", ["1" * 5000, "[" * 100_000 + "]" * 100_000],
                             ids=["integer-over-digit-limit", "nesting-too-deep"])
    def test_undecodable_json_is_diagnosed(self, text):
        with pytest.raises(ScenarioValidationError, match="^document: "):
            parse_scenario(text)

    def test_cross_checks_run_once_per_parse(self, monkeypatch):
        calls = []
        real = model.cross_checks
        monkeypatch.setattr(model, "cross_checks", lambda *args: calls.append(1) or real(*args))
        parse_scenario(bundled_scenario_text("tiny-oracle"))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "token", ["1e400", "-1e400", "NaN", HUGE_INTEGER],
        ids=["1e400", "-1e400", "NaN", "int-1e400"],
    )
    def test_injected_latencies_reject_non_finite(self, token):
        doc = json.loads(bundled_scenario_text("tiny-oracle"))
        doc.setdefault("policyWeights", {})["injectedLatenciesUs"] = [0, "PLACEHOLDER"]
        text = json.dumps(doc).replace('"PLACEHOLDER"', token)
        with pytest.raises(ScenarioValidationError) as excinfo:
            parse_scenario(text)
        prefix = "policyWeights.injectedLatenciesUs: expected finite numbers"
        assert any(e.startswith(prefix) for e in excinfo.value.errors), excinfo.value.errors

    @pytest.mark.parametrize("plan", [[1e-200, 2e-200], [0, 5e-324]], ids=str)
    def test_injected_latencies_too_close_to_zero_are_diagnosed(self, plan):
        # Every square underflows to 0.0, so an AutoTiering run's fit would
        # fail with a bare LinAlgError at its first monitor epoch.
        doc = json.loads(bundled_scenario_text("tiny-oracle"))
        doc.setdefault("policyWeights", {})["injectedLatenciesUs"] = plan
        with pytest.raises(ScenarioValidationError) as excinfo:
            parse_scenario(json.dumps(doc))
        assert excinfo.value.errors == [
            "policyWeights: injectedLatenciesUs too close to 0: every square underflows, "
            "so the fit cannot scale them"
        ]

    @pytest.mark.parametrize("plan", [[1e155, 2e155], [0, 500, 1.4e154], [1e154, 1.3e154]], ids=str)
    def test_injected_latencies_too_large_are_diagnosed(self, plan):
        # A square, or the sum of the squares, overflows to inf: the fit
        # would scale every slope to 0.0, or the run would die on an inf CV.
        doc = json.loads(bundled_scenario_text("tiny-oracle"))
        doc.setdefault("policyWeights", {})["injectedLatenciesUs"] = plan
        with pytest.raises(ScenarioValidationError) as excinfo:
            parse_scenario(json.dumps(doc))
        assert excinfo.value.errors == [
            "policyWeights: injectedLatenciesUs too large: a square overflows, "
            "so the fit cannot scale them"
        ]

    def test_kind_weights_summing_to_inf_are_diagnosed(self):
        # each weight is finite, but their sum overflows and scores would turn NaN
        doc = json.loads(bundled_scenario_text("table3-table4"))
        doc["tiers"][1]["kindWeights"] = {"p": 1e308, "b": 1e308, "s": 1e308}
        with pytest.raises(ScenarioValidationError) as excinfo:
            parse_scenario(json.dumps(doc))
        assert excinfo.value.errors == [
            "tiers[1]: kind weights must sum to a finite positive value"
        ]

    def test_integer_kind_weights_summing_past_the_float_range_are_diagnosed(self):
        # each integer weight fits a float, but their exact sum does not
        doc = json.loads(bundled_scenario_text("tiny-oracle"))
        doc["tiers"][0]["kindWeights"] = {"p": 10**308, "b": 10**308}
        with pytest.raises(ScenarioValidationError) as excinfo:
            parse_scenario(json.dumps(doc))
        assert excinfo.value.errors == [
            "tiers[0]: kind weights must sum to a finite positive value"
        ]


def spec_defaults_kept(obj):
    """(type, field) of every spec field in ``obj`` that still holds its dataclass default."""
    if isinstance(obj, tuple):
        return [hit for item in obj for hit in spec_defaults_kept(item)]
    if not is_dataclass(obj) or isinstance(obj, ResourceVector):
        return []
    hits = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.default is not MISSING and value == f.default:
            hits.append((type(obj).__name__, f.name))
        hits.extend(spec_defaults_kept(value))
    return hits


def locations(node, prefix=()):
    """Every key and list index path inside a JSON document."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for step, child in children:
        yield prefix + (step,)
        yield from locations(child, prefix + (step,))


BUNDLED_DOCS = {name: json.loads(bundled_scenario_text(name)) for name in BUNDLED_SCENARIOS}
LOCATIONS = [(name, loc) for name, doc in BUNDLED_DOCS.items() for loc in locations(doc)]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([10**400, -(10**400), 2**64, 0, -1, 2.7, 1e308, ""]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


PHASE_KEYS = ("startEpoch", "demandIops", "avgIoSizeBytes", "readFraction")
PHASE_VALUES = JSON_VALUES | st.sampled_from([
    math.nan, math.inf, -math.inf, True, False, 0, 0.0, -0.0, 1, 3.0, 0.5, 5e-324,
    2**63 - 1, 2**63, 2**70, -(2**63) - 1, 10**400,
])


@st.composite
def phase_lists(draw):
    """A JSON demand profile: well formed, then up to three phases, keys or values changed."""
    near_int64_max = st.sampled_from([2**63 - 2, 2**63 - 1, 2**63, 2**70, 2**70 + 1])
    starts = sorted(draw(st.sets(st.integers(1, 2**70) | near_int64_max, max_size=3)))
    profile = []
    for start in (0, *starts):
        phase = {
            "startEpoch": start,
            "demandIops": draw(st.floats(0, 1e9)),
            "avgIoSizeBytes": draw(st.floats(1, 1e6)),
        }
        if draw(st.booleans()):
            phase["readFraction"] = draw(st.floats(0, 1))
        profile.append(phase)
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(profile) - 1))
        action = draw(st.sampled_from(["set", "set", "delete", "phase", "repeat start"]))
        if action == "phase":
            profile[k] = draw(PHASE_VALUES)
        elif not isinstance(profile[k], dict):
            continue
        elif action == "set":
            profile[k][draw(st.sampled_from([*PHASE_KEYS, "zz"]))] = draw(PHASE_VALUES)
        elif action == "delete":
            profile[k].pop(draw(st.sampled_from(PHASE_KEYS)), None)
        elif k and isinstance(profile[k - 1], dict):
            profile[k]["startEpoch"] = profile[k - 1].get("startEpoch")
    return profile


def reference_phases(profile):
    """The profile as the per-phase readers and the spec checks read it, or None if refused."""
    errors = []
    read = {key: read for key, _, read, _, _ in SCHEMA[VmdkSpec]}["demandProfile"]
    phases = read(profile, "vmdks[0]", "demandProfile", errors)
    if errors:
        return None
    try:
        make_vmdk(phases=phases)
    except ValueError:
        return None
    return phases


def plain(profile):
    """Whether every start is a Python int below 2**63 and every other value an int or float."""
    return all(
        type(phase["startEpoch"]) is int and phase["startEpoch"] < 2**63
        and all(type(v) in (int, float) for k, v in phase.items() if k != "startEpoch")
        for phase in profile
    )


VMDK_NUMBERS = {
    "sizeGb": (1, 100), "slaWeight": (1, 4), "truthSlope": (0, 2), "truthInterceptUs": (1, 500),
}
VMDK_REQUIRED = ("id", "sizeGb", "initialTier", "truthSlope", "truthInterceptUs", "demandProfile")
# One diagnostics token each: (keys it may go at, value); None deletes the key.
VMDK_PERTURBATIONS = (
    ([*VMDK_NUMBERS, "initialTier"], True),
    ([*VMDK_NUMBERS, "initialTier"], False),
    (["initialTier"], 2.0),
    ([*VMDK_NUMBERS, "initialTier"], 10**400),
    (list(VMDK_NUMBERS), math.nan),
    (list(VMDK_NUMBERS), math.inf),
    (["id"], ""),
    (["vmId"], None),
    (["zz"], 1),
    (list(VMDK_REQUIRED), None),
)


def json_numbers(low, high):
    """A number in [low, high], written as a JSON int or a JSON float."""
    return st.integers(low, high) | st.floats(low, high)


@st.composite
def vmdk_lists(draw):
    """A valid ``vmdks`` list, and whether one diagnostics token then went into it."""
    vmdks = []
    for i in range(draw(st.integers(1, 6))):
        starts = sorted(draw(st.sets(st.integers(1, 20), max_size=2)))
        profile = []
        for start in (0, *starts):
            phase = {
                "startEpoch": start,
                "demandIops": draw(json_numbers(0, 10**6)),
                "avgIoSizeBytes": draw(json_numbers(512, 10**6)),
            }
            if draw(st.booleans()):
                phase["readFraction"] = draw(json_numbers(0, 1))
            profile.append(phase)
        item = {"id": f"v{i}", "initialTier": draw(st.integers(1, 3)), "demandProfile": profile}
        for key, (low, high) in VMDK_NUMBERS.items():
            if key != "slaWeight" or draw(st.booleans()):
                item[key] = draw(json_numbers(low, high))
        if draw(st.booleans()):
            item["vmId"] = f"vm{i % 2}"
        vmdks.append({key: item[key] for key in draw(st.permutations(list(item)))})
    perturbed = draw(st.booleans())
    if perturbed:
        keys, value = draw(st.sampled_from(VMDK_PERTURBATIONS))
        item, key = draw(st.sampled_from(vmdks)), draw(st.sampled_from(keys))
        if value is None and key != "vmId":
            item.pop(key, None)
        else:
            item[key] = value
    return vmdks, perturbed


# The same schema, its vmdks list read item by item with no column pass.
ITEM_BY_ITEM = tuple(
    (key, arg, model._list_of(VmdkSpec) if key == "vmdks" else read, default, rule)
    for key, arg, read, default, rule in SCHEMA[Scenario]
)


def parse_outcome(text):
    """The scenario ``text`` parses to, or the errors it is refused with."""
    try:
        return parse_scenario(text)
    except ScenarioValidationError as exc:
        return exc.errors


class TestColumnPass:
    @settings(max_examples=400)
    @given(st.lists(phase_lists(), min_size=1, max_size=4))
    def test_reads_ahead_exactly_the_plain_profiles_the_phase_readers_accept(self, profiles):
        read = model._read_profiles(profiles)
        expected = [reference_phases(profile) for profile in profiles]
        if not all(e is not None and plain(p) for e, p in zip(expected, profiles)):
            assert read is None
            return
        start, demand, offsets = read
        assert offsets.tolist() == [0, *accumulate(map(len, profiles))]
        assert start.dtype == np.int64 and demand.shape == (3, offsets[-1])
        views = [
            DemandProfile(start, demand, *offsets[i:i + 2].tolist()) for i in range(len(profiles))
        ]
        for view, phases in zip(views, expected, strict=True):
            assert repr(view) == repr(phases)
            assert view == phases and hash(view) == hash(phases)

    def test_a_refused_profile_is_diagnosed_in_place_and_no_profile_is_read_ahead(self):
        doc = json.loads(bundled_scenario_text("table3-table4"))
        doc["vmdks"][2]["demandProfile"].append({"startEpoch": 0, "demandIops": -1, "zz": 1})
        doc["vmdks"][5]["sizeGb"] = 0
        with pytest.raises(ScenarioValidationError) as excinfo:
            parse_scenario(json.dumps(doc))
        assert excinfo.value.errors == [
            "vmdks[2].demandProfile[1].zz: unknown field",
            "vmdks[2].demandProfile[1].avgIoSizeBytes: required field missing",
            "vmdks[5]: sizeGb must be positive",
        ]
        assert model._read_profiles([vmdk["demandProfile"] for vmdk in doc["vmdks"]]) is None
        assert model._read_vmdks(doc["vmdks"]) is None

    @pytest.mark.parametrize("name", [*BUNDLED_SCENARIOS, "scale"])
    def test_every_shipped_document_is_read_ahead(self, name):
        doc = scale_document() if name == "scale" else json.loads(bundled_scenario_text(name))
        assert isinstance(model._read_vmdks(doc["vmdks"]), VmdkTable)
        # Read item by item, the specs would be gathered into a table afterwards.
        with mock.patch.object(VmdkTable, "of", side_effect=VmdkTable.of) as gather:
            scenario = validate_scenario(doc)
        assert gather.call_count == 0 and isinstance(scenario.vmdks, VmdkTable)

    def test_one_value_that_is_not_plain_reads_every_vmdk_item_by_item(self):
        doc = json.loads(bundled_scenario_text("table3-table4"))
        expected = validate_scenario(doc)
        k = next(k for k, vmdk in enumerate(doc["vmdks"]) if vmdk["initialTier"] == 2)
        doc["vmdks"][k]["initialTier"] = 2.0
        assert model._read_vmdks(doc["vmdks"]) is None
        # Read item by item, the specs are then gathered into one table.
        with mock.patch.object(VmdkTable, "of", side_effect=VmdkTable.of) as gather:
            scenario = validate_scenario(doc)
        assert gather.call_count == 1
        assert scenario == expected
        assert serialize_scenario(scenario) == serialize_scenario(expected)

    @settings(max_examples=300)
    @given(vmdk_lists())
    def test_the_vmdk_pass_reads_as_the_item_readers_do(self, case):
        vmdks, perturbed = case
        text = json.dumps(dict(BUNDLED_DOCS["tiny-oracle"], vmdks=vmdks))
        if not perturbed:
            assert isinstance(model._read_vmdks(vmdks), VmdkTable)
        fast = parse_outcome(text)
        with mock.patch.dict(SCHEMA, {Scenario: ITEM_BY_ITEM}):
            slow = parse_outcome(text)
        if isinstance(slow, list):
            assert fast == slow
            return
        assert isinstance(fast, Scenario) and fast == slow
        assert serialize_scenario(fast) == serialize_scenario(slow)
        assert list(map(repr, fast.vmdks)) == list(map(repr, slow.vmdks))


TINY, MAX = math.ulp(0.0), sys.float_info.max
NONNEG = (0.0, MAX, "{} must be a finite non-negative number, got {}")
POSITIVE = (TINY, MAX, "{} must be positive")
SERVE_CAP = (TINY, MAX, "tier serve caps must be positive")
# Each SCHEMA row with a rule: where its record sits in a document, and the
# range and message it must apply, written out apart from the schema so that
# a changed rule shows. An integer field's range has no upper end (None).
RULE_ROWS = [
    *((("tiers", 0, "capacity"), ResourceVector, key, NONNEG) for key in "pbs"),
    (("tiers", 0), TierSpec, "id", (1, None, "tier id must be >= 1")),
    (("tiers", 0), TierSpec, "baseLatencyUs", POSITIVE),
    *((("tiers", 0), TierSpec, f"{kind}Cap", SERVE_CAP) for kind in (
        "readThroughput", "writeThroughput", "readBandwidth", "writeBandwidth")),
    (("tiers", 0), TierSpec, "migWeight", NONNEG),
    (("vmdks", 0, "demandProfile", 0), WorkloadPhase, "startEpoch", (0, None, "{} must be >= 0")),
    (("vmdks", 0, "demandProfile", 0), WorkloadPhase, "demandIops", NONNEG),
    (("vmdks", 0, "demandProfile", 0), WorkloadPhase, "avgIoSizeBytes", POSITIVE),
    (("vmdks", 0, "demandProfile", 0), WorkloadPhase, "readFraction", (0.0, 1.0, "{} out of [0,1]")),
    (("vmdks", 0), VmdkSpec, "sizeGb", POSITIVE),
    (("vmdks", 0), VmdkSpec, "slaWeight", POSITIVE),
    (("vmdks", 0), VmdkSpec, "initialTier", (1, None, "{} must be >= 1")),
    (("vmdks", 0), VmdkSpec, "truthSlope", NONNEG),
    (("vmdks", 0), VmdkSpec, "truthInterceptUs", POSITIVE),
    (("policyWeights",), PolicyWeights, "beta", NONNEG),
    (("policyWeights",), PolicyWeights, "agingFactor",
     (0.0, math.nextafter(1.0, 0.0), "{} out of [0,1)")),
    (("policyWeights",), PolicyWeights, "monitorEpoch", (1, None, "{} must be >= 1")),
    (("policyWeights",), PolicyWeights, "confidenceFloor", (TINY, 1.0, "{} out of (0,1]")),
    (("policyWeights",), PolicyWeights, "samplesPerLatency", (1, None, "{} must be >= 1")),
    (("simulation",), SimulationConfig, "epochs", (0, None, "{} must be >= 0")),
    (("simulation",), SimulationConfig, "epochSeconds", POSITIVE),
    (("simulation",), SimulationConfig, "noiseCv", NONNEG),
    (("simulation",), SimulationConfig, "seed", (0, None, "{} must be >= 0")),
]
# One tier, one VMDK of one phase, every value well inside its range.
BOUNDARY_DOC = {
    "schemaVersion": 1,
    "tiers": [{
        "id": 1, "name": "t1", "baseLatencyUs": 100.0, "capacity": {"p": 1.0, "b": 1.0, "s": 1.0},
        "readThroughputCap": 1.0, "writeThroughputCap": 1.0, "readBandwidthCap": 1.0,
        "writeBandwidthCap": 1.0,
    }],
    "vmdks": [{
        "id": "v", "sizeGb": 1.0, "initialTier": 1, "truthSlope": 0.1, "truthInterceptUs": 1.0,
        "demandProfile": [{"startEpoch": 0, "demandIops": 1.0, "avgIoSizeBytes": 1.0}],
    }],
    "policyWeights": {},
    "simulation": {"epochs": 1},
}


def outcome(doc):
    """The scenario ``doc`` validates to, or the errors it is refused with."""
    try:
        return validate_scenario(doc)
    except ScenarioValidationError as exc:
        return exc.errors


class TestRuleBoundaries:
    def test_every_rule_row_is_listed(self):
        rows = {(cls, row[0]) for cls, rows in SCHEMA.items() for row in rows if row[4]}
        assert rows == {(cls, key) for _, cls, key, _ in RULE_ROWS}

    @pytest.mark.parametrize("path,cls,key,rule", RULE_ROWS,
                             ids=[f"{cls.__name__}.{key}" for _, cls, key, _ in RULE_ROWS])
    def test_each_end_is_kept_and_one_ulp_past_it_refused(self, path, cls, key, rule):
        low, high, message = rule
        if high is None:  # an integer field
            kept, refused = [low], [low - 1]
        else:
            kept = [low, high]
            refused = [math.nextafter(low, -math.inf), math.nextafter(high, math.inf), math.nan]
        base = validate_scenario(BOUNDARY_DOC)
        record = {
            ResourceVector: base.tiers[0].capacity, TierSpec: base.tiers[0],
            WorkloadPhase: base.vmdks[0].demand_profile[0], VmdkSpec: base.vmdks[0],
            PolicyWeights: base.weights, SimulationConfig: base.sim,
        }[cls]
        arg = {row[0]: row[1] for row in SCHEMA[cls]}[key]
        where = field_path(path)
        for value in kept + refused:
            doc = copy.deepcopy(BOUNDARY_DOC)
            reduce(operator.getitem, path, doc)[key] = value
            column = outcome(doc)
            with mock.patch.dict(SCHEMA, {Scenario: ITEM_BY_ITEM}):
                assert outcome(doc) == column, value
            if path[0] == "vmdks":  # the column pass reads the list just when the value is kept
                assert isinstance(model._read_vmdks(doc["vmdks"]), VmdkTable) == (value in kept)
            if value in kept:
                replace(record, **{arg: value})
                assert isinstance(column, Scenario), value
                continue
            text = message.format(key, value)
            with pytest.raises(ValueError) as refusal:
                replace(record, **{arg: value})
            assert str(refusal.value) == text
            assert column == [f"{where}: {text}"]


class TestSchema:
    @pytest.mark.parametrize("cls", list(SCHEMA), ids=lambda cls: cls.__name__)
    def test_table_covers_every_constructor_argument(self, cls):
        rows = SCHEMA[cls]
        args = [arg for _, arg, _, _, _ in rows]
        assert sorted(args) == sorted(inspect.signature(cls).parameters)
        assert len({key for key, _, _, _, _ in rows}) == len(rows)

    @pytest.mark.parametrize("cls", list(SCHEMA), ids=lambda cls: cls.__name__)
    def test_defaults_live_in_the_dataclass(self, cls):
        params = inspect.signature(cls).parameters
        for key, arg, _, default, _ in SCHEMA[cls]:
            has_default = params[arg].default is not inspect.Parameter.empty
            if default == OPTIONAL:
                assert has_default, f"{cls.__name__}.{key} is optional but has no default"
            elif default == REQUIRED:
                assert not has_default, f"{cls.__name__}.{key} is required but has a default"

    def test_round_trip_with_every_field_off_its_default(self):
        base = random_scenario(np.random.default_rng(7))
        scenario = replace(
            base,
            tiers=tuple(
                replace(t, specialty=ResourceVector(1, 0, 1), caps=ResourceVector(0.9, 0.8, 0.7))
                for t in base.tiers
            ),
            vmdks=tuple(
                replace(
                    v, vm_id=f"vm-{v.id}", sla_weight=2.5,
                    demand_profile=tuple(replace(ph, read_fraction=0.3) for ph in v.demand_profile),
                )
                for v in base.vmdks
            ),
            weights=replace(
                base.weights, alpha=ResourceVector(0.5, 1.5, 2.0), beta=0.7, aging_factor=0.25,
                monitor_epoch=2, migration_epoch=4, confidence_floor=0.1,
                injected_latencies_us=(0.0, 250.0, 750.0), samples_per_latency=3,
            ),
            sim=replace(base.sim, epoch_seconds=120.0, noise_cv=0.02, seed=12345),
        )
        assert spec_defaults_kept(scenario) == []
        assert parse_scenario(serialize_scenario(scenario)) == scenario

    @settings(max_examples=300)
    @given(
        st.sampled_from(LOCATIONS),
        st.sampled_from(["replace", "delete", "insert"]),
        JSON_VALUES,
        st.text(max_size=6),
    )
    def test_any_value_at_any_field_parses_or_is_diagnosed(self, where, action, value, new_key):
        name, location = where
        doc = copy.deepcopy(BUNDLED_DOCS[name])
        parent = doc
        for step in location[:-1]:
            parent = parent[step]
        target = parent[location[-1]]
        if action == "delete":
            del parent[location[-1]]
        elif action == "insert" and isinstance(target, dict):
            target[new_key] = value
        else:
            parent[location[-1]] = value
        try:
            scenario = parse_scenario(json.dumps(doc))
        except ScenarioValidationError as exc:
            assert exc.errors and all(": " in e for e in exc.errors), exc.errors
        else:
            assert isinstance(scenario, Scenario)


class TestCdf:
    def test_quarter_steps(self):
        assert emit_cdf([1, 2, 3, 4]) == [(1, 0.25), (2, 0.5), (3, 0.75), (4, 1.0)]

    def test_constant_series_single_step(self):
        assert emit_cdf([5.0, 5.0, 5.0]) == [(5.0, 1.0)]

    def test_unsorted_input_is_sorted(self):
        points = emit_cdf([3, 1, 2, 2])
        assert points == [(1, 0.25), (2, 0.75), (3, 1.0)]

    def test_fractions_in_unit_interval_and_last_is_one(self):
        points = emit_cdf([10, 20, 20, 30, 40, 40, 40])
        fractions = [f for _, f in points]
        assert all(0 < f <= 1 for f in fractions)
        assert fractions[-1] == 1.0
        assert fractions == sorted(fractions)

    def test_empty_series_errors(self):
        with pytest.raises(ValueError):
            emit_cdf([])

    def test_text_rendering(self):
        assert cdf_text([(1.0, 0.5), (2.0, 1.0)]) == "1 0.5\n2 1\n"


@pytest.fixture(scope="module")
def tiny_result():
    return run_scenario(load_bundled_scenario("tiny-oracle"), "autotiering")


class TestReporting:

    def test_csv_has_stable_header_and_row_count(self, tiny_result):
        text = metrics_csv_text(tiny_result)
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header == csv_header([1, 2, 3])
        assert header[0] == "epoch"
        assert len(lines) == 1 + tiny_result.scenario.sim.epochs

    def test_summary_shape(self, tiny_result):
        summary = summary_dict(tiny_result)
        assert summary["policy"] == "autotiering"
        assert set(summary["perTier"]) == {"1", "2", "3"}
        assert summary["total"]["iops"]["mean"] > 0

    def test_migrations_shape(self, tiny_result):
        mig = migrations_dict(tiny_result)
        assert mig["migrationCount"] >= mig["distinctVmdksMigrated"]
        assert mig["totalMigratedBytes"] >= 0

    @pytest.mark.parametrize("seed", range(6))
    def test_migrations_match_the_set_and_reduce_forms(self, seed):
        # Rows repeat and come out of id order; byte counts of mixed magnitude
        # make a sum in any other order round differently. Seeds 0 and 4 log nothing.
        rng = np.random.default_rng(seed)
        ids = tuple(f"v{j:02d}" for j in range(40))
        log = MigrationLog(ids)
        for epoch in range(seed % 4):
            n = int(rng.integers(1, 30))
            total = rng.choice([1e16, 1.0, 0.1, 3.3e9], size=n)
            k = log.append(rng.integers(0, len(ids), size=n), np.full(n, 1), np.full(n, 2),
                           total, epoch)
            log.set_progress(k, total * rng.choice([0.0, 0.3, 1.0], size=n), np.ones(n),
                             np.zeros(n, dtype=bool))
        flags = np.zeros((0, len(ids)), dtype=np.uint8)
        mig = migrations_dict(SimpleNamespace(migration_log=log, flags=flags))
        distinct = sorted(set(map(ids.__getitem__, log.row.tolist())))
        total = reduce(operator.add, log.bytes_moved.tolist(), 0)
        assert (mig["migratedVmdkIds"], mig["distinctVmdksMigrated"]) == (distinct, len(distinct))
        assert type(mig["totalMigratedBytes"]) is type(total)
        assert json.dumps(mig["totalMigratedBytes"]) == json.dumps(total)
        assert (len(log) == 0) == (json.dumps(total) == "0")

    def test_series_sums_add_left_to_right(self):
        # A compensated sum (Python 3.12's sum()) gives 1.0000000000000002e16.
        stats = _series_stats([1e16, 1.0, 1.0])
        assert (stats["sum"], stats["mean"]) == (1e16, 1e16 / 3)
        assert type(_series_stats([])["sum"]) is int

    def test_artifact_writer_emits_all_five_files(self, tiny_result, tmp_path):
        written = write_run_artifacts(tiny_result, tmp_path)
        assert sorted(p.name for p in written) == sorted(RUN_FILES)
        for p in written:
            assert p.exists() and p.stat().st_size > 0

    def test_numeric_fields_use_six_significant_digits(self, tiny_result):
        import re

        text = metrics_csv_text(tiny_result)
        for row in text.strip().split("\n")[1:]:
            for field in row.split(","):
                mantissa = field.split("e")[0]
                digits = re.sub(r"[-+.]", "", mantissa).lstrip("0")
                assert len(digits) <= 6, f"field {field!r} has too many digits"

    def test_cdf_files_are_plot_tool_loadable(self, tiny_result, tmp_path):
        import numpy as np

        written = {p.name: p for p in write_run_artifacts(tiny_result, tmp_path)}
        data = np.loadtxt(written["cdf_iops.dat"])
        data = np.atleast_2d(data)
        assert data.shape[1] == 2
        assert data[-1, 1] == 1.0

    def test_comparison_ratios(self):
        scenario = load_bundled_scenario("tiny-oracle")
        summaries = [
            summary_dict(run_scenario(scenario, p)) for p in ("autotiering", "idt", "edt")
        ]
        comp = comparison_dict(summaries)
        assert set(comp["ratios"]) == {"autotiering/idt", "autotiering/edt"}
        for pair in comp["ratios"].values():
            assert pair["iops"] > 0
            assert pair["mbps"] > 0

    def test_comparison_refuses_two_runs_of_one_policy(self):
        scenario = load_bundled_scenario("tiny-oracle")
        summaries = [summary_dict(run_scenario(scenario, p, seed=s))
                     for p, s in (("idt", 1), ("edt", 1), ("idt", 2))]
        with pytest.raises(ValueError, match="^compare takes one run per policy, got 2 idt runs$"):
            comparison_dict(summaries)


class TestCli:
    def test_run_writes_artifacts_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "run1"
        code = main([
            "run", "--scenario", "tiny-oracle", "--policy", "autotiering",
            "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        for name in RUN_FILES:
            assert (out / name).exists()
        assert "autotiering" in capsys.readouterr().out

    def test_compare_over_three_runs(self, tmp_path, capsys):
        dirs = []
        for policy in ("autotiering", "idt", "edt"):
            out = tmp_path / policy
            assert main(["run", "--scenario", "tiny-oracle", "--policy", policy,
                         "--out", str(out)]) == 0
            dirs.append(str(out))
        capsys.readouterr()
        code = main(["compare", "--runs", *dirs, "--out", str(tmp_path / "cmp.json")])
        assert code == 0
        stdout = capsys.readouterr().out
        payload = json.loads(stdout)
        assert "autotiering/idt" in payload["ratios"]
        on_disk = json.loads((tmp_path / "cmp.json").read_text())
        assert on_disk == payload

    def test_compare_exits_2_on_two_runs_of_one_policy(self, tmp_path, capsys):
        # Keyed by policy, the second run used to replace the first silently.
        for name, seed, out in (("tiny-oracle", "1", "a"), ("table3-table4", "2", "b")):
            assert main(["run", "--scenario", name, "--policy", "idt", "--seed", seed,
                         "--out", str(tmp_path / out)]) == 0
        capsys.readouterr()
        cmp_path = tmp_path / "cmp.json"
        code = main(["compare", "--runs", str(tmp_path / "a"), str(tmp_path / "b"),
                     "--out", str(cmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: compare takes one run per policy, got 2 idt runs" in captured.err
        assert not cmp_path.exists()

    def test_compare_writes_null_for_a_ratio_over_a_zero_baseline(self, tmp_path, capsys):
        # Zero epochs leave every mean at 0, so no ratio has a value.
        scenario = load_bundled_scenario("tiny-oracle")
        idle = tmp_path / "idle.json"
        idle.write_text(serialize_scenario(replace(scenario, sim=replace(scenario.sim, epochs=0))))
        dirs = []
        for policy in ("autotiering", "idt"):
            out = tmp_path / policy
            assert main(["run", "--scenario", str(idle), "--policy", policy,
                         "--out", str(out)]) == 0
            dirs.append(str(out))
        capsys.readouterr()
        assert main(["compare", "--runs", *dirs, "--out", str(tmp_path / "cmp.json")]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        for text in (capsys.readouterr().out, (tmp_path / "cmp.json").read_text()):
            payload = json.loads(text, parse_constant=refuse)
            assert payload["ratios"] == {"autotiering/idt": {"iops": None, "mbps": None}}

    @pytest.mark.parametrize("text, key", [
        ('{"epochs": 3}', "policy"),
        ("[1, 2]", "policy"),
        ("[]", "policy"),
        ('{"policy": "edt", "total": 5}', "total.iops"),
        ('{"policy": "edt", "total": {"iops": {"mean": 1.0}, "mbps": {}}}', "total.mbps.mean"),
    ])
    def test_compare_exits_2_naming_the_file_and_key_of_a_summary_it_cannot_read(
        self, tmp_path, capsys, text, key
    ):
        # Such a summary used to print only the bare key or index error.
        assert main(["run", "--scenario", "tiny-oracle", "--policy", "idt",
                     "--out", str(tmp_path / "idt")]) == 0
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "summary.json").write_text(text)
        capsys.readouterr()
        assert main(["compare", "--runs", str(tmp_path / "idt"), str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad / 'summary.json'}: not a run summary, no {key!r}\n"

    @pytest.mark.parametrize("location,value,tail", [
        (None, None, "not JSON (Expecting value: line 1 column 1 (char 0))"),
        (("policy",), ["autotiering"], "'policy' is not a string"),
        (("total", "iops", "mean"), "1.0", "'total.iops.mean' is not a number"),
        (("total", "meanLatencyUs"), True, "'total.meanLatencyUs' is not a number"),
    ], ids=["not-json", "policy-list", "mean-string", "latency-bool"])
    def test_compare_exits_2_naming_the_file_and_key_of_a_value_it_cannot_read(
        self, tmp_path, capsys, location, value, tail
    ):
        # Each used to print a JSON, hashing or arithmetic error that named no file.
        assert main(["run", "--scenario", "tiny-oracle", "--policy", "idt",
                     "--out", str(tmp_path / "idt")]) == 0
        summary = json.loads((tmp_path / "idt" / "summary.json").read_text())
        summary["policy"] = "autotiering"
        bad = tmp_path / "bad"
        bad.mkdir()
        if location is None:
            (bad / "summary.json").write_text("not json")
        else:
            reduce(operator.getitem, location[:-1], summary)[location[-1]] = value
            (bad / "summary.json").write_text(json.dumps(summary))
        capsys.readouterr()
        assert main(["compare", "--runs", str(tmp_path / "idt"), str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad / 'summary.json'}: not a run summary, {tail}\n"

    @pytest.mark.parametrize("command", [
        ["run", "--scenario", "tiny-oracle", "--policy", "idt", "--out", "unused"],
        ["oracle-check", "--scenario", "tiny-oracle"],
    ])
    def test_a_negative_seed_exits_2_naming_the_option(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--seed", "-1"])
        assert exit_info.value.code == 2
        assert "argument --seed: seed must be >= 0, got -1" in capsys.readouterr().err

    def test_bad_scenario_path_fails_with_diagnostic(self, tmp_path, capsys):
        code = main(["run", "--scenario", str(tmp_path / "nope.json"),
                     "--policy", "idt", "--out", str(tmp_path / "o")])
        assert code != 0
        assert "error" in capsys.readouterr().err.lower()

    def test_invalid_scenario_content_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schemaVersion": 99}')
        code = main(["run", "--scenario", str(bad), "--policy", "idt",
                     "--out", str(tmp_path / "o")])
        assert code != 0

    @pytest.mark.parametrize("name, plans", [("tiny-oracle", 3), ("table3-table4", 17)])
    def test_oracle_check_reports_ratios(self, capsys, name, plans):
        code = main(["oracle-check", "--scenario", name])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["greedyNeverAbove"] is True
        assert len(payload["epochs"]) == plans
        for row in payload["epochs"]:
            assert row["greedyProfit"] <= row["oracleProfit"] + 1e-9

    def test_oracle_check_without_scipy_names_the_oracle_extra(self, monkeypatch, capsys):
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)  # import now fails
        assert main(["oracle-check", "--scenario", "tiny-oracle"]) == 2
        assert "autotier[oracle]" in capsys.readouterr().err

    def test_a_run_imports_no_scipy(self):
        # The oracle imports scipy when called, so a run needs numpy only.
        code = (
            "import sys, autotier; "
            "autotier.run_scenario(autotier.load_bundled_scenario('table3-table4'), "
            "'autotiering'); "
            "sys.exit('scipy' in sys.modules)"
        )
        src = str(Path(autotier.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_determinism_through_the_cli(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--scenario", "spike", "--policy", "autotiering",
                         "--seed", "9", "--out", str(out)]) == 0
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_log_env_var_controls_verbosity(self, tmp_path, monkeypatch, capsys):
        import logging

        monkeypatch.setenv("AUTOTIER_LOG", "debug")
        logging.getLogger().handlers.clear()
        assert main(["run", "--scenario", "tiny-oracle", "--policy", "idt",
                     "--out", str(tmp_path / "o")]) == 0
        assert logging.getLogger().level == logging.DEBUG

    @pytest.mark.parametrize("value", ["basic_format", "_styles", "loud"])
    def test_a_log_env_var_that_names_no_level_leaves_warning(self, value, tmp_path, monkeypatch):
        import logging

        monkeypatch.setenv("AUTOTIER_LOG", value)
        logging.getLogger().handlers.clear()
        assert main(["run", "--scenario", "tiny-oracle", "--policy", "idt",
                     "--out", str(tmp_path / "o")]) == 0
        assert logging.getLogger().level == logging.WARNING
