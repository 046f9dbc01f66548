"""Domain type invariants and scenario validation diagnostics."""

import copy
import importlib.util
import json
import math
import pickle
import sys
from dataclasses import astuple, fields, replace
from itertools import accumulate
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autotier import model
from autotier.engine import run_scenario
from autotier.model import (
    CalibrationFits,
    DemandProfile,
    Fleet,
    MigrationLog,
    PolicyWeights,
    ResourceVector,
    Roster,
    Scenario,
    ScenarioValidationError,
    SimulationConfig,
    TierSpec,
    VmdkSpec,
    VmdkTable,
    WorkloadPhase,
    validate_scenario,
)
from autotier.scenario import bundled_scenario_text, parse_scenario, serialize_scenario

from conftest import (
    final_states, fleet_of, fleet_states, log_orders, make_state, make_tier, make_vmdk, phase_at,
    scenario_documents,
)
from test_golden import SCENARIOS, scale_document

finite = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


def vec(p=0.0, b=0.0, s=0.0):
    return ResourceVector(p, b, s)


def fit_row(m, b, confidence, mean_cv=0.1):
    """Calibration fits holding one VMDK."""
    return CalibrationFits(*(np.array([x]) for x in (m, b, confidence, mean_cv)))


class TestResourceVector:
    def test_rejects_negative_components(self):
        with pytest.raises(ValueError):
            ResourceVector(-1.0, 0.0, 0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ResourceVector(float("nan"), 0.0, 0.0)

    @given(*(finite,) * 6)
    def test_multiplication_is_componentwise(self, p1, b1, s1, p2, b2, s2):
        product = vec(p1, b1, s1) * vec(p2, b2, s2)
        assert astuple(product) == (p1 * p2, b1 * b2, s1 * s2)

    @given(finite, finite, finite)
    def test_total_sums_the_components(self, p, b, s):
        assert vec(p, b, s).total() == p + b + s


class TestTierSpec:
    def test_max_usable_is_caps_times_capacity(self):
        tier = make_tier(capacity=vec(100_000, 1000, 500), caps=vec(0.9, 0.8, 0.5))
        usable = tier.max_usable()
        assert usable.p == pytest.approx(90_000)
        assert usable.b == pytest.approx(800.0)
        assert usable.s == pytest.approx(250.0)

    def test_cap_fraction_bounds(self):
        with pytest.raises(ValueError, match=r"cap fraction out of \(0,1\]"):
            make_tier(caps=vec(1.5, 1.0, 1.0))
        with pytest.raises(ValueError, match=r"cap fraction"):
            make_tier(caps=vec(0.0, 1.0, 1.0))

    def test_specialty_flags_are_binary(self):
        with pytest.raises(ValueError, match="specialty"):
            make_tier(specialty=vec(0.5, 1, 0))

    def test_kind_weights_must_not_all_vanish(self):
        with pytest.raises(ValueError, match="kind weights"):
            make_tier(kind_weights=vec(0, 0, 0))

    def test_base_latency_positive(self):
        with pytest.raises(ValueError, match="baseLatencyUs"):
            make_tier(base_latency_us=0.0)


class TestVmdkSpec:
    def test_id_must_be_non_empty(self):
        with pytest.raises(ValueError, match="vmdk id must be non-empty"):
            replace(make_vmdk(), id="")

    def test_profile_needs_a_phase(self):
        with pytest.raises(ValueError, match="demandProfile must have at least one phase"):
            replace(make_vmdk(), demand_profile=())

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError, match="sizeGb must be positive"):
            make_vmdk(size_gb=0.0)

    def test_intercept_must_be_positive(self):
        with pytest.raises(ValueError, match="truthInterceptUs"):
            make_vmdk(truth_intercept_us=0.0)

    def test_profile_must_start_at_epoch_zero(self):
        with pytest.raises(ValueError, match="start at epoch 0"):
            make_vmdk(phases=(WorkloadPhase(1, 100, 4096, 1.0),))

    @pytest.mark.parametrize("start", [2.5, 3.0, True, math.nan, np.int64(3), "3", None])
    def test_a_phase_starts_at_an_int(self, start):
        # A float start would activate at the epoch below it; NaN passes every comparison.
        with pytest.raises(ValueError, match="startEpoch must be an integer"):
            WorkloadPhase(start, 100, 4096, 1.0)

    def test_profile_starts_strictly_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            make_vmdk(
                phases=(
                    WorkloadPhase(0, 100, 4096, 1.0),
                    WorkloadPhase(0, 200, 4096, 1.0),
                )
            )

    def test_phase_at_picks_latest_started(self):
        # phase_at is the tests' reference for the phase a run holds active.
        spec = make_vmdk(
            phases=(
                WorkloadPhase(0, 100, 4096, 1.0),
                WorkloadPhase(3, 200, 4096, 1.0),
                WorkloadPhase(6, 300, 4096, 1.0),
            )
        )
        assert phase_at(spec, 0).demand_iops == 100
        assert phase_at(spec, 4).demand_iops == 200
        assert phase_at(spec, 6).demand_iops == 300
        assert phase_at(spec, 50).demand_iops == 300


class TestOtherTypes:
    def test_calibration_confidence_bounds(self):
        for confidence in (0.0, 1.2, -0.0, math.nan):
            with pytest.raises(ValueError, match=r"^confidence out of \(0,1\]$"):
                fit_row(1.0, 10.0, confidence=confidence)

    @pytest.mark.parametrize("kwargs,message", [
        ({"mean_cv": -0.1}, "meanCv must be a finite non-negative number, got -0.1"),
        ({"mean_cv": math.inf}, "meanCv must be a finite non-negative number, got inf"),
        ({"mean_cv": math.nan}, "meanCv must be a finite non-negative number, got nan"),
    ])
    def test_calibration_row_checks(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            fit_row(1.0, 10.0, confidence=0.5, **kwargs)

    @pytest.mark.parametrize("column", ["m", "b", "confidence", "mean_cv"])
    def test_calibration_fits_columns_must_be_equally_long(self, column):
        fits = fit_row(1.0, 10.0, confidence=0.5)
        with pytest.raises(ValueError, match="calibration fits need one row per VMDK"):
            replace(fits, **{column: np.repeat(getattr(fits, column), 2)})

    def test_calibration_fits_columns_must_be_flat(self):
        with pytest.raises(ValueError, match="calibration fits need one row per VMDK"):
            CalibrationFits(*(np.full((1, 1), 0.5) for _ in range(4)))

    def test_prediction_slope_clamps_at_zero(self):
        rec = fit_row(-0.3, 10.0, confidence=0.5)
        assert rec.m[0] == -0.3
        assert rec.prediction_slope[0] == 0.0

    def test_policy_weights_cadence(self):
        with pytest.raises(ValueError, match="migrationEpoch"):
            PolicyWeights(monitor_epoch=2, migration_epoch=1)
        with pytest.raises(ValueError, match="multiple"):
            PolicyWeights(monitor_epoch=2, migration_epoch=3)

    def test_aging_factor_range(self):
        with pytest.raises(ValueError, match="agingFactor"):
            PolicyWeights(aging_factor=1.0)

    # Each integer field Python callers may set. A document gives only ints;
    # a caller could pass True, which summary.json would write as true, 2.0,
    # which numpy's SeedSequence refuses, or 2.5 epochs or samples, which
    # pass every comparison and fail mid-run.
    INTEGER_FIELDS = {
        "monitorEpoch": lambda v: PolicyWeights(monitor_epoch=v),
        "migrationEpoch": lambda v: PolicyWeights(migration_epoch=v),
        "samplesPerLatency": lambda v: PolicyWeights(samples_per_latency=v),
        "epochs": lambda v: SimulationConfig(epochs=v),
        "seed": lambda v: SimulationConfig(epochs=1, seed=v),
        "id": lambda v: make_tier(tier_id=v),
        "initialTier": lambda v: make_vmdk(initial_tier=v),
    }

    @pytest.mark.parametrize("value", [2.5, 3.0, True, math.nan, np.int64(3), "3", None])
    @pytest.mark.parametrize("name", sorted(INTEGER_FIELDS))
    def test_an_integer_field_takes_only_an_int(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            self.INTEGER_FIELDS[name](value)


# Every Fleet field after ``roster``: the columns a run writes.
RUN_COLUMNS = [
    "tier_row", "dest_row", "order_index", "contention", "spare_mbps", "demand", "measured_iops",
    "measured_latency_us", "measured_mbps",
]


def phase_columns(spec):
    """The identities of the two phase columns ``spec``'s demand profile views."""
    return id(spec.demand_profile.start_epoch), id(spec.demand_profile.demand)


def roster_arrays(roster):
    """Every array a roster holds, by name, the ``due`` schedule's included."""
    arrays = {
        f.name: getattr(roster, f.name)
        for f in fields(roster) if isinstance(getattr(roster, f.name), np.ndarray)
    }
    for epoch, (rows, phases) in roster.due.items():
        arrays[f"due[{epoch}].rows"], arrays[f"due[{epoch}].phases"] = rows, phases
    return arrays


def assert_the_roster_reads_the_table_phases_in_place(scenario):
    """The roster's phase table is the scenario table's ``demand``, and ``due`` indexes it."""
    vmdks, roster = scenario.vmdks, scenario.roster
    assert np.shares_memory(roster.phase_table, vmdks.demand)
    span = {i: vmdks.offsets[j:j + 2].tolist() for j, i in enumerate(vmdks.id)}
    assert roster.first_phase.tolist() == [span[i][0] for i in roster.ids]
    due = []
    for e, (rows, k) in roster.due.items():
        assert (vmdks.start_epoch[k] == e).all(), e
        assert len(set(rows.tolist())) == len(rows), e
        for row, phase in zip(rows.tolist(), k.tolist(), strict=True):
            first, stop = span[roster.ids[row]]
            assert first <= phase < stop, (e, row, phase)
        due.extend(k.tolist())
    # Every phase after phase 0 is due once, and no other.
    assert sorted(due) == np.flatnonzero(vmdks.start_epoch > 0).tolist()


class TestRoster:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_a_bundled_roster_reads_the_table_phases_in_place(self, name):
        assert_the_roster_reads_the_table_phases_in_place(
            parse_scenario(bundled_scenario_text(name))
        )

    @settings(max_examples=40)
    @given(doc=scenario_documents())
    def test_a_generated_roster_reads_the_table_phases_in_place(self, doc):
        assert_the_roster_reads_the_table_phases_in_place(validate_scenario(doc))

    def test_every_array_and_map_is_read_only_and_two_builds_are_equal(self):
        scenario = parse_scenario(bundled_scenario_text("spike"))
        roster = scenario.roster
        assert scenario.roster is roster
        assert isinstance(roster.row, MappingProxyType)
        assert isinstance(roster.due, MappingProxyType)
        arrays = roster_arrays(roster)
        assert len(arrays) == len(fields(roster)) - 4 + 2 * len(roster.due)  # 2 tuples, 2 maps
        for name, array in arrays.items():
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        again = Roster.of(scenario.vmdks, scenario.tiers)
        assert list(roster.due) == list(again.due)
        for name, array in roster_arrays(again).items():
            assert array.dtype == arrays[name].dtype, name
            assert array.tobytes() == arrays[name].tobytes(), name

    def test_a_scenario_pickles_and_copies_without_its_built_roster(self):
        scenario = parse_scenario(bundled_scenario_text("spike"))
        roster = scenario.roster
        for copied in (
            pickle.loads(pickle.dumps(scenario)), copy.deepcopy(scenario), copy.copy(scenario),
        ):
            assert copied == scenario and "roster" not in vars(copied)
            assert copied.roster is not roster and copied.roster.ids == roster.ids
            assert not copied.roster.phase_table.flags.writeable
            assert copied.roster.phase_table is copied.vmdks.demand
            profile = copied.vmdks[0].demand_profile
            assert not profile.start_epoch.flags.writeable and not profile.demand.flags.writeable
            assert {phase_columns(v) for v in copied.vmdks} == {phase_columns(copied.vmdks[0])}

    def test_parsed_and_python_built_profiles_give_bitwise_equal_columns(self):
        text = bundled_scenario_text("spike")
        parsed = parse_scenario(text)
        assert any(len(v.demand_profile) > 1 for v in parsed.vmdks)
        profiles = [
            tuple(
                WorkloadPhase(p["startEpoch"], p["demandIops"], p["avgIoSizeBytes"],
                              p.get("readFraction", 1.0))
                for p in v["demandProfile"]
            )
            for v in json.loads(text)["vmdks"]
        ]
        given = tuple(
            replace(v, demand_profile=phases) for v, phases in zip(parsed.vmdks, profiles)
        )
        assert len({phase_columns(v) for v in given}) == len(given)
        built = replace(parsed, vmdks=given)
        assert built == parsed and isinstance(built.vmdks, VmdkTable)
        # The specs' own columns are gathered into the scenario table's two.
        assert {phase_columns(v) for v in built.vmdks} == {
            (id(built.vmdks.start_epoch), id(built.vmdks.demand))
        }
        for spec, twin in zip(parsed.vmdks, built.vmdks):
            assert isinstance(twin.demand_profile, DemandProfile)
            assert spec == twin and hash(spec) == hash(twin)
            assert repr(spec) == repr(twin)
        arrays, twins = roster_arrays(parsed.roster), roster_arrays(built.roster)
        assert list(parsed.roster.due) == list(built.roster.due)
        assert sorted(arrays) == sorted(twins)
        for name, array in arrays.items():
            assert array.dtype == twins[name].dtype, name
            assert array.tobytes() == twins[name].tobytes(), name

    def test_a_start_epoch_is_bounded_by_int64_and_the_bound_never_activates(self):
        doc = json.loads(bundled_scenario_text("tiny-oracle"))
        doc["simulation"]["epochs"] = 3
        first = doc["vmdks"][0]["demandProfile"][0]
        doc["vmdks"][0]["demandProfile"].append(dict(first, startEpoch=2**63, demandIops=1.0))
        with pytest.raises(ScenarioValidationError) as excinfo:
            parse_scenario(json.dumps(doc))
        assert excinfo.value.errors == [
            "vmdks[0].demandProfile[1]: startEpoch must be <= 9223372036854775807"
        ]
        with pytest.raises(ValueError, match="^startEpoch must be <= 9223372036854775807$"):
            WorkloadPhase(2**63, 1.0, 4096.0)
        doc["vmdks"][0]["demandProfile"][1]["startEpoch"] = 2**63 - 1
        scenario = parse_scenario(json.dumps(doc))
        text = serialize_scenario(scenario)
        assert '"startEpoch": 9223372036854775807' in text
        again = parse_scenario(text)
        assert again == scenario and serialize_scenario(again) == text
        spec = scenario.vmdks[0]
        assert spec.demand_profile[-1].start_epoch == 2**63 - 1
        names = [f.name for f in fields(spec.demand_profile)]
        assert names == ["start_epoch", "demand", "first", "stop"]
        assert spec.demand_profile.start_epoch.dtype == np.int64
        assert scenario.vmdks.start_epoch.dtype == np.int64
        twin = replace(spec, demand_profile=tuple(spec.demand_profile))
        assert twin == spec and twin.demand_profile.start_epoch.tolist() == [0, 2**63 - 1]
        assert twin.demand_profile.start_epoch.dtype == np.int64
        roster = scenario.roster
        row = roster.row[spec.id]
        (owners, phases), = roster.due.values()
        assert list(roster.due) == [2**63 - 1]
        assert owners.tolist() == [row] and phases.tolist() == [roster.first_phase[row] + 1]
        final = final_states(run_scenario(scenario, "idt"))[spec.id]
        assert final.demand_iops == float(first["demandIops"])

    def test_a_profile_view_reads_like_the_tuple_of_its_phases(self):
        phases = (WorkloadPhase(0, 100.0, 4096.0, 1.0), WorkloadPhase(3, 200.5, 512.0, 0.25))
        profile = make_vmdk(phases=phases).demand_profile
        assert isinstance(profile, DemandProfile) and len(profile) == 2
        assert profile == phases and tuple(profile) == phases and hash(profile) == hash(phases)
        assert profile[-1] == phases[1] and profile[1:] == phases[1:]
        assert list(profile) == list(phases)
        assert phases[0] in profile and profile.index(phases[1]) == 1
        assert repr(profile) == repr(phases)
        assert profile != phases[:1] and profile != list(phases)
        with pytest.raises(IndexError):
            profile[2]
        with pytest.raises(ValueError, match="startEpoch must be an integer"):
            make_vmdk(phases=(WorkloadPhase(0, 1.0, 512.0), WorkloadPhase(2.5, 1.0, 512.0)))
        # The table holds demand figures as floats, as a parsed document always gave them.
        read = make_vmdk(phases=(WorkloadPhase(0, 100, 4096, 1),)).demand_profile[0]
        assert read == WorkloadPhase(0, 100, 4096, 1) and type(read.demand_iops) is float
        with pytest.raises(ValueError, match="read-only"):
            profile.demand[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            profile.start_epoch[0] = 1
        with pytest.raises(AttributeError):
            profile.first = 1

    def test_no_writable_fleet_column_shares_memory_with_the_roster(self):
        scenario = parse_scenario(bundled_scenario_text("spike"))
        fleet = Fleet.of(scenario.roster)
        assert fleet.roster is scenario.roster
        assert fleet.read_only().roster is fleet.roster
        run_columns = [f.name for f in fields(fleet)][1:]
        assert run_columns == RUN_COLUMNS
        shared = roster_arrays(fleet.roster).values()
        for name in run_columns:
            column = getattr(fleet, name)
            assert isinstance(column, np.ndarray) and column.flags.writeable, name
            assert not any(np.shares_memory(column, a) for a in shared), name


def churn_document():
    """The ``baseline-churn`` benchmark document of seed 11: 2,800 VMDKs, 28,000 phases."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)
    text = bundled_scenario_text(workloads.BASE_SCENARIO)
    return json.loads(workloads.generate(workloads.WORKLOADS["baseline-churn"], text, 11))


TABLE_DOCUMENTS = {
    **{name: lambda name=name: json.loads(bundled_scenario_text(name)) for name in SCENARIOS},
    "scale": scale_document,
    "baseline-churn": churn_document,
}


@pytest.fixture(scope="module", params=sorted(TABLE_DOCUMENTS))
def read(request):
    """A document, the scenario parsed from it and its VMDKs read item by item as specs."""
    doc = TABLE_DOCUMENTS[request.param]()
    errors = []
    specs = model._list_of(VmdkSpec)(doc["vmdks"], "", "vmdks", errors)
    assert errors == [] and len(specs) == len(doc["vmdks"])
    return doc, validate_scenario(doc), specs


def table_arrays(table):
    """Every array of a ``VmdkTable``, its two phase columns included, by name."""
    names = ("size_gb", "sla_weight", "truth_slope", "truth_intercept_us", "start_epoch",
             "demand", "offsets")
    return {name: getattr(table, name) for name in names}


class TestVmdkTable:
    def test_a_parsed_table_reads_as_the_item_by_item_specs(self, read):
        _, scenario, specs = read
        table = scenario.vmdks
        assert isinstance(table, VmdkTable) and len(table) == len(specs)
        assert table == specs and hash(table) == hash(specs) and repr(table) == repr(specs)
        assert table[-1] == specs[-1] and table[1:3] == specs[1:3]
        assert table.id == tuple(spec.id for spec in specs)

    def test_specs_built_in_python_give_an_equal_scenario_and_roster(self, read):
        _, parsed, specs = read
        built = Scenario(parsed.tiers, specs, parsed.weights, parsed.sim)
        assert isinstance(built.vmdks, VmdkTable) and built == parsed
        assert built.vmdks.id == parsed.vmdks.id
        assert built.vmdks.initial_tier == parsed.vmdks.initial_tier
        for name, array in table_arrays(parsed.vmdks).items():
            twin = table_arrays(built.vmdks)[name]
            assert array.dtype == twin.dtype and array.tobytes() == twin.tobytes(), name
        arrays, twins = roster_arrays(parsed.roster), roster_arrays(built.roster)
        assert parsed.roster.ids == built.roster.ids
        assert list(parsed.roster.due) == list(built.roster.due)
        assert sorted(arrays) == sorted(twins)
        for name, array in arrays.items():
            assert array.dtype == twins[name].dtype, name
            assert array.tobytes() == twins[name].tobytes(), name

    def test_pickle_and_copy_give_a_read_only_table(self, read):
        _, scenario, _ = read
        for copied in (
            pickle.loads(pickle.dumps(scenario)), copy.deepcopy(scenario), copy.copy(scenario),
        ):
            assert isinstance(copied.vmdks, VmdkTable) and copied == scenario
            for name, array in table_arrays(copied.vmdks).items():
                assert not array.flags.writeable, name
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0

    def test_roster_rows_sort_by_id_in_python_string_order_trailing_nuls_included(self):
        # A numpy "U" array drops trailing NULs, so "v" and "v\x00" would tie there.
        specs = [make_vmdk("v\x00", size_gb=2.0), make_vmdk("v", size_gb=1.0)]
        roster = Roster.of(VmdkTable.of(specs), [make_tier()])
        assert roster.ids == ("v", "v\x00") and roster.size_gb.tolist() == [1.0, 2.0]
        assert dict(roster.row) == {"v": 0, "v\x00": 1}

    def test_a_table_is_the_documents_vmdks_in_document_order(self, read):
        doc, scenario, _ = read
        assert scenario.vmdks.id == tuple(vmdk["id"] for vmdk in doc["vmdks"])
        assert scenario.vmdks.offsets.tolist() == [
            0, *accumulate(len(vmdk["demandProfile"]) for vmdk in doc["vmdks"])
        ]


class TestFleet:
    def test_equality_is_identity_and_a_fleet_and_its_view_hash(self):
        roster = parse_scenario(bundled_scenario_text("spike")).roster
        fleet, twin = Fleet.of(roster), Fleet.of(roster)
        view = fleet.read_only()
        assert fleet == fleet and fleet != twin and fleet != view
        assert len({hash(fleet), hash(twin), hash(view)}) == 3

    @pytest.mark.parametrize("name", ["table3-table4", "spike", "tiny-oracle"])
    def test_of_copies_the_paired_blocks_of_a_bundled_roster(self, name):
        # spare_mbps and demand start as the roster's bandwidth caps and phase-0
        # demand, in arrays of their own: activate_phases writes demand, and
        # one roster serves every run of its scenario. demand stays C-ordered,
        # so each of its rows, which serving reads, is contiguous.
        roster = parse_scenario(bundled_scenario_text(name)).roster
        fleet = Fleet.of(roster)
        n, t = len(roster.ids), len(roster.tiers)
        assert fleet.spare_mbps.tobytes() == roster.device_caps[2:].tobytes()
        assert fleet.demand.tobytes() == roster.phase_table[:, roster.first_phase].tobytes()
        assert fleet.demand.flags.c_contiguous
        shared = roster_arrays(roster).values()
        view = fleet.read_only()
        for block, shape in (("spare_mbps", (2, t)), ("demand", (3, n)), ("measured_mbps", (2, n))):
            array = getattr(fleet, block)
            assert (array.shape, array.dtype) == (shape, float)
            assert not any(np.shares_memory(array, a) for a in shared), block
            with pytest.raises(ValueError, match="read-only"):
                getattr(view, block)[:, -1] = 0.0
        table = roster.phase_table.tobytes()
        for epoch, (rows, k) in roster.due.items():
            fleet.demand[:, rows] = np.nan
            fleet.activate_phases(epoch)
            assert fleet.demand[:, rows].tobytes() == roster.phase_table[:, k].tobytes()
            assert fleet.demand.flags.c_contiguous
        assert roster.phase_table.tobytes() == table

    def test_move_lands_on_dest_row_and_clears_it(self):
        tiers = [make_tier(i) for i in (1, 2, 3)]
        states = [make_state(make_vmdk(v, initial_tier=3), tier=3) for v in ("a", "b")]
        fleet = fleet_of(states, tiers)
        assert fleet.dest_row.tolist() == [-1, -1]
        fleet.dest_row[1] = 0
        fleet.move(np.array([1]))
        assert fleet.tier_row.tolist() == [2, 0]
        assert fleet.dest_row.tolist() == [-1, -1]
        assert fleet.roster.tier_ids[fleet.tier_row].tolist() == [3, 1]

    def test_move_lands_every_row_at_once_and_clears_its_order(self):
        tiers = [make_tier(i) for i in (1, 2, 3)]
        states = [make_state(make_vmdk(v), tier=1) for v in ("a", "b", "c", "d")]
        fleet = fleet_of(states, tiers)
        fleet.dest_row[:] = [2, 1, 2, -1]
        fleet.order_index[:] = [0, 2, 1, -1]
        fleet.move(np.array([0, 1]))
        assert fleet.tier_row.tolist() == [2, 1, 0, 0]
        assert fleet.dest_row.tolist() == [-1, -1, 2, -1]
        assert fleet.order_index.tolist() == [-1, -1, 1, -1]
        fleet.move(np.zeros(0, dtype=np.intp))
        assert fleet.tier_row.tolist() == [2, 1, 0, 0]

    def test_the_read_only_view_refuses_writes_and_follows_the_fleet(self):
        fleet = Fleet.of(parse_scenario(bundled_scenario_text("spike")).roster)
        view = fleet.read_only()
        for name in RUN_COLUMNS:
            column = getattr(view, name)
            first = (0,) * column.ndim
            with pytest.raises(ValueError, match="read-only"):
                column[first] = 1
            getattr(fleet, name)[first] = 1
            assert column[first] == 1, name

    def test_budget_is_each_tiers_max_usable_and_read_only_in_the_view(self):
        tiers = [
            make_tier(1, capacity=ResourceVector(1000.0, 400.0, 500.0), mig_weight=0.25,
                      kind_weights=ResourceVector(2, 1, 0.5), specialty=ResourceVector(1, 0, 1)),
            make_tier(2, 300.0, caps=ResourceVector(0.5, 0.25, 1.0), read_iops=7e4,
                      write_iops=3e4, read_mbps=900.0, write_mbps=700.0),
        ]
        fleet = Fleet.of(Roster.of(VmdkTable.of([make_vmdk()]), tiers))
        view = fleet.read_only()
        columns = {
            "budget": lambda t: list(astuple(t.max_usable())),
            "base_latency_us": lambda t: t.base_latency_us,
            "mig_weight": lambda t: t.mig_weight,
            "match_mask": lambda t: list(astuple(t.specialty * t.kind_weights)),
            "kind_weight_total": lambda t: t.kind_weights.total(),
        }
        for name, spec_field in columns.items():
            column = getattr(fleet.roster, name)
            assert column.dtype == float and len(column) == len(tiers), name
            assert column.tolist() == [spec_field(t) for t in tiers], name
            with pytest.raises(ValueError, match="read-only"):
                getattr(view.roster, name)[0] = 0.0

    def test_device_caps_stack_the_four_serve_caps_read_only(self):
        tiers = [make_tier(i, read_iops=1e3 * i, write_iops=2e3 * i, read_mbps=30.0 * i,
                           write_mbps=40.0 * i) for i in (1, 2, 3)]
        roster = Fleet.of(Roster.of(VmdkTable.of([make_vmdk()]), tiers)).read_only().roster
        names = ("read_throughput_cap", "write_throughput_cap", "read_bandwidth_cap",
                 "write_bandwidth_cap")
        assert roster.device_caps.shape == (4, len(tiers)) and roster.device_caps.dtype == float
        assert roster.device_caps.tolist() == [[getattr(t, name) for t in tiers] for name in names]
        assert roster.device_caps.flags.c_contiguous
        assert not roster.device_caps.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            roster.device_caps[0, 0] = 0.0

    def test_of_starts_each_spec_on_its_initial_tier_in_phase_zero_unmeasured(self):
        tiers = [make_tier(i, read_mbps=100.0 * i, write_mbps=70.0 * i) for i in (1, 2, 3)]
        later = WorkloadPhase(4, 9.0, 512.0, 0.5)
        specs = [
            make_vmdk("b", initial_tier=3, demand_iops=300.0, avg_io_size_bytes=8192.0,
                      read_fraction=0.25),
            make_vmdk("a", initial_tier=2, phases=(WorkloadPhase(0, 100.0, 4096.0, 0.75), later)),
        ]
        fleet = Fleet.of(Roster.of(VmdkTable.of(specs), tiers))
        assert fleet.roster.ids == ("a", "b")
        assert fleet.roster.tier_ids[fleet.roster.initial_tier_row].tolist() == [2, 3]
        assert fleet.roster.tier_ids[fleet.tier_row].tolist() == [2, 3]
        assert not np.shares_memory(fleet.tier_row, fleet.roster.initial_tier_row)
        # Demand IOPS, read fraction and I/O size, in _DEMAND_COLUMNS order.
        assert fleet.demand.tolist() == [[100.0, 300.0], [0.75, 0.25], [4096.0, 8192.0]]
        assert fleet.measured_iops.tolist() == fleet.measured_latency_us.tolist() == [0.0, 0.0]
        assert fleet.measured_mbps.tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert (fleet.dest_row == -1).all() and (fleet.order_index == -1).all()
        # Nothing served yet: each tier's whole bandwidth is spare, in an array of its own.
        assert fleet.spare_mbps.tolist() == [[100.0, 200.0, 300.0], [70.0, 140.0, 210.0]]
        assert not np.shares_memory(fleet.spare_mbps, fleet.roster.device_caps)
        assert list(fleet.roster.due) == [4]
        # The phases stay in document order: b's phase 0, then a's two.
        assert fleet.roster.first_phase.tolist() == [1, 0]
        rows, phases = fleet.roster.due[4]
        assert rows.tolist() == [0] and phases.tolist() == [2]
        assert fleet.roster.phase_table[:, 2].tolist() == [9.0, 0.5, 512.0]
        assert [astuple(s)[1:] for s in fleet_states(fleet, specs)] == [
            (2, 100.0, 4096.0, 0.75, 0.0, 0.0, 0.0, 0.0),
            (3, 300.0, 8192.0, 0.25, 0.0, 0.0, 0.0, 0.0),
        ]


class TestMigrationLog:
    def log(self):
        tiers = [make_tier(i) for i in (1, 2, 3)]
        states = [make_state(make_vmdk(v, size_gb=10.0), tier=1) for v in ("a", "b", "c")]
        fleet = fleet_of(states, tiers)
        log = MigrationLog(fleet.roster.ids)
        fleet.order_index[[0, 2]] = log.append(
            np.array([0, 2]), np.array([1, 1]), np.array([2, 3]), np.array([10e9, 10e9]), 0
        )
        fleet.order_index[[2]] = log.append(
            np.array([2]), np.array([3]), np.array([1]), np.array([10e9]), 3
        )
        log.set_progress(fleet.order_index[[0, 2]], [10e9, 4e9], [50.0, 0.0], [False, True])
        return log

    def test_append_returns_log_indices_and_starts_at_zero(self):
        log = MigrationLog(("a",))
        for index, (frm, to, epoch) in enumerate(((1, 2, 4), (2, 1, 7))):
            k = log.append(np.array([0]), np.array([frm]), np.array([to]), np.array([1e9]), epoch)
            assert k.tolist() == [index]
        assert [astuple(o) for o in log_orders(log)] == [
            ("a", 1, 2, 1e9, 4, 0.0, 0.0, False), ("a", 2, 1, 1e9, 7, 0.0, 0.0, False),
        ]

    def test_records_hold_the_progress_where_set(self):
        log = self.log()
        assert len(log) == 3
        assert [astuple(o) for o in log_orders(log)] == [
            ("a", 1, 2, 10e9, 0, 10e9, 50.0, False),
            ("c", 1, 3, 10e9, 0, 0.0, 0.0, False),
            ("c", 3, 1, 10e9, 3, 4e9, 0.0, True),
        ]
        # The scale digest hashes these reprs: plain Python numbers, no numpy scalars.
        assert repr(log_orders(log)[0]) == (
            "MigrationOrder(vmdk_id='a', from_tier=1, to_tier=2, bytes_total=10000000000.0, "
            "started_epoch=0, bytes_moved=10000000000.0, speed_mbps=50.0, stalled=False)"
        )

    def test_summaries_read_the_columns(self):
        log = self.log()
        assert log.total_migrated_bytes() == 14e9
        assert log.migrated_vmdk_ids() == ("a", "c")
        assert log.unfinished() == 2
        empty = MigrationLog(("a",))
        assert (empty.total_migrated_bytes(), empty.migrated_vmdk_ids(), empty.unfinished()) == (
            0, (), 0
        )
        assert type(empty.total_migrated_bytes()) is int
        assert log_orders(empty) == []

    def test_total_adds_left_to_right(self):
        # A compensated sum (Python 3.12's sum()) gives 1.0000000000000002e16.
        log = MigrationLog(("a", "b", "c"))
        k = log.append(
            np.arange(3), np.array([1, 1, 1]), np.array([2, 2, 2]),
            np.array([1e16, 1.0, 1.0]), 0,
        )
        log.set_progress(k, [1e16, 1.0, 1.0], [1.0] * 3, [False] * 3)
        assert log.total_migrated_bytes() == 1e16

    def test_append_refuses_a_move_that_stays(self):
        log = MigrationLog(("a",))
        with pytest.raises(ValueError, match="migration must change tiers"):
            log.append(np.array([0]), np.array([2]), np.array([2]), np.array([1e9]), 0)
        assert len(log) == 0


class TestGrownMigrationLog:
    """A log's columns read the filled prefix of buffers that grow as orders arrive."""

    IDS = ("a", "b", "c")

    def blocks(self, count=40):
        """``count`` blocks of 1-7 orders: (rows, from_tier, to_tier, bytes_total)."""
        rng = np.random.default_rng(5)
        blocks = []
        for n in rng.integers(1, 8, count).tolist():
            source = rng.integers(1, 4, n)
            total = rng.uniform(1e9, 5e10, n)
            blocks.append((rng.integers(0, 3, n), source, source % 3 + 1, total))
        return blocks

    def grown(self, epoch=7):
        """A log filled one block at a time, and the capacities it went through."""
        log, capacities = MigrationLog(self.IDS), set()
        for block in self.blocks():
            log.append(*block, epoch)
            capacities.add(len(log.row.base))
        return log, capacities

    def columns(self, log):
        names = ("row", "from_tier", "to_tier", "bytes_total", "started_epoch", "bytes_moved",
                 "speed_mbps", "stalled")
        return [(name, getattr(log, name).dtype, getattr(log, name).tobytes()) for name in names]

    def test_many_appends_equal_one(self):
        log, capacities = self.grown()
        assert len(capacities) >= 4  # it grew several times
        one = MigrationLog(self.IDS)
        k = one.append(*(np.concatenate(column) for column in zip(*self.blocks())), 7)
        assert k.tolist() == list(range(len(log))) and len(one) == len(log)
        assert self.columns(log) == self.columns(one)
        assert [dtype for _, dtype, _ in self.columns(log)] == [
            np.intp, np.int64, np.int64, float, np.int64, float, float, bool
        ]

    def test_progress_set_before_and_after_a_growth_reads_back(self):
        log = MigrationLog(self.IDS)
        first = log.append(
            np.array([0, 1]), np.array([1, 2]), np.array([2, 3]), np.array([4e9, 8e9]), 0
        )
        log.set_progress(first, [1e9, 8e9], [5.0, 6.0], [True, False])
        capacity = len(log.row.base)
        rows = np.arange(3).repeat(4)
        later = log.append(rows, np.full(12, 3), np.full(12, 1), np.full(12, 2e9), 3)
        assert len(log.row.base) > capacity
        log.set_progress(later[::5], [2e9, 1e9, 0.5e9], [7.0, 8.0, 9.0], [False, True, False])
        assert log.bytes_moved.tolist() == [1e9, 8e9, 2e9, *[0.0] * 4, 1e9, *[0.0] * 4, 0.5e9, 0.0]
        assert log.speed_mbps[[0, 1, 2, 7, 12]].tolist() == [5.0, 6.0, 7.0, 8.0, 9.0]
        assert np.flatnonzero(log.stalled).tolist() == [0, 7]
        assert log.total_migrated_bytes() == 12.5e9 and log.unfinished() == 12

    @pytest.mark.parametrize(
        "copy_of", [copy.deepcopy, lambda log: pickle.loads(pickle.dumps(log))], ids=["deepcopy", "pickle"]
    )
    def test_a_copy_of_a_grown_log_is_equal_and_keeps_working(self, copy_of):
        log, _ = self.grown()
        twin = copy_of(log)
        assert twin.ids == log.ids and self.columns(twin) == self.columns(log)
        k = twin.append(np.array([2]), np.array([1]), np.array([3]), np.array([6e9]), 9)
        twin.set_progress(k, [6e9], [4.0], [False])
        twin.set_progress(np.array([0]), [log.bytes_total[0]], [3.0], [True])
        assert len(twin) == len(log) + 1 and twin.bytes_moved[[0, -1]].tolist() == [
            log.bytes_total[0], 6e9
        ]
        assert twin.stalled[0] and twin.started_epoch[-1] == 9
        assert log.bytes_moved[0] == 0.0 and not log.stalled[0]  # the original is untouched


class TestScenarioValidation:
    def test_bundled_paper_scenario_is_valid(self):
        scenario = parse_scenario(bundled_scenario_text("table3-table4"))
        assert len(scenario.tiers) == 3
        assert len(scenario.vmdks) == 14

    def test_tier_ids_must_be_contiguous(self):
        with pytest.raises(ScenarioValidationError, match="contiguous"):
            Scenario(
                tiers=(make_tier(1), make_tier(3, base_latency_us=300.0)),
                vmdks=(make_vmdk(),),
            )

    def test_latency_must_increase_with_tier_id(self):
        with pytest.raises(ScenarioValidationError, match="strictly increase"):
            Scenario(
                tiers=(make_tier(1, 200.0), make_tier(2, 100.0)),
                vmdks=(make_vmdk(),),
            )

    def test_a_scenario_needs_a_tier(self):
        # Python-built only: a document's empty tier list is refused before this check.
        with pytest.raises(ScenarioValidationError, match="tiers: at least one tier required"):
            Scenario(tiers=(), vmdks=(make_vmdk(),))

    def test_initial_tier_must_exist(self):
        with pytest.raises(ScenarioValidationError, match="does not exist"):
            Scenario(tiers=(make_tier(1),), vmdks=(make_vmdk(initial_tier=4),))

    def test_diagnostics_aggregate_instead_of_aborting(self):
        doc = {
            "schemaVersion": 1,
            "tiers": [
                {
                    "id": 1, "name": "a", "baseLatencyUs": 50.0,
                    "capacity": {"p": 1000, "b": 100, "s": 100},
                    "readThroughputCap": 1000, "writeThroughputCap": 500,
                    "readBandwidthCap": 100, "writeBandwidthCap": 80,
                    "caps": {"p": 1.5, "b": 1.0, "s": 1.0},
                }
            ],
            "vmdks": [
                {
                    "id": "v1", "vmId": "vm1", "sizeGb": 0,
                    "initialTier": 1, "truthSlope": 0.1, "truthInterceptUs": 10,
                    "demandProfile": [
                        {"startEpoch": 0, "demandIops": 10, "avgIoSizeBytes": 4096}
                    ],
                },
            ],
        }
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(doc)
        messages = "\n".join(err.value.errors)
        assert "cap fraction out of (0,1]" in messages
        assert "sizeGb must be positive" in messages
        assert len(err.value.errors) >= 2

    def test_error_paths_name_the_location(self):
        doc = {
            "schemaVersion": 1,
            "tiers": "nope",
            "vmdks": [],
        }
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(doc)
        assert any(msg.startswith("tiers") for msg in err.value.errors)
        assert any(msg.startswith("vmdks") for msg in err.value.errors)

    def test_simulation_config_bounds(self):
        with pytest.raises(ValueError, match="epochs"):
            SimulationConfig(epochs=-1)
        with pytest.raises(ValueError, match="epochSeconds"):
            SimulationConfig(epochs=1, epoch_seconds=0.0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SimulationConfig(epochs=1, seed=-1)
