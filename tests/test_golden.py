"""Golden outputs: SHA-256 of the byte-stable artifacts of every bundled run.

Each case runs one bundled scenario under one policy and seed, writes the
run artifacts and compares the hashes of all five (``metrics.csv``,
``summary.json``, ``cdf_iops.dat``, ``cdf_bw.dat`` and ``migrations.json``)
with ``golden_hashes.json``. A refactor that changes what the simulator
computes, or how a run writes it, even deterministically, fails here.

The artifacts round values to 6 significant digits, so a second table,
``golden_plan_digests.json``, holds one SHA-256 per case over the
full-precision ``repr`` of every migration-epoch plan: target, migrations,
overloaded VMDKs and planned usage. Planned usage sums predicted capacity
cells, so a one-ulp change in a calibration fit shows up there.

Bundled scenarios hold at most 14 VMDKs and only ``spike`` changes demand
mid-run, so a third table, ``golden_scale_digests.json``, pins one larger
run per policy: ``table3-table4`` replicated twenty times with tier pools
and serve caps scaled to match, every VMDK given a seeded multi-phase demand
profile. Its digest covers the full-precision ``repr`` of every epoch
record, plan, migration order and final VMDK state, so a change in the
order per-tier sums accumulate in, or in the epoch a phase starts, fails it.

A fourth table, ``golden_oracle_check.json``, holds the SHA-256 of the JSON
that ``autotier oracle-check --scenario tiny-oracle`` prints per seed: the
greedy and optimum profit of every plan at full precision. The optimum
is the profit of the oracle's plan, so an oracle that finds another plan of
exactly the same profit leaves it unchanged.

A fifth table, ``golden_diagnostics.json``, pins what the scenario reader
makes of malformed documents: one SHA-256 per bundled document over every
mutant of it, each key and list index deleted or replaced by each of
``MUTANT_TOKENS``, and each object given an unknown key. A mutant that
parses contributes its scenario document, any other the exact
``errors`` list, so a reader change that rewords, reorders, drops or adds
a diagnostic fails here.

Three hot layers each pick a fast path or its slow twin by a cutover: the
migration book (``engine.PROGRESS_LOOP_ROWS``), the packer's fit scan
(``policy.FIRST_FIT_WINDOW``) and the VMDK reader (the column pass
``model._read_vmdks``, else item by item). No golden document is large
enough to reach every path, so the artifact, plan and scale goldens run
again with each cutover pinned at either extreme, and the artifact goldens
with the VMDKs read item by item.

The hashes were recorded with numpy 2.4 on x86_64; another numpy or platform
may round differently. Regenerating them (``python tests/test_golden.py``
prints a fresh artifact table, ``python tests/test_golden.py --plans`` a
fresh digest table, ``--scale`` a fresh scale table, ``--oracle`` a fresh
oracle-check table, ``--diagnostics`` a fresh diagnostics table) requires
a CHANGES.md entry that says which outputs changed and why the change is
intended.
"""

import contextlib
import copy
import hashlib
import io
import json
import random
from pathlib import Path
from unittest import mock

import pytest

from autotier import engine, model, policy
from autotier.cli import main
from autotier.engine import POLICY_NAMES, run_scenario
from autotier.reporting import RUN_FILES, write_run_artifacts
from autotier.model import (
    SCHEMA, Scenario, ScenarioValidationError, VmdkSpec, VmdkTable, validate_scenario,
)
from autotier.scenario import (
    bundled_scenario_text,
    load_bundled_scenario,
    parse_scenario,
    scenario_to_document,
    serialize_scenario,
)

from conftest import epoch_records, final_states, keyed_plan, log_orders

GOLDEN_PATH = Path(__file__).with_name("golden_hashes.json")
PLAN_DIGEST_PATH = Path(__file__).with_name("golden_plan_digests.json")
SCALE_DIGEST_PATH = Path(__file__).with_name("golden_scale_digests.json")
ORACLE_DIGEST_PATH = Path(__file__).with_name("golden_oracle_check.json")
DIAGNOSTIC_DIGEST_PATH = Path(__file__).with_name("golden_diagnostics.json")
SCENARIOS = ("table3-table4", "spike", "tiny-oracle")
SEEDS = (0, 1, 42)
HASHED_FILES = RUN_FILES


def case_key(scenario: str, policy: str, seed: int) -> str:
    return f"{scenario}/{policy}/{seed}"


def bundled_run(scenario: str, policy: str, seed: int):
    return run_scenario(load_bundled_scenario(scenario), policy, seed=seed)


def artifact_hashes(result, out_dir: Path) -> dict[str, str]:
    write_run_artifacts(result, out_dir)
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in HASHED_FILES
    }


def plan_record(plan) -> tuple:
    """The full-precision fields of a plan keyed by id, such as ``keyed_plan`` gives."""
    usage = [(t, u.p, u.b, u.s) for t, u in plan.planned_usage.items()]
    return (plan.epoch_index, plan.target, plan.migrations, sorted(plan.overloaded), usage)


def plan_digest(result) -> str:
    """SHA-256 over the full-precision repr of every plan of one run."""
    digest = hashlib.sha256()
    for plan in result.plans:
        digest.update(repr(plan_record(keyed_plan(plan))).encode())
    return digest.hexdigest()


SCALE_REPLICAS = 20
SCALE_EPOCHS = 15
SCALE_SEED = 5
_SCALED_TIER_FIELDS = (
    "readThroughputCap", "writeThroughputCap", "readBandwidthCap", "writeBandwidthCap",
)


def scale_document():
    """``table3-table4`` x20 with seeded multi-phase demand, some phases past the end."""
    base = json.loads(bundled_scenario_text("table3-table4"))
    rng = random.Random(SCALE_SEED)
    doc = dict(base, vmdks=[])
    for tier in doc["tiers"]:
        tier["capacity"] = {k: v * SCALE_REPLICAS for k, v in tier["capacity"].items()}
        for key in _SCALED_TIER_FIELDS:
            tier[key] *= SCALE_REPLICAS
    for r in range(SCALE_REPLICAS):
        for v in base["vmdks"]:
            first = v["demandProfile"][0]
            starts = sorted(rng.sample(range(1, SCALE_EPOCHS + 3), rng.randint(0, 3)))
            later = [
                {
                    "startEpoch": start,
                    "demandIops": first["demandIops"] * rng.lognormvariate(0.0, 1.0),
                    "avgIoSizeBytes": first["avgIoSizeBytes"] * rng.choice((0.5, 1.0, 2.0)),
                    "readFraction": rng.uniform(0.0, 1.0),
                }
                for start in starts
            ]
            doc["vmdks"].append(dict(
                v, id=f"{v['id']}-r{r:02d}", vmId=f"{v['vmId']}-r{r:02d}",
                demandProfile=[first] + later,
            ))
    doc["simulation"] = dict(base["simulation"], epochs=SCALE_EPOCHS, seed=SCALE_SEED)
    return doc


def scale_scenario():
    """The scenario of ``scale_document``."""
    return validate_scenario(scale_document())


def run_digest(result) -> str:
    """SHA-256 over the full-precision repr of everything a run returns."""
    digest = hashlib.sha256()
    for record in (
        *epoch_records(result),
        *(plan_record(keyed_plan(plan)) for plan in result.plans),
        *log_orders(result.migration_log),
        *final_states(result).items(),
    ):
        digest.update(repr(record).encode())
    return digest.hexdigest()


def oracle_check_digest(seed: int) -> str:
    """SHA-256 of what ``oracle-check --scenario tiny-oracle --seed SEED`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["oracle-check", "--scenario", "tiny-oracle", "--seed", str(seed)])
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


MUTANT_TOKENS = (
    '"x"', '""', "null", "true", "false", "0", "-1", "2.7", "3.0", "1e400", "-1e400", "NaN",
    "1" + "0" * 400, "[]", "{}", "[1, 2]", '{"zz": 1}',
)
_PLACEHOLDER = "MUTANT-PLACEHOLDER"


def node_paths(node, prefix=()):
    """The path of ``node`` and of every value inside it, parents first."""
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for step, child in children:
        yield from node_paths(child, prefix + (step,))


def copy_to(doc, path):
    """A deep copy of ``doc`` and the node at ``path`` inside the copy."""
    mutant = node = copy.deepcopy(doc)
    for step in path:
        node = node[step]
    return mutant, node


def mutants(name: str):
    """(path, mutation, JSON text) of every mutant of one bundled document."""
    doc = json.loads(bundled_scenario_text(name))
    for path in node_paths(doc):
        if path:
            mutant, parent = copy_to(doc, path[:-1])
            parent[path[-1]] = _PLACEHOLDER
            text = json.dumps(mutant)
            for token in MUTANT_TOKENS:
                yield path, token, text.replace(f'"{_PLACEHOLDER}"', token)
            del parent[path[-1]]
            yield path, "delete", json.dumps(mutant)
        mutant, node = copy_to(doc, path)
        if isinstance(node, dict):
            node["unknownKey"] = 1
            yield path, "unknown key", json.dumps(mutant)


def diagnostics_digest(name: str) -> str:
    """SHA-256 over what the reader makes of every mutant of one bundled document."""
    digest = hashlib.sha256()
    for path, mutation, text in mutants(name):
        try:
            outcome = ["parsed", scenario_to_document(parse_scenario(text))]
        except ScenarioValidationError as exc:
            outcome = ["errors", exc.errors]
        digest.update(json.dumps([list(path), mutation, outcome]).encode() + b"\n")
    return digest.hexdigest()


CASES = [(s, p, seed) for s in SCENARIOS for p in POLICY_NAMES for seed in SEEDS]


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def scale() -> object:
    return scale_scenario()


@pytest.fixture(scope="module")
def plan_digests() -> dict[str, str]:
    return json.loads(PLAN_DIGEST_PATH.read_text(encoding="utf-8"))


def test_table_covers_every_case(golden, plan_digests):
    keys = sorted(case_key(*case) for case in CASES)
    assert sorted(golden) == keys
    assert sorted(plan_digests) == keys


@pytest.mark.parametrize("scenario,policy,seed", CASES)
def test_artifacts_match_golden(scenario, policy, seed, tmp_path, golden):
    key = case_key(scenario, policy, seed)
    assert artifact_hashes(bundled_run(scenario, policy, seed), tmp_path) == golden[key]


@pytest.mark.parametrize("scenario,policy,seed", CASES)
def test_plans_match_golden_digest(scenario, policy, seed, plan_digests):
    result = bundled_run(scenario, policy, seed)
    assert plan_digest(result) == plan_digests[case_key(scenario, policy, seed)]


def test_scale_scenario_is_large_and_changes_demand_mid_run(scale):
    assert len(scale.vmdks) == 14 * SCALE_REPLICAS
    starts = [p.start_epoch for v in scale.vmdks for p in v.demand_profile[1:]]
    assert 0 < min(starts) and max(starts) >= SCALE_EPOCHS
    assert len(starts) > len(scale.vmdks)


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_scale_run_matches_golden_digest(policy, scale):
    golden = json.loads(SCALE_DIGEST_PATH.read_text(encoding="utf-8"))
    assert run_digest(run_scenario(scale, policy)) == golden[policy]


# Each hot layer's fast path and its slow twin, chosen by a cutover: pinning
# the cutover at either extreme sends every run through one of them.
FORCED_PATHS = [
    (engine, "PROGRESS_LOOP_ROWS", 0),  # every book on the fixed-point passes
    (engine, "PROGRESS_LOOP_ROWS", 10**9),  # every book on the scalar loop
    (policy, "FIRST_FIT_WINDOW", 1),  # every fit scan on the array passes
    (policy, "FIRST_FIT_WINDOW", 10**9),  # every fit scan in scalar windows
]


@pytest.mark.parametrize("module,name,value", FORCED_PATHS,
                         ids=lambda x: getattr(x, "__name__", str(x)))
def test_each_forced_path_matches_the_run_goldens(
    module, name, value, monkeypatch, tmp_path, golden, plan_digests, scale,
):
    monkeypatch.setattr(module, name, value)
    for case in CASES:
        result = bundled_run(*case)
        key = case_key(*case)
        assert artifact_hashes(result, tmp_path / key.replace("/", "-")) == golden[key], key
        assert plan_digest(result) == plan_digests[key], key
    scale_golden = json.loads(SCALE_DIGEST_PATH.read_text(encoding="utf-8"))
    for scale_policy in POLICY_NAMES:
        assert run_digest(run_scenario(scale, scale_policy)) == scale_golden[scale_policy]


def test_the_item_by_item_reader_matches_the_artifact_goldens(tmp_path, golden):
    # The vmdks list read with no column pass, as if ``_read_vmdks`` returned None.
    item_by_item = tuple(
        (key, arg, model._list_of(VmdkSpec) if key == "vmdks" else read, default, rule)
        for key, arg, read, default, rule in SCHEMA[Scenario]
    )
    for name in SCENARIOS:
        column_read = load_bundled_scenario(name)
        with mock.patch.dict(SCHEMA, {Scenario: item_by_item}), mock.patch.object(
            VmdkTable, "of", side_effect=VmdkTable.of
        ) as gather:
            scenario = load_bundled_scenario(name)
        assert gather.call_count == 1  # the specs were read one by one, then gathered
        assert serialize_scenario(scenario) == serialize_scenario(column_read)
        for policy_name in POLICY_NAMES:
            for seed in SEEDS:
                key = case_key(name, policy_name, seed)
                result = run_scenario(scenario, policy_name, seed=seed)
                assert artifact_hashes(result, tmp_path / key.replace("/", "-")) == golden[key]


@pytest.mark.parametrize("seed", SEEDS)
def test_oracle_check_matches_golden_digest(seed):
    golden = json.loads(ORACLE_DIGEST_PATH.read_text(encoding="utf-8"))
    assert sorted(golden) == [f"tiny-oracle/{s}" for s in sorted(SEEDS)]
    assert oracle_check_digest(seed) == golden[f"tiny-oracle/{seed}"]


@pytest.mark.parametrize("name", SCENARIOS)
def test_diagnostics_match_golden_digest(name):
    golden = json.loads(DIAGNOSTIC_DIGEST_PATH.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(SCENARIOS)
    assert diagnostics_digest(name) == golden[name]


if __name__ == "__main__":
    import sys
    import tempfile

    if sys.argv[1:] == ["--plans"]:
        table = {case_key(*case): plan_digest(bundled_run(*case)) for case in CASES}
    elif sys.argv[1:] == ["--scale"]:
        scenario = scale_scenario()
        table = {p: run_digest(run_scenario(scenario, p)) for p in POLICY_NAMES}
    elif sys.argv[1:] == ["--oracle"]:
        table = {f"tiny-oracle/{seed}": oracle_check_digest(seed) for seed in SEEDS}
    elif sys.argv[1:] == ["--diagnostics"]:
        table = {name: diagnostics_digest(name) for name in SCENARIOS}
    else:
        table = {}
        for case in CASES:
            with tempfile.TemporaryDirectory() as tmp:
                table[case_key(*case)] = artifact_hashes(bundled_run(*case), Path(tmp))
    print(json.dumps(table, indent=2, sort_keys=True))
