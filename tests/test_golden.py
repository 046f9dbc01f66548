"""Golden outputs: SHA-256 of the byte-stable artifacts of every bundled run.

Each case runs one bundled scenario under one policy and seed, writes the
run artifacts and compares the hashes of ``metrics.csv``, ``summary.json``
and ``migrations.json`` with ``golden_hashes.json``. A refactor that changes
what the simulator computes, even deterministically, fails here.

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
greedy and brute-force profit of every plan at full precision.

The hashes were recorded with numpy 2.4 on x86_64; another numpy or platform
may round differently. Regenerating them (``python tests/test_golden.py``
prints a fresh artifact table, ``python tests/test_golden.py --plans`` a
fresh digest table, ``--scale`` a fresh scale table, ``--oracle`` a fresh
oracle-check table) requires a CHANGES.md entry that says which outputs
changed and why the change is intended.
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from autotier.cli import main
from autotier.engine import POLICY_NAMES, run_scenario
from autotier.reporting import write_run_artifacts
from autotier.model import validate_scenario
from autotier.scenario import bundled_scenario_text, load_bundled_scenario

from conftest import keyed_plan, log_orders

GOLDEN_PATH = Path(__file__).with_name("golden_hashes.json")
PLAN_DIGEST_PATH = Path(__file__).with_name("golden_plan_digests.json")
SCALE_DIGEST_PATH = Path(__file__).with_name("golden_scale_digests.json")
ORACLE_DIGEST_PATH = Path(__file__).with_name("golden_oracle_check.json")
SCENARIOS = ("table3-table4", "spike", "tiny-oracle")
SEEDS = (0, 1, 42)
HASHED_FILES = ("metrics.csv", "summary.json", "migrations.json")


def case_key(scenario: str, policy: str, seed: int) -> str:
    return f"{scenario}/{policy}/{seed}"


def artifact_hashes(scenario: str, policy: str, seed: int, out_dir: Path) -> dict[str, str]:
    result = run_scenario(load_bundled_scenario(scenario), policy, seed=seed)
    write_run_artifacts(result, out_dir)
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in HASHED_FILES
    }


def plan_record(plan) -> tuple:
    """The full-precision fields of a plan keyed by id, such as ``keyed_plan`` gives."""
    usage = [(t, u.p, u.b, u.s) for t, u in plan.planned_usage.items()]
    return (plan.epoch_index, plan.target, plan.migrations, sorted(plan.overloaded), usage)


def plan_digest(scenario: str, policy: str, seed: int) -> str:
    """SHA-256 over the full-precision repr of every plan of one run."""
    result = run_scenario(load_bundled_scenario(scenario), policy, seed=seed)
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


def scale_scenario():
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
    return validate_scenario(doc)


def run_digest(result) -> str:
    """SHA-256 over the full-precision repr of everything a run returns."""
    digest = hashlib.sha256()
    for record in (
        *result.epochs,
        *(plan_record(keyed_plan(plan)) for plan in result.plans),
        *log_orders(result.migration_log),
        *result.final_states.items(),
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
    assert artifact_hashes(scenario, policy, seed, tmp_path) == golden[key]


@pytest.mark.parametrize("scenario,policy,seed", CASES)
def test_plans_match_golden_digest(scenario, policy, seed, plan_digests):
    assert plan_digest(scenario, policy, seed) == plan_digests[case_key(scenario, policy, seed)]


def test_scale_scenario_is_large_and_changes_demand_mid_run(scale):
    assert len(scale.vmdks) == 14 * SCALE_REPLICAS
    starts = [p.start_epoch for v in scale.vmdks for p in v.demand_profile[1:]]
    assert 0 < min(starts) and max(starts) >= SCALE_EPOCHS
    assert len(starts) > len(scale.vmdks)


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_scale_run_matches_golden_digest(policy, scale):
    golden = json.loads(SCALE_DIGEST_PATH.read_text(encoding="utf-8"))
    assert run_digest(run_scenario(scale, policy)) == golden[policy]


@pytest.mark.parametrize("seed", SEEDS)
def test_oracle_check_matches_golden_digest(seed):
    golden = json.loads(ORACLE_DIGEST_PATH.read_text(encoding="utf-8"))
    assert sorted(golden) == [f"tiny-oracle/{s}" for s in sorted(SEEDS)]
    assert oracle_check_digest(seed) == golden[f"tiny-oracle/{seed}"]


if __name__ == "__main__":
    import sys
    import tempfile

    if sys.argv[1:] == ["--plans"]:
        table = {case_key(*case): plan_digest(*case) for case in CASES}
    elif sys.argv[1:] == ["--scale"]:
        scenario = scale_scenario()
        table = {p: run_digest(run_scenario(scenario, p)) for p in POLICY_NAMES}
    elif sys.argv[1:] == ["--oracle"]:
        table = {f"tiny-oracle/{seed}": oracle_check_digest(seed) for seed in SEEDS}
    else:
        table = {}
        for case in CASES:
            with tempfile.TemporaryDirectory() as tmp:
                table[case_key(*case)] = artifact_hashes(*case, Path(tmp))
    print(json.dumps(table, indent=2, sort_keys=True))
