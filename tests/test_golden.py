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

The hashes were recorded with numpy 2.4 on x86_64; another numpy or platform
may round differently. Regenerating them (``python tests/test_golden.py``
prints a fresh artifact table, ``python tests/test_golden.py --plans`` a
fresh digest table) requires a CHANGES.md entry that says which outputs
changed and why the change is intended.
"""

import hashlib
import json
from pathlib import Path

import pytest

from autotier.engine import POLICY_NAMES, run_scenario
from autotier.reporting import write_run_artifacts
from autotier.scenario import load_bundled_scenario

GOLDEN_PATH = Path(__file__).with_name("golden_hashes.json")
PLAN_DIGEST_PATH = Path(__file__).with_name("golden_plan_digests.json")
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


def plan_digest(scenario: str, policy: str, seed: int) -> str:
    """SHA-256 over the full-precision repr of every plan of one run."""
    result = run_scenario(load_bundled_scenario(scenario), policy, seed=seed)
    digest = hashlib.sha256()
    for plan in result.plans:
        usage = [(t, u.p, u.b, u.s) for t, u in plan.planned_usage.items()]
        record = (plan.epoch_index, plan.target, plan.migrations, sorted(plan.overloaded), usage)
        digest.update(repr(record).encode())
    return digest.hexdigest()


CASES = [(s, p, seed) for s in SCENARIOS for p in POLICY_NAMES for seed in SEEDS]


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


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


if __name__ == "__main__":
    import sys
    import tempfile

    if sys.argv[1:] == ["--plans"]:
        table = {case_key(*case): plan_digest(*case) for case in CASES}
    else:
        table = {}
        for case in CASES:
            with tempfile.TemporaryDirectory() as tmp:
                table[case_key(*case)] = artifact_hashes(*case, Path(tmp))
    print(json.dumps(table, indent=2, sort_keys=True))
