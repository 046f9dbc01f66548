"""Golden outputs: SHA-256 of the byte-stable artifacts of every bundled run.

Each case runs one bundled scenario under one policy and seed, writes the
run artifacts and compares the hashes of ``metrics.csv``, ``summary.json``
and ``migrations.json`` with ``golden_hashes.json``. A refactor that changes
what the simulator computes, even deterministically, fails here.

The hashes were recorded with numpy 2.4 on x86_64; another numpy or platform
may round differently. Regenerating them (``python tests/test_golden.py``
prints a fresh table) requires a CHANGES.md entry that says which outputs
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


CASES = [(s, p, seed) for s in SCENARIOS for p in POLICY_NAMES for seed in SEEDS]


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_table_covers_every_case(golden):
    assert sorted(golden) == sorted(case_key(*case) for case in CASES)


@pytest.mark.parametrize("scenario,policy,seed", CASES)
def test_artifacts_match_golden(scenario, policy, seed, tmp_path, golden):
    key = case_key(scenario, policy, seed)
    assert artifact_hashes(scenario, policy, seed, tmp_path) == golden[key]


if __name__ == "__main__":
    import tempfile

    table = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            table[case_key(*case)] = artifact_hashes(*case, Path(tmp))
    print(json.dumps(table, indent=2, sort_keys=True))
