"""Whole-run metamorphic relations: related documents whose runs must agree byte for byte.

A relation says how the outputs of two related inputs must relate, so it
checks a run whose right answer is unknown (T. Y. Chen, S. C. Cheung and
S. M. Yiu, "Metamorphic Testing: A New Approach for Generating Next Test
Cases", HKUST-CS98-01, 1998). Each case runs every bundled document under
every policy, once as shipped and once transformed, and compares the
SHA-256 of the five run artifacts:

- shuffling ``vmdks`` changes nothing, since rows follow ids, not document
  order;
- prefixing every id with ``z`` keeps the ids' order, so it changes only
  the ids ``migrations.json`` lists, and nothing once they are mapped back;
- splitting a phase that spans two or more epochs into two phases of the
  same demand, the second one epoch later, changes nothing.
"""

import hashlib
import json
import random

import pytest

from autotier.engine import POLICY_NAMES, run_scenario
from autotier.model import validate_scenario
from autotier.reporting import RUN_FILES, write_run_artifacts
from autotier.scenario import bundled_scenario_text

SCENARIOS = ("table3-table4", "spike", "tiny-oracle")
CASES = [(name, policy) for name in SCENARIOS for policy in POLICY_NAMES]


def document(name: str) -> dict:
    return json.loads(bundled_scenario_text(name))


def artifacts(doc: dict, policy: str, out_dir) -> dict[str, bytes]:
    """The bytes of each run artifact of ``doc`` under ``policy``."""
    write_run_artifacts(run_scenario(validate_scenario(doc), policy), out_dir)
    return {name: (out_dir / name).read_bytes() for name in RUN_FILES}


def digests(files: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    """The artifact digests of each shipped document's run, each run once."""
    cache = {}

    def get(name: str, policy: str) -> dict[str, str]:
        if (name, policy) not in cache:
            out_dir = tmp_path_factory.mktemp("shipped")
            cache[name, policy] = digests(artifacts(document(name), policy, out_dir))
        return cache[name, policy]

    return get


@pytest.mark.parametrize("name,policy", CASES)
@pytest.mark.parametrize("seed", range(3))
def test_shuffling_vmdks_changes_no_artifact(name, policy, seed, shipped, tmp_path):
    doc = document(name)
    order = list(range(len(doc["vmdks"])))
    random.Random(seed).shuffle(order)
    if order == sorted(order):
        order.reverse()
    doc["vmdks"] = [doc["vmdks"][i] for i in order]
    assert digests(artifacts(doc, policy, tmp_path)) == shipped(name, policy)


@pytest.mark.parametrize("name,policy", CASES)
def test_prefixing_every_id_changes_only_the_listed_ids(name, policy, shipped, tmp_path):
    doc = document(name)
    for vmdk in doc["vmdks"]:
        vmdk["id"] = "z" + vmdk["id"]
    files = artifacts(doc, policy, tmp_path)
    migrations = json.loads(files["migrations.json"])
    assert all(v.startswith("z") for v in migrations["migratedVmdkIds"])
    migrations["migratedVmdkIds"] = [v[1:] for v in migrations["migratedVmdkIds"]]
    files["migrations.json"] = (json.dumps(migrations, indent=2) + "\n").encode()
    assert digests(files) == shipped(name, policy)


@pytest.mark.parametrize("name,policy", CASES)
def test_splitting_long_phases_changes_no_artifact(name, policy, shipped, tmp_path):
    doc = document(name)
    epochs = doc["simulation"]["epochs"]
    split = 0
    for vmdk in doc["vmdks"]:
        phases = vmdk["demandProfile"]
        ends = [phase["startEpoch"] for phase in phases[1:]] + [epochs]
        vmdk["demandProfile"] = []
        for phase, end in zip(phases, ends):
            vmdk["demandProfile"].append(phase)
            if end - phase["startEpoch"] >= 2:
                vmdk["demandProfile"].append(dict(phase, startEpoch=phase["startEpoch"] + 1))
                split += 1
    assert split >= len(doc["vmdks"])
    assert digests(artifacts(doc, policy, tmp_path)) == shipped(name, policy)
