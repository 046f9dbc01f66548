"""Whole-run metamorphic relations: related documents whose runs must agree byte for byte.

A relation says how the outputs of two related inputs must relate, so it
checks a run whose right answer is unknown (T. Y. Chen, S. C. Cheung and
S. M. Yiu, "Metamorphic Testing: A New Approach for Generating Next Test
Cases", HKUST-CS98-01, 1998). Each case runs a document under every policy,
once as given and once transformed, and compares the SHA-256 of the five
run artifacts:

- shuffling ``vmdks`` changes nothing, since rows follow ids, not document
  order;
- prefixing every id with ``z`` keeps the ids' order, so it changes only
  the ids ``migrations.json`` lists, and nothing once they are mapped back;
- splitting a phase that spans two or more epochs into two phases of the
  same demand, the second one epoch later, changes nothing;
- relabelling every ``vmId`` changes nothing, since no run reads it;
- renaming every tier changes only the names ``summary.json`` lists per
  tier, and nothing once they are mapped back;
- under IDT and EDT, appending an idle 1 GB VMDK whose id sorts last, on
  the first VMDK's tier, changes nothing: it adds no load and ranks last.
  AutoTiering probes it, which draws more samples from the run's one
  generator, so the relation does not hold there.

Two more relations scale units by a power of two f, which is exact in
binary floating point barring overflow and underflow, so the run must
scale bit for bit. They compare the run's record, plans and log, not the
artifacts, whose 6-digit rendering of a scaled figure is no scaled string:

- scaling bandwidth and size (every bandwidth cap, the ``b`` and ``s``
  budgets, each ``sizeGb`` and each phase's ``avgIoSizeBytes``) by f
  scales every MB/s and byte count by f and leaves IOPS, latency, flags,
  moves and stalls alone;
- scaling speed (every throughput cap, the ``p`` budgets and each
  ``demandIops`` by f, and every base latency, truth intercept,
  ``avgIoSizeBytes`` and injected latency by 1/f) scales every IOPS figure
  by f and every latency by 1/f and leaves MB/s, bytes, flags, moves and
  stalls alone.

The documents are the bundled ones and small generated ones
(``conftest.scenario_documents``), whose tight budgets make plans overload
tiers and migrations stall. The idle VMDK runs on the bundled documents
only: a generated tier may have no room left for it.
"""

import copy
import hashlib
import json
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autotier import engine
from autotier.engine import POLICY_NAMES, run_scenario
from autotier.model import DEFAULT_INJECTED_LATENCIES_US, validate_scenario
from autotier.reporting import RUN_FILES, write_run_artifacts
from autotier.scenario import bundled_scenario_text

from conftest import scenario_documents

SCENARIOS = ("table3-table4", "spike", "tiny-oracle")
CASES = [(name, policy) for name in SCENARIOS for policy in POLICY_NAMES]
BASELINE_CASES = [(name, policy) for name in SCENARIOS for policy in ("idt", "edt")]
# Each generated example runs every policy four times.
GENERATED = settings(max_examples=40)


def document(name: str) -> dict:
    return json.loads(bundled_scenario_text(name))


def artifacts(doc: dict, policy: str) -> dict[str, bytes]:
    """The bytes of each run artifact of ``doc`` under ``policy``."""
    with tempfile.TemporaryDirectory() as out_dir:
        write_run_artifacts(run_scenario(validate_scenario(doc), policy), out_dir)
        return {name: (Path(out_dir) / name).read_bytes() for name in RUN_FILES}


def digests(files: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


def shuffled(doc: dict, order: list[int]) -> dict:
    """``doc`` with its VMDKs listed in ``order``."""
    return dict(doc, vmdks=[doc["vmdks"][i] for i in order])


def prefixed_digests(doc: dict, policy: str) -> dict[str, str]:
    """The artifact digests of ``doc`` with every id prefixed by ``z``, the ids mapped back."""
    doc = copy.deepcopy(doc)
    for vmdk in doc["vmdks"]:
        vmdk["id"] = "z" + vmdk["id"]
    files = artifacts(doc, policy)
    migrations = json.loads(files["migrations.json"])
    assert all(v.startswith("z") for v in migrations["migratedVmdkIds"])
    migrations["migratedVmdkIds"] = [v[1:] for v in migrations["migratedVmdkIds"]]
    files["migrations.json"] = (json.dumps(migrations, indent=2) + "\n").encode()
    return digests(files)


def split_phases(doc: dict) -> tuple[dict, int]:
    """``doc`` with each phase that spans two or more epochs split in two, and the count split."""
    doc = copy.deepcopy(doc)
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
    return doc, split


def relabelled_vms(doc: dict) -> dict:
    """``doc`` with every VMDK given a ``vmId`` of its own that no VMDK had."""
    doc = copy.deepcopy(doc)
    for i, vmdk in enumerate(doc["vmdks"]):
        vmdk["vmId"] = f"relabelled-{len(doc['vmdks']) - i}"
    return doc


def renamed_tier_digests(doc: dict, policy: str) -> dict[str, str]:
    """The artifact digests of ``doc`` with every tier renamed, the names mapped back."""
    doc = copy.deepcopy(doc)
    names = {str(tier["id"]): tier["name"] for tier in doc["tiers"]}
    for tier in doc["tiers"]:
        tier["name"] = "renamed " + tier["name"]
    files = artifacts(doc, policy)
    summary = json.loads(files["summary.json"])
    for tier_id, figures in summary["perTier"].items():
        assert figures["name"] == "renamed " + names[tier_id]
        figures["name"] = names[tier_id]
    files["summary.json"] = (json.dumps(summary, indent=2) + "\n").encode()
    return digests(files)


def with_idle_vmdk(doc: dict) -> dict:
    """``doc`` with a 1 GB VMDK of no demand appended, on ``vmdks[0]``'s tier, its id last."""
    doc = copy.deepcopy(doc)
    assert all(vmdk["id"] < "~idle" for vmdk in doc["vmdks"])
    idle_phase = {"startEpoch": 0, "demandIops": 0, "avgIoSizeBytes": 4096, "readFraction": 0.5}
    doc["vmdks"].append(
        dict(doc["vmdks"][0], id="~idle", sizeGb=1.0, demandProfile=[idle_phase])
    )
    return doc


# Small factors flip few decisions: a mixed-unit formula in migration cost
# shows only under the larger ones in most examples.
SCALES = (2.0, 0.5, 1024.0, 2.0**-10)
# The plan fields that name rows; they must not move under a change of units.
PLAN_ROWS = ("target_row", "move_rows", "move_from", "move_to", "overloaded_rows")


def scaled_bandwidth(doc: dict, f: float) -> tuple[dict, dict]:
    """``doc`` with bandwidth and size in units f times smaller, and the factors of its run."""
    doc = copy.deepcopy(doc)
    for tier in doc["tiers"]:
        tier["readBandwidthCap"] *= f
        tier["writeBandwidthCap"] *= f
        tier["capacity"]["b"] *= f
        tier["capacity"]["s"] *= f
    for vmdk in doc["vmdks"]:
        vmdk["sizeGb"] *= f
        for phase in vmdk["demandProfile"]:
            phase["avgIoSizeBytes"] *= f
    return doc, {"iops": 1.0, "mbps": f, "latency": 1.0, "size": f}


def scaled_speed(doc: dict, f: float) -> tuple[dict, dict]:
    """``doc`` with time in units f times larger, and the factors of its run."""
    doc = copy.deepcopy(doc)
    for tier in doc["tiers"]:
        tier["readThroughputCap"] *= f
        tier["writeThroughputCap"] *= f
        tier["capacity"]["p"] *= f
        tier["baseLatencyUs"] /= f
    for vmdk in doc["vmdks"]:
        vmdk["truthInterceptUs"] /= f
        for phase in vmdk["demandProfile"]:
            phase["demandIops"] *= f
            phase["avgIoSizeBytes"] /= f
    weights = doc.setdefault("policyWeights", {})
    injected = weights.get("injectedLatenciesUs", DEFAULT_INJECTED_LATENCIES_US)
    weights["injectedLatenciesUs"] = [latency / f for latency in injected]
    return doc, {"iops": f, "mbps": 1.0, "latency": 1 / f, "size": 1.0}


def run(doc: dict, policy: str):
    return run_scenario(validate_scenario(doc), policy)


def assert_scaled(a, b, iops: float, mbps: float, latency: float, size: float) -> None:
    """Run ``b`` is run ``a`` in scaled units, bit for bit.

    Each IOPS, MB/s, latency and byte (or GB) figure of the record, plans
    and log comes out times its factor; flags, plan rows, log rows and
    stall flags are equal.
    """
    figures = np.array([iops, iops, mbps, mbps, latency])  # in TIER_FIGURES order
    assert (a.epochs * figures).tolist() == b.epochs.tolist()
    assert (a.migration_bytes * size).tolist() == b.migration_bytes.tolist()
    assert a.flags.tolist() == b.flags.tolist()
    assert len(a.plans) == len(b.plans)
    for plan, twin in zip(a.plans, b.plans):
        assert all(getattr(plan, n).tolist() == getattr(twin, n).tolist() for n in PLAN_ROWS)
        assert (plan.used * [iops, mbps, size]).tolist() == twin.used.tolist()
    log, twin = a.migration_log, b.migration_log
    for name, factor in (("bytes_total", size), ("bytes_moved", size), ("speed_mbps", mbps)):
        assert (getattr(log, name) * factor).tolist() == getattr(twin, name).tolist()
    for name in ("row", "from_tier", "to_tier", "started_epoch", "stalled"):
        assert getattr(log, name).tolist() == getattr(twin, name).tolist()


@pytest.fixture(scope="module")
def shipped():
    """The artifact digests of each shipped document's run, each run once."""
    cache = {}

    def get(name: str, policy: str) -> dict[str, str]:
        if (name, policy) not in cache:
            cache[name, policy] = digests(artifacts(document(name), policy))
        return cache[name, policy]

    return get


@pytest.mark.parametrize("name,policy", CASES)
@pytest.mark.parametrize("seed", range(3))
def test_shuffling_vmdks_changes_no_artifact(name, policy, seed, shipped):
    doc = document(name)
    order = list(range(len(doc["vmdks"])))
    random.Random(seed).shuffle(order)
    if order == sorted(order):
        order.reverse()
    assert digests(artifacts(shuffled(doc, order), policy)) == shipped(name, policy)


@pytest.mark.parametrize("name,policy", CASES)
def test_prefixing_every_id_changes_only_the_listed_ids(name, policy, shipped):
    assert prefixed_digests(document(name), policy) == shipped(name, policy)


@pytest.mark.parametrize("name,policy", CASES)
def test_splitting_long_phases_changes_no_artifact(name, policy, shipped):
    doc, split = split_phases(document(name))
    assert split >= len(doc["vmdks"])
    assert digests(artifacts(doc, policy)) == shipped(name, policy)


def serve_count(doc: dict, policy: str) -> int:
    """How many epochs of ``doc``'s run under ``policy`` serve."""
    serve, calls = engine.serve_epoch, []

    def counted(*args):
        calls.append(None)
        return serve(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "serve_epoch", counted)
        run_scenario(validate_scenario(doc), policy)
    return len(calls)


@pytest.mark.parametrize("name,policy", CASES)
def test_splitting_long_phases_serves_as_often(name, policy):
    # Each added phase repeats its demand bit for bit, so it changes nothing
    # serving reads, and a run serves only when what it reads has changed.
    doc = document(name)
    assert serve_count(split_phases(doc)[0], policy) == serve_count(doc, policy)


@pytest.mark.parametrize("name,policy", CASES)
def test_relabelling_every_vm_changes_no_artifact(name, policy, shipped):
    assert digests(artifacts(relabelled_vms(document(name)), policy)) == shipped(name, policy)


@pytest.mark.parametrize("name,policy", CASES)
def test_renaming_every_tier_changes_only_the_listed_names(name, policy, shipped):
    assert renamed_tier_digests(document(name), policy) == shipped(name, policy)


@pytest.mark.parametrize("name,policy", BASELINE_CASES)
def test_an_idle_vmdk_sorted_last_changes_no_baseline_artifact(name, policy, shipped):
    assert digests(artifacts(with_idle_vmdk(document(name)), policy)) == shipped(name, policy)


@GENERATED
@given(doc=scenario_documents(), data=st.data())
def test_shuffling_a_generated_document_changes_no_artifact(doc, data):
    order = data.draw(st.permutations(range(len(doc["vmdks"]))))
    for policy in POLICY_NAMES:
        assert digests(artifacts(shuffled(doc, order), policy)) == digests(artifacts(doc, policy))


@GENERATED
@given(doc=scenario_documents())
def test_prefixing_a_generated_document_changes_only_the_listed_ids(doc):
    for policy in POLICY_NAMES:
        assert prefixed_digests(doc, policy) == digests(artifacts(doc, policy))


@GENERATED
@given(doc=scenario_documents())
def test_splitting_a_generated_documents_long_phases_changes_no_artifact(doc):
    split_doc, split = split_phases(doc)
    assert split >= len(doc["vmdks"])  # at least 5 epochs over at most 4 phases
    for policy in POLICY_NAMES:
        assert digests(artifacts(split_doc, policy)) == digests(artifacts(doc, policy))


@GENERATED
@given(doc=scenario_documents())
def test_relabelling_a_generated_documents_vms_changes_no_artifact(doc):
    for policy in POLICY_NAMES:
        assert digests(artifacts(relabelled_vms(doc), policy)) == digests(artifacts(doc, policy))


@GENERATED
@given(doc=scenario_documents())
def test_renaming_a_generated_documents_tiers_changes_only_the_listed_names(doc):
    for policy in POLICY_NAMES:
        assert renamed_tier_digests(doc, policy) == digests(artifacts(doc, policy))


@pytest.mark.parametrize("scale", [scaled_bandwidth, scaled_speed], ids=lambda f: f.__name__)
@pytest.mark.parametrize("f", SCALES)
@pytest.mark.parametrize("name,policy", CASES)
def test_scaling_units_scales_the_run(name, policy, f, scale):
    doc = document(name)
    scaled, factors = scale(doc, f)
    assert_scaled(run(doc, policy), run(scaled, policy), **factors)


@GENERATED
@given(doc=scenario_documents(), f=st.sampled_from(SCALES))
def test_scaling_a_generated_documents_bandwidth_and_size_scales_the_run(doc, f):
    scaled, factors = scaled_bandwidth(doc, f)
    for policy in POLICY_NAMES:
        assert_scaled(run(doc, policy), run(scaled, policy), **factors)


@GENERATED
@given(doc=scenario_documents(), f=st.sampled_from(SCALES))
def test_scaling_a_generated_documents_speed_scales_the_run(doc, f):
    scaled, factors = scaled_speed(doc, f)
    for policy in POLICY_NAMES:
        assert_scaled(run(doc, policy), run(scaled, policy), **factors)
