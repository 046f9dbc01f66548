"""Seeded workload generators for the epoch-loop benchmark.

Every generator works on plain JSON documents and the benchmark hands the
program only the resulting text, through ``autotier.parse_scenario``. The
workload seed becomes ``simulation.seed``; the phase-churn generator also
draws its demand profiles from it, so one seed always gives one document.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass
from typing import Any

BASE_SCENARIO = "table3-table4"

# Tier fields that bound what a tier can hold or serve; replication scales
# them with the VMDK count so the replicated system is as loaded as the base.
_SCALED_TIER_FIELDS = (
    "readThroughputCap",
    "writeThroughputCap",
    "readBandwidthCap",
    "writeBandwidthCap",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark input: which policies run on which generated scenario."""

    name: str
    why: str
    policies: tuple[str, ...]
    replicas: int
    epochs: int = 50
    churn_period: int = 0  # 0 keeps the bundled single-phase demand profiles


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="at-steady",
            why="AutoTiering on table3-table4 x50 (700 VMDKs, 50 epochs): "
            "calibration, then the policy core, do most of the work at the planned scale",
            policies=("autotiering",),
            replicas=50,
        ),
        Workload(
            name="at-small",
            why="AutoTiering on table3-table4 as bundled (14 VMDKs), back to back: "
            "per-call and per-epoch fixed overhead dominates",
            policies=("autotiering",),
            replicas=1,
        ),
        Workload(
            name="baseline-churn",
            why="IDT and EDT on table3-table4 x200 (2800 VMDKs), demand redrawn every 5 epochs: "
            "serving, migration and the baseline packer, no calibration",
            policies=("idt", "edt"),
            replicas=200,
            churn_period=5,
        ),
    )
}


def replicate_and_scale(doc: dict[str, Any], replicas: int) -> dict[str, Any]:
    """Copy every VMDK ``replicas`` times and scale tier pools and caps to match."""
    out = copy.deepcopy(doc)
    for tier in out["tiers"]:
        tier["capacity"] = {k: v * replicas for k, v in tier["capacity"].items()}
        for key in _SCALED_TIER_FIELDS:
            tier[key] = tier[key] * replicas
    vmdks = []
    for r in range(replicas):
        for v in doc["vmdks"]:
            clone = copy.deepcopy(v)
            clone["id"] = f"{v['id']}-r{r:03d}"
            clone["vmId"] = f"{v['vmId']}-r{r:03d}"
            vmdks.append(clone)
    out["vmdks"] = vmdks
    return out


def phase_churn(doc: dict[str, Any], period: int, epochs: int, rng: random.Random) -> None:
    """Replace each VMDK's demand profile with one phase per ``period`` epochs.

    Each phase scales the VMDK's first-phase demand by a log-normal factor and
    redraws its read fraction, so measured rankings (and with them the
    baselines' placements) keep changing.
    """
    for v in doc["vmdks"]:
        base = v["demandProfile"][0]
        v["demandProfile"] = [
            {
                "startEpoch": start,
                "demandIops": round(base["demandIops"] * rng.lognormvariate(0.0, 1.0), 3),
                "avgIoSizeBytes": base["avgIoSizeBytes"],
                "readFraction": round(rng.uniform(0.05, 1.0), 4),
            }
            for start in range(0, max(epochs, 1), period)
        ]


def generate(workload: Workload, base_text: str, seed: int) -> str:
    """Scenario JSON text for one workload and seed."""
    doc = replicate_and_scale(json.loads(base_text), workload.replicas)
    doc["simulation"]["epochs"] = workload.epochs
    doc["simulation"]["seed"] = seed
    if workload.churn_period:
        phase_churn(doc, workload.churn_period, workload.epochs, random.Random(seed))
    return json.dumps(doc)


def describe(workload: Workload, text: str) -> dict[str, Any]:
    """Shape of a generated document: N, tiers, epochs and phase count."""
    doc = json.loads(text)
    return {
        "workload": workload.name,
        "policies": list(workload.policies),
        "vmdks": len(doc["vmdks"]),
        "tiers": len(doc["tiers"]),
        "epochs": doc["simulation"]["epochs"],
        "phases": sum(len(v["demandProfile"]) for v in doc["vmdks"]),
        "seed": doc["simulation"]["seed"],
        "documentBytes": len(text),
    }
