"""Output checks of one benchmark run; each problem found counts the run as failed."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# Budget kinds each policy's packer checks (autotier.policy.trigger_migration,
# autotier.baselines.idt_assign / edt_assign); planned usage is bounded only there.
CHECKED_KINDS = {"autotiering": ("p", "b", "s"), "idt": ("s",), "edt": ("p", "s")}

# Files whose bytes must repeat for a fixed seed; their digests are printed.
HASHED_FILES = ("metrics.csv", "summary.json", "migrations.json")

_REL_SLACK = 1e-9  # running budget subtraction may overshoot by rounding only


def check_run(result, scenario, policy: str, out_dir: Path) -> list[str]:
    """Plans are total and within budget; artifacts have one row per epoch."""
    problems: list[str] = []
    vmdk_ids = {v.id for v in scenario.vmdks}
    budgets = {t.id: t.max_usable() for t in scenario.tiers}
    epochs = scenario.sim.epochs

    expected_plans = math.ceil(epochs / scenario.weights.migration_epoch)
    if len(result.plans) != expected_plans:
        problems.append(f"{policy}: {len(result.plans)} plans, expected {expected_plans}")
    for plan in result.plans:
        where = f"{policy} plan at epoch {plan.epoch_index}"
        if set(plan.target) != vmdk_ids:
            problems.append(f"{where}: assigns {len(plan.target)} of {len(vmdk_ids)} VMDKs")
        unknown = {t for t in plan.target.values() if t not in budgets}
        if unknown:
            problems.append(f"{where}: unknown tiers {sorted(unknown)}")
        for tier_id, usage in plan.planned_usage.items():
            budget = budgets[tier_id]
            for kind in CHECKED_KINDS[policy]:
                used, limit = getattr(usage, kind), getattr(budget, kind)
                if used > limit * (1 + _REL_SLACK):
                    problems.append(f"{where}: tier {tier_id} {kind} {used} > budget {limit}")

    if len(result.epochs) != epochs:
        problems.append(f"{policy}: {len(result.epochs)} epoch records, expected {epochs}")
    csv_rows = (out_dir / "metrics.csv").read_text(encoding="utf-8").count("\n") - 1
    if csv_rows != epochs:
        problems.append(f"{policy}: metrics.csv has {csv_rows} rows, expected {epochs}")
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    if summary["epochs"] != epochs:
        problems.append(f"{policy}: summary.json epochs {summary['epochs']}, expected {epochs}")
    for name in ("cdf_iops.dat", "cdf_bw.dat"):
        points = (out_dir / name).read_text(encoding="utf-8").count("\n")
        if not 1 <= points <= epochs:
            problems.append(f"{policy}: {name} has {points} points for {epochs} epochs")
    return problems


def artifact_digests(out_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in HASHED_FILES
    }
