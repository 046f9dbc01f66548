"""Metrics persistence: per-epoch CSV, run summaries, CDF data, comparisons.

All numeric fields render with 6 significant digits so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from dataclasses import fields
from functools import reduce
from pathlib import Path
from typing import Any, Mapping, Sequence

from .engine import RunResult, TierEpochMetrics

RUN_FILES = ("metrics.csv", "summary.json", "cdf_iops.dat", "cdf_bw.dat", "migrations.json")


def _fmt(x: float) -> str:
    return format(x, ".6g")


# The five figures of every tier and of the whole fleet, each epoch: the
# metrics.csv column suffixes and their summary.json keys, in one order.
TIER_FIGURES = tuple(f.name for f in fields(TierEpochMetrics))
SUMMARY_KEYS = ("meanReadIops", "meanWriteIops", "meanReadMbps", "meanWriteMbps", "meanLatencyUs")
_figures = operator.attrgetter(*TIER_FIGURES)
# The five figures as one run of CSV cells, each rendered as _fmt renders it.
_figure_cells = ",".join(["{:.6g}"] * len(TIER_FIGURES)).format


def csv_header(tier_ids: Sequence[int]) -> list[str]:
    return [
        "epoch",
        *(f"t{t}_{name}" for t in tier_ids for name in TIER_FIGURES),
        "migration_bytes", "migration_count", "overload_flags",
        *(f"total_{name}" for name in TIER_FIGURES),
    ]


def metrics_csv_text(result: RunResult) -> str:
    tier_ids = [t.id for t in result.scenario.tiers]
    lines = [",".join(csv_header(tier_ids))]
    for em in result.epochs:
        row = [str(em.epoch)]
        row += [_figure_cells(*_figures(em.per_tier[t])) for t in tier_ids]
        row += [_fmt(em.migration_bytes), str(em.migration_count), str(len(em.overloaded))]
        row.append(_figure_cells(*_figures(em.total)))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def emit_cdf(series: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical CDF as sorted (value, cumulative fraction) steps.

    Fractions lie in (0,1] and the last point always carries fraction 1;
    duplicate values collapse into a single step.
    """
    if len(series) == 0:
        raise ValueError("cannot build a CDF from an empty series")
    ordered = sorted(series)
    n = len(ordered)
    points: list[tuple[float, float]] = []
    for i, value in enumerate(ordered):
        if i + 1 < n and ordered[i + 1] == value:
            continue
        points.append((value, (i + 1) / n))
    return points


def cdf_text(points: Sequence[tuple[float, float]]) -> str:
    return "\n".join(f"{_fmt(v)} {_fmt(f)}" for v, f in points) + "\n"


def _series_stats(values: Sequence[float]) -> dict[str, float]:
    """Mean, sum, min and max; the sum adds left to right, as on every Python version."""
    n = len(values)
    total = reduce(operator.add, values, 0)
    return {
        "mean": total / n if n else 0.0,
        "sum": total,
        "min": min(values) if n else 0.0,
        "max": max(values) if n else 0.0,
    }


def _total_io(result: RunResult) -> tuple[list[float], list[float]]:
    """Each epoch's fleet-wide read+write IOPS, and read+write MB/s."""
    totals = [em.total for em in result.epochs]
    return ([t.read_iops + t.write_iops for t in totals],
            [t.read_mbps + t.write_mbps for t in totals])


def summary_dict(result: RunResult) -> dict[str, Any]:
    per_tier: dict[str, Any] = {}
    for t in result.scenario.tiers:
        series = [em.per_tier[t.id] for em in result.epochs]
        per_tier[str(t.id)] = {"name": t.name} | {
            key: _series_stats(list(map(operator.attrgetter(name), series)))["mean"]
            for key, name in zip(SUMMARY_KEYS, TIER_FIGURES)
        }
    total_iops, total_mbps = _total_io(result)
    return {
        "policy": result.policy,
        "seed": result.seed,
        "epochs": len(result.epochs),
        "perTier": per_tier,
        "total": {
            "iops": _series_stats(total_iops),
            "mbps": _series_stats(total_mbps),
            "meanLatencyUs": _series_stats(
                [em.total.mean_latency_us for em in result.epochs]
            )["mean"],
        },
        "overloadEpochs": sum(1 for em in result.epochs if em.overloaded),
    }


def migrations_dict(result: RunResult) -> dict[str, Any]:
    """Migration overhead: working volume (bytes) vs working set (distinct VMDKs)."""
    log = result.migration_log
    distinct = list(log.migrated_vmdk_ids())  # in id order, as sorted() would give
    return {
        "totalMigratedBytes": log.total_migrated_bytes(),
        "migrationCount": len(log),
        "distinctVmdksMigrated": len(distinct),
        "migratedVmdkIds": distinct,
        "unfinishedMigrations": log.unfinished(),
        "stallEpochs": sum(1 for em in result.epochs if em.stalled),
        "overloadEpochs": sum(1 for em in result.epochs if em.overloaded),
    }


def write_run_artifacts(result: RunResult, out_dir: str | Path) -> list[Path]:
    """Write metrics.csv, summary.json, cdf_iops.dat, cdf_bw.dat, migrations.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    total_iops, total_mbps = _total_io(result)
    written = []
    for name, text in (
        ("metrics.csv", metrics_csv_text(result)),
        ("summary.json", json.dumps(summary_dict(result), indent=2) + "\n"),
        ("cdf_iops.dat", cdf_text(emit_cdf(total_iops)) if total_iops else ""),
        ("cdf_bw.dat", cdf_text(emit_cdf(total_mbps)) if total_mbps else ""),
        ("migrations.json", json.dumps(migrations_dict(result), indent=2) + "\n"),
    ):
        path = out / name
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written


def comparison_dict(summaries: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Cross-policy comparison with autotiering-vs-baseline ratios.

    A ratio over a baseline mean of 0 has no value and is written as null.
    Two summaries of one policy are refused: one would hide the other.
    """
    for name, count in Counter(s["policy"] for s in summaries).items():
        if count > 1:
            raise ValueError(f"compare takes one run per policy, got {count} {name} runs")
    by_policy = {s["policy"]: s for s in summaries}
    out: dict[str, Any] = {
        "policies": {
            name: {
                "meanTotalIops": s["total"]["iops"]["mean"],
                "meanTotalMbps": s["total"]["mbps"]["mean"],
                "meanLatencyUs": s["total"]["meanLatencyUs"],
            }
            for name, s in by_policy.items()
        },
        "ratios": {},
    }
    at = by_policy.get("autotiering")
    for baseline in ("idt", "edt"):
        other = by_policy.get(baseline)
        if at is not None and other is not None:
            means = [(at["total"][m]["mean"], other["total"][m]["mean"]) for m in ("iops", "mbps")]
            out["ratios"][f"autotiering/{baseline}"] = {
                metric: a / b if b else None for metric, (a, b) in zip(("iops", "mbps"), means)
            }
    return out
