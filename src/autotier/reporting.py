"""Metrics persistence: per-epoch CSV, run summaries, CDF data, comparisons.

All numeric fields render with 6 significant digits so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import json
import operator
from functools import reduce
from pathlib import Path
from typing import Any, Mapping, Sequence

from .engine import RunResult

RUN_FILES = ("metrics.csv", "summary.json", "cdf_iops.dat", "cdf_bw.dat", "migrations.json")


def _fmt(x: float) -> str:
    return format(x, ".6g")


def csv_header(tier_ids: Sequence[int]) -> list[str]:
    columns = ["epoch"]
    for t in tier_ids:
        columns += [
            f"t{t}_read_iops",
            f"t{t}_write_iops",
            f"t{t}_read_mbps",
            f"t{t}_write_mbps",
            f"t{t}_mean_latency_us",
        ]
    columns += ["migration_bytes", "migration_count", "overload_flags"]
    columns += [
        "total_read_iops",
        "total_write_iops",
        "total_read_mbps",
        "total_write_mbps",
        "total_mean_latency_us",
    ]
    return columns


def metrics_csv_text(result: RunResult) -> str:
    tier_ids = [t.id for t in result.scenario.tiers]
    lines = [",".join(csv_header(tier_ids))]
    for em in result.epochs:
        row = [str(em.epoch)]
        for t in tier_ids:
            tm = em.per_tier[t]
            row += [
                _fmt(tm.read_iops),
                _fmt(tm.write_iops),
                _fmt(tm.read_mbps),
                _fmt(tm.write_mbps),
                _fmt(tm.mean_latency_us),
            ]
        row += [_fmt(em.migration_bytes), str(em.migration_count), str(len(em.overloaded))]
        row += [
            _fmt(em.total.read_iops),
            _fmt(em.total.write_iops),
            _fmt(em.total.read_mbps),
            _fmt(em.total.write_mbps),
            _fmt(em.total.mean_latency_us),
        ]
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


def summary_dict(result: RunResult) -> dict[str, Any]:
    per_tier: dict[str, Any] = {}
    for t in result.scenario.tiers:
        series = [em.per_tier[t.id] for em in result.epochs]
        per_tier[str(t.id)] = {
            "name": t.name,
            "meanReadIops": _series_stats([s.read_iops for s in series])["mean"],
            "meanWriteIops": _series_stats([s.write_iops for s in series])["mean"],
            "meanReadMbps": _series_stats([s.read_mbps for s in series])["mean"],
            "meanWriteMbps": _series_stats([s.write_mbps for s in series])["mean"],
            "meanLatencyUs": _series_stats([s.mean_latency_us for s in series])["mean"],
        }
    total_iops = [em.total.read_iops + em.total.write_iops for em in result.epochs]
    total_mbps = [em.total.read_mbps + em.total.write_mbps for em in result.epochs]
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
    total_iops = [em.total.read_iops + em.total.write_iops for em in result.epochs]
    total_mbps = [em.total.read_mbps + em.total.write_mbps for em in result.epochs]
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
    """
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
    if at is not None:
        for baseline in ("idt", "edt"):
            other = by_policy.get(baseline)
            if other is None:
                continue
            ratios = {}
            for metric, path in (
                ("iops", ("total", "iops", "mean")),
                ("mbps", ("total", "mbps", "mean")),
            ):
                a, b = at, other
                for key in path:
                    a = a[key]
                    b = b[key]
                ratios[metric] = a / b if b else None
            out["ratios"][f"autotiering/{baseline}"] = ratios
    return out
