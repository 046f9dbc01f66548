"""Metrics persistence: per-epoch CSV, run summaries, CDF data, comparisons.

All numeric fields render with 6 significant digits so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from functools import reduce
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .engine import OVERLOADED, STALLED, STARTED, TIER_FIGURES, RunResult

RUN_FILES = ("metrics.csv", "summary.json", "cdf_iops.dat", "cdf_bw.dat", "migrations.json")


def _fmt(x: float) -> str:
    return format(x, ".6g")


# The summary.json keys of the five figures that name the metrics.csv
# columns, in ``TIER_FIGURES`` order.
SUMMARY_KEYS = ("meanReadIops", "meanWriteIops", "meanReadMbps", "meanWriteMbps", "meanLatencyUs")
# The five figures as one run of CSV cells, each rendered as _fmt renders it.
_figure_cells = ",".join(["{:.6g}"] * len(TIER_FIGURES)).format


def csv_header(tier_ids: Sequence[int]) -> list[str]:
    return [
        "epoch",
        *(f"t{t}_{name}" for t in tier_ids for name in TIER_FIGURES),
        "migration_bytes", "migration_count", "overload_flags",
        *(f"total_{name}" for name in TIER_FIGURES),
    ]


def _flagged(result: RunResult, bit: int) -> np.ndarray:
    """(E,) count of the fleet rows with ``bit`` set in each epoch."""
    return np.count_nonzero(result.flags & bit, axis=1)


def _flagged_epochs(result: RunResult, bit: int) -> int:
    return int(np.count_nonzero(_flagged(result, bit)))


def metrics_csv_text(result: RunResult) -> str:
    lines = [",".join(csv_header([t.id for t in result.scenario.tiers]))]
    for epoch, ((*tiers, fleet), moved, started, overloaded) in enumerate(zip(
        result.epochs.tolist(), result.migration_bytes.tolist(),
        _flagged(result, STARTED).tolist(), _flagged(result, OVERLOADED).tolist(),
    )):
        row = [str(epoch), *(_figure_cells(*figures) for figures in tiers)]
        row += [_fmt(moved), str(started), str(overloaded), _figure_cells(*fleet)]
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
    fleet = result.epochs[:, -1]
    return (fleet[:, 0] + fleet[:, 1]).tolist(), (fleet[:, 2] + fleet[:, 3]).tolist()


def summary_dict(result: RunResult) -> dict[str, Any]:
    *tiers, fleet = result.epochs.transpose(1, 2, 0).tolist()  # each row's figures' series
    per_tier = {
        str(t.id): {"name": t.name} | {
            key: _series_stats(series)["mean"] for key, series in zip(SUMMARY_KEYS, figures)
        }
        for t, figures in zip(result.scenario.tiers, tiers)
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
            "meanLatencyUs": _series_stats(fleet[4])["mean"],
        },
        "overloadEpochs": _flagged_epochs(result, OVERLOADED),
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
        "stallEpochs": _flagged_epochs(result, STALLED),
        "overloadEpochs": _flagged_epochs(result, OVERLOADED),
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
