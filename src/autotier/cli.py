"""Command-line entry points: run a policy, compare runs, check greedy vs oracle.

Log verbosity comes from the AUTOTIER_LOG environment variable
(debug/info/warning/error; default warning).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from .engine import POLICY_NAMES, run_scenario
from .policy import epoch_profit, oracle_assignment
from .reporting import comparison_dict, summary_dict, write_run_artifacts
from .scenario import load_scenario

log = logging.getLogger("autotier")


def _configure_logging() -> None:
    level = os.environ.get("AUTOTIER_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    result = run_scenario(scenario, args.policy, seed=args.seed)
    written = write_run_artifacts(result, args.out)
    summary = summary_dict(result)
    log.info("wrote %d artifacts to %s", len(written), args.out)
    print(
        f"{args.policy}: {summary['epochs']} epochs, "
        f"mean total IOPS {summary['total']['iops']['mean']:.6g}, "
        f"mean total MB/s {summary['total']['mbps']['mean']:.6g}"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    summaries = []
    for run_dir in args.runs:
        path = Path(run_dir) / "summary.json"
        summaries.append(json.loads(path.read_text(encoding="utf-8")))
    comparison = comparison_dict(summaries)
    text = json.dumps(comparison, indent=2, allow_nan=False)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def cmd_oracle_check(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    report: list[dict[str, float | int | None]] = []

    def on_plan(epoch, plan, policy, ctx) -> None:
        # in-flight moves are committed: charge against their destination
        fleet = ctx.fleet
        rows = np.where(fleet.dest_row >= 0, fleet.dest_row, fleet.tier_row)
        previous = dict(zip(fleet.ids, fleet.tier_ids[rows].tolist()))
        greedy = epoch_profit(
            plan.target, previous, policy.matrices, ctx.weights, fleet,
            ctx.migration_epoch_seconds,
        )
        oracle_plan = oracle_assignment(
            policy.matrices, ctx.weights, previous, fleet, ctx.migration_epoch_seconds, epoch,
        )
        oracle = epoch_profit(
            oracle_plan.target, previous, policy.matrices, ctx.weights, fleet,
            ctx.migration_epoch_seconds,
        )
        ratio = greedy / oracle if abs(oracle) > 1e-12 else None
        report.append({
            "epoch": epoch,
            "greedyProfit": greedy if math.isfinite(greedy) else None,
            "oracleProfit": oracle if math.isfinite(oracle) else None,
            "ratio": ratio if ratio is not None and math.isfinite(ratio) else None,
        })

    run_scenario(scenario, "autotiering", seed=args.seed, on_plan=on_plan)
    ratios = [r["ratio"] for r in report if r["ratio"] is not None]
    out = {
        "epochs": report,
        "meanRatio": sum(ratios) / len(ratios) if ratios else None,
        "greedyNeverAbove": all(
            r["greedyProfit"] <= r["oracleProfit"] + 1e-9
            for r in report
            if r["greedyProfit"] is not None and r["oracleProfit"] is not None
        ),
    }
    print(json.dumps(out, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autotier",
        description="Epoch simulator and placement policies for multi-tier flash storage",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one policy on a scenario and write metrics")
    run.add_argument("--scenario", required=True,
                     help="scenario file path or bundled name "
                          "(table3-table4, spike, tiny-oracle)")
    run.add_argument("--policy", required=True, choices=POLICY_NAMES)
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario's seed")
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="compare summaries of finished runs")
    compare.add_argument("--runs", nargs="+", required=True,
                         help="run output directories (each with summary.json)")
    compare.add_argument("--out", default=None, help="optional comparison JSON path")
    compare.set_defaults(func=cmd_compare)

    oracle = sub.add_parser(
        "oracle-check",
        help="run autotiering and compare each epoch's plan against the brute-force optimum",
    )
    oracle.add_argument("--scenario", required=True)
    oracle.add_argument("--seed", type=int, default=None)
    oracle.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a diagnostic, not a traceback
        log.debug("command failed", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
