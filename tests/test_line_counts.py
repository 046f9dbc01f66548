"""The epoch loop and the column pass do no Python work per VMDK, by count.

A ``sys.settrace`` hook counts the ``line`` events of every frame whose code
lies in the ``autotier`` package: the package's statements as they run, a
loop's body once per pass. The document is ``table3-table4`` replicated x200
(2,800 VMDKs) for 50 epochs at seed 3, its demand redrawn every 5 epochs for
IDT and EDT, as the benchmark's ``baseline-churn`` has it. Each run starts
from a freshly parsed scenario, so its count holds the roster's build too.

The bounds follow from the rule, not from today's counts. A statement run
once per VMDK and epoch runs 140,000 times; a two-line loop body run per
VMDK at the 17 plan epochs alone runs 95,200 times. So a run may execute
fewer than 0.5 line per VMDK-epoch, 70,000 lines, whatever the fleet's
size. The scalar progress loop, which by design advances books under
``PROGRESS_LOOP_ROWS`` moves, runs the busiest lines and fits. Parsing may
execute fewer than 10 lines per VMDK: ``cross_checks``' loop is its only
per-VMDK statement, at about 4 lines per VMDK, where reading the document
item by item takes hundreds. A failure names the file and line that ran
most.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from pathlib import Path

import pytest

import autotier
from autotier import parse_scenario, run_scenario
from autotier.engine import POLICY_NAMES
from conftest import replicated_document

REPLICAS, EPOCHS, SEED, CHURN_PERIOD = 200, 50, 3, 5
VMDKS = 14 * REPLICAS
PACKAGE = Path(autotier.__file__).resolve().parent


def executed_lines(call, *args) -> Counter:
    """The line events of ``call(*args)`` in ``autotier`` frames, by (file, line)."""
    prefix = f"{PACKAGE}{os.sep}"
    counts: Counter = Counter()

    def line(frame, event, arg):
        if event == "line":
            counts[frame.f_code.co_filename, frame.f_lineno] += 1
        return line

    def scope(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace()
    sys.settrace(scope)
    try:
        call(*args)
    finally:
        sys.settrace(previous)
    return counts


def busiest(counts: Counter) -> str:
    """The file:line with the most events, with their number."""
    (path, number), events = counts.most_common(1)[0]
    return f"{Path(path).relative_to(PACKAGE.parent)}:{number} ran {events} times"


@pytest.fixture(scope="module")
def documents() -> dict[bool, str]:
    """The x200 document as JSON text, without and with demand churn."""
    return {churn: replicated_document("table3-table4", REPLICAS, EPOCHS, SEED,
                                       CHURN_PERIOD if churn else 0)
            for churn in (False, True)}


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_a_run_executes_under_half_a_line_per_vmdk_epoch(policy, documents):
    scenario = parse_scenario(documents[policy != "autotiering"])
    assert len(scenario.vmdks) == VMDKS and scenario.sim.epochs == EPOCHS
    counts = executed_lines(run_scenario, scenario, policy)
    lines = sum(counts.values())
    assert lines < 0.5 * VMDKS * EPOCHS, (
        f"{policy} executed {lines} lines, {lines / (VMDKS * EPOCHS):.2f} per VMDK-epoch; "
        f"{busiest(counts)}"
    )


@pytest.mark.parametrize("churn", [False, True], ids=["plain", "churn"])
def test_parsing_executes_under_10_lines_per_vmdk(churn, documents):
    counts = executed_lines(parse_scenario, documents[churn])
    lines = sum(counts.values())
    assert lines < 10 * VMDKS, (
        f"parsing executed {lines} lines, {lines / VMDKS:.1f} per VMDK; {busiest(counts)}"
    )
