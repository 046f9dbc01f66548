"""Mutants the test suite must kill, and a runner that checks it does.

Each ``Mutant`` changes one exact snippet of a file under ``src/`` and
names the pytest node ids that must fail on the changed code. A snippet
must occur exactly once, so a refactor of the code under a mutant has to
carry the mutant along; a named test that still passes means the mutant
survives, and the test that used to kill it has been weakened.

Run it from anywhere, with the tier-1 toolchain (numpy, pytest,
hypothesis, scipy)::

    python tests/mutants.py

It runs every mutant. It copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, since pyproject's
``pythonpath = ["src"]`` would otherwise import the checkout, and checks
that the copy imports ``autotier`` from itself. It runs every named test
once on the unchanged copy, where each must pass, so no kill comes from
the copy alone (a test that reads ``perfbench/``, which is not copied,
would fail there; none is named). Then, for each mutant, it applies the
change to the copy, runs only that mutant's tests and puts the file back.
It exits 1 when a snippet does not occur exactly once, a named test fails
unchanged, or a mutant survives. It is not part of tier-1: each mutant
reruns its tests, about 60 s in all on a 2-vCPU x86_64 machine. Every
pytest run loads the ``mutants`` Hypothesis profile (``tests/conftest.py``):
the derandomized ``ci`` profile, so a generated-document test draws the
same examples on every run and can be named as a kill (without it, such a
test kills a mutant only on the draws that expose it), less the shrink
phase, since a kill needs only the failure and not its smallest example.
Every other named test is deterministic.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    """``snippet`` of ``path`` (from the repository root) replaced; ``kills`` must fail."""

    name: str
    path: str
    snippet: str
    replacement: str
    kills: tuple[str, ...]


CALIBRATION = "src/autotier/calibration.py"
ENGINE = "src/autotier/engine.py"
MODEL = "src/autotier/model.py"
POLICY = "src/autotier/policy.py"
SERVE_SKIP = "tests/test_engine.py::TestServeSkip::"
SKIPS = f"{SERVE_SKIP}test_a_bundled_run_skips_only_what_serving_would_repeat"
SERVES = f"{SERVE_SKIP}test_a_bundled_run_serves_where_what_serving_reads_changed_alone"
GOLDEN = "tests/test_golden.py::"
ROSTER = "tests/test_model.py::TestRoster::"
RELATIONS = "tests/test_relations.py::"
LOOP_ROWS = "test_each_forced_path_matches_the_run_goldens[autotier.engine-PROGRESS_LOOP_ROWS-"
RUNS = [f"{s}-{p}" for s in ("table3-table4", "spike", "tiny-oracle")
        for p in ("autotiering", "idt", "edt")]
PENALTY_READS = ("tests/test_policy.py::TestAutoTieringPolicy::"
                 "test_a_change_to_what_the_penalty_reads_recomputes_it")
FIT_PLAN = "tests/test_calibration.py::TestFitPlan::"
FIRST_FIT_PASSES = ("tests/test_policy.py::TestFirstFit::"
                    "test_each_pass_commits_its_whole_fit_run_and_skips_its_whole_miss_run")
FIRST_FIT_WHOLE = ("tests/test_policy.py::TestFirstFit::"
                   "test_a_scan_that_fits_whole_takes_one_pass_and_one_write")
REGRESSION = "tests/test_calibration.py::TestRegression::"
MIGRATIONS = "tests/test_engine.py::TestMigrations::"
STALL_RULE = ("tests/test_engine.py::TestStallRule::"
              "test_every_order_of_a_bundled_run_stalls_where_its_speed_is_not_positive")
ORACLE = "tests/test_policy.py::TestProfitAndOracle::"
BOUNDS = ("tests/test_scenario_io.py::TestRuleBoundaries::"
          "test_each_end_is_kept_and_one_ulp_past_it_refused")
OTHER_TYPES = "tests/test_model.py::TestOtherTypes::"
INTEGER_FIELD = f"{OTHER_TYPES}test_an_integer_field_takes_only_an_int"
CLI = "src/autotier/cli.py"
WORKSPACE = ("tests/test_policy.py::TestMonitorWorkspace::"
             "test_a_run_matches_fresh_calls_through_landings_and_phase_changes")
GATE = "tests/test_policy.py::TestNormalizeAndGate::"
COMPARE_UNREADABLE = ("tests/test_scenario_io.py::TestCli::"
                      "test_compare_exits_2_naming_the_file_and_key_of_a_summary_it_cannot_read")
LOG_LEVEL = ("tests/test_scenario_io.py::TestCli::"
             "test_a_log_env_var_that_names_no_level_leaves_warning")
COLUMN_PASS = "tests/test_scenario_io.py::TestColumnPass::"
LINE_COUNTS = "tests/test_line_counts.py::"
# What the column pass must refuse: each value reaches the item readers and is
# read, or refused, as they word it.
PLAIN_KILLS = (f"{GOLDEN}test_diagnostics_match_golden_digest[tiny-oracle]",
               f"{COLUMN_PASS}test_the_vmdk_pass_reads_as_the_item_readers_do")

MUTANTS = (
    # The run loop serves when the bytes of what serving reads differ from its
    # last serve's: the debits, tier_row and demand. Each mutant drops one
    # from the key.
    Mutant(
        "serve-key-without-the-debits", ENGINE,
        "inputs = (debits.tobytes(), ",
        "inputs = (",
        (
            *(f"{SKIPS}[{run}]" for run in RUNS if run != "spike-autotiering"),
            f"{GOLDEN}test_plans_match_golden_digest[table3-table4-idt-0]",
        ),
    ),
    # Every golden passes this one: a landing epoch's debits differ, and hide
    # it. spike-autotiering lands no move under the constant debits that the
    # schedule test patches in, so it passes.
    Mutant(
        "serve-key-without-tier-row", ENGINE,
        " fleet.tier_row.tobytes(),",
        "",
        tuple(f"{SERVES}[{run}]" for run in RUNS if run != "spike-autotiering"),
    ),
    Mutant(
        "serve-key-without-demand", ENGINE,
        ", fleet.demand.tobytes())",
        ")",
        (
            *(f"{test}[spike-{p}]" for test in (SKIPS, SERVES)
              for p in ("autotiering", "idt", "edt")),
            f"{GOLDEN}test_artifacts_match_golden[spike-idt-0]",
            f"{GOLDEN}test_scale_run_matches_golden_digest[idt]",
        ),
    ),
    # AutoTiering keeps its migration penalty with the bytes of the tier
    # rows, the spare MB/s and the measured read MB/s it was computed from.
    # Each mutant drops one from the key. On the bundled runs a served or
    # landed move changes all three at once, so only a change to one alone
    # kills them.
    Mutant(
        "penalty-key-without-tier-row", POLICY,
        "key = (fleet.tier_row.tobytes(), fleet.spare_mbps",
        "key = (fleet.spare_mbps",
        (f"{PENALTY_READS}[tier_row]",),
    ),
    Mutant(
        "penalty-key-without-spare", POLICY,
        ".tobytes(), fleet.spare_mbps.tobytes(),\n",
        ".tobytes(),\n",
        (f"{PENALTY_READS}[spare_write]", f"{PENALTY_READS}[spare_read]"),
    ),
    Mutant(
        "penalty-key-without-measured", POLICY,
        "\n               fleet.measured_mbps[0].tobytes())",
        ")",
        (f"{PENALTY_READS}[measured_read]",),
    ),
    # The calibration fit scales the latency column by the plan's norm, which
    # ``latency_norm`` takes as ``np.polyfit`` does and refuses where it is
    # inf; the set-up runs under its own error state.
    Mutant(
        "latency-norm-accepts-inf", MODEL,
        "    if norm == math.inf:\n",
        "    if False:\n",
        (
            f"{FIT_PLAN}test_the_largest_plans_either_side_of_the_overflow",
            "tests/test_scenario_io.py::TestParsing::"
            "test_injected_latencies_too_large_are_diagnosed[[0, 500, 1.4e+154]]",
        ),
    ),
    Mutant(
        "latency-norm-one-ulp-high", MODEL,
        "    norm = math.sqrt(total)\n",
        "    norm = math.nextafter(math.sqrt(total), math.inf)\n",
        (
            f"{FIT_PLAN}test_alternating_plans_match_polyfit_bitwise_with_its_warnings",
            f"{FIT_PLAN}test_the_smallest_plans_either_side_of_the_underflow",
            f"{REGRESSION}test_mean_cv_adds_in_plan_order_from_the_first_latency[5]",
            f"{REGRESSION}test_mean_cv_adds_in_plan_order_from_the_first_latency[16]",
            f"{GOLDEN}test_plans_match_golden_digest[table3-table4-autotiering-0]",
        ),
    ),
    Mutant(
        "fit-plan-without-its-errstate", CALIBRATION,
        '    with np.errstate(under="ignore"):\n        lhs =',
        "    if True:\n        lhs =",
        (f"{FIT_PLAN}test_the_set_up_ignores_the_callers_error_state",),
    ),
    # A row is refused before anything is fitted when its mean reaches the
    # calibration limit or its mean CV is not finite, and the first such row
    # in fleet order is named.
    Mutant(
        "row-check-without-the-cv", CALIBRATION,
        "bad = too_slow | ~np.isfinite(mean_cv)",
        "bad = too_slow",
        (
            f"{REGRESSION}test_overflowing_truth_fails_on_mean_cv",
            f"{REGRESSION}test_overflowing_noise_names_the_first_vmdk_in_id_order",
            f"{REGRESSION}test_the_first_bad_row_is_named_whatever_its_cause",
        ),
    ),
    Mutant(
        "row-check-names-the-last-bad-row", CALIBRATION,
        "row = int(bad.argmax())",
        "row = len(bad) - 1 - int(bad[::-1].argmax())",
        (
            f"{REGRESSION}test_overflowing_noise_names_the_first_vmdk_in_id_order",
            f"{REGRESSION}test_the_first_bad_row_is_named_whatever_its_cause",
        ),
    ),
    # Roster.of gives each phase the fleet row of its VMDK: ``order`` maps a
    # fleet row to a table row, so a phase's row is through its inverse.
    # The bundled documents hide it, their multi-phase VMDKs being where
    # both give the same row; the scale document and a split table3-table4
    # do not. The generated-roster test kills it on the draws that move a
    # multi-phase VMDK's row, which the ``mutants`` profile's fixed draws hold.
    Mutant(
        "roster-phase-owners-not-inverted", MODEL,
        "np.repeat(np.argsort(order), np.diff(vmdks.offsets))",
        "np.repeat(order, np.diff(vmdks.offsets))",
        (
            *(f"{GOLDEN}test_scale_run_matches_golden_digest[{p}]"
              for p in ("autotiering", "idt", "edt")),
            f"{GOLDEN}test_each_forced_path_matches_the_run_goldens"
            "[autotier.engine-PROGRESS_LOOP_ROWS-0]",
            f"{RELATIONS}test_splitting_long_phases_changes_no_artifact[table3-table4-idt]",
            f"{ROSTER}test_a_start_epoch_is_bounded_by_int64_and_the_bound_never_activates",
            f"{ROSTER}test_a_generated_roster_reads_the_table_phases_in_place",
        ),
    ),
    # ... and each fleet row its own phase 0, found through ``order`` too.
    Mutant(
        "roster-first-phase-in-table-order", MODEL,
        "first_phase=vmdks.offsets[order],",
        "first_phase=vmdks.offsets[:-1],",
        (
            f"{GOLDEN}test_artifacts_match_golden[table3-table4-idt-0]",
            f"{GOLDEN}test_artifacts_match_golden[spike-autotiering-0]",
            f"{GOLDEN}test_artifacts_match_golden[tiny-oracle-edt-0]",
            f"{RELATIONS}test_shuffling_vmdks_changes_no_artifact[0-table3-table4-idt]",
            f"{ROSTER}test_a_bundled_roster_reads_the_table_phases_in_place[table3-table4]",
            "tests/test_model.py::TestFleet::"
            "test_of_starts_each_spec_on_its_initial_tier_in_phase_zero_unmeasured",
        ),
    ),
    # A migration's speed is the least of its source's spare read MB/s plus
    # the VMDK's own read MB/s, and its destination's spare write MB/s. Row
    # 0 of ``measured_mbps`` and ``spare_mbps`` is reads, row 1 writes; the
    # next three mutants swap them where the cost reads them and where
    # ``progress_migrations`` reads the book for both rate searches, so each
    # forced cutover kills the last two.
    Mutant(
        "mig-cost-reads-the-write-mbps", POLICY,
        "+ fleet.measured_mbps[0]\n",
        "+ fleet.measured_mbps[1]\n",
        (
            f"{GOLDEN}test_plans_match_golden_digest[table3-table4-autotiering-0]",
            f"{GOLDEN}test_artifacts_match_golden[table3-table4-autotiering-0]",
            f"{GOLDEN}test_scale_run_matches_golden_digest[autotiering]",
        ),
    ),
    Mutant(
        "progress-reads-the-write-mbps", ENGINE,
        "fleet.measured_mbps[0].take(rows)",
        "fleet.measured_mbps[1].take(rows)",
        (
            f"{GOLDEN}{LOOP_ROWS}0]",
            f"{GOLDEN}{LOOP_ROWS}1000000000]",
            *(f"{MIGRATIONS}test_a_finished_move_moves_nothing_and_is_finished_again"
              f"[500.0-nan-nan-False-{cutover}]" for cutover in (0, 1000000000)),
        ),
    ),
    Mutant(
        "progress-swaps-the-spare-rows", ENGINE,
        "fleet.spare_mbps, total",
        "fleet.spare_mbps[::-1], total",
        (
            f"{GOLDEN}test_artifacts_match_golden[table3-table4-idt-0]",
            f"{GOLDEN}test_artifacts_match_golden[tiny-oracle-edt-0]",
            f"{GOLDEN}test_scale_run_matches_golden_digest[idt]",
            f"{GOLDEN}{LOOP_ROWS}0]",
            f"{GOLDEN}{LOOP_ROWS}1000000000]",
        ),
    ),
    # The cost reads the VMDK's own read MB/s, not its IOPS: a VMDK's IOPS
    # do not scale with the bandwidth and size units, its MB/s do.
    Mutant(
        "mig-cost-reads-iops-for-mbps", POLICY,
        "+ fleet.measured_mbps[0]\n",
        "+ fleet.measured_iops\n",
        (
            f"{RELATIONS}test_scaling_units_scales_the_run"
            "[table3-table4-autotiering-1024.0-scaled_bandwidth]",
            f"{RELATIONS}test_scaling_units_scales_the_run"
            "[table3-table4-autotiering-0.0009765625-scaled_speed]",
            f"{GOLDEN}test_plans_match_golden_digest[table3-table4-autotiering-42]",
        ),
    ),
    # The predicted MB/s of a cell is its IOPS times the VMDK's I/O size, not
    # its size in GB.
    Mutant(
        "capacity-mbps-reads-the-size", POLICY,
        "np.multiply(cap[0], fleet.demand[2], out=cap[1])",
        "np.multiply(cap[0], fleet.roster.size_gb, out=cap[1])",
        (
            f"{GOLDEN}test_plans_match_golden_digest[table3-table4-autotiering-0]",
            f"{GOLDEN}test_scale_run_matches_golden_digest[autotiering]",
            f"{RELATIONS}test_scaling_units_scales_the_run"
            "[table3-table4-autotiering-2.0-scaled_speed]",
        ),
    ),
    # The probe's sample grid follows the fleet rows; reversed, each VMDK's
    # fit reads another VMDK's samples.
    Mutant(
        "probe-rows-reversed", ENGINE,
        "return np.multiply(factor.reshape(shape), truth, out=factor.reshape(shape))",
        "return np.multiply(factor.reshape(shape), truth, out=factor.reshape(shape))[::-1]",
        (
            f"{GOLDEN}test_artifacts_match_golden[table3-table4-autotiering-0]",
            f"{GOLDEN}test_artifacts_match_golden[tiny-oracle-autotiering-0]",
        ),
    ),
    # ``first_fit``'s array passes each commit the whole fit run their window
    # opens with and skip the whole miss run after it, the first pass over
    # the whole scan, and a short pass hands over to the scalar loop until
    # one window comes out uniform. Each of the next seven keeps every output
    # exact but commits less per pass, or runs the other path, so only the
    # tests that watch the passes kill them.
    Mutant(
        "first-fit-opens-at-the-fallback-window", POLICY,
        "start, width, scalar = 0, len(rows), len(rows) < FIRST_FIT_WINDOW",
        "start, width, scalar = 0, FIRST_FIT_WINDOW, len(rows) < FIRST_FIT_WINDOW",
        (FIRST_FIT_PASSES, FIRST_FIT_WHOLE),
    ),
    Mutant(
        "first-fit-leaves-a-windows-last-miss", POLICY,
        "step += j if not miss[j] else len(miss)\n",
        "step += j if not miss[j] else len(miss) - 1\n",
        (FIRST_FIT_PASSES,),
    ),
    Mutant(
        "first-fit-miss-run-ignores-column-1", POLICY,
        "miss = (rest[:, 0] > l0) | (rest[:, 1] > l1) | (rest[:, 2] > l2)",
        "miss = (rest[:, 0] > l0) | (rest[:, 2] > l2)",
        (FIRST_FIT_PASSES,),
    ),
    Mutant(
        "first-fit-opening-check-ignores-column-1", POLICY,
        "if not (p > l0 or b > l1 or s > l2):",
        "if not (p > l0 or s > l2):",
        (FIRST_FIT_PASSES,),
    ),
    Mutant(
        "first-fit-fit-run-checks-after-the-row", POLICY,
        "over = (window > after[:-1]).ravel()",
        "over = (window > after[1:]).ravel()",
        (FIRST_FIT_PASSES,),
    ),
    Mutant(
        "first-fit-never-enters-scalar-mode", POLICY,
        "2 * step, step < FIRST_FIT_WINDOW",
        "2 * step, False",
        (FIRST_FIT_PASSES,),
    ),
    Mutant(
        "first-fit-never-leaves-scalar-mode", POLICY,
        "        if len(set(flags)) == 1:\n",
        "        if False:\n",
        (FIRST_FIT_PASSES,),
    ),
    # A plan's moves are the VMDKs whose target is not their tier, less those
    # in flight, whose target is their committed destination. The run starts
    # no move for an in-flight VMDK either way, so no artifact sees this one;
    # the plans and the scalar packers do.
    Mutant(
        "plan-moves-include-in-flight", POLICY,
        "np.flatnonzero((where != fleet.tier_row) & (fleet.dest_row < 0))",
        "np.flatnonzero(where != fleet.tier_row)",
        (
            f"{GOLDEN}test_plans_match_golden_digest[table3-table4-autotiering-0]",
            f"{GOLDEN}test_plans_match_golden_digest[tiny-oracle-idt-0]",
            f"{GOLDEN}test_scale_run_matches_golden_digest[autotiering]",
            "tests/test_policy.py::TestPlanViews::"
            "test_every_planner_lists_vmdks_and_moves_in_id_order[0]",
            "tests/test_policy.py::TestTriggerMigrationMatchesReference::"
            "test_plan_repr_equals_the_tuple_sort[0]",
            "tests/test_baselines.py::TestPackMatchesReference::"
            "test_plan_repr_equals_the_object_path[0-idt_assign]",
        ),
    ),
    # A row whose move in flight stalls is flagged whether or not it has
    # moved bytes before. ``progress_migrations`` flags the stalls of both
    # rate searches, so each forced cutover, and the large books on either
    # path, kill it.
    Mutant(
        "progress-stalls-only-rows-that-moved", ENGINE,
        "rows.compress(stall), ",
        "rows.compress(stall & (moved > 0.0)), ",
        (
            f"{GOLDEN}{LOOP_ROWS}0]",
            f"{GOLDEN}{LOOP_ROWS}1000000000]",
            f"{MIGRATIONS}test_zero_speed_stalls",
            "tests/test_engine.py::TestMigrationBookMatchesReference::"
            "test_large_books_bitwise_equal_to_the_sorting_loop[0]",
            "tests/test_engine.py::TestMigrationBookOnTheFixedPointMatchesReference::"
            "test_large_books_bitwise_equal_to_the_sorting_loop[0]",
        ),
    ),
    # The book holds only moves in flight, and one rule, speed <= 0.0, flags
    # a stall from the speed either rate search found. This drops its zero.
    Mutant(
        "progress-stalls-below-zero-only", ENGINE,
        "stall = speed <= 0.0",
        "stall = speed < 0.0",
        (
            f"{GOLDEN}test_artifacts_match_golden[table3-table4-idt-0]",
            f"{MIGRATIONS}test_zero_speed_stalls",
            *(test for cutover in (0, 1000000000) for test in (
                f"{GOLDEN}{LOOP_ROWS}{cutover}]",
                f"{MIGRATIONS}test_a_finished_move_moves_nothing_and_is_finished_again"
                f"[0.0-0.0-0.0-True-{cutover}]",
                f"{STALL_RULE}[{cutover}]",
            )),
        ),
    ),
    # The passes compare each pass's rates with the last pass's, held in the
    # other of two buffers. Without the swap that buffer keeps its 0.0s, no
    # pass settles and every book falls back to the loop: each output stays
    # exact, so only the tests that compare the passes' own result with the
    # loop's kill it.
    Mutant(
        "progress-passes-keep-one-rate-buffer", ENGINE,
        "            rate, rates = rates, rate\n",
        "",
        (
            "tests/test_engine.py::TestProgressPassesMatchLoop::test_bitwise_equal_to_the_loop",
            "tests/test_engine.py::TestProgressPassesMatchLoop::"
            "test_the_lane_fill_settles_a_lane_that_runs_out_in_four_passes",
        ),
    ),
    # A plan's moves are in strictly increasing fleet rows, the order the
    # engine starts them in; this check passes a VMDK named twice in a row.
    Mutant(
        "plan-check-passes-an-equal-pair", POLICY,
        "(np.diff(self.move_rows) <= 0).any()",
        "(np.diff(self.move_rows) < 0).any()",
        ("tests/test_policy.py::TestAssignmentPlanChecks::"
         "test_moves_out_of_fleet_row_order_are_refused[equal-pair]",),
    ),
    # The exact oracle fixes every cell of non-finite profit to 0, solves to
    # a zero gap, and cuts off a tier the packer finds overrun within the
    # solver's tolerance, then solves again.
    Mutant(
        "oracle-fixes-only-nan-cells", POLICY,
        "allowed = np.isfinite(contrib) & mat.feasible",
        "allowed = ~np.isnan(contrib) & mat.feasible",
        (f"{ORACLE}test_oracle_matches_the_reference_on_tight_budgets",),
    ),
    Mutant(
        "oracle-gap-five-percent", POLICY,
        'options={"mip_rel_gap": 0.0}',
        'options={"mip_rel_gap": 0.05}',
        (f"{ORACLE}test_oracle_matches_the_reference_on_tight_budgets",),
    ),
    Mutant(
        "oracle-cut-raises", POLICY,
        "constraints.append(LinearConstraint(cut, -np.inf, k))",
        'raise RuntimeError("the packer overran the optimum")',
        tuple(
            f"{ORACLE}test_oracle_keeps_the_packers_fit_inside_the_solver_tolerance[{case}]"
            for case in ("sizes0-0.3", "sizes1-100.0", "sizes2-0.6")
        ),
    ),
    # Roster rows are in id order, whatever order the document lists the
    # VMDKs in; a roster in document order breaks ties, and every fleet-row
    # order, another way.
    Mutant(
        "roster-in-document-order", MODEL,
        "order = np.array(sorted(range(n), key=vmdks.id.__getitem__), dtype=np.intp)",
        "order = np.arange(n)",
        (
            f"{RELATIONS}test_shuffling_vmdks_changes_no_artifact[0-table3-table4-idt]",
            f"{RELATIONS}test_shuffling_vmdks_changes_no_artifact[0-tiny-oracle-autotiering]",
            f"{GOLDEN}test_artifacts_match_golden[table3-table4-idt-0]",
            "tests/test_model.py::TestVmdkTable::"
            "test_roster_rows_sort_by_id_in_python_string_order_trailing_nuls_included",
            "tests/test_policy.py::TestTriggerMigration::test_ties_break_by_vmdk_id",
        ),
    ),
    # Each SCHEMA row's rule is a closed range that the spec checks and the
    # column pass both read. Moving one end by as little as one ulp, or
    # letting a bool pass as an integer, must show in named tests.
    Mutant(
        "positive-low-zero", MODEL,
        "POSITIVE: Rule = (_TINY, _MAX,",
        "POSITIVE: Rule = (0.0, _MAX,",
        (
            *(f"{BOUNDS}[{row}]" for row in (
                "TierSpec.baseLatencyUs", "WorkloadPhase.avgIoSizeBytes", "VmdkSpec.sizeGb",
                "VmdkSpec.truthInterceptUs", "SimulationConfig.epochSeconds")),
            "tests/test_model.py::TestVmdkSpec::test_size_must_be_positive",
        ),
    ),
    Mutant(
        "fraction-high-one-ulp-above-one", MODEL,
        'FRACTION: Rule = (0.0, 1.0, "{} out of [0,1]")',
        'FRACTION: Rule = (0.0, math.nextafter(1.0, 2.0), "{} out of [0,1]")',
        (f"{BOUNDS}[WorkloadPhase.readFraction]",),
    ),
    Mutant(
        "require-integer-passes-a-bool", MODEL,
        "    if not isinstance(value, int) or isinstance(value, bool):\n",
        "    if not isinstance(value, int):\n",
        (
            *(f"{INTEGER_FIELD}[{name}-True]" for name in (
                "epochs", "seed", "monitorEpoch", "migrationEpoch", "samplesPerLatency", "id",
                "initialTier")),
            "tests/test_model.py::TestVmdkSpec::test_a_phase_starts_at_an_int[True]",
        ),
    ),
    # The column pass reads a field only in the plain types of its reader,
    # and a ``_name`` only when it is not empty.
    Mutant(
        "plain-integer-takes-a-float", MODEL,
        "_integer: {int},",
        "_integer: {int, float},",
        (
            f"{COLUMN_PASS}test_one_value_that_is_not_plain_reads_every_vmdk_item_by_item",
            "tests/test_scenario_io.py::TestParsing::"
            "test_integer_field_rejects_non_integral_number[vmdks[0].initialTier-2.7]",
        ),
    ),
    Mutant(
        "plain-number-takes-a-bool", MODEL,
        "_number: {int, float},",
        "_number: {int, float, bool},",
        PLAIN_KILLS,
    ),
    Mutant(
        "column-pass-takes-an-empty-id", MODEL,
        " or read is _name and not all(column)",
        "",
        PLAIN_KILLS,
    ),
    # The start order no row states: with the first starts unchecked, a
    # profile starting past epoch 0 still gives the count of starts not
    # above the one before when it comes first.
    Mutant(
        "column-pass-takes-a-late-first-start", MODEL,
        "if start[offsets[:-1]].any() or np.count_nonzero(",
        "if np.count_nonzero(",
        ("tests/test_scenario_io.py::"
         "test_a_profile_that_starts_after_epoch_0_is_read_item_by_item_and_refused[0]",),
    ),
    # AutoTiering's monitor workspace keeps what a run does not change and
    # rebuilds the latency grids when tier_row's bytes change; the layers
    # hand out new arrays only. Its matrices, scores and plans must be those
    # of fresh calls, and what a plan was handed must end the run unchanged.
    Mutant(
        "latency-grids-kept-after-a-landing", POLICY,
        "    if key != ws.grid_key:",
        "    if ws.grid_key is None:",
        tuple(f"{WORKSPACE}[{name}]" for name in ("scale", "table3-table4")),
    ),
    Mutant(
        "capacity-writes-the-template", POLICY,
        "cap = ws.cap.copy()",
        "cap = ws.cap",
        tuple(f"{WORKSPACE}[{name}]" for name in ("scale", "spike", "table3-table4")),
    ),
    # A cell over its IOPS or MB/s budget has a zero storage ratio too.
    Mutant(
        "storage-ratio-ignores-feasibility", POLICY,
        "np.copyto(ratio[2], ws.storage_ratio, where=feasible)",
        "np.copyto(ratio[2], ws.storage_ratio)",
        tuple(f"{GATE}test_a_cell_over_one_budget_has_every_ratio_zeroed[{kind}]"
              for kind in ("iops", "mbps")),
    ),
    # Whole-array checks, each of which a NaN fails; each mutant lets one pass.
    *(
        Mutant(
            f"feasibility-passes-a-nan-{kind}", POLICY,
            f"(kinds[{k}] <= ws.budget[{k}])",
            f"~(kinds[{k}] > ws.budget[{k}])",
            (f"{GATE}test_a_nan_usage_is_infeasible[{kind}]",),
        )
        for k, kind in enumerate(("iops", "mbps"))
    ),
    Mutant(
        "storage-feasibility-passes-a-nan", POLICY,
        "self.storage_feasible = self.cap[2] <= self.budget[2]",
        "self.storage_feasible = ~(self.cap[2] > self.budget[2])",
        (f"{GATE}test_a_nan_usage_is_infeasible[size]",),
    ),
    # A NaN sample fails both of the row check's tests, so this one lets it
    # pass both; the fits then refuse it without naming the VMDK.
    Mutant(
        "row-check-passes-a-nan", CALIBRATION,
        "if not (means.max(initial=0.0) < MAX_MEAN_LATENCY_US and mean_cv.max(initial=0.0) < "
        "math.inf):",
        "if means.max(initial=0.0) >= MAX_MEAN_LATENCY_US or mean_cv.max(initial=0.0) == math.inf:",
        (f"{REGRESSION}test_a_nan_sample_names_its_vmdk_for_its_mean_cv",),
    ),
    Mutant(
        "fits-confidence-check-passes-a-nan", MODEL,
        "if not 0.0 < self.confidence.min(initial=1.0) <= self.confidence.max(initial=1.0) <= 1.0:",
        "if self.confidence.min(initial=1.0) <= 0.0 or self.confidence.max(initial=1.0) > 1.0:",
        (f"{OTHER_TYPES}test_calibration_confidence_bounds",),
    ),
    Mutant(
        "fits-mean-cv-check-passes-a-nan", MODEL,
        "if not 0.0 <= self.mean_cv.min(initial=0.0) <= self.mean_cv.max(initial=0.0) < math.inf:",
        "if self.mean_cv.min(initial=0.0) < 0.0 or self.mean_cv.max(initial=0.0) == math.inf:",
        (f"{OTHER_TYPES}test_calibration_row_checks"
         "[kwargs2-meanCv must be a finite non-negative number, got nan]",),
    ),
    # ``compare`` names the file and the first key a summary lacks; the log
    # level is a logging level name, not any upper-case name of the module.
    Mutant(
        "compare-passes-a-missing-key", CLI,
        "if not isinstance(node, dict) or part not in node:",
        "if not isinstance(node, dict):",
        (
            f"{COMPARE_UNREADABLE}[{{\"epochs\": 3}}-policy]",
            f"{COMPARE_UNREADABLE}[{{\"policy\": \"edt\", \"total\": "
            "{\"iops\": {\"mean\": 1.0}, \"mbps\": {}}}-total.mbps.mean]",
        ),
    ),
    Mutant(
        "log-level-takes-any-logging-name", CLI,
        "level=level if isinstance(level, int) else logging.WARNING",
        "level=level if level is not None else logging.WARNING",
        tuple(f"{LOG_LEVEL}[{value}]" for value in ("basic_format", "_styles")),
    ),
    # The score subtracts every finite migration penalty, not only the
    # infinite cells of an impossible move.
    Mutant(
        "score-ignores-finite-penalties", POLICY,
        "weights.aging_factor * history + current - penalty,",
        "weights.aging_factor * history + current - np.where(np.isinf(penalty), penalty, 0.0),",
        ("tests/test_acceptance.py::"
         "test_the_migration_penalty_cuts_migrated_bytes_at_seeds_0_to_19",),
    ),
    # C5's 1.10 margin holds at every seed 0-19, not only at the pinned one.
    # Sixteen times the probe noise keeps the pinned seed at 1.19 and drops
    # seed 12 to 1.01, so only the seed sweep kills it.
    Mutant(
        "probe-noise-sixteenfold", ENGINE,
        "    factor *= noise_cv\n",
        "    factor *= 16 * noise_cv\n",
        ("tests/test_acceptance.py::test_criterion_5_directional_superiority_at_seeds_0_to_19",),
    ),
    # A run and a parse do no Python work per VMDK. Each of the next three
    # computes the same bits through a statement run once per VMDK, which
    # only the line counts see.
    Mutant(
        "serve-loops-over-the-fleet", ENGINE,
        "    fleet.measured_iops[:] = served\n",
        "    for j, value in enumerate(served.tolist()):\n        fleet.measured_iops[j] = value\n",
        tuple(f"{LINE_COUNTS}test_a_run_executes_under_half_a_line_per_vmdk_epoch[{p}]"
              for p in ("autotiering", "idt", "edt")),
    ),
    Mutant(
        "monitor-ids-through-a-generator", POLICY,
        "            fleet.roster.ids, ctx.probe,",
        "            (vmdk_id for vmdk_id in fleet.roster.ids), ctx.probe,",
        (f"{LINE_COUNTS}test_a_run_executes_under_half_a_line_per_vmdk_epoch[autotiering]",),
    ),
    Mutant(
        "list-of-ignores-read-all", MODEL,
        "built = read_all(value) if read_all else None",
        "built = None",
        tuple(f"{LINE_COUNTS}test_parsing_executes_under_10_lines_per_vmdk[{doc}]"
              for doc in ("plain", "churn")),
    ),
)


def stale(mutants: tuple[Mutant, ...]) -> list[str]:
    """A line for each mutant whose snippet does not occur exactly once in the checkout."""
    lines = []
    for m in mutants:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.snippet)
        if count != 1:
            lines.append(f"{m.name}: its snippet occurs {count} times in {m.path}, not once")
    return lines


def pytest(copy: Path, node_ids: tuple[str, ...]) -> tuple[int, set[str], str]:
    """Run ``node_ids`` in ``copy``: pytest's exit code, the ids that failed, its output."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "--tb=no", "-p", "no:cacheprovider",
         "--hypothesis-profile=mutants", *node_ids],
        cwd=copy, env=environment(copy), capture_output=True, text=True,
    )
    failed = set(re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", run.stdout, re.M))
    return run.returncode, failed, run.stdout + run.stderr


def environment(copy: Path) -> dict[str, str]:
    """The environment a run in ``copy`` gets: the copy's ``src`` first on the path."""
    return dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
                COLUMNS="400")


def main() -> int:
    mutants = MUTANTS
    problems = stale(mutants)
    if problems:
        print("\n".join(problems))
        return 1

    with tempfile.TemporaryDirectory(prefix="autotier-mutants-") as tmp:
        copy = Path(tmp).resolve()
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, copy / name)
        where = subprocess.run(
            [sys.executable, "-c", "import autotier; print(autotier.__file__)"],
            cwd=copy, env=environment(copy), capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(where).resolve().is_relative_to(copy):
            print(f"the copy imports autotier from {where}, not from {copy}")
            return 1

        every = tuple(dict.fromkeys(n for m in mutants for n in m.kills))
        code, failed, output = pytest(copy, every)
        if code != 0:
            print(output)
            print(f"unchanged, pytest exited {code}; failed: {sorted(failed)}")
            return 1

        survivors = 0
        for m in mutants:
            target = copy / m.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(m.snippet, m.replacement), encoding="utf-8")
            start = time.perf_counter()
            code, failed, output = pytest(copy, m.kills)
            seconds = time.perf_counter() - start
            target.write_text(text, encoding="utf-8")
            passed = [n for n in m.kills if n not in failed]
            if code not in (0, 1):
                print(output)
                print(f"{m.name}: pytest exited {code}")
                survivors += 1
            elif passed:
                print(f"SURVIVED {m.name} ({seconds:.1f} s): still passing {passed}")
                survivors += 1
            else:
                print(f"killed {m.name} ({seconds:.1f} s): {len(m.kills)} of {len(m.kills)} "
                      "named tests fail")
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
