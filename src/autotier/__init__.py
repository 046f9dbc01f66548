"""Multi-tier flash placement: calibration-driven policy, baselines, simulator."""

from .model import (
    CalibrationFits,
    CapacityMatrices,
    Fleet,
    MigrationLog,
    PolicyWeights,
    ResourceVector,
    Roster,
    Scenario,
    ScenarioValidationError,
    SimulationConfig,
    TierSpec,
    VmdkSpec,
    VmdkTable,
    WorkloadPhase,
    validate_scenario,
)
from .calibration import (
    CalibrationSamples,
    collect_samples,
    compute_confidence,
    estimate_avg_lat,
    regress_latency_curve,
)
from .policy import (
    AssignmentPlan,
    AutoTieringPolicy,
    cal_capacity_matrices,
    cal_score,
    epoch_profit,
    mig_cost_seconds,
    migration_penalty,
    normalize_and_gate,
    oracle_assignment,
    orthogonal_match_score,
    pack,
    profit_contributions,
    trigger_migration,
)
from .baselines import EdtPolicy, IdtPolicy, edt_assign, idt_assign
from .engine import (
    RunResult,
    make_policy,
    probe_latencies,
    run_scenario,
)
from .scenario import (
    BUNDLED_SCENARIOS,
    load_bundled_scenario,
    load_scenario,
    parse_scenario,
    scenario_to_document,
    serialize_scenario,
)
from .reporting import (
    comparison_dict,
    emit_cdf,
    metrics_csv_text,
    migrations_dict,
    summary_dict,
    write_run_artifacts,
)

__version__ = "0.1.0"
