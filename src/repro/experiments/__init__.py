"""Experiment drivers (the paper's Section 8 study); the figures are the
spec table in :mod:`repro.experiments.figures`."""

from repro.experiments.common import (
    ScenarioStats,
    format_pm,
    format_table,
    make_membership,
    make_network,
    run_scenario,
    scenario_config,
)
from repro.experiments.montecarlo import (
    MetricEstimate,
    ReplicationOutcome,
    ReplicationPlan,
    Welford,
    run_replicated,
    wilson_interval,
)
from repro.experiments.fig4_pct import (
    PctPoint,
    measure_pct,
    pct_by_density,
    pct_by_network_size,
)
from repro.experiments.fig5_flooding import (
    FloodPoint,
    flooding_by_density,
    flooding_by_size,
    flooding_coverage,
)
from repro.experiments.fig7_degradation import (
    CHURN_MODES,
    DegradationPoint,
    degradation_curves,
)
from repro.experiments.fig_quorum import (
    QuorumLoadPoint,
    quorum_load_point,
    quorum_load_sweep,
)
from repro.experiments.fig_maintenance import (
    MaintenancePoint,
    expected_intersection,
    maintenance_curves,
)
from repro.experiments.fig_byz import (
    ByzPoint,
    byzantine_sweep,
    undefended_corrupt_bound,
)
from repro.experiments.fig_kv import (
    KVCell,
    KVSweepPoint,
    evaluate_kv_point,
    kv_sweep,
)
from repro.experiments.workload import (
    KVPointConfig,
    KVRunStats,
    Operations,
    SizingRecommendation,
    TauEstimator,
    WorkloadSpec,
    ZipfKeySampler,
    generate_operations,
    run_workload_batched,
    run_workload_sequential,
    zipf_pmf,
)
from repro.experiments.ascii_plot import render_series
from repro.experiments.runner import (
    SweepResult,
    derive_task_seed,
    merge_scenario_stats,
    run_sweep,
)
from repro.experiments.figures import (
    FIGURES,
    FigureRow,
    FigureSpec,
    figure_table,
    run_figure,
)

__all__ = [
    "ScenarioStats", "format_pm", "format_table", "make_membership",
    "make_network", "run_scenario", "scenario_config",
    "MetricEstimate", "ReplicationOutcome", "ReplicationPlan", "Welford",
    "run_replicated", "wilson_interval",
    "PctPoint", "measure_pct", "pct_by_density", "pct_by_network_size",
    "FloodPoint", "flooding_by_density", "flooding_by_size",
    "flooding_coverage",
    "CHURN_MODES", "DegradationPoint", "degradation_curves",
    "MaintenancePoint", "expected_intersection", "maintenance_curves",
    "ByzPoint", "byzantine_sweep", "undefended_corrupt_bound",
    "KVCell", "KVSweepPoint", "evaluate_kv_point", "kv_sweep",
    "KVPointConfig", "KVRunStats", "Operations", "WorkloadSpec",
    "generate_operations", "run_workload_batched",
    "run_workload_sequential", "zipf_pmf",
    "QuorumLoadPoint", "quorum_load_point", "quorum_load_sweep",
    "FIGURES", "FigureRow", "FigureSpec", "figure_table", "run_figure",
    "render_series",
    "SweepResult", "derive_task_seed", "merge_scenario_stats", "run_sweep",
    "SizingRecommendation", "TauEstimator", "ZipfKeySampler",
]
