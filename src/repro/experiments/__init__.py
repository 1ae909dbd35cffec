"""Per-figure experiment drivers (the paper's Section 8 study)."""

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
from repro.experiments.fig8_random import (
    RandomAdvertisePoint,
    RandomLookupPoint,
    random_advertise_cost,
    random_lookup_hit_ratio,
)
from repro.experiments.fig9_random_opt import RandomOptPoint, random_opt_lookup
from repro.experiments.fig10_unique_path import (
    UniquePathPoint,
    ablation_early_halting,
    unique_path_lookup,
)
from repro.experiments.fig11_flooding import FloodingLookupPoint, flooding_lookup
from repro.experiments.fig12_path_path import PathPathPoint, path_x_path
from repro.experiments.fig13_14_mobility import (
    ChurnPoint,
    MobilityPoint,
    churn_sweep,
    mobility_sweep,
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
from repro.experiments.fig15_16_summary import (
    SummaryRow,
    TradeoffPoint,
    lookup_tradeoff_curves,
    render_summary,
    summary_table,
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
    "RandomAdvertisePoint", "RandomLookupPoint", "random_advertise_cost",
    "random_lookup_hit_ratio",
    "RandomOptPoint", "random_opt_lookup",
    "UniquePathPoint", "ablation_early_halting", "unique_path_lookup",
    "FloodingLookupPoint", "flooding_lookup",
    "PathPathPoint", "path_x_path",
    "ChurnPoint", "MobilityPoint", "churn_sweep", "mobility_sweep",
    "MaintenancePoint", "expected_intersection", "maintenance_curves",
    "ByzPoint", "byzantine_sweep", "undefended_corrupt_bound",
    "KVCell", "KVSweepPoint", "evaluate_kv_point", "kv_sweep",
    "KVPointConfig", "KVRunStats", "Operations", "WorkloadSpec",
    "generate_operations", "run_workload_batched",
    "run_workload_sequential", "zipf_pmf",
    "QuorumLoadPoint", "quorum_load_point", "quorum_load_sweep",
    "SummaryRow", "TradeoffPoint", "lookup_tradeoff_curves",
    "render_summary", "summary_table",
    "render_series",
    "SweepResult", "derive_task_seed", "merge_scenario_stats", "run_sweep",
    "SizingRecommendation", "TauEstimator", "ZipfKeySampler",
]
