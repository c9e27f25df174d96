"""Experiment runners reproducing every table and figure of the paper."""

from .ablations import (
    run_compressor_ablation,
    run_epoch_size_sweep,
    run_migration_ablation,
)
from .campaign_tasks import (
    EXPERIMENT_NAMES,
    EXPERIMENTS,
    CampaignTask,
    ExperimentDef,
    enumerate_campaign_tasks,
    run_campaign_task,
)
from .common import (
    DEFAULT,
    FULL,
    PAPER,
    SCALE_NAMES,
    SMOKE,
    ExperimentScale,
    aged_capacities,
    get_scale,
    run_one,
)
from .compressibility import CompressibilityRow, classify_app, run_fig2
from .cpth_sweep import SweepResult, run_cpth_sweep
from .energy_study import run_energy_study
from .lifetime import (
    SENSITIVITY_POLICIES,
    STANDARD_POLICIES,
    LifetimeStudy,
    bound_ipc,
    forecast_policy,
    run_fig11c_equal_cost,
    run_lifetime_study,
)
from .optimal_cpth import WinnerDistribution, run_fig8a, run_fig8b, winner_distribution
from .report import format_records, format_run_records, format_table
from .tables import table1_rows, table2_rows, table3_rows, table4_rows, table5_rows
from .th_tradeoff import TradeoffPoint, run_fig9
from .wear_leveling_study import run_wear_leveling_study

__all__ = [
    "CampaignTask",
    "CompressibilityRow",
    "DEFAULT",
    "EXPERIMENTS",
    "EXPERIMENT_NAMES",
    "ExperimentDef",
    "ExperimentScale",
    "FULL",
    "LifetimeStudy",
    "PAPER",
    "SCALE_NAMES",
    "SENSITIVITY_POLICIES",
    "SMOKE",
    "STANDARD_POLICIES",
    "SweepResult",
    "TradeoffPoint",
    "WinnerDistribution",
    "aged_capacities",
    "bound_ipc",
    "classify_app",
    "enumerate_campaign_tasks",
    "forecast_policy",
    "format_records",
    "format_run_records",
    "format_table",
    "get_scale",
    "run_compressor_ablation",
    "run_cpth_sweep",
    "run_energy_study",
    "run_epoch_size_sweep",
    "run_fig11c_equal_cost",
    "run_migration_ablation",
    "run_wear_leveling_study",
    "run_fig2",
    "run_fig8a",
    "run_fig8b",
    "run_fig9",
    "run_campaign_task",
    "run_lifetime_study",
    "run_one",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table5_rows",
    "winner_distribution",
]
