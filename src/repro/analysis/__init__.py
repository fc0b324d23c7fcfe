"""Analysis utilities: theoretical bounds, metrics, fitting and reporting.

These modules are the glue between the algorithms and the experiments:
closed-form versions of the paper's bounds (:mod:`repro.analysis.bounds`),
growth-rate fitting used to check asymptotic *shapes*
(:mod:`repro.analysis.fitting`), aggregation of repeated randomized trials
(:mod:`repro.analysis.metrics`), a small experiment driver shared by the
benchmarks and examples (:mod:`repro.analysis.experiments`) and plain-text
table rendering (:mod:`repro.analysis.reporting`).
"""

from repro.analysis.bounds import (
    biased_walk_variability_bound,
    deterministic_message_bound,
    deterministic_tracing_space_bound,
    monotone_message_bound_cormode,
    monotone_message_bound_huang,
    monotone_variability_bound,
    nearly_monotone_variability_bound,
    randomized_message_bound,
    randomized_tracing_space_bound,
    random_walk_variability_bound,
    single_site_message_bound,
)
from repro.analysis.experiments import (
    TrackerComparison,
    compare_trackers,
    measure_engine_throughput,
    repeat_variability,
)
from repro.analysis.fitting import GrowthFit, fit_growth
from repro.analysis.metrics import (
    TrialSummary,
    level_message_shares,
    root_traffic_fraction,
    shard_imbalance,
    summarize_trials,
)
from repro.analysis.reporting import format_table
from repro.analysis.staleness import (
    StalenessSummary,
    error_over_time,
    summarize_staleness,
    time_averaged_relative_error,
)

__all__ = [
    "biased_walk_variability_bound",
    "deterministic_message_bound",
    "deterministic_tracing_space_bound",
    "monotone_message_bound_cormode",
    "monotone_message_bound_huang",
    "monotone_variability_bound",
    "nearly_monotone_variability_bound",
    "randomized_message_bound",
    "randomized_tracing_space_bound",
    "random_walk_variability_bound",
    "single_site_message_bound",
    "TrackerComparison",
    "compare_trackers",
    "measure_engine_throughput",
    "repeat_variability",
    "GrowthFit",
    "fit_growth",
    "TrialSummary",
    "shard_imbalance",
    "level_message_shares",
    "root_traffic_fraction",
    "summarize_trials",
    "format_table",
    "StalenessSummary",
    "error_over_time",
    "summarize_staleness",
    "time_averaged_relative_error",
]
