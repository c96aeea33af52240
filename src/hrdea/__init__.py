"""Robust DEA efficiency estimation under imperfect knowledge of data.

Admissible observations are sampled from per-DMU convex uncertainty sets
with a Hit & Run walk; each sampled world is scored with directional DEA
linear programs, and the resulting distance distributions feed robustness
indices, confidence intervals, categories, outperformance probabilities
and hypothesis tests.
"""

__version__ = "0.1.0"

from .dataset import DataSet, Direction, from_arrays, load_dataset, pool_panel, save_dataset
from .dea import (
    DeaSolution,
    interval_dea_bounds,
    solve_directional,
    solve_weak_disposability,
)
from .geometry import UncertaintySet, chord_length, contains
from .inference import (
    BetaFit,
    BucketScheme,
    RobustnessReport,
    beta_expected_distance,
    beta_to_gaussian,
    classify,
    confidence_interval,
    efficiency_score,
    erii,
    expected_distance,
    expected_efficiency,
    fit_beta,
    outperformance_probability,
    robustness_report,
    scenario_p_value,
)
from .pipeline import DistanceMatrix, load_distance_matrix, run_hr_dea, save_distance_matrix
from .sampler import RngStream, WalkState, hr_sample, hr_step

__all__ = [
    "DataSet",
    "Direction",
    "DeaSolution",
    "DistanceMatrix",
    "BetaFit",
    "BucketScheme",
    "RngStream",
    "RobustnessReport",
    "UncertaintySet",
    "WalkState",
    "beta_expected_distance",
    "beta_to_gaussian",
    "chord_length",
    "classify",
    "confidence_interval",
    "contains",
    "efficiency_score",
    "erii",
    "expected_distance",
    "expected_efficiency",
    "fit_beta",
    "from_arrays",
    "hr_sample",
    "hr_step",
    "interval_dea_bounds",
    "load_dataset",
    "load_distance_matrix",
    "outperformance_probability",
    "pool_panel",
    "robustness_report",
    "run_hr_dea",
    "save_dataset",
    "save_distance_matrix",
    "scenario_p_value",
    "solve_directional",
    "solve_weak_disposability",
]
