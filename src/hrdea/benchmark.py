"""Monte Carlo benchmark of the sampling pipeline against imputation baselines.

For every repetition and scenario: generate a synthetic sample, score it
with output-oriented DEA, hide a number of cells, re-estimate the scores
with each alternative, and compare against the gap-free scores.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .baselines import (
    SCENARIOS,
    generate_scenario,
    impute_hotdeck,
    impute_mean,
    impute_regression,
    interval_matrices,
    introduce_gaps,
    sets_from_gaps,
)
from .dataset import DataSet, Direction
from .dea import directional_distances, interval_dea_bounds
# Unused here; the tracer in perfbench/spans.py looks this name up.
from .dea import directional_distance  # noqa: F401
from .errors import ValidationError
from .pipeline import run_hr_dea
from .sampler import RngStream

ALTERNATIVES = (
    "mean",
    "hotdeck",
    "interval",
    "regression",
    "hr_box",
    "hr_ellipsoid",
    "hr_rhombus",
)
METRICS = ("pearson", "kendall", "mae", "msd")

# Stream-id layout: each (rep, scenario) block owns a contiguous range.
_STREAMS_PER_CASE = 8
_GEN, _GAPS, _HOTDECK, _HR_BOX, _HR_ELL, _HR_RHO = range(6)


@dataclass(frozen=True)
class ComparisonMetrics:
    pearson: float
    kendall: float
    mae: float
    msd: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.pearson, self.kendall, self.mae, self.msd)


def compare_metrics(base, est) -> ComparisonMetrics:
    """Agreement between re-estimated and original distances.

    The signed difference is estimated minus original, so negative values
    mean the alternative underestimates the distance.
    """
    base = np.asarray(base, dtype=float).ravel()
    est = np.asarray(est, dtype=float).ravel()
    if base.size != est.size or base.size < 2:
        raise ValidationError("need two same-length vectors with at least 2 entries")
    if base.std() == 0.0 or est.std() == 0.0:
        pearson = np.nan
    else:
        pearson = float(stats.pearsonr(base, est).statistic)
    kendall = float(stats.kendalltau(base, est).statistic)
    diff = est - base
    return ComparisonMetrics(
        pearson=pearson,
        kendall=kendall,
        mae=float(np.abs(diff).mean()),
        msd=float(diff.mean()),
    )


def _output_distances(data: DataSet) -> np.ndarray:
    """Output-oriented distances; values are floored so an imputed zero
    output yields a finite (huge) distance instead of a degenerate LP."""
    X = np.maximum(data.X, 1e-12)
    Y = np.maximum(data.Y, 1e-12)
    dx, dy, _ = Direction.output_oriented().resolve_at(X, Y)
    return directional_distances(X, Y, X, Y, dx, dy, np.arange(data.n))


def _child_seed(seed: int, case_stream: int, offset: int) -> int:
    gen = RngStream(seed, case_stream + offset).generator()
    return int(gen.integers(0, 2**63 - 1))


def run_case(scenario: str, rep: int, n: int, gaps: int, t: int, seed: int) -> dict:
    """One (scenario, repetition) cell: metrics for every alternative."""
    case = (rep * len(SCENARIOS) + SCENARIOS.index(scenario)) * _STREAMS_PER_CASE
    data = generate_scenario(scenario, n, RngStream(seed, case + _GEN))
    base = _output_distances(data)
    masked, gapspec = introduce_gaps(data, gaps, RngStream(seed, case + _GAPS))
    direction = Direction.output_oriented()

    estimates: dict[str, np.ndarray] = {}
    estimates["mean"] = _output_distances(impute_mean(masked))
    estimates["hotdeck"] = _output_distances(
        impute_hotdeck(masked, RngStream(seed, case + _HOTDECK))
    )
    estimates["regression"] = _output_distances(impute_regression(masked))

    lower, upper = interval_matrices(masked, gapspec)
    m = masked.m
    mids = np.empty(masked.n)
    for k in range(masked.n):
        d_low, d_high = interval_dea_bounds(
            masked, lower[:m], upper[:m], lower[m:], upper[m:], k, direction
        )
        mids[k] = (d_low + d_high) / 2.0
    estimates["interval"] = mids

    for name, shape, offset in (
        ("hr_box", "box", _HR_BOX),
        ("hr_ellipsoid", "ellipsoid", _HR_ELL),
        ("hr_rhombus", "rhombus", _HR_RHO),
    ):
        sets = sets_from_gaps(masked, gapspec, shape)
        dm = run_hr_dea(
            masked,
            sets,
            direction,
            t=t,
            seed=_child_seed(seed, case, offset),
            undesirable=False,
        )
        estimates[name] = dm.values.mean(axis=1)

    return {
        "scenario": scenario,
        "rep": rep,
        "metrics": {
            name: compare_metrics(base, est).as_tuple() for name, est in estimates.items()
        },
    }


def _run_case_args(args):
    return run_case(*args)


@dataclass(frozen=True)
class BenchmarkReport:
    """Mean metric per alternative, scenario and across scenarios."""

    scenarios: tuple[str, ...]
    reps: int
    config: dict
    table: dict  # table[alternative][metric][scenario or "mean"] -> float

    def value(self, alternative: str, metric: str, scenario: str = "mean") -> float:
        return self.table[alternative][metric][scenario]


def run_benchmark(
    scenarios=SCENARIOS,
    reps: int = 150,
    n: int = 300,
    gaps: int = 80,
    t: int = 100,
    seed: int = 0,
    threads: int = 1,
) -> BenchmarkReport:
    """Monte Carlo comparison of all alternatives; deterministic in ``seed``."""
    scenarios = tuple(scenarios)
    for sc in scenarios:
        if sc not in SCENARIOS:
            raise ValidationError(f"unknown scenario {sc!r}")
    if reps < 1:
        raise ValidationError("need at least one repetition")
    cases = [(sc, rep, n, gaps, t, seed) for rep in range(reps) for sc in scenarios]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_case_args, cases, chunksize=1))
    else:
        results = [run_case(*case) for case in cases]

    sums = {
        alt: {metric: {sc: 0.0 for sc in scenarios} for metric in METRICS}
        for alt in ALTERNATIVES
    }
    for res in results:
        sc = res["scenario"]
        for alt in ALTERNATIVES:
            values = res["metrics"][alt]
            for metric, value in zip(METRICS, values):
                sums[alt][metric][sc] += value
    table = {}
    for alt in ALTERNATIVES:
        table[alt] = {}
        for metric in METRICS:
            per_sc = {sc: sums[alt][metric][sc] / reps for sc in scenarios}
            per_sc["mean"] = sum(per_sc.values()) / len(scenarios)
            table[alt][metric] = per_sc
    config = {
        "scenarios": list(scenarios),
        "reps": reps,
        "n": n,
        "gaps": gaps,
        "t": t,
        "seed": seed,
    }
    return BenchmarkReport(scenarios=scenarios, reps=reps, config=config, table=table)


def save_benchmark(report: BenchmarkReport, path) -> None:
    """CSV table: one row per (alternative, metric), one column per scenario."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# hrdea benchmark-report v1\n")
        fh.write(f"# config: {json.dumps(report.config, sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerow(["alternative", "metric", *report.scenarios, "mean"])
        for alt in ALTERNATIVES:
            for metric in METRICS:
                row = [alt, metric]
                row += [f"{report.table[alt][metric][sc]:.6f}" for sc in report.scenarios]
                row.append(f"{report.table[alt][metric]['mean']:.6f}")
                writer.writerow(row)
