"""Monte Carlo benchmark of the sampling pipeline against imputation baselines.

For every repetition and scenario: generate a synthetic sample, score it
with output-oriented DEA, hide a number of cells, re-estimate the scores
with each alternative, and compare against the gap-free scores.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baselines import (
    SCENARIOS,
    generate_scenario,
    impute_hotdeck,
    impute_mean,
    impute_regression,
    introduce_gaps,
    sets_from_gaps,
)
from .dataset import DataSet, Direction
from .dea import interval_dea_bounds
# Unused here; the tracer in perfbench/spans.py looks this name up.
from .dea import directional_distance  # noqa: F401
from .errors import ValidationError
# Imported by name, so the tracer's pipeline.column spans count the
# sampled worlds only.
from .pipeline import _column_distances, run_hr_dea, write_header
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


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson's r, computed as ``scipy.stats.pearsonr`` computes it: NaN
    when either vector is constant, each centred vector scaled by its
    largest magnitude before its norm is taken, and exactly +-1 at n = 2."""
    if np.all(x == x[0]) or np.all(y == y[0]):
        return np.nan
    xm, ym = x - x.mean(), y - y.mean()
    xmax, ymax = np.abs(xm).max(), np.abs(ym).max()
    with np.errstate(invalid="ignore", divide="ignore"):
        normxm = xmax * np.linalg.norm(xm / xmax, axis=-1)
        normym = ymax * np.linalg.norm(ym / ymax, axis=-1)
        r = float(np.clip(np.dot(xm / normxm, ym / normym), -1.0, 1.0))
    return float(np.round(r)) if x.size == 2 else r


# Elements of one block of the pairwise sign matrices in _kendall_tau_b.
_PAIR_BLOCK = 1 << 20


def _kendall_tau_b(x: np.ndarray, y: np.ndarray) -> float:
    """Kendall's tau-b: (concordant - discordant) pairs over the square
    roots of the pairs untied in x and untied in y, counted exactly, with
    the final float arithmetic of ``scipy.stats.kendalltau``.  NaN when an
    input holds NaN or either vector is constant.  The pairs are counted
    from sign products over blocks of rows: O(n^2) time, at most about
    ``_PAIR_BLOCK`` elements of memory at once."""
    if np.isnan(x).any() or np.isnan(y).any():
        return np.nan
    step = max(1, _PAIR_BLOCK // x.size)
    both = untied_x = untied_y = 0
    for i in range(0, x.size, step):
        xi, yi = x[i : i + step, None], y[i : i + step, None]
        sx = (xi > x).view(np.int8) - (xi < x).view(np.int8)
        sy = (yi > y).view(np.int8) - (yi < y).view(np.int8)
        both += int((sx * sy).sum(dtype=np.int64))
        untied_x += int(np.count_nonzero(sx))
        untied_y += int(np.count_nonzero(sy))
    # Every unordered pair was counted twice, as (i, j) and as (j, i).
    both, untied_x, untied_y = both // 2, untied_x // 2, untied_y // 2
    if untied_x == 0 or untied_y == 0:
        return np.nan
    tau = both / np.sqrt(untied_x) / np.sqrt(untied_y)
    return float(min(1.0, max(-1.0, tau)))


def compare_metrics(base, est) -> ComparisonMetrics:
    """Agreement between re-estimated and original distances.

    The signed difference is estimated minus original, so negative values
    mean the alternative underestimates the distance.
    """
    base = np.asarray(base, dtype=float).ravel()
    est = np.asarray(est, dtype=float).ravel()
    if base.size != est.size or base.size < 2:
        raise ValidationError("need two same-length vectors with at least 2 entries")
    diff = est - base
    return ComparisonMetrics(
        pearson=_pearson(base, est),
        kendall=_kendall_tau_b(base, est),
        mae=float(np.abs(diff).mean()),
        msd=float(diff.mean()),
    )


def _output_distances(data: DataSet) -> np.ndarray:
    """Output-oriented distances of the sample scored as one world; values
    are floored there, so an imputed zero output yields a finite (huge)
    distance instead of a degenerate LP."""
    return _column_distances(data.stacked(), data.m, data.s, Direction.output_oriented())


def _child_seed(seed: int, case_stream: int, offset: int) -> int:
    gen = RngStream(seed, case_stream + offset).generator()
    return int(gen.integers(0, 2**63 - 1))


def run_case(scenario: str, rep: int, n: int, gaps: int, t: int, seed: int) -> np.ndarray:
    """One (scenario, repetition) cell: a (len(ALTERNATIVES), len(METRICS))
    array, one row of metrics per alternative."""
    case = (rep * len(SCENARIOS) + SCENARIOS.index(scenario)) * _STREAMS_PER_CASE
    data = generate_scenario(scenario, n, RngStream(seed, case + _GEN))
    base = _output_distances(data)
    masked, lower, upper = introduce_gaps(data, gaps, RngStream(seed, case + _GAPS))
    direction = Direction.output_oriented()

    estimates: dict[str, np.ndarray] = {}
    estimates["mean"] = _output_distances(impute_mean(masked))
    estimates["hotdeck"] = _output_distances(
        impute_hotdeck(masked, RngStream(seed, case + _HOTDECK))
    )
    estimates["regression"] = _output_distances(impute_regression(masked))

    d_low, d_high = interval_dea_bounds(masked, lower, upper, direction)
    estimates["interval"] = (d_low + d_high) / 2.0

    for name, shape, offset in (
        ("hr_box", "box", _HR_BOX),
        ("hr_ellipsoid", "ellipsoid", _HR_ELL),
        ("hr_rhombus", "rhombus", _HR_RHO),
    ):
        sets = sets_from_gaps(lower, upper, shape)
        dm = run_hr_dea(masked, sets, direction, t=t, seed=_child_seed(seed, case, offset))
        estimates[name] = dm.values.mean(axis=1)

    return np.array([compare_metrics(base, estimates[alt]).as_tuple() for alt in ALTERNATIVES])


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
    if not scenarios:
        raise ValidationError("need at least one scenario")
    for sc in scenarios:
        if sc not in SCENARIOS:
            raise ValidationError(f"unknown scenario {sc!r}")
        if scenarios.count(sc) > 1:
            raise ValidationError(f"scenario {sc!r} named twice")
    if reps < 1:
        raise ValidationError("need at least one repetition")
    if threads < 1:
        raise ValidationError(f"threads must be at least 1, not {threads}")
    cases = [(sc, rep, n, gaps, t, seed) for rep in range(reps) for sc in scenarios]
    if threads > 1:
        workers = min(threads, os.cpu_count() or 1, len(cases))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_case_args, cases, chunksize=1))
    else:
        results = [run_case(*case) for case in cases]

    # Sums over the outer axis add the reps, then the scenarios, one at a
    # time from 0.0 and in order.
    shape = (reps, len(scenarios), len(ALTERNATIVES), len(METRICS))
    per_sc = np.reshape(results, shape).sum(axis=0, initial=0.0) / reps
    mean = per_sc.sum(axis=0, initial=0.0) / len(scenarios)
    cells = np.concatenate([per_sc, mean[None]]).transpose(1, 2, 0).tolist()
    columns = (*scenarios, "mean")
    table = {
        alt: {metric: dict(zip(columns, row)) for metric, row in zip(METRICS, rows)}
        for alt, rows in zip(ALTERNATIVES, cells)
    }
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
        write_header(fh, "benchmark-report", report.config)
        writer = csv.writer(fh)
        writer.writerow(["alternative", "metric", *report.scenarios, "mean"])
        for alt in ALTERNATIVES:
            for metric in METRICS:
                row = [alt, metric]
                row += [f"{report.table[alt][metric][sc]:.6f}" for sc in report.scenarios]
                row.append(f"{report.table[alt][metric]['mean']:.6f}")
                writer.writerow(row)
