"""Synthetic scenarios, gap injection and imputation baselines.

These are the alternatives the sampling pipeline is benchmarked against:
column-mean substitution, nearest-neighbour hot-deck, OLS regression, and
interval bounds built from the gap magnitudes.
"""

from __future__ import annotations

import warnings

import numpy as np

from .dataset import DataSet, from_arrays
from .errors import ValidationError
from .geometry import UncertaintySet
from .sampler import RngStream

SCENARIOS = ("I", "II", "III")


def _positive(draw, size: int) -> np.ndarray:
    """``size`` values of ``draw(count)``, each zero redrawn until positive."""
    out = draw(size)
    while True:
        zero = out == 0.0
        if not zero.any():
            return out
        out[zero] = draw(int(zero.sum()))


def generate_scenario(scenario_id: str, n: int, rng: RngStream) -> DataSet:
    """Two inputs, one output; the output law depends on the scenario."""
    if scenario_id not in SCENARIOS:
        raise ValidationError(f"scenario must be one of {SCENARIOS}")
    if n < 1:
        raise ValidationError("need at least one DMU")
    gen = rng.generator()

    def uniform(size):
        return gen.uniform(0.0, 1.0, size=size)

    def half_normal(sigma):
        return lambda size: np.abs(gen.normal(0.0, sigma, size=size))

    x1 = 10.0 + 5.0 * uniform(n)
    x2 = 20.0 + 10.0 * _positive(half_normal(1.0), n)
    if scenario_id == "I":
        y1 = 5.0 * np.sqrt(x1) * x2**0.7 * _positive(uniform, n)
    elif scenario_id == "II":
        y1 = (2.0 * x1 + 4.0 * x2 + x1 * x2) * _positive(half_normal(1.0 / 3.0), n)
    else:
        lx1, lx2 = np.log(x1), np.log(x2)
        log_y = (
            0.25
            + 0.2 * lx1
            + lx2
            + 0.4 * lx1**2
            + 0.1 * lx2**2
            + 0.3 * lx1 * lx2
            + np.log(_positive(uniform, n))
        )
        y1 = np.exp(log_y)
    return from_arrays(
        X=np.vstack([x1, x2]),
        Y=y1[None, :],
        input_names=("x1", "x2"),
        output_names=("y1",),
    )


def magnitude(value: float) -> int:
    """Number of integer digits; values below one count as magnitude 1."""
    if value < 1.0:
        return 1
    return int(np.floor(np.log10(value))) + 1


def introduce_gaps(
    data: DataSet, count: int, rng: RngStream
) -> tuple[DataSet, np.ndarray, np.ndarray]:
    """Mask ``count`` distinct input/output cells chosen uniformly at random
    -> (masked data, lower, upper).

    Each masked cell gets the interval [v - 10^(O-1) rho', v + 10^(O-1) rho]
    clipped at zero, where O is the magnitude of the hidden value and
    rho, rho' are independent uniform(0, 1) draws.  ``lower`` and ``upper``
    are stacked (z, n) bound matrices, equal to the data outside the gaps.
    """
    total = data.n * (data.m + data.s)
    if count < 0:
        raise ValidationError(f"gap count must be >= 0, got {count}")
    if count > total:
        raise ValidationError(f"cannot mask {count} of {total} cells")
    gen = rng.generator()
    chosen = gen.choice(total, size=count, replace=False) if count else np.empty(0, int)
    stacked = data.stacked()
    lower, upper = stacked.copy(), stacked.copy()
    for flat in sorted(int(c) for c in chosen):
        var, j = divmod(flat, data.n)
        value = stacked[var, j]
        half = 10.0 ** (magnitude(value) - 1)
        lower[var, j] = max(0.0, value - half * gen.uniform(0.0, 1.0))
        upper[var, j] = value + half * gen.uniform(0.0, 1.0)
        stacked[var, j] = np.nan
    return data.with_values(stacked), lower, upper


def sets_from_gaps(lower: np.ndarray, upper: np.ndarray, shape: str) -> list[UncertaintySet]:
    """One uncertainty set per DMU (column of the stacked bound matrices)
    centered at the interval midpoints.

    Cells without a gap get a zero semi-axis, which pins that coordinate;
    DMUs without any gap degenerate to point sets.
    """
    center = (lower + upper) / 2.0
    w = (upper - lower) / 2.0
    return [UncertaintySet(shape if w[:, j].any() else "point", center[:, j], w[:, j])
            for j in range(center.shape[1])]


def impute_mean(data: DataSet) -> DataSet:
    """Replace each masked cell with the mean of its variable's known values."""
    stacked = data.stacked().copy()
    mask = data.stacked_mask()
    for var in range(data.z):
        row_mask = mask[var]
        if not row_mask.any():
            continue
        known = stacked[var, ~row_mask]
        if known.size == 0:
            raise ValidationError(f"variable {var} has no known values to average")
        stacked[var, row_mask] = known.mean()
    return data.with_values(stacked)


def impute_hotdeck(data: DataSet, rng: RngStream) -> DataSet:
    """Copy missing values from the most similar fully known DMU.

    Similarity is standardized Euclidean distance over the recipient's
    known variables; ties are broken uniformly at random.
    """
    stacked = data.stacked().copy()
    mask = data.stacked_mask()
    complete = ~mask.any(axis=0)
    if not complete.any():
        raise ValidationError("hot-deck imputation needs at least one complete DMU")
    donors = stacked[:, complete]
    scale = donors.std(axis=1)
    scale[scale == 0.0] = 1.0
    gen = rng.generator()
    for j in range(data.n):
        missing = mask[:, j]
        if not missing.any():
            continue
        known = ~missing
        diffs = (donors[known] - stacked[known, j][:, None]) / scale[known, None]
        dist = np.sqrt((diffs**2).sum(axis=0))
        best = dist.min()
        ties = np.nonzero(dist <= best + 1e-12)[0]
        pick = int(ties[gen.integers(ties.size)]) if ties.size > 1 else int(ties[0])
        stacked[missing, j] = donors[missing, pick]
    return data.with_values(stacked)


def impute_regression(data: DataSet) -> DataSet:
    """OLS of each missing variable on all the others over complete DMUs.

    Fitted values are clipped at zero.  A rank-deficient design falls back
    to mean imputation for that variable, with a warning.  Predictors that
    are themselves missing in the recipient are filled with their variable
    means for the prediction.
    """
    stacked = data.stacked().copy()
    mask = data.stacked_mask()
    complete = ~mask.any(axis=0)
    n_complete = int(complete.sum())
    if n_complete < data.z + 1:
        raise ValidationError(
            f"regression imputation needs at least {data.z + 1} complete DMUs"
        )
    donors = stacked[:, complete]
    col_means = donors.mean(axis=1)
    for var in range(data.z):
        targets = np.nonzero(mask[var])[0]
        if targets.size == 0:
            continue
        others = [i for i in range(data.z) if i != var]
        design = np.column_stack([np.ones(n_complete), donors[others].T])
        response = donors[var]
        coeffs, _, rank, _ = np.linalg.lstsq(design, response, rcond=None)
        if rank < design.shape[1]:
            warnings.warn(
                f"singular regression design for variable {var}; using the mean instead",
                stacklevel=2,
            )
            stacked[var, targets] = response.mean()
            continue
        for j in targets:
            predictors = stacked[others, j].copy()
            bad = ~np.isfinite(predictors)
            if bad.any():
                predictors[bad] = col_means[others][bad]
            fitted = coeffs[0] + predictors @ coeffs[1:]
            stacked[var, j] = max(0.0, float(fitted))
    return data.with_values(stacked)
