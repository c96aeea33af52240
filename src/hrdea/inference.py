"""Statistical post-processing of sampled distance matrices.

Implements the robustness index over distance buckets, expected distance
and efficiency, order-statistic confidence intervals, the four robustness
categories, outperformance probabilities, the scenario comparison test,
and beta/Gaussian summaries of distance distributions.

Every statistic works on a whole matrix of samples, one row per DMU: the
report and the scenario test take theirs over the matrix at once, and the
helpers that take one sample (``erii``, ``confidence_interval``,
``fit_beta``, ...) are batches of one.  scipy is imported only
inside the functions that need it (the beta fit, the density curve and the
Gaussian outperformance), so importing hrdea loads none of it, and they
use ``scipy.special`` alone: no path loads ``scipy.stats``.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFitError, HrdeaError, ValidationError
from .pipeline import DistanceMatrix, write_header

ZERO_TOL = 1e-9
DEFAULT_WIDTH = 0.01
DENSITY_POINTS = 200  # points of each density curve
CATEGORIES = ("C1", "C2", "C3", "C4")

REPORT_COLUMNS = (
    "dmu",
    "erii0",
    "expected_distance",
    "lb",
    "ub",
    "sd",
    "expected_efficiency",
    "category",
)


def _check_width(width: float) -> None:
    if not (math.isfinite(width) and width > 0):
        raise ValidationError(f"bucket width must be finite and positive, not {width}")


def _check_tau(t: int, tau: float) -> None:
    if not 0 < tau < 1:
        raise ValidationError("tau must lie strictly between 0 and 1")
    if (1.0 - tau) * t / 2.0 < 1.0 - 1e-9:
        minimum = math.ceil(2.0 / (1.0 - tau))
        raise ValidationError(f"need at least t = {minimum} samples for tau = {tau}")


def check_report_settings(t: int, tau: float, bucket_width: float) -> None:
    """Raise ``ValidationError`` unless ``robustness_report`` accepts
    ``tau`` and ``bucket_width`` for a matrix of t samples per DMU, so that
    a caller can check them before it samples the matrix."""
    _check_width(bucket_width)
    _check_tau(t, tau)


@dataclass(frozen=True)
class BucketScheme:
    """Zero bucket {0} plus G equal-width half-open buckets covering the range."""

    width: float
    count: int

    def __post_init__(self):
        _check_width(self.width)
        if self.count < 1:
            raise ValidationError("need at least one bucket")

    MAX_BUCKETS = 5_000_000

    @classmethod
    def for_values(cls, values, width: float = DEFAULT_WIDTH) -> "BucketScheme":
        _check_width(width)
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            raise ValidationError("cannot build buckets from no samples")
        if not np.isfinite(values).all():
            raise ValidationError("cannot build buckets from non-finite samples")
        top = float(values.max())
        count = max(1, int(math.ceil(top / width - 1e-12)))
        if count > cls.MAX_BUCKETS:
            raise ValidationError(
                f"range [0, {top:g}] needs {count} buckets of width {width}; "
                "increase the bucket width"
            )
        return cls(width=width, count=count)

    def midpoints(self) -> np.ndarray:
        mids = np.empty(self.count + 1)
        mids[0] = 0.0
        mids[1:] = (np.arange(1, self.count + 1) - 0.5) * self.width
        return mids


def _rows(values) -> np.ndarray:
    """A matrix as it is, anything of fewer dimensions as a matrix of one row."""
    rows = np.atleast_2d(np.asarray(values, dtype=float))
    if rows.ndim > 2:
        raise ValidationError(f"expected a vector or a matrix, not shape {rows.shape}")
    return rows


def erii_counts(samples, scheme: BucketScheme) -> np.ndarray:
    """Integer bucket occupancies, the exact building block of the index:
    one vector for a sample, one row per row of a matrix of samples."""
    rows = _rows(samples)
    if rows.size == 0:
        raise ValidationError("no samples")
    if np.any(rows < -ZERO_TOL):
        raise ValidationError("distances must be >= 0")
    buckets = np.ceil(rows / scheme.width - 1e-12).astype(np.int64)
    np.clip(buckets, 1, scheme.count, out=buckets)
    buckets[rows <= ZERO_TOL] = 0
    size = scheme.count + 1
    buckets += size * np.arange(rows.shape[0])[:, None]  # row j counts in its own block
    counts = np.bincount(buckets.ravel(), minlength=rows.shape[0] * size)
    return counts.reshape(-1, size) if np.ndim(samples) == 2 else counts


def erii(samples, scheme: BucketScheme) -> np.ndarray:
    """Fraction of draws falling in each bucket (entry 0 = exactly efficient),
    per row of a matrix of samples."""
    counts = erii_counts(samples, scheme)
    return counts / counts.sum(axis=-1, keepdims=True)


def expected_distance(erii_probs, scheme: BucketScheme):
    """Riemann-Darboux style expectation over bucket midpoints: a float for
    one index vector, an array for a matrix of them, one entry per row."""
    rows = _rows(erii_probs)
    if rows.shape[1] != scheme.count + 1:
        raise ValidationError("index vector does not match the bucket scheme")
    # A stacked matmul takes each row's dot product as a vector would; a
    # plain matrix-vector product rounds differently.
    e_d = (rows[:, None, :] @ scheme.midpoints()[:, None])[:, 0, 0]
    return e_d if np.ndim(erii_probs) == 2 else float(e_d[0])


def efficiency_score(
    distance: float,
    mode: str = "proportional",
    observation: tuple | None = None,
    direction: tuple | None = None,
) -> float:
    """Efficiency from a distance.

    In proportional mode this is (1 - D) / (1 + D); otherwise it is the
    geometric-mean ratio of input targets to inputs over the same ratio for
    outputs, with targets x - dx*D and y + dy*D.
    """
    d = float(distance)
    if d < -ZERO_TOL:
        raise ValidationError("distance must be >= 0")
    if mode == "proportional":
        return (1.0 - d) / (1.0 + d)
    if observation is None or direction is None:
        raise ValidationError("general mode needs the observation and the direction")
    x, y = (np.asarray(a, dtype=float) for a in observation)
    dx, dy = (np.asarray(a, dtype=float) for a in direction)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValidationError("observation values must be strictly positive here")
    num = np.prod(((x - dx * d) / x) ** (1.0 / x.size))
    den = np.prod(((y + dy * d) / y) ** (1.0 / y.size))
    return float(num / den)


def expected_efficiency(rho: float, sigma: float) -> float:
    """Second-order correction of (1 - rho)/(1 + rho) for a stochastic distance."""
    if rho < 0 or sigma < 0:
        raise ValidationError("rho and sigma must be >= 0")
    base = (1.0 - rho) / (1.0 + rho)
    correction = (1.0 / (1.0 + rho) ** 2 + (1.0 - rho) / (1.0 + rho) ** 3) * sigma**2
    return base + correction


def confidence_interval(samples, tau: float):
    """Order-statistic interval [D[(1-tau)t/2], D[(1+tau)t/2]] (1-based):
    two floats for a sample, two arrays for a matrix, one entry per row."""
    ordered = np.sort(_rows(samples), axis=1)
    _check_tau(ordered.shape[1], tau)
    lo_idx, hi_idx = ci_indices(ordered.shape[1], tau)
    lb, ub = ordered[:, lo_idx - 1], ordered[:, hi_idx - 1]
    return (lb, ub) if np.ndim(samples) == 2 else (float(lb[0]), float(ub[0]))


def ci_indices(t: int, tau: float) -> tuple[int, int]:
    """The 1-based order-statistic indices used by confidence_interval."""
    lo = math.ceil((1.0 - tau) * t / 2.0 - 1e-9)
    hi = math.floor((1.0 + tau) * t / 2.0 + 1e-9)
    return lo, hi


def classify(erii0: float, expected_d: float, ci: tuple[float, float], tau: float) -> str:
    """Robustness category, rules checked in order C1 -> C4."""
    lb, ub = ci
    if erii0 >= 1.0:
        return "C1"
    if tau <= erii0 < 1.0:
        return "C2"
    if erii0 < tau and lb <= ZERO_TOL < ub:
        return "C3"
    if lb > ZERO_TOL and expected_d > 0:
        return "C4"
    raise HrdeaError(
        "inconsistent report inputs: no category applies "
        f"(erii0={erii0}, expected_d={expected_d}, ci={ci})"
    )


def gaussian_outperformance(
    rho_j: float, sigma_j: float, rho_k: float, sigma_k: float
) -> float:
    """Pr(D_j <= D_k) for independent Gaussian distances."""
    from scipy.special import ndtr

    var = sigma_j**2 + sigma_k**2
    if var == 0.0:
        if rho_j == rho_k:
            return 0.5
        return 1.0 if rho_j < rho_k else 0.0
    return float(ndtr(-(rho_j - rho_k) / math.sqrt(var)))


def outperformance_probability(samples_j, samples_k, method: str = "empirical") -> float:
    """Probability that DMU j's distance does not exceed DMU k's."""
    dj = np.asarray(samples_j, dtype=float).ravel()
    dk = np.asarray(samples_k, dtype=float).ravel()
    if method == "empirical":
        if dj.size != dk.size:
            raise ValidationError("empirical method needs paired samples of equal length")
        return float(np.mean(dj - dk <= 0.0))
    if method == "gaussian":
        return gaussian_outperformance(dj.mean(), dj.std(), dk.mean(), dk.std())
    raise ValidationError(f"unknown method {method!r}")


def _hoelder(values: np.ndarray, order) -> np.ndarray:
    """Hoelder mean of each row of ``values``."""
    if order in (1, "1"):
        return values.mean(axis=1)
    if order in (2, "2"):
        return np.sqrt(np.mean(values**2, axis=1))
    if order in (np.inf, math.inf, "inf", "max"):
        return values.max(axis=1)
    raise ValidationError("hoelder order must be 1, 2 or inf")


def scenario_p_value(e_a, e_b, hoelder_order=1) -> float:
    """Two-sided p-value for identical per-iteration distance levels.

    Per column, the statistic is the ratio of the Hoelder means across DMUs
    of the two matrices; the p-value counts how one-sided those ratios are.
    """
    a = e_a.values if isinstance(e_a, DistanceMatrix) else np.asarray(e_a, dtype=float)
    b = e_b.values if isinstance(e_b, DistanceMatrix) else np.asarray(e_b, dtype=float)
    if a.shape != b.shape:
        raise ValidationError("scenario matrices must share n and t")
    if a.ndim != 2 or 0 in a.shape:
        raise ValidationError(f"scenario matrices must be n x t with n, t >= 1, not {a.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValidationError("scenario matrices must be finite")
    # Each column as a contiguous row: a mean down the columns of a rounds
    # differently from the mean of the column on its own.
    num, den = (_hoelder(np.ascontiguousarray(m.T), hoelder_order) for m in (a, b))
    zero = den == 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # as float division is silent
        ratio = num / np.where(zero, 1.0, den)
    # A zero denominator counts above, and below too when the numerator is zero.
    below = int(np.count_nonzero(np.where(zero, num == 0.0, ratio <= 1.0)))
    above = int(np.count_nonzero(zero | (ratio >= 1.0)))
    return min(1.0, 2.0 * min(below, above) / a.shape[1])


@dataclass(frozen=True)
class BetaFit:
    """Beta distribution on [q1, q2] fitted by the method of moments."""

    alpha: float
    beta: float
    q1: float
    q2: float
    ks_statistic: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0 and np.isfinite(self.alpha + self.beta)):
            raise ValidationError("beta shape parameters must be finite and positive")
        if self.q1 > self.q2:
            raise ValidationError("support bounds are crossed")


# The reasons a row gets no beta fit, in the order the checks are made.
FIT_FAILURES = (
    (DegenerateFitError, "zero-variance samples; report the constant instead"),
    (ValidationError, "need at least 10 distinct samples for a beta fit"),
    (ValidationError, "support must have positive length"),
    (DegenerateFitError, "samples degenerate on the chosen support"),
    (DegenerateFitError, "sample variance too large for a beta on this support"),
    (ValidationError, "beta shape parameters must be finite and positive"),
)


@dataclass(frozen=True)
class BetaFits:
    """Beta fits of the rows of a matrix, one entry per row.

    ``failure`` is 0 where the row was fitted, else the 1-based index in
    ``FIT_FAILURES`` of the reason it was not; the other fields are NaN on
    those rows.
    """

    alpha: np.ndarray
    beta: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    ks_statistic: np.ndarray
    failure: np.ndarray

    @property
    def skip(self) -> np.ndarray:
        """Rows without a fit: those where ``fit_beta`` raises."""
        return self.failure != 0

    def fit(self, j: int) -> BetaFit:
        """Row j's fit; raises what ``fit_beta`` raises on that row."""
        if self.failure[j]:
            error, message = FIT_FAILURES[self.failure[j] - 1]
            raise error(message)
        return BetaFit(
            alpha=float(self.alpha[j]),
            beta=float(self.beta[j]),
            q1=float(self.q1[j]),
            q2=float(self.q2[j]),
            ks_statistic=float(self.ks_statistic[j]),
        )


def fit_beta_rows(values, support: tuple[float, float] | None = None) -> BetaFits:
    """Moment-matching beta fit of every row of an n-by-t matrix.

    The support defaults to each row's range; pass ``support`` explicitly
    when the true domain is known (moment estimates on a truncated range
    are biased for shapes with thin tails).  The KS statistic is
    D = max(D+, D-) over the sorted sample (Massey 1951), the value
    ``scipy.stats.kstest`` returns, without its p-value; one ``betainc``
    call covers every fitted row.  Each row's arithmetic is that of a
    single row, so ``fit_beta`` is the batch of one.
    """
    from scipy.special import betainc

    values = np.asarray(values, dtype=float)
    n, t = values.shape
    failure = np.zeros(n, dtype=np.int8)
    alpha, beta, ks = (np.full(n, np.nan) for _ in range(3))

    def fail(rows, mask, code):
        """Record ``code`` for the masked ``rows`` that have no failure yet."""
        rows = rows[mask]
        failure[rows[failure[rows] == 0]] = code

    if t == 0:  # no samples, so fewer than 10 distinct ones
        failure[:] = 2
        return BetaFits(alpha, beta, alpha.copy(), alpha.copy(), ks, failure)
    every = np.arange(n)
    fail(every, values.std(axis=1) == 0.0, 1)
    xs = np.sort(values, axis=1)
    distinct = np.count_nonzero(xs[:, 1:] != xs[:, :-1], axis=1) + 1
    # np.unique, which the count follows, keeps one of the NaNs sorted last.
    distinct -= np.maximum(np.count_nonzero(np.isnan(xs), axis=1) - 1, 0)
    fail(every, distinct < 10, 2)
    if support is None:
        q1, q2 = values.min(axis=1), values.max(axis=1)
    else:
        q1, q2 = (np.full(n, float(bound)) for bound in support)
    fail(every, ~(q1 < q2), 3)

    rows = np.flatnonzero(failure == 0)
    low, width = q1[rows, None], (q2 - q1)[rows, None]
    z = (values[rows] - low) / width
    mean, var = z.mean(axis=1), z.var(axis=1)
    fail(rows, ~((0.0 < mean) & (mean < 1.0)) | (var == 0.0), 4)
    with np.errstate(all="ignore"):  # on rows that failed already
        factor = mean * (1.0 - mean) / var - 1.0
        a, b = mean * factor, (1.0 - mean) * factor
        shapes_ok = (a > 0) & (b > 0) & np.isfinite(a + b)
    fail(rows, factor <= 0.0, 5)
    fail(rows, ~shapes_ok, 6)

    fitted = failure[rows] == 0
    rows, a, b = rows[fitted], a[fitted, None], b[fitted, None]
    cdf = betainc(a, b, (xs[rows] - low[fitted]) / width[fitted])
    d_plus = (np.arange(1.0, t + 1) / t - cdf).max(axis=1)
    d_minus = (cdf - np.arange(0.0, t) / t).max(axis=1)
    alpha[rows], beta[rows] = a[:, 0], b[:, 0]
    ks[rows] = np.maximum(d_plus, d_minus)
    q1[failure != 0] = q2[failure != 0] = np.nan
    return BetaFits(alpha, beta, q1, q2, ks, failure)


def fit_beta(samples, support: tuple[float, float] | None = None) -> BetaFit:
    """Moment-matching beta fit of one sample: ``fit_beta_rows`` on a
    matrix of one row."""
    x = np.asarray(samples, dtype=float).reshape(1, -1)
    return fit_beta_rows(x, support).fit(0)


def beta_expected_distance(fit: BetaFit) -> float:
    return (fit.beta * fit.q1 + fit.alpha * fit.q2) / (fit.alpha + fit.beta)


def beta_to_gaussian(alpha: float, beta: float) -> tuple[float, float]:
    """Gaussian (mean, sd) matching a Beta(alpha, beta); good for large shapes."""
    if alpha <= 0 or beta <= 0:
        raise ValidationError("shape parameters must be positive")
    if min(alpha, beta) < 10:
        warnings.warn(
            "beta-to-Gaussian conversion is unreliable for shape parameters below 10",
            stacklevel=2,
        )
    total = alpha + beta
    rho = alpha / total
    sigma = math.sqrt(alpha * beta / (total**2 * (total + 1.0)))
    return rho, sigma


def _beta_pdf():
    """The beta density ufunc that ``scipy.stats.beta.pdf`` evaluates.

    Its name is private to scipy, so ``scipy.stats`` (about 0.7 s and 20 MB
    to import) is the fallback if it goes away.
    """
    try:
        from scipy.special._ufuncs import _beta_pdf
    except ImportError:
        from scipy.stats import beta

        return beta.pdf
    return _beta_pdf


def beta_densities(fits: BetaFits) -> tuple[np.ndarray, np.ndarray]:
    """(x, pdf) arrays of shape (n, DENSITY_POINTS): each fitted row's density
    at DENSITY_POINTS evenly spaced points of its support, in one call of the
    density ufunc.  Rows in ``fits.skip`` are NaN."""
    rows = np.flatnonzero(~fits.skip)
    q1, q2 = fits.q1[rows], fits.q2[rows]
    x = np.full((fits.failure.size, DENSITY_POINTS), np.nan)
    y = x.copy()
    x[rows] = np.linspace(q1, q2, DENSITY_POINTS, axis=1)
    width = (q2 - q1)[:, None]
    z = (x[rows] - q1[:, None]) / width
    with np.errstate(over="ignore"):
        y[rows] = _beta_pdf()(z, fits.alpha[rows, None], fits.beta[rows, None]) / width
    return x, y


@dataclass(frozen=True)
class ReportRow:
    dmu: str
    erii0: float
    expected_distance: float
    lb: float
    ub: float
    sd: float
    expected_efficiency: float
    category: str


@dataclass(frozen=True)
class RobustnessReport:
    rows: tuple[ReportRow, ...]
    tau: float
    bucket_width: float
    scheme: BucketScheme
    # Row j: the robustness index of DMU j over the scheme's buckets.
    erii: np.ndarray = field(repr=False, compare=False)

    def categories(self) -> dict[str, int]:
        out = {c: 0 for c in CATEGORIES}
        for row in self.rows:
            out[row.category] += 1
        return out


def robustness_report(
    dm: DistanceMatrix, tau: float = 0.95, bucket_width: float = DEFAULT_WIDTH
) -> RobustnessReport:
    """Per-DMU robustness summary of a sampled distance matrix.

    Buckets share one global scheme over the whole matrix, the expected
    distance is the bucket approximation, and the expected efficiency uses
    that value together with the plain sample standard deviation.  Every
    statistic is taken over the whole matrix at once; only the category and
    the expected efficiency are made row by row.
    """
    check_report_settings(dm.t, tau, bucket_width)
    values = np.ascontiguousarray(dm.values)  # row reductions as on each row alone
    scheme = BucketScheme.for_values(values, width=bucket_width)
    indices = erii(values, scheme)
    columns = (indices[:, 0], expected_distance(indices, scheme),
               *confidence_interval(values, tau), values.std(axis=1))
    rows = tuple(
        ReportRow(dmu, erii0, e_d, lb, ub, sd, expected_efficiency(e_d, sd),
                  classify(erii0, e_d, (lb, ub), tau))
        for dmu, erii0, e_d, lb, ub, sd in zip(dm.dmu_ids, *(c.tolist() for c in columns))
    )
    return RobustnessReport(rows, tau, bucket_width, scheme, erii=indices)


def save_report(report: RobustnessReport, path, source_config: dict | None = None) -> None:
    """CSV report, one row per DMU, with a config comment header."""
    header = {"tau": report.tau, "bucket_width": report.bucket_width}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_header(fh, "robustness-report", header)
        if source_config is not None:
            fh.write(f"# source: {json.dumps(source_config, sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for row in report.rows:
            writer.writerow(
                [
                    row.dmu,
                    f"{row.erii0:.6f}",
                    f"{row.expected_distance:.6f}",
                    f"{row.lb:.6f}",
                    f"{row.ub:.6f}",
                    f"{row.sd:.6f}",
                    f"{row.expected_efficiency:.6f}",
                    row.category,
                ]
            )
