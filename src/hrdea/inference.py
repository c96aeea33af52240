"""Statistical post-processing of sampled distance matrices.

Implements the robustness index over distance buckets, expected distance
and efficiency, order-statistic confidence intervals, the four robustness
categories, outperformance probabilities, the scenario comparison test,
and beta/Gaussian summaries of distance distributions.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import DegenerateFitError, HrdeaError, ValidationError
from .pipeline import DistanceMatrix

ZERO_TOL = 1e-9
DEFAULT_WIDTH = 0.01
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


@dataclass(frozen=True)
class BucketScheme:
    """Zero bucket {0} plus G equal-width half-open buckets covering the range."""

    width: float
    count: int
    zero_tol: float = ZERO_TOL

    def __post_init__(self):
        if self.width <= 0:
            raise ValidationError("bucket width must be positive")
        if self.count < 1:
            raise ValidationError("need at least one bucket")

    MAX_BUCKETS = 5_000_000

    @classmethod
    def for_values(cls, values, width: float = DEFAULT_WIDTH) -> "BucketScheme":
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            raise ValidationError("cannot build buckets from no samples")
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

    def index(self, d: float) -> int:
        if d < -self.zero_tol:
            raise ValidationError("distances must be >= 0")
        if d <= self.zero_tol:
            return 0
        g = int(math.ceil(d / self.width - 1e-12))
        return min(max(g, 1), self.count)


def erii_counts(samples, scheme: BucketScheme) -> np.ndarray:
    """Integer bucket occupancies; exact building block for the index."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ValidationError("no samples")
    if np.any(samples < -scheme.zero_tol):
        raise ValidationError("distances must be >= 0")
    buckets = np.ceil(samples / scheme.width - 1e-12).astype(np.int64)
    np.clip(buckets, 1, scheme.count, out=buckets)
    buckets[samples <= scheme.zero_tol] = 0
    return np.bincount(buckets, minlength=scheme.count + 1)


def erii(samples, scheme: BucketScheme) -> np.ndarray:
    """Fraction of draws falling in each bucket (entry 0 = exactly efficient)."""
    counts = erii_counts(samples, scheme)
    return counts / counts.sum()


def expected_distance(erii_probs, scheme: BucketScheme) -> float:
    """Riemann-Darboux style expectation over bucket midpoints."""
    probs = np.asarray(erii_probs, dtype=float)
    if probs.size != scheme.count + 1:
        raise ValidationError("index vector does not match the bucket scheme")
    return float(probs @ scheme.midpoints())


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


def confidence_interval(samples, tau: float) -> tuple[float, float]:
    """Order-statistic interval [D[(1-tau)t/2], D[(1+tau)t/2]] (1-based)."""
    if not 0 < tau < 1:
        raise ValidationError("tau must lie strictly between 0 and 1")
    ordered = np.sort(np.asarray(samples, dtype=float).ravel())
    t = ordered.size
    if (1.0 - tau) * t / 2.0 < 1.0 - 1e-9:
        minimum = math.ceil(2.0 / (1.0 - tau))
        raise ValidationError(f"need at least t = {minimum} samples for tau = {tau}")
    lo_idx, hi_idx = ci_indices(t, tau)
    return float(ordered[lo_idx - 1]), float(ordered[hi_idx - 1])


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
    var = sigma_j**2 + sigma_k**2
    if var == 0.0:
        if rho_j == rho_k:
            return 0.5
        return 1.0 if rho_j < rho_k else 0.0
    return float(stats.norm.cdf(-(rho_j - rho_k) / math.sqrt(var)))


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


def _hoelder(values: np.ndarray, order) -> float:
    if order in (1, "1"):
        return float(values.mean())
    if order in (2, "2"):
        return float(np.sqrt(np.mean(values**2)))
    if order in (np.inf, math.inf, "inf", "max"):
        return float(values.max())
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
    t = a.shape[1]
    below = above = 0
    for ell in range(t):
        num = _hoelder(a[:, ell], hoelder_order)
        den = _hoelder(b[:, ell], hoelder_order)
        if den == 0.0 and num == 0.0:
            below += 1
            above += 1
        elif den == 0.0:
            above += 1
        else:
            ratio = num / den
            below += ratio <= 1.0
            above += ratio >= 1.0
    return min(1.0, 2.0 * min(below, above) / t)


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


def fit_beta(samples, support: tuple[float, float] | None = None) -> BetaFit:
    """Moment-matching beta fit.

    The support defaults to the sample range; pass ``support`` explicitly
    when the true domain is known (moment estimates on a truncated range
    are biased for shapes with thin tails).
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size and x.std() == 0.0:
        raise DegenerateFitError("zero-variance samples; report the constant instead")
    if np.unique(x).size < 10:
        raise ValidationError("need at least 10 distinct samples for a beta fit")
    q1, q2 = (float(x.min()), float(x.max())) if support is None else map(float, support)
    if not q1 < q2:
        raise ValidationError("support must have positive length")
    z = (x - q1) / (q2 - q1)
    mean = float(z.mean())
    var = float(z.var())
    if not 0.0 < mean < 1.0 or var == 0.0:
        raise DegenerateFitError("samples degenerate on the chosen support")
    factor = mean * (1.0 - mean) / var - 1.0
    if factor <= 0.0:
        raise DegenerateFitError("sample variance too large for a beta on this support")
    alpha = mean * factor
    beta = (1.0 - mean) * factor
    ks = float(stats.kstest(z, stats.beta(alpha, beta).cdf).statistic)
    return BetaFit(alpha=alpha, beta=beta, q1=q1, q2=q2, ks_statistic=ks)


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


def beta_density_points(fit: BetaFit, num: int = 200) -> np.ndarray:
    """(num, 2) array of (x, pdf) points of the fitted density."""
    x = np.linspace(fit.q1, fit.q2, num)
    z = (x - fit.q1) / (fit.q2 - fit.q1)
    y = stats.beta(fit.alpha, fit.beta).pdf(z) / (fit.q2 - fit.q1)
    return np.column_stack([x, y])


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
    that value together with the plain sample standard deviation.
    """
    scheme = BucketScheme.for_values(dm.values, width=bucket_width)
    rows = []
    for j, dmu in enumerate(dm.dmu_ids):
        samples = dm.values[j]
        counts = erii_counts(samples, scheme)
        probs = counts / counts.sum()
        e_d = expected_distance(probs, scheme)
        lb, ub = confidence_interval(samples, tau)
        sd = float(samples.std())
        e_theta = expected_efficiency(e_d, sd)
        category = classify(float(probs[0]), e_d, (lb, ub), tau)
        rows.append(
            ReportRow(
                dmu=dmu,
                erii0=float(probs[0]),
                expected_distance=e_d,
                lb=lb,
                ub=ub,
                sd=sd,
                expected_efficiency=e_theta,
                category=category,
            )
        )
    return RobustnessReport(
        rows=tuple(rows), tau=tau, bucket_width=bucket_width, scheme=scheme
    )


def save_report(report: RobustnessReport, path, source_config: dict | None = None) -> None:
    """CSV report, one row per DMU, with a config comment header."""
    header = {"tau": report.tau, "bucket_width": report.bucket_width}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# hrdea robustness-report v1\n")
        fh.write(f"# config: {json.dumps(header, sort_keys=True)}\n")
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
