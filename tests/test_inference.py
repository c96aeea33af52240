import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from hrdea.errors import DegenerateFitError, ValidationError
from hrdea.inference import (
    BetaFit,
    BetaFits,
    BucketScheme,
    beta_densities,
    beta_expected_distance,
    beta_to_gaussian,
    ci_indices,
    classify,
    confidence_interval,
    efficiency_score,
    erii,
    erii_counts,
    expected_distance,
    expected_efficiency,
    fit_beta,
    fit_beta_rows,
    gaussian_outperformance,
    outperformance_probability,
    robustness_report,
    save_report,
    scenario_p_value,
)
from hrdea.pipeline import DistanceMatrix


def matrix(values, ids=None):
    values = np.asarray(values, dtype=float)
    ids = ids or tuple(f"d{i}" for i in range(values.shape[0]))
    return DistanceMatrix(
        dmu_ids=ids,
        values=values,
        baseline=values[:, 0],
        seed=0,
        config={"seed": 0},
    )


def bits(value) -> bytes:
    return np.float64(value).tobytes()


# -- buckets and the robustness index -----------------------------------


def test_erii_all_zero():
    scheme = BucketScheme(width=0.01, count=3)
    probs = erii(np.zeros(50), scheme)
    assert probs[0] == 1.0
    assert probs[1:].sum() == 0.0


def test_erii_quarters():
    scheme = BucketScheme(width=0.01, count=3)
    probs = erii([0.0, 0.005, 0.015, 0.025], scheme)
    np.testing.assert_array_equal(probs, [0.25, 0.25, 0.25, 0.25])


def test_erii_sums_to_one_exactly():
    rng = np.random.default_rng(0)
    for _ in range(50):
        samples = rng.uniform(0, 0.3, size=int(rng.integers(3, 400)))
        samples[rng.uniform(size=samples.size) < 0.3] = 0.0
        scheme = BucketScheme.for_values(samples if samples.max() > 0 else [0.01])
        counts = erii_counts(samples, scheme)
        assert counts.sum() == samples.size
        assert sum(Fraction(int(c), samples.size) for c in counts) == 1


def test_bucket_edges_are_half_open():
    scheme = BucketScheme(width=0.01, count=3)
    assert erii_counts([0.01], scheme)[1] == 1
    assert erii_counts([0.010000001], scheme)[2] == 1
    assert erii_counts([1e-10], scheme)[0] == 1  # zero tolerance


def test_bucket_count_guard():
    with pytest.raises(ValidationError):
        BucketScheme.for_values([1e12], width=0.01)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_bucket_scheme_rejects_non_finite_values(value):
    with pytest.raises(ValidationError, match="non-finite"):
        BucketScheme.for_values([0.1, value, 0.2])


def test_erii_empty_samples_rejected():
    with pytest.raises(ValidationError):
        erii_counts([], BucketScheme(width=0.01, count=2))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_helpers_of_one_sample_reject_non_finite_values(value):
    # A DistanceMatrix cannot hold such a value, so no helper takes one.
    scheme = BucketScheme(width=0.1, count=10)
    sample = [value, 0.05, 0.5]
    for call in (lambda: erii_counts(sample, scheme), lambda: erii(sample, scheme),
                 lambda: confidence_interval(sample, 0.5),
                 lambda: confidence_interval(np.array([sample, [0.1, 0.2, 0.3]]), 0.5),
                 lambda: expected_distance([value, *np.full(10, 0.1)], scheme)):
        with pytest.raises(ValidationError, match="finite"):
            call()


def test_expected_distance_examples():
    scheme = BucketScheme(width=0.01, count=3)
    assert expected_distance([1.0, 0, 0, 0], scheme) == 0.0
    assert expected_distance([0.25, 0.25, 0.25, 0.25], scheme) == pytest.approx(
        0.01125, abs=1e-12
    )
    one = BucketScheme(width=0.01, count=1)
    assert expected_distance([0.0, 1.0], one) == pytest.approx(0.005, abs=1e-15)


def test_expected_distance_close_to_sample_mean():
    rng = np.random.default_rng(4)
    for _ in range(100):
        samples = rng.uniform(0, 0.5, size=200)
        width = float(rng.uniform(0.002, 0.05))
        scheme = BucketScheme.for_values(samples, width=width)
        approx = expected_distance(erii(samples, scheme), scheme)
        assert abs(approx - samples.mean()) <= width / 2


# -- efficiency ----------------------------------------------------------


def test_efficiency_score_proportional():
    assert efficiency_score(0.0) == 1.0
    assert efficiency_score(0.2550) == pytest.approx(0.59363, abs=1e-5)
    assert efficiency_score(0.1) > efficiency_score(0.2)


def test_efficiency_score_general_mode():
    x = np.array([2.0, 4.0])
    y = np.array([3.0])
    value = efficiency_score(0.0, mode="general", observation=(x, y), direction=(x, y))
    assert value == pytest.approx(1.0, abs=1e-12)
    moved = efficiency_score(0.2, mode="general", observation=(x, y), direction=(x, y))
    assert moved == pytest.approx((0.8) / 1.2, abs=1e-12)


def test_expected_efficiency_paper_values():
    assert expected_efficiency(0.0, 0.0) == 1.0
    assert expected_efficiency(0.2550, 0.0066) == pytest.approx(0.5937, abs=5e-4)
    assert expected_efficiency(0.2916, 0.0086) == pytest.approx(0.5485, abs=5e-4)


def test_expected_efficiency_matches_score_at_zero_variance():
    for rho in (0.0, 0.1, 0.37, 0.9):
        assert expected_efficiency(rho, 0.0) == efficiency_score(rho)


# -- confidence intervals and categories ---------------------------------


def test_ci_indices_examples():
    assert ci_indices(5000, 0.95) == (125, 4875)
    assert ci_indices(100, 0.9) == (5, 95)


def test_confidence_interval_order_statistics():
    samples = np.random.default_rng(1).permutation(np.arange(1.0, 5001.0))
    lb, ub = confidence_interval(samples, 0.95)
    assert (lb, ub) == (125.0, 4875.0)


def test_confidence_interval_constant_samples():
    lb, ub = confidence_interval(np.full(100, 0.3), 0.9)
    assert (lb, ub) == (0.3, 0.3)


def test_confidence_interval_needs_enough_samples():
    with pytest.raises(ValidationError) as err:
        confidence_interval(np.arange(10.0), 0.95)
    assert "40" in str(err.value)


def test_classify_rules_in_order():
    assert classify(1.0, 0.0, (0.0, 0.0), 0.95) == "C1"
    assert classify(0.97, 0.0013, (0.0, 0.0150), 0.95) == "C2"
    assert classify(0.57, 0.0124, (0.0, 0.0463), 0.95) == "C3"
    assert classify(0.0, 0.2550, (0.2425, 0.2675), 0.95) == "C4"


# -- outperformance -------------------------------------------------------


def test_outperformance_symmetry():
    assert gaussian_outperformance(0.3, 0.05, 0.3, 0.05) == 0.5
    assert gaussian_outperformance(0.3, 0.0, 0.3, 0.0) == 0.5


def test_outperformance_paper_pair():
    p = gaussian_outperformance(0.2550, 0.0066, 0.2916, 0.0086)
    assert p == pytest.approx(0.9996, abs=5e-4)


def test_outperformance_far_tail():
    assert gaussian_outperformance(0.5, 0.01, 0.1, 0.01) < 1e-6


def test_outperformance_equals_norm_cdf_bit_for_bit():
    # gaussian_outperformance calls scipy.special.ndtr, which is what
    # stats.norm.cdf evaluates at loc 0 and scale 1.
    cases = [(0.2550, 0.0066, 0.2916, 0.0086)]
    for rho_j in np.linspace(0.0, 1.0, 11):
        for rho_k in (0.0, 0.05, 0.3, 0.9):
            for sigma_j, sigma_k in ((0.0, 0.01), (0.02, 0.03), (0.3, 0.0), (1e-9, 2e-9)):
                cases.append((rho_j, sigma_j, rho_k, sigma_k))
    for rho_j, sigma_j, rho_k, sigma_k in cases:
        arg = -(rho_j - rho_k) / math.sqrt(sigma_j**2 + sigma_k**2)
        expected = float(stats.norm.cdf(arg))
        assert gaussian_outperformance(rho_j, sigma_j, rho_k, sigma_k) == expected


def test_outperformance_empirical_matches_gaussian():
    rng = np.random.default_rng(12)
    a = rng.normal(0.30, 0.02, size=50000).clip(0)
    b = rng.normal(0.32, 0.03, size=50000).clip(0)
    emp = outperformance_probability(a, b, method="empirical")
    gau = outperformance_probability(a, b, method="gaussian")
    assert abs(emp - gau) < 0.01


# -- p-values -------------------------------------------------------------


def test_p_value_identity_is_one():
    e = matrix(np.random.default_rng(3).uniform(0, 1, size=(4, 50)))
    assert scenario_p_value(e, e) == 1.0


def test_p_value_one_sided_is_zero():
    base = np.full((2, 10), 1.0)
    shifted = np.full((2, 10), 2.0)
    assert scenario_p_value(shifted, base) == 0.0


def test_p_value_counts():
    # column means of a: 1.1, 0.9, 1.2, 1.3 against all-ones b
    a = np.array([[1.1, 0.9, 1.2, 1.3]])
    b = np.ones((1, 4))
    assert scenario_p_value(a, b) == pytest.approx(0.5)


def test_p_value_symmetry_and_orders():
    rng = np.random.default_rng(9)
    a = rng.uniform(0, 1, size=(5, 40))
    b = rng.uniform(0, 1, size=(5, 40))
    for order in (1, 2, np.inf):
        assert scenario_p_value(a, b, order) == scenario_p_value(b, a, order)


def test_p_value_zero_columns():
    a = np.zeros((2, 4))
    b = np.zeros((2, 4))
    assert scenario_p_value(a, b) == 1.0
    a2 = a.copy()
    a2[:, 0] = 1.0  # zero denominator, positive numerator: counts only above
    p = scenario_p_value(a2, b)
    assert p == pytest.approx(min(1.0, 2 * 3 / 4))


@pytest.mark.parametrize("shape", [(3, 0), (0, 4), (4,), (2, 3, 4)])
def test_p_value_needs_n_by_t_matrices(shape):
    with pytest.raises(ValidationError, match="n x t"):
        scenario_p_value(np.zeros(shape), np.zeros(shape))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("side", [0, 1])
def test_p_value_rejects_non_finite_matrices(value, side):
    pair = [np.ones((3, 5)), np.ones((3, 5))]
    pair[side][1, 2] = value
    with pytest.raises(ValidationError, match="finite"):
        scenario_p_value(*pair)
    with pytest.raises(ValidationError, match="finite"):
        scenario_p_value(np.full((2, 4), np.nan), np.ones((2, 4)))


@pytest.mark.parametrize("side", [0, 1])
def test_p_value_rejects_negative_distances(side):
    pair = [np.ones((2, 3)), np.ones((2, 3))]
    pair[side] = -pair[side]
    with pytest.raises(ValidationError, match=">= 0"):
        scenario_p_value(*pair)


def scenario_pairs():
    rng = np.random.default_rng(28)
    a = rng.uniform(0.0, 0.4, size=(7, 60))
    yield a, rng.uniform(0.0, 0.4, size=(7, 60))
    # The first 16 columns hold the same values in another row order, so
    # their Hoelder means agree up to the rounding of the sum: the p-value
    # moves if a column's mean is summed in another order.
    b = a / 1.5
    b[:, :16] = a[rng.permutation(7), :16]
    yield a, b
    b, c = a.copy(), a.copy()
    b[:, ::3] = 0.0
    c[:, ::4] = 0.0
    yield b, c


@pytest.mark.parametrize(
    "pair,expected",
    zip(range(3), [(5 / 6, 13 / 15, 14 / 15), (0.4, 8 / 15, 8 / 15), (1.0, 1.0, 1.0)]),
)
def test_p_value_keeps_its_values_at_orders_1_2_and_inf(pair, expected):
    a, b = list(scenario_pairs())[pair]
    for order, p in zip((1, 2, np.inf), expected):
        assert scenario_p_value(a, b, order) == p
        assert scenario_p_value(b, a, order) == p
        assert type(scenario_p_value(a, b, order)) is float


# -- the report against the helpers of one row -----------------------------


def report_rows(kinds, t, seed):
    """One row of t distances per entry of ``kinds``."""
    rng = np.random.default_rng(seed)
    rows = []
    for kind in kinds:
        if kind == "zero":
            rows.append(np.zeros(t))
        elif kind == "ties":  # a few values, each drawn many times, zero among them
            rows.append(rng.choice([0.0, 0.02, 0.05, 0.05000000000000001, 0.3], size=t))
        elif kind == "sparse":  # mostly efficient
            row = rng.uniform(0.0, 0.2, size=t)
            row[rng.uniform(size=t) < 0.9] = 0.0
            rows.append(row)
        else:
            rows.append(rng.uniform(0.1, 0.6, size=t))
    return np.vstack(rows)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    kinds=st.lists(st.sampled_from(["zero", "ties", "sparse", "wide"]), min_size=1, max_size=6),
    t=st.integers(20, 130),
    tau=st.sampled_from([0.5, 0.8, 0.9, 0.95]),
    width=st.sampled_from([0.003, 0.01, 0.07]),
    seed=st.integers(0, 2**32 - 1),
)
def test_report_rows_equal_the_helpers_of_one_row_bit_for_bit(kinds, t, tau, width, seed):
    assume((1.0 - tau) * t / 2.0 >= 1.0 - 1e-9)
    values = report_rows(kinds, t, seed)
    report = robustness_report(matrix(values), tau=tau, bucket_width=width)
    scheme = BucketScheme.for_values(values, width=width)
    assert report.scheme == scheme
    for j, row in enumerate(report.rows):
        samples = values[j]
        probs = erii(samples, scheme)
        e_d = expected_distance(probs, scheme)
        lb, ub = confidence_interval(samples, tau)
        sd = float(samples.std())
        assert report.erii[j].tobytes() == probs.tobytes()
        assert [bits(v) for v in (row.erii0, row.expected_distance, row.lb, row.ub, row.sd)] == [
            bits(v) for v in (probs[0], e_d, lb, ub, sd)]
        assert bits(row.expected_efficiency) == bits(expected_efficiency(e_d, sd))
        assert row.category == classify(float(probs[0]), e_d, (lb, ub), tau)
        for v in (row.erii0, row.expected_distance, row.lb, row.ub, row.sd):
            assert type(v) is float


def test_report_rows_cover_zero_rows_ties_and_an_odd_t():
    # t = 47 is no multiple of 2 / (1 - 0.9) = 20.
    values = report_rows(["zero", "ties", "sparse", "wide"], 47, 3)
    report = robustness_report(matrix(values), tau=0.9)
    assert [row.category for row in report.rows] == ["C1", "C3", "C2", "C4"]
    assert ci_indices(47, 0.9) == (3, 44)
    assert (report.rows[1].lb, report.rows[1].ub) == tuple(np.sort(values[1])[[2, 43]])


def test_erii_counts_count_each_row_of_a_matrix_on_its_own():
    values = report_rows(["zero", "ties", "sparse", "wide"], 50, 8)
    scheme = BucketScheme.for_values(values)
    counts = erii_counts(values, scheme)
    assert counts.shape == (4, scheme.count + 1)
    for j in range(4):
        assert counts[j].tolist() == erii_counts(values[j], scheme).tolist()
    assert erii(values, scheme).tobytes() == np.vstack(
        [erii(row, scheme) for row in values]).tobytes()
    with pytest.raises(ValidationError, match="vector or a matrix"):
        erii_counts(values[None], scheme)


def test_confidence_interval_of_a_matrix_is_one_per_row():
    values = np.random.default_rng(2).uniform(size=(5, 40))
    lb, ub = confidence_interval(values, 0.9)
    assert [(float(a), float(b)) for a, b in zip(lb, ub)] == [
        confidence_interval(row, 0.9) for row in values]


# -- beta fits ------------------------------------------------------------


def test_fit_beta_recovers_known_support():
    rng = np.random.default_rng(101)
    samples = rng.beta(5.0, 10.0, size=10000)
    fit = fit_beta(samples, support=(0.0, 1.0))
    assert abs(fit.alpha - 5.0) / 5.0 < 0.10
    assert abs(fit.beta - 10.0) / 10.0 < 0.10


def test_fit_beta_default_support_is_sample_range():
    rng = np.random.default_rng(5)
    samples = rng.beta(4.0, 4.0, size=500)
    fit = fit_beta(samples)
    assert fit.q1 == samples.min() and fit.q2 == samples.max()
    assert fit.alpha > 0 and fit.beta > 0


def beta_samples():
    """Seeded samples of several shapes and sizes, with ties and t = 10."""
    rng = np.random.default_rng(77)
    for t in (10, 11, 40, 100, 1000):
        for a, b in ((0.5, 2.0), (2.0, 0.5), (1.0, 1.0), (3.5, 7.2), (40.0, 90.0)):
            yield rng.beta(a, b, size=t)
            yield 0.3 + 0.2 * rng.beta(a, b, size=t)
            yield np.round(rng.beta(a, b, size=t), 2)  # ties


def test_fit_beta_ks_statistic_equals_kstest_bit_for_bit():
    fitted = 0
    for samples in beta_samples():
        for support in (None, (0.0, 1.0)):
            try:
                fit = fit_beta(samples, support=support)
            except (DegenerateFitError, ValidationError):
                continue
            z = (samples - fit.q1) / (fit.q2 - fit.q1)
            expected = stats.kstest(z, stats.beta(fit.alpha, fit.beta).cdf).statistic
            assert fit.ks_statistic == float(expected)
            fitted += 1
    assert fitted > 100


@pytest.mark.parametrize(
    "alpha,beta", [(0.5, 2.0), (2.0, 0.5), (1.0, 1.0), (3.5, 7.2), (1095.5, 3201.2)]
)
def test_beta_density_points_equal_the_frozen_pdf(alpha, beta):
    # The shapes cover an infinite density at either end point and, at the
    # paper's (1095.5, 3201.2), densities that underflow to 0.
    q1, q2 = 0.12, 0.47
    fits = BetaFits(*(np.array([v]) for v in (alpha, beta, q1, q2, 0.0)),
                    failure=np.zeros(1, dtype=np.int8))
    xs, ys = beta_densities(fits)
    z = (xs[0] - q1) / (q2 - q1)
    expected = stats.beta(alpha, beta).pdf(z) / (q2 - q1)
    assert ys[0].tobytes() == expected.tobytes()


def test_fit_beta_rows_equal_fit_beta_row_by_row():
    rng = np.random.default_rng(18)
    t = 60
    values = rng.beta(2.0, 5.0, size=(9, t))
    values[0] = 0.37  # constant
    values[1] = 0.0  # all zero
    values[2] = rng.choice(np.arange(9) / 10.0, size=t)  # 9 distinct values
    # Mass at both ends of the range: the moment factor rounds to <= 0.
    values[3] = np.concatenate([np.zeros(25), np.ones(24), np.arange(1, 12) * 1e-300])
    values[4] = np.round(values[4], 2)  # ties
    values[5] = rng.beta(0.4, 3.0, size=t)  # alpha < 1: infinite density at q1
    values[6] = rng.beta(3.0, 0.4, size=t)  # beta < 1: infinite density at q2
    values[7] = rng.uniform(-2.0, 3.0, size=t)  # too wide for the support (0, 1)
    reasons = set()
    for support in (None, (0.0, 1.0)):
        fits = fit_beta_rows(values, support)
        xs, ys = beta_densities(fits)
        raised = []
        for j, row in enumerate(values):
            try:
                fit = fit_beta(row, support)
            except (DegenerateFitError, ValidationError) as exc:
                raised.append(j)
                reasons.add(str(exc))
                with pytest.raises(type(exc)) as again:
                    fits.fit(j)
                assert str(again.value) == str(exc)
                assert np.isnan(xs[j]).all() and np.isnan(ys[j]).all()
                continue
            for name in ("alpha", "beta", "q1", "q2", "ks_statistic"):
                assert bits(getattr(fits, name)[j]) == bits(getattr(fit, name))
            assert fits.fit(j) == fit
            x_one, y_one = beta_densities(fit_beta_rows(row[None], support))
            assert x_one[0].tobytes() == xs[j].tobytes()
            assert y_one[0].tobytes() == ys[j].tobytes()
        assert np.flatnonzero(fits.skip).tolist() == raised
        if support is None:
            assert raised == [0, 1, 2, 3]
            assert np.isinf(ys[5, 0]) and np.isinf(ys[6, -1])
    assert reasons == {
        "zero-variance samples; report the constant instead",
        "need at least 10 distinct samples for a beta fit",
        "sample variance too large for a beta on this support",
    }
    for short in (0, 5):  # too few samples for any fit
        fits = fit_beta_rows(np.full((3, short), 0.5), None)
        assert fits.skip.all()
        for j in range(3):
            with pytest.raises((DegenerateFitError, ValidationError)):
                fit_beta(np.full(short, 0.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_beta_refuses_non_finite_samples(bad):
    samples = np.r_[bad, np.arange(20.0)]
    with pytest.raises(ValidationError, match="values must be finite"):
        fit_beta(samples)
    with pytest.raises(ValidationError, match="values must be finite"):
        fit_beta_rows(np.vstack([np.arange(20.0, 41.0), samples]))


def test_beta_expected_distance_formulas():
    from hrdea.inference import BetaFit

    fit = BetaFit(alpha=2.0, beta=2.0, q1=0.0, q2=1.0, ks_statistic=0.0)
    assert beta_expected_distance(fit) == pytest.approx(0.5)
    fit = BetaFit(alpha=3.0, beta=7.0, q1=0.0, q2=1.0, ks_statistic=0.0)
    assert beta_expected_distance(fit) == pytest.approx(0.3)
    fit = BetaFit(alpha=3.0, beta=7.0, q1=0.2, q2=0.6, ks_statistic=0.0)
    assert beta_expected_distance(fit) == pytest.approx((7 * 0.2 + 3 * 0.6) / 10)


def test_fit_beta_degenerate_inputs():
    with pytest.raises(DegenerateFitError):
        fit_beta(np.full(100, 0.25))
    with pytest.raises(ValidationError):
        fit_beta(np.array([0.1, 0.2, 0.3]))


def test_beta_to_gaussian_paper_values():
    rho, sigma = beta_to_gaussian(1095.5, 3201.2)
    assert rho == pytest.approx(0.2550, abs=5e-5)
    assert sigma == pytest.approx(0.0066, abs=2e-4)
    rho, _ = beta_to_gaussian(807.4, 1961.5)
    assert rho == pytest.approx(0.2916, abs=5e-5)
    rho, _ = beta_to_gaussian(12.0, 12.0)
    assert rho == 0.5


def test_beta_to_gaussian_warns_for_small_shapes():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        beta_to_gaussian(2.0, 50.0)
    assert any("unreliable" in str(w.message) for w in caught)


# -- the report -----------------------------------------------------------


def test_robustness_report_rows():
    rng = np.random.default_rng(30)
    values = np.vstack(
        [
            np.zeros(1000),  # perfectly efficient
            rng.uniform(0.2, 0.3, size=1000),  # clearly inefficient
        ]
    )
    dm = matrix(values, ids=("eff", "ineff"))
    report = robustness_report(dm, tau=0.95)
    eff, ineff = report.rows
    assert eff.category == "C1" and eff.erii0 == 1.0 and eff.expected_distance == 0.0
    assert ineff.category == "C4" and ineff.lb > 0
    assert 0 < ineff.expected_efficiency < 1
    assert report.categories()["C1"] == 1


def test_report_exactly_one_category(tmp_path):
    rng = np.random.default_rng(31)
    rows = []
    for _ in range(30):
        kind = rng.integers(4)
        if kind == 0:
            rows.append(np.zeros(200))
        elif kind == 1:
            r = rng.uniform(0, 0.2, 200)
            r[: rng.integers(1, 199)] = 0.0
            rows.append(r)
        else:
            rows.append(rng.uniform(0, 0.4, 200))
    dm = matrix(np.vstack(rows))
    report = robustness_report(dm, tau=0.9)
    assert len(report.rows) == 30  # classify never failed -> one category each
    out = tmp_path / "report.csv"
    save_report(report, out, source_config=dm.config)
    text = out.read_text().splitlines()
    assert text[2].startswith("# source:")
    assert text[3] == "dmu,erii0,expected_distance,lb,ub,sd,expected_efficiency,category"
    assert text[4].split(",")[0] == "d0"
