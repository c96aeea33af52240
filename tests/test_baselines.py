import warnings

import numpy as np
import pytest

from hrdea.baselines import (
    generate_scenario,
    impute_hotdeck,
    impute_mean,
    impute_regression,
    introduce_gaps,
    magnitude,
    sets_from_gaps,
)
from hrdea.dataset import from_arrays
from hrdea.errors import ValidationError
from hrdea.geometry import contains
from hrdea.sampler import RngStream


def masked_dataset(values, mask):
    filled = np.array(values, dtype=float)
    filled[np.asarray(mask, dtype=bool)] = np.nan
    m = filled.shape[0] - 1
    return from_arrays(
        X=filled[:m], Y=filled[m:], dmu_ids=[f"d{j}" for j in range(filled.shape[1])]
    )


@pytest.mark.parametrize("scenario", ["I", "II", "III"])
def test_generate_scenario_laws(scenario):
    data = generate_scenario(scenario, 300, RngStream(7))
    assert (data.n, data.m, data.s, data.v) == (300, 2, 1, 0)
    assert np.all(data.X[0] >= 10.0) and np.all(data.X[0] <= 15.0)
    assert np.all(data.X[1] > 20.0)
    assert np.all(data.Y[0] > 0.0)


def test_generate_scenario_deterministic():
    a = generate_scenario("I", 50, RngStream(3))
    b = generate_scenario("I", 50, RngStream(3))
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.Y, b.Y)


def test_magnitude_rule():
    assert magnitude(0.5) == 1
    assert magnitude(5.0) == 1
    assert magnitude(12.3) == 2
    assert magnitude(999.0) == 3
    assert magnitude(1000.0) == 4


def test_introduce_gaps_counts_and_intervals():
    data = generate_scenario("I", 300, RngStream(1))
    masked, lower, upper = introduce_gaps(data, 80, RngStream(2))
    gaps = np.isnan(masked.stacked())
    assert gaps.sum() == 80
    hidden = data.stacked()
    assert np.all(lower <= hidden) and np.all(hidden <= upper)
    assert np.all(lower >= 0.0)
    # half-widths bounded by the magnitude rule
    for lo, hi, value in zip(lower[gaps], upper[gaps], hidden[gaps]):
        cap = 10.0 ** (magnitude(value) - 1)
        assert hi - value <= cap and value - lo <= cap


def test_introduce_gaps_zero_is_identity():
    data = generate_scenario("II", 40, RngStream(5))
    masked, lower, upper = introduce_gaps(data, 0, RngStream(6))
    assert not masked.has_missing
    np.testing.assert_array_equal(masked.X, data.X)
    np.testing.assert_array_equal(lower, data.stacked())
    np.testing.assert_array_equal(upper, data.stacked())


def test_introduce_gaps_too_many():
    data = generate_scenario("I", 10, RngStream(0))
    with pytest.raises(ValidationError):
        introduce_gaps(data, 31, RngStream(0))


def test_gap_bounds_degenerate_outside_gaps():
    data = generate_scenario("I", 20, RngStream(9))
    masked, lower, upper = introduce_gaps(data, 5, RngStream(10))
    stacked = data.stacked()
    gaps = np.isnan(masked.stacked())
    assert gaps.sum() == 5
    assert np.all(lower[gaps] <= upper[gaps])
    assert np.all(lower[~gaps] == stacked[~gaps])
    assert np.all(upper[~gaps] == stacked[~gaps])


def test_sets_from_gaps_shapes():
    data = generate_scenario("I", 20, RngStream(11))
    masked, lower, upper = introduce_gaps(data, 6, RngStream(12))
    gapped = np.isnan(masked.stacked()).any(axis=0)
    for shape in ("box", "ellipsoid", "rhombus"):
        sets = sets_from_gaps(lower, upper, shape)
        assert len(sets) == data.n
        for j, uset in enumerate(sets):
            assert contains(uset, uset.center)
            if not gapped[j]:
                assert uset.is_point


def test_impute_mean_column_average():
    data = masked_dataset([[1.0, 2.0, 8.0, 3.0], [5.0, 5.0, 5.0, 5.0]],
                          [[False, False, True, False], [False] * 4])
    fixed = impute_mean(data)
    assert not fixed.has_missing
    assert fixed.X[0, 2] == pytest.approx(2.0)


def test_impute_hotdeck_unique_nearest_donor():
    # recipient d3 misses y; nearest complete DMU in x-space is d0
    values = np.array(
        [
            [1.0, 5.0, 9.0, 1.1],
            [2.0, 6.0, 10.0, 2.1],
            [3.0, 7.0, 11.0, 0.0],
        ]
    )
    mask = np.zeros((3, 4), dtype=bool)
    mask[2, 3] = True
    data = masked_dataset(values, mask)
    fixed = impute_hotdeck(data, RngStream(0))
    assert fixed.Y[0, 3] == 3.0  # copied verbatim from d0


def test_impute_hotdeck_values_come_from_donors():
    data = generate_scenario("II", 60, RngStream(13))
    masked, _, _ = introduce_gaps(data, 15, RngStream(14))
    fixed = impute_hotdeck(masked, RngStream(15))
    gaps = np.isnan(masked.stacked())
    donors = masked.stacked()[:, ~gaps.any(axis=0)]
    for var, j in zip(*np.nonzero(gaps)):
        assert fixed.stacked()[var, j] in donors[var]


def test_impute_regression_recovers_linear_link():
    rng = np.random.default_rng(16)
    x1 = rng.uniform(1, 5, 30)
    x2 = rng.uniform(1, 5, 30)
    y = 2.0 * x1 + 3.0 * x2
    values = np.vstack([x1, x2, y])
    mask = np.zeros((3, 30), dtype=bool)
    mask[2, 4] = True
    data = masked_dataset(values, mask)
    fixed = impute_regression(data)
    assert fixed.Y[0, 4] == pytest.approx(2.0 * x1[4] + 3.0 * x2[4], abs=1e-8)


def test_impute_regression_singular_falls_back_to_mean():
    x1 = np.linspace(1, 5, 20)
    values = np.vstack([x1, 2 * x1, x1 + 1])  # collinear predictors
    mask = np.zeros((3, 20), dtype=bool)
    mask[2, 3] = True
    data = masked_dataset(values, mask)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fixed = impute_regression(data)
    assert any("singular" in str(w.message) for w in caught)
    expected = np.delete(values[2], 3).mean()
    assert fixed.Y[0, 3] == pytest.approx(expected)


def test_imputations_clear_the_mask():
    data = generate_scenario("I", 40, RngStream(17))
    masked, _, _ = introduce_gaps(data, 10, RngStream(18))
    for fixer in (impute_mean, impute_regression):
        assert not fixer(masked).has_missing
    assert not impute_hotdeck(masked, RngStream(19)).has_missing

