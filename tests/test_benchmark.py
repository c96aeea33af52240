import warnings

import numpy as np
import pytest

import hrdea.benchmark
from hrdea.benchmark import (
    ALTERNATIVES,
    METRICS,
    ComparisonMetrics,
    compare_metrics,
    run_benchmark,
    run_case,
    save_benchmark,
)
from hrdea.errors import ValidationError


def test_compare_metrics_identity():
    m = compare_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert m.pearson == pytest.approx(1.0, abs=1e-12)
    assert m.kendall == pytest.approx(1.0, abs=1e-12)
    assert (m.mae, m.msd) == (0.0, 0.0)


def test_compare_metrics_flat_estimate():
    m = compare_metrics([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
    assert np.isnan(m.pearson)
    assert m.mae == pytest.approx(2.0 / 3.0)
    assert m.msd == pytest.approx(0.0)


def test_compare_metrics_reversed():
    m = compare_metrics([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
    assert m.kendall == pytest.approx(-1.0)
    assert m.pearson == pytest.approx(-1.0)


def test_compare_metrics_sign_convention():
    # estimated minus original: underestimation gives a negative bias
    m = compare_metrics([1.0, 2.0], [0.5, 1.5])
    assert m.msd == pytest.approx(-0.5)


def test_compare_metrics_validation():
    with pytest.raises(ValidationError):
        compare_metrics([1.0], [1.0])
    with pytest.raises(ValidationError):
        compare_metrics([1.0, 2.0], [1.0, 2.0, 3.0])


def scipy_compare_metrics(base, est) -> ComparisonMetrics:
    """compare_metrics with Pearson and Kendall tau-b from scipy.stats."""
    from scipy import stats

    base = np.asarray(base, dtype=float).ravel()
    est = np.asarray(est, dtype=float).ravel()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant input
        pearson = float(stats.pearsonr(base, est).statistic)
        kendall = float(stats.kendalltau(base, est).statistic)
    diff = est - base
    return ComparisonMetrics(pearson=pearson, kendall=kendall,
                             mae=float(np.abs(diff).mean()), msd=float(diff.mean()))


def metric_pairs():
    """Random, heavily tied, constant and NaN-holding vector pairs."""
    rng = np.random.default_rng(40)
    for n in (2, 3, 7, 50, 300, 1500):  # 1500 spans several row blocks
        x = rng.normal(size=n)
        yield x, 0.6 * x + rng.normal(size=n)
        yield x, -x
        yield rng.integers(0, 3, size=n).astype(float), rng.integers(0, 2, size=n) * 0.1
        yield np.round(x), np.round(2.0 * x + rng.normal(size=n))
        yield x * 1e200, x**3 * 1e-200
        yield np.full(n, 0.1), x
        yield x, np.full(n, 2.5)
        yield np.full(n, 1.0), np.full(n, 3.0)
    x = rng.normal(size=20)
    y = x.copy()
    y[4] = np.nan
    yield x, y


def test_pearson_and_kendall_match_scipy():
    checked = nan = 0
    for base, est in metric_pairs():
        ours, theirs = compare_metrics(base, est), scipy_compare_metrics(base, est)
        for got, want in ((ours.pearson, theirs.pearson), (ours.kendall, theirs.kendall)):
            if np.isnan(want):
                assert np.isnan(got)
                nan += 1
            else:
                assert abs(got - want) <= 1e-12
            checked += 1
    assert nan >= 20 and checked > 90


def test_benchmark_table_equals_the_scipy_metrics(monkeypatch):
    kw = dict(scenarios=("I", "II"), reps=1, n=12, gaps=3, t=5, seed=8)
    ours = run_benchmark(**kw).table
    monkeypatch.setattr(hrdea.benchmark, "compare_metrics", scipy_compare_metrics)
    theirs = run_benchmark(**kw).table
    for alt in ALTERNATIVES:
        for metric in METRICS:
            for sc in ("I", "II", "mean"):
                assert ours[alt][metric][sc] == pytest.approx(theirs[alt][metric][sc],
                                                              rel=0, abs=1e-12)


def test_gapless_run_reproduces_base_exactly():
    report = run_benchmark(scenarios=("I",), reps=1, n=12, gaps=0, t=5, seed=3)
    for alt in ALTERNATIVES:
        assert report.value(alt, "pearson", "I") == pytest.approx(1.0, abs=1e-12)
        assert report.value(alt, "mae", "I") == pytest.approx(0.0, abs=1e-9)
        assert report.value(alt, "msd", "I") == pytest.approx(0.0, abs=1e-9)


def test_report_shape_and_finiteness():
    report = run_benchmark(scenarios=("I", "II", "III"), reps=1, n=16, gaps=4, t=10, seed=5)
    assert set(report.table) == set(ALTERNATIVES)
    for alt in ALTERNATIVES:
        for metric in METRICS:
            cells = report.table[alt][metric]
            assert set(cells) == {"I", "II", "III", "mean"}
            for value in cells.values():
                assert np.isfinite(value)


def test_benchmark_determinism_and_threads():
    kw = dict(scenarios=("I",), reps=2, n=10, gaps=3, t=8, seed=11)
    a = run_benchmark(**kw)
    b = run_benchmark(**kw)
    c = run_benchmark(**kw, threads=2)
    assert a.table == b.table == c.table


def test_save_benchmark_layout(tmp_path):
    report = run_benchmark(scenarios=("I",), reps=1, n=10, gaps=2, t=5, seed=1)
    path = tmp_path / "bench.csv"
    save_benchmark(report, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# hrdea benchmark-report")
    assert lines[1].startswith("# config:")
    assert lines[2] == "alternative,metric,I,mean"
    assert len(lines) == 3 + len(ALTERNATIVES) * len(METRICS)
    assert lines[3].split(",")[0] == "mean"


def test_unknown_scenario_rejected():
    with pytest.raises(ValidationError):
        run_benchmark(scenarios=("IV",), reps=1, n=10, gaps=2, t=5)


@pytest.mark.parametrize("scenarios,message", [
    (("I", "II", "I"), "scenario 'I' named twice"),  # both would add into one cell
    ((), "need at least one scenario"),  # no scenario to average for the mean column
])
def test_bad_scenario_list_rejected(scenarios, message):
    with pytest.raises(ValidationError, match=message):
        run_benchmark(scenarios=scenarios, reps=2, n=20, gaps=4, t=5, seed=3)


def test_benchmark_table_equals_a_plain_loop_over_run_case():
    # Nine reps: a pairwise sum (blocks of 8) would round differently.
    scenarios, reps, kw = ("I", "III"), 9, dict(n=12, gaps=3, t=5, seed=4)
    table = run_benchmark(scenarios, reps=reps, **kw).table
    rows = {(sc, rep): run_case(sc, rep, **kw) for rep in range(reps) for sc in scenarios}
    for a, alt in enumerate(ALTERNATIVES):
        for m, metric in enumerate(METRICS):
            expected = {}
            for sc in scenarios:
                total = 0.0
                for rep in range(reps):
                    total += float(rows[sc, rep][a, m])
                expected[sc] = total / reps
            expected["mean"] = sum(expected.values()) / len(scenarios)
            got = table[alt][metric]
            assert all(type(v) is float for v in got.values())
            assert {k: v.hex() for k, v in got.items()} == {
                k: v.hex() for k, v in expected.items()}
