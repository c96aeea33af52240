import importlib.util
from pathlib import Path

import numpy as np
import pytest

import hrdea.pipeline
from hrdea.dataset import Direction, from_arrays
from hrdea.dea import interval_dea_bounds, solve_directional, solve_weak_disposability
from hrdea.errors import ValidationError
from hrdea.geometry import UncertaintySet
from hrdea.pipeline import (
    DistanceMatrix,
    load_distance_matrix,
    run_hr_dea,
    save_distance_matrix,
)


def random_instance(rng, n, m=2, s=1):
    X = rng.uniform(1.0, 10.0, size=(m, n))
    Y = rng.uniform(1.0, 10.0, size=(s, n))
    return from_arrays(X, Y)


def point_sets(data):
    return [UncertaintySet.point(data.column(j)) for j in range(data.n)]


def box_sets(data, rel=0.15):
    stacked = data.stacked()
    return [
        UncertaintySet.box(stacked[:, j], rel * stacked[:, j]) for j in range(data.n)
    ]


def test_degenerate_sets_reproduce_plain_dea():
    rng = np.random.default_rng(1)
    data = random_instance(rng, 10)
    d = Direction.proportional()
    dm = run_hr_dea(data, point_sets(data), d, t=25, seed=3)
    plain = np.array([solve_directional(data, k, d).distance for k in range(data.n)])
    assert np.abs(dm.values - plain[:, None]).max() < 1e-9
    assert np.abs(dm.baseline - plain).max() < 1e-9


def test_degenerate_sets_reproduce_weak_model():
    rng = np.random.default_rng(2)
    X = rng.uniform(1, 10, (2, 6))
    Y = rng.uniform(1, 10, (1, 6))
    U = rng.uniform(1, 10, (1, 6))
    data = from_arrays(X, Y, U)
    d = Direction.proportional()
    dm = run_hr_dea(data, point_sets(data), d, t=10, seed=5)
    assert dm.config["model"] == "weak"
    plain = np.array(
        [solve_weak_disposability(data, k, d).distance for k in range(data.n)]
    )
    assert np.abs(dm.values - plain[:, None]).max() < 1e-9


def test_traced_entry_points_resolve(monkeypatch):
    """perfbench/spans.py rebinds module attributes at the names their
    callers look up; every name it lists must exist, and run_hr_dea must
    reach _column_distances through its module global."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, _ in spans.TRACED:
        assert callable(getattr(module, attr))
    columns = []
    solve = hrdea.pipeline._column_distances

    def counted(*args):
        columns.append(1)
        return solve(*args)

    monkeypatch.setattr(hrdea.pipeline, "_column_distances", counted)
    data = random_instance(np.random.default_rng(4), 5)
    run_hr_dea(data, point_sets(data), Direction.proportional(), t=3)
    assert len(columns) == 1 + 3  # the centroids, then one per world


def test_shape_contract():
    rng = np.random.default_rng(3)
    data = random_instance(rng, 10)
    dm = run_hr_dea(data, box_sets(data), Direction.proportional(), t=100, seed=0)
    assert dm.values.shape == (10, 100)
    assert np.all(dm.values >= 0) and np.all(np.isfinite(dm.values))


def test_single_uncertain_dmu_stays_within_interval_bounds():
    # A fixed at (1, 1); B's input ranges over [1.5, 2.5]
    data = from_arrays(X=[[1.0, 2.0]], Y=[[1.0, 1.0]], dmu_ids=["A", "B"])
    sets = [
        UncertaintySet.point([1.0, 1.0]),
        UncertaintySet.box([2.0, 1.0], [0.5, 0.0]),
    ]
    d = Direction.input_oriented()
    dm = run_hr_dea(data, sets, d, t=500, seed=9)
    assert np.abs(dm.values[0]).max() < 1e-9  # A stays efficient
    lo, hi = dm.values[1].min(), dm.values[1].max()
    assert 1.0 / 3.0 - 1e-9 <= lo and hi <= 0.6 + 1e-9
    # oracle: the interval-DEA bounds
    lx = np.array([[1.0, 1.5]])
    ux = np.array([[1.0, 2.5]])
    ly = uy = np.array([[1.0, 1.0]])
    d_low, d_high = interval_dea_bounds(data, lx, ux, ly, uy, 1, d)
    assert d_low - 1e-9 <= lo and hi <= d_high + 1e-9


def test_box_sets_contained_in_interval_bounds():
    rng = np.random.default_rng(8)
    data = random_instance(rng, 8, m=1, s=1)
    sets = box_sets(data, rel=0.1)
    d = Direction.proportional()
    dm = run_hr_dea(data, sets, d, t=400, seed=21)
    stacked = data.stacked()
    w = 0.1 * stacked
    lo, hi = stacked - w, stacked + w
    m = data.m
    for k in range(data.n):
        d_low, d_high = interval_dea_bounds(
            data, lo[:m], hi[:m], lo[m:], hi[m:], k, d
        )
        assert dm.values[k].min() >= d_low - 1e-9
        assert dm.values[k].max() <= d_high + 1e-9


def test_prefix_property_and_width_growth():
    rng = np.random.default_rng(5)
    data = random_instance(rng, 6)
    sets = box_sets(data)
    d = Direction.proportional()
    small = run_hr_dea(data, sets, d, t=50, seed=13)
    large = run_hr_dea(data, sets, d, t=300, seed=13)
    # same streams: a shorter run is a prefix of a longer one
    np.testing.assert_array_equal(small.values, large.values[:, :50])
    width_small = small.values.max(axis=1) - small.values.min(axis=1)
    width_large = large.values.max(axis=1) - large.values.min(axis=1)
    assert np.all(width_large >= width_small - 1e-12)


def test_determinism_across_threads():
    rng = np.random.default_rng(6)
    data = random_instance(rng, 6)
    sets = box_sets(data)
    d = Direction.proportional()
    serial = run_hr_dea(data, sets, d, t=40, seed=17, threads=1)
    parallel = run_hr_dea(data, sets, d, t=40, seed=17, threads=2)
    assert np.array_equal(serial.values, parallel.values)
    assert np.array_equal(serial.baseline, parallel.baseline)
    again = run_hr_dea(data, sets, d, t=40, seed=17, threads=1)
    assert np.array_equal(serial.values, again.values)


def test_masked_cells_need_set_centers():
    # masked data is fine as long as the sets carry the geometry
    X = np.array([[1.0, np.nan]])
    data = from_arrays(X=[[1.0, 2.0]], Y=[[1.0, 1.0]])
    import dataclasses

    masked = dataclasses.replace(
        data, X=X, mask_x=np.array([[False, True]])
    )
    sets = [
        UncertaintySet.point([1.0, 1.0]),
        UncertaintySet.box([2.0, 1.0], [0.5, 0.0]),
    ]
    dm = run_hr_dea(masked, sets, Direction.input_oriented(), t=20, seed=1)
    assert np.all(np.isfinite(dm.values))


def test_validation_errors():
    data = from_arrays(X=[[1.0, 2.0]], Y=[[1.0, 1.0]])
    sets = point_sets(data)
    d = Direction.proportional()
    with pytest.raises(ValidationError):
        run_hr_dea(data, sets[:1], d, t=5)
    with pytest.raises(ValidationError):
        run_hr_dea(data, sets, d, t=0)
    with pytest.raises(ValidationError):
        run_hr_dea(data, sets, d, t=5, undesirable=True)
    bad_dim = [UncertaintySet.point([1.0, 1.0, 1.0])] * 2
    with pytest.raises(ValidationError):
        run_hr_dea(data, bad_dim, d, t=5)
    with pytest.raises(ValidationError):
        run_hr_dea(data, sets, d, t=5, xi_laws=["uniform"])


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    data = random_instance(rng, 5)
    dm = run_hr_dea(data, box_sets(data), Direction.proportional(), t=30, seed=77)
    path = tmp_path / "matrix.csv"
    save_distance_matrix(dm, path)
    loaded = load_distance_matrix(path)
    assert loaded.dmu_ids == dm.dmu_ids
    assert loaded.seed == 77
    np.testing.assert_array_equal(loaded.values, dm.values)
    np.testing.assert_array_equal(loaded.baseline, dm.baseline)
    assert loaded.config == dm.config


def test_distance_matrix_validation():
    with pytest.raises(ValidationError):
        DistanceMatrix(
            dmu_ids=("a",),
            values=np.array([[0.1, -0.2]]),
            baseline=np.zeros(1),
            seed=0,
            config={},
        )
