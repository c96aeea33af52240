import importlib.util
import io
import json
import os
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hrdea.benchmark
import hrdea.pipeline
import hrdea.sampler
from hrdea.benchmark import run_benchmark
from hrdea.dataset import Direction, from_arrays
from hrdea.dea import interval_dea_bounds, solve_directional, solve_weak_disposability
from hrdea.errors import UnsupportedDimensionError, ValidationError
from hrdea.geometry import UncertaintySet
from hrdea.sampler import Walker
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


def weak_instance(rng, n):
    """Two inputs, one output and one undesirable output."""
    X, Y, U = (rng.uniform(1.0, 10.0, size=(rows, n)) for rows in (2, 1, 1))
    return from_arrays(X, Y, U)


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


@pytest.mark.parametrize("du", [None, [0.7]], ids=["proportional", "custom"])
def test_plain_model_drops_the_undesirable_rows(du):
    # With every set frozen along U, a plain-model run on data with U is the
    # same run on the data without U, bit for bit; a custom du is ignored.
    rng = np.random.default_rng(6)
    data = weak_instance(rng, 12)
    semi = 0.15 * data.stacked()
    semi[3:] = 0.0
    sets = [UncertaintySet.box(c, w) for c, w in zip(data.stacked().T, semi.T)]
    sets[4] = UncertaintySet.ellipsoid(sets[4].center, semi[:, 4])
    without = [UncertaintySet(u.shape, u.center[:3], u.semi_axes[:3]) for u in sets]
    with_u = without_u = Direction.proportional()
    if du is not None:
        with_u, without_u = (Direction.custom([1.0, 0.5], [2.0], u) for u in (du, None))
    dm = run_hr_dea(data, sets, with_u, t=30, seed=4, undesirable=False)
    assert dm.config["model"] == "plain"
    reference = run_hr_dea(from_arrays(data.X, data.Y), without, without_u, t=30, seed=4)
    assert dm.values.tobytes() == reference.values.tobytes()
    assert dm.baseline.tobytes() == reference.baseline.tobytes()
    assert len(set(dm.values[4].tolist())) > 1  # the ellipsoid walks


def free_u_sets(data, shape, rel=0.15):
    """One set of ``shape`` per DMU, each free along U: semi-axes ``rel`` of
    each value, or for a polytope that box's rows and two rows that couple
    u1 with x1 and with y1.  DMU 0 keeps a point."""
    stacked = data.stacked()
    sets = [UncertaintySet.point(stacked[:, 0])]
    for c, w in zip(stacked.T[1:], rel * stacked.T[1:]):
        if shape != "polytope":
            sets.append(UncertaintySet(shape, c, None if shape == "point" else w))
            continue
        coupled = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 1.0]])
        rows_a = np.vstack([np.eye(4), -np.eye(4), coupled])
        rows_b = np.r_[c + w, w - c, coupled @ c + 0.5 * np.abs(coupled) @ w]
        sets.append(UncertaintySet.polytope(rows_a, rows_b, c))
    return sets


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("shape", ["box", "ellipsoid", "rhombus", "polytope", "point"])
def test_plain_model_slices_sets_free_along_u(shape, threads):
    # A plain-model run on data with U is the run on the data without U and
    # each set's slice through its center, bit for bit, and a shorter run is
    # a prefix of it.
    data = weak_instance(np.random.default_rng(6), 12)
    sets = free_u_sets(data, shape)
    assert shape == "point" or sets[1].active[3]
    sliced = [uset.slice(np.arange(4) < 3) for uset in sets]
    d = Direction.proportional()
    dm = run_hr_dea(data, sets, d, t=30, seed=4, undesirable=False, threads=threads)
    reference = run_hr_dea(from_arrays(data.X, data.Y), sliced, d, t=30, seed=4)
    assert dm.config == reference.config and dm.config["model"] == "plain"
    assert dm.values.tobytes() == reference.values.tobytes()
    assert dm.baseline.tobytes() == reference.baseline.tobytes()
    short = run_hr_dea(data, sets, d, t=10, seed=4, undesirable=False, threads=threads)
    assert short.values.tobytes() == np.ascontiguousarray(dm.values[:, :10]).tobytes()
    assert shape == "point" or len(set(dm.values[1].tolist())) > 1  # DMU 1 walks


def test_plain_model_refuses_a_superellipsoid_with_a_u_axis():
    data = from_arrays([[2.0, 3.0]], [[5.0, 4.0]], [[1.0, 2.0]], dmu_ids=["A", "B"])
    sets = [UncertaintySet.point(data.column(0)),
            UncertaintySet.superellipsoid(data.column(1), [0.5, 0.5, 0.5], (2.0, 2.0))]
    with pytest.raises(UnsupportedDimensionError,
                       match="DMU 'B': superellipsoid sets support exactly 3 dimensions"):
        run_hr_dea(data, sets, Direction.proportional(), t=5, undesirable=False)


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


def test_benchmark_workloads_resolve(monkeypatch):
    """perfbench/workloads.py imports hrdea's API by name and checks
    bench-n300 with anchored distances; an API change that breaks either
    fails here."""
    root = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(root))  # workloads.py imports oracle.py
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  root / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    data = random_instance(np.random.default_rng(6), 5)
    X, Y = data.X, data.Y
    for k in range(data.n):
        d = workloads.directional_distance(X, Y, X[:, k], Y[:, k], np.zeros(data.m),
                                           Y[:, k], anchor=k)
        assert d == solve_directional(data, k, Direction.output_oriented()).distance


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
    lower = np.array([[1.0, 1.5], [1.0, 1.0]])
    upper = np.array([[1.0, 2.5], [1.0, 1.0]])
    d_low, d_high = interval_dea_bounds(data, lower, upper, d)
    assert d_low[1] - 1e-9 <= lo and hi <= d_high[1] + 1e-9


def test_box_sets_contained_in_interval_bounds():
    rng = np.random.default_rng(8)
    data = random_instance(rng, 8, m=1, s=1)
    sets = box_sets(data, rel=0.1)
    d = Direction.proportional()
    dm = run_hr_dea(data, sets, d, t=400, seed=21)
    stacked = data.stacked()
    w = 0.1 * stacked
    d_low, d_high = interval_dea_bounds(data, stacked - w, stacked + w, d)
    for k in range(data.n):
        assert dm.values[k].min() >= d_low[k] - 1e-9
        assert dm.values[k].max() <= d_high[k] + 1e-9


def test_prefix_property_and_width_growth():
    rng = np.random.default_rng(5)
    d = Direction.proportional()
    for data in (random_instance(rng, 6), weak_instance(rng, 6)):
        sets = box_sets(data)
        small = run_hr_dea(data, sets, d, t=50, seed=13)
        large = run_hr_dea(data, sets, d, t=300, seed=13)
        # same streams: a shorter run is a prefix of a longer one
        np.testing.assert_array_equal(small.values, large.values[:, :50])
        np.testing.assert_array_equal(small.baseline, large.baseline)
        width_small = small.values.max(axis=1) - small.values.min(axis=1)
        width_large = large.values.max(axis=1) - large.values.min(axis=1)
        assert np.all(width_large >= width_small - 1e-12)


def test_determinism_across_threads():
    rng = np.random.default_rng(6)
    d = Direction.proportional()
    for data in (random_instance(rng, 6), weak_instance(rng, 6)):
        sets = box_sets(data)
        # t = 1 and 3 give the pool fewer worlds than 4 * threads chunks
        for t in (1, 3, 40):
            serial = run_hr_dea(data, sets, d, t=t, seed=17, threads=1)
            parallel = run_hr_dea(data, sets, d, t=t, seed=17, threads=2)
            assert np.array_equal(serial.values, parallel.values)
            assert np.array_equal(serial.baseline, parallel.baseline)
        again = run_hr_dea(data, sets, d, t=40, seed=17, threads=1)
        assert np.array_equal(serial.values, again.values)


def test_worlds_drawn_ahead_equal_undrawn_steps():
    """``Walker.walk`` draws the Philox words of a block of steps at once; each
    world equals a ``Walker.step`` that draws its own, across a block edge.
    Offset 0 is the walk of ``run_hr_dea``; the other offset wraps the stream
    ids past 2**64."""
    rng = np.random.default_rng(12)
    data = random_instance(rng, 7)
    stacked = data.stacked()
    sets = box_sets(data)
    sets[2] = UncertaintySet.point(stacked[:, 2])  # a point set draws nothing
    sets[4] = UncertaintySet.ellipsoid(stacked[:, 4], 0.2 * stacked[:, 4])
    sets[6] = replace(sets[6], xi_law="triangular")
    walker = Walker(sets)
    start = np.column_stack([u.center for u in sets]).T
    t, n = hrdea.sampler._DRAW_STEPS + 3, data.n
    for offset in (0, 2**64 - 5 * n):
        drawn = list(walker.walk(start, 11, t, offset))
        assert len(drawn) == t
        points = start
        for ell in range(1, t + 1):
            first = offset + ell * n
            points = walker.step(points, 11, range(first, first + n))
            assert np.array_equal(drawn[ell - 1], points)


def test_serial_run_holds_one_world(monkeypatch):
    """A serial run scores each world as soon as it is walked, so peak memory
    grows with t by the matrix column alone, not by the world's z x n points.
    The LPs are stubbed out: they allocate nothing that outlives a world, and
    under tracemalloc they would take most of the suite's time."""
    monkeypatch.setattr(
        hrdea.pipeline, "_column_distances", lambda points, *args: np.zeros(points.shape[1])
    )
    data = random_instance(np.random.default_rng(11), 20, m=3, s=2)
    sets = point_sets(data)
    peaks = {}
    for t in (500, 2500):
        tracemalloc.start()
        try:
            run_hr_dea(data, sets, Direction.proportional(), t=t, seed=1)
            peaks[t] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    per_world = (peaks[2500] - peaks[500]) / 2000
    assert per_world < data.z * data.n * 8 / 2


def _no_lps(points, *args):
    """A module-level stand-in for the world LPs, so a pool can pickle it."""
    return np.zeros(points.shape[1])


def test_pooled_run_holds_a_window(monkeypatch):
    """With threads > 1 the parent keeps a bounded window of chunks in flight,
    so its peak memory grows with t by the matrix column alone, as in a
    serial run, and not by the points of every world queued for the pool."""
    monkeypatch.setattr(hrdea.pipeline, "_column_distances", _no_lps)
    data = random_instance(np.random.default_rng(11), 20, m=3, s=2)
    sets = point_sets(data)
    peaks = {}
    for t in (500, 2500):
        tracemalloc.start()
        try:
            run_hr_dea(data, sets, Direction.proportional(), t=t, seed=1, threads=2)
            peaks[t] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    per_world = (peaks[2500] - peaks[500]) / 2000
    assert per_world < data.z * data.n * 8 / 2


class _InlinePool:
    """A stand-in process pool that runs each task at once, in the caller,
    and records the worker count it was asked for."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.mark.parametrize("threads", [0, -2])
def test_thread_count_below_one_is_rejected(threads):
    data = random_instance(np.random.default_rng(2), 4)
    with pytest.raises(ValidationError, match="threads must be at least 1"):
        run_hr_dea(data, box_sets(data), Direction.proportional(), t=5, threads=threads)
    with pytest.raises(ValidationError, match="threads must be at least 1"):
        run_benchmark(scenarios=("I",), reps=1, n=10, gaps=2, t=5, threads=threads)


def test_pool_has_at_most_one_worker_per_cpu_and_case(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    for module in (hrdea.pipeline, hrdea.benchmark):
        monkeypatch.setattr(module, "ProcessPoolExecutor", _InlinePool)
    data = random_instance(np.random.default_rng(2), 6)
    sets, d = box_sets(data), Direction.proportional()
    serial = run_hr_dea(data, sets, d, t=20, seed=5)
    pooled = run_hr_dea(data, sets, d, t=20, seed=5, threads=5000)
    assert np.array_equal(serial.values, pooled.values)
    kw = dict(scenarios=("I", "II"), reps=1, n=10, gaps=3, t=4, seed=2)
    assert run_benchmark(**kw, threads=5000).table == run_benchmark(**kw).table
    assert _InlinePool.sizes == [3, 2]  # the CPUs, then the two cases


def test_masked_cells_need_set_centers():
    # masked data is fine as long as the sets carry the geometry
    X = np.array([[1.0, np.nan]])
    data = from_arrays(X=[[1.0, 2.0]], Y=[[1.0, 1.0]])
    import dataclasses

    masked = dataclasses.replace(data, X=X)
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
    with pytest.raises(ValidationError, match="unknown xi law 'cauchy'"):
        run_hr_dea(data, [replace(sets[0], xi_law="cauchy"), sets[1]], d, t=5)


def test_header_with_a_source_encoded_once_equals_the_whole_config():
    source = {"t": 5, "shapes": ["box", "point"], "direction": "proportional"}
    for config in ({"dmu": "A", "bucket_width": 0.01, "seed": 3},
                   {"dmu": "B", "alpha": 2.5, "beta": 1.0, "q1": 0.0, "q2": 0.5,
                    "ks": 0.1, "seed": 3}):
        once, whole = io.StringIO(), io.StringIO()
        hrdea.pipeline.write_header(once, "histogram", config,
                                    json.dumps(source, sort_keys=True))
        hrdea.pipeline.write_header(whole, "histogram", {**config, "source": source})
        assert once.getvalue() == whole.getvalue()


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


def test_mixed_xi_laws_keep_the_matrix_header(tmp_path):
    """Each set carries its law; the header lists the sorted distinct laws,
    in the same line that a run given the laws as a separate list wrote."""
    data = from_arrays(X=[[2.0, 4.0, 3.0, 5.0]], Y=[[5.0, 6.0, 4.0, 7.0]],
                       dmu_ids=["A", "B", "C", "D"])
    sets = [UncertaintySet("box", [2.0, 5.0], 0.5, xi_law="triangular"),
            UncertaintySet("point", [4.0, 6.0], xi_law="triangular"),
            UncertaintySet.polytope(np.vstack([np.eye(2), -np.eye(2)]), [4.0, 5.0, -2.0, -3.0],
                                    [3.0, 4.0]),
            UncertaintySet.ellipsoid([5.0, 7.0], [1.0, 0.5])]
    dm = run_hr_dea(data, sets, Direction.proportional(), t=3, seed=2)
    path = tmp_path / "matrix.csv"
    save_distance_matrix(dm, path)
    assert path.read_text().splitlines()[:2] == [
        "# hrdea distance-matrix v1",
        '# config: {"direction": "proportional", "model": "plain", "seed": 2, '
        '"shapes": ["box", "point", "polytope", "ellipsoid"], "t": 3, '
        '"xi_laws": ["triangular", "uniform"]}',
    ]
    uniform = [replace(u, xi_law="uniform") for u in sets]
    plain = run_hr_dea(data, uniform, Direction.proportional(), t=3, seed=2)
    assert plain.config["xi_laws"] == ["uniform"]
    assert not np.array_equal(plain.values, dm.values)


def test_save_load_roundtrip_keeps_an_id_that_starts_with_a_hash(tmp_path):
    """Only the lines before the dmu,d0 header are comments."""
    dm = DistanceMatrix(dmu_ids=("#A", "B", "H#2"), values=[[0.1, 0.2], [0.0, 0.3], [0.5, 0.4]],
                        baseline=[0.1, 0.0, 0.2], seed=3, config={"seed": 3})
    path = tmp_path / "matrix.csv"
    save_distance_matrix(dm, path)
    loaded = load_distance_matrix(path)
    assert loaded.dmu_ids == dm.dmu_ids
    np.testing.assert_array_equal(loaded.values, dm.values)
    np.testing.assert_array_equal(loaded.baseline, dm.baseline)


def test_duplicate_dmu_ids_rejected(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text("# config: {}\ndmu,d0,iter_1\nA,0.1,0.2\nB,0.0,0.1\nA,0.3,0.4\n")
    with pytest.raises(ValidationError, match=r"duplicate DMU ids .*\['A'\]"):
        load_distance_matrix(path)


def test_distance_matrix_validation():
    with pytest.raises(ValidationError):
        DistanceMatrix(
            dmu_ids=("a",),
            values=np.array([[0.1, -0.2]]),
            baseline=np.zeros(1),
            seed=0,
            config={},
        )
