import numpy as np
import pytest

from hrdea.dataset import (
    DataSet,
    Direction,
    dataset_schema,
    from_arrays,
    load_dataset,
    pool_panel,
    save_dataset,
)
from hrdea.errors import DomainError, ParseError, ValidationError

SCHEMA = {"id": "id", "x1": "input", "y1": "output"}


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_simple_csv(tmp_path):
    path = write(tmp_path, "id,x1,y1\na,1,2\nb,3,4\nc,5,6\n")
    ds = load_dataset(path, SCHEMA)
    assert (ds.n, ds.m, ds.s, ds.v) == (3, 1, 1, 0)
    assert ds.dmu_ids == ("a", "b", "c")
    assert not ds.has_missing
    np.testing.assert_array_equal(ds.X, [[1.0, 3.0, 5.0]])


def test_blank_cell_sets_mask(tmp_path):
    path = write(tmp_path, "id,x1,y1\na,1,2\nb,3,\nc,5,6\n")
    ds = load_dataset(path, SCHEMA)
    assert np.isnan(ds.Y[0, 1])
    assert np.isnan(ds.Y).sum() == 1 and not np.isnan(ds.X).any()


@pytest.mark.parametrize("marker", ["NA", "na", "NaN", "nan", ""])
def test_missing_markers(tmp_path, marker):
    path = write(tmp_path, f"id,x1,y1\na,{marker},2\nb,3,4\n")
    ds = load_dataset(path, SCHEMA)
    assert np.isnan(ds.X[0, 0])


def test_negative_value_is_domain_error(tmp_path):
    path = write(tmp_path, "id,x1,y1\na,-1,2\n")
    with pytest.raises(DomainError):
        load_dataset(path, SCHEMA)


def test_parse_error_carries_line_number(tmp_path):
    path = write(tmp_path, "id,x1,y1\na,1,2\nb,zap,4\n")
    with pytest.raises(ParseError) as err:
        load_dataset(path, SCHEMA)
    assert err.value.line == 3


def test_wrong_field_count(tmp_path):
    path = write(tmp_path, "id,x1,y1\na,1\n")
    with pytest.raises(ParseError) as err:
        load_dataset(path, SCHEMA)
    assert err.value.line == 2


def test_duplicate_id_rejected(tmp_path):
    path = write(tmp_path, "id,x1,y1\na,1,2\na,3,4\n")
    with pytest.raises(ValidationError):
        load_dataset(path, SCHEMA)


def test_header_that_names_a_column_twice_rejected(tmp_path):
    path = write(tmp_path, "id,x1,x1,y1\na,1,2,3\nb,3,4,5\n")
    with pytest.raises(ParseError, match="'x1'") as err:
        load_dataset(path, SCHEMA)
    assert err.value.line == 1


def test_unassigned_column_rejected(tmp_path):
    path = write(tmp_path, "id,x1,y1,extra\na,1,2,3\n")
    with pytest.raises(ValidationError):
        load_dataset(path, SCHEMA)


def test_schema_column_absent_from_the_file_rejected(tmp_path):
    path = write(tmp_path, "id,x1,y1\na,1,2\nb,3,4\n")
    with pytest.raises(ValidationError, match="'x9'"):
        load_dataset(path, {**SCHEMA, "x9": "input"})


def test_byte_order_mark_is_skipped(tmp_path):
    text = "id,x1,y1\na,1,2\nb,3,\n"
    plain = load_dataset(write(tmp_path, text), SCHEMA)
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    ds = load_dataset(path, SCHEMA)
    assert ds.dmu_ids == plain.dmu_ids == ("a", "b")
    np.testing.assert_array_equal(ds.stacked(), plain.stacked())


def test_save_load_roundtrip(tmp_path):
    path = write(tmp_path, "id,x1,y1\na,1,2\nb,3,\nc,5,6\n")
    ds = load_dataset(path, SCHEMA)
    out = tmp_path / "copy.csv"
    save_dataset(ds, out)
    again = load_dataset(out, dataset_schema(ds))
    save_dataset(again, tmp_path / "copy2.csv")
    assert (tmp_path / "copy.csv").read_bytes() == (tmp_path / "copy2.csv").read_bytes()
    np.testing.assert_array_equal(np.isnan(ds.Y), np.isnan(again.Y))
    np.testing.assert_array_equal(ds.X, again.X)


def test_save_load_keeps_nan_cells(tmp_path):
    ds = from_arrays(X=[[1.0, np.nan], [2.0, 3.0]], Y=[[np.nan, 4.0]], U=[[5.0, np.nan]])
    out = tmp_path / "nan.csv"
    save_dataset(ds, out)
    again = load_dataset(out, dataset_schema(ds))
    np.testing.assert_array_equal(again.stacked(), ds.stacked())  # NaN equals NaN here
    np.testing.assert_array_equal(again.stacked_mask(), ds.stacked_mask())


def test_nan_cells_are_unknown():
    ds = from_arrays(X=[[1.0, np.nan]], Y=[[2.0, 3.0]], U=[[np.nan, 1.0]])
    assert ds.has_missing
    np.testing.assert_array_equal(
        ds.stacked_mask(), [[False, True], [False, False], [True, False]]
    )
    known = ds.with_values([[1.0, 2.0], [2.0, 3.0], [4.0, 1.0]])
    assert not known.has_missing and not known.stacked_mask().any()
    again = known.with_values([[1.0, 2.0], [np.nan, 3.0], [4.0, 1.0]])
    assert again.has_missing
    np.testing.assert_array_equal(
        again.stacked_mask(), [[False, False], [True, False], [False, False]]
    )


@pytest.mark.parametrize("block", ["X", "Y", "U"])
@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_infinite_values_rejected(block, value):
    cells = {"X": [[1.0, 2.0]], "Y": [[3.0, 4.0]], "U": [[5.0, 6.0]]}
    cells[block] = [[value, 2.0]]
    with pytest.raises(ValidationError):
        from_arrays(**cells)
    ds = from_arrays(X=[[1.0, 2.0]], Y=[[3.0, 4.0]], U=[[5.0, 6.0]])
    stacked = ds.stacked()
    stacked["XYU".index(block), 1] = value
    with pytest.raises(ValidationError):
        ds.with_values(stacked)


def test_negative_known_value_rejected():
    with pytest.raises(DomainError):
        from_arrays(X=[[1.0, np.nan]], Y=[[-1.0, 2.0]])


def test_duplicate_rows_are_legal():
    ds = from_arrays(X=[[1.0, 1.0]], Y=[[2.0, 2.0]], dmu_ids=["a", "b"])
    assert ds.n == 2


def test_pool_panel_counts():
    waves = [
        from_arrays(X=np.ones((2, 27)), Y=np.ones((1, 27))) for _ in range(4)
    ]
    pooled = pool_panel(waves, [2013, 2014, 2015, 2016])
    assert pooled.n == 108
    assert pooled.dmu_ids[0] == "dmu1_2013"
    assert pooled.dmu_ids[-1] == "dmu27_2016"


def test_pool_panel_single_is_identity_up_to_suffix():
    ds = from_arrays(X=[[1.0, 2.0]], Y=[[3.0, 4.0]], dmu_ids=["a", "b"])
    pooled = pool_panel([ds], ["t0"])
    np.testing.assert_array_equal(pooled.X, ds.X)
    np.testing.assert_array_equal(pooled.Y, ds.Y)
    assert pooled.dmu_ids == ("a_t0", "b_t0")


def test_pool_panel_dimension_mismatch():
    a = from_arrays(X=np.ones((2, 3)), Y=np.ones((1, 3)))
    b = from_arrays(X=np.ones((3, 3)), Y=np.ones((1, 3)))
    with pytest.raises(ValidationError):
        pool_panel([a, b], ["p", "q"])


def test_pool_panel_duplicate_tags():
    a = from_arrays(X=np.ones((1, 2)), Y=np.ones((1, 2)))
    with pytest.raises(ValidationError):
        pool_panel([a, a], ["t", "t"])


def test_pool_panel_preserves_cells_and_mask():
    a = DataSet(
        dmu_ids=("a", "b"),
        X=np.array([[1.0, np.nan]]),
        Y=np.array([[2.0, 3.0]]),
        U=np.empty((0, 2)),
    )
    b = from_arrays(X=[[9.0, 8.0]], Y=[[7.0, 6.0]], dmu_ids=["a", "b"])
    pooled = pool_panel([a, b], [1, 2])
    assert pooled.n == 4
    assert np.isnan(pooled.X[0, 1]) and np.isnan(pooled.X).sum() == 1
    np.testing.assert_array_equal(pooled.X[:, 2:], b.X)


def test_dataset_immutability():
    ds = from_arrays(X=[[1.0]], Y=[[1.0]])
    with pytest.raises(ValueError):
        ds.X[0, 0] = 7.0


def test_direction_modes():
    ds = from_arrays(X=[[2.0]], Y=[[3.0]], U=[[4.0]])
    dx, dy, du = Direction.input_oriented().resolve(ds, 0)
    assert (dx[0], dy[0], du[0]) == (2.0, 0.0, 0.0)
    dx, dy, du = Direction.output_oriented().resolve(ds, 0)
    assert (dx[0], dy[0], du[0]) == (0.0, 3.0, 0.0)
    dx, dy, du = Direction.proportional().resolve(ds, 0)
    assert (dx[0], dy[0], du[0]) == (2.0, 3.0, 4.0)
    dx, dy, du = Direction.custom([1.0], [0.5], [0.0]).resolve(ds, 0)
    assert (dx[0], dy[0], du[0]) == (1.0, 0.5, 0.0)


def test_direction_resolves_column_stacks():
    X = np.array([[2.0, 4.0], [1.0, 3.0]])
    Y = np.array([[5.0, 6.0]])
    U = np.array([[7.0, 8.0]])
    modes = (
        Direction.input_oriented(),
        Direction.output_oriented(),
        Direction.proportional(),
        Direction.custom([1.0, 0.0], [0.5], [0.0]),
    )
    for direction in modes:
        stacked = direction.resolve_at(X, Y, U)
        for k in range(X.shape[1]):
            single = direction.resolve_at(X[:, k], Y[:, k], U[:, k])
            for part, column in zip(stacked, single):
                assert np.array_equal(part[:, k], column)
    # every column needs a strictly positive component of its own
    with pytest.raises(ValidationError):
        Direction.input_oriented().resolve_at(np.array([[1.0, 0.0]]), Y)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("label", ["dx", "dy", "du"])
def test_custom_direction_must_be_finite(value, label):
    parts = {"dx": [1.0, 0.5], "dy": [1.0], "du": [0.5]}
    parts[label][0] = value
    with pytest.raises(ValidationError, match=f"custom direction {label} must be finite"):
        Direction.custom(parts["dx"], parts["dy"], parts["du"])


def test_direction_must_have_positive_component():
    ds = from_arrays(X=[[2.0]], Y=[[3.0]])
    with pytest.raises(ValidationError):
        Direction.custom([0.0], [0.0]).resolve(ds, 0)
    with pytest.raises(ValidationError):
        Direction("sideways")
