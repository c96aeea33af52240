import numpy as np
import pytest

from hrdea.dataset import from_arrays
from hrdea.errors import ParseError, ValidationError
from hrdea.setspec import build_sets, parse_set_spec


def write(tmp_path, text):
    path = tmp_path / "sets.txt"
    path.write_text(text)
    return path


def test_parse_and_build(tmp_path):
    path = write(
        tmp_path,
        """
        # two uncertain DMUs, the rest stay points
        a shape=box w=0.5,0.0
        b shape=ellipsoid w=0.2 xi=triangular
        d shape=point xi=triangular
        """,
    )
    data = from_arrays(X=[[2.0, 3.0, 4.0, 5.0]], Y=[[1.0, 1.0, 1.0, 1.0]],
                       dmu_ids=["a", "b", "c", "d"])
    records = parse_set_spec(path)
    sets = build_sets(data, records)
    assert sets[0].shape == "box" and sets[0].semi_axes[0] == 0.5
    assert sets[1].shape == "ellipsoid" and np.all(sets[1].semi_axes == 0.2)
    assert sets[2].is_point and sets[3].is_point
    assert [u.xi_law for u in sets] == ["uniform", "triangular", "uniform", "triangular"]


def test_parse_superellipsoid_and_polytope(tmp_path):
    path = write(
        tmp_path,
        "a shape=superellipsoid w=1,1,1 orders=2,2\n"
        "b shape=polytope rows=1,0,0:9;0,1,0:9;0,0,1:9\n",
    )
    data = from_arrays(
        X=[[2.0, 3.0]], Y=[[1.0, 1.0]], U=[[1.0, 2.0]], dmu_ids=["a", "b"]
    )
    sets = build_sets(data, parse_set_spec(path))
    assert sets[0].shape == "superellipsoid" and sets[0].orders == (2.0, 2.0)
    assert sets[1].shape == "polytope" and sets[1].rows_a.shape == (3, 3)


def test_center_override(tmp_path):
    path = write(tmp_path, "a shape=box w=0.1 center=5,5\n")
    data = from_arrays(X=[[2.0]], Y=[[1.0]], dmu_ids=["a"])
    sets = build_sets(data, parse_set_spec(path))
    np.testing.assert_array_equal(sets[0].center, [5.0, 5.0])


def test_masked_dmu_requires_center(tmp_path):
    import dataclasses

    data = from_arrays(X=[[2.0]], Y=[[1.0]], dmu_ids=["a"])
    masked = dataclasses.replace(data, X=np.array([[np.nan]]))
    path = write(tmp_path, "a shape=box w=0.5\n")
    with pytest.raises(ValidationError):
        build_sets(masked, parse_set_spec(path))
    path = write(tmp_path, "a shape=box w=0.5 center=2,1\n")
    sets = build_sets(masked, parse_set_spec(path))
    np.testing.assert_array_equal(sets[0].center, [2.0, 1.0])


def test_parse_errors_carry_line_numbers(tmp_path):
    with pytest.raises(ParseError) as err:
        parse_set_spec(write(tmp_path, "a shape=box w=0.5\nb wobble\n"))
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_set_spec(write(tmp_path, "a w=0.5\n"))
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_set_spec(write(tmp_path, "a shape=box w=0.5\na shape=point\n"))
    with pytest.raises(ParseError):
        parse_set_spec(write(tmp_path, "a shape=box w=abc\n"))


def test_an_unknown_xi_law_names_the_dmu(tmp_path):
    """The set decides its law, as it decides its shape: an unknown law parses
    and is rejected when the set is built."""
    data = from_arrays(X=[[2.0]], Y=[[1.0]], dmu_ids=["a"])
    records = parse_set_spec(write(tmp_path, "a shape=box w=1 xi=lognormal\n"))
    with pytest.raises(ValidationError) as err:
        build_sets(data, records)
    assert str(err.value).startswith("DMU 'a': unknown xi law 'lognormal'")


def test_a_hash_inside_an_id_is_part_of_the_id(tmp_path):
    """A line whose first non-blank character is '#' is a comment; on any
    other line the first token is the id, whole, and a later '#' starts a
    comment."""
    records = parse_set_spec(write(tmp_path, "  #A shape=box w=0.5\n"
                                             "H#2 shape=box w=0.5  # note xi=triangular\n"
                                             "B\tshape=ellipsoid w=0.2 #w=9\n"))
    assert list(records) == ["H#2", "B"]
    assert records["H#2"]["shape"] == "box" and "xi" not in records["H#2"]
    np.testing.assert_array_equal(records["B"]["w"], [0.2])
    data = from_arrays(X=[[2.0, 3.0, 4.0]], Y=[[1.0, 1.0, 1.0]], dmu_ids=["#A", "H#2", "B"])
    sets = build_sets(data, records)
    assert [u.shape for u in sets] == ["point", "box", "ellipsoid"]


def test_unknown_dmu_rejected(tmp_path):
    data = from_arrays(X=[[2.0]], Y=[[1.0]], dmu_ids=["a"])
    path = write(tmp_path, "zz shape=box w=0.5\n")
    with pytest.raises(ValidationError):
        build_sets(data, parse_set_spec(path))


def test_wrong_width_count_rejected(tmp_path):
    data = from_arrays(X=[[2.0]], Y=[[1.0]], dmu_ids=["a"])
    path = write(tmp_path, "a shape=box w=0.5,0.5,0.5\n")
    with pytest.raises(ValidationError):
        build_sets(data, parse_set_spec(path))


@pytest.mark.parametrize("line, message", [
    ("b shape=box w=1,-1,1", "DMU 'b': semi-axes must be finite and >= 0"),
    ("b shape=superellipsoid w=1 orders=0.5,2", "DMU 'b': superellipsoid orders must be two"),
    ("b shape=superellipsoid w=1,1", "DMU 'b': superellipsoid needs orders="),
    ("b shape=ellipsoid w=1 center=1,2", "DMU 'b': center has 2 values, expected 3"),
])
def test_set_errors_name_the_dmu(tmp_path, line, message):
    data = from_arrays(X=[[2.0, 3.0]], Y=[[1.0, 1.0]], U=[[1.0, 2.0]], dmu_ids=["a", "b"])
    path = write(tmp_path, f"a shape=box w=0.5\n{line}\n")
    with pytest.raises(ValidationError) as err:
        build_sets(data, parse_set_spec(path))
    assert str(err.value).startswith(message)


# What each shape needs on a set-spec line, and every key a shape may take.
NEEDED = {"point": "", "box": "w=0.5", "ellipsoid": "w=0.5", "rhombus": "w=0.5",
          "polytope": "rows=1,0,0:9;0,1,0:9;0,0,1:9", "superellipsoid": "w=0.5 orders=2,2"}
KEYS = {"w": "w=0.5", "rows": "rows=1,0,0:9;0,1,0:9;0,0,1:9", "orders": "orders=2,2"}


def build_line(tmp_path, line):
    data = from_arrays(X=[[2.0, 3.0]], Y=[[1.0, 1.0]], U=[[1.0, 2.0]], dmu_ids=["a", "b"])
    return build_sets(data, parse_set_spec(write(tmp_path, f"a shape=box w=0.5\n{line}\n")))


@pytest.mark.parametrize("shape, key", [(shape, key) for shape, needed in NEEDED.items()
                                        for key in KEYS if f"{key}=" not in needed])
def test_a_key_the_shape_does_not_take_names_the_dmu_and_the_key(tmp_path, shape, key):
    sets = build_line(tmp_path, f"b shape={shape} {NEEDED[shape]}")
    assert sets[1].shape == shape
    with pytest.raises(ValidationError) as err:
        build_line(tmp_path, f"b shape={shape} {NEEDED[shape]} {KEYS[key]}")
    assert str(err.value).startswith(f"DMU 'b': {shape} takes no")
    assert f"{key}=" in str(err.value)


@pytest.mark.parametrize("line, message", [
    ("b shape=box", "DMU 'b': box needs w="),
    ("b shape=rhombus center=1,1,1", "DMU 'b': rhombus needs w="),
    ("b shape=superellipsoid orders=2,2", "DMU 'b': superellipsoid needs w="),
    ("b shape=polytope", "DMU 'b': polytope needs rows="),
])
def test_a_key_the_shape_needs_names_the_dmu_and_the_key(tmp_path, line, message):
    with pytest.raises(ValidationError) as err:
        build_line(tmp_path, line)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("line, key", [
    ("b shape=box shape=ellipsoid w=0.5", "shape"),
    ("b shape=box w=0.5 w=0.1,0,0", "w"),
    ("b shape=box w=0.5 center=1,1,1 center=2,2,2", "center"),
    ("b shape=superellipsoid w=1 orders=2,2 orders=3,3", "orders"),
    ("b shape=box w=1 xi=uniform xi=triangular", "xi"),
    ("b shape=polytope rows=1,0,0:9 rows=0,1,0:9", "rows"),
])
def test_a_repeated_key_is_a_parse_error(tmp_path, line, key):
    with pytest.raises(ParseError) as err:
        parse_set_spec(write(tmp_path, f"a shape=box w=0.5\n{line}\n"))
    assert err.value.line == 2
    assert f"DMU 'b': key {key!r} given twice" in str(err.value)
