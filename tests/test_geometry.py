import warnings

import numpy as np
import pytest

from hrdea.errors import UnsupportedDimensionError, ValidationError
from hrdea.geometry import (
    XI_LAWS,
    SetStack,
    UncertaintySet,
    chord_length,
    chord_lengths,
    contains,
    contains_many,
)

PENTAGON_A = np.array([[1.0, 1.0], [5.0, -1.0], [-2.0, 1.0]])
PENTAGON_B = np.array([10.0, 10.0, 5.0])
D1 = np.array([0.2, 0.4]) / np.hypot(0.2, 0.4)


@pytest.fixture
def pentagon():
    return UncertaintySet.polytope(PENTAGON_A, PENTAGON_B, interior_point=[2.0, 6.0])


def test_pentagon_chord(pentagon):
    lam = chord_length(pentagon, [2.0, 6.0], D1)
    assert lam == pytest.approx((10.0 / 3.0) * np.hypot(0.2, 0.4), abs=1e-9)
    hit = np.array([2.0, 6.0]) + lam * D1
    np.testing.assert_allclose(hit, [8.0 / 3.0, 22.0 / 3.0], atol=1e-9)
    assert contains(pentagon, hit)


def test_parallel_constraint_contributes_infinity():
    # only the constraint orthogonal to d: the hit must come from elsewhere
    uset = UncertaintySet.polytope(
        np.array([[-2.0, 1.0], [1.0, 1.0]]), np.array([5.0, 10.0]), [2.0, 6.0]
    )
    lam = chord_length(uset, [2.0, 6.0], D1)
    # (-2, 1) @ d == 0, so the first row never binds
    assert lam == pytest.approx(2.0 / D1.sum(), abs=1e-9)


def test_box_chords():
    box = UncertaintySet.box([5.0, 5.0], [3.0, 2.0])  # x1 in [2,8], x2 in [3,7]
    assert chord_length(box, [5.0, 5.0], [1.0, 0.0]) == pytest.approx(3.0, abs=1e-12)
    assert chord_length(box, [5.0, 5.0], [0.0, 1.0]) == pytest.approx(2.0, abs=1e-12)
    assert chord_length(box, [8.0, 5.0], [1.0, 0.0]) == 0.0


def test_box_as_polytope_matches_closed_form():
    rng = np.random.default_rng(42)
    c = np.array([5.0, 5.0, 4.0])
    w = np.array([3.0, 2.0, 1.5])
    box = UncertaintySet.box(c, w)
    rows_a = np.vstack([np.eye(3), -np.eye(3)])
    rows_b = np.concatenate([c + w, -(c - w)])
    poly = UncertaintySet.polytope(rows_a, rows_b, c)
    for _ in range(300):
        p = rng.uniform(c - w, c + w)
        d = rng.uniform(-1, 1, 3)
        d /= np.linalg.norm(d)
        assert chord_length(box, p, d) == pytest.approx(
            chord_length(poly, p, d), abs=1e-10
        )


def test_rhombus_matches_explicit_constraints():
    rng = np.random.default_rng(43)
    c = np.array([5.0, 5.0])
    w = np.array([3.0, 1.0])
    rho = UncertaintySet.rhombus(c, w)
    signs = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    rows_a = signs / w
    rows_b = 1.0 + rows_a @ c
    poly = UncertaintySet.polytope(rows_a, rows_b, c)
    for _ in range(300):
        while True:
            p = rng.uniform(c - w, c + w)
            if contains(rho, p):
                break
        d = rng.uniform(-1, 1, 2)
        d /= np.linalg.norm(d)
        assert chord_length(rho, p, d) == pytest.approx(
            chord_length(poly, p, d), abs=1e-10
        )


def test_degenerate_box_chord_is_zero():
    point = UncertaintySet.box([5.0, 5.0], [0.0, 0.0])
    assert chord_length(point, [5.0, 5.0], [1.0, 0.0]) == 0.0
    assert point.is_point


def test_ellipsoid_chords():
    ell = UncertaintySet.ellipsoid([5.0, 5.0], [3.0, 1.0])
    assert chord_length(ell, [5.0, 5.0], [1.0, 0.0]) == pytest.approx(3.0, abs=1e-12)
    assert chord_length(ell, [5.0, 5.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
    assert chord_length(ell, [6.5, 5.0], [1.0, 0.0]) == pytest.approx(1.5, abs=1e-12)


def test_sphere_symmetry():
    sphere = UncertaintySet.ellipsoid([10.0, 10.0, 10.0], [2.0, 2.0, 2.0])
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        lam = chord_length(sphere, sphere.center, d)
        assert lam == pytest.approx(2.0, abs=1e-10)


def test_rhombus_chords():
    rho = UncertaintySet.rhombus([5.0, 5.0], [3.0, 1.0])
    assert chord_length(rho, [5.0, 5.0], [1.0, 0.0]) == pytest.approx(3.0, abs=1e-12)
    assert chord_length(rho, [5.0, 5.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
    s = 1.0 / np.sqrt(2.0)
    assert chord_length(rho, [5.0, 5.0], [s, s]) == pytest.approx(
        3.0 * np.sqrt(2.0) / 4.0, abs=1e-12
    )


def test_rhombus_dimension_cap():
    with pytest.raises(UnsupportedDimensionError):
        UncertaintySet.rhombus(np.ones(25), np.ones(25))


def test_contains_examples():
    box = UncertaintySet.box([5.0, 5.0], [3.0, 2.0])
    assert contains(box, [5.0, 5.0])
    assert not contains(box, [9.0, 5.0])
    ell = UncertaintySet.ellipsoid([5.0, 5.0], [3.0, 1.0])
    assert contains(ell, [8.0, 5.0])  # boundary counts as inside


def test_nesting_box_ellipsoid_rhombus():
    c = np.array([5.0, 6.0, 7.0])
    w = np.array([2.0, 1.0, 3.0])
    box = UncertaintySet.box(c, w)
    ell = UncertaintySet.ellipsoid(c, w)
    rho = UncertaintySet.rhombus(c, w)
    rng = np.random.default_rng(4)
    points = rng.uniform(c - 1.2 * w, c + 1.2 * w, size=(2000, 3))
    for p in points:
        if contains(rho, p):
            assert contains(ell, p)
        if contains(ell, p):
            assert contains(box, p)


def _sample_interior(uset, rng):
    lo = np.maximum(uset.center - uset.semi_axes, 0.0)
    hi = uset.center + uset.semi_axes
    while True:
        p = rng.uniform(lo, hi)
        if contains(uset, p, tol=-1e-9):
            return p


def test_boundary_bracketing_all_shapes():
    rng = np.random.default_rng(8)
    c = np.array([4.0, 5.0, 6.0])
    w = np.array([2.5, 1.5, 3.0])
    shapes = [
        UncertaintySet.box(c, w),
        UncertaintySet.ellipsoid(c, w),
        UncertaintySet.rhombus(c, w),
        UncertaintySet.superellipsoid(c, w, (1.5, 2.5)),
    ]
    for uset in shapes:
        for _ in range(1000):
            p = _sample_interior(uset, rng)
            d = rng.uniform(-1, 1, 3)
            norm = np.linalg.norm(d)
            if norm == 0:
                continue
            d /= norm
            lam = chord_length(uset, p, d)
            assert contains(uset, p + lam * d)
            assert not contains(uset, p + (lam + 1e-6) * d)


def test_orthant_clips_the_chord():
    box = UncertaintySet.box([1.0, 1.0], [5.0, 5.0])  # would extend to -4
    lam = chord_length(box, [1.0, 1.0], [-1.0, 0.0])
    assert lam == pytest.approx(1.0, abs=1e-12)
    ell = UncertaintySet.ellipsoid([1.0, 1.0], [5.0, 5.0])
    lam = chord_length(ell, [1.0, 1.0], [-1.0, 0.0])
    assert lam == pytest.approx(1.0, abs=1e-12)


def test_chord_requires_interior_point():
    box = UncertaintySet.box([5.0, 5.0], [1.0, 1.0])
    with pytest.raises(ValidationError):
        chord_length(box, [9.0, 5.0], np.array([1.0, 0.0]))


def test_chord_requires_unit_direction(pentagon):
    with pytest.raises(ValidationError):
        chord_length(pentagon, [2.0, 6.0], np.array([0.2, 0.4]))


def test_unbounded_polytope_direction_detected():
    """A half-plane is unbounded, so it is refused when it is built."""
    with pytest.raises(ValidationError, match="do not bound the set"):
        UncertaintySet.polytope(np.array([[-1.0, 0.0]]), np.array([0.0]), [1.0, 1.0])


@pytest.mark.parametrize("rows_a, rows_b, center", [
    ([[1.0, 0.0]], [5.0], [0.5, 0.5]),  # x1 <= 5: y is free
    ([[1, 1, 0], [5, -1, 0], [-2, 1, 0]], [10, 10, 5], [2, 6, 1]),  # free in the third
    ([[1.0, -1.0], [-1.0, 1.0]], [1.0, 1.0], [1.0, 1.0]),  # a strip along (1, 1)
    ([[0.0, 0.0]], [1.0], [1.0, 1.0]),  # a row that bounds nothing
])
def test_unbounded_polytopes_are_rejected(rows_a, rows_b, center):
    with pytest.raises(ValidationError, match="polytope rows and the orthant do not bound"):
        UncertaintySet.polytope(rows_a, rows_b, center)
    bounded = UncertaintySet.polytope(np.vstack([rows_a, np.ones(len(center))]),
                                      np.append(rows_b, 2.0 * sum(center) + 1.0), center)
    assert bounded.rows_a.shape == (len(rows_b) + 1, len(center))


@pytest.mark.parametrize("rows_a, rows_b", [
    ([[1.0, np.inf]], [5.0]), ([[1.0, 1.0]], [np.inf]),
    ([[1.0, np.nan], [0.0, 1.0]], [5.0, 5.0]), ([[1.0, 0.0], [0.0, 1.0]], [5.0, np.nan]),
])
def test_non_finite_polytope_rows_are_rejected(rows_a, rows_b):
    with pytest.raises(ValidationError, match="polytope rows must be finite"):
        UncertaintySet.polytope(rows_a, rows_b, [0.5, 0.5])


@pytest.mark.parametrize("shape, fields", [
    ("point", {}), ("box", {"semi_axes": 0.5}), ("ellipsoid", {"semi_axes": 0.5}),
    ("rhombus", {"semi_axes": 0.5}),
    ("polytope", {"rows_a": np.eye(3), "rows_b": [3.0, 3.0, 3.0]}),
    ("superellipsoid", {"semi_axes": 0.5, "orders": (2.0, 2.0)}),
])
def test_every_shape_carries_an_xi_law(shape, fields):
    assert UncertaintySet(shape, [1.0, 1.0, 1.0], **fields).xi_law == "uniform"
    for law in XI_LAWS:
        assert UncertaintySet(shape, [1.0, 1.0, 1.0], **fields, xi_law=law).xi_law == law
    with pytest.raises(ValidationError, match=r"unknown xi law 'cauchy'; expected one of"):
        UncertaintySet(shape, [1.0, 1.0, 1.0], **fields, xi_law="cauchy")


def test_superellipsoid_boundary_points():
    se = UncertaintySet.superellipsoid([5.0, 5.0, 5.0], [3.0, 2.0, 4.0], (2.0, 2.0))
    for d, end in [([1.0, 0.0, 0.0], [8.0, 5.0, 5.0]), ([0.0, -1.0, 0.0], [5.0, 3.0, 5.0]),
                   ([0.0, 0.0, 1.0], [5.0, 5.0, 9.0])]:
        hit = se.center + chord_length(se, se.center, d) * np.array(d)
        np.testing.assert_allclose(hit, end, atol=1e-12)


def superellipsoid_chords(se, count, seed):
    """count chords of se from random inside points along random unit directions."""
    rng = np.random.default_rng(seed)
    P = se.center + se.semi_axes * rng.uniform(-1.0, 1.0, (10 * count, 3))
    P = P[contains_many(SetStack([se] * len(P)), P) & (P >= 0.0).all(axis=1)][:count]
    assert len(P) == count
    D = rng.normal(size=(count, 3))
    D /= np.linalg.norm(D, axis=1)[:, None]
    return P, D, chord_lengths(SetStack([se] * count), P, D)


@pytest.mark.parametrize(
    "orders", [(2.0, 2.0), (1.0, 1.0), (4.0, 4.0), (2.0, 3.0), (1.5, 4.0), (1.5, 2.5)]
)
def test_superellipsoid_boundary_satisfies_set_equation(orders):
    """Chord ends lie on g = 1, except where the orthant caps the chord first;
    the set reaches past the orthant along x."""
    se = UncertaintySet.superellipsoid([2.0, 5.0, 5.0], [3.0, 2.0, 4.0], orders)
    o1, o2 = orders
    P, D, lam = superellipsoid_chords(se, 200, 17)
    ends = P + lam[:, None] * D
    t = np.abs(ends - se.center) / se.semi_axes
    value = (t[:, 0] ** o1 + t[:, 1] ** o1) ** (o2 / o1) + t[:, 2] ** o2
    capped = ends.min(axis=1) < 1e-12
    assert 0 < capped.sum() < len(P)
    np.testing.assert_allclose(value[~capped], 1.0, rtol=0, atol=1e-9)
    assert np.all(value[capped] <= 1.0 + 1e-9) and np.all(ends >= -1e-12)


@pytest.mark.parametrize("orders, shape", [((2.0, 2.0), "ellipsoid"), ((1.0, 1.0), "rhombus")])
def test_superellipsoid_chord_matches_its_closed_form_twin(orders, shape):
    """Equal within 1e-12 relative.  The bisection and the gauge it evaluates
    resolve the root to about one ulp of the box chord (at most 8 here), so a
    start point within ~1e-4 of the boundary agrees only to the 1e-14 floor."""
    c, w = [2.0, 5.0, 5.0], [3.0, 2.0, 4.0]
    P, D, lam = superellipsoid_chords(UncertaintySet.superellipsoid(c, w, orders), 3000, 5)
    twin = getattr(UncertaintySet, shape)(c, w)
    np.testing.assert_allclose(lam, chord_lengths(SetStack([twin] * 3000), P, D),
                               rtol=1e-12, atol=1e-14)


def test_superellipsoid_validation():
    with pytest.raises(ValidationError):
        UncertaintySet.superellipsoid([5.0, 5.0, 5.0], [3.0, 2.0, 4.0], (0.0, 2.0))
    with pytest.raises(UnsupportedDimensionError):
        UncertaintySet.superellipsoid([5.0, 5.0], [3.0, 2.0], (2.0, 2.0))


@pytest.mark.parametrize("orders", [(np.nan, 2.0), (2.0, np.inf), (0.5, 0.5), (0.0, 2.0)])
def test_superellipsoid_orders_must_be_finite_and_at_least_one(orders):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="two finite numbers >= 1"):
            UncertaintySet.superellipsoid([5.0, 5.0, 5.0], [3.0, 2.0, 4.0], orders)


def test_polytope_with_its_interior_point_outside_raises():
    # The point is finite and in the orthant, so only the membership test
    # can reject it.
    with pytest.raises(ValidationError, match="set center must belong to the set"):
        UncertaintySet.polytope(PENTAGON_A, PENTAGON_B, interior_point=[20.0, 6.0])


def test_center_must_be_inside_and_nonnegative():
    with pytest.raises(ValidationError):
        UncertaintySet.box([-1.0, 5.0], [1.0, 1.0])
    with pytest.raises(ValidationError):
        UncertaintySet.polytope(np.array([[1.0, 0.0]]), np.array([1.0]), [2.0, 0.0])


# What each shape needs besides its center, at CENTER3, and every field a
# set may carry.  The polytope's rows hold CENTER3.
CENTER3 = [2.0, 3.0, 4.0]
NEEDED = {
    "point": {},
    "box": {"semi_axes": [0.5, 0.2, 0.0]},
    "ellipsoid": {"semi_axes": [0.5, 0.2, 0.0]},
    "rhombus": {"semi_axes": [0.5, 0.2, 0.0]},
    "polytope": {"rows_a": np.eye(3), "rows_b": [9.0, 9.0, 9.0]},
    "superellipsoid": {"semi_axes": [0.5, 0.2, 0.1], "orders": (2.0, 2.0)},
}
FIELDS = {"semi_axes": [0.5, 0.5, 0.5], "rows_a": np.eye(3), "rows_b": [9.0, 9.0, 9.0],
          "orders": (2.0, 2.0)}


@pytest.mark.parametrize("shape, field", [(shape, field) for shape, needed in NEEDED.items()
                                          for field in FIELDS if field not in needed])
def test_a_field_the_shape_does_not_take_is_named(shape, field):
    UncertaintySet(shape, CENTER3, **NEEDED[shape])
    with pytest.raises(ValidationError) as err:
        UncertaintySet(shape, CENTER3, **NEEDED[shape], **{field: FIELDS[field]})
    assert str(err.value).startswith(f"{shape} takes no") and field in str(err.value)


@pytest.mark.parametrize("shape, field", [(shape, field) for shape, needed in NEEDED.items()
                                          for field in needed])
def test_a_field_the_shape_needs_is_named(shape, field):
    fields = {k: v for k, v in NEEDED[shape].items() if k != field}
    with pytest.raises(ValidationError) as err:
        UncertaintySet(shape, CENTER3, **fields)
    assert str(err.value).startswith(f"{shape} needs") and field in str(err.value)


def test_a_point_takes_all_zero_semi_axes():
    point = UncertaintySet("point", CENTER3, [0.0, 0.0, 0.0])
    assert point.is_point
    assert point.semi_axes.tobytes() == UncertaintySet.point(CENTER3).semi_axes.tobytes()
    with pytest.raises(ValidationError, match="point takes no nonzero"):
        UncertaintySet("point", CENTER3, 0.5)


@pytest.mark.parametrize("shape", ["box", "ellipsoid", "rhombus", "superellipsoid"])
def test_a_scalar_or_one_element_semi_axis_applies_to_every_coordinate(shape):
    orders = (2.0, 2.0) if shape == "superellipsoid" else None
    full = UncertaintySet(shape, CENTER3, [0.5, 0.5, 0.5], orders=orders)
    for w in (0.5, [0.5], np.array([0.5])):
        one = UncertaintySet(shape, CENTER3, w, orders=orders)
        assert one.semi_axes.tobytes() == full.semi_axes.tobytes()
    with pytest.raises(ValidationError, match="semi-axes must match"):
        UncertaintySet(shape, CENTER3, [0.5, 0.5], orders=orders)


def test_superellipsoid_orders_are_stored_as_floats():
    uset = UncertaintySet("superellipsoid", CENTER3, 0.5, orders=[2, np.float64(3)])
    assert uset.orders == (2.0, 3.0) and all(type(o) is float for o in uset.orders)


@pytest.mark.parametrize("shape", ["point", "box", "ellipsoid", "rhombus", "polytope"])
def test_a_slice_holds_the_points_of_the_set_at_the_center_of_the_rest(shape):
    center = np.array([2.0, 3.0, 4.0, 1.5])
    w = np.array([0.5, 1.0, 0.0, 0.6])
    if shape == "polytope":
        uset = UncertaintySet.polytope(
            np.vstack([np.eye(4), -np.eye(4), [[1.0, 0.0, 1.0, 1.0]]]),
            np.r_[center + 1.0, 1.0 - center, center.sum() - center[1] + 0.5], center)
    else:
        uset = UncertaintySet(shape, center, None if shape == "point" else w, xi_law="triangular")
    keep = np.array([True, True, True, False])
    sliced = uset.slice(keep)
    assert sliced.shape == shape and sliced.xi_law == uset.xi_law
    assert np.array_equal(sliced.center, center[:3])
    if shape != "polytope":
        assert np.array_equal(sliced.semi_axes, uset.semi_axes[:3])
    points = center[:3] + np.random.default_rng(3).uniform(-1.2, 1.2, size=(400, 3))
    for p in points:
        assert contains(sliced, p) == contains(uset, np.r_[p, center[3]])
