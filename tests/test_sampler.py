import numpy as np
import pytest

from hrdea.errors import ValidationError
from hrdea.geometry import UncertaintySet, contains
from hrdea.sampler import (
    RngStream,
    WalkState,
    draw_direction,
    hr_sample,
    hr_step,
    superellipsoid_step,
)

PENTAGON = UncertaintySet.polytope(
    np.array([[1.0, 1.0], [5.0, -1.0], [-2.0, 1.0]]),
    np.array([10.0, 10.0, 5.0]),
    interior_point=[2.0, 6.0],
)


def test_worked_walk_on_the_pentagon():
    d1 = np.array([0.2, 0.4])
    state = WalkState(point=np.array([2.0, 6.0]))
    state = hr_step(PENTAGON, state, direction=d1, xi=0.6)
    np.testing.assert_allclose(state.point, [2.4, 6.8], atol=1e-12)
    state = hr_step(PENTAGON, state, direction=np.array([0.5, -0.5]), xi=0.75)
    np.testing.assert_allclose(state.point, [3.0, 31.0 / 5.0], atol=1e-9)
    assert state.iteration == 2


def test_zero_xi_keeps_the_point():
    state = WalkState(point=np.array([2.0, 6.0]))
    out = hr_step(PENTAGON, state, direction=np.array([0.3, 0.1]), xi=0.0)
    np.testing.assert_array_equal(out.point, state.point)
    assert out.iteration == 1


def test_point_set_never_moves():
    point = UncertaintySet.point([1.0, 2.0])
    state = WalkState(point=np.array([1.0, 2.0]))
    out = hr_step(point, state, rng=RngStream(0, 0))
    np.testing.assert_array_equal(out.point, state.point)
    samples = hr_sample(point, t=5, rng=RngStream(3))
    np.testing.assert_array_equal(samples, np.tile([1.0, 2.0], (5, 1)))


def test_box_sample_membership_and_mean():
    box = UncertaintySet.box([5.0, 5.0], [3.0, 2.0])
    samples = hr_sample(box, t=1000, rng=RngStream(2))
    for p in samples:
        assert contains(box, p)
    # oracle: plain rejection/uniform sampling over the same box
    gen = np.random.default_rng(99)
    reference = gen.uniform([2.0, 3.0], [8.0, 7.0], size=(20000, 2)).mean(axis=0)
    np.testing.assert_allclose(reference, [5.0, 5.0], atol=0.05)
    np.testing.assert_allclose(samples.mean(axis=0), [5.0, 5.0], atol=0.15)


def test_reproducibility_bitwise():
    box = UncertaintySet.box([5.0, 5.0], [3.0, 2.0])
    a = hr_sample(box, t=50, rng=RngStream(42, 7))
    b = hr_sample(box, t=50, rng=RngStream(42, 7))
    assert np.array_equal(a, b)
    c = hr_sample(box, t=50, rng=RngStream(42, 8))
    assert not np.array_equal(a, c)


def test_membership_across_shapes():
    c = np.array([4.0, 5.0, 6.0])
    w = np.array([2.0, 1.0, 3.0])
    shapes = [
        UncertaintySet.box(c, w),
        UncertaintySet.ellipsoid(c, w),
        UncertaintySet.rhombus(c, w),
        PENTAGON,
    ]
    for uset in shapes:
        samples = hr_sample(uset, t=2000, rng=RngStream(5))
        for p in samples:
            assert contains(uset, p)


def test_partially_fixed_dimensions_stay_fixed():
    box = UncertaintySet.box([5.0, 7.0], [2.0, 0.0])
    samples = hr_sample(box, t=500, rng=RngStream(9))
    assert np.all(samples[:, 1] == 7.0)
    assert samples[:, 0].std() > 0.1


def test_start_outside_rejected():
    box = UncertaintySet.box([5.0, 5.0], [1.0, 1.0])
    with pytest.raises(ValidationError):
        hr_sample(box, start=[9.0, 9.0], t=3, rng=RngStream(0))


def test_direction_laws():
    gen = RngStream(1, 2).generator()
    d = draw_direction(gen, 4)
    assert d.shape == (4,)
    assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)
    box = UncertaintySet.box([5.0, 5.0], [3.0, 2.0])
    for p in hr_sample(box, t=100, rng=RngStream(8)):
        assert contains(box, p)


def test_xi_laws():
    box = UncertaintySet.box([5.0, 5.0], [3.0, 2.0])
    uni = hr_sample(box, t=200, rng=RngStream(3), xi_law="uniform")
    tri = hr_sample(box, t=200, rng=RngStream(3), xi_law="triangular")
    assert not np.array_equal(uni, tri)
    with pytest.raises(ValidationError):
        hr_sample(box, t=5, rng=RngStream(3), xi_law="cauchy")


def test_burn_in_and_thinning():
    box = UncertaintySet.box([5.0, 5.0], [3.0, 2.0])
    full = hr_sample(box, t=30, rng=RngStream(21))
    thinned = hr_sample(box, t=10, rng=RngStream(21), thin=3)
    np.testing.assert_array_equal(thinned, full[2::3])
    burned = hr_sample(box, t=20, rng=RngStream(21), burn_in=10)
    np.testing.assert_array_equal(burned, full[10:])


def test_superellipsoid_step_fixture():
    se = UncertaintySet.superellipsoid([5.0, 5.0, 5.0], [3.0, 2.0, 4.0], (2.0, 2.0))
    state = WalkState(point=np.array([5.0, 5.0, 5.0]))
    mid = superellipsoid_step(se, state, psi=0.0, phi=0.0, xi=0.5)
    np.testing.assert_allclose(mid.point, [6.5, 5.0, 5.0], atol=1e-12)
    edge = superellipsoid_step(se, state, psi=0.0, phi=0.0, xi=1.0)
    np.testing.assert_allclose(edge.point, [8.0, 5.0, 5.0], atol=1e-12)
    still = superellipsoid_step(se, state, psi=1.1, phi=-0.3, xi=0.0)
    np.testing.assert_array_equal(still.point, state.point)


def test_superellipsoid_membership_and_orthant():
    se = UncertaintySet.superellipsoid([0.5, 5.0, 5.0], [3.0, 2.0, 4.0], (2.0, 2.0))
    state = WalkState(point=se.center.copy())
    for ell in range(1, 3000):
        state = superellipsoid_step(se, state, RngStream(31, ell))
        assert np.all(state.point >= -1e-9)
        assert contains(se, state.point)


def test_superellipsoid_step_requires_shape():
    box = UncertaintySet.box([5.0, 5.0], [1.0, 1.0])
    with pytest.raises(ValidationError):
        superellipsoid_step(box, WalkState(point=np.array([5.0, 5.0])), RngStream(0))
