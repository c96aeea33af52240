from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from hrdea import sampler
from hrdea.errors import ValidationError
from hrdea.geometry import XI_LAWS, UncertaintySet, chord_length, contains
from hrdea.sampler import (
    RngStream,
    WalkState,
    Walker,
    hr_sample,
    hr_step,
    philox_words,
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


@pytest.mark.parametrize("start", ["center", "", "Centroid"])
def test_start_string_other_than_centroid_rejected(start):
    box = UncertaintySet.box([5.0, 5.0], [1.0, 1.0])
    with pytest.raises(ValidationError, match="centroid"):
        hr_sample(box, start=start, t=3, rng=RngStream(0))


def test_start_outside_rejected():
    box = UncertaintySet.box([5.0, 5.0], [1.0, 1.0])
    with pytest.raises(ValidationError):
        hr_sample(box, start=[9.0, 9.0], t=3, rng=RngStream(0))


def test_direction_laws():
    """A drawn step moves along its stream's uniform(-1, 1) words, normalized."""
    wide = UncertaintySet.box(np.full(4, 5.0), [3.0, 2.0, 1.0, 4.0])
    walker = Walker([wide])
    move = walker.step(wide.center[None], 1, [2])[0] - wide.center
    d = -1.0 + 2.0 * walker.uniforms(1, [2])[0, :4]
    np.testing.assert_allclose(move / (move @ d), d / (d @ d), rtol=1e-12)
    box = UncertaintySet.box([5.0, 5.0], [3.0, 2.0])
    for p in hr_sample(box, t=100, rng=RngStream(8)):
        assert contains(box, p)


def test_xi_laws():
    box = UncertaintySet.box([5.0, 5.0], [3.0, 2.0])
    assert box.xi_law == "uniform"
    uni = hr_sample(box, t=200, rng=RngStream(3))
    tri = hr_sample(replace(box, xi_law="triangular"), t=200, rng=RngStream(3))
    assert not np.array_equal(uni, tri)
    with pytest.raises(ValidationError, match="unknown xi law 'cauchy'"):
        replace(box, xi_law="cauchy")


def test_hr_step_checks_the_point_dimension():
    """A point of the wrong dimension is named as such, on every set, the
    point set and a forced step included."""
    for uset in (PENTAGON, UncertaintySet.point([1.0, 2.0])):
        for point in ([2.0, 6.0, 1.0], [2.0]):
            state = WalkState(point=np.array(point))
            with pytest.raises(ValidationError, match="point dimension does not match the set"):
                hr_step(uset, state, RngStream(0))
    with pytest.raises(ValidationError, match="point dimension does not match the set"):
        hr_step(PENTAGON, WalkState(point=np.array([2.0, 6.0, 1.0])),
                direction=np.array([0.2, 0.4, 0.0]), xi=0.5)


def test_burn_in_and_thinning():
    box = UncertaintySet.box([5.0, 5.0], [3.0, 2.0])
    full = hr_sample(box, t=30, rng=RngStream(21))
    thinned = hr_sample(box, t=10, rng=RngStream(21), thin=3)
    np.testing.assert_array_equal(thinned, full[2::3])
    burned = hr_sample(box, t=20, rng=RngStream(21), burn_in=10)
    np.testing.assert_array_equal(burned, full[10:])


def test_superellipsoid_step_fixture():
    se = UncertaintySet.superellipsoid([5.0, 5.0, 5.0], [3.0, 2.0, 4.0], (2.0, 2.0))
    state, d = WalkState(point=np.array([5.0, 5.0, 5.0])), np.array([1.0, 0.0, 0.0])
    mid = hr_step(se, state, direction=d, xi=0.5)
    np.testing.assert_allclose(mid.point, [6.5, 5.0, 5.0], atol=1e-12)
    edge = hr_step(se, state, direction=d, xi=1.0)
    np.testing.assert_allclose(edge.point, [8.0, 5.0, 5.0], atol=1e-12)
    still = hr_step(se, state, direction=d, xi=0.0)
    np.testing.assert_array_equal(still.point, state.point)


def test_superellipsoid_membership_and_orthant():
    se = UncertaintySet.superellipsoid([0.5, 5.0, 5.0], [3.0, 2.0, 4.0], (2.0, 2.0))
    samples = hr_sample(se, t=3000, rng=RngStream(31))
    assert np.all(samples >= -1e-9)
    assert all(contains(se, p) for p in samples)


# --- the world kernel against a serial reference walk -----------------------

MASK64 = (1 << 64) - 1


def reference_chord(uset, p, d):
    """The chord from p along d, one set at a time, with 1-d dot products."""
    def first_hit(num, den):
        lam = num[den > 1e-12] / den[den > 1e-12]
        return max(np.min(lam[lam >= -1e-6]), 0.0)

    inward = d < -1e-12
    cap = max(np.min(p[inward] / -d[inward]), 0.0) if inward.any() else np.inf
    if uset.shape == "polytope":
        a = np.vstack([uset.rows_a, -np.eye(uset.z)])
        return first_hit(np.concatenate([uset.rows_b, np.zeros(uset.z)]) - a @ p, a @ d)
    if uset.shape == "superellipsoid":  # the bisection rule is checked in test_geometry
        return chord_length(uset, p, d)
    free = uset.active
    c, w, pa, da = uset.center[free], uset.semi_axes[free], p[free], d[free]
    if not (np.abs(da) > 1e-12).any():
        return 0.0
    if uset.shape == "box":
        lo = np.maximum(c - w, 0.0)
        return first_hit(np.concatenate([c + w - pa, pa - lo]), np.concatenate([da, -da]))
    if uset.shape == "ellipsoid":
        da, dev = da / w, (pa - c) / w
        phi, psi, sigma = da @ da, 2.0 * (dev @ da), dev @ dev - 1.0
        root = (-psi + np.sqrt(max(psi * psi - 4.0 * phi * sigma, 0.0))) / (2.0 * phi)
        return min(max(root, 0.0), cap)
    signs = 1.0 - 2.0 * ((np.arange(2**da.size)[:, None] >> np.arange(da.size)) & 1)
    a = signs / w  # the rhombus faces
    return min(first_hit(1.0 - a @ (pa - c), a @ da), cap)


def reference_step(uset, p, rng):
    """One stochastic step drawn through RngStream.generator(), word by word
    as a serial walk draws it: the direction, then xi, then both chords."""
    if uset.is_point:
        return p
    assert contains(uset, p)
    gen = rng.generator()
    u = gen.uniform(-1.0, 1.0, int(np.count_nonzero(uset.active)))
    d = np.zeros(uset.z)
    d[uset.active] = u / np.linalg.norm(u)
    forward = reference_chord(uset, p, d)
    xi = gen.uniform() if uset.xi_law == "uniform" else gen.triangular(0.0, 0.5, 1.0)
    backward = reference_chord(uset, p, -d)
    return p + (xi * (forward + backward) - backward) * d


def mixed_world(z, n=36, seed=0):
    """n sets of dimension z cycling through every shape (a superellipsoid
    only at z = 3), some with gap-style frozen coordinates, and both xi laws:
    every third set walks with the triangular law."""
    rng = np.random.default_rng(seed + z)
    shapes = ["box", "ellipsoid", "rhombus", "polytope", "point", "box"]
    if z == 3:
        shapes.append("superellipsoid")
    sets = []
    for j in range(n):
        shape = shapes[j % len(shapes)]
        c = rng.uniform(0.5, 5.0, z)
        w = rng.uniform(0.1, 1.5, z) * c  # some sets reach past the orthant
        if shape == "polytope":
            a = rng.normal(size=(4, z))
            rows = np.vstack([a, np.eye(z), -np.eye(z)])
            b = np.concatenate([a @ c + rng.uniform(0.2, 1.0, 4), c + w, w - c])
            sets.append(UncertaintySet.polytope(rows, b, c))
        elif shape == "point":
            sets.append(UncertaintySet.point(c))
        elif shape == "superellipsoid":
            sets.append(UncertaintySet.superellipsoid(c, w, (1.5, 2.5)))
        else:
            if j % 4 == 1:  # a gap-style set: only some coordinates are uncertain
                w[rng.permutation(z)[: max(1, z // 2)]] = 0.0
            sets.append(getattr(UncertaintySet, shape)(c, w))
    return [replace(u, xi_law="triangular") if j % 3 == 2 else u for j, u in enumerate(sets)]


@pytest.mark.parametrize("z", [2, 3, 5])
def test_world_kernel_matches_serial_walk(z):
    sets = mixed_world(z)
    n, seed = len(sets), 11
    walker = Walker(sets)
    if z == 5:
        assert walker.blocks == 2  # five direction words and xi span two blocks
    kernel = np.array([u.center for u in sets])
    serial = kernel.copy()
    for ell in range(1, 51):
        kernel = walker.step(kernel, seed, range(ell * n, ell * n + n))
        serial = np.array([reference_step(sets[j], serial[j], RngStream(seed, ell * n + j))
                           for j in range(n)])
        assert np.array_equal(kernel, serial), f"world {ell}"
    assert all(contains(u, p) for u, p in zip(sets, kernel))


@pytest.mark.parametrize("law", XI_LAWS)
def test_hr_sample_matches_serial_walk(law):
    """Every kept point, with and without burn-in and thinning, is the serial
    walk's, across more than two of the walk's draw-ahead blocks."""
    sets = mixed_world(3, n=7)
    burn_in, thin, t = 17, 3, 25
    assert burn_in + t * thin > 2 * sampler._DRAW_STEPS
    for uset in (replace(u, xi_law=law) for u in sets + [PENTAGON]):
        rng = RngStream(-5, 2**64 - 40)  # stream ids wrap past 2**64 on the way
        p, expected = uset.center, []
        for ell in range(1, burn_in + t * thin + 1):
            p = reference_step(uset, p, rng.child(ell))
            expected.append(p)
        expected = np.array(expected)
        assert np.array_equal(hr_sample(uset, t=60, rng=rng), expected[:60])
        kept = hr_sample(uset, t=t, rng=rng, burn_in=burn_in, thin=thin)
        assert np.array_equal(kept, expected[burn_in + thin - 1 :: thin])


def test_hr_step_forces_both_or_neither():
    state = WalkState(point=np.array([2.0, 6.0]))
    with pytest.raises(ValidationError):
        hr_step(PENTAGON, state, RngStream(0), direction=np.array([0.2, 0.4]))
    with pytest.raises(ValidationError):
        hr_step(PENTAGON, state, RngStream(0), xi=0.5)


def test_philox_words_match_numpy():
    streams = [0, 1, 2**63, 2**64 - 1]
    for seed in (-1, 2**63, 7):
        words = philox_words(seed, streams, 3)
        for row, stream in zip(words, streams):
            key = np.array([seed & MASK64, stream & MASK64], dtype=np.uint64)
            assert np.array_equal(row, np.random.Philox(key=key).random_raw(12))


def test_zero_direction_steps_along_the_first_free_coordinate(monkeypatch):
    """A member whose direction words are all exactly one half draws a zero
    direction: it steps along its first free coordinate with the xi it drew,
    while the other members keep their reference steps."""
    sets = mixed_world(3, n=8)
    n, seed, ell = len(sets), 4, 3
    streams = range(ell * n, ell * n + n)
    zeroed = {streams[0]: 0, streams[1]: 1}  # a box and a set with a frozen coordinate
    words = sampler.philox_words

    def all_half(seed, drawn, blocks):
        out = words(seed, drawn, blocks)
        for row, stream in enumerate(drawn):
            if stream in zeroed:  # (raw >> 11) * 2**-53 == 0.5, so -1 + 2u == 0
                out[row, : np.count_nonzero(sets[zeroed[stream]].active)] = 1 << 63
        return out

    monkeypatch.setattr(sampler, "philox_words", all_half)
    points = np.array([u.center for u in sets])
    moved = Walker(sets).step(points, seed, streams)
    assert not sets[1].active.all()
    for j in zeroed.values():
        axis = np.zeros(sets[j].z)
        axis[np.flatnonzero(sets[j].active)[0]] = 1.0
        gen = RngStream(seed, streams[j]).generator()
        gen.uniform(size=np.count_nonzero(sets[j].active))
        xi = gen.uniform() if sets[j].xi_law == "uniform" else gen.triangular(0.0, 0.5, 1.0)
        forward, backward = (reference_chord(sets[j], points[j], s * axis) for s in (1, -1))
        step = moved[j] - points[j]
        assert np.array_equal(step != 0.0, axis != 0.0) and contains(sets[j], moved[j])
        np.testing.assert_allclose(step, (xi * (forward + backward) - backward) * axis,
                                   rtol=1e-12, atol=1e-12)
    for j in set(range(n)) - set(zeroed.values()):
        expected = reference_step(sets[j], points[j], RngStream(seed, streams[j]))
        assert np.array_equal(moved[j], expected)


# --- the stationary law of every shape ---------------------------------------

C3, W3 = np.array([4.0, 5.0, 6.0]), np.array([2.0, 1.0, 3.0])
LAW_SETS = {
    "box": UncertaintySet.box(C3, W3),
    "ellipsoid": UncertaintySet.ellipsoid(C3, W3),
    "rhombus": UncertaintySet.rhombus(C3, W3),
    "polytope": UncertaintySet.polytope(  # a box with one corner cut off
        np.vstack([np.eye(3), -np.eye(3), np.ones((1, 3))]),
        np.concatenate([C3 + W3, W3 - C3, [C3.sum() + 2.0]]), C3),
    "unit ball": UncertaintySet.superellipsoid([2.0, 2.0, 2.0], 1.0, (2.0, 2.0)),
    "superellipsoid": UncertaintySet.superellipsoid(C3, W3, (1.5, 2.5)),
}


def minkowski_gauge(uset, points):
    """The gauge r of each point about the set's center: the set is r <= 1."""
    dev = points - uset.center
    if uset.shape == "polytope":
        a, b = uset.rows_a, uset.rows_b
        return (dev @ a.T / (b - a @ uset.center)).max(axis=1)
    t = np.abs(dev / uset.semi_axes)
    if uset.shape == "box":
        return t.max(axis=1)
    if uset.shape == "ellipsoid":
        return np.sqrt((t * t).sum(axis=1))
    if uset.shape == "rhombus":
        return t.sum(axis=1)
    o1, o2 = uset.orders  # g is homogeneous of degree o2
    return ((t[:, 0] ** o1 + t[:, 1] ** o1) ** (o2 / o1) + t[:, 2] ** o2) ** (1.0 / o2)


@pytest.mark.parametrize("name", list(LAW_SETS))
def test_walk_law_is_uniform(name):
    """Independent chains from the center end uniformly distributed in the set.

    A uniform point of a z-dimensional set has gauge r with P(r <= q) = q^z,
    so r^z is uniform on [0, 1].  A chi^2 test over its four quartile bins at
    the 0.999 critical value raises a false alarm with probability 0.001 per
    case under the exact law; the fixed seed makes each run deterministic.
    """
    uset, chains, steps = LAW_SETS[name], 4000, 40
    walker = Walker([uset] * chains)
    points = np.tile(uset.center, (chains, 1))
    for ell in range(1, steps + 1):
        points = walker.step(points, 23, range(ell * chains, (ell + 1) * chains))
    u = minkowski_gauge(uset, points) ** uset.z
    assert u.max() <= 1.0 + 1e-9
    counts = np.bincount(np.minimum(4 * u, 3).astype(int), minlength=4)
    chi2 = float(((counts - chains / 4) ** 2 / (chains / 4)).sum())
    assert chi2 < stats.chi2.ppf(0.999, 3), f"{name}: chi2 {chi2:.1f}, counts {counts}"
