"""DEA model tests; the hand-solvable fixtures are checked against
brute-force grid oracles before the simplex answer is trusted."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from hrdea import dea, lp
from hrdea.baselines import generate_scenario
from hrdea.dataset import Direction, from_arrays
from hrdea.dea import (
    BATCH_BYTES,
    directional_distance,
    distances,
    interval_dea_bounds,
    solve_directional,
    solve_weak_disposability,
    weak_disposability_distance,
)
from hrdea.errors import LpError, ValidationError
from hrdea.pipeline import INPUT_FLOOR, _column_distances
from hrdea.sampler import RngStream


def brute_force_directional(X, Y, xk, yk, dx, dy, grid=None):
    """Grid search over intensity vectors maximizing the feasible distance.

    Only for tiny fixtures: enumerates mu on a simplex grid and, for each,
    the largest D keeping all constraints satisfiable with slacks.
    """
    n = X.shape[1]
    if grid is None:
        grid = np.linspace(0.0, 1.0, 101)
    best = -np.inf
    if n == 1:
        weights = [np.array([1.0])]
    elif n == 2:
        weights = [np.array([w, 1.0 - w]) for w in grid]
    else:
        raise NotImplementedError
    for mu in weights:
        caps = []
        for i in range(X.shape[0]):
            lhs = X[i] @ mu
            if dx[i] > 0:
                caps.append((xk[i] - lhs) / dx[i])
            elif lhs > xk[i] + 1e-12:
                caps.append(-np.inf)
        for r in range(Y.shape[0]):
            lhs = Y[r] @ mu
            if dy[r] > 0:
                caps.append((lhs - yk[r]) / dy[r])
            elif lhs < yk[r] - 1e-12:
                caps.append(-np.inf)
        d = min(caps) if caps else -np.inf
        best = max(best, d)
    return max(best, 0.0)


def brute_force_weak(X, Y, U, xk, yk, uk, dx, dy, du, step=0.01):
    """Grid over (alpha, beta) pairs for two DMUs in the abatement model."""
    best = 0.0
    alphas = np.arange(0.0, 1.0 + step / 2, step)
    for a1 in alphas:
        for a2 in alphas:
            if a1 + a2 > 1.0 + 1e-12:
                continue
            # beta mass is free on the convexity constraint; inputs only.
            rest = 1.0 - a1 - a2
            alpha = np.array([a1, a2])
            caps = []
            feasible = True
            for h in range(U.shape[0]):
                lhs = U[h] @ alpha
                if du[h] > 0:
                    caps.append((uk[h] - lhs) / du[h])
                elif abs(lhs - uk[h]) > 1e-9:
                    feasible = False
            for r in range(Y.shape[0]):
                lhs = Y[r] @ alpha
                if dy[r] > 0:
                    caps.append((lhs - yk[r]) / dy[r])
                elif lhs < yk[r] - 1e-12:
                    feasible = False
            for i in range(X.shape[0]):
                # put all beta mass on the DMU with the smallest input
                lhs = X[i] @ alpha + rest * X[i].min()
                if dx[i] > 0:
                    caps.append((xk[i] - lhs) / dx[i])
                elif lhs > xk[i] + 1e-12:
                    feasible = False
            if not feasible:
                continue
            d = min(caps) if caps else 0.0
            if d >= 0:
                best = max(best, d)
    return best


@pytest.fixture
def two_dmu():
    return from_arrays(X=[[1.0, 2.0]], Y=[[1.0, 1.0]], dmu_ids=["A", "B"])


def test_brute_force_oracle_two_dmu(two_dmu):
    data = two_dmu
    dx = np.array([2.0])  # input orientation at B
    dy = np.array([0.0])
    oracle = brute_force_directional(data.X, data.Y, data.X[:, 1], data.Y[:, 1], dx, dy)
    assert oracle == pytest.approx(0.5, abs=1e-9)
    oracle_a = brute_force_directional(
        data.X, data.Y, data.X[:, 0], data.Y[:, 0], np.array([1.0]), dy
    )
    assert oracle_a == pytest.approx(0.0, abs=1e-9)


def test_directional_two_dmu_matches_oracle(two_dmu):
    d = Direction.input_oriented()
    sol_b = solve_directional(two_dmu, 1, d)
    assert sol_b.distance == pytest.approx(0.5, abs=1e-9)
    assert sol_b.intensities[0] == pytest.approx(1.0, abs=1e-9)
    assert sol_b.slacks_x[0] == pytest.approx(0.0, abs=1e-9)
    sol_a = solve_directional(two_dmu, 0, d)
    assert sol_a.distance == pytest.approx(0.0, abs=1e-9)


def test_single_dmu_is_its_own_hull():
    data = from_arrays(X=[[3.0]], Y=[[2.0]])
    sol = solve_directional(data, 0, Direction.proportional())
    assert sol.distance == pytest.approx(0.0, abs=1e-12)
    assert sol.intensities[0] == pytest.approx(1.0, abs=1e-9)


def test_weak_disposability_oracle_and_solver():
    data = from_arrays(X=[[1.0, 1.0]], Y=[[1.0, 1.0]], U=[[1.0, 2.0]], dmu_ids=["A", "B"])
    dxb = np.array([0.0])
    dyb = np.array([0.0])
    dub = np.array([2.0])
    oracle = brute_force_weak(
        data.X, data.Y, data.U, data.X[:, 1], data.Y[:, 1], data.U[:, 1], dxb, dyb, dub
    )
    assert oracle == pytest.approx(0.5, abs=1e-9)
    sol_b = solve_weak_disposability(data, 1, Direction.custom([0.0], [0.0], [2.0]))
    assert sol_b.distance == pytest.approx(0.5, abs=1e-9)
    assert sol_b.targets_u[0] == pytest.approx(1.0, abs=1e-7)
    sol_a = solve_weak_disposability(data, 0, Direction.custom([0.0], [0.0], [1.0]))
    assert sol_a.distance == pytest.approx(0.0, abs=1e-9)


def test_weak_single_dmu():
    data = from_arrays(X=[[1.0]], Y=[[1.0]], U=[[1.0]])
    sol = solve_weak_disposability(data, 0, Direction.proportional())
    assert sol.distance == pytest.approx(0.0, abs=1e-12)
    assert sol.alpha[0] + sol.beta[0] == pytest.approx(1.0, abs=1e-9)


def test_weak_requires_undesirables(two_dmu):
    with pytest.raises(ValidationError):
        solve_weak_disposability(two_dmu, 0, Direction.proportional())


def test_masked_data_rejected():
    ds = from_arrays(X=[[1.0, 2.0]], Y=[[1.0, 1.0]])
    masked = dataclasses.replace(ds, X=np.array([[np.nan, 2.0]]))
    with pytest.raises(ValidationError):
        solve_directional(masked, 1, Direction.input_oriented())


def test_interval_bounds_fixture(two_dmu):
    lower = np.array([[1.0, 1.5], [1.0, 1.0]])
    upper = np.array([[1.0, 2.5], [1.0, 1.0]])
    d = Direction.input_oriented()
    d_low, d_high = interval_dea_bounds(two_dmu, lower, upper, d)
    assert d_low[1] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert d_high[1] == pytest.approx(0.6, abs=1e-9)
    assert d_low[0] == pytest.approx(0.0, abs=1e-9)
    assert d_high[0] == pytest.approx(0.0, abs=1e-9)


def test_interval_bounds_degenerate_equal_plain(two_dmu):
    d = Direction.input_oriented()
    plain = solve_directional(two_dmu, 1, d).distance
    d_low, d_high = interval_dea_bounds(two_dmu, two_dmu.stacked(), two_dmu.stacked(), d)
    assert d_low[1] == pytest.approx(plain, abs=1e-9)
    assert d_high[1] == pytest.approx(plain, abs=1e-9)


def test_interval_bounds_crossed_rejected(two_dmu):
    lower = np.array([[1.0, 3.0], [1.0, 1.0]])
    upper = np.array([[1.0, 2.5], [1.0, 1.0]])
    with pytest.raises(ValidationError, match="crossed interval bounds"):
        interval_dea_bounds(two_dmu, lower, upper, Direction.input_oriented())


def test_interval_bounds_shape_rejected(two_dmu):
    """Both bounds stack the inputs over the outputs, one column per DMU."""
    stacked = two_dmu.stacked()
    for lower, upper in ((two_dmu.X, two_dmu.X), (stacked, stacked[:, :1]),
                         (stacked[:, :1], stacked[:, :1])):
        with pytest.raises(ValidationError, match=r"\(m \+ s, n\)"):
            interval_dea_bounds(two_dmu, lower, upper, Direction.input_oriented())


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cell, label", [(0, "inputs"), (1, "inputs"), (2, "outputs"),
                                         (3, "outputs")])
def test_interval_bounds_non_finite_rejected(two_dmu, value, cell, label):
    """An even cell is a lower bound, an odd one an upper bound."""
    bounds = [two_dmu.stacked(), two_dmu.stacked()]
    bounds[cell % 2][{"inputs": 0, "outputs": two_dmu.m}[label], 1] = value
    with pytest.raises(ValidationError, match="interval bounds must be finite"):
        interval_dea_bounds(two_dmu, *bounds, Direction.input_oriented())


def _random_instance(rng, n=None, m=None, s=None):
    n = n or int(rng.integers(2, 12))
    m = m or int(rng.integers(1, 4))
    s = s or int(rng.integers(1, 3))
    X = rng.uniform(0.5, 10.0, size=(m, n))
    Y = rng.uniform(0.5, 10.0, size=(s, n))
    return from_arrays(X, Y)


def test_always_feasible_and_nonnegative():
    rng = np.random.default_rng(5150)
    d = Direction.proportional()
    for _ in range(30):
        data = _random_instance(rng)
        for k in range(data.n):
            sol = solve_directional(data, k, d)
            assert sol.distance >= -1e-12
            assert sol.intensities.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(sol.slacks_x >= -1e-9) and np.all(sol.slacks_y >= -1e-9)
            dx, dy, _ = d.resolve(data, k)
            np.testing.assert_array_less(
                sol.targets_x, data.X[:, k] - sol.distance * dx + 1e-7
            )
            np.testing.assert_array_less(
                data.Y[:, k] + sol.distance * dy, sol.targets_y + 1e-7
            )


def test_units_invariance_of_proportional_direction():
    rng = np.random.default_rng(77)
    data = _random_instance(rng, n=8, m=2, s=2)
    d = Direction.proportional()
    base = [solve_directional(data, k, d).distance for k in range(data.n)]
    scaled = from_arrays(data.X * np.array([[3.7], [1.0]]), data.Y)
    for k in range(data.n):
        assert solve_directional(scaled, k, d).distance == pytest.approx(
            base[k], abs=1e-9
        )


def test_dominated_dmu_is_inefficient():
    rng = np.random.default_rng(123)
    for _ in range(10):
        data = _random_instance(rng, n=6)
        X = data.X.copy()
        Y = data.Y.copy()
        # make DMU 0 strictly dominated by DMU 1
        X[:, 0] = X[:, 1] * 1.3
        Y[:, 0] = Y[:, 1] * 0.7
        dominated = from_arrays(X, Y)
        sol = solve_directional(dominated, 0, Direction.proportional())
        assert sol.distance > 1e-9


def test_distance_invariant_to_slack_weight():
    rng = np.random.default_rng(2024)
    data = _random_instance(rng, n=9, m=2, s=2)
    d = Direction.proportional()
    for k in range(data.n):
        base = solve_directional(data, k, d, eps=1e-6)
        for eps in (1e-8, 1e-7, 1e-5):
            sol = solve_directional(data, k, d, eps=eps)
            assert sol.distance == pytest.approx(base.distance, abs=1e-9)


# --- the batched world solve --------------------------------------------

DIRECTIONS = {
    "input": Direction.input_oriented(),
    "output": Direction.output_oriented(),
    "proportional": Direction.proportional(),
    "custom": Direction.custom([1.0, 0.5], [2.0]),
}


def highs_distance(X, Y, xk, yk, dx, dy) -> float:
    """The plain model from its formulation, solved by HiGHS:

        max D  s.t.  X lam <= xk - D dx,  Y lam >= yk + D dy,  sum(lam) = 1,
                     lam >= 0,  D free.

    The direction is first scaled to a largest component of one, and D back
    by the same factor: HiGHS takes a coefficient below 1e-9 as zero, and a
    direction resolved at a cell floored to INPUT_FLOOR has one of 1e-12.
    HiGHS's feasibility tolerances are tightened from 1e-7 to 1e-10: at 1e-7
    a box 1e-9 wide reads as D = 1e-9 where D = 0.  An infeasible LP gives
    -inf.
    """
    scale = max(dx.max(), dy.max())
    dx, dy = dx / scale, dy / scale
    m, n = X.shape
    c = np.zeros(n + 1)
    c[n] = -1.0
    a_ub = np.block([[X, dx[:, None]], [-Y, dy[:, None]]])
    b_ub = np.concatenate([xk, -yk])
    a_eq = np.concatenate([np.ones(n), [0.0]])[None, :]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0.0, None)] * n + [(None, None)], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status == 2:
        return -np.inf
    assert res.status == 0, res.message
    return float(-res.fun) / scale


def scenario_world(rng, n):
    """Two inputs and one output, drawn as in Scenario I."""
    x1 = 10.0 + 5.0 * rng.uniform(size=n)
    x2 = 20.0 + 10.0 * np.abs(rng.normal(size=n))
    y1 = 5.0 * np.sqrt(x1) * x2**0.7 * (1.0 - rng.uniform(size=n))
    return np.vstack([x1, x2, y1])


def check_world(points, direction, m=2, s=1):
    """The world's batch against each member as a batch of one (same bits)
    and against HiGHS (1e-9 relative to max(1, |D|)); returns the batch."""
    batch = _column_distances(points[: m + s], m, s, direction)
    floored = np.maximum(points, INPUT_FLOOR)
    X, Y = floored[:m], floored[m : m + s]
    dx, dy, _ = direction.resolve_at(X, Y)
    n = points.shape[1]
    single = [directional_distance(X, Y, X[:, k], Y[:, k], dx[:, k], dy[:, k], anchor=k)
              for k in range(n)]
    assert np.array_equal(batch, single)
    oracle = np.array([highs_distance(X, Y, X[:, k], Y[:, k], dx[:, k], dy[:, k])
                       for k in range(n)])
    np.testing.assert_array_less(np.abs(batch - oracle), 1e-9 * np.maximum(1.0, np.abs(oracle)))
    return batch


@pytest.mark.parametrize("n", [1, 2, 30, 80])
@pytest.mark.parametrize("mode", sorted(DIRECTIONS))
def test_world_batch_matches_single_solves_and_highs(mode, n):
    if n == 80:  # the world must cross a chunk edge of the batched solve
        assert n > BATCH_BYTES // ((2 + 1 + 2) * (n + 2 + 1 + 2) * 8)
    points = scenario_world(np.random.default_rng(1000 + n), n)
    batch = check_world(points, DIRECTIONS[mode])
    if n == 1:
        assert batch[0] == 0.0


@pytest.mark.parametrize("mode", sorted(DIRECTIONS))
def test_world_batch_duplicates_ties_and_floored_cells(mode):
    points = scenario_world(np.random.default_rng(31), 30)
    # Three DMUs on one frontier facet, the third the midpoint of the others.
    points[:, 4] = [5.0, 10.0, 400.0]
    points[:, 5] = [10.0, 5.0, 400.0]
    points[:, 6] = [7.5, 7.5, 400.0]
    points[:, 1] = points[:, 4]  # a duplicate of an efficient DMU
    points[:, 2] = points[:, 3]  # a duplicate of an arbitrary DMU
    # Floored to INPUT_FLOOR.  (A DMU floored in every cell is left out:
    # HiGHS takes its 1e-12 coefficients as zero and misses its distance.)
    points[0, 7] = 0.0
    points[2, 8] = 0.0
    batch = check_world(points, DIRECTIONS[mode])
    assert np.all(batch[[1, 4, 5, 6]] == 0.0)


# Sampled world 94 of the run-box-n100 benchmark workload at seed 7, cut
# down to the 8 DMUs that keep one DMU (D011 there, 1 here) pivoting past
# BLAND_AFTER under Dantzig's rule, so that its LP finishes under Bland's.
CYCLING_WORLD = np.array([
    [
        11.178815644202173, 10.676175865496194, 15.292837300159604, 9.769926134145672,
        9.996998028527768, 14.146169979767471, 12.91902624458953, 10.630470105370362,
    ],
    [
        40.79821635470682, 21.10855462504388, 30.750473386953143, 21.268105521821237,
        20.45120776766349, 17.6587451133506, 24.50698748255495, 19.183254946062284,
    ],
    [
        47.6675806924268, 121.75559265695003, 182.18018403817325, 7.06949567024137,
        104.76949274266248, 85.98589470831907, 169.27218493200655, 115.47959276370776,
    ],
])


def test_batch_member_past_bland_after_finishes_under_bland(monkeypatch):
    # The pivot rounds of each batch_simplex call; a call that makes more
    # than BLAND_AFTER of them finished a member under Bland's rule.
    rounds = []
    pivots = [0]
    run, pivot = dea.batch_simplex, lp._pivot

    def spy(T, basis, ncols):
        before = pivots[0]
        try:
            return run(T, basis, ncols)
        finally:
            rounds.append(pivots[0] - before)

    def counted(T, basis, row, col):
        pivots[0] += 1
        pivot(T, basis, row, col)

    def past_bland_after():
        return sum(count > lp.BLAND_AFTER for count in rounds)

    monkeypatch.setattr(dea, "batch_simplex", spy)
    monkeypatch.setattr(lp, "_pivot", counted)
    # DMU 0 is dominated; over the other columns no member cycles.
    check_world(CYCLING_WORLD, Direction.proportional())
    assert rounds and past_bland_after() == 0
    # With no candidate columns, DMU 1's pricing fails and it is solved
    # again over all columns, where it cycles as before.
    rounds.clear()
    monkeypatch.setattr(dea, "_nondominated", lambda X, Y: np.arange(0))
    check_world(CYCLING_WORLD, Direction.proportional())
    # once in the world's batch, once in DMU 1's batch of one
    assert past_bland_after() == 2


def all_columns(monkeypatch, X, Y, dx, dy):
    """The world's distances, every member solved over all columns."""
    with monkeypatch.context() as patch:
        patch.setattr(dea, "_nondominated", lambda X, Y: np.arange(X.shape[1]))
        none = Y[:0]
        return distances(X, Y, none, X, Y, none, dx, dy, none, np.arange(X.shape[1]))


def assert_relative(value, reference, rtol=1e-12):
    close = np.abs(value - reference) <= rtol * np.abs(reference)
    assert close.all(), (value[~close], reference[~close])


def test_nondominated_keeps_the_first_of_duplicates():
    X = np.array([[1.0, 2.0, 1.0, 1.0, 3.0, 2.0]])
    Y = np.array([[1.0, 2.0, 1.0, 0.5, 2.0, 2.0]])
    # 2 and 5 repeat 0 and 1, 3 is dominated by 0, 4 by 1
    assert dea._nondominated(X, Y).tolist() == [0, 1]
    assert dea._nondominated(X[:, :1], Y[:, :1]).tolist() == [0]


def spy_candidate_sets(monkeypatch):
    """A list that records (candidate columns, members) of every batch
    ``_eq1_tableaux`` builds from now on."""
    solved = []
    build = dea._eq1_tableaux

    def spy(Z, sign, p, d, a, cols):
        solved.append((cols.size, a.shape[1]))
        return build(Z, sign, p, d, a, cols)

    monkeypatch.setattr(dea, "_eq1_tableaux", spy)
    return solved


def frame_dmu(X, Y, direction):
    """The DMU carrying the most weight in the projections of the others."""
    data = from_arrays(X, Y)
    weight = np.zeros(data.n)
    for k in range(data.n):
        mu = solve_directional(data, k, direction).intensities
        mu[k] = 0.0
        weight += mu
    return int(np.argmax(weight))


@pytest.mark.parametrize("mode", sorted(DIRECTIONS))
def test_pricing_sends_a_member_missing_a_frame_dmu_to_all_columns(mode, monkeypatch):
    direction = DIRECTIONS[mode]
    points = scenario_world(np.random.default_rng(41), 30)
    X, Y = points[:2], points[2:]
    dx, dy, _ = direction.resolve_at(X, Y)
    reference = all_columns(monkeypatch, X, Y, dx, dy)
    drop = frame_dmu(X, Y, direction)
    nondominated = dea._nondominated
    assert drop in nondominated(X, Y)
    monkeypatch.setattr(dea, "_nondominated",
                        lambda X, Y: np.setdiff1d(nondominated(X, Y), [drop]))
    solved = spy_candidate_sets(monkeypatch)
    batch = check_world(points, direction)
    fallback = sum(members for size, members in solved if size == 30)
    assert fallback > 0
    assert_relative(batch, reference)


@pytest.mark.parametrize("mode", sorted(DIRECTIONS))
def test_dominated_and_duplicate_anchors_match_all_columns(mode, monkeypatch):
    direction = DIRECTIONS[mode]
    points = scenario_world(np.random.default_rng(43), 60)
    twin = dea._nondominated(points[:2], points[2:])[-1]
    points[:, 1] = points[:, twin]  # a duplicate: 1 is kept, twin is not
    points[:, 9] = points[:, 8]  # a duplicate of a dominated DMU
    points[0, 7] = 0.0  # floored to INPUT_FLOOR
    points[1, 12] = 0.0
    points[2, 13] = 0.0
    floored = np.maximum(points, INPUT_FLOOR)
    X, Y = floored[:2], floored[2:]
    nondominated = dea._nondominated(X, Y)
    assert 1 in nondominated and twin not in nondominated and 9 not in nondominated
    assert nondominated.size < 60 // 2
    dx, dy, _ = direction.resolve_at(X, Y)
    # Small chunks: the batch crosses chunk edges.
    monkeypatch.setattr(dea, "BATCH_BYTES", 4096)
    batch = check_world(points, direction)
    assert_relative(batch, all_columns(monkeypatch, X, Y, dx, dy))


# --- the frame path of a large world ------------------------------------

@pytest.mark.parametrize("mode", sorted(DIRECTIONS))
def test_world_tests_through_the_frame_path(mode, monkeypatch):
    """The world tests above with chunks of one member, so that every world
    of two or more DMUs takes the frame path."""
    monkeypatch.setattr(dea, "BATCH_BYTES", 1)
    assert dea._chunk(3, 2) == 1
    for n in (1, 2, 30, 80):
        test_world_batch_matches_single_solves_and_highs(mode, n)
    test_world_batch_duplicates_ties_and_floored_cells(mode)


def spy_passes(monkeypatch):
    """A list that records the candidate columns and member count of every
    ``_distances`` call from now on."""
    passes = []
    solve = dea._distances

    def spy(Z, sign, cols, p, *args, **kwargs):
        passes.append((cols.copy(), p.shape[1]))
        return solve(Z, sign, cols, p, *args, **kwargs)

    monkeypatch.setattr(dea, "_distances", spy)
    return passes


def large_world(scenario, seed):
    """A Scenario I-III world of 300 DMUs with two duplicated DMUs, one of
    them on the frontier, and zero cells floored to INPUT_FLOOR, among them
    two zero outputs."""
    points = generate_scenario(scenario, 300, RngStream(seed)).stacked()
    efficient = dea._nondominated(points[:2], points[2:])[0]
    points[:, 5] = points[:, efficient]
    points[:, 9] = points[:, 8]
    points[2, [20, 21]] = 0.0
    points[0, 22] = 0.0
    floored = np.maximum(points, INPUT_FLOOR)
    return floored[:2], floored[2:]


@pytest.mark.parametrize("mode", ["output", "proportional"])
@pytest.mark.parametrize("scenario", ["I", "II", "III"])
def test_frame_path_matches_the_single_pass(scenario, mode, monkeypatch):
    X, Y = large_world(scenario, 70 + len(scenario))
    dx, dy, _ = DIRECTIONS[mode].resolve_at(X, Y)
    passes = spy_passes(monkeypatch)
    frame = dea.world_distances(X, Y, Y[:0], dx, dy, dy[:0])
    nondominated = dea._nondominated(X, Y)
    # Two passes: the nondominated members over the nondominated columns,
    # then the other members over the columns at distance 0.
    (first, members), (second, rest) = passes
    assert np.array_equal(first, nondominated) and members == nondominated.size
    assert np.array_equal(second, nondominated[frame[nondominated] == 0.0])
    assert rest == 300 - nondominated.size and second.size < first.size
    passes.clear()
    monkeypatch.setattr(dea, "BATCH_BYTES", 1 << 40)
    single = dea.world_distances(X, Y, Y[:0], dx, dy, dy[:0])
    assert len(passes) == 1
    assert np.array_equal(frame[nondominated], single[nondominated])
    assert np.abs(frame - single).max() <= 1e-12 * np.abs(single).max(initial=1.0)
    assert_relative(frame[single > 0], single[single > 0])
    assert np.array_equal(frame == 0.0, single == 0.0)
    if mode == "output":  # a floored output lies 1e12 times its direction away
        assert single[20] > 1e10


@pytest.mark.parametrize("mode", sorted(DIRECTIONS))
def test_frame_missing_a_column_is_priced_back_to_all_columns(mode, monkeypatch):
    direction = DIRECTIONS[mode]
    X, Y = large_world("I", 73)
    dx, dy, _ = direction.resolve_at(X, Y)
    reference = all_columns(monkeypatch, X, Y, dx, dy)
    drop = frame_dmu(X, Y, direction)
    solve, calls = dea._distances, []

    def lose_one(Z, sign, cols, p, *args, **kwargs):
        calls.append(1)
        if len(calls) == 2:  # the second pass, over the frame
            assert drop in cols
            cols = cols[cols != drop]
        return solve(Z, sign, cols, p, *args, **kwargs)

    monkeypatch.setattr(dea, "_distances", lose_one)
    solved = spy_candidate_sets(monkeypatch)
    batch = dea.world_distances(X, Y, Y[:0], dx, dy, dy[:0])
    assert sum(members for size, members in solved if size == 300) > 0
    assert_relative(batch, reference)


def old_short_mask(u, conv, a, Z):
    """The pricing test as first written: price < -PIVOT_TOL (1 + size)."""
    ua = u * a.T
    price = (u[:, None] @ Z)[:, 0] + (conv - ua.sum(1))[:, None]
    size = (np.abs(u)[:, None] @ Z)[:, 0] + (np.abs(ua).sum(1) + np.abs(conv))[:, None]
    return (price < -lp.PIVOT_TOL * (1.0 + size)).any(axis=1)


def test_rearranged_pricing_gives_the_old_short_mask():
    rng = np.random.default_rng(5)
    r, n, b = 3, 300, 4000
    Z = rng.lognormal(2.0, 1.5, size=(r, n))
    a = Z[:, rng.integers(0, n, size=b)]
    u = rng.normal(size=(b, r)) * rng.lognormal(0.0, 3.0, size=(b, 1))
    # Random duals: some members price short, some do not.
    conv = rng.normal(size=b) * np.abs(u).sum(1) * 30.0
    mask = dea._prices_short(u, conv, a, Z)
    assert np.array_equal(mask, old_short_mask(u, conv, a, Z))
    assert 0 < mask.sum() < b
    # Near-boundary duals: the y_conv at which the most negative column
    # meets the tolerance exactly, moved by 1e-12 of the size of its terms,
    # far above rounding and far below PIVOT_TOL.
    tol, ua = lp.PIVOT_TOL, u * a.T
    A = (u[:, None] @ Z)[:, 0] - ua.sum(1)[:, None]
    B = 1.0 + (np.abs(u)[:, None] @ Z)[:, 0] + np.abs(ua).sum(1)[:, None]
    root = -(A + tol * B)
    root = np.where(root >= 0.0, root / (1.0 + tol), root / (1.0 - tol))
    at = root.argmax(axis=1)
    edge = root[np.arange(b), at]
    step = np.where(rng.uniform(size=b) < 0.5, -1e-12, 1e-12) * B[np.arange(b), at]
    conv = edge + step
    mask = dea._prices_short(u, conv, a, Z)
    assert np.array_equal(mask, old_short_mask(u, conv, a, Z))
    assert np.array_equal(mask, step < 0.0)


def test_interval_lower_bounds_match_a_swapped_copy_loop():
    rng = np.random.default_rng(47)
    super_efficient = 0
    for n, mode in zip((2, 12, 40, 40), sorted(DIRECTIONS)):
        lower = scenario_world(rng, n)
        upper = lower * rng.uniform(1.0, 1.3, size=lower.shape)
        upper[:, 0] = lower[:, 0]  # a DMU known exactly
        direction = DIRECTIONS[mode]
        d_low, _ = interval_dea_bounds(from_arrays(lower[:2], lower[2:]), lower, upper,
                                       direction)
        dx, dy, _ = direction.resolve_at(lower[:2], upper[2:])
        loop = np.empty(n)
        for k in range(n):
            X, Y = upper[:2].copy(), lower[2:].copy()
            X[:, k], Y[:, k] = lower[:2, k], upper[2:, k]
            loop[k] = directional_distance(X, Y, X[:, k], Y[:, k], dx[:, k], dy[:, k], k)
        super_efficient += int(np.sum(loop == 0.0))
        assert_relative(d_low, loop)
    assert super_efficient > 0


def test_batch_rejects_anchor_that_does_not_dominate():
    X = np.array([[1.0, 2.0]])
    Y = np.array([[1.0, 1.0]])
    none = Y[:0, [0]]
    with pytest.raises(ValidationError):
        distances(X, Y, Y[:0], X[:, [0]], Y[:, [0]], none, X[:, [0]], Y[:, [0]], none, [1])


def test_single_distance_rejects_anchor_that_does_not_dominate():
    X = np.array([[1.0, 2.0]])
    Y = np.array([[1.0, 1.0]])
    with pytest.raises(ValidationError):
        directional_distance(X, Y, X[:, 0], Y[:, 0], X[:, 0], Y[:, 0], anchor=1)


# A weak-model world at hospital magnitudes (beds and staff in the hundreds,
# outputs in the thousands): a pooled 27 x 4 panel drawn like the
# weak-panel-n108 benchmark workload with inputs x500, outputs x5000 and the
# undesirable output x500 (seed 14), cut down to the 7 DMUs that keep the
# cold solve of DMU 3's distance phase off Ax = b.  Without the residual
# check, that cold solve returned 0.1747 for DMU 3, where HiGHS gives 0.0746.
HOSPITAL_WORLD = np.array([
    [
        285.4511076408349, 125.70778015516682, 1845.816745284963, 644.0582561181857,
        640.8983902952051, 2049.8874321111107, 1877.2380999274114,
    ],
    [
        323.82452590086166, 109.21062917569017, 2086.478867996864, 596.9061367269181,
        664.5443822723844, 1843.617754200813, 1949.5168335948663,
    ],
    [
        2758.794839982768, 978.9446044582035, 11346.099134153796, 5183.613065506569,
        6664.008920768675, 16015.923851291467, 20416.62873550511,
    ],
    [
        2689.8956542009105, 1013.5850353824704, 11724.822572787421, 4317.971646174193,
        5975.660883282099, 19403.494175675893, 20214.667642376582,
    ],
    [
        228.158196820007, 138.13107042897565, 1418.4145729868517, 678.6473109527687,
        976.6277483449195, 2787.231069133534, 969.1986862718204,
    ],
])


# The final basis a cold two-phase solve of DMU 3's distance phase reached,
# in the column order (alpha, beta, D, gx, gy) of the equality form below.
# Solved from the unpivoted columns, its x_B has negative entries.
HOSPITAL_COLD_BASIS = [15, 18, 14, 0, 2, 6]


def test_basic_solution_of_the_cold_hospital_basis_raises():
    # DMU 3's distance phase in equality form, the proportional direction
    # scaled to unit magnitude.
    X, Y, U = HOSPITAL_WORLD[:2], HOSPITAL_WORLD[2:4], HOSPITAL_WORLD[4:]
    p = HOSPITAL_WORLD[:, 3]
    d = p / p.max()
    n = X.shape[1]
    A = np.block([
        [X, X, d[:2, None], np.eye(2), np.zeros((2, 2))],
        [Y, np.zeros_like(Y), -d[2:4, None], np.zeros((2, 2)), -np.eye(2)],
        [U, np.zeros_like(U), d[4:, None], np.zeros((1, 4))],
        [np.ones((1, 2 * n)), np.zeros((1, 5))],
    ])
    b = np.r_[p, 1.0]
    real = np.ones((1, len(b)), dtype=bool)
    with pytest.raises(LpError, match="violates Ax = b"):
        lp.basic_solution(A[:, HOSPITAL_COLD_BASIS][None], b[None], real)


def test_warm_weak_distance_of_the_hospital_world_matches_highs():
    X, Y, U = HOSPITAL_WORLD[:2], HOSPITAL_WORLD[2:4], HOSPITAL_WORLD[4:]
    for k in range(X.shape[1]):
        args = (X, Y, U, X[:, k], Y[:, k], U[:, k], X[:, k], Y[:, k], U[:, k])
        assert_matches(weak_disposability_distance(*args, anchor=k), highs_model(*args))
    args = (X, Y, U, X[:, 3], Y[:, 3], U[:, 3], X[:, 3], Y[:, 3], U[:, 3])
    assert weak_disposability_distance(*args, anchor=3) == pytest.approx(0.0746407245185,
                                                                         rel=1e-11)


def test_weak_distance_rejects_anchor_that_does_not_dominate():
    X, Y, U = np.array([[1.0, 2.0]]), np.array([[1.0, 1.0]]), np.array([[1.0, 1.0]])
    d = np.ones(1)
    with pytest.raises(ValidationError):  # more input than the point
        weak_disposability_distance(X, Y, U, X[:, 0], Y[:, 0], U[:, 0], d, d, d, anchor=1)
    with pytest.raises(ValidationError):  # other undesirable outputs
        weak_disposability_distance(X, Y, U, X[:, 1], Y[:, 1], 0.5 * U[:, 1], d, d, d,
                                    anchor=0)


# --- the models against HiGHS ----------------------------------------------

WEAK_DIRECTIONS = {**DIRECTIONS, "custom": Direction.custom([1.0, 0.5], [2.0], [1.5])}


def highs_model(X, Y, U, xk, yk, uk, dx, dy, du, dist=None) -> float:
    """The weak-disposability model from its formulation, solved by HiGHS:

        max D  s.t.  X (alpha + beta) <= xk - D dx,  Y alpha >= yk + D dy,
                     U alpha = uk - D du,  sum(alpha + beta) = 1,
                     alpha, beta >= 0,  D free.

    With U None, beta is fixed at zero and there are no U rows: the plain
    model.  With ``dist`` given, D is fixed there and the optimum returned
    is the slack phase's, the total slack
    sum(xk - D dx - X (alpha + beta)) + sum(Y alpha - yk - D dy).
    """
    n = X.shape[1]
    plain = U is None
    if plain:
        U, uk, du = np.zeros((0, n)), np.zeros(0), np.zeros(0)
    a_ub = np.block([[X, X, dx[:, None]], [-Y, np.zeros_like(Y), dy[:, None]]])
    b_ub = np.concatenate([xk, -yk])
    a_eq = np.zeros((U.shape[0] + 1, 2 * n + 1))
    a_eq[:-1, :n] = U
    a_eq[:-1, -1] = du
    a_eq[-1, :-1] = 1.0
    b_eq = np.append(uk, 1.0)
    bounds = [(0.0, None)] * n + [(0.0, 0.0 if plain else None)] * n
    if dist is None:
        c = np.zeros(2 * n + 1)
        c[-1] = -1.0
        const = 0.0
        bounds.append((None, None))
    else:
        c = np.concatenate([X.sum(axis=0) - Y.sum(axis=0), X.sum(axis=0), [0.0]])
        const = (xk - dist * dx).sum() - (yk + dist * dy).sum()
        bounds.append((dist, dist))
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    assert res.status == 0, res.message
    return float(-res.fun) + const


def assert_matches(value, oracle, rtol=1e-9):
    """Agreement within rtol (1e-9, as in check_world) relative to
    max(1, |oracle|)."""
    value, oracle = np.asarray(value, dtype=float), np.asarray(oracle, dtype=float)
    np.testing.assert_array_less(np.abs(value - oracle), rtol * np.maximum(1.0, np.abs(oracle)))


def assert_rows_hold(sol, data, k, direction):
    """The solution's targets and slacks satisfy every row of the model."""
    dx, dy, du = direction.resolve(data, k)
    d = sol.distance
    assert np.all(sol.intensities >= 0.0)
    assert np.all(sol.slacks_x >= 0.0) and np.all(sol.slacks_y >= 0.0)
    assert_matches(sol.targets_x + sol.slacks_x, data.X[:, k] - d * dx)
    assert_matches(sol.targets_y - sol.slacks_y, data.Y[:, k] + d * dy)
    assert_matches(sol.targets_u, data.U[:, k] - d * du)
    assert_matches(sol.intensities.sum(), 1.0)


def order_one_world(n):
    """Two inputs, one desirable and one undesirable output, all in [0.5, 2].

    From n = 3 on, DMUs 0 and 1 share the smallest inputs at different
    outputs and DMU 2 has twice those inputs: its input-oriented projection
    ties on intensities with different output slacks, so only the slack
    phase's objective picks the answer.
    """
    points = np.random.default_rng(2000 + n).uniform(0.5, 2.0, size=(4, n))
    if n >= 3:
        points[:, :3] = [[0.5, 0.5, 1.0], [0.5, 0.5, 1.0], [2.0, 1.0, 1.0], [1.0, 1.0, 1.0]]
    return points


@pytest.mark.parametrize("n", [2, 30])
@pytest.mark.parametrize("mode", sorted(DIRECTIONS))
def test_cold_plain_distance_matches_highs(mode, n):
    # Each DMU and a dominated version of it, off the data, both anchored
    # at the DMU's column.
    points = scenario_world(np.random.default_rng(3000 + n), n)
    X, Y = points[:2], points[2:]
    for xk, yk in ((X, Y), (1.2 * X, 0.8 * Y)):
        dx, dy, _ = DIRECTIONS[mode].resolve_at(xk, yk)
        for k in range(n):
            args = (X, Y, xk[:, k], yk[:, k], dx[:, k], dy[:, k])
            assert_matches(directional_distance(*args, anchor=k), highs_distance(*args))


@pytest.mark.parametrize("n", [2, 30])
@pytest.mark.parametrize("mode", sorted(DIRECTIONS))
def test_plain_slack_phase_matches_highs(mode, n):
    points = order_one_world(n)
    data = from_arrays(points[:2], points[2:3])
    direction = DIRECTIONS[mode]
    for k in range(n):
        sol = solve_directional(data, k, direction)
        dx, dy, _ = direction.resolve(data, k)
        args = (data.X, data.Y, None, data.X[:, k], data.Y[:, k], None, dx, dy, None)
        assert_matches(sol.distance, highs_model(*args))
        assert_matches(sol.slacks_x.sum() + sol.slacks_y.sum(),
                       highs_model(*args, dist=sol.distance))
        assert_rows_hold(sol, data, k, direction)


@pytest.mark.parametrize("n", [2, 30])
@pytest.mark.parametrize("mode", sorted(WEAK_DIRECTIONS))
def test_weak_model_matches_highs(mode, n):
    points = order_one_world(n)
    data = from_arrays(points[:2], points[2:3], points[3:])
    direction = WEAK_DIRECTIONS[mode]
    for k in range(n):
        dx, dy, du = direction.resolve(data, k)
        args = (data.X, data.Y, data.U, data.X[:, k], data.Y[:, k], data.U[:, k], dx, dy, du)
        oracle = highs_model(*args)
        assert_matches(weak_disposability_distance(*args, anchor=k), oracle)
        sol = solve_weak_disposability(data, k, direction)
        assert_matches(sol.distance, oracle)
        assert_matches(sol.slacks_x.sum() + sol.slacks_y.sum(),
                       highs_model(*args, dist=sol.distance))
        assert_rows_hold(sol, data, k, direction)
        assert_matches(sol.alpha + sol.beta, sol.intensities)


@pytest.mark.parametrize("n", [2, 5, 30])
@pytest.mark.parametrize("mode", sorted(DIRECTIONS.keys() - {"custom"}))
def test_weak_model_with_a_redundant_undesirable_row_matches_highs(mode, n):
    # U stacked over 2 U: the second undesirable row is redundant, and its
    # artificial stays basic through the distance and the slack phase.
    points = order_one_world(n)
    data = from_arrays(points[:2], points[2:3], np.vstack([points[3:], 2.0 * points[3:]]))
    direction = DIRECTIONS[mode]
    for k in range(n):
        dx, dy, du = direction.resolve(data, k)
        args = (data.X, data.Y, data.U, data.X[:, k], data.Y[:, k], data.U[:, k], dx, dy, du)
        sol = solve_weak_disposability(data, k, direction)
        assert_matches(sol.distance, highs_model(*args))
        assert_matches(sol.slacks_x.sum() + sol.slacks_y.sum(),
                       highs_model(*args, dist=sol.distance))
        assert_rows_hold(sol, data, k, direction)


@pytest.mark.parametrize("weak", [False, True])
def test_batch_of_dmus_matches_batches_of_one(weak, monkeypatch):
    # Small chunks, and a candidate set missing a frame DMU (for the weak
    # model, the second of its input-nondominated beta columns) so that some
    # members are solved again over all columns: every field of every
    # member has the bits of its batch of one.
    rng = np.random.default_rng(41)
    points = np.vstack([scenario_world(rng, 30), rng.uniform(0.5, 2.0, size=(1, 30))])
    data = from_arrays(points[:2], points[2:3], points[3:] if weak else None)
    direction = Direction.proportional()
    nondominated = dea._nondominated
    monkeypatch.setattr(dea, "_nondominated", lambda X, Y: np.delete(nondominated(X, Y), 1))
    monkeypatch.setattr(dea, "BATCH_BYTES", 4096)
    solved = spy_candidate_sets(monkeypatch)
    batch = dea._solve_dmus(data, range(30), direction)
    assert any(size == (2 if weak else 1) * 30 for size, _ in solved)
    solve = solve_weak_disposability if weak else solve_directional
    for k, sol in enumerate(batch):
        single = solve(data, k, direction)
        for field in dataclasses.fields(sol):
            a, b = getattr(sol, field.name), getattr(single, field.name)
            assert (a is None and b is None) or np.array_equal(a, b), (k, field.name)
        assert_rows_hold(sol, data, k, direction)


def check_weak_world(points, direction, m=2, s=1):
    """The weak model's world batch against each member as a batch of one
    (same bits) and against HiGHS; returns the batch."""
    batch = _column_distances(points, m, s, direction)
    floored = np.maximum(points, INPUT_FLOOR)
    X, Y, U = floored[:m], floored[m : m + s], floored[m + s :]
    dx, dy, du = direction.resolve_at(X, Y, U)
    args = [(X, Y, U, X[:, k], Y[:, k], U[:, k], dx[:, k], dy[:, k], du[:, k])
            for k in range(points.shape[1])]
    single = [weak_disposability_distance(*a, anchor=k) for k, a in enumerate(args)]
    assert np.array_equal(batch, single)
    assert_matches(batch, [max(highs_model(*a), 0.0) for a in args])
    return batch


@pytest.mark.parametrize("n", [1, 2, 30])
@pytest.mark.parametrize("mode", sorted(WEAK_DIRECTIONS))
def test_weak_world_batch_matches_single_solves_and_highs(mode, n):
    points = order_one_world(n)
    if n == 30:  # a duplicate DMU and floored cells
        points[:, 7] = points[:, 6]
        points[0, 8] = points[3, 9] = 0.0
    batch = check_weak_world(points, WEAK_DIRECTIONS[mode])
    if n == 1:
        assert batch[0] == 0.0
    # world_distances scores the weak world as those batches of one, bit for bit.
    X, Y, U = np.split(np.maximum(points, INPUT_FLOOR), [2, 3])
    assert np.array_equal(dea.world_distances(X, Y, U, *WEAK_DIRECTIONS[mode].resolve_at(X, Y, U)),
                          batch)


def test_weak_world_with_a_repeated_undesirable_row(monkeypatch):
    # The second row is the first again: once the first row's artificial is
    # pivoted out, the second row is zero in every priced column, redundant,
    # and keeps its artificial.
    points = order_one_world(30)
    once = check_weak_world(points, Direction.proportional())
    kept = []
    pivot = lp._pivot

    def spy(T, basis, row, col):
        kept.extend(col[col >= T.shape[2] - 3])  # the two artificials' columns
        pivot(T, basis, row, col)

    monkeypatch.setattr(lp, "_pivot", spy)
    twice = check_weak_world(np.vstack([points, points[3:]]), Direction.proportional())
    assert len(kept) == 2 * 30  # the world's batch and the batches of one
    assert_matches(twice, once)


def test_weak_batch_crosses_chunk_edges(monkeypatch):
    points = order_one_world(30)
    X, Y, U = points[:2], points[2:3], points[3:]
    anchors = np.arange(30)
    whole = distances(X, Y, U, X, Y, U, X, Y, U, anchors)
    monkeypatch.setattr(dea, "BATCH_BYTES", 4096)
    assert np.array_equal(distances(X, Y, U, X, Y, U, X, Y, U, anchors), whole)
    # A weak world larger than a chunk still takes the single pass.
    assert np.array_equal(dea.world_distances(X, Y, U, X, Y, U), whole)


def every_weak_column(patch):
    """Make every alpha and beta column a candidate of the weak model."""
    frame = dea._frame

    def every(X, Y, U):
        Z, sign, cols = frame(X, Y, U)
        return Z, sign, np.arange(Z.shape[1]) if len(U) else cols

    patch.setattr(dea, "_frame", every)


def weak_all_columns(monkeypatch, X, Y, U, dx, dy, du):
    """The world's weak distances, every member solved over all columns."""
    with monkeypatch.context() as patch:
        every_weak_column(patch)
        return distances(X, Y, U, X, Y, U, dx, dy, du,
                                            np.arange(X.shape[1]))


def weak_frame_column(data, direction, block):
    """The alpha or the beta column (its index among the 2n) carrying the
    most weight in the projections of the other DMUs."""
    weight = np.zeros(2 * data.n)
    for k, sol in enumerate(dea._solve_dmus(data, range(data.n), direction)):
        mu = np.concatenate([sol.alpha, sol.beta])
        mu[k] = 0.0  # the anchor's weight
        weight += mu
    first = 0 if block == "alpha" else data.n
    return first + int(np.argmax(weight[first : first + data.n]))


@pytest.mark.parametrize("block", ["alpha", "beta"])
@pytest.mark.parametrize("mode", sorted(WEAK_DIRECTIONS))
def test_weak_pricing_sends_a_member_missing_a_frame_column_to_all_columns(
    mode, block, monkeypatch
):
    direction = WEAK_DIRECTIONS[mode]
    points = order_one_world(30)
    data = from_arrays(points[:2], points[2:3], points[3:])
    X, Y, U = data.X, data.Y, data.U
    dx, dy, du = direction.resolve_at(X, Y, U)
    reference = weak_all_columns(monkeypatch, X, Y, U, dx, dy, du)
    drop = weak_frame_column(data, direction, block)
    frame = dea._frame

    def without(X, Y, U):
        Z, sign, cols = frame(X, Y, U)
        assert drop in cols
        return Z, sign, cols[cols != drop]

    monkeypatch.setattr(dea, "_frame", without)
    solved = spy_candidate_sets(monkeypatch)
    # The undesirable-row duals (the z-row at the artificials) of every
    # member solved over the candidate set: free in sign, so the pricing
    # bound must take their magnitude.
    duals = []
    run = dea.batch_simplex

    def spy(T, basis, ncols):
        out = run(T, basis, ncols)
        if solved[-1][0] < 2 * data.n:
            duals.append(T[:, -1, ncols:-1].copy())
        return out

    monkeypatch.setattr(dea, "batch_simplex", spy)
    batch = check_weak_world(points, direction)
    assert sum(members for size, members in solved if size == 2 * data.n) > 0
    assert (np.concatenate(duals) < -lp.PIVOT_TOL).any()
    assert_relative(batch, reference)


def test_weak_model_matches_highs_at_hospital_magnitudes():
    """Each row of the data at its own magnitude, 1e-2 to 1e4."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        n=st.integers(2, 12),
        mode=st.sampled_from(sorted(WEAK_DIRECTIONS)),
        data=st.data(),
    )
    def check(n, mode, data):
        points = data.draw(arrays(float, (4, n), elements=st.floats(0.5, 2.0)))
        exponents = data.draw(arrays(float, 4, elements=st.floats(-2.0, 4.0)))
        check_weak_world(points * 10.0 ** exponents[:, None], WEAK_DIRECTIONS[mode])

    check()


def hospital_panel(seed, scale):
    """The pooled 27 x 4 panel of the weak-panel-n108 benchmark workload
    drawn at ``seed`` (2 inputs, 2 outputs, 1 undesirable output), its
    inputs and undesirable output times ``scale``, its outputs times
    10 * ``scale``."""
    rng = np.random.default_rng(seed)
    size = rng.lognormal(0.0, 0.5, size=27)
    waves = []
    for _ in range(4):
        jitter = rng.uniform(0.9, 1.1, size=(5, 27))
        eff = rng.uniform(0.6, 1.0, size=27)
        u = size * eff * rng.uniform(0.5, 1.5, size=27) * jitter[4:]
        waves.append(np.vstack([size * jitter[:2], size * eff * jitter[2:4], u]))
    return np.hstack(waves) * (scale * np.array([1.0, 1.0, 10.0, 10.0, 1.0]))[:, None]


# Hospital-magnitude panels, (seed, scale).  Over seeds 0-39 at scales 100,
# 500 and 1000, a cold two-phase solve of the distance phase raised
# LpError on a DMU of each of the first five; on the last four, drawn like
# an earlier version of the workload, hrdea and HiGHS once disagreed.
HOSPITAL_PANELS = [(2, 1000.0), (5, 500.0), (5, 1000.0), (14, 500.0), (14, 1000.0),
                   (7, 500.0), (31, 500.0), (34, 500.0), (35, 500.0)]


@pytest.mark.parametrize("seed, scale", HOSPITAL_PANELS)
def test_weak_hospital_panels_match_highs(seed, scale):
    points = hospital_panel(seed, scale)
    direction = Direction.proportional()
    check_weak_world(points, direction, m=2, s=2)
    # The slack phase: here a column on the optimal face can read a reduced
    # cost of 2e-9, which an absolute PIVOT_TOL would take off the face.
    # HiGHS runs at its default tolerances (1e-7).
    data = from_arrays(points[:2], points[2:4], points[4:])
    for k, sol in enumerate(dea._solve_dmus(data, range(data.n), direction)):
        dx, dy, du = direction.resolve(data, k)
        args = (data.X, data.Y, data.U, data.X[:, k], data.Y[:, k], data.U[:, k], dx, dy, du)
        assert_matches(sol.slacks_x.sum() + sol.slacks_y.sum(),
                       highs_model(*args, dist=sol.distance), rtol=1e-7)


def input_nondominated(X):
    """Columns that no other column's inputs cover, the first of identical
    ones: a loop over pairs."""
    n = X.shape[1]
    return [j for j in range(n)
            if not any(np.all(X[:, i] <= X[:, j]) and (np.any(X[:, i] < X[:, j]) or i < j)
                       for i in range(n) if i != j)]


@pytest.mark.parametrize("mode", sorted(DIRECTIONS.keys() - {"custom"}))
@pytest.mark.parametrize("seed, scale", HOSPITAL_PANELS)
def test_weak_candidate_set_is_exact_for_both_phases(seed, scale, mode, monkeypatch):
    points = hospital_panel(seed, scale)
    data = from_arrays(points[:2], points[2:4], points[4:])
    X, Y, U, n = data.X, data.Y, data.U, data.n
    # The candidates: every alpha column and the input-nondominated beta
    # columns.  A copy of the first one's inputs, later in the panel, is
    # not one.
    beta = input_nondominated(X)
    twin = X.copy()
    twin[:, -1] = X[:, beta[0]]
    cols = dea._frame(twin, Y, U)[2]
    assert cols.tolist() == [*range(n), *(n + j for j in input_nondominated(twin))]
    assert beta[0] != n - 1 and 2 * n - 1 not in cols
    cols = dea._frame(X, Y, U)[2]
    assert cols.tolist() == [*range(n), *(n + j for j in beta)]
    assert cols.size < 2 * n

    direction = DIRECTIONS[mode]
    dx, dy, du = direction.resolve_at(X, Y, U)
    everyone = np.arange(n)
    dist = distances(X, Y, U, X, Y, U, dx, dy, du, everyone)
    assert_matches(dist, weak_all_columns(monkeypatch, X, Y, U, dx, dy, du), rtol=1e-12)
    sols = [solve_weak_disposability(data, k, direction) for k in range(n)]
    with monkeypatch.context() as patch:
        every_weak_column(patch)
        reference = dea._solve_dmus(data, everyone, direction)
    for field in ("distance", "objective"):
        assert_matches([getattr(sol, field) for sol in sols],
                       [getattr(sol, field) for sol in reference], rtol=1e-12)
    assert_matches([sol.slacks_x.sum() + sol.slacks_y.sum() for sol in sols],
                   [sol.slacks_x.sum() + sol.slacks_y.sum() for sol in reference], rtol=1e-12)


# --- interval bounds against HiGHS ----------------------------------------


def test_interval_bounds_match_highs():
    """Both bounds of every DMU against HiGHS on order-one boxes: the worst
    version against the best scenario, the best version against the worst
    scenario with an infeasible or negative optimum reported as 0."""
    super_efficient = []

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        n=st.integers(2, 12),
        mode=st.sampled_from(sorted(DIRECTIONS)),
        data=st.data(),
    )
    def check(n, mode, data):
        cells = st.floats(0.5, 2.0)
        lower = data.draw(arrays(float, (3, n), elements=cells))
        upper = lower + data.draw(arrays(float, (3, n), elements=st.floats(0.0, 1.0)))
        direction = DIRECTIONS[mode]
        d_low, d_high = interval_dea_bounds(from_arrays(lower[:2], lower[2:]), lower, upper,
                                            direction)
        for k in range(n):
            xw, yw = upper[:2, k], lower[2:, k]
            dx, dy, _ = direction.resolve_at(xw, yw)
            high = highs_distance(lower[:2], upper[2:], xw, yw, dx, dy)
            xb, yb = lower[:2, k], upper[2:, k]
            dx, dy, _ = direction.resolve_at(xb, yb)
            low = highs_distance(upper[:2], lower[2:], xb, yb, dx, dy)
            super_efficient.append(low < 0.0)
            assert_matches([d_low[k], d_high[k]], [max(low, 0.0), high])

    check()
    assert any(super_efficient)
