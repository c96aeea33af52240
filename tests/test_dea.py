"""DEA model tests; the hand-solvable fixtures are checked against
brute-force grid oracles before the simplex answer is trusted."""

import numpy as np
import pytest
from scipy.optimize import linprog

from hrdea import lp
from hrdea.dataset import Direction, from_arrays
from hrdea.dea import (
    BATCH_BYTES,
    directional_distance,
    directional_distances,
    interval_dea_bounds,
    solve_directional,
    solve_weak_disposability,
    weak_disposability_distance,
)
from hrdea.errors import LpError, LpInfeasible, ValidationError
from hrdea.pipeline import INPUT_FLOOR, _column_distances


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
    masked = ds.with_values(ds.stacked())
    import dataclasses

    masked = dataclasses.replace(
        masked, mask_x=np.array([[True, False]]), X=np.array([[np.nan, 2.0]])
    )
    with pytest.raises(ValidationError):
        solve_directional(masked, 1, Direction.input_oriented())


def test_interval_bounds_fixture(two_dmu):
    lx = np.array([[1.0, 1.5]])
    ux = np.array([[1.0, 2.5]])
    ly = uy = np.array([[1.0, 1.0]])
    d = Direction.input_oriented()
    d_low, d_high = interval_dea_bounds(two_dmu, lx, ux, ly, uy, 1, d)
    assert d_low == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert d_high == pytest.approx(0.6, abs=1e-9)
    d_low, d_high = interval_dea_bounds(two_dmu, lx, ux, ly, uy, 0, d)
    assert d_low == pytest.approx(0.0, abs=1e-9)
    assert d_high == pytest.approx(0.0, abs=1e-9)


def test_interval_bounds_degenerate_equal_plain(two_dmu):
    lx = ux = two_dmu.X
    ly = uy = two_dmu.Y
    d = Direction.input_oriented()
    plain = solve_directional(two_dmu, 1, d).distance
    d_low, d_high = interval_dea_bounds(two_dmu, lx, ux, ly, uy, 1, d)
    assert d_low == pytest.approx(plain, abs=1e-9)
    assert d_high == pytest.approx(plain, abs=1e-9)


def test_interval_bounds_crossed_rejected(two_dmu):
    lx = np.array([[1.0, 3.0]])
    ux = np.array([[1.0, 2.5]])
    ly = uy = two_dmu.Y
    with pytest.raises(ValidationError):
        interval_dea_bounds(two_dmu, lx, ux, ly, uy, 1, Direction.input_oriented())


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
                  bounds=[(0.0, None)] * n + [(None, None)], method="highs")
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
    batch = _column_distances(points, m, s, "plain", direction)
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


def test_batch_member_past_bland_after_finishes_serially(monkeypatch):
    handovers = []
    serial = lp.simplex

    def spy(T, basis, ncols, start=0):
        handovers.append(start)
        return serial(T, basis, ncols, start)

    monkeypatch.setattr(lp, "simplex", spy)
    check_world(CYCLING_WORLD, Direction.proportional())
    # once in the world's batch, once in DMU 1's batch of one
    assert handovers == [lp.BLAND_AFTER, lp.BLAND_AFTER]


def test_batch_rejects_anchor_that_does_not_dominate():
    X = np.array([[1.0, 2.0]])
    Y = np.array([[1.0, 1.0]])
    with pytest.raises(ValidationError):
        directional_distances(X, Y, X[:, [0]], Y[:, [0]], X[:, [0]], Y[:, [0]], [1])


# A weak-model world at hospital magnitudes (beds and staff in the hundreds,
# outputs in the thousands): a pooled 27 x 4 panel drawn like the
# weak-panel-n108 benchmark workload with inputs x500, outputs x5000 and the
# undesirable output x500 (seed 14), cut down to the 7 DMUs that keep DMU 3's
# answer off Ax = b.  Without the residual check two_phase returned 0.1747
# for DMU 3, where HiGHS gives 0.0746.
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


def test_two_phase_answer_that_breaks_ax_eq_b_raises():
    X, Y, U = HOSPITAL_WORLD[:2], HOSPITAL_WORLD[2:4], HOSPITAL_WORLD[4:]
    k = 3
    with pytest.raises(LpError, match="violates Ax = b") as info:
        weak_disposability_distance(
            X, Y, U, X[:, k], Y[:, k], U[:, k], X[:, k], Y[:, k], U[:, k]
        )
    # not LpInfeasible, which interval_dea_bounds would turn into a 0.0 bound
    assert not isinstance(info.value, LpInfeasible)


# --- the cold LPs against HiGHS -------------------------------------------

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


def assert_matches(value, oracle):
    """Agreement as in check_world: 1e-9 relative to max(1, |oracle|)."""
    value, oracle = np.asarray(value, dtype=float), np.asarray(oracle, dtype=float)
    np.testing.assert_array_less(np.abs(value - oracle), 1e-9 * np.maximum(1.0, np.abs(oracle)))


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
    # No anchor: each DMU and a dominated version of it, off the data.
    points = scenario_world(np.random.default_rng(3000 + n), n)
    X, Y = points[:2], points[2:]
    for xk, yk in ((X, Y), (1.2 * X, 0.8 * Y)):
        dx, dy, _ = DIRECTIONS[mode].resolve_at(xk, yk)
        for k in range(n):
            args = (X, Y, xk[:, k], yk[:, k], dx[:, k], dy[:, k])
            assert_matches(directional_distance(*args), highs_distance(*args))


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
        assert_matches(weak_disposability_distance(*args), oracle)
        sol = solve_weak_disposability(data, k, direction)
        assert_matches(sol.distance, oracle)
        assert_matches(sol.slacks_x.sum() + sol.slacks_y.sum(),
                       highs_model(*args, dist=sol.distance))
        assert_rows_hold(sol, data, k, direction)
        assert_matches(sol.alpha + sol.beta, sol.intensities)
