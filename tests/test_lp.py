import numpy as np
import pytest
from scipy.optimize import linprog

from hrdea import lp
from hrdea.errors import LpError, LpInfeasible, LpUnbounded
from hrdea.lp import basic_solution, batch_simplex, simplex, two_phase


def with_slacks(c, a_ub, b_ub, a_eq=None, b_eq=None):
    """(A, b, c) of max c'x s.t. a_eq x = b_eq, a_ub x <= b_ub, x >= 0 in
    the equality form two_phase takes: one slack column per <= row."""
    c = np.asarray(c, dtype=float)
    a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
    nub = a_ub.shape[0]
    rows = [np.hstack([a_ub, np.eye(nub)])]
    rhs = [np.asarray(b_ub, dtype=float)]
    if a_eq is not None:
        a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
        rows.insert(0, np.hstack([a_eq, np.zeros((a_eq.shape[0], nub))]))
        rhs.insert(0, np.asarray(b_eq, dtype=float))
    return np.vstack(rows), np.concatenate(rhs), np.concatenate([c, np.zeros(nub)])


def test_single_upper_bound():
    x, obj = two_phase(*with_slacks(c=[1.0], a_ub=[[1.0]], b_ub=[5.0]))
    assert obj == pytest.approx(5.0, abs=1e-9)
    assert x[0] == pytest.approx(5.0, abs=1e-9)


def test_binding_minimum_of_two_bounds():
    _, obj = two_phase(*with_slacks(c=[1.0], a_ub=[[1.0], [1.0]], b_ub=[5.0, 3.0]))
    assert obj == pytest.approx(3.0, abs=1e-9)


def test_unbounded_detected():
    with pytest.raises(LpUnbounded):
        two_phase(*with_slacks(c=[1.0], a_ub=[[-1.0]], b_ub=[0.0]))


def test_infeasible_detected():
    # x >= 0 and x <= -1 cannot hold together.
    with pytest.raises(LpInfeasible):
        two_phase(*with_slacks(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0]))


def test_equalities_and_inequalities_together():
    # max x + y  s.t.  x + y = 1, x <= 0.25
    _, obj = two_phase(
        *with_slacks(c=[2.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], a_ub=[[1.0, 0.0]], b_ub=[0.25])
    )
    assert obj == pytest.approx(2 * 0.25 + 0.75, abs=1e-9)


def test_degenerate_rhs():
    # Degenerate vertex: several constraints active at the optimum.
    _, obj = two_phase(
        *with_slacks(
            c=[1.0, 1.0],
            a_ub=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            b_ub=[1.0, 1.0, 2.0],
        )
    )
    assert obj == pytest.approx(2.0, abs=1e-9)


def test_random_instances_match_scipy():
    rng = np.random.default_rng(20240811)
    for trial in range(200):
        nvar = int(rng.integers(2, 7))
        nub = int(rng.integers(1, 5))
        c = rng.normal(size=nvar)
        a_ub = rng.normal(size=(nub, nvar))
        b_ub = rng.uniform(0.5, 3.0, size=nub)
        # Box rows keep every instance bounded.
        a_box = np.eye(nvar)
        b_box = rng.uniform(1.0, 5.0, size=nvar)
        A = np.vstack([a_ub, a_box])
        b = np.concatenate([b_ub, b_box])
        ref = linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
        assert ref.status == 0
        _, obj = two_phase(*with_slacks(c=c, a_ub=A, b_ub=b))
        assert obj == pytest.approx(-ref.fun, abs=1e-7), f"trial {trial}"


def test_random_equality_instances_match_scipy():
    rng = np.random.default_rng(7)
    checked = 0
    for trial in range(200):
        nvar = int(rng.integers(3, 8))
        neq = int(rng.integers(1, 3))
        c = rng.normal(size=nvar)
        a_eq = rng.normal(size=(neq, nvar))
        x0 = rng.uniform(0.1, 2.0, size=nvar)  # a feasible interior point
        b_eq = a_eq @ x0
        a_box = np.eye(nvar)
        b_box = np.full(nvar, 6.0)
        ref = linprog(-c, A_eq=a_eq, b_eq=b_eq, A_ub=a_box, b_ub=b_box,
                      bounds=(0, None), method="highs")
        if ref.status != 0:
            continue
        _, obj = two_phase(*with_slacks(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_box, b_ub=b_box))
        assert obj == pytest.approx(-ref.fun, abs=1e-7), f"trial {trial}"
        checked += 1
    assert checked > 150


def test_redundant_equality_rows_match_scipy(monkeypatch):
    # A row that is a combination of the others leaves a zero-level
    # artificial that no column can replace: it stays basic through phase 2.
    kept = []

    def spy(B, b, real):
        kept.append(not real.all())
        return basic_solution(B, b, real)

    monkeypatch.setattr(lp, "basic_solution", spy)
    rng = np.random.default_rng(31)
    for trial in range(100):
        nvar = int(rng.integers(3, 8))
        a_eq = rng.normal(size=(2, nvar))
        a_eq = np.vstack([a_eq, a_eq[0] if trial % 2 else a_eq[0] - 2.5 * a_eq[1]])
        b_eq = a_eq @ rng.uniform(0.1, 2.0, size=nvar)
        c = rng.normal(size=nvar)
        a_box, b_box = np.eye(nvar), np.full(nvar, 6.0)
        ref = linprog(-c, A_eq=a_eq, b_eq=b_eq, A_ub=a_box, b_ub=b_box,
                      bounds=(0, None), method="highs")
        assert ref.status == 0
        x, obj = two_phase(*with_slacks(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_box, b_ub=b_box))
        assert obj == pytest.approx(-ref.fun, abs=1e-9), f"trial {trial}"
        np.testing.assert_allclose(a_eq @ x[:nvar], b_eq, atol=1e-9)
    assert len(kept) == 100 and all(kept)


def test_two_phase_solution_is_feasible():
    rng = np.random.default_rng(99)
    for _ in range(50):
        nvar = int(rng.integers(3, 6))
        A = rng.normal(size=(2, nvar))
        x0 = rng.uniform(0.1, 1.0, size=nvar)
        b = A @ x0
        c = rng.normal(size=nvar)
        x, _ = two_phase(
            *with_slacks(c=c, a_eq=A, b_eq=b, a_ub=np.eye(nvar), b_ub=np.full(nvar, 5.0))
        )
        x = x[:nvar]
        assert np.all(x >= -1e-9)
        np.testing.assert_allclose(A @ x, b, atol=1e-7)


# --- Beale's cycling example ------------------------------------------------


def beale_tableau():
    """Beale (1955) at its slack basis: max 3/4 x4 - 20 x5 + 1/2 x6 - 6 x7
    s.t. three <= rows, optimum 1.25 at x4 = x6 = 1.  Dantzig's rule with
    ties broken on the first row cycles here forever."""
    T = np.array([
        [0.25, -8.0, -1.0, 9.0, 1.0, 0.0, 0.0, 0.0],
        [0.5, -12.0, -0.5, 3.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0],
        [-0.75, 20.0, -0.5, 6.0, 0.0, 0.0, 0.0, 0.0],
    ])
    return T, np.array([4, 5, 6])


def test_beale_cycles_until_bland_takes_over(monkeypatch):
    pivots = []
    serial_pivot = lp._pivot

    def counted(T, row, col):
        pivots.append(col)
        serial_pivot(T, row, col)

    monkeypatch.setattr(lp, "_pivot", counted)
    T, basis = beale_tableau()
    assert simplex(T, basis, 7) == "optimal"
    assert T[-1, -1] == pytest.approx(1.25, abs=1e-12)
    assert len(pivots) > lp.BLAND_AFTER


def test_beale_batch_of_one_matches_serial():
    T, basis = beale_tableau()
    simplex(T, basis, 7)
    Tb, basis_b = beale_tableau()
    objective, unbounded = batch_simplex(Tb[None], basis_b[None], 7)
    assert objective[0] == T[-1, -1]
    assert not unbounded[0]


def test_batch_leaves_each_final_tableau_in_place():
    # Beale's LP (past BLAND_AFTER), one already optimal, one that needs a
    # pivot (max x6, bounded by the third row): each member ends on the
    # tableau and basis of its serial run.
    stack = [beale_tableau() for _ in range(3)]
    stack[1][0][-1] = np.abs(stack[1][0][-1])
    stack[2][0][-1] = [0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    serial = [(T.copy(), basis.copy()) for T, basis in stack]
    for T, basis in serial:
        simplex(T, basis, 7)
    T = np.stack([T for T, _ in stack])
    basis = np.stack([basis for _, basis in stack])
    objective, unbounded = batch_simplex(T, basis, 7)
    for b, (Ts, basis_s) in enumerate(serial):
        assert np.array_equal(T[b], Ts) and np.array_equal(basis[b], basis_s)
        assert objective[b] == Ts[-1, -1]
    assert objective[2] == 1.0 and not unbounded.any()


def test_beale_iteration_limit_raises(monkeypatch):
    monkeypatch.setattr(lp, "MAX_ITER", lp.BLAND_AFTER // 2)
    T, basis = beale_tableau()
    with pytest.raises(LpError, match="iteration limit"):
        simplex(T, basis, 7)


# --- reading the answer from the final basis -------------------------------


def test_basic_solution_reads_and_checks_each_basis():
    # x1 + x2 + s1 = 4 and x1 - x2 + s2 = 0, columns (x1, x2, s1, s2)
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, -1.0, 0.0, 1.0]])
    b = np.array([4.0, 0.0])

    def read(basis, real=(True, True)):
        return basic_solution(A[:, basis][None], b[None], np.array([real]))

    x = basic_solution(np.stack([A[:, [0, 1]], A[:, [0, 2]]]), np.stack([b, b]),
                       np.ones((2, 2), dtype=bool))
    assert np.array_equal(x, [[2.0, 2.0], [0.0, 4.0]])
    with pytest.raises(LpError, match="violates Ax = b"):  # s1 an artificial at 4
        read([0, 2], real=(True, False))
    with pytest.raises(LpError, match="violates Ax = b"):  # x1 = 4, s2 = -4
        read([0, 3])
    with pytest.raises(LpError, match="singular"):
        read([0, 0])
