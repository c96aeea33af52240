import numpy as np
import pytest
from scipy.optimize import linprog

from hrdea import lp
from hrdea.errors import LpError
from hrdea.lp import basic_solution, batch_simplex, drive_out, simplex


def tableau(c, a_ub, b_ub, a_eq=None):
    """max c'x s.t. a_eq x = 0, a_ub x <= b_ub, x >= 0, with b_ub >= 0, as a
    tableau at a feasible basis: one slack column per <= row, basic at
    b_ub, and one artificial per equality row, basic at level 0.  Columns
    are x, the slacks, then the artificials, which stay out of pricing.
    Returns (T, basis, ncols), ncols the number of priced columns."""
    c = np.asarray(c, dtype=float)
    a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
    a_eq = np.zeros((0, c.size)) if a_eq is None else np.atleast_2d(a_eq)
    (neq, nvar), nub = a_eq.shape, a_ub.shape[0]
    ncols = nvar + nub
    T = np.zeros((neq + nub + 1, ncols + neq + 1))
    T[:neq, :nvar], T[:neq, ncols:-1] = a_eq, np.eye(neq)
    T[neq:-1, :nvar], T[neq:-1, nvar:ncols], T[neq:-1, -1] = a_ub, np.eye(nub), b_ub
    T[-1, :nvar] = -c
    return T, np.r_[ncols:ncols + neq, nvar:ncols], ncols


def solve(T, basis, ncols):
    """Drive the artificials out, run the simplex and read x (over the
    priced columns) from the final basis: (x, objective)."""
    A = T[:-1].copy()
    drive_out(T[None], basis[None], np.flatnonzero(basis >= ncols), ncols)
    objective, unbounded = batch_simplex(T[None], basis[None], ncols)
    assert not unbounded[0]
    x = np.zeros(A.shape[1] - 1)
    x[basis] = basic_solution(A[:, basis][None], A[:, -1][None], (basis < ncols)[None])[0]
    return x[:ncols], objective[0]


def null_rows(rng, rows, x0):
    """Random equality rows that the positive point x0 satisfies with 0."""
    a_eq = rng.normal(size=(rows, x0.size))
    return a_eq - np.outer(a_eq @ x0, x0) / (x0 @ x0)


def test_single_upper_bound():
    x, obj = solve(*tableau(c=[1.0], a_ub=[[1.0]], b_ub=[5.0]))
    assert obj == pytest.approx(5.0, abs=1e-9)
    assert x[0] == pytest.approx(5.0, abs=1e-9)


def test_binding_minimum_of_two_bounds():
    _, obj = solve(*tableau(c=[1.0], a_ub=[[1.0], [1.0]], b_ub=[5.0, 3.0]))
    assert obj == pytest.approx(3.0, abs=1e-9)


def test_unbounded_detected():
    T, basis, ncols = tableau(c=[1.0], a_ub=[[-1.0]], b_ub=[0.0])
    _, unbounded = batch_simplex(T[None], basis[None], ncols)
    assert unbounded[0]


def test_equalities_and_inequalities_together():
    # max 2x + y  s.t.  x + y = t, x <= 0.25, t <= 1
    _, obj = solve(*tableau(c=[2.0, 1.0, 0.0], a_eq=[[1.0, 1.0, -1.0]],
                            a_ub=[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], b_ub=[0.25, 1.0]))
    assert obj == pytest.approx(2 * 0.25 + 0.75, abs=1e-9)


def test_degenerate_rhs():
    # Degenerate vertex: several constraints active at the optimum.
    _, obj = solve(
        *tableau(
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
        _, obj = solve(*tableau(c=c, a_ub=A, b_ub=b))
        assert obj == pytest.approx(-ref.fun, abs=1e-7), f"trial {trial}"


def test_random_equality_instances_match_scipy():
    rng = np.random.default_rng(7)
    for trial in range(200):
        nvar = int(rng.integers(3, 8))
        neq = int(rng.integers(1, 3))
        c = rng.normal(size=nvar)
        a_eq = null_rows(rng, neq, rng.uniform(0.1, 2.0, size=nvar))
        a_box, b_box = np.eye(nvar), np.full(nvar, 6.0)
        ref = linprog(-c, A_eq=a_eq, b_eq=np.zeros(neq), A_ub=a_box, b_ub=b_box,
                      bounds=(0, None), method="highs")
        assert ref.status == 0
        _, obj = solve(*tableau(c=c, a_eq=a_eq, a_ub=a_box, b_ub=b_box))
        assert obj == pytest.approx(-ref.fun, abs=1e-7), f"trial {trial}"


def test_redundant_equality_rows_match_scipy(monkeypatch):
    # A row that is a combination of the others is zero in every priced
    # column once they are pivoted out: ``drive_out`` pivots it on its own
    # artificial, which stays basic through the simplex.
    kept = []
    pivot = lp._pivot

    def spy(T, basis, row, col):
        ncols = T.shape[2] - 4  # the three artificials and the RHS come last
        kept.extend((int(i), int(j - ncols)) for i, j in zip(row, col) if j >= ncols)
        pivot(T, basis, row, col)

    monkeypatch.setattr(lp, "_pivot", spy)
    rng = np.random.default_rng(31)
    for trial in range(100):
        nvar = int(rng.integers(3, 8))
        a_eq = null_rows(rng, 2, rng.uniform(0.1, 2.0, size=nvar))
        a_eq = np.vstack([a_eq, a_eq[0] if trial % 2 else a_eq[0] - 2.5 * a_eq[1]])
        c = rng.normal(size=nvar)
        a_box, b_box = np.eye(nvar), np.full(nvar, 6.0)
        ref = linprog(-c, A_eq=a_eq, b_eq=np.zeros(3), A_ub=a_box, b_ub=b_box,
                      bounds=(0, None), method="highs")
        assert ref.status == 0
        x, obj = solve(*tableau(c=c, a_eq=a_eq, a_ub=a_box, b_ub=b_box))
        assert obj == pytest.approx(-ref.fun, abs=1e-9), f"trial {trial}"
        np.testing.assert_allclose(a_eq @ x[:nvar], 0.0, atol=1e-9)
        assert kept == [(2, 2)], f"trial {trial}"  # row 2 on its own artificial
        kept.clear()


def test_equality_solution_is_feasible():
    rng = np.random.default_rng(99)
    for _ in range(50):
        nvar = int(rng.integers(3, 6))
        A = null_rows(rng, 2, rng.uniform(0.1, 1.0, size=nvar))
        c = rng.normal(size=nvar)
        x, _ = solve(*tableau(c=c, a_eq=A, a_ub=np.eye(nvar), b_ub=np.full(nvar, 5.0)))
        x = x[:nvar]
        assert np.all(x >= 0.0)
        np.testing.assert_allclose(A @ x, 0.0, atol=1e-7)


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
    pivot = lp._pivot

    def counted(T, basis, row, col):
        pivots.append(col)
        pivot(T, basis, row, col)

    monkeypatch.setattr(lp, "_pivot", counted)
    T, basis = beale_tableau()
    assert simplex(T, basis, 7) == "optimal"
    assert T[-1, -1] == pytest.approx(1.25, abs=1e-12)
    assert len(pivots) > lp.BLAND_AFTER


def reversed_beale_tableau():
    """Beale's LP with its four structural columns in reverse order.  It
    too cycles past BLAND_AFTER, but Bland's rule scans its columns in
    another order and ends it one round before Beale's own LP."""
    T, basis = beale_tableau()
    T[:, :4] = T[:, 3::-1]
    return T, basis


def test_beale_members_match_their_batches_of_one():
    # Two members past BLAND_AFTER that finish in different rounds, so the
    # later one runs on alone: each ends on the tableau, basis and objective
    # of its own batch of one.
    stack = [beale_tableau(), reversed_beale_tableau()]
    alone = [(T.copy(), basis.copy()) for T, basis in stack]
    for T, basis in alone:
        assert simplex(T, basis, 7) == "optimal"
    T = np.stack([T for T, _ in stack])
    basis = np.stack([basis for _, basis in stack])
    objective, unbounded = batch_simplex(T, basis, 7)
    for b, (Ts, basis_s) in enumerate(alone):
        assert np.array_equal(T[b], Ts) and np.array_equal(basis[b], basis_s)
        assert objective[b] == Ts[-1, -1] == pytest.approx(1.25, abs=1e-12)
    assert not unbounded.any()


def test_batch_leaves_each_final_tableau_in_place():
    # Beale's LP (past BLAND_AFTER), one already optimal, one that needs a
    # pivot (max x6, bounded by the third row): Beale's member runs on alone
    # after the others finish, and each member ends on the tableau and basis
    # of its own batch of one.
    stack = [beale_tableau() for _ in range(3)]
    stack[1][0][-1] = np.abs(stack[1][0][-1])
    stack[2][0][-1] = [0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    alone = [(T.copy(), basis.copy()) for T, basis in stack]
    for T, basis in alone:
        simplex(T, basis, 7)
    T = np.stack([T for T, _ in stack])
    basis = np.stack([basis for _, basis in stack])
    objective, unbounded = batch_simplex(T, basis, 7)
    for b, (Ts, basis_s) in enumerate(alone):
        assert np.array_equal(T[b], Ts) and np.array_equal(basis[b], basis_s)
        assert objective[b] == Ts[-1, -1]
    assert objective[2] == 1.0 and not unbounded.any()


def test_bland_breaks_ratio_ties_on_the_smallest_basic_index(monkeypatch):
    # max x0 s.t. x0 + s = 1 on two rows: both rows tie in the ratio test.
    # Member 0 has the larger basic index (2) on its first row, member 1 on
    # its second; Bland's rule pivots each on the row of basic index 1.
    monkeypatch.setattr(lp, "BLAND_AFTER", 0)
    rows = np.array([[1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 1.0]])
    zrow = [-1.0, 0.0, 0.0, 0.0]
    T = np.stack([np.vstack([rows, zrow]), np.vstack([rows[::-1], zrow])])
    basis = np.array([[2, 1], [1, 2]])
    objective, unbounded = batch_simplex(T, basis, 3)
    assert np.array_equal(basis, [[2, 0], [0, 2]])
    assert np.array_equal(objective, [1.0, 1.0]) and not unbounded.any()


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
