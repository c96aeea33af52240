"""Directional DEA models solved against an empirical VRS frontier.

Two radial models are provided: the plain directional model over inputs and
desirable outputs, and the weak-disposability variant that splits the
intensity weights so undesirable outputs can only shrink by scaling
activity down.  Interval bounds under box uncertainty come from the
best/worst scenario projections.

The distance maximization and the slack maximization are solved
lexicographically: the reported distance is always the optimum of the pure
distance phase, and the non-Archimedean weight only enters the reported
objective value.

Every LP is warm-started at an anchor vertex:
``directional_distances`` and ``weak_disposability_distances`` solve a
stack of such LPs as one batch from tableaux already pivoted to that vertex
(``_eq1_tableaux``), and ``directional_distance`` and
``weak_disposability_distance`` are their batches of one.  Each member's
distance is read from its final basis.  A plain member is solved over a
candidate set, the Pareto-nondominated reference columns (``_nondominated``)
and its anchor; its final duals then price every column, and a member that
some column would still improve is solved again over all columns by the
same tableau builder.  A weak member is solved over all its alpha and beta
columns, its undesirable rows being equalities.  The interval lower bounds
are one plain batch against the worst scenario, each anchored at its best
version.  ``solve_directional`` and ``solve_weak_disposability`` are
batches of one of ``_solve_dmus``, whose slack phase continues each
member's final distance tableau on its optimal face (``_max_slacks``), so
every LP of both models runs on the one warm path.  The plain model is the
weak model without undesirable rows and without the beta block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DataSet, Direction
from .errors import LpUnbounded, ValidationError
from .lp import PIVOT_TOL, basic_solution, batch_simplex, drive_out
# Unused here; the tracer in perfbench/spans.py looks this name up.
from .lp import simplex  # noqa: F401

DEFAULT_EPS = 1e-6
# Tableau bytes per chunk of a batched solve: bounds the stack and the
# temporaries of its pivots, and keeps them in cache.
BATCH_BYTES = 256 * 1024


@dataclass(frozen=True)
class DeaSolution:
    """Optimal projection of one DMU on one frontier."""

    distance: float
    intensities: np.ndarray
    slacks_x: np.ndarray
    slacks_y: np.ndarray
    targets_x: np.ndarray
    targets_y: np.ndarray
    targets_u: np.ndarray
    objective: float
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None


def _nondominated(X, Y) -> np.ndarray:
    """Ascending indices of the Pareto-nondominated columns of (X, Y): a
    column is dropped when another has inputs <= and outputs >= it, and of
    identical columns only the first is kept.  Under free disposability a
    dropped column's weight moves to one that covers it: same frontier."""
    covers = (X[:, :, None] <= X[:, None, :]).all(0) & (Y[:, :, None] >= Y[:, None, :]).all(0)
    equal = covers & covers.T
    return np.flatnonzero(~((covers & ~equal).any(0) | np.triu(equal, 1).any(0)))


def _eq1_tableaux(Z, sign, p, d, a, cols):
    """Warm-start tableaux of a distance phase, one per member.

    ``Z`` stacks the reference inputs over the reference outputs (and, for
    the weak model, the undesirable outputs) and ``sign`` is 1 on its input
    and undesirable rows, -1 on its output rows.  Member b evaluates the
    point p[:, b] along d[:, b] against reference columns ``cols`` of Z and,
    last, its anchor a[:, b].  It starts at the vertex with full weight on
    the anchor, feasible because the anchor weakly dominates the point.
    Variables are (mu, D, one slack per row); an undesirable row is an
    equality, so its slack is an artificial, at level 0 when the anchor's
    undesirable outputs are the point's.  Returns the (batch, rows+1,
    ncols+1) stack and its (batch, rows) basis.
    """
    r, batch, w = sign.size, a.shape[1], cols.size + 1
    T = np.zeros((batch, r + 2, w + r + 2))
    T[:, :r, : w - 1] = sign[:, None] * (Z[:, cols] - a.T[:, :, None])
    T[:, r, :w] = T[:, r, -1] = 1.0
    T[:, :r, w] = d.T
    T[:, np.arange(r), w + 1 + np.arange(r)] = 1.0
    T[:, :r, -1] = sign * (p - a).T
    T[:, -1, w] = -1.0
    return T, np.tile(np.r_[w + 1 : w + 1 + r, w - 1], (batch, 1))


def _unit_scale(d) -> np.ndarray:
    """Largest direction component of each member (columns of d)."""
    scale = np.max(d, axis=0, initial=0.0)
    if np.any(scale <= 0.0):
        raise ValidationError("direction must have a strictly positive component")
    return scale


def _max_slacks(T, basis, ncols, first):
    """The slack phase: continue each member's optimal distance tableau to
    the largest total slack on its optimal face.

    Columns ``first`` to ``ncols`` are the real slacks.  A column whose
    reduced cost exceeds ``PIVOT_TOL`` is zeroed: by complementary
    slackness, the points left feasible are exactly the optimal face, so D
    stays at its optimum.  The objective becomes the total of the real
    slacks (a zeroed slack costs 0, so its z-row entry stays 0 and it never
    prices), and ``batch_simplex`` continues over the same columns, which
    leave the artificials out.  T and basis end holding each member's final
    tableau and basis.
    """
    keep = T[:, -1, :ncols] <= PIVOT_TOL
    T[:, :-1, :ncols] *= keep[:, None]
    cost = np.zeros((len(T), T.shape[2] - 1))
    cost[:, first:ncols] = keep[:, first:ncols]
    T[:, -1] = (np.take_along_axis(cost, basis, axis=1)[:, None] @ T[:, :-1])[:, 0]
    T[:, -1, :-1] -= cost
    if batch_simplex(T, basis, ncols)[1].any():
        raise LpUnbounded("slack phase unbounded")


# The tracer in perfbench/spans.py looks this name up; the slack phase is
# called through it, so the tracer's two_phase spans time the slack phase.
two_phase = _max_slacks


def _solve_over(Z, sign, p, d, a, cols, eq=0, slacks=False):
    """Distances of members laid out as in ``_eq1_tableaux``, solved in
    chunks of at most ``BATCH_BYTES`` of tableau, a mask of those whose
    final duals price some column of Z below tolerance, and, with
    ``slacks``, each member's slack-phase answer (else None).

    The last ``eq`` rows of Z are equalities: their artificials stay out of
    pricing and are driven out before the simplex.  With ``slacks``, each
    member's optimal distance tableau goes on to the slack phase.  Every
    answer is read from its final basis by ``basic_solution``, which also
    checks it, once for all chunks: a member's D from the distance phase,
    and from the slack phase its weights on the columns of Z, its anchor's
    weight and its real slacks, in that order.
    """
    r, n = Z.shape
    w = cols.size + 1
    ncols = w + 1 + r - eq
    chunk = max(1, BATCH_BYTES // ((r + 2) * (w + r + 2) * 8))
    short = np.zeros(a.shape[1], dtype=bool)
    rows = np.arange(r + 1)[:, None]
    reads = ([], [])  # per phase, each chunk's unpivoted basis columns, RHS, basis

    def record(phase, A, basis):
        lanes = np.arange(len(A))[:, None, None]
        reads[phase].append((A[lanes, rows, basis[:, None, :]], A[:, :, -1], basis.copy()))

    for lo in range(0, a.shape[1], chunk):
        part = slice(lo, lo + chunk)
        T, basis = _eq1_tableaux(Z, sign, p[:, part], d[:, part], a[:, part], cols)
        A = T[:, :-1].copy()
        drive_out(T, basis, range(r - eq, r), ncols)
        if batch_simplex(T, basis, ncols)[1].any():
            raise LpUnbounded("distance unbounded; check the direction vector")
        record(0, A, basis)
        if cols.size < n:
            # Column j is sign * (Z_j - a) over a 1; its price at the duals
            # (the z-row at the slacks, and at the anchor for the convexity
            # row) is u.Z_j + y_conv - u.a with u = sign * y, and the terms
            # are bounded by |u|.Z_j + |u.a| + |y_conv| (for Z >= 0).  Each
            # member's stacked matmul gives the same bits in any batch.
            u, conv = T[:, -1, w + 1 : w + 1 + r] * sign, T[:, -1, w - 1]
            ua = u * a[:, part].T
            price = (u[:, None] @ Z)[:, 0] + (conv - ua.sum(1))[:, None]
            size = (np.abs(u)[:, None] @ Z)[:, 0] + (np.abs(ua).sum(1) + np.abs(conv))[:, None]
            short[part] = (price < -PIVOT_TOL * (1.0 + size)).any(axis=1)
        if slacks:
            two_phase(T, basis, ncols, w + 1)
            record(1, A, basis)

    def read(phase):
        B, b, basis = (np.concatenate(v) for v in zip(*reads[phase]))
        return basis, basic_solution(B, b, basis < ncols)

    basis, x = read(0)
    dist = np.where(basis == w, x, 0.0).sum(axis=1)
    if not slacks:
        return dist, short, None
    basis, xb = read(1)
    x = np.zeros((len(basis), ncols + eq))
    np.put_along_axis(x, basis, xb, axis=1)
    sol = np.zeros((len(basis), n + 1 + r - eq))
    sol[:, cols], sol[:, n], sol[:, n + 1 :] = x[:, : w - 1], x[:, w - 1], x[:, w + 1 : ncols]
    return dist, short, sol


def _frame(X, Y, U=None):
    """Reference columns Z of a model, the sign of each row (1 on input and
    undesirable rows, -1 on output rows) and the candidate columns.

    The plain model (U None) stacks X over Y, and its candidates are the
    nondominated columns.  The weak model's columns are alpha_j = (X_j, Y_j,
    U_j) and beta_j = (X_j, 0, 0), all 2n of them candidates: U is not
    freely disposable, so no column is dominated away and no pricing pass
    follows.
    """
    if U is None:
        Z = np.concatenate([X, Y])
        return Z, np.repeat([1.0, -1.0], [len(X), len(Y)]), _nondominated(X, Y)
    Z = np.block([[X, X], [Y, np.zeros_like(Y)], [U, np.zeros_like(U)]])
    return Z, np.repeat([1.0, -1.0, 1.0], [len(X), len(Y), len(U)]), np.arange(Z.shape[1])


def _distances(Z, sign, cols, p, d, a, eq=0, slacks=False):
    """Distances of points p along d against the columns of Z, laid out as
    in ``_solve_over``, and with ``slacks`` each member's slack-phase answer
    (else None).  Each member is solved over ``cols`` and its anchor; one
    whose final duals price some column of Z below tolerance is solved
    again over all columns, and continues from there."""
    # Solve with the direction normalized to unit magnitude; D scales
    # inversely, and the tableau stays conditioned for tiny components.
    scale = _unit_scale(d)
    d = d / scale
    out, short, sol = _solve_over(Z, sign, p, d, a, cols, eq, slacks)
    if short.any():
        redo = _solve_over(Z, sign, p[:, short], d[:, short], a[:, short],
                           np.arange(Z.shape[1]), eq, slacks)
        out[short] = redo[0]
        if slacks:
            sol[short] = redo[2]
    return np.where(out < 0.0, 0.0, out) / scale, sol


def directional_distances(X, Y, xk, yk, dx, dy, anchors) -> np.ndarray:
    """Plain-model distances of a stack of points, warm-started and batched.

    ``xk``, ``yk``, ``dx`` and ``dy`` hold one column per member; reference
    column ``anchors[b]`` must weakly dominate point b (for a world scored
    against itself, the point's own column).
    """
    ax, ay = X[:, anchors], Y[:, anchors]
    if np.any(ax > xk) or np.any(ay < yk):
        raise ValidationError("every anchor must weakly dominate its evaluated point")
    return _distances(*_frame(X, Y), np.concatenate([xk, yk]), np.concatenate([dx, dy]),
                      np.concatenate([ax, ay]))[0]


def weak_disposability_distances(X, Y, U, xk, yk, uk, dx, dy, du, anchors) -> np.ndarray:
    """Weak-model distances of a stack of points, warm-started and batched.

    Laid out as ``directional_distances``; reference column ``anchors[b]``
    must weakly dominate point b in (X, Y) and have its undesirable outputs
    uk[:, b] exactly.
    """
    ax, ay, au = X[:, anchors], Y[:, anchors], U[:, anchors]
    if np.any(ax > xk) or np.any(ay < yk) or np.any(au != uk):
        raise ValidationError("every anchor must weakly dominate its evaluated point "
                              "and match its undesirable outputs")
    return _distances(*_frame(X, Y, U), np.concatenate([xk, yk, uk]),
                      np.concatenate([dx, dy, du]), np.concatenate([ax, ay, au]),
                      eq=len(U))[0]


def directional_distance(X, Y, xk, yk, dx, dy, anchor: int) -> float:
    """Optimal radial distance of (xk, yk) against the frontier of (X, Y):
    ``directional_distances`` for a batch of one, so reference column
    ``anchor`` must weakly dominate the point."""
    return float(directional_distances(
        X, Y, xk[:, None], yk[:, None], dx[:, None], dy[:, None], [anchor]
    )[0])


def weak_disposability_distance(X, Y, U, xk, yk, uk, dx, dy, du, anchor: int) -> float:
    """The weak model's distance of (xk, yk, uk): ``weak_disposability_distances``
    for a batch of one, so reference column ``anchor`` must weakly dominate
    the point and share its undesirable outputs."""
    return float(weak_disposability_distances(
        X, Y, U, *(v[:, None] for v in (xk, yk, uk, dx, dy, du)), [anchor]
    )[0])


def _solve_dmus(
    data: DataSet, ks, direction: Direction, weak: bool, eps: float = DEFAULT_EPS
) -> list[DeaSolution]:
    """Solve DMUs ``ks`` against the full sample as one batch: the plain
    model, or with ``weak`` the weak-disposability model (requires v >= 1).

    Each DMU is anchored at its own column.  Its distance phase is solved
    once, and its slack phase continues that tableau; the anchor's weight
    is folded back into the DMU's own intensity.  A member's answer does not
    depend on the batch it sits in.
    """
    if data.has_missing:
        raise ValidationError("dataset has imperfectly known cells; run the sampling "
                              "pipeline or an imputation baseline first")
    if weak and data.v < 1:
        raise ValidationError("no undesirable outputs; use solve_directional")
    ks = np.asarray(ks, dtype=int)
    bad = ks[(ks < 0) | (ks >= data.n)]
    if bad.size:
        raise ValidationError(f"DMU index {bad[0]} out of range")
    X, Y, U = data.X, data.Y, data.U
    dx, dy, du = direction.resolve_at(X[:, ks], Y[:, ks], U[:, ks])
    Z, sign, cols = _frame(X, Y, U if weak else None)
    p = Z[:, ks]  # each DMU, which is also its own anchor
    d = np.concatenate([dx, dy, du] if weak else [dx, dy])
    dist, sol = _distances(Z, sign, cols, p, d, p, eq=len(U) if weak else 0, slacks=True)
    n, nz, m = data.n, Z.shape[1], data.m
    weights = sol[:, :nz]
    weights[np.arange(ks.size), ks] += sol[:, nz]
    alpha, beta = weights[:, :n], weights[:, n:]
    lam = alpha + beta if weak else alpha
    gx, gy = sol[:, nz + 1 : nz + 1 + m], sol[:, nz + 1 + m :]
    return [DeaSolution(
        distance=float(dist[b]),
        intensities=lam[b],
        slacks_x=gx[b],
        slacks_y=gy[b],
        targets_x=X @ lam[b],
        targets_y=Y @ alpha[b],
        targets_u=U @ alpha[b] if weak else np.zeros(0),
        objective=float(dist[b]) + eps * (gx[b].sum() + gy[b].sum()),
        alpha=alpha[b] if weak else None,
        beta=beta[b] if weak else None,
    ) for b in range(ks.size)]


def solve_directional(
    data: DataSet, k: int, direction: Direction, eps: float = DEFAULT_EPS
) -> DeaSolution:
    """Solve the plain directional model for DMU k against the full sample."""
    return _solve_dmus(data, [k], direction, weak=False, eps=eps)[0]


def solve_weak_disposability(
    data: DataSet, k: int, direction: Direction, eps: float = DEFAULT_EPS
) -> DeaSolution:
    """Solve the weak-disposability model for DMU k (requires v >= 1)."""
    return _solve_dmus(data, [k], direction, weak=True, eps=eps)[0]


def interval_dea_bounds(
    data: DataSet,
    lower_x: np.ndarray,
    upper_x: np.ndarray,
    lower_y: np.ndarray,
    upper_y: np.ndarray,
    direction: Direction,
) -> tuple[np.ndarray, np.ndarray]:
    """Widest distance interval of every DMU under box uncertainty.

    Returns ``(d_low, d_high)``, one entry per DMU.  The upper bound
    projects the worst version of k (upper inputs, lower outputs) on the
    frontier of the best scenario; the lower bound projects the best
    version of k on the worst-scenario frontier.  A best version that
    would end up beyond the worst frontier (a super-efficiency case) is
    reported with the bound clamped at zero, consistent with the sampling
    pipeline where every point belongs to its own frontier.
    """
    if data.v > 0:
        raise ValidationError("interval bounds are defined for the model without undesirables")
    lower_x = np.asarray(lower_x, dtype=float)
    upper_x = np.asarray(upper_x, dtype=float)
    lower_y = np.asarray(lower_y, dtype=float)
    upper_y = np.asarray(upper_y, dtype=float)
    for lo, hi, label in ((lower_x, upper_x, "inputs"), (lower_y, upper_y, "outputs")):
        if lo.shape != hi.shape:
            raise ValidationError(f"interval matrices for {label} differ in shape")
        if np.any(lo > hi):
            raise ValidationError(f"crossed interval bounds in {label}")
    if lower_x.shape != data.X.shape or lower_y.shape != data.Y.shape:
        raise ValidationError("interval matrices must match the dataset shape")
    # Floor at a tiny positive value: a zero bound would degenerate the
    # direction resolved at the scenario version of k.
    lower_x, upper_x = np.maximum(lower_x, 1e-12), np.maximum(upper_x, 1e-12)
    lower_y, upper_y = np.maximum(lower_y, 1e-12), np.maximum(upper_y, 1e-12)

    # Worst versions against the best scenario, each anchored at its own
    # best version.
    dxw, dyw, _ = direction.resolve_at(upper_x, lower_y)
    d_high = directional_distances(lower_x, upper_y, upper_x, lower_y, dxw, dyw,
                                   np.arange(data.n))

    # Best version of k against the worst scenario plus that best version,
    # which anchors the solve, all in one batch.  It dominates k's worst
    # version, so this is the worst scenario with column k swapped for it,
    # and gives max(D*, 0), D* being the optimum against the unswapped worst
    # scenario (-inf when infeasible): the clamped bound defined above.
    # Every point of the unswapped hull stays feasible, so the value is >=
    # D*; the anchor makes it >= 0.  A point with weight w < 1 on column k
    # that reaches D > 0 rescales (divide the other weights by 1 - w) to a
    # point of the unswapped hull reaching D / (1 - w) >= D; with w = 1 no
    # D > 0 is reached, the direction being >= 0 with a positive component.
    # So a best version the worst frontier envelops keeps its distance, and
    # a super-efficient one gets exactly 0.
    dxb, dyb, _ = direction.resolve_at(lower_x, upper_y)
    best = np.concatenate([lower_x, upper_y])
    d_low = _distances(*_frame(upper_x, lower_y), best, np.concatenate([dxb, dyb]), best)[0]
    return d_low, d_high
