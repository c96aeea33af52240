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

Every distance is warm-started at an anchor vertex:
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
version.  ``two_phase`` solves only the slack phases of both models, cold,
one at a time, on one equality form (``_standard_form``) with D fixed at
its optimum.  The plain model is the weak model without undesirable rows
and without the beta block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DataSet, Direction
from .errors import LpUnbounded, ValidationError
from .lp import PIVOT_TOL, basic_solution, batch_simplex, drive_out, two_phase
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


def _unit_scale(*parts) -> np.ndarray:
    """Largest direction component of each member (columns of 2-D parts)."""
    scale = np.max(np.concatenate(parts), axis=0, initial=0.0)
    if np.any(scale <= 0.0):
        raise ValidationError("direction must have a strictly positive component")
    return scale


def _solve_over(Z, sign, p, d, a, cols, eq=0):
    """Distances of members laid out as in ``_eq1_tableaux``, solved in
    chunks of at most ``BATCH_BYTES`` of tableau, and a mask of those whose
    final duals price some column of Z below tolerance.

    The last ``eq`` rows of Z are equalities: their artificials stay out of
    pricing and are driven out before the simplex.  Each member's D is read
    from its final basis by ``basic_solution``, which also checks it, once
    for all chunks.
    """
    r, n = Z.shape
    w = cols.size + 1
    ncols = w + 1 + r - eq
    chunk = max(1, BATCH_BYTES // ((r + 2) * (w + r + 2) * 8))
    short = np.zeros(a.shape[1], dtype=bool)
    B, b, bases = [], [], []  # each chunk's unpivoted basis columns, RHS, basis
    for lo in range(0, a.shape[1], chunk):
        part = slice(lo, lo + chunk)
        T, basis = _eq1_tableaux(Z, sign, p[:, part], d[:, part], a[:, part], cols)
        A = T[:, :-1].copy()
        drive_out(T, basis, range(r - eq, r), ncols)
        if batch_simplex(T, basis, ncols)[1].any():
            raise LpUnbounded("distance unbounded; check the direction vector")
        B.append(A[np.arange(len(A))[:, None, None], np.arange(r + 1)[:, None], basis[:, None, :]])
        b.append(A[:, :, -1])
        bases.append(basis)
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
    basis = np.concatenate(bases)
    x = basic_solution(np.concatenate(B), np.concatenate(b), basis < ncols)
    return np.where(basis == w, x, 0.0).sum(axis=1), short


def _warm_distances(X, Y, xk, yk, dx, dy, ax, ay) -> np.ndarray:
    """Plain-model distances of points against the columns of (X, Y) plus
    each member's anchor (ax[:, b], ay[:, b]), which weakly dominates point
    b.  Each member is solved over the nondominated columns and its anchor,
    then priced over all columns; if one would still improve it, it is
    solved again over all of them."""
    # Solve with the direction normalized to unit magnitude; D scales
    # inversely, and the tableau stays conditioned for tiny components.
    scale = _unit_scale(dx, dy)
    Z, sign = np.concatenate([X, Y]), np.repeat([1.0, -1.0], [X.shape[0], Y.shape[0]])
    p, d, a = np.concatenate([xk, yk]), np.concatenate([dx, dy]) / scale, np.concatenate([ax, ay])
    out, short = _solve_over(Z, sign, p, d, a, _nondominated(X, Y))
    if short.any():
        out[short] = _solve_over(Z, sign, p[:, short], d[:, short], a[:, short],
                                 np.arange(Z.shape[1]))[0]
    return np.where(out < 0.0, 0.0, out) / scale


def directional_distances(X, Y, xk, yk, dx, dy, anchors) -> np.ndarray:
    """Plain-model distances of a stack of points, warm-started and batched.

    ``xk``, ``yk``, ``dx`` and ``dy`` hold one column per member; reference
    column ``anchors[b]`` must weakly dominate point b (for a world scored
    against itself, the point's own column).
    """
    ax, ay = X[:, anchors], Y[:, anchors]
    if np.any(ax > xk) or np.any(ay < yk):
        raise ValidationError("every anchor must weakly dominate its evaluated point")
    return _warm_distances(X, Y, xk, yk, dx, dy, ax, ay)


def _standard_form(X, Y, U, xk, yk, uk, dx, dy, du, dist):
    """Equality form (A, b) of the slack phase for the point (xk, yk, uk).

    With D fixed at ``dist``, rows are inputs, desirable outputs,
    undesirable outputs and convexity::

        X (alpha + beta) + gx = xk - D dx,   Y alpha - gy = yk + D dy,
        U alpha = uk - D du,                 sum(alpha + beta) = 1.

    Columns are (alpha, beta, gx, gy).  With ``U`` None there are no
    undesirable rows and no beta block: the plain model, whose ``uk`` and
    ``du`` are ignored.
    """
    m, n = X.shape
    s = Y.shape[0]
    weak = U is not None
    if not weak:
        U, uk, du = np.zeros((0, n)), np.zeros(0), np.zeros(0)
    v = U.shape[0]
    lam = 2 * n if weak else n
    A = np.zeros((m + s + v + 1, lam + m + s))
    A[:m, :n] = X
    if weak:
        A[:m, n:lam] = X
    A[m : m + s, :n] = Y
    A[m + s : m + s + v, :n] = U
    A[-1, :lam] = 1.0
    A[np.arange(m), lam + np.arange(m)] = 1.0
    A[m + np.arange(s), lam + m + np.arange(s)] = -1.0
    return A, np.concatenate([xk - dist * dx, yk + dist * dy, uk - dist * du, [1.0]])


def weak_disposability_distances(X, Y, U, xk, yk, uk, dx, dy, du, anchors) -> np.ndarray:
    """Weak-model distances of a stack of points, warm-started and batched.

    Laid out as ``directional_distances``; reference column ``anchors[b]``
    must weakly dominate point b in (X, Y) and have its undesirable outputs
    uk[:, b] exactly.  The reference columns are alpha_j = (X_j, Y_j, U_j)
    and beta_j = (X_j, 0, 0), all 2n of them: U is not freely disposable,
    so no column is dominated away and no pricing pass follows.
    """
    ax, ay, au = X[:, anchors], Y[:, anchors], U[:, anchors]
    if np.any(ax > xk) or np.any(ay < yk) or np.any(au != uk):
        raise ValidationError("every anchor must weakly dominate its evaluated point "
                              "and match its undesirable outputs")
    scale = _unit_scale(dx, dy, du)
    Z = np.block([[X, X], [Y, np.zeros_like(Y)], [U, np.zeros_like(U)]])
    sign = np.repeat([1.0, -1.0, 1.0], [len(X), len(Y), len(U)])
    out = _solve_over(Z, sign, np.concatenate([xk, yk, uk]),
                      np.concatenate([dx, dy, du]) / scale, np.concatenate([ax, ay, au]),
                      np.arange(Z.shape[1]), eq=len(U))[0]
    return np.where(out < 0.0, 0.0, out) / scale


def directional_distance(X, Y, xk, yk, dx, dy, anchor: int) -> float:
    """Optimal radial distance of (xk, yk) against the frontier of (X, Y):
    ``directional_distances`` for a batch of one, so reference column
    ``anchor`` must weakly dominate the point."""
    return float(directional_distances(
        X, Y, xk[:, None], yk[:, None], dx[:, None], dy[:, None], [anchor]
    )[0])


def _slack_phase(X, Y, U, xk, yk, uk, dx, dy, du, dist):
    """Maximize total slack at the fixed optimal distance.

    Returns the intensities (alpha, then beta for the weak model) and the
    slacks gx and gy.
    """
    A, b = _standard_form(X, Y, U, xk, yk, uk, dx, dy, du, dist)
    m = X.shape[0]
    lam = A.shape[1] - m - Y.shape[0]
    c = np.zeros(A.shape[1])
    c[lam:] = 1.0
    x, _ = two_phase(A, b, c)
    return x[:lam], x[lam : lam + m], x[lam + m :]


def _check_unmasked(data: DataSet):
    if data.has_missing:
        raise ValidationError(
            "dataset has imperfectly known cells; run the sampling pipeline "
            "or an imputation baseline first"
        )


def solve_directional(
    data: DataSet, k: int, direction: Direction, eps: float = DEFAULT_EPS
) -> DeaSolution:
    """Solve the plain directional model for DMU k against the full sample."""
    _check_unmasked(data)
    if not 0 <= k < data.n:
        raise ValidationError(f"DMU index {k} out of range")
    dx, dy, _ = direction.resolve(data, k)
    xk, yk = data.X[:, k], data.Y[:, k]
    dist = directional_distance(data.X, data.Y, xk, yk, dx, dy, anchor=k)
    mu, gx, gy = _slack_phase(data.X, data.Y, None, xk, yk, None, dx, dy, None, dist)
    return DeaSolution(
        distance=dist,
        intensities=mu,
        slacks_x=gx,
        slacks_y=gy,
        targets_x=data.X @ mu,
        targets_y=data.Y @ mu,
        targets_u=np.zeros(0),
        objective=dist + eps * (gx.sum() + gy.sum()),
    )


def solve_weak_disposability(
    data: DataSet, k: int, direction: Direction, eps: float = DEFAULT_EPS
) -> DeaSolution:
    """Solve the weak-disposability model for DMU k (requires v >= 1)."""
    _check_unmasked(data)
    if data.v < 1:
        raise ValidationError("no undesirable outputs; use solve_directional")
    if not 0 <= k < data.n:
        raise ValidationError(f"DMU index {k} out of range")
    dx, dy, du = direction.resolve(data, k)
    xk, yk, uk = data.X[:, k], data.Y[:, k], data.U[:, k]
    dist = weak_disposability_distance(data.X, data.Y, data.U, xk, yk, uk, dx, dy, du, anchor=k)
    weights, gx, gy = _slack_phase(data.X, data.Y, data.U, xk, yk, uk, dx, dy, du, dist)
    alpha, beta = weights[: data.n], weights[data.n :]
    return DeaSolution(
        distance=dist,
        intensities=alpha + beta,
        slacks_x=gx,
        slacks_y=gy,
        targets_x=data.X @ (alpha + beta),
        targets_y=data.Y @ alpha,
        targets_u=data.U @ alpha,
        objective=dist + eps * (gx.sum() + gy.sum()),
        alpha=alpha,
        beta=beta,
    )


def weak_disposability_distance(X, Y, U, xk, yk, uk, dx, dy, du, anchor: int) -> float:
    """The weak model's distance of (xk, yk, uk): ``weak_disposability_distances``
    for a batch of one, so reference column ``anchor`` must weakly dominate
    the point and share its undesirable outputs."""
    return float(weak_disposability_distances(
        X, Y, U, *(v[:, None] for v in (xk, yk, uk, dx, dy, du)), [anchor]
    )[0])


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
    d_low = _warm_distances(upper_x, lower_y, lower_x, upper_y, dxb, dyb, lower_x, upper_y)
    return d_low, d_high
