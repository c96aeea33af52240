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

The plain model's distance phase is warm-started at an anchor vertex, and
``directional_distances`` solves a whole sampled world of such LPs as one
batch from tableaux already pivoted to that vertex (``_eq1_tableaux``).
Every other LP is solved cold, one at a time, by ``two_phase`` on one
equality form (``_standard_form``): the weak model's distance phase, the
plain model's distance phase without an anchor, and both models' slack
phases.  The plain model is the weak model without undesirable rows and
without the beta block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DataSet, Direction
from .errors import LpInfeasible, LpUnbounded, ValidationError
from .lp import batch_simplex, two_phase
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


def _eq1_tableaux(X, Y, xk, yk, dx, dy, anchors):
    """Warm-start tableaux of the plain model's distance phase, one per member.

    Member b evaluates the point (xk[:, b], yk[:, b]) along (dx[:, b],
    dy[:, b]), starting at the vertex with full weight on reference column
    ``anchors[b]``; that vertex is feasible because the anchor weakly
    dominates the point.  Variables are (mu, D, gx, gy).  Returns the
    (batch, rows+1, ncols+1) stack and its (batch, rows) basis.
    """
    m, n = X.shape
    s = Y.shape[0]
    batch = anchors.size
    rows = m + s + 1
    T = np.zeros((batch, rows + 1, n + 1 + m + s + 1))
    ax = X[:, anchors].T
    ay = Y[:, anchors].T
    T[:, :m, :n] = X - ax[:, :, None]
    T[:, m : m + s, :n] = ay[:, :, None] - Y
    T[:, rows - 1, :n] = 1.0
    T[:, :m, n] = dx.T
    T[:, m : m + s, n] = dy.T
    idx = np.arange(m + s)
    T[:, idx, n + 1 + idx] = 1.0
    T[:, :m, -1] = xk.T - ax
    T[:, m : m + s, -1] = ay - yk.T
    T[:, rows - 1, -1] = 1.0
    T[:, -1, n] = -1.0
    basis = np.empty((batch, rows), dtype=np.intp)
    basis[:, :-1] = n + 1 + idx
    basis[:, -1] = anchors
    return T, basis


def _unit_scale(*parts) -> np.ndarray:
    """Largest direction component of each member (columns of 2-D parts)."""
    scale = np.max(np.concatenate(parts), axis=0, initial=0.0)
    if np.any(scale <= 0.0):
        raise ValidationError("direction must have a strictly positive component")
    return scale


def directional_distances(X, Y, xk, yk, dx, dy, anchors) -> np.ndarray:
    """Plain-model distances of a stack of points, warm-started and batched.

    ``xk``, ``yk``, ``dx`` and ``dy`` hold one column per member; reference
    column ``anchors[b]`` must weakly dominate point b (for a world scored
    against itself, the point's own column).  Members are solved in chunks
    of at most ``BATCH_BYTES`` of tableau each.
    """
    anchors = np.asarray(anchors, dtype=np.intp)
    if np.any(X[:, anchors] > xk) or np.any(Y[:, anchors] < yk):
        raise ValidationError("every anchor must weakly dominate its evaluated point")
    # Solve with the direction normalized to unit magnitude; D scales
    # inversely, and the tableau stays conditioned for tiny components.
    scale = _unit_scale(dx, dy)
    dx, dy = dx / scale, dy / scale
    m, n = X.shape
    s = Y.shape[0]
    member_bytes = (m + s + 2) * (n + m + s + 2) * 8
    chunk = max(1, BATCH_BYTES // member_bytes)
    out = np.empty(anchors.size)
    for a in range(0, anchors.size, chunk):
        b = min(a + chunk, anchors.size)
        T, basis = _eq1_tableaux(X, Y, xk[:, a:b], yk[:, a:b], dx[:, a:b], dy[:, a:b],
                                 anchors[a:b])
        out[a:b], unbounded = batch_simplex(T, basis, n + 1 + m + s)
        if unbounded.any():
            raise LpUnbounded("distance unbounded; check the direction vector")
    return np.where(out < 0.0, 0.0, out) / scale


def _standard_form(X, Y, U, xk, yk, uk, dx, dy, du, dist=None):
    """Equality form (A, b) of the directional model for the point (xk, yk, uk).

    Rows are inputs, desirable outputs, undesirable outputs and convexity::

        X (alpha + beta) + D dx + gx = xk,   Y alpha - D dy - gy = yk,
        U alpha + D du = uk,                 sum(alpha + beta) = 1.

    Columns are (alpha, beta, D, gx, gy).  With ``U`` None there are no
    undesirable rows and no beta block: the plain model, whose ``uk`` and
    ``du`` are ignored.  With ``dist`` given, D is fixed there and moved
    into b, as the slack phase needs.
    """
    m, n = X.shape
    s = Y.shape[0]
    weak = U is not None
    if not weak:
        U, uk, du = np.zeros((0, n)), np.zeros(0), np.zeros(0)
    v = U.shape[0]
    lam = 2 * n if weak else n
    g = lam if dist is not None else lam + 1  # first slack column
    A = np.zeros((m + s + v + 1, g + m + s))
    A[:m, :n] = X
    if weak:
        A[:m, n:lam] = X
    A[m : m + s, :n] = Y
    A[m + s : m + s + v, :n] = U
    A[-1, :lam] = 1.0
    A[np.arange(m), g + np.arange(m)] = 1.0
    A[m + np.arange(s), g + m + np.arange(s)] = -1.0
    if dist is None:
        A[:m, lam] = dx
        A[m : m + s, lam] = -dy
        A[m + s : m + s + v, lam] = du
        return A, np.concatenate([xk, yk, uk, [1.0]])
    return A, np.concatenate([xk - dist * dx, yk + dist * dy, uk - dist * du, [1.0]])


def _cold_distance(X, Y, U, xk, yk, uk, dx, dy, du) -> float:
    """The distance phase solved cold by ``two_phase`` (``U`` None: plain model).

    As in ``directional_distances``, the direction is scaled to unit
    magnitude for the solve and D scaled back.
    """
    scale = float(_unit_scale(dx, dy) if U is None else _unit_scale(dx, dy, du))
    A, b = _standard_form(X, Y, U, xk, yk, uk, dx / scale, dy / scale,
                          None if U is None else du / scale)
    c = np.zeros(A.shape[1])
    c[A.shape[1] - X.shape[0] - Y.shape[0] - 1] = 1.0  # D, just before the slacks
    _, obj = two_phase(A, b, c)
    return max(float(obj), 0.0) / scale


def directional_distance(X, Y, xk, yk, dx, dy, anchor: int | None = None) -> float:
    """Optimal radial distance of (xk, yk) against the frontier of (X, Y).

    With an ``anchor`` column that weakly dominates the point this is
    ``directional_distances`` for a batch of one; otherwise the LP is
    solved cold with ``two_phase``.
    """
    if anchor is not None and np.all(X[:, anchor] <= xk) and np.all(Y[:, anchor] >= yk):
        return float(directional_distances(
            X, Y, xk[:, None], yk[:, None], dx[:, None], dy[:, None], [anchor]
        )[0])
    return _cold_distance(X, Y, None, xk, yk, None, dx, dy, None)


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
    dist = weak_disposability_distance(data.X, data.Y, data.U, xk, yk, uk, dx, dy, du)
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


def weak_disposability_distance(X, Y, U, xk, yk, uk, dx, dy, du) -> float:
    """Distance-only entry point used by the sampling pipeline."""
    return _cold_distance(X, Y, U, xk, yk, uk, dx, dy, du)


def interval_dea_bounds(
    data: DataSet,
    lower_x: np.ndarray,
    upper_x: np.ndarray,
    lower_y: np.ndarray,
    upper_y: np.ndarray,
    k: int,
    direction: Direction,
) -> tuple[float, float]:
    """Widest distance interval for DMU k under box uncertainty.

    The upper bound projects the worst version of k (upper inputs, lower
    outputs) on the frontier of the best scenario; the lower bound projects
    the best version of k on the worst-scenario frontier.  A best version
    that would end up beyond the worst frontier (a super-efficiency case)
    is reported with the bound clamped at zero, consistent with the
    sampling pipeline where every point belongs to its own frontier.
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

    # Worst version of k against the best scenario.
    xk_w, yk_w = upper_x[:, k], lower_y[:, k]
    dxw, dyw, _ = direction.resolve_at(xk_w, yk_w)
    d_high = directional_distance(lower_x, upper_y, xk_w, yk_w, dxw, dyw, anchor=k)

    # Best version of k against the worst scenario.
    xk_b, yk_b = lower_x[:, k], upper_y[:, k]
    dxb, dyb, _ = direction.resolve_at(xk_b, yk_b)
    try:
        d_low = directional_distance(upper_x, lower_y, xk_b, yk_b, dxb, dyb)
    except LpInfeasible:
        d_low = 0.0
    return d_low, d_high
