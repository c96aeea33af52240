"""Checks made apart from hrdea: DEA models solved with HiGHS, the membership
inequality of each set shape, and the order-statistic confidence bounds.

Nothing here calls hrdea's solver, geometry or inference code; the models are
written from their formulation, not from the program's tableaux.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

# Values are floored here before the LPs are assembled, as hrdea documents for
# sampled worlds (a zero input would make the proportional direction vanish).
INPUT_FLOOR = 1e-12
# Agreement asked of hrdea's simplex against HiGHS, relative to max(1, |D|).
LP_TOL = 1e-6
MEMBER_TOL = 1e-9


def _solve(c, a_ub, b_ub, a_eq, b_eq, bounds) -> float:
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS could not solve the oracle LP: {res.message}")
    return float(-res.fun)


def plain_distance(X, Y, xk, yk, dx, dy) -> float:
    """Directional VRS distance of (xk, yk):

        max D  s.t.  X lam <= xk - D dx,  Y lam >= yk + D dy,  sum(lam) = 1,
                     lam >= 0,  D free.
    """
    m, n = X.shape
    s = Y.shape[0]
    c = np.zeros(n + 1)
    c[n] = -1.0
    a_ub = np.zeros((m + s, n + 1))
    a_ub[:m, :n] = X
    a_ub[:m, n] = dx
    a_ub[m:, :n] = -Y
    a_ub[m:, n] = dy
    b_ub = np.concatenate([xk, -yk])
    a_eq = np.concatenate([np.ones(n), [0.0]])[None, :]
    bounds = [(0.0, None)] * n + [(None, None)]
    return _solve(c, a_ub, b_ub, a_eq, [1.0], bounds)


def weak_distance(X, Y, U, xk, yk, uk, dx, dy, du) -> float:
    """Directional distance under weak disposability of the undesirable
    outputs U, with intensities split into an active part alpha and an
    abated part beta:

        max D  s.t.  X (alpha + beta) <= xk - D dx,  Y alpha >= yk + D dy,
                     U alpha = uk - D du,  sum(alpha + beta) = 1,
                     alpha, beta >= 0,  D free.
    """
    m, n = X.shape
    s, v = Y.shape[0], U.shape[0]
    c = np.zeros(2 * n + 1)
    c[2 * n] = -1.0
    a_ub = np.zeros((m + s, 2 * n + 1))
    a_ub[:m, :n] = X
    a_ub[:m, n : 2 * n] = X
    a_ub[:m, 2 * n] = dx
    a_ub[m:, :n] = -Y
    a_ub[m:, 2 * n] = dy
    b_ub = np.concatenate([xk, -yk])
    a_eq = np.zeros((v + 1, 2 * n + 1))
    a_eq[:v, :n] = U
    a_eq[:v, 2 * n] = du
    a_eq[v, : 2 * n] = 1.0
    b_eq = np.concatenate([uk, [1.0]])
    bounds = [(0.0, None)] * (2 * n) + [(None, None)]
    return _solve(c, a_ub, b_ub, a_eq, b_eq, bounds)


def world_distances(points, m, s, direction) -> np.ndarray:
    """Distance of every DMU of one world (a z-by-n matrix of observations)
    against that world's frontier; ``direction`` is "proportional" or
    "output".  Undesirable rows (beyond m + s) select the weak model."""
    pts = np.maximum(np.asarray(points, dtype=float), INPUT_FLOOR)
    X, Y, U = pts[:m], pts[m : m + s], pts[m + s :]
    out = np.empty(pts.shape[1])
    for k in range(pts.shape[1]):
        xk, yk, uk = X[:, k], Y[:, k], U[:, k]
        if direction == "proportional":
            dx, dy, du = xk, yk, uk
        elif direction == "output":
            dx, dy, du = np.zeros_like(xk), yk, np.zeros_like(uk)
        else:
            raise ValueError(f"unsupported direction {direction!r}")
        if U.shape[0]:
            d = weak_distance(X, Y, U, xk, yk, uk, dx, dy, du)
        else:
            d = plain_distance(X, Y, xk, yk, dx, dy)
        out[k] = max(d, 0.0)
    return out


def lp_mismatches(program, oracle) -> list[int]:
    """Indices where the program's distance differs from the oracle's by more
    than LP_TOL relative to max(1, |oracle|)."""
    program = np.asarray(program, dtype=float)
    oracle = np.asarray(oracle, dtype=float)
    bad = np.abs(program - oracle) > LP_TOL * np.maximum(1.0, np.abs(oracle))
    return [int(i) for i in np.nonzero(bad)[0]]


def is_member(spec: dict, point) -> bool:
    """Membership inequality of one set, stated from its definition.

    ``spec`` holds ``shape`` and ``center``, plus ``w`` (semi-axes; a zero
    pins the coordinate) or ``rows_a``/``rows_b`` for a polytope.  Every set
    lies in the non-negative orthant.
    """
    p = np.asarray(point, dtype=float)
    c = np.asarray(spec["center"], dtype=float)
    if np.any(p < -MEMBER_TOL):
        return False
    shape = spec["shape"]
    if shape == "point":
        return bool(np.all(np.abs(p - c) <= MEMBER_TOL))
    if shape == "polytope":
        return bool(np.all(spec["rows_a"] @ p <= spec["rows_b"] + MEMBER_TOL))
    w = np.asarray(spec["w"], dtype=float)
    free = w > 0
    if np.any(np.abs(p[~free] - c[~free]) > MEMBER_TOL):
        return False
    u = np.abs(p[free] - c[free]) / w[free]
    if shape == "box":
        return bool(np.all(u <= 1.0 + MEMBER_TOL))
    if shape == "ellipsoid":
        return bool(np.sum(u * u) <= 1.0 + MEMBER_TOL)
    if shape == "rhombus":
        return bool(np.sum(u) <= 1.0 + MEMBER_TOL)
    raise ValueError(f"no membership inequality for shape {shape!r}")


def order_statistic_bounds(values, tau: str):
    """Per-row bounds (D[ceil((1-tau)t/2)], D[floor((1+tau)t/2)]), 1-based
    order statistics of each row of ``values``; ``tau`` is given as a decimal
    string so the indices are computed in exact arithmetic."""
    values = np.sort(np.asarray(values, dtype=float), axis=1)
    t = values.shape[1]
    level = Fraction(tau)
    lo = math.ceil((1 - level) * t / 2)
    hi = math.floor((1 + level) * t / 2)
    return values[:, lo - 1], values[:, hi - 1]


def read_matrix(path):
    """(ids, d0, values) of an hrdea distance-matrix CSV, parsed here."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines()
                 if line.strip() and not line.startswith("#")]
    header = lines[0].split(",")
    if header[:2] != ["dmu", "d0"]:
        raise ValueError(f"unexpected matrix header {header[:2]}")
    rows = [line.split(",") for line in lines[1:]]
    ids = [r[0] for r in rows]
    numbers = np.array([[float(v) for v in r[1:]] for r in rows])
    if numbers.shape[1] != len(header) - 1:
        raise ValueError("matrix rows and header differ in length")
    return ids, numbers[:, 0], numbers[:, 1:]


def read_table(path) -> list[dict]:
    """Rows of a headed CSV written by hrdea, '#' comment lines skipped."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines()
                 if line.strip() and not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]
