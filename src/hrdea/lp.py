"""Dense primal simplex for the small LPs generated by the DEA models.

All variables are implicitly non-negative.  Problems are maximized and
given in equality form; a ``<=`` row takes an explicit slack column.  One
simplex loop, ``batch_simplex``, continues a stack of LPs that all start at
a feasible basis, such as the warm-started DEA models of one sampled world.
It pivots every unfinished member at once, drops members as they finish
and keeps going with any member left alone; ``simplex`` is its batch of
one.  ``drive_out`` first pivots zero-level artificials out of the stack
(a redundant row keeps its own), and ``basic_solution`` then reads every
member's answer from its final basis and the unpivoted columns, and checks
that it satisfies ``Ax = b`` to within ``FEAS_TOL`` relative to ``b``.  A
caller that swaps a member's objective row continues it with another
``batch_simplex`` run.

Dantzig pricing is used first and Bland's rule takes over after
``BLAND_AFTER`` rounds to rule out cycling.  Every member of a call starts
at round 0, so each follows the same schedule in any batch, and a member's
arithmetic does not depend on the batch it sits in: a batch of one gives
the same bits as any larger batch.  Instances here have at most a few
hundred columns, so dense arithmetic is the right trade-off.
"""

from __future__ import annotations

import numpy as np

from .errors import LpError

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
BLAND_AFTER = 200
MAX_ITER = 20_000


def _pivot(T: np.ndarray, basis: np.ndarray, row, col) -> None:
    """Pivot member b of a stack on (row[b], col[b]) and record col[b] as
    the basic column of its row.  A member's update uses only its own
    operands, so its bits do not depend on the batch it sits in."""
    lanes = np.arange(len(T))
    piv_row = T[lanes, row] / T[lanes, row, col][:, None]
    T[lanes, row] = piv_row
    factors = T[lanes, :, col]
    factors[lanes, row] = 0.0
    T -= factors[:, :, None] * piv_row[:, None, :]
    basis[lanes, row] = col


def simplex(T: np.ndarray, basis: np.ndarray, ncols: int) -> str:
    """``batch_simplex`` on one tableau, in place: "optimal" or "unbounded"."""
    _, unbounded = batch_simplex(T[None], basis[None], ncols)
    return "unbounded" if unbounded[0] else "optimal"


def drive_out(T: np.ndarray, basis: np.ndarray, rows, ncols: int) -> None:
    """Pivot zero-level artificials out of ``rows`` of a stack of tableaux.

    Each member pivots row i on its largest entry among the first ``ncols``
    (priced) columns; the row's right-hand side is 0, so the pivot is
    degenerate and keeps the basis feasible.  A member whose row has no
    entry above ``PIVOT_TOL`` keeps its artificial there (the pivot on the
    artificial's own unit column changes nothing): the row is redundant.
    """
    for i in rows:
        col = np.argmax(np.abs(T[:, i, :ncols]), axis=1)
        live = np.abs(T[np.arange(len(T)), i, col]) > PIVOT_TOL
        _pivot(T, basis, np.full(len(T), i), np.where(live, col, basis[:, i]))


def basic_solution(B: np.ndarray, b: np.ndarray, real: np.ndarray) -> np.ndarray:
    """Each member's basic solution, solved from its unpivoted columns.

    ``B`` (batch, rows, rows) holds each member's final basis columns and
    ``b`` (batch, rows) its right-hand side, both as built, before any
    pivot; ``real`` marks the basic variables that are not artificials.
    One batched square solve gives every x_B, so a value depends on the
    basis, not on the pivots that reached it.  x is clipped at 0 and must
    satisfy ``Ax = b`` to within ``FEAS_TOL`` relative to b, an artificial
    counting as 0; a member that breaks it raises ``LpError``.  Returns the
    clipped x_B, (batch, rows).
    """
    try:
        x = np.linalg.solve(B, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        raise LpError("final basis is singular") from None
    x = np.where(real, np.maximum(x, 0.0), 0.0)
    residual = np.abs(np.einsum("bij,bj->bi", B, x) - b).max(axis=1)
    bad = residual > FEAS_TOL * (1.0 + np.abs(b).max(axis=1))
    if bad.any():
        raise LpError(f"answer violates Ax = b by {residual[bad].max():.3g}")
    return x


def batch_simplex(T: np.ndarray, basis: np.ndarray, ncols: int):
    """Run the simplex on a stack of reduced tableaux at once.

    ``T`` is (batch, rows+1, ncols+1): each member's constraint rows with
    the RHS in the last column, then its objective row holding z_j - c_j
    (optimal when all >= 0 for maximization).  ``basis`` (batch, rows) maps
    each member's rows to their basic columns; every member starts at a
    feasible basis, and both arrays end holding each member's final tableau
    and basis.  Each round prices every unfinished member, runs its ratio
    test and pivots it: with Dantzig's rule for the first ``BLAND_AFTER``
    rounds, then with Bland's rule (the first improving column; ratio ties
    go to the row of the smallest basic index).  Finished members drop out;
    ``LpError`` is raised after ``MAX_ITER`` rounds.  Returns
    (objective, unbounded): each member's final objective value and a mask
    of the unbounded ones.
    """
    batch = len(basis)
    final, final_basis = T, basis  # T and basis shrink as members finish
    unbounded = np.zeros(batch, dtype=bool)
    members = np.arange(batch)  # original index of each member still in T
    for it in range(MAX_ITER):
        reduced = T[:, -1, :ncols]
        lanes = np.arange(members.size)
        if it < BLAND_AFTER:
            col = np.argmin(reduced, axis=1)
        else:  # Bland: the first improving column
            col = np.argmax(reduced < -PIVOT_TOL, axis=1)
        optimal = reduced[lanes, col] >= -PIVOT_TOL
        col_vals = T[lanes, :-1, col]
        positive = col_vals > PIVOT_TOL
        done = optimal | ~positive.any(axis=1)
        if done.any():
            final[members[done]], final_basis[members[done]] = T[done], basis[done]
            unbounded[members[done & ~optimal]] = True
            keep = ~done
            if not keep.any():
                return final[:, -1, -1].copy(), unbounded
            T, basis, members = T[keep], basis[keep], members[keep]
            col, col_vals, positive = col[keep], col_vals[keep], positive[keep]
        ratios = np.divide(
            T[:, :-1, -1], col_vals, out=np.full(col_vals.shape, np.inf), where=positive
        )
        if it < BLAND_AFTER:
            row = np.argmin(ratios, axis=1)
        else:  # Bland: ratio ties go to the smallest basic index
            ties = ratios <= ratios.min(axis=1)[:, None] + PIVOT_TOL
            row = np.argmin(np.where(ties, basis, T.shape[-1]), axis=1)  # past any column
        _pivot(T, basis, row, col)
    raise LpError("simplex iteration limit exceeded")
