"""Dense primal simplex for the small LPs generated by the DEA models.

All variables are implicitly non-negative.  Problems are maximized and
given in equality form; a ``<=`` row takes an explicit slack column.  One
entry point, ``batch_simplex``, continues a stack of LPs that all start at
a feasible basis, such as the warm-started DEA models of one sampled world.
It pivots every unfinished member at once and drops members as they finish;
``simplex`` is its serial continuation.  ``drive_out`` first pivots
zero-level artificials out of the stack (a redundant row keeps its own),
and ``basic_solution`` then reads every member's answer from its final
basis and the unpivoted columns, and checks that it satisfies ``Ax = b`` to
within ``FEAS_TOL`` relative to ``b``.  A caller that swaps a member's
objective row continues it with another ``batch_simplex`` run.

Dantzig pricing is used first and Bland's rule takes over after
``BLAND_AFTER`` pivots to rule out cycling; Bland's rule lives in the
serial ``simplex`` only, and a batch member that reaches it, or is left
open alone, continues there.  A member's arithmetic does not depend on the
batch it sits in, so a batch of one gives the same bits as any larger
batch.  Instances here have at most a few hundred columns, so dense
arithmetic is the right trade-off.
"""

from __future__ import annotations

import numpy as np

from .errors import LpError

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
BLAND_AFTER = 200
MAX_ITER = 20_000


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    piv_row = T[row]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, piv_row)


def simplex(T: np.ndarray, basis: np.ndarray, ncols: int, start: int = 0) -> str:
    """Run the simplex on a reduced tableau.

    ``T`` is (rows+1, ncols+1): constraint rows with the RHS in the last
    column, objective row last holding z_j - c_j (optimal when all >= 0
    for maximization).  ``basis`` maps constraint rows to basic columns and
    is updated in place.  ``start`` is the number of pivots already made on
    this tableau, so a run handed over by ``batch_simplex`` keeps its place
    in the Dantzig/Bland schedule and the iteration limit.  Returns
    "optimal" or "unbounded".
    """
    zrow = T[-1]
    for it in range(start, MAX_ITER):
        reduced = zrow[:ncols]
        if it < BLAND_AFTER:
            col = int(np.argmin(reduced))
            if reduced[col] >= -PIVOT_TOL:
                return "optimal"
        else:
            negatives = np.nonzero(reduced < -PIVOT_TOL)[0]
            if negatives.size == 0:
                return "optimal"
            col = int(negatives[0])
        col_vals = T[:-1, col]
        positive = col_vals > PIVOT_TOL
        if not positive.any():
            return "unbounded"
        ratios = np.full(col_vals.shape, np.inf)
        ratios[positive] = T[:-1, -1][positive] / col_vals[positive]
        row = int(np.argmin(ratios))
        if it >= BLAND_AFTER:
            # Bland: break ratio ties on the smallest basic variable index.
            best = ratios[row]
            ties = np.nonzero(ratios <= best + PIVOT_TOL)[0]
            row = int(ties[np.argmin(basis[ties])])
        _pivot(T, row, col)
        basis[row] = col
    raise LpError("simplex iteration limit exceeded")


def _pivot_lanes(T: np.ndarray, basis: np.ndarray, row, col) -> None:
    """Pivot member b of a stack on (row[b], col[b]): the update of
    ``_pivot``, member by member, with the same operations on the same
    operands, so every member gets the bits of a serial pivot."""
    lanes = np.arange(len(T))
    piv_row = T[lanes, row] / T[lanes, row, col][:, None]
    T[lanes, row] = piv_row
    factors = T[lanes, :, col]
    factors[lanes, row] = 0.0
    T -= factors[:, :, None] * piv_row[:, None, :]
    basis[lanes, row] = col


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
        _pivot_lanes(T, basis, np.full(len(T), i), np.where(live, col, basis[:, i]))


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

    ``T`` is (batch, rows+1, ncols+1) and ``basis`` (batch, rows), each
    member laid out as in ``simplex`` and starting at a feasible basis;
    both end holding each member's final tableau and basis.  Each round
    prices every unfinished member with Dantzig's rule, runs its ratio test
    and pivots, exactly as ``simplex`` does for one tableau.  A member left
    open alone, or still open after ``BLAND_AFTER`` pivots, continues in
    ``simplex`` at the same place in the schedule: the same pivots, at a
    fraction of a batch round's cost.  Returns
    (objective, unbounded): each member's final objective value and a mask
    of the unbounded ones.
    """
    batch = len(basis)
    final, final_basis = T, basis  # T and basis shrink as members finish
    unbounded = np.zeros(batch, dtype=bool)
    members = np.arange(batch)  # original index of each member still in T
    start = BLAND_AFTER
    for it in range(BLAND_AFTER):
        reduced = T[:, -1, :ncols]
        col = np.argmin(reduced, axis=1)
        lanes = np.arange(members.size)
        optimal = reduced[lanes, col] >= -PIVOT_TOL
        col_vals = T[lanes, :-1, col]
        positive = col_vals > PIVOT_TOL
        stuck = ~positive.any(axis=1) & ~optimal
        done = optimal | stuck
        if done.any():
            final[members[done]], final_basis[members[done]] = T[done], basis[done]
            unbounded[members[stuck]] = True
            keep = ~done
            if not keep.any():
                return final[:, -1, -1].copy(), unbounded
            T, basis, members = T[keep], basis[keep], members[keep]
            col, col_vals, positive = col[keep], col_vals[keep], positive[keep]
        if members.size == 1:
            start = it
            break
        ratios = np.divide(
            T[:, :-1, -1], col_vals, out=np.full(col_vals.shape, np.inf), where=positive
        )
        _pivot_lanes(T, basis, np.argmin(ratios, axis=1), col)
    for lane, member in enumerate(members):
        status = simplex(T[lane], basis[lane], ncols, start=start)
        final[member], final_basis[member] = T[lane], basis[lane]
        unbounded[member] = status == "unbounded"
    return final[:, -1, -1].copy(), unbounded

