"""Convex uncertainty sets and chord computations for the Hit & Run walk.

A set lives in the non-negative orthant of R^z (z = m + s + v): the orthant
bounds are appended to every chord computation, so a walk can never leave
the admissible region.  Coordinates whose semi-axis is zero are fixed at
the center; a set with all semi-axes zero degenerates to a single point.
Each set also carries the law of its walk's chord fraction (``xi_law``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import HrdeaError, UnsupportedDimensionError, ValidationError
from .lp import batch_simplex

# The fields each shape needs besides its center.  It takes no other, save
# that a point takes all-zero semi-axes (its default).
_NEEDS = {"point": (), "box": ("semi_axes",), "ellipsoid": ("semi_axes",),
          "rhombus": ("semi_axes",), "polytope": ("rows_a", "rows_b"),
          "superellipsoid": ("semi_axes", "orders")}
# Each field as a set-spec key, with the constructor's name where they differ.
_LABELS = {"semi_axes": "w= (semi_axes)", "rows_a": "rows= (rows_a)",
           "rows_b": "rows= (rows_b)", "orders": "orders="}
SHAPES = tuple(_NEEDS)
XI_LAWS = ("uniform", "triangular")  # the law of a walk step's chord fraction

CONTAIN_TOL = 1e-9
DENOM_TOL = 1e-12
RHOMBUS_MAX_DIM = 20


@dataclass(frozen=True)
class UncertaintySet:
    """Convex admissible region for one DMU's observation, and the law its
    walk draws each chord fraction from.  A scalar or one-element
    ``semi_axes`` applies to every coordinate."""

    shape: str
    center: np.ndarray
    semi_axes: np.ndarray | None = None
    rows_a: np.ndarray | None = None
    rows_b: np.ndarray | None = None
    orders: tuple[float, float] | None = None
    xi_law: str = "uniform"

    def __post_init__(self):
        shape = self.shape
        if shape not in _NEEDS:
            raise ValidationError(f"unknown shape {shape!r}; expected one of {SHAPES}")
        if self.xi_law not in XI_LAWS:
            raise ValidationError(f"unknown xi law {self.xi_law!r}; expected one of {XI_LAWS}")
        needs = _NEEDS[shape]
        takes = ("semi_axes",) if shape == "point" else needs
        for field, label in _LABELS.items():
            if getattr(self, field) is None:
                if field in needs:
                    raise ValidationError(f"{shape} needs {label}")
            elif field not in takes:
                raise ValidationError(f"{shape} takes no {label}")
        center = np.asarray(self.center, dtype=float).ravel()
        object.__setattr__(self, "center", center)
        if not np.isfinite(center).all():
            raise ValidationError("set center must be finite")
        if (center < 0).any():
            raise ValidationError("set center must lie in the non-negative orthant")
        if shape == "polytope":
            a = np.atleast_2d(np.asarray(self.rows_a, dtype=float))
            b = np.asarray(self.rows_b, dtype=float).ravel()
            if a.shape != (b.size, center.size):
                raise ValidationError("polytope rows do not match the dimension")
            if not (np.isfinite(a).all() and np.isfinite(b).all()):
                raise ValidationError("polytope rows must be finite")
            object.__setattr__(self, "rows_a", a)
            object.__setattr__(self, "rows_b", b)
            # The deviation of any other shape's center is 0, so it holds its center.
            if not contains(self, center):
                raise ValidationError("set center must belong to the set")
            if _recedes(a):
                raise ValidationError("polytope rows and the orthant do not bound the set")
            return
        w = np.asarray(0.0 if self.semi_axes is None else self.semi_axes, dtype=float).ravel()
        if w.size == 1 and center.size != 1:
            w = np.full(center.shape, w[0])
        if w.shape != center.shape:
            raise ValidationError("semi-axes must match the center dimension")
        if (w < 0).any() or not np.isfinite(w).all():
            raise ValidationError("semi-axes must be finite and >= 0")
        object.__setattr__(self, "semi_axes", w)
        if shape == "point" and w.any():
            raise ValidationError("point takes no nonzero w= (semi_axes)")
        if shape == "superellipsoid":
            if center.size != 3:
                raise UnsupportedDimensionError(
                    "superellipsoid sets support exactly 3 dimensions"
                )
            orders = np.asarray(self.orders, dtype=float)
            if orders.shape != (2,) or not ((orders >= 1) & (orders < np.inf)).all():
                raise ValidationError("superellipsoid orders must be two finite numbers >= 1")
            object.__setattr__(self, "orders", (float(orders[0]), float(orders[1])))
            if (w <= 0).any():
                raise ValidationError("superellipsoid semi-axes must be strictly positive")
        if shape == "rhombus" and int(np.count_nonzero(w)) > RHOMBUS_MAX_DIM:
            raise UnsupportedDimensionError(
                f"rhombus sets support at most {RHOMBUS_MAX_DIM} free dimensions"
            )

    @property
    def z(self) -> int:
        return self.center.size

    @property
    def active(self) -> np.ndarray:
        """Coordinates free to move (semi-axis > 0)."""
        if self.shape == "polytope":
            return np.ones(self.z, dtype=bool)
        return self.semi_axes > 0

    @property
    def layout(self) -> tuple:
        """What stacked sets share: shape, dimension, free and constraint counts."""
        rows = 0 if self.rows_b is None else self.rows_b.size
        return self.shape, self.z, int(np.count_nonzero(self.active)), rows

    @property
    def is_point(self) -> bool:
        if self.shape == "point":
            return True
        if self.shape == "polytope":
            return False
        return not self.active.any()

    def slice(self, keep) -> "UncertaintySet":
        """The slice through the center on the coordinates of mask ``keep``:
        the others stay at the center, so a polytope's rows lose their terms."""
        if self.shape != "polytope":
            return replace(self, center=self.center[keep], semi_axes=self.semi_axes[keep])
        a, drop = self.rows_a, ~keep
        return replace(self, center=self.center[keep], rows_a=a[:, keep],
                       rows_b=self.rows_b - a[:, drop] @ self.center[drop])

    # -- constructors ------------------------------------------------------

    @classmethod
    def point(cls, center) -> "UncertaintySet":
        return cls("point", center)

    @classmethod
    def box(cls, center, semi_axes) -> "UncertaintySet":
        return cls("box", center, semi_axes)

    @classmethod
    def ellipsoid(cls, center, semi_axes) -> "UncertaintySet":
        return cls("ellipsoid", center, semi_axes)

    @classmethod
    def rhombus(cls, center, semi_axes) -> "UncertaintySet":
        return cls("rhombus", center, semi_axes)

    @classmethod
    def polytope(cls, rows_a, rows_b, interior_point) -> "UncertaintySet":
        return cls("polytope", interior_point, rows_a=rows_a, rows_b=rows_b)

    @classmethod
    def superellipsoid(cls, center, semi_axes, orders) -> "UncertaintySet":
        return cls("superellipsoid", center, semi_axes, orders=orders)


def _recedes(a: np.ndarray) -> bool:
    """Whether {x >= 0 : a x <= b} has a direction of recession, i.e. is
    unbounded.  max 1.d over a d <= 0, 1.d <= 1, d >= 0 is 0 when the only
    such d is 0 and 1 when any other exists; one LP from the slack basis."""
    r, z = a.shape
    T = np.zeros((r + 2, z + r + 2))
    T[:r, :z], T[r, :z], T[r, -1], T[-1, :z] = a, 1.0, 1.0, -1.0
    T[: r + 1, z : z + r + 1] = np.eye(r + 1)
    objective, _ = batch_simplex(T[None], np.arange(z, z + r + 1)[None], z + r + 1)
    return bool(objective[0] > 0.5)


class SetStack:
    """k sets of one ``layout``, stacked so that each rule below runs once for
    all of them.  Dot products run over each member's free coordinates as a
    stacked ``matmul``, which calls the BLAS dot or gemv of the member's own
    ``u @ v`` with the same length: each member gets its batch-of-one bits."""

    def __init__(self, sets):
        if len({u.layout for u in sets}) != 1:
            raise ValidationError("stacked sets must share one layout")
        self.shape, self.center = sets[0].shape, np.array([u.center for u in sets])
        self.frozen = ~np.array([u.active for u in sets])
        k, z = self.center.shape
        free = np.array([np.flatnonzero(~f) for f in self.frozen]).reshape(k, -1)
        self.flat = free + z * np.arange(k)[:, None]  # flat indices of the free coordinates
        self.mid = self.take(self.center)
        if self.shape == "polytope":
            self.rows_a, self.rows_b = (np.array([getattr(u, f) for u in sets])
                                        for f in ("rows_a", "rows_b"))
        else:
            self.semi = self.take(np.array([u.semi_axes for u in sets]))
        if self.shape == "superellipsoid":
            self.orders = np.array([u.orders for u in sets]).T

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The free coordinates of each member's row of a (k, z) array."""
        return rows.take(self.flat)

    def blocked(self, D: np.ndarray) -> np.ndarray:
        """Rows of D that push along a coordinate fixed at the center."""
        return ((np.abs(D) > DENOM_TOL) & self.frozen).any(axis=1)


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _products(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (a @ v[:, :, None])[:, :, 0]


def _gauge(stack: SetStack, t: np.ndarray) -> np.ndarray:
    """The superellipsoid's g(t) = (|t_x|^o1 + |t_y|^o1)^(o2/o1) + |t_u|^o2 of each row
    of t, the deviation from the center in semi-axis units; the set is g <= 1."""
    (o1, o2), (tx, ty, tu) = stack.orders, np.abs(t).T
    return (tx**o1 + ty**o1) ** (o2 / o1) + tu**o2


def contains_many(stack: SetStack, P: np.ndarray, tol: float = CONTAIN_TOL) -> np.ndarray:
    """Membership of each row of P in its member set, with a small outward slack."""
    inside = ~(P < -tol).any(axis=1)
    if stack.shape == "polytope":
        return inside & (_products(stack.rows_a, P) <= stack.rows_b + tol).all(axis=1)
    dev = P - stack.center
    inside &= ~((np.abs(dev) > tol) & stack.frozen).any(axis=1)
    t = stack.take(dev) / stack.semi
    if stack.shape == "ellipsoid":
        return inside & (_dots(t, t) <= 1 + tol)
    if stack.shape == "rhombus":
        return inside & (np.abs(t).sum(axis=1) <= 1 + tol)
    if stack.shape == "superellipsoid":
        return inside & (_gauge(stack, t) <= 1 + tol)
    return inside & (np.abs(t) <= 1 + tol).all(axis=1)  # box; a point set has no t


def contains(uset: UncertaintySet, point, tol: float = CONTAIN_TOL) -> bool:
    """Membership test with a small outward slack."""
    p = np.asarray(point, dtype=float).ravel()
    if p.shape != uset.center.shape:
        raise ValidationError("point dimension does not match the set")
    return bool(contains_many(SetStack([uset]), p[None], tol)[0])


def _orthant_cap(P: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Largest step along each row of D that keeps every coordinate non-negative."""
    caps = np.divide(P, -D, out=np.full(P.shape, np.inf), where=D < -DENOM_TOL)
    return np.maximum(caps.min(axis=1), 0.0)


def _forward_min(num: np.ndarray, den: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Smallest non-negative hit among the faces each row's direction points at.

    A face is ahead only when its denominator is strictly positive; a zero
    or negative denominator means the ray never reaches that face.  This
    also makes boundary points well-behaved: the
    face a point sits on blocks outward moves (hit at 0) but never inward
    ones, so the walk cannot freeze there.  Rows not ``live`` are ignored.
    """
    ahead = den > DENOM_TOL
    lam = np.divide(num, den, out=np.full(num.shape, np.inf), where=ahead)
    lam[~(lam >= -1e-6)] = np.inf
    first = lam.min(axis=1, initial=np.inf)
    stuck = live & (first == np.inf)
    if (stuck & ~ahead.any(axis=1)).any():
        raise HrdeaError("set is unbounded along the sampled direction")
    if stuck.any():
        raise HrdeaError("no forward boundary hit; interior precondition violated")
    return np.maximum(first, 0.0)


def _polytope_chords(stack: SetStack, P: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Distance to the boundary along D for a linear-constraint set."""
    k, z = P.shape
    a = np.concatenate([stack.rows_a, np.broadcast_to(-np.eye(z), (k, z, z))], axis=1)
    b = np.concatenate([stack.rows_b, np.zeros((k, z))], axis=1)
    return _forward_min(b - _products(a, P), _products(a, D), np.ones(k, dtype=bool))


def _box_chords(stack: SetStack, P: np.ndarray, D: np.ndarray) -> np.ndarray:
    lo, hi = np.maximum(stack.mid - stack.semi, 0.0), stack.mid + stack.semi
    pa, da = stack.take(P), stack.take(D)
    still = stack.blocked(D) | ~(np.abs(da) > DENOM_TOL).any(axis=1)
    # upper faces are ahead when d > 0, lower faces when d < 0
    num, den = np.concatenate([hi - pa, pa - lo], axis=1), np.concatenate([da, -da], axis=1)
    return np.where(still, 0.0, _forward_min(num, den, ~still))


def _ellipsoid_chords(stack: SetStack, P: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Smallest positive root of the boundary quadratic, orthant-capped."""
    da, dev = stack.take(D) / stack.semi, (stack.take(P) - stack.mid) / stack.semi
    phi, psi, sigma = _dots(da, da), 2.0 * _dots(dev, da), _dots(dev, dev) - 1.0
    disc = psi * psi - 4.0 * phi * sigma
    still = stack.blocked(D) | (phi == 0.0)
    if (~still & (disc < -1e-12)).any():
        raise HrdeaError("negative discriminant; start point outside the ellipsoid")
    root = np.divide(-psi + np.sqrt(np.maximum(disc, 0.0)), 2.0 * phi,
                     out=np.zeros(len(P)), where=~still)
    return np.where(still, 0.0, np.minimum(np.maximum(root, 0.0), _orthant_cap(P, D)))


@lru_cache(maxsize=32)
def _sign_patterns(z: int) -> np.ndarray:
    bits = (np.arange(2**z)[:, None] >> np.arange(z)[None, :]) & 1
    return (1.0 - 2.0 * bits).astype(float)


def _rhombus_chords(stack: SetStack, P: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Chord against the 2^z implicit faces |.|/w summing to one."""
    za = stack.flat.shape[1]
    a = _sign_patterns(za) / stack.semi[:, None, :]
    num = 1.0 - _products(a, stack.take(P) - stack.mid)
    still = stack.blocked(D) | (za == 0)
    lam = np.minimum(_forward_min(num, _products(a, stack.take(D)), ~still), _orthant_cap(P, D))
    return np.where(still, 0.0, lam)


def _superellipsoid_chords(stack: SetStack, P: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Bisection for the root of g = 1 along D, bracketed by the box chord.

    Orders >= 1 make g convex, so from an inside point g = 1 has one root
    along the ray, and the set lies inside its box, whose chord is already
    orthant-capped.  53 halvings shrink the bracket to one ulp of the box
    chord; the lower end kept is always inside the set.
    """
    lo, hi = np.zeros(len(P)), _box_chords(stack, P, D)
    dev, da = (stack.take(P) - stack.mid) / stack.semi, stack.take(D) / stack.semi
    for _ in range(53):
        mid = 0.5 * (lo + hi)
        inside = _gauge(stack, dev + mid[:, None] * da) <= 1.0
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    return lo


def chord_lengths(stack: SetStack, P: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Shape-appropriate chord length from each row of P along the unit row of D."""
    if stack.shape == "point":
        return np.zeros(len(P))
    rules = {"box": _box_chords, "ellipsoid": _ellipsoid_chords, "rhombus": _rhombus_chords,
             "polytope": _polytope_chords, "superellipsoid": _superellipsoid_chords}
    return rules[stack.shape](stack, P, D)


def chord_length(uset: UncertaintySet, p, d) -> float:
    """Shape-appropriate chord length from p, a point of the set, along the
    unit direction d: ``chord_lengths`` on a batch of one."""
    P, D = (np.asarray(v, dtype=float).reshape(1, -1) for v in (p, d))
    if P.shape[1] != uset.z or D.shape[1] != uset.z:
        raise ValidationError("point/direction dimension does not match the set")
    norm = np.linalg.norm(D[0])
    if abs(norm - 1.0) > 1e-6:
        raise ValidationError(f"direction must have unit norm, got {norm}")
    if not contains(uset, P[0]):
        raise ValidationError("chord start point lies outside the set")
    return float(chord_lengths(SetStack([uset]), P, D)[0])
