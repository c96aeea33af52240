"""Hit & Run random walk over an uncertainty set.

Each step draws a direction with uniform(-1, 1) entries normalized to unit
Euclidean norm, intersects the line through the current point with the set
boundary, and jumps to a uniform point on that chord.  Sampling the full
chord (not just its forward half) is what makes the uniform law stationary;
jumping a uniform fraction of the forward half alone provably biases the
walk toward the boundary.  Forcing both the direction and the fraction
reproduces the one-sided construction instead (project the point on the
boundary along d, jump a fraction of that segment), which is the
deterministic form the tests pin down.

Randomness comes from counter-based Philox streams keyed by (master seed,
stream id), so a draw depends only on its stream id and never on execution
order or thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .geometry import UncertaintySet, chord_length, contains, superellipsoid_boundary_point

_MASK64 = (1 << 64) - 1

XI_LAWS = ("uniform", "triangular")


@dataclass(frozen=True)
class RngStream:
    """A named, order-independent random stream."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, offset: int) -> "RngStream":
        return RngStream(self.seed, self.stream + offset)


@dataclass(frozen=True)
class WalkState:
    point: np.ndarray
    iteration: int = 0


def draw_direction(gen: np.random.Generator, z: int) -> np.ndarray:
    """Random unit vector.

    Draws entries uniform(-1, 1) and normalizes (repeating the measure-zero
    all-zero draw), which weights the cube diagonals slightly; the full-chord
    step still leaves the uniform law stationary.
    """
    while True:
        d = gen.uniform(-1.0, 1.0, size=z)
        norm = np.linalg.norm(d)
        if norm > 0.0:
            return d / norm


def draw_xi(gen: np.random.Generator, law: str = "uniform") -> float:
    if law == "uniform":
        return float(gen.uniform(0.0, 1.0))
    if law == "triangular":
        return float(gen.triangular(0.0, 0.5, 1.0))
    raise ValidationError(f"unknown xi law {law!r}; expected one of {XI_LAWS}")


def hr_step(
    uset: UncertaintySet,
    state: WalkState,
    rng: RngStream | None = None,
    *,
    direction: np.ndarray | None = None,
    xi: float | None = None,
    xi_law: str = "uniform",
) -> WalkState:
    """One Hit & Run step.

    The stochastic step lands uniformly on the full chord through the
    current point.  When ``direction`` is forced the step is the
    deterministic one-sided projection P + chord(P, d) * xi * d.
    """
    p = np.asarray(state.point, dtype=float)
    if uset.is_point:
        return replace(state, iteration=state.iteration + 1)
    gen = rng.generator() if rng is not None else None
    if direction is None or xi is None:
        if gen is None:
            raise ValidationError("provide an RngStream or force direction and xi")
    forced = direction is not None
    if forced:
        d = np.asarray(direction, dtype=float)
        norm = np.linalg.norm(d)
        if norm == 0:
            raise ValidationError("forced direction must be non-zero")
        d = d / norm
    else:
        if not contains(uset, p):
            raise ValidationError("walk point lies outside the set")
        active = uset.active
        d = np.zeros(uset.z)
        d[active] = draw_direction(gen, int(np.count_nonzero(active)))
    forward = chord_length(uset, p, d, checked=forced)
    step_xi = draw_xi(gen, xi_law) if xi is None else float(xi)
    if forced:
        new_point = p + forward * step_xi * d
    else:
        backward = chord_length(uset, p, -d, checked=False)
        new_point = p + (step_xi * (forward + backward) - backward) * d
    return WalkState(point=new_point, iteration=state.iteration + 1)


def superellipsoid_step(
    uset: UncertaintySet,
    state: WalkState,
    rng: RngStream | None = None,
    *,
    psi: float | None = None,
    phi: float | None = None,
    xi: float | None = None,
    xi_law: str = "uniform",
) -> WalkState:
    """One walk step through the spherical parametrization of the boundary.

    Draws psi ~ uniform(-pi, pi) and phi ~ uniform(-pi/2, pi/2), hits the
    boundary point for those angles, and jumps a xi fraction of the segment
    from the current point to it.  The jump is rescaled so the new point
    stays inside the non-negative orthant.
    """
    if uset.shape != "superellipsoid":
        raise ValidationError("superellipsoid_step requires a superellipsoid set")
    p = np.asarray(state.point, dtype=float)
    gen = rng.generator() if rng is not None else None
    if (psi is None or phi is None or xi is None) and gen is None:
        raise ValidationError("provide an RngStream or force psi, phi and xi")
    if psi is None:
        psi = float(gen.uniform(-np.pi, np.pi))
    if phi is None:
        phi = float(gen.uniform(-np.pi / 2, np.pi / 2))
    boundary = superellipsoid_boundary_point(uset, psi, phi)
    grad = boundary - p
    step_xi = draw_xi(gen, xi_law) if xi is None else float(xi)
    # Clip the chord at the orthant before applying the fraction.
    scale = 1.0
    inward = grad < 0
    if inward.any():
        caps = p[inward] / -grad[inward]
        scale = min(1.0, float(np.min(caps)))
        scale = max(scale, 0.0)
    new_point = p + step_xi * scale * grad
    return WalkState(point=new_point, iteration=state.iteration + 1)


def step(
    uset: UncertaintySet,
    state: WalkState,
    rng: RngStream | None = None,
    xi_law: str = "uniform",
) -> WalkState:
    """Shape dispatch used by the pipeline."""
    if uset.shape == "superellipsoid":
        return superellipsoid_step(uset, state, rng, xi_law=xi_law)
    return hr_step(uset, state, rng, xi_law=xi_law)


def hr_sample(
    uset: UncertaintySet,
    start="centroid",
    t: int = 1,
    rng: RngStream | None = None,
    *,
    xi_law: str = "uniform",
    burn_in: int = 0,
    thin: int = 1,
) -> np.ndarray:
    """Emit t walk points (after optional burn-in and thinning).

    Step number ell uses the sub-stream ``rng.child(ell)``, which makes the
    sequence reproducible from (seed, stream id) alone.
    """
    if t < 1:
        raise ValidationError("need at least one iteration")
    if thin < 1 or burn_in < 0:
        raise ValidationError("burn_in must be >= 0 and thin >= 1")
    if rng is None:
        rng = RngStream(0)
    point = uset.center if isinstance(start, str) and start == "centroid" else np.asarray(
        start, dtype=float
    )
    if not contains(uset, point):
        raise ValidationError("start point lies outside the set")
    state = WalkState(point=point)
    out = np.empty((t, uset.z))
    kept = 0
    total = burn_in + t * thin
    for ell in range(1, total + 1):
        state = step(uset, state, rng.child(ell), xi_law=xi_law)
        if ell > burn_in and (ell - burn_in) % thin == 0:
            out[kept] = state.point
            kept += 1
    return out
