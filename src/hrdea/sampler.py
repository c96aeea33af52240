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

Randomness comes from counter-based Philox4x64-10 streams (Salmon et al.
2011) keyed by (master seed, stream id), so a draw depends only on its
stream id and never on execution order or thread count.  ``Walker`` steps
many walks at once.  One vectorized Philox draws all members' words (key
``[seed, stream]`` masked to 64 bits, blocks from counter 1, each word mapped
to ``(raw >> 11) * 2**-53``) in ``RngStream.generator``'s order: a word per
free coordinate for the direction, then xi, the fifth word on from the next
block.  Membership and both chords then run once per layout of sets, with
every dot product a stacked ``matmul`` over compacted rows (``d[:, None, :] @
d[:, :, None]``, ``A @ P[:, :, None]``): it calls the BLAS routine of the
scalar ``u @ v``, ``A @ p`` or ``np.linalg.norm`` with the same length, where
``einsum`` or ``(d * d).sum(1)`` would change last bits.  So each member walks
bit for bit as it would alone.  An all-zero direction draw (chance 2**-53 per
free coordinate) steps along the member's first free coordinate: a full-chord
move along a fixed line keeps the uniform law stationary, as a coordinate Hit
& Run step does (Smith 1984, *Oper. Res.* 32), and the chance of taking that
line does not depend on the point, so the mixed kernel keeps the law too.

Each set carries its chord fraction's law (``UncertaintySet.xi_law``):
``uniform`` takes xi as drawn, ``triangular`` maps it to triangular(0, 0.5,
1) by inverse CDF.

``Walker.walk`` is the one walk loop: member j of k draws step ell from
stream ``offset + ell * k + j``, and the words of up to ``_DRAW_STEPS``
steps come from one Philox call.  ``run_hr_dea`` walks its n DMUs with
offset 0; ``hr_sample`` walks one member with offset ``rng.stream``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .errors import ValidationError
from .geometry import SetStack, UncertaintySet, chord_length, chord_lengths, contains
from .geometry import contains_many

_MASK64 = (1 << 64) - 1
# Philox4x64 round multipliers and key increments (Salmon et al. 2011).
_PHILOX_MUL = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_BUMP = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_DRAW_STEPS = 32  # Walker.walk draws the words of this many steps at once


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


def philox_words(seed: int, streams, blocks: int) -> np.ndarray:
    """Row i: the first 4 * blocks words of ``Philox(key=[seed, streams[i]])``.

    Philox4x64-10 over the keys at once; numpy has no 128-bit product, so the
    high word of each 64 x 64 product is built from 32-bit halves.
    """
    key1 = np.array([int(s) & _MASK64 for s in streams], dtype=np.uint64)
    shape = (2, key1.size * blocks)
    m32, s32 = np.full(shape, 0xFFFFFFFF, np.uint64), np.full(shape, 32, np.uint64)
    mul, bump = (np.broadcast_to(c, shape).copy() for c in (_PHILOX_MUL, _PHILOX_BUMP))
    v0, v1 = mul & m32, mul >> s32
    key = np.stack([np.full(shape[1], seed & _MASK64, np.uint64), np.repeat(key1, blocks)])
    even = np.zeros(shape, np.uint64)  # counter words 0 and 2
    even[0] = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), key1.size)
    odd = np.zeros(shape, np.uint64)  # counter words 1 and 3
    for r in range(10):
        if r:
            key = key + bump
        u0, u1 = even & m32, even >> s32
        t = u1 * v0 + ((u0 * v0) >> s32)
        high = u1 * v1 + (t >> s32) + ((u0 * v1 + (t & m32)) >> s32)
        even, odd = high[::-1] ^ odd ^ key, (mul * even)[::-1]
    return np.stack([even[0], odd[0], even[1], odd[1]], axis=1).reshape(key1.size, 4 * blocks)


def _triangular(u: np.ndarray) -> np.ndarray:
    """``Generator.triangular(0, 0.5, 1)`` from its unit double u."""
    return np.where(u <= 0.5, 0.0 + np.sqrt(u * 0.5), 1.0 - np.sqrt((1.0 - u) * 0.5))


def _full_chord(twice: SetStack, P: np.ndarray, D: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """The point at fraction xi of each member's full chord through P along D.
    ``twice`` stacks each member twice: one pass gives the chords along D and -D."""
    P2 = np.concatenate([P, P])
    if not contains_many(twice, P2).all():
        raise ValidationError("walk point lies outside the set")
    forward, backward = np.split(chord_lengths(twice, P2, np.concatenate([D, -D])), 2)
    return P + (xi * (forward + backward) - backward)[:, None] * D


class Walker:
    """The stochastic step of one walk per set, for all the sets at once."""

    def __init__(self, sets: list[UncertaintySet]):
        self.triangular = np.array([uset.xi_law == "triangular" for uset in sets])
        layouts: dict[tuple, list[int]] = {}
        for i, uset in enumerate(sets):
            if not uset.is_point:  # a point set draws nothing
                layouts.setdefault(uset.layout, []).append(i)
        self.groups = [(SetStack([sets[i] for i in members] * 2), np.array(members))
                       for members in layouts.values()]
        self.live = [i for members in layouts.values() for i in members]
        self.blocks = max([st.flat.shape[1] // 4 + 1 for st, _ in self.groups], default=0)

    def uniforms(self, seed: int, streams) -> np.ndarray:
        """The unit doubles of each stream, one row per stream."""
        return (philox_words(seed, streams, self.blocks) >> np.uint64(11)) * 2.0**-53

    def step(self, points: np.ndarray, seed: int, streams, u=None) -> np.ndarray:
        """The members' next (k, z) points; member i draws from (seed, streams[i]).
        ``u`` may hold the unit doubles of the non-point members, drawn ahead."""
        if u is None:
            u = self.uniforms(seed, [streams[i] for i in self.live])
        new, start = points.copy(), 0
        for twice, members in self.groups:
            rows = slice(start, start + members.size)
            start = rows.stop
            new[members] = self._move(twice, members, points[members], u[rows])
        return new

    def walk(self, points: np.ndarray, seed: int, t: int, offset: int):
        """Yield the members' (k, z) points after each of t steps from ``points``.

        Member j draws step ell (from 1) from stream ``offset + ell * k + j``,
        so each member walks the serial recurrence, bit for bit.  The unit
        doubles of up to ``_DRAW_STEPS`` steps are drawn in one Philox call,
        so memory does not grow with t.
        """
        k, live = len(points), self.live
        for first in range(1, t + 1, _DRAW_STEPS):
            ells = range(first, min(first + _DRAW_STEPS, t + 1))
            u = self.uniforms(seed, [offset + ell * k + j for ell in ells for j in live])
            for ell, drawn in zip(ells, u.reshape(len(ells), len(live), 4 * self.blocks)):
                points = self.step(points, seed, range(offset + ell * k, offset + ell * k + k),
                                   drawn)
                yield points

    def _move(self, twice, members, P, u):
        """The next points P of one layout's members, from their unit doubles u.
        An all-zero direction draw steps along the member's first free coordinate."""
        za = twice.flat.shape[1]
        xi = np.where(self.triangular[members], _triangular(u[:, za]), u[:, za])
        d = -1.0 + 2.0 * u[:, :za]
        norm = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
        zero = norm == 0.0
        d[zero, 0], norm[zero] = 1.0, 1.0
        D = np.zeros_like(P)
        D.put(twice.flat[: len(P)], d / norm[:, None])
        return _full_chord(twice, P, D, xi)


def hr_step(
    uset: UncertaintySet,
    state: WalkState,
    rng: RngStream | None = None,
    *,
    direction: np.ndarray | None = None,
    xi: float | None = None,
) -> WalkState:
    """One Hit & Run step, drawn whole or forced whole.

    Drawn from ``rng``, the step lands on the full chord through the
    current point at a fraction drawn from ``uset.xi_law``; it is
    ``Walker``'s batch of one.  Forced by both ``direction`` and ``xi``, it
    is the deterministic one-sided projection P + chord(P, d) * xi * d.
    Forcing only one of the two is an error.
    """
    if (direction is None) != (xi is None):
        raise ValidationError("force both direction and xi, or neither")
    p = np.asarray(state.point, dtype=float)
    if p.shape != uset.center.shape:
        raise ValidationError("point dimension does not match the set")
    if uset.is_point:
        return replace(state, iteration=state.iteration + 1)
    if direction is None:
        if rng is None:
            raise ValidationError("provide an RngStream or force direction and xi")
        new_point = Walker([uset]).step(p[None], rng.seed, [rng.stream])[0]
    else:
        d = np.asarray(direction, dtype=float)
        norm = np.linalg.norm(d)
        if norm == 0:
            raise ValidationError("forced direction must be non-zero")
        d = d / norm
        new_point = p + chord_length(uset, p, d) * float(xi) * d
    return WalkState(point=new_point, iteration=state.iteration + 1)


def step(uset: UncertaintySet, state: WalkState, rng: RngStream | None = None) -> WalkState:
    """One drawn step of a single walk."""
    return hr_step(uset, state, rng)


def hr_sample(
    uset: UncertaintySet,
    start="centroid",
    t: int = 1,
    rng: RngStream | None = None,
    *,
    burn_in: int = 0,
    thin: int = 1,
) -> np.ndarray:
    """Emit t walk points (after optional burn-in and thinning).

    Step number ell uses the sub-stream ``rng.child(ell)``, which makes the
    sequence reproducible from (seed, stream id) alone: it is ``Walker.walk``
    of one member with offset ``rng.stream``.
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
    walk = Walker([uset]).walk(point[None], rng.seed, burn_in + t * thin, rng.stream)
    return np.array([p[0] for p in islice(walk, burn_in + thin - 1, None, thin)])
