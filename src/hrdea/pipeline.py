"""Integrated sampling + DEA pipeline.

Per iteration, every DMU's walk advances one step inside its own
uncertainty set, the frontier is rebuilt from the sampled observations,
and each DMU's distance against that frontier is recorded.  Column ell of
the resulting matrix is therefore one coherent resampled world.

The walk is continuous across iterations (never restarted at the
centroid).  Iteration 0 evaluates the centroids themselves; those
distances are kept separate from the sampled columns.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataset import DataSet, Direction
from .dea import directional_distances, weak_disposability_distance
# Unused here; the tracer in perfbench/spans.py looks this name up.
from .dea import directional_distance  # noqa: F401
from .errors import ParseError, ValidationError
from .geometry import UncertaintySet
from .sampler import RngStream, WalkState, XI_LAWS, step

INPUT_FLOOR = 1e-12
FORMAT_NAME = "hrdea distance-matrix v1"


@dataclass(frozen=True)
class DistanceMatrix:
    """n-by-t matrix of sampled distances with seed provenance."""

    dmu_ids: tuple[str, ...]
    values: np.ndarray
    baseline: np.ndarray
    seed: int
    config: dict

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != len(self.dmu_ids):
            raise ValidationError("distance matrix must be n x t")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValidationError("distances must be finite and >= 0")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "baseline", np.asarray(self.baseline, dtype=float))
        object.__setattr__(self, "dmu_ids", tuple(self.dmu_ids))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def t(self) -> int:
        return self.values.shape[1]

    def row(self, dmu: str) -> np.ndarray:
        try:
            j = self.dmu_ids.index(dmu)
        except ValueError:
            raise ValidationError(f"unknown DMU id {dmu!r}")
        return self.values[j]


def _column_distances(points: np.ndarray, m: int, s: int, model: str, direction: Direction):
    """Distances of every DMU against the frontier of one sampled world.

    Values are floored at a tiny positive constant before LP assembly:
    sampled points may sit exactly on the orthant boundary, and a zero
    value would make the proportional or one-sided directions degenerate.
    The plain model solves the whole world as one warm-started batch, each
    DMU anchored at its own column.
    """
    n = points.shape[1]
    floored = np.maximum(points, INPUT_FLOOR)
    X = floored[:m]
    Y = floored[m : m + s]
    U = floored[m + s :]
    dx, dy, du = direction.resolve_at(X, Y, U)
    if model == "weak":
        return np.array([
            weak_disposability_distance(
                X, Y, U, X[:, k], Y[:, k], U[:, k], dx[:, k], dy[:, k], du[:, k]
            )
            for k in range(n)
        ])
    return directional_distances(X, Y, X, Y, dx, dy, np.arange(n))


def _solve_block(args):
    start, block, m, s, model, direction = args
    cols = [
        _column_distances(block[i], m, s, model, direction) for i in range(block.shape[0])
    ]
    return start, np.column_stack(cols) if cols else np.empty((0, 0))


def run_hr_dea(
    data: DataSet,
    sets: list[UncertaintySet],
    direction: Direction,
    t: int,
    seed: int = 0,
    *,
    undesirable: bool | None = None,
    xi_laws=None,
    threads: int = 1,
) -> DistanceMatrix:
    """Sample t admissible worlds and score every DMU in each of them.

    ``sets`` holds one uncertainty set per DMU (a point set encodes perfect
    knowledge).  Walk steps for DMU j at iteration ell draw from the Philox
    stream (seed, ell*n + j), so results do not depend on ``threads``.
    """
    n = data.n
    if t < 1:
        raise ValidationError("need at least one iteration")
    if len(sets) != n:
        raise ValidationError(f"expected one uncertainty set per DMU ({n}), got {len(sets)}")
    for j, uset in enumerate(sets):
        if uset.z != data.z:
            raise ValidationError(
                f"set for DMU {data.dmu_ids[j]!r} has dimension {uset.z}, expected {data.z}"
            )
    if undesirable is None:
        undesirable = data.v > 0
    if undesirable and data.v == 0:
        raise ValidationError("undesirable model requested but the dataset has v = 0")
    model = "weak" if undesirable else "plain"
    if xi_laws is None:
        xi_laws = ["uniform"] * n
    elif isinstance(xi_laws, str):
        xi_laws = [xi_laws] * n
    if len(xi_laws) != n:
        raise ValidationError("one xi law per DMU required")
    for law in xi_laws:
        if law not in XI_LAWS:
            raise ValidationError(f"unknown xi law {law!r}")

    # Serial walk advance: keeps the recurrence exact, and each step draws
    # from its own (seed, ell*n + j) stream.
    states = [WalkState(point=uset.center.copy()) for uset in sets]
    points = np.empty((t, data.z, n))
    for ell in range(1, t + 1):
        for j in range(n):
            states[j] = step(
                sets[j], states[j], RngStream(seed, ell * n + j), xi_law=xi_laws[j]
            )
            points[ell - 1, :, j] = states[j].point

    centroids = np.column_stack([uset.center for uset in sets])
    baseline = _column_distances(centroids, data.m, data.s, model, direction)

    values = np.empty((n, t))
    if threads <= 1 or t == 1:
        for ell in range(t):
            values[:, ell] = _column_distances(points[ell], data.m, data.s, model, direction)
    else:
        nblocks = min(t, threads * 4)
        edges = np.linspace(0, t, nblocks + 1, dtype=int)
        tasks = [
            (int(a), points[a:b], data.m, data.s, model, direction)
            for a, b in zip(edges[:-1], edges[1:])
            if b > a
        ]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for start, block in pool.map(_solve_block, tasks):
                values[:, start : start + block.shape[1]] = block

    config = {
        "t": t,
        "seed": seed,
        "direction": direction.mode,
        "model": model,
        "xi_laws": sorted(set(xi_laws)),
        "shapes": [uset.shape for uset in sets],
    }
    return DistanceMatrix(
        dmu_ids=data.dmu_ids,
        values=values,
        baseline=baseline,
        seed=seed,
        config=config,
    )


def save_distance_matrix(dm: DistanceMatrix, path) -> None:
    """CSV with a comment header carrying the full config and seed."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# {FORMAT_NAME}\n")
        fh.write(f"# config: {json.dumps(dm.config, sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerow(["dmu", "d0", *(f"iter_{i+1}" for i in range(dm.t))])
        for j, dmu in enumerate(dm.dmu_ids):
            writer.writerow(
                [dmu, repr(float(dm.baseline[j])), *(repr(float(v)) for v in dm.values[j])]
            )


def load_distance_matrix(path) -> DistanceMatrix:
    config = {}
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("#"):
            text = line[1:].strip()
            if text.startswith("config:"):
                config = json.loads(text[len("config:") :])
        elif line.strip():
            body.append(line)
    if not body:
        raise ParseError("no data rows in distance matrix file")
    reader = csv.reader(body)
    header = next(reader)
    if header[:2] != ["dmu", "d0"]:
        raise ParseError("unexpected distance-matrix header")
    ids, baseline, rows = [], [], []
    for row in reader:
        ids.append(row[0])
        baseline.append(float(row[1]))
        rows.append([float(v) for v in row[2:]])
    return DistanceMatrix(
        dmu_ids=tuple(ids),
        values=np.array(rows, dtype=float),
        baseline=np.array(baseline, dtype=float),
        seed=int(config.get("seed", 0)),
        config=config,
    )
