"""Integrated sampling + DEA pipeline.

Per iteration, every DMU's walk advances one step inside its own
uncertainty set, the frontier is rebuilt from the sampled observations,
and each DMU's distance against that frontier is recorded.  Column ell of
the resulting matrix is therefore one coherent resampled world.

The walk is ``sampler.Walker.walk`` over all n DMUs, continuous across
iterations (never restarted at the centroid).  Iteration 0 evaluates the
centroids themselves; those distances are kept separate from the sampled
columns.  The data decides the model: a plain run is the data without U
and each set's slice through its center on X and Y.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .dataset import DataSet, Direction
from .dea import INPUT_FLOOR, world_distances
# Unused here; the tracer in perfbench/spans.py looks these names up.
from .dea import directional_distance, weak_disposability_distance  # noqa: F401
from .errors import ParseError, UnsupportedDimensionError, ValidationError
from .geometry import UncertaintySet
from .sampler import Walker
# Unused here; the tracer in perfbench/spans.py looks this name up.
from .sampler import step  # noqa: F401

_CHUNK_WORLDS = 32  # worlds per pooled chunk


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
        if len(set(self.dmu_ids)) != len(self.dmu_ids):
            dupes = sorted({i for i in self.dmu_ids if self.dmu_ids.count(i) > 1})
            raise ValidationError(f"duplicate DMU ids in distance matrix: {dupes}")
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


def _column_distances(points: np.ndarray, m: int, s: int, direction: Direction):
    """Distances of every DMU against the frontier of one sampled world,
    by ``world_distances``: the weak model when the points have rows past
    X and Y (U's), the plain model when they have none.

    Values are floored at ``INPUT_FLOOR`` before LP assembly: sampled
    points may sit exactly on the orthant boundary.
    """
    floored = np.maximum(points, INPUT_FLOOR)
    X = floored[:m]
    Y = floored[m : m + s]
    U = floored[m + s :]
    return world_distances(X, Y, U, *direction.resolve_at(X, Y, U))


def _score(worlds, *args):
    """One pooled chunk: the distances of each of its worlds."""
    return [_column_distances(points, *args) for points in worlds]


def _pooled(worlds, args, threads: int, t: int):
    """Score the worlds on a process pool, in order.  The pool has at most
    one worker per CPU.  A chunk holds at most ``_CHUNK_WORLDS`` worlds and
    at most two chunks per worker are in flight, so the walk runs only that
    far ahead of the scores: memory does not grow with t."""
    workers = min(threads, os.cpu_count() or 1)
    chunk = min(math.ceil(t / (4 * workers)), _CHUNK_WORLDS)
    blocks = iter(lambda: list(islice(worlds, chunk)), [])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(_score, b, *args) for b in islice(blocks, 2 * workers))
        while pending:
            yield from pending.popleft().result()
            pending.extend(pool.submit(_score, b, *args) for b in islice(blocks, 1))


def run_hr_dea(
    data: DataSet,
    sets: list[UncertaintySet],
    direction: Direction,
    t: int,
    seed: int = 0,
    *,
    undesirable: bool | None = None,
    threads: int = 1,
) -> DistanceMatrix:
    """Sample t admissible worlds and score every DMU in each of them.

    ``sets`` holds one uncertainty set per DMU (a point set encodes perfect
    knowledge), each with its walk's ``xi_law``.  Walk steps for DMU j at
    iteration ell draw from the Philox stream (seed, ell*n + j)
    (``Walker.walk`` with offset 0), so results do not depend on
    ``threads``.  Each world is walked when it is scored: a
    serial run holds one world of z-by-n points at a time, and with
    ``threads > 1`` a bounded window of worlds.

    The data decides the model (``DataSet.for_model``): a plain run takes the
    data without U, each set's slice through its center and no custom du.
    """
    n = data.n
    if t < 1:
        raise ValidationError("need at least one iteration")
    if threads < 1:
        raise ValidationError(f"threads must be at least 1, not {threads}")
    if len(sets) != n:
        raise ValidationError(f"expected one uncertainty set per DMU ({n}), got {len(sets)}")
    for j, uset in enumerate(sets):
        if uset.z != data.z:
            raise ValidationError(
                f"set for DMU {data.dmu_ids[j]!r} has dimension {uset.z}, expected {data.z}"
            )
    read = data.for_model(undesirable)
    if read.v < data.v:
        keep, sets = np.arange(data.z) < read.z, list(sets)
        for j, dmu in enumerate(data.dmu_ids):
            try:
                sets[j] = sets[j].slice(keep)
            except UnsupportedDimensionError as exc:
                raise UnsupportedDimensionError(f"DMU {dmu!r}: {exc}") from exc
        data, direction = read, replace(direction, du=None)
    walker = Walker(sets)

    centroids = np.column_stack([uset.center for uset in sets])
    baseline = _column_distances(centroids, data.m, data.s, direction)

    worlds = (np.ascontiguousarray(points.T) for points in walker.walk(centroids.T, seed, t, 0))
    args = (data.m, data.s, direction)
    if threads > 1:
        columns = _pooled(worlds, args, threads, t)
    else:
        columns = (_column_distances(points, *args) for points in worlds)
    values = np.empty((n, t))
    for ell, column in enumerate(columns):
        values[:, ell] = column

    config = {
        "t": t,
        "seed": seed,
        "direction": direction.mode,
        "model": "weak" if data.v else "plain",
        "xi_laws": sorted({uset.xi_law for uset in sets}),
        "shapes": [uset.shape for uset in sets],
    }
    return DistanceMatrix(
        dmu_ids=data.dmu_ids,
        values=values,
        baseline=baseline,
        seed=seed,
        config=config,
    )


def write_header(fh, name: str, config: dict, source: str | None = None) -> None:
    """The comment lines that open every hrdea artifact: format name and
    version, then the config as sorted JSON.  ``source``, the sorted JSON of
    a config encoded once for many artifacts, is written as the value of
    the key "source", after ``config``'s keys, which must sort before it."""
    text = json.dumps(config, sort_keys=True)
    if source is not None:
        text = f'{text[:-1]}, "source": {source}}}'
    fh.write(f"# hrdea {name} v1\n")
    fh.write(f"# config: {text}\n")


def save_distance_matrix(dm: DistanceMatrix, path) -> None:
    """CSV with a comment header carrying the full config and seed."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_header(fh, "distance-matrix", dm.config)
        writer = csv.writer(fh)
        writer.writerow(["dmu", "d0", *(f"iter_{i+1}" for i in range(dm.t))])
        for j, dmu in enumerate(dm.dmu_ids):
            writer.writerow(
                [dmu, repr(float(dm.baseline[j])), *(repr(float(v)) for v in dm.values[j])]
            )


def load_distance_matrix(path) -> DistanceMatrix:
    """Read a matrix CSV; a malformed line raises ParseError with its number.
    Comment lines come before the ``dmu,d0`` header: after it, a line that
    starts with ``#`` is the row of a DMU whose id starts with ``#``."""
    config, seed = {}, 0
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = []
    for line_no, line in enumerate(lines, start=1):
        if not body and line.startswith("#"):
            text = line[1:].strip()
            if text.startswith("config:"):
                try:
                    config = json.loads(text[len("config:") :])
                    seed = int(config.get("seed", 0))
                except (AttributeError, TypeError, ValueError):
                    raise ParseError(
                        "config is not a JSON object with an integer seed", line_no
                    ) from None
        elif line.strip():
            body.append((line_no, line))
    if not body:
        raise ParseError("no data rows in distance matrix file")
    parsed = ((line_no, next(csv.reader([line]))) for line_no, line in body)
    header_no, header = next(parsed)
    if header[:2] != ["dmu", "d0"]:
        raise ParseError("unexpected distance-matrix header", header_no)
    ids, baseline, rows = [], [], []
    for line_no, row in parsed:
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(row)}", line_no)
        try:
            numbers = [float(v) for v in row[1:]]
        except ValueError:
            raise ParseError(f"non-numeric distance in row {row[0]!r}", line_no) from None
        ids.append(row[0])
        baseline.append(numbers[0])
        rows.append(numbers[1:])
    return DistanceMatrix(
        dmu_ids=tuple(ids),
        values=np.array(rows, dtype=float),
        baseline=np.array(baseline, dtype=float),
        seed=seed,
        config=config,
    )
