"""Data model for DMU observations.

Matrices follow the variables-by-units layout: ``X`` is m inputs by n DMUs,
``Y`` is s desirable outputs by n, ``U`` is v undesirable outputs by n
(v may be 0).  A NaN cell is an imperfectly known value; no other mark
records it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ParseError, ValidationError

# Cell contents that mark an imperfectly known value (case-insensitive).
MISSING_MARKERS = frozenset({"", "na", "nan"})

ROLES = ("id", "input", "output", "undesirable")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DataSet:
    """Immutable collection of n DMU observations."""

    dmu_ids: tuple[str, ...]
    X: np.ndarray
    Y: np.ndarray
    U: np.ndarray
    input_names: tuple[str, ...] = ()
    output_names: tuple[str, ...] = ()
    undesirable_names: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "X", _readonly(np.atleast_2d(self.X)))
        object.__setattr__(self, "Y", _readonly(np.atleast_2d(self.Y)))
        u = self.U if self.U is not None else np.empty((0, self.X.shape[1]))
        object.__setattr__(self, "U", _readonly(np.atleast_2d(u)))
        object.__setattr__(self, "dmu_ids", tuple(str(i) for i in self.dmu_ids))
        self._validate()

    def _validate(self):
        n = len(self.dmu_ids)
        if n < 1:
            raise ValidationError("a dataset needs at least one DMU")
        for name, mat in (("X", self.X), ("Y", self.Y), ("U", self.U)):
            if mat.ndim != 2 or mat.shape[1] != n:
                raise ValidationError(
                    f"{name} must have one column per DMU ({n}), got shape {mat.shape}"
                )
        if self.m < 1 or self.s < 1:
            raise ValidationError("need at least one input and one output variable")
        for name, mat in (("X", self.X), ("Y", self.Y), ("U", self.U)):
            if np.isinf(mat).any():
                raise ValidationError(f"{name} has infinite entries")
            if np.any(mat < 0):
                raise DomainError(f"{name} has negative entries; values must be >= 0")
        if len(set(self.dmu_ids)) != n:
            raise ValidationError("dmu_ids must be unique")
        for names, count, label in (
            (self.input_names, self.m, "input"),
            (self.output_names, self.s, "output"),
            (self.undesirable_names, self.v, "undesirable"),
        ):
            if names and len(names) != count:
                raise ValidationError(f"{label} names do not match variable count")

    @property
    def n(self) -> int:
        return len(self.dmu_ids)

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def s(self) -> int:
        return self.Y.shape[0]

    @property
    def v(self) -> int:
        return self.U.shape[0]

    @property
    def z(self) -> int:
        """Dimension of one stacked observation (m + s + v)."""
        return self.m + self.s + self.v

    @property
    def has_missing(self) -> bool:
        return bool(self.stacked_mask().any())

    def stacked(self) -> np.ndarray:
        """All variables stacked into a single (z, n) matrix."""
        return np.vstack([self.X, self.Y, self.U])

    def stacked_mask(self) -> np.ndarray:
        """Where the stacked values are unknown (NaN)."""
        return np.isnan(self.stacked())

    def column(self, j: int) -> np.ndarray:
        """Stacked observation of DMU j as a z-vector."""
        return self.stacked()[:, j]

    def variable_names(self) -> tuple[str, ...]:
        names = list(self.input_names) or [f"x{i+1}" for i in range(self.m)]
        names += list(self.output_names) or [f"y{r+1}" for r in range(self.s)]
        names += list(self.undesirable_names) or [f"u{h+1}" for h in range(self.v)]
        return tuple(names)

    def with_values(self, stacked: np.ndarray) -> "DataSet":
        """New dataset with the same structure and these values; a NaN cell
        is unknown."""
        stacked = np.asarray(stacked, dtype=float)
        if stacked.shape != (self.z, self.n):
            raise ValidationError(f"expected shape {(self.z, self.n)}, got {stacked.shape}")
        m, s = self.m, self.s
        return replace(
            self,
            X=stacked[:m],
            Y=stacked[m : m + s],
            U=stacked[m + s :],
        )


def from_arrays(X, Y, U=None, dmu_ids=None, **names) -> DataSet:
    """Build a DataSet from plain arrays; a NaN cell is unknown."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    U = np.empty((0, X.shape[1])) if U is None else np.atleast_2d(np.asarray(U, dtype=float))
    if dmu_ids is None:
        dmu_ids = tuple(f"dmu{j+1}" for j in range(X.shape[1]))
    return DataSet(dmu_ids=tuple(dmu_ids), X=X, Y=Y, U=U, **names)


@dataclass(frozen=True)
class Direction:
    """Improvement direction (delta_x, delta_y, delta_u) for the radial models.

    In "input", "output" and "proportional" modes the vector is resolved at
    the evaluated observation; "custom" carries explicit components.
    """

    mode: str
    dx: np.ndarray | None = None
    dy: np.ndarray | None = None
    du: np.ndarray | None = None

    MODES = ("input", "output", "proportional", "custom")

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise ValidationError(f"direction mode must be one of {self.MODES}")
        if self.mode == "custom":
            for part, label in ((self.dx, "dx"), (self.dy, "dy"), (self.du, "du")):
                if part is not None and not np.all(np.isfinite(part) & (np.asarray(part) >= 0)):
                    raise ValidationError(f"custom direction {label} must be finite and >= 0")

    @classmethod
    def input_oriented(cls) -> "Direction":
        return cls("input")

    @classmethod
    def output_oriented(cls) -> "Direction":
        return cls("output")

    @classmethod
    def proportional(cls) -> "Direction":
        return cls("proportional")

    @classmethod
    def custom(cls, dx, dy, du=None) -> "Direction":
        return cls(
            "custom",
            dx=np.asarray(dx, dtype=float),
            dy=np.asarray(dy, dtype=float),
            du=None if du is None else np.asarray(du, dtype=float),
        )

    def resolve_at(self, x: np.ndarray, y: np.ndarray, u: np.ndarray | None = None):
        """Numeric (dx, dy, du) for an observation (x, y, u).

        The observation may also be a stack of columns, x of shape (m, n)
        and so on; the result then holds one direction per column, and
        every column must have a strictly positive component.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        u = np.zeros((0, *x.shape[1:])) if u is None else np.asarray(u, dtype=float)
        if self.mode == "input":
            dx, dy, du = x.copy(), np.zeros_like(y), np.zeros_like(u)
        elif self.mode == "output":
            dx, dy, du = np.zeros_like(x), y.copy(), np.zeros_like(u)
        elif self.mode == "proportional":
            dx, dy, du = x.copy(), y.copy(), u.copy()
        else:
            parts = []
            for fixed, obs in ((self.dx, x), (self.dy, y), (self.du, u)):
                fixed = np.zeros(len(obs)) if fixed is None else np.asarray(fixed, dtype=float)
                if fixed.shape != obs.shape[:1]:
                    raise ValidationError("custom direction does not match variable counts")
                column = fixed.reshape(-1, *(1,) * (obs.ndim - 1))
                parts.append(np.broadcast_to(column, obs.shape).copy())
            dx, dy, du = parts
        if not np.all(np.any(dx > 0, axis=0) | np.any(dy > 0, axis=0) | np.any(du > 0, axis=0)):
            raise ValidationError("direction must have at least one strictly positive component")
        return dx, dy, du

    def resolve(self, data: DataSet, k: int):
        return self.resolve_at(data.X[:, k], data.Y[:, k], data.U[:, k])


def _parse_cell(token: str, row_line: int, colname: str, role: str):
    """One CSV cell -> its value, NaN if unknown."""
    if token.strip().lower() in MISSING_MARKERS:
        return np.nan
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"column '{colname}': cannot parse {token!r} as a number", row_line)
    if not np.isfinite(value):
        raise DomainError(f"line {row_line}: column '{colname}': non-finite value {token!r}")
    if value < 0:
        raise DomainError(
            f"line {row_line}: column '{colname}' ({role}): negative value {value} not allowed"
        )
    return value


def load_dataset(path, schema: dict[str, str]) -> DataSet:
    """Load a DataSet from a headed CSV file.

    ``schema`` maps every header column to a role in
    {"id", "input", "output", "undesirable"}.  Empty cells and the markers
    "NA"/"NaN" (case-insensitive) are unknown cells (NaN).  Column order of
    each role follows the file.  A byte-order mark before the header is
    skipped.
    """
    for col, role in schema.items():
        if role not in ROLES:
            raise ValidationError(f"column '{col}': unknown role {role!r}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", 1)
        header = [h.strip() for h in header]
        repeated = sorted({c for c in header if header.count(c) > 1})
        if repeated:
            names = ", ".join(map(repr, repeated))
            raise ParseError(f"the header names {names} more than once", 1)
        missing_cols = [c for c in header if c not in schema]
        if missing_cols:
            raise ValidationError(f"columns without a role in the schema: {missing_cols}")
        absent = [c for c in schema if c not in header]
        if absent:
            raise ValidationError(f"schema columns not in the file: {absent}")
        id_cols = [c for c in header if schema[c] == "id"]
        if len(id_cols) != 1:
            raise ValidationError("schema must assign the 'id' role to exactly one column")
        roles = [schema[c] for c in header]

        ids: list[str] = []
        rows: list[dict[str, list]] = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, found {len(row)}", line_no
                )
            record = {"input": [], "output": [], "undesirable": []}
            for token, colname, role in zip(row, header, roles):
                if role == "id":
                    ids.append(token.strip())
                else:
                    record[role].append(_parse_cell(token, line_no, colname, role))
            rows.append(record)

    if not rows:
        raise ParseError("no data rows", 2)
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValidationError(f"duplicate DMU ids: {dupes}")

    def matrix(role: str):
        # one list per DMU, so a role without columns gives shape (0, n)
        return np.array([r[role] for r in rows], dtype=float).T

    names = {r: [c for c in header if schema[c] == r] for r in ("input", "output", "undesirable")}
    return DataSet(
        dmu_ids=tuple(ids),
        X=matrix("input"),
        Y=matrix("output"),
        U=matrix("undesirable"),
        input_names=tuple(names["input"]),
        output_names=tuple(names["output"]),
        undesirable_names=tuple(names["undesirable"]),
    )


def save_dataset(data: DataSet, path) -> None:
    """Write a DataSet back to CSV; unknown cells become empty."""
    names = data.variable_names()
    stacked = data.stacked()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dmu", *names])
        for j, dmu in enumerate(data.dmu_ids):
            row = [dmu]
            for i in range(data.z):
                value = float(stacked[i, j])
                row.append("" if np.isnan(value) else repr(value))
            writer.writerow(row)


def dataset_schema(data: DataSet) -> dict[str, str]:
    """Schema dict that reloads a file written by save_dataset."""
    schema = {"dmu": "id"}
    names = data.variable_names()
    roles = ["input"] * data.m + ["output"] * data.s + ["undesirable"] * data.v
    schema.update(dict(zip(names, roles)))
    return schema


def pool_panel(datasets: list[DataSet], year_tags: list) -> DataSet:
    """Pool several waves of the same panel into one cross-section.

    Columns are concatenated and each id is suffixed with its wave tag, so a
    27-DMU panel observed four times becomes a 108-column dataset.
    """
    if not datasets:
        raise ValidationError("need at least one dataset")
    if len(datasets) != len(year_tags):
        raise ValidationError("one tag per dataset required")
    if len(set(map(str, year_tags))) != len(year_tags):
        raise ValidationError("year tags must be unique")
    first = datasets[0]
    for ds in datasets[1:]:
        if (ds.m, ds.s, ds.v) != (first.m, first.s, first.v):
            raise ValidationError(
                f"variable counts differ: {(ds.m, ds.s, ds.v)} vs {(first.m, first.s, first.v)}"
            )
    ids = tuple(
        f"{dmu}_{tag}" for ds, tag in zip(datasets, year_tags) for dmu in ds.dmu_ids
    )
    return DataSet(
        dmu_ids=ids,
        X=np.hstack([ds.X for ds in datasets]),
        Y=np.hstack([ds.Y for ds in datasets]),
        U=np.hstack([ds.U for ds in datasets]),
        input_names=first.input_names,
        output_names=first.output_names,
        undesirable_names=first.undesirable_names,
    )
