"""Line-oriented specification of per-DMU uncertainty sets.

One record per line::

    <dmu-id> shape=<point|box|ellipsoid|rhombus|polytope|superellipsoid>
             [w=<v|v1,v2,...>] [center=<v1,v2,...>] [orders=<o1,o2>]
             [xi=<uniform|triangular>] [rows=<a1,..,az:b;...>]

Each shape takes only its own keys (``UncertaintySet`` decides which, and
checks the ``xi`` law), and a key may appear once per line.  Superellipsoid
orders must be two finite numbers >= 1, which keeps the set convex.  Blank
lines and lines whose first non-blank character is '#' are ignored.  On any
other line the first token is the DMU id, taken whole (it may hold '#'),
and a later '#' starts a comment.  DMUs absent from the file get a
degenerate point set at their observed values.  The center defaults to the
observed values, so DMUs with masked cells must override it.
"""

from __future__ import annotations

import numpy as np

from .dataset import DataSet
from .errors import ParseError, UnsupportedDimensionError, ValidationError
from .geometry import UncertaintySet


def _floats(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",") if tok != ""])
    except ValueError:
        raise ValueError(f"cannot parse {text!r} as numbers")


def parse_set_spec(path) -> dict[str, dict]:
    """Parse the file into {dmu_id: field dict}; geometry is built later."""
    records: dict[str, dict] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            dmu, *rest = line.split(None, 1)
            tokens = "".join(rest).split("#", 1)[0].split()
            if dmu in records:
                raise ParseError(f"duplicate record for DMU {dmu!r}", line_no)
            fields: dict = {}
            keys = set()
            for token in tokens:
                if "=" not in token:
                    raise ParseError(f"expected key=value, got {token!r}", line_no)
                key, value = token.split("=", 1)
                if key in keys:
                    raise ParseError(f"DMU {dmu!r}: key {key!r} given twice", line_no)
                keys.add(key)
                try:
                    if key in ("shape", "xi"):
                        fields[key] = value
                    elif key == "w":
                        fields["w"] = _floats(value)
                    elif key == "center":
                        fields["center"] = _floats(value)
                    elif key == "orders":
                        orders = _floats(value)
                        if orders.size != 2:
                            raise ValueError("orders needs exactly two values")
                        fields["orders"] = (float(orders[0]), float(orders[1]))
                    elif key == "rows":
                        rows_a, rows_b = [], []
                        for part in value.split(";"):
                            coeffs, _, bound = part.partition(":")
                            if not bound:
                                raise ValueError(f"row {part!r} needs 'coeffs:bound'")
                            rows_a.append(_floats(coeffs))
                            rows_b.append(float(bound))
                        fields["rows_a"] = np.vstack(rows_a)
                        fields["rows_b"] = np.array(rows_b)
                    else:
                        raise ValueError(f"unknown field {key!r}")
                except ValueError as exc:
                    raise ParseError(str(exc), line_no)
            if "shape" not in fields:
                raise ParseError(f"record for {dmu!r} has no shape", line_no)
            records[dmu] = fields
    return records


def build_sets(data: DataSet, records: dict[str, dict]):
    """Resolve records against a dataset -> one set per DMU."""
    unknown = set(records) - set(data.dmu_ids)
    if unknown:
        raise ValidationError(f"set spec names unknown DMUs: {sorted(unknown)}")
    stacked = data.stacked()
    sets = []
    for j, dmu in enumerate(data.dmu_ids):
        fields = records.get(dmu, {"shape": "point"})
        try:
            sets.append(_build_set(fields, stacked[:, j], np.isnan(stacked[:, j]).any()))
        except (ValidationError, UnsupportedDimensionError) as exc:
            raise type(exc)(f"DMU {dmu!r}: {exc}") from exc
    return sets


def _build_set(fields: dict, observed: np.ndarray, masked: bool) -> UncertaintySet:
    center = fields.get("center")
    if center is None:
        if masked:
            raise ValidationError("has masked cells, so its set spec must provide a center")
        center = observed
    center = np.asarray(center, dtype=float)
    if center.size != observed.size:
        raise ValidationError(f"center has {center.size} values, expected {observed.size}")
    return UncertaintySet(fields["shape"], center, fields.get("w"), fields.get("rows_a"),
                          fields.get("rows_b"), fields.get("orders"), fields.get("xi", "uniform"))
