"""The three workloads: their inputs, the timed operation, and the checks.

Inputs are drawn with numpy from the benchmark's seed; hrdea receives only
the generated CSV and set-spec files (the two CLI workloads) or its own
seed and sizes (``bench-n300``).  Every check compares with a computation
made in ``oracle.py`` or with a property the method must have, never with a
stored copy of an earlier output.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil

import numpy as np

import hrdea.cli
from hrdea import RngStream, UncertaintySet, WalkState, from_arrays, pool_panel
from hrdea.baselines import SCENARIOS, generate_scenario
from hrdea.benchmark import _GEN, _STREAMS_PER_CASE, run_benchmark
from hrdea.dea import directional_distance
from hrdea.sampler import step

import oracle

TAU = "0.95"  # the CLI's default --tau, as a decimal string
REPLAY_COLUMNS = 3  # sampled columns recomputed with the oracle


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class CliWorkload:
    """``hrdea run --analyze`` through ``hrdea.cli.main`` on generated files.

    Subclasses define ``_generate`` (stacked values, ids, column names and
    one set spec per DMU), ``t`` and ``t_short``.
    """

    m = s = v = 0
    t = t_short = 0

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.dir = workdir
        self.data_path = workdir / "data.csv"
        self.sets_path = workdir / "sets.txt"
        self.matrix_path = workdir / "matrix.csv"
        self.outdir = workdir / "analyze"
        self.fingerprints: list[str] = []

    def setup(self) -> None:
        """Draw the inputs and write the data CSV and the set-spec file."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.values, self.ids, self.names, self.specs = self._generate(
            np.random.default_rng(self.seed)
        )
        with open(self.data_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dmu", *self.names])
            for j, dmu in enumerate(self.ids):
                writer.writerow([dmu, *(repr(float(x)) for x in self.values[:, j])])
        with open(self.sets_path, "w", encoding="utf-8") as fh:
            for dmu, spec in zip(self.ids, self.specs):
                fh.write(f"{dmu} {self._spec_line(spec)}\n")

    @staticmethod
    def _spec_line(spec: dict) -> str:
        if spec["shape"] == "point":
            return "shape=point"
        if spec["shape"] == "polytope":
            rows = ";".join(
                f"{_fmt(a)}:{float(b)!r}" for a, b in zip(spec["rows_a"], spec["rows_b"])
            )
            return f"shape=polytope rows={rows}"
        return f"shape={spec['shape']} w={_fmt(spec['w'])}"

    def _argv(self, t: int, out) -> list[str]:
        names = self.names
        argv = [
            "run", "--data", str(self.data_path), "--id-col", "dmu",
            "--inputs", ",".join(names[: self.m]),
            "--outputs", ",".join(names[self.m : self.m + self.s]),
            "--sets", str(self.sets_path), "--orientation", "proportional",
            "--t", str(t), "--seed", str(self.seed), "--threads", "1",
            "--out", str(out),
        ]
        if self.v:
            argv += ["--undesirable-cols", ",".join(names[self.m + self.s :])]
        return argv

    def _cli(self, argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = hrdea.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"hrdea exited with code {code}")

    def run_once(self) -> None:
        """The timed operation: sample, score, save, then analyze."""
        self._cli([*self._argv(self.t, self.matrix_path), "--analyze",
                   "--outdir", str(self.outdir)])

    def after_round(self) -> None:
        self.fingerprints.append(hashlib.sha256(self.matrix_path.read_bytes()).hexdigest())

    def matrix_bytes(self) -> int:
        return self.matrix_path.stat().st_size

    def check(self) -> list[str]:
        errors = []
        if len(set(self.fingerprints)) != 1:
            errors.append("rounds with the same seed wrote different matrices")
        ids, d0, values = oracle.read_matrix(self.matrix_path)
        n = len(self.ids)
        if ids != list(self.ids) or values.shape != (n, self.t):
            return errors + [f"matrix has shape {values.shape}, expected {(n, self.t)}"]

        # Replay the walk on the documented stream layout (seed, ell*n + j).
        sets = [self._uncertainty_set(spec) for spec in self.specs]
        states = [WalkState(point=u.center.copy()) for u in sets]
        worlds = [np.column_stack([u.center for u in sets])]
        for ell in range(1, REPLAY_COLUMNS + 1):
            states = [step(sets[j], states[j], RngStream(self.seed, ell * n + j))
                      for j in range(n)]
            worlds.append(np.column_stack([st.point for st in states]))
        for col, world in enumerate(worlds):
            outside = [self.ids[j] for j in range(n)
                       if not oracle.is_member(self.specs[j], world[:, j])]
            if outside:
                errors.append(f"world {col}: points outside their sets: {outside[:5]}")
            expected = oracle.world_distances(world, self.m, self.s, "proportional")
            program = d0 if col == 0 else values[:, col - 1]
            bad = oracle.lp_mismatches(program, expected)
            if bad:
                j = bad[0]
                errors.append(f"world {col}: {len(bad)} distances differ from HiGHS, "
                              f"e.g. {self.ids[j]}: {program[j]!r} vs {expected[j]!r}")

        lb, ub = oracle.order_statistic_bounds(values, TAU)
        rows = oracle.read_table(self.outdir / "report.csv")
        if [r["dmu"] for r in rows] != list(self.ids):
            errors.append("report rows do not follow the matrix rows")
        else:
            for j, row in enumerate(rows):
                if row["lb"] != f"{lb[j]:.6f}" or row["ub"] != f"{ub[j]:.6f}":
                    errors.append(f"report bounds of {row['dmu']} are [{row['lb']}, "
                                  f"{row['ub']}], order statistics give "
                                  f"[{lb[j]:.6f}, {ub[j]:.6f}]")
                    break

        short_path = self.dir / "matrix_short.csv"
        self._cli(self._argv(self.t_short, short_path))
        _, d0_short, short = oracle.read_matrix(short_path)
        if not (np.array_equal(d0_short, d0)
                and np.array_equal(short, values[:, : self.t_short])):
            errors.append(f"the t = {self.t_short} run is not a prefix of the t = {self.t} run")
        return errors

    @staticmethod
    def _uncertainty_set(spec) -> UncertaintySet:
        if spec["shape"] == "point":
            return UncertaintySet.point(spec["center"])
        if spec["shape"] == "polytope":
            return UncertaintySet.polytope(spec["rows_a"], spec["rows_b"], spec["center"])
        return UncertaintySet(spec["shape"], spec["center"], spec["w"])


class RunBoxN100(CliWorkload):
    """Scenario-I-style data, n = 100, a box on every DMU."""

    m, s, v = 2, 1, 0
    t, t_short = 100, 20
    n = 100

    def _generate(self, rng):
        n = self.n
        x1 = 10.0 + 5.0 * rng.uniform(size=n)
        x2 = 20.0 + 10.0 * np.abs(rng.normal(size=n))
        y1 = 5.0 * np.sqrt(x1) * x2**0.7 * (1.0 - rng.uniform(size=n))
        values = np.vstack([x1, x2, y1])
        rel = rng.uniform(0.05, 0.15, size=n)
        specs = [{"shape": "box", "center": values[:, j], "w": rel[j] * values[:, j]}
                 for j in range(n)]
        ids = [f"D{j + 1:03d}" for j in range(n)]
        return values, ids, ["x1", "x2", "y1"], specs


class WeakPanelN108(CliWorkload):
    """A 27-DMU panel over four waves pooled into 108 DMUs; two inputs, two
    outputs, one undesirable output, every variable of order one.  Every even
    DMU gets an ellipsoid, rhombus or polytope in turn, every odd DMU a point
    set."""

    m, s, v = 2, 2, 1
    t, t_short = 40, 10
    units = 27
    waves = (2013, 2014, 2015, 2016)

    def _generate(self, rng):
        size = rng.lognormal(0.0, 0.5, size=self.units)
        datasets = []
        for _ in self.waves:
            jitter = rng.uniform(0.9, 1.1, size=(5, self.units))
            eff = rng.uniform(0.6, 1.0, size=self.units)
            X = size * jitter[:2]
            Y = size * eff * jitter[2:4]
            U = size * eff * rng.uniform(0.5, 1.5, size=self.units) * jitter[4:]
            ids = [f"H{j + 1:02d}" for j in range(self.units)]
            datasets.append(from_arrays(X, Y, U, dmu_ids=ids))
        pooled = pool_panel(datasets, list(self.waves))
        values = pooled.stacked()
        n, z = pooled.n, pooled.z
        rel = rng.uniform(0.05, 0.15, size=n)
        specs = []
        for j in range(n):
            c = values[:, j]
            w = rel[j] * c
            shape = "point" if j % 2 else ("ellipsoid", "rhombus", "polytope")[(j // 2) % 3]
            if shape == "polytope":
                # the box c +- w with two opposite corners cut off
                a = np.vstack([np.eye(z), -np.eye(z), 1.0 / w, -1.0 / w])
                b = np.concatenate([c + w, w - c, [2.0 + np.sum(c / w)],
                                    [2.0 - np.sum(c / w)]])
                specs.append({"shape": shape, "center": c, "rows_a": a, "rows_b": b})
            else:
                specs.append({"shape": shape, "center": c, "w": w})
        names = ["x1", "x2", "y1", "y2", "u1"]
        return values, list(pooled.dmu_ids), names, specs


class BenchN300:
    """``run_benchmark`` at n = 300, gaps = 80, t = 40 over scenarios I-III."""

    scenarios = ("I", "II", "III")
    n, gaps, t = 300, 80, 40

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.tables: list[str] = []

    def setup(self) -> None:
        """Nothing to write: run_benchmark draws its data from the seed."""

    def run_once(self) -> None:
        self.report = run_benchmark(self.scenarios, reps=1, n=self.n, gaps=self.gaps,
                                    t=self.t, seed=self.seed, threads=1)

    def after_round(self) -> None:
        self.tables.append(json.dumps(self.report.table, sort_keys=True))

    def matrix_bytes(self) -> int:
        return 0

    def check(self) -> list[str]:
        errors = []
        if len(set(self.tables)) != 1:
            errors.append("rounds with the same seed gave different tables")
        table = self.report.table
        for alt, metrics in table.items():
            for metric, per_scenario in metrics.items():
                for sc, value in per_scenario.items():
                    where = f"{alt}/{metric}/{sc} = {value!r}"
                    if not math.isfinite(value):
                        errors.append(f"not finite: {where}")
                    elif metric in ("pearson", "kendall") and not -1.0 <= value <= 1.0:
                        errors.append(f"outside [-1, 1]: {where}")
                    elif metric == "mae" and value < 0.0:
                        errors.append(f"negative: {where}")

        # Gap-free distances of each case's data against the HiGHS oracle;
        # the program's are computed as run_case computes its reference.
        for sc in self.scenarios:
            case = SCENARIOS.index(sc) * _STREAMS_PER_CASE  # the streams of rep 0
            data = generate_scenario(sc, self.n, RngStream(self.seed, case + _GEN))
            X, Y = data.X, data.Y
            program = [directional_distance(X, Y, X[:, k], Y[:, k], np.zeros(data.m),
                                            Y[:, k], anchor=k) for k in range(data.n)]
            expected = oracle.world_distances(data.stacked(), data.m, data.s, "output")
            bad = oracle.lp_mismatches(program, expected)
            if bad:
                errors.append(f"scenario {sc}: {len(bad)} gap-free distances differ "
                              f"from HiGHS")
        return errors


WORKLOADS = {
    "run-box-n100": RunBoxN100,
    "bench-n300": BenchN300,
    "weak-panel-n108": WeakPanelN108,
}
