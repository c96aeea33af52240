"""Command-line front end.

Subcommands: solve (DEA on fully known data), run (sampling pipeline), analyze
(robustness report from a distance matrix), bench (Monte Carlo
comparison), density (beta fit for one DMU).  Every artifact starts with
comment lines recording the configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import os
import sys

from . import __version__, dea, inference
from .baselines import SCENARIOS
from .benchmark import run_benchmark, save_benchmark
from .dataset import Direction, load_dataset
from .dea import _solve_dmus
from .errors import HrdeaError, ValidationError
from .inference import (
    beta_densities,
    check_report_settings,
    fit_beta,  # not called here, but perfbench/spans.py traces hrdea.cli.fit_beta
    fit_beta_rows,
    robustness_report,
    save_report,
)
from .pipeline import load_distance_matrix, run_hr_dea, save_distance_matrix, write_header
from .setspec import build_sets, parse_set_spec


def _add_data_arguments(parser):
    parser.add_argument("--data", required=True, help="CSV file with a header row")
    parser.add_argument("--id-col", default="dmu", help="name of the id column")
    parser.add_argument("--inputs", required=True, help="comma-separated input columns")
    parser.add_argument("--outputs", required=True, help="comma-separated output columns")
    parser.add_argument(
        "--undesirable-cols", default="", help="comma-separated undesirable output columns"
    )


def _add_model_arguments(parser):
    parser.add_argument("--orientation", default="proportional",
                        choices=("input", "output", "proportional"))
    parser.add_argument("--undesirable", action=argparse.BooleanOptionalAction, default=None,
                        help="force the weak-disposability model on or off")


def _add_report_arguments(parser):
    tau = inspect.signature(inference.robustness_report).parameters["tau"].default
    parser.add_argument("--tau", type=float, default=tau)
    parser.add_argument("--bucket-width", type=float, default=inference.DEFAULT_WIDTH)


def _load(args):
    schema = {args.id_col: "id"}
    for role, cols in (("input", args.inputs), ("output", args.outputs),
                       ("undesirable", args.undesirable_cols)):
        for col in cols.split(",") if cols else ():
            col = col.strip()
            if col in schema:
                raise ValidationError(f"column {col!r} is named as {schema[col]} and as {role}")
            schema[col] = role
    return load_dataset(args.data, schema)


def _cmd_solve(args) -> int:
    data = _load(args).for_model(args.undesirable)
    config = {
        "command": "solve",
        "data": os.path.basename(args.data),
        "orientation": args.orientation,
        "undesirable": data.v > 0,
        "eps": args.eps,
    }
    solutions = _solve_dmus(data, range(data.n), Direction(args.orientation), args.eps)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        write_header(fh, "distances", config)
        writer = csv.writer(fh)
        writer.writerow(["dmu", "distance", "objective"])
        for dmu, sol in zip(data.dmu_ids, solutions):
            writer.writerow([dmu, repr(float(sol.distance)), repr(float(sol.objective))])
    print(f"wrote {args.out}")
    return 0


def _run_matrix(args, data):
    records = parse_set_spec(args.sets) if args.sets else {}
    return run_hr_dea(
        data,
        build_sets(data, records),
        Direction(args.orientation),
        t=args.t,
        seed=args.seed,
        undesirable=args.undesirable,
        threads=args.threads,
    )


def _write_xy(fh, xs, ys) -> None:
    """An x,y table of floats: the bytes csv.writer's excel dialect writes
    for these rows, since a float's repr needs no quoting."""
    fh.write("x,y\r\n" + "".join([f"{x!r},{y!r}\r\n" for x, y in zip(xs, ys)]))


def _write_density(path, dm, dmu: str, fit, xs, ys, source: str) -> None:
    """Beta density curve (xs, ys) of one DMU of ``dm``, with the fit in the
    header; ``source`` is the JSON of ``dm.config``."""
    config = {
        "dmu": dmu,
        "alpha": fit.alpha,
        "beta": fit.beta,
        "q1": fit.q1,
        "q2": fit.q2,
        "ks": fit.ks_statistic,
        "seed": dm.seed,
    }
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_header(fh, "density", config, source)
        _write_xy(fh, xs.tolist(), ys.tolist())


def _check_file_names(dmu_ids) -> None:
    """Each DMU id names analyze files of its own, so none may hold a path separator."""
    nested = [dmu for dmu in dmu_ids if os.path.basename(dmu) != dmu]
    if nested:
        raise ValidationError(f"DMU ids {nested} hold a path separator, so cannot name files")


def _analyze_matrix(dm, outdir, tau, width) -> int:
    _check_file_names(dm.dmu_ids)
    report = robustness_report(dm, tau=tau, bucket_width=width)
    os.makedirs(outdir, exist_ok=True)
    report_path = os.path.join(outdir, "report.csv")
    save_report(report, report_path, source_config=dm.config)
    mids = report.scheme.midpoints().tolist()
    fits = fit_beta_rows(dm.values)
    xs, ys = beta_densities(fits)
    source = json.dumps(dm.config, sort_keys=True)
    for j, dmu in enumerate(dm.dmu_ids):
        hist_path = os.path.join(outdir, f"hist_{dmu}.csv")
        with open(hist_path, "w", newline="", encoding="utf-8") as fh:
            write_header(fh, "histogram",
                         {"dmu": dmu, "bucket_width": width, "seed": dm.seed}, source)
            _write_xy(fh, mids, report.erii[j].tolist())
        if not fits.skip[j]:
            _write_density(os.path.join(outdir, f"density_{dmu}.csv"), dm, dmu, fits.fit(j),
                           xs[j], ys[j], source)
    print(f"wrote {report_path}")
    return 0


def _cmd_run(args) -> int:
    data = _load(args)
    if args.analyze:  # a bad setting or id must not cost a whole walk
        check_report_settings(args.t, args.tau, args.bucket_width)
        _check_file_names(data.dmu_ids)
    dm = _run_matrix(args, data)
    save_distance_matrix(dm, args.out)
    print(f"wrote {args.out}")
    if args.analyze:
        outdir = args.outdir or os.path.dirname(os.path.abspath(args.out))
        return _analyze_matrix(dm, outdir, args.tau, args.bucket_width)
    return 0


def _cmd_analyze(args) -> int:
    return _analyze_matrix(load_distance_matrix(args.matrix), args.outdir, args.tau,
                           args.bucket_width)


def _cmd_bench(args) -> int:
    scenarios = tuple(s.strip() for s in args.scenarios.split(","))
    report = run_benchmark(
        scenarios=scenarios,
        reps=args.reps,
        n=args.n,
        gaps=args.gaps,
        t=args.t,
        seed=args.seed,
        threads=args.threads,
    )
    save_benchmark(report, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_density(args) -> int:
    dm = load_distance_matrix(args.matrix)
    fits = fit_beta_rows(dm.row(args.dmu)[None])
    fit = fits.fit(0)
    xs, ys = beta_densities(fits)
    _write_density(args.out, dm, args.dmu, fit, xs[0], ys[0],
                   json.dumps(dm.config, sort_keys=True))
    print(
        f"beta fit for {args.dmu}: alpha={fit.alpha:.4f} beta={fit.beta:.4f} "
        f"support=[{fit.q1:.6f}, {fit.q2:.6f}] ks={fit.ks_statistic:.4f}"
    )
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrdea",
        description="Robust DEA efficiency estimation under imperfect knowledge of data",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="DEA distances on fully known data")
    _add_data_arguments(p)
    _add_model_arguments(p)
    p.add_argument("--eps", type=float, default=dea.DEFAULT_EPS,
                   help="slack weight in the objective")
    p.add_argument("--out", default="distances.csv")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("run", help="sample admissible worlds and score each of them")
    _add_data_arguments(p)
    _add_model_arguments(p)
    p.add_argument("--sets", default=None, help="set-spec file; absent DMUs become points")
    p.add_argument("--t", type=int, default=5000, help="number of sampled worlds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default="matrix.csv")
    p.add_argument("--analyze", action="store_true",
                   help="also write the robustness report and per-DMU density data")
    p.add_argument("--outdir", default=None, help="directory for the analyze artifacts")
    _add_report_arguments(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("analyze", help="robustness report from a stored distance matrix")
    p.add_argument("--matrix", required=True)
    _add_report_arguments(p)
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("bench", help="Monte Carlo comparison against imputation baselines")
    p.add_argument("--scenarios", default=",".join(SCENARIOS))
    p.add_argument("--reps", type=int, default=150)
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--gaps", type=int, default=80)
    p.add_argument("--t", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default="benchmark.csv")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("density", help="beta fit and density curve for one DMU")
    p.add_argument("--matrix", required=True)
    p.add_argument("--dmu", required=True)
    p.add_argument("--out", default="density.csv")
    p.set_defaults(func=_cmd_density)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HrdeaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
