"""Command-line front end.

Subcommands: solve (plain DEA), run (sampling pipeline), analyze
(robustness report from a distance matrix), bench (Monte Carlo
comparison), density (beta fit for one DMU).  Every artifact starts with
comment lines recording the configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import __version__
from .baselines import SCENARIOS
from .benchmark import run_benchmark, save_benchmark
from .dataset import Direction, load_dataset
from .dea import _solve_dmus
from .errors import DegenerateFitError, HrdeaError
from .inference import beta_density_points, erii, fit_beta, robustness_report, save_report
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


def _load(args):
    schema = {args.id_col: "id"}
    for col in args.inputs.split(","):
        schema[col.strip()] = "input"
    for col in args.outputs.split(","):
        schema[col.strip()] = "output"
    if args.undesirable_cols:
        for col in args.undesirable_cols.split(","):
            schema[col.strip()] = "undesirable"
    return load_dataset(args.data, schema)


def _direction(args) -> Direction:
    return Direction(args.orientation)


def _cmd_solve(args) -> int:
    data = _load(args)
    direction = _direction(args)
    use_weak = args.undesirable if args.undesirable is not None else data.v > 0
    config = {
        "command": "solve",
        "data": os.path.basename(args.data),
        "orientation": args.orientation,
        "undesirable": use_weak,
        "eps": args.eps,
    }
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        write_header(fh, "distances", config)
        writer = csv.writer(fh)
        writer.writerow(["dmu", "distance", "objective"])
        solutions = _solve_dmus(data, range(data.n), direction, use_weak, eps=args.eps)
        for dmu, sol in zip(data.dmu_ids, solutions):
            writer.writerow([dmu, repr(float(sol.distance)), repr(float(sol.objective))])
    print(f"wrote {args.out}")
    return 0


def _run_matrix(args):
    data = _load(args)
    direction = _direction(args)
    records = parse_set_spec(args.sets) if args.sets else {}
    sets, xi_laws = build_sets(data, records)
    undesirable = args.undesirable if args.undesirable is not None else data.v > 0
    return run_hr_dea(
        data,
        sets,
        direction,
        t=args.t,
        seed=args.seed,
        undesirable=undesirable,
        xi_laws=xi_laws,
        threads=args.threads,
    )


def _write_density(path, dm, dmu: str, fit) -> None:
    """Beta density curve of one DMU of ``dm``, with the fit in the header."""
    config = {
        "dmu": dmu,
        "alpha": fit.alpha,
        "beta": fit.beta,
        "q1": fit.q1,
        "q2": fit.q2,
        "ks": fit.ks_statistic,
        "seed": dm.seed,
        "source": dm.config,
    }
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_header(fh, "density", config)
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for x, y in beta_density_points(fit):
            writer.writerow([repr(float(x)), repr(float(y))])


def _analyze_matrix(matrix_path, outdir, tau, width) -> int:
    dm = load_distance_matrix(matrix_path)
    report = robustness_report(dm, tau=tau, bucket_width=width)
    os.makedirs(outdir, exist_ok=True)
    report_path = os.path.join(outdir, "report.csv")
    save_report(report, report_path, source_config=dm.config)
    scheme = report.scheme
    mids = scheme.midpoints()
    for j, dmu in enumerate(dm.dmu_ids):
        samples = dm.values[j]
        hist_path = os.path.join(outdir, f"hist_{dmu}.csv")
        with open(hist_path, "w", newline="", encoding="utf-8") as fh:
            write_header(
                fh,
                "histogram",
                {"dmu": dmu, "bucket_width": width, "seed": dm.seed, "source": dm.config},
            )
            writer = csv.writer(fh)
            writer.writerow(["x", "y"])
            for x, y in zip(mids, erii(samples, scheme)):
                writer.writerow([repr(float(x)), repr(float(y))])
        try:
            fit = fit_beta(samples)
        except (DegenerateFitError, HrdeaError):
            continue
        _write_density(os.path.join(outdir, f"density_{dmu}.csv"), dm, dmu, fit)
    print(f"wrote {report_path}")
    return 0


def _cmd_run(args) -> int:
    dm = _run_matrix(args)
    save_distance_matrix(dm, args.out)
    print(f"wrote {args.out}")
    if args.analyze:
        outdir = args.outdir or os.path.dirname(os.path.abspath(args.out))
        return _analyze_matrix(args.out, outdir, args.tau, args.bucket_width)
    return 0


def _cmd_analyze(args) -> int:
    return _analyze_matrix(args.matrix, args.outdir, args.tau, args.bucket_width)


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
    samples = dm.row(args.dmu)
    fit = fit_beta(samples)
    _write_density(args.out, dm, args.dmu, fit)
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

    p = sub.add_parser("solve", help="plain DEA distances on fully known data")
    _add_data_arguments(p)
    p.add_argument("--orientation", default="proportional",
                   choices=("input", "output", "proportional"))
    p.add_argument("--undesirable", action=argparse.BooleanOptionalAction, default=None,
                   help="force the weak-disposability model on or off")
    p.add_argument("--eps", type=float, default=1e-6, help="slack weight in the objective")
    p.add_argument("--out", default="distances.csv")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("run", help="sample admissible worlds and score each of them")
    _add_data_arguments(p)
    p.add_argument("--sets", default=None, help="set-spec file; absent DMUs become points")
    p.add_argument("--orientation", default="proportional",
                   choices=("input", "output", "proportional"))
    p.add_argument("--undesirable", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--t", type=int, default=5000, help="number of sampled worlds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default="matrix.csv")
    p.add_argument("--analyze", action="store_true",
                   help="also write the robustness report and per-DMU density data")
    p.add_argument("--outdir", default=None, help="directory for the analyze artifacts")
    p.add_argument("--tau", type=float, default=0.95)
    p.add_argument("--bucket-width", type=float, default=0.01)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("analyze", help="robustness report from a stored distance matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--tau", type=float, default=0.95)
    p.add_argument("--bucket-width", type=float, default=0.01)
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
    except HrdeaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
