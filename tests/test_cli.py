import csv
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import hrdea
from hrdea.cli import main
from hrdea.dataset import Direction, from_arrays, load_dataset
from hrdea.dea import solve_directional, solve_weak_disposability
from hrdea.inference import BucketScheme, beta_densities, erii, fit_beta, fit_beta_rows
from hrdea.pipeline import DistanceMatrix, save_distance_matrix
from hrdea.setspec import build_sets, parse_set_spec


@pytest.fixture
def two_dmu_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("dmu,x1,y1\nA,1,1\nB,2,1\n")
    return path


def data_args(path):
    return ["--data", str(path), "--inputs", "x1", "--outputs", "y1"]


def test_solve_two_dmu_fixture(tmp_path, two_dmu_csv):
    out = tmp_path / "distances.csv"
    code = main(
        ["solve", *data_args(two_dmu_csv), "--orientation", "input", "--out", str(out)]
    )
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "dmu,distance,objective"
    rows = dict(line.split(",")[:2] for line in lines[1:])
    assert float(rows["A"]) == pytest.approx(0.0, abs=1e-9)
    assert float(rows["B"]) == pytest.approx(0.5, abs=1e-9)


def test_solve_undesirable_writes_the_weak_model(tmp_path):
    rng = np.random.default_rng(4)
    cells = rng.uniform(1.0, 10.0, size=(8, 4))
    path = tmp_path / "weak.csv"
    path.write_text("dmu,x1,x2,y1,u1\n" + "".join(
        f"D{j}," + ",".join(map(repr, row.tolist())) + "\n" for j, row in enumerate(cells)
    ))
    out = tmp_path / "distances.csv"
    code = main(["solve", "--data", str(path), "--inputs", "x1,x2", "--outputs", "y1",
                 "--undesirable-cols", "u1", "--undesirable", "--out", str(out)])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "dmu,distance,objective"
    data = from_arrays(cells[:, :2].T, cells[:, 2:3].T, cells[:, 3:].T,
                       dmu_ids=[f"D{j}" for j in range(8)])
    for k, line in enumerate(lines[1:]):
        dmu, distance, objective = line.split(",")
        sol = solve_weak_disposability(data, k, Direction.proportional())
        assert dmu == f"D{k}"
        assert (float(distance), float(objective)) == (sol.distance, sol.objective)
    assert len(lines) == 9


def solve_rows(path, out, model):
    """``hrdea solve`` on a CSV with columns x1, x2, y1, u1 under ``model``
    ("--undesirable" or "--no-undesirable"): {dmu: (distance, objective)},
    as written."""
    code = main(["solve", "--data", str(path), "--inputs", "x1,x2", "--outputs", "y1",
                 "--undesirable-cols", "u1", model, "--out", str(out)])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "dmu,distance,objective"
    return {dmu: (distance, objective)
            for dmu, distance, objective in (line.split(",") for line in lines[1:])}


@pytest.mark.parametrize("model", ["--no-undesirable", "--undesirable"])
def test_solve_batch_writes_the_per_dmu_solutions_bit_for_bit(tmp_path, model):
    # One batch for all DMUs; each member's arithmetic is that of its
    # batch of one.
    rng = np.random.default_rng(12)
    cells = rng.uniform(1.0, 10.0, size=(40, 4))
    cells[5] = cells[4]  # a duplicate DMU
    path = tmp_path / "data.csv"
    path.write_text("dmu,x1,x2,y1,u1\n" + "".join(
        f"D{j}," + ",".join(map(repr, row.tolist())) + "\n" for j, row in enumerate(cells)
    ))
    rows = solve_rows(path, tmp_path / "distances.csv", model)
    data = from_arrays(cells[:, :2].T, cells[:, 2:3].T, cells[:, 3:].T,
                       dmu_ids=[f"D{j}" for j in range(40)])
    solve = solve_weak_disposability if model == "--undesirable" else solve_directional
    expected = {}
    for k in range(40):
        sol = solve(data, k, Direction.proportional())
        expected[f"D{k}"] = (repr(float(sol.distance)), repr(float(sol.objective)))
    assert rows == expected


@pytest.mark.parametrize("model", ["--no-undesirable", "--undesirable"])
def test_solve_writes_zero_objective_for_efficient_dmus(tmp_path, model):
    # The five DMUs of the CI step: B and D are efficient, with no slack,
    # and their objectives read exactly 0.0.
    path = tmp_path / "small.csv"
    path.write_text("dmu,x1,x2,y1,u1\nA,2,3,5,1\nB,4,1,6,2\nC,3,3,4,1.5\nD,5,2,7,3\n"
                    "E,1,4,3,0.5\n")
    rows = solve_rows(path, tmp_path / "distances.csv", model)
    assert rows["B"] == rows["D"] == ("0.0", "0.0")


def test_run_is_deterministic(tmp_path, two_dmu_csv):
    sets = tmp_path / "sets.txt"
    sets.write_text("B shape=box w=0.5,0\n")
    args = [
        "run", *data_args(two_dmu_csv), "--sets", str(sets),
        "--orientation", "input", "--t", "10", "--seed", "7",
    ]
    out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_analyze_equals_fused(tmp_path, two_dmu_csv):
    sets = tmp_path / "sets.txt"
    sets.write_text("B shape=box w=0.5,0\n")
    base = [
        "run", *data_args(two_dmu_csv), "--sets", str(sets),
        "--orientation", "input", "--t", "200", "--seed", "3",
    ]
    fused_dir = tmp_path / "fused"
    split_dir = tmp_path / "split"
    fused_dir.mkdir() and split_dir.mkdir()
    m1 = fused_dir / "matrix.csv"
    assert main([*base, "--out", str(m1), "--analyze", "--outdir", str(fused_dir)]) == 0
    split_dir.mkdir(exist_ok=True)
    m2 = split_dir / "matrix.csv"
    assert main([*base, "--out", str(m2)]) == 0
    assert main(["analyze", "--matrix", str(m2), "--outdir", str(split_dir)]) == 0
    assert m1.read_bytes() == m2.read_bytes()
    assert (fused_dir / "report.csv").read_bytes() == (split_dir / "report.csv").read_bytes()


def test_analyze_all_zero_row_is_c1(tmp_path, two_dmu_csv):
    out = tmp_path / "matrix.csv"
    assert main([
        "run", *data_args(two_dmu_csv), "--orientation", "input",
        "--t", "50", "--seed", "1", "--out", str(out),
    ]) == 0
    outdir = tmp_path / "rep"
    assert main(["analyze", "--matrix", str(out), "--tau", "0.9", "--outdir", str(outdir)]) == 0
    lines = (outdir / "report.csv").read_text().splitlines()
    body = [l for l in lines if l and not l.startswith("#")][1:]
    by_dmu = {row.split(",")[0]: row.split(",") for row in body}
    assert by_dmu["A"][1] == "1.000000" and by_dmu["A"][-1] == "C1"
    # histogram files are plot-ready x,y tables
    hist = (outdir / "hist_A.csv").read_text().splitlines()
    assert "x,y" in hist


def test_density_command(tmp_path):
    rng = np.random.default_rng(0)
    two = tmp_path / "wide.csv"
    rows = ["dmu,x1,y1"] + [f"d{j},{v:.4f},1" for j, v in enumerate(rng.uniform(1, 4, 12))]
    two.write_text("\n".join(rows) + "\n")
    sets = tmp_path / "sets.txt"
    sets.write_text("\n".join(f"d{j} shape=box w=0.3,0" for j in range(12)) + "\n")
    matrix = tmp_path / "matrix.csv"
    assert main([
        "run", "--data", str(two), "--inputs", "x1", "--outputs", "y1",
        "--sets", str(sets), "--orientation", "input",
        "--t", "400", "--seed", "5", "--out", str(matrix),
    ]) == 0
    out = tmp_path / "density.csv"
    code = main(["density", "--matrix", str(matrix), "--dmu", "d1", "--out", str(out)])
    if code == 0:
        text = out.read_text()
        assert "alpha" in text and "x,y" in text
    else:
        # a degenerate row is a legitimate outcome for this fixture
        assert code == 1


def shaped_matrix(path):
    """A stored matrix whose rows fit betas with an infinite density at q1
    (alpha < 1) and at q2 (beta < 1), an ordinary beta, and two rows with no
    fit: all zero and five distinct values."""
    rng = np.random.default_rng(21)
    t = 80
    values = np.vstack([
        0.1 + 0.3 * rng.beta(0.4, 3.0, size=t),
        0.2 * rng.beta(3.0, 0.5, size=t),
        rng.beta(2.0, 5.0, size=t),
        np.zeros(t),
        rng.choice([0.1, 0.2, 0.3, 0.4, 0.5], size=t),
    ])
    dm = DistanceMatrix(dmu_ids=("L", "R", "M", "Z", "F"), values=values,
                        baseline=values[:, 0], seed=4, config={"seed": 4, "t": t})
    save_distance_matrix(dm, path)
    return dm


def csv_rows(header: str, rows) -> bytes:
    """The comment header followed by an x,y table written by csv.writer."""
    fh = io.StringIO(newline="")
    fh.write(header)
    writer = csv.writer(fh)
    writer.writerow(["x", "y"])
    writer.writerows(zip(map(repr, rows[0]), map(repr, rows[1])))
    return fh.getvalue().encode("utf-8")


def comment_lines(path) -> str:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    return "".join(line for line in lines if line.startswith("#"))


def test_analyze_and_density_files_are_csv_writer_bytes(tmp_path):
    dm = shaped_matrix(tmp_path / "matrix.csv")
    outdir = tmp_path / "rep"
    assert main(["analyze", "--matrix", str(tmp_path / "matrix.csv"),
                 "--outdir", str(outdir)]) == 0
    scheme = BucketScheme.for_values(dm.values, width=0.01)
    for j, dmu in enumerate(dm.dmu_ids):
        hist = outdir / f"hist_{dmu}.csv"
        expected = (scheme.midpoints().tolist(), erii(dm.values[j], scheme).tolist())
        assert hist.read_bytes() == csv_rows(comment_lines(hist), expected)

    fitted = ("L", "R", "M")
    assert sorted(p.name for p in outdir.glob("density_*.csv")) == sorted(
        f"density_{dmu}.csv" for dmu in fitted)
    for dmu in fitted:
        density = outdir / f"density_{dmu}.csv"
        fit = fit_beta(dm.row(dmu))
        config = json.loads(comment_lines(density).splitlines()[1][len("# config: "):])
        assert (config["alpha"], config["beta"], config["q1"], config["q2"], config["ks"]) == (
            fit.alpha, fit.beta, fit.q1, fit.q2, fit.ks_statistic)
        xs, ys = beta_densities(fit_beta_rows(dm.row(dmu)[None]))
        expected = csv_rows(comment_lines(density), (xs[0].tolist(), ys[0].tolist()))
        assert density.read_bytes() == expected
    assert (outdir / "density_L.csv").read_text().splitlines()[3].endswith(",inf")
    assert (outdir / "density_R.csv").read_text().splitlines()[-1].endswith(",inf")


def test_density_writes_the_bytes_of_analyze_for_every_dmu(tmp_path, capsys):
    dm = shaped_matrix(tmp_path / "matrix.csv")
    outdir = tmp_path / "rep"
    assert main(["analyze", "--matrix", str(tmp_path / "matrix.csv"),
                 "--outdir", str(outdir)]) == 0
    capsys.readouterr()
    for dmu in dm.dmu_ids:
        single = tmp_path / f"single_{dmu}.csv"
        code = main(["density", "--matrix", str(tmp_path / "matrix.csv"), "--dmu", dmu,
                     "--out", str(single)])
        analyzed = outdir / f"density_{dmu}.csv"
        if dmu in ("Z", "F"):  # all zero, and five distinct values: no fit
            assert code == 1 and not single.exists() and not analyzed.exists()
            assert capsys.readouterr().err.startswith("error:")
        else:
            assert code == 0 and single.read_bytes() == analyzed.read_bytes()


def test_bench_command(tmp_path):
    out = tmp_path / "bench.csv"
    code = main([
        "bench", "--scenarios", "I", "--reps", "1", "--n", "10",
        "--gaps", "2", "--t", "5", "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text().count("\n") >= 28


def test_negative_gap_count_exits_1(tmp_path, capsys):
    code = main(["bench", "--scenarios", "I", "--reps", "1", "--n", "10", "--gaps", "-1",
                 "--t", "5", "--out", str(tmp_path / "bench.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("threads", ["0", "-2"])
def test_thread_count_below_one_exits_1(tmp_path, capsys, two_dmu_csv, command, threads):
    out = tmp_path / "out.csv"
    if command == "run":
        args = ["run", *data_args(two_dmu_csv), "--t", "5"]
    else:
        args = ["bench", "--scenarios", "I", "--reps", "1", "--n", "10", "--gaps", "2",
                "--t", "5"]
    assert main([*args, "--threads", threads, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("width", ["0", "-0.01", "nan", "inf"])
def test_bad_bucket_width_exits_1(tmp_path, capsys, width):
    matrix = tmp_path / "matrix.csv"
    shaped_matrix(matrix)
    code = main(["analyze", "--matrix", str(matrix), "--outdir", str(tmp_path / "rep"),
                 "--bucket-width", width])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize(
    "settings",
    [["--tau", "1.5"], ["--tau", "nan"], ["--bucket-width", "0"], ["--bucket-width", "nan"],
     ["--t", "39"], ["--t", "3", "--tau", "0.5"]],
    ids=["tau-above-1", "tau-nan", "width-0", "width-nan", "t-short-for-0.95",
         "t-short-for-0.5"],
)
def test_run_analyze_checks_report_settings_before_the_walk(tmp_path, capsys, two_dmu_csv,
                                                            settings):
    out = tmp_path / "matrix.csv"
    code = main(["run", *data_args(two_dmu_csv), "--t", "40", *settings, "--out", str(out),
                 "--analyze"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


# Run in a fresh interpreter: argv[1] is the directory holding the hrdea
# package, argv[2] a data CSV, argv[3] a stored distance matrix with a row
# "L" that has a beta fit and argv[4] an output directory.
IMPORT_PROBE = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import hrdea, hrdea.benchmark, hrdea.cli
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
out = sys.argv[4]
commands = {
    "solve": ["solve", "--data", sys.argv[2], "--inputs", "x1", "--outputs", "y1",
              "--out", os.path.join(out, "distances.csv")],
    "analyze": ["analyze", "--matrix", sys.argv[3], "--outdir", os.path.join(out, "rep")],
    "density": ["density", "--matrix", sys.argv[3], "--dmu", "L",
                "--out", os.path.join(out, "density.csv")],
    "bench": ["bench", "--scenarios", "I", "--reps", "1", "--n", "10", "--gaps", "2",
              "--t", "5", "--seed", "2", "--out", os.path.join(out, "bench.csv")],
}
ran = [[name, hrdea.cli.main(argv), "scipy.stats" in sys.modules]
       for name, argv in commands.items()]
print(json.dumps([loaded, ran]))
"""


def test_import_and_solve_load_no_scipy_stats(tmp_path, two_dmu_csv):
    # scipy is imported by the functions that use it, not at import time,
    # and no command loads scipy.stats: solve, analyze, density and bench.
    src = os.path.dirname(os.path.dirname(hrdea.__file__))
    shaped_matrix(tmp_path / "matrix.csv")
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, src, str(two_dmu_csv),
         str(tmp_path / "matrix.csv"), str(tmp_path)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    loaded, ran = json.loads(probe.stdout.strip().splitlines()[-1])
    assert loaded == []
    assert ran == [[name, 0, False] for name in ("solve", "analyze", "density", "bench")]
    assert (tmp_path / "density.csv").read_bytes() == (
        tmp_path / "rep" / "density_L.csv").read_bytes()


def test_unknown_flag_exits_2(two_dmu_csv):
    with pytest.raises(SystemExit) as err:
        main(["solve", "--wobble", "1"])
    assert err.value.code == 2


def test_validation_error_exits_1(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("dmu,x1,y1\nA,-1,1\n")
    code = main(["solve", *data_args(bad), "--orientation", "input",
                 "--out", str(tmp_path / "o.csv")])
    assert code == 1


def test_column_absent_from_the_file_exits_1(tmp_path, capsys, two_dmu_csv):
    out = tmp_path / "o.csv"
    code = main(["solve", "--data", str(two_dmu_csv), "--inputs", "x1,x9",
                 "--outputs", "y1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'x9'" in err
    assert not out.exists()


def test_column_under_two_roles_exits_1(tmp_path, capsys):
    # the data file does not exist: the roles are checked before loading
    out = tmp_path / "o.csv"
    code = main(["solve", "--data", str(tmp_path / "absent.csv"), "--inputs", "x1,y1",
                 "--outputs", "y1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'y1'" in err and "absent.csv" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "run"])
def test_header_that_names_a_column_twice_exits_1(tmp_path, capsys, command):
    data = tmp_path / "dup.csv"
    data.write_text("dmu,x1,x1,y1\nA,1,2,3\nB,2,1,3\nC,3,3,2\n")
    out = tmp_path / "o.csv"
    extra = ["--t", "5"] if command == "run" else []
    code = main([command, *data_args(data), *extra, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'x1'" in err
    assert not out.exists()


def test_cli_defaults_are_the_library_defaults():
    from hrdea.cli import build_parser
    from hrdea.dea import DEFAULT_EPS
    from hrdea.inference import DEFAULT_WIDTH, robustness_report

    parser = build_parser()
    solve = parser.parse_args(["solve", "--data", "d", "--inputs", "x", "--outputs", "y"])
    assert solve.eps == DEFAULT_EPS
    for argv in (["run", "--data", "d", "--inputs", "x", "--outputs", "y"],
                 ["analyze", "--matrix", "m"]):
        args = parser.parse_args(argv)
        assert args.tau == robustness_report.__defaults__[0] == 0.95
        assert args.bucket_width == DEFAULT_WIDTH


@pytest.fixture
def na_csv(tmp_path):
    path = tmp_path / "na.csv"
    path.write_text("dmu,x1,x2,y1\nA,2,3,5\nB,NA,1,6\nC,3,3,4\nD,5,2,7\n")
    return path


def run_na(tmp_path, na_csv, spec):
    sets = tmp_path / "sets.txt"
    sets.write_text(spec)
    out = tmp_path / "matrix.csv"
    code = main(["run", "--data", str(na_csv), "--inputs", "x1,x2", "--outputs", "y1",
                 "--sets", str(sets), "--t", "20", "--seed", "4", "--out", str(out)])
    return code, out


def test_run_on_unknown_cells_with_a_center(tmp_path, na_csv):
    code, out = run_na(tmp_path, na_csv, "A shape=box w=0.5\nB shape=box w=0.5 center=4,1,6\n")
    assert code == 0
    rows = [r for r in csv.reader(out.read_text().splitlines()) if not r[0].startswith("#")]
    values = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
    assert [r[0] for r in rows[1:]] == list("ABCD") and values.shape == (4, 21)
    assert np.all(np.isfinite(values))


def test_run_on_unknown_cells_without_a_center_exits_1(tmp_path, capsys, na_csv):
    code, out = run_na(tmp_path, na_csv, "B shape=box w=0.5\n")
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_solve_on_unknown_cells_exits_1(tmp_path, capsys, na_csv):
    out = tmp_path / "o.csv"
    code = main(["solve", "--data", str(na_csv), "--inputs", "x1,x2", "--outputs", "y1",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_missing_file_exits_1(tmp_path):
    code = main(["solve", "--data", str(tmp_path / "absent.csv"),
                 "--inputs", "x1", "--outputs", "y1",
                 "--out", str(tmp_path / "o.csv")])
    assert code == 1


MATRIX_HEAD = '# hrdea distance-matrix v1\n# config: {"seed": 1}\ndmu,d0,iter_1\n'


@pytest.mark.parametrize(
    "text, line",
    [
        (MATRIX_HEAD + "A,0.1,0.2\nB,0.1\n", 5),
        (MATRIX_HEAD + "A,0.1,abc\n", 4),
        (MATRIX_HEAD + "A,0.1,0.2\nB\n", 5),
        ("# config: {not json\ndmu,d0\nA,0.1\n", 1),
        ("# config: [1]\ndmu,d0\nA,0.1\n", 1),
        ('# config: {"seed": "x"}\ndmu,d0\nA,0.1\n', 1),
    ],
    ids=["ragged-row", "non-numeric-cell", "id-only-row", "bad-json", "config-not-object",
         "bad-seed"],
)
def test_malformed_matrix_exits_1(tmp_path, capsys, text, line):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text(text)
    assert main(["analyze", "--matrix", str(matrix), "--outdir", str(tmp_path)]) == 1
    assert f"error: line {line}:" in capsys.readouterr().err
    assert main(["density", "--matrix", str(matrix), "--dmu", "A",
                 "--out", str(tmp_path / "d.csv")]) == 1
    assert f"error: line {line}:" in capsys.readouterr().err


def test_duplicate_matrix_ids_exit_1(tmp_path, capsys):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text(MATRIX_HEAD + "A,0.1,0.2\nB,0.0,0.1\nA,0.3,0.4\n")
    assert main(["analyze", "--matrix", str(matrix), "--outdir", str(tmp_path)]) == 1
    assert "duplicate DMU ids in distance matrix: ['A']" in capsys.readouterr().err
    assert main(["density", "--matrix", str(matrix), "--dmu", "A",
                 "--out", str(tmp_path / "d.csv")]) == 1
    assert "duplicate DMU ids in distance matrix: ['A']" in capsys.readouterr().err


def test_analyze_rejects_a_dmu_id_with_a_path_separator(tmp_path, capsys):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text(MATRIX_HEAD + "A/B,0.1,0.2\nC,0.0,0.1\n")
    outdir = tmp_path / "rep"
    outdir.mkdir()
    assert main(["analyze", "--matrix", str(matrix), "--outdir", str(outdir)]) == 1
    assert "['A/B']" in capsys.readouterr().err
    assert os.listdir(outdir) == []


def test_run_analyze_rejects_a_dmu_id_with_a_path_separator(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("dmu,x1,y1\nA/B,1,1\nC,2,1\n")
    outdir = tmp_path / "rep"
    outdir.mkdir()
    code = main(["run", *data_args(data), "--t", "40", "--out", str(tmp_path / "matrix.csv"),
                 "--analyze", "--outdir", str(outdir)])
    assert code == 1
    assert "['A/B']" in capsys.readouterr().err
    assert os.listdir(outdir) == []
    assert not (tmp_path / "matrix.csv").exists()  # rejected before the walk


def test_run_analyze_and_analyze_keep_ids_that_hold_a_hash(tmp_path):
    """An id may start with or hold '#': only lines before a header are comments."""
    data = tmp_path / "data.csv"
    data.write_text("dmu,x1,y1\n#A,1,1\nB,2,1\nH#2,3,2\n")
    matrix = tmp_path / "matrix.csv"
    assert main(["run", *data_args(data), "--t", "40", "--out", str(matrix), "--analyze"]) == 0
    assert main(["analyze", "--matrix", str(matrix), "--outdir", str(tmp_path / "again")]) == 0
    for outdir in (tmp_path, tmp_path / "again"):
        lines = (outdir / "report.csv").read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert [line.split(",")[0] for line in lines[header + 1 :]] == ["#A", "B", "H#2"]
        assert (outdir / "hist_#A.csv").exists() and (outdir / "hist_H#2.csv").exists()


def test_readme_set_spec_example_runs(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        (spec,) = re.findall(r"```text\n(.*?)```", fh.read(), re.S)
    sets = tmp_path / "sets.txt"
    sets.write_text(spec)
    data = tmp_path / "hospitals.csv"
    data.write_text("dmu,x1,x2,y1\nH01,2,3,5\nH02,4,1,6\nH03,3,3,4\nH04,1.1,0.9,1.4\n"
                    "H05,2,6,1\nH06,1,4,3\n")
    shapes = [s.shape for s in build_sets(load_dataset(data, {"dmu": "id", "x1": "input",
                                                              "x2": "input", "y1": "output"}),
                                          parse_set_spec(sets))]
    assert shapes == ["box", "ellipsoid", "rhombus", "superellipsoid", "polytope", "point"]
    assert main(["run", "--data", str(data), "--inputs", "x1,x2", "--outputs", "y1",
                 "--sets", str(sets), "--t", "40", "--seed", "1",
                 "--out", str(tmp_path / "matrix.csv"), "--analyze"]) == 0
    report = (tmp_path / "report.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in report if not r.startswith("#")][1:] == [
        f"H0{j}" for j in range(1, 7)]
