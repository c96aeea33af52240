import numpy as np
import pytest

from hrdea.cli import main
from hrdea.dataset import Direction, from_arrays
from hrdea.dea import solve_directional, solve_weak_disposability


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


def test_bench_command(tmp_path):
    out = tmp_path / "bench.csv"
    code = main([
        "bench", "--scenarios", "I", "--reps", "1", "--n", "10",
        "--gaps", "2", "--t", "5", "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text().count("\n") >= 28


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
