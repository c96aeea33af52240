"""Benchmark of hrdea: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload run-box-n100 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; hrdea is imported from ``src/``.
With ``--trace 0`` the run repeats the workload's operation until
``--seconds`` have passed and reports the end-to-end metrics (medians over
the rounds).  With ``--trace 1`` it alternates untraced and traced rounds
and reports the per-layer metrics of the traced ones, plus the tracing
overhead; the spans go to ``perfbench/.runs/<workload>.spans.csv``.  Either
way the outputs are then checked, and the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"
WORKLOADS = ("run-box-n100", "bench-n300", "weak-panel-n108")
SETUP_REPEATS = 3
# Times the program's imports in a fresh interpreter and prints the seconds.
IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import hrdea.benchmark, hrdea.cli\n"
    "print(time.perf_counter() - start)\n"
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Rounds:
    """Runs whole rounds of a workload and keeps their wall and CPU times."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def run(self, walls: list, cpus: list) -> None:
        self.attempted += 1
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            self.workload.run_once()
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
        self.workload.after_round()


def import_seconds() -> float:
    """The program's import time, measured in a fresh interpreter."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    # One set-up is the imports plus drawing and writing the inputs.
    workload = workloads.WORKLOADS[args.workload](args.seed, RUNS / args.workload)
    setups = []
    for _ in range(SETUP_REPEATS):
        imports = import_seconds()
        begin = time.perf_counter()
        workload.setup()
        setups.append(imports + time.perf_counter() - begin)

    rounds = Rounds(workload)
    walls, cpus = [], []
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        import spans

        tracer = spans.Tracer()
        traced = []
        while True:
            rounds.run(walls, cpus)
            with tracer.installed():
                rounds.run(traced, [])
            if time.perf_counter() >= deadline:
                break
        RUNS.mkdir(exist_ok=True)
        tracer.write(RUNS / f"{args.workload}.spans.csv")
    else:
        while True:
            rounds.run(walls, cpus)
            if time.perf_counter() >= deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not walls or (args.trace and not traced):
        print(f"every round failed ({rounds.failed} of {rounds.attempted})", file=sys.stderr)
        return 1

    try:
        errors = workload.check()
    except Exception as exc:  # a check that cannot finish is a failed check
        traceback.print_exc()
        errors = [f"the checks raised {exc!r}"]
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)

    if args.trace:
        overhead_s = statistics.median(traced) - statistics.median(walls)
        metrics = spans.layer_metrics(tracer, len(traced), workload.matrix_bytes(),
                                      overhead_s)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": not errors,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
