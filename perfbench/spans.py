"""Span tracing of hrdea's layers from outside the package.

Each traced entry point is rebound at the module attribute its caller looks
up (``hrdea.pipeline.step`` is what ``run_hr_dea`` calls, not
``hrdea.sampler.step``), so nothing under ``src/`` changes.  A span records
its id, its parent span, its name, start and end; spans stay in memory and
are written out once, when the run ends.  Self time is a span's duration
minus the time its child spans cover (the run is single-threaded, so
children never overlap).
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import hrdea.benchmark
import hrdea.cli
import hrdea.dea
import hrdea.lp
import hrdea.pipeline
import hrdea.sampler

# (module, attribute, span name).  Several attributes may share a name: the
# same layer is reached from more than one caller.
TRACED = (
    (hrdea.pipeline, "step", "sampler.step"),
    (hrdea.sampler, "chord_length", "geometry.chord"),
    (hrdea.sampler, "contains", "geometry.contains"),
    (hrdea.dea, "simplex", "lp.simplex"),  # the warm-started plain LP
    (hrdea.lp, "simplex", "lp.simplex"),  # phase 1 and 2 of two_phase
    (hrdea.dea, "two_phase", "lp.two_phase"),
    (hrdea.pipeline, "directional_distance", "dea.distance"),
    (hrdea.pipeline, "weak_disposability_distance", "dea.distance"),
    (hrdea.benchmark, "directional_distance", "dea.distance"),
    (hrdea.benchmark, "interval_dea_bounds", "dea.interval"),
    (hrdea.cli, "run_hr_dea", "pipeline.run"),
    (hrdea.benchmark, "run_hr_dea", "pipeline.run"),
    (hrdea.pipeline, "_column_distances", "pipeline.column"),
    (hrdea.cli, "save_distance_matrix", "pipeline.save"),
    (hrdea.cli, "load_distance_matrix", "pipeline.load"),
    (hrdea.cli, "robustness_report", "inference.report"),
    (hrdea.cli, "fit_beta", "inference.fit_beta"),
    (hrdea.benchmark, "generate_scenario", "baselines.generate"),
    (hrdea.benchmark, "introduce_gaps", "baselines.generate"),
    (hrdea.benchmark, "impute_mean", "baselines.impute"),
    (hrdea.benchmark, "impute_hotdeck", "baselines.impute"),
    (hrdea.benchmark, "impute_regression", "baselines.impute"),
    (hrdea.benchmark, "run_case", "benchmark.case"),
    (hrdea.benchmark, "compare_metrics", "benchmark.compare"),
    (hrdea.cli, "load_dataset", "dataset.load"),
    (hrdea.cli, "parse_set_spec", "setspec.build"),
    (hrdea.cli, "build_sets", "setspec.build"),
    (hrdea.cli, "_analyze_matrix", "cli.analyze"),
)

# (metric, unit); the order is the order of the printed metrics.
PER_LAYER = (
    ("sampler.steps", "count"),
    ("sampler.step_s", "s"),
    ("sampler.step_us_p50", "us"),
    ("geometry.chords", "count"),
    ("geometry.chord_s", "s"),
    ("geometry.contains_calls", "count"),
    ("geometry.contains_s", "s"),
    ("lp.simplex_runs", "count"),
    ("lp.simplex_s", "s"),
    ("lp.pivots", "count"),
    ("lp.pivots_per_run", "count"),
    ("lp.bland_runs", "count"),
    ("lp.two_phase_calls", "count"),
    ("lp.two_phase_s", "s"),
    ("dea.distance_lps", "count"),
    ("dea.distance_s", "s"),
    ("dea.distance_us_p50", "us"),
    ("dea.warm_lps", "count"),
    ("dea.interval_s", "s"),
    ("pipeline.run_s", "s"),
    ("pipeline.run_self_s", "s"),
    ("pipeline.columns", "count"),
    ("pipeline.column_ms_p50", "ms"),
    ("pipeline.save_s", "s"),
    ("pipeline.load_s", "s"),
    ("pipeline.matrix_bytes", "bytes"),
    ("inference.report_s", "s"),
    ("inference.fit_beta_calls", "count"),
    ("inference.fit_beta_s", "s"),
    ("baselines.generate_s", "s"),
    ("baselines.impute_s", "s"),
    ("benchmark.cases", "count"),
    ("benchmark.case_s_p50", "s"),
    ("benchmark.compare_s", "s"),
    ("dataset.load_s", "s"),
    ("setspec.build_s", "s"),
    ("cli.analyze_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Collects spans and the pivot count while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, self_s)
        self.pivots = 0
        self.bland_runs = 0
        self.warm_lps = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0

    def _span(self, name, fn, simplex=None):
        """Wrap fn in a span; ``simplex`` ("warm" or "cold") also counts the
        run's pivots, to tell runs that fell back to Bland's rule."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        bland_after = hrdea.lp.BLAND_AFTER

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            pivots = self.pivots
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((sid, parent, name, start, end, end - start - frame[1]))
                if simplex is not None:
                    self.bland_runs += self.pivots - pivots > bland_after
                    self.warm_lps += simplex == "warm"

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced entry point; restore the originals on exit."""
        saved = []
        try:
            for module, attr, name in TRACED:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                simplex = None
                if attr == "simplex":
                    simplex = "warm" if module is hrdea.dea else "cold"
                setattr(module, attr, self._span(name, fn, simplex))
            pivot = hrdea.lp._pivot
            saved.append((hrdea.lp, "_pivot", pivot))

            def counted_pivot(*args):
                self.pivots += 1
                return pivot(*args)

            hrdea.lp._pivot = counted_pivot
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s,self_s\n")
            for sid, parent, name, start, end, self_s in self.spans:
                fh.write(f"{sid},{parent},{name},{start!r},{end!r},{self_s!r}\n")


def layer_metrics(tracer: Tracer, rounds: int, matrix_bytes: int, overhead_s: float):
    """Per-layer metrics per traced round: totals and counts are divided by
    the number of traced rounds, percentiles pool every span."""
    durations: dict[str, list[float]] = {}
    self_total: dict[str, float] = {}
    for _, _, name, start, end, self_s in tracer.spans:
        durations.setdefault(name, []).append(end - start)
        self_total[name] = self_total.get(name, 0.0) + self_s

    def count(name):
        return len(durations.get(name, ())) / rounds

    def total(name):
        return sum(durations.get(name, ())) / rounds

    def p50(name, scale):
        values = durations.get(name)
        return statistics.median(values) * scale if values else 0.0

    simplex_runs = count("lp.simplex")
    pivots = tracer.pivots / rounds
    values = {
        "sampler.steps": count("sampler.step"),
        "sampler.step_s": total("sampler.step"),
        "sampler.step_us_p50": p50("sampler.step", 1e6),
        "geometry.chords": count("geometry.chord"),
        "geometry.chord_s": total("geometry.chord"),
        "geometry.contains_calls": count("geometry.contains"),
        "geometry.contains_s": total("geometry.contains"),
        "lp.simplex_runs": simplex_runs,
        "lp.simplex_s": total("lp.simplex"),
        "lp.pivots": pivots,
        "lp.pivots_per_run": pivots / simplex_runs if simplex_runs else 0.0,
        "lp.bland_runs": tracer.bland_runs / rounds,
        "lp.two_phase_calls": count("lp.two_phase"),
        "lp.two_phase_s": total("lp.two_phase"),
        "dea.distance_lps": count("dea.distance"),
        "dea.distance_s": total("dea.distance"),
        "dea.distance_us_p50": p50("dea.distance", 1e6),
        "dea.warm_lps": tracer.warm_lps / rounds,
        "dea.interval_s": total("dea.interval"),
        "pipeline.run_s": total("pipeline.run"),
        "pipeline.run_self_s": self_total.get("pipeline.run", 0.0) / rounds,
        "pipeline.columns": count("pipeline.column"),
        "pipeline.column_ms_p50": p50("pipeline.column", 1e3),
        "pipeline.save_s": total("pipeline.save"),
        "pipeline.load_s": total("pipeline.load"),
        "pipeline.matrix_bytes": matrix_bytes,
        "inference.report_s": total("inference.report"),
        "inference.fit_beta_calls": count("inference.fit_beta"),
        "inference.fit_beta_s": total("inference.fit_beta"),
        "baselines.generate_s": total("baselines.generate"),
        "baselines.impute_s": total("baselines.impute"),
        "benchmark.cases": count("benchmark.case"),
        "benchmark.case_s_p50": p50("benchmark.case", 1.0),
        "benchmark.compare_s": total("benchmark.compare"),
        "dataset.load_s": total("dataset.load"),
        "setspec.build_s": total("setspec.build"),
        "cli.analyze_s": total("cli.analyze"),
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
