"""Benchmark of frontier-moments, end to end and per layer.

Run from the repository root:

    python3 benchmarks/run.py --workload study-1d --seed 1 --seconds 30 --trace 0

The runner imports the package from ``src/`` in its own process and drives
it as a closed loop with one client: each iteration starts only after the
previous one has finished.  Workloads:

  study-1d          run_study on models/canonical.json (d = 1, D0 = 0), serial
  study-2d-threads  run_study on benchmarks/models/plane_2d.json (d = 2,
                    D0 != 0) with workers=2
  cli-pipeline      cli.main simulate -> estimate -> oracle-check on
                    models/two_term_tail.json, n = 64000

Every iteration draws its input from a fixed pool of POOL inputs, visited
in an order derived from ``--seed``, so every run sees the same set of
inputs.  Every operation's output is compared with the stored references
(``checks.py``).  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced iterations on the same input and prints the
per-layer metrics (``tracing.py``).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
REFERENCES = HERE / "references"

POOL = 8  # inputs per workload; a traced run visits each once for its counts
MIN_ITERATIONS = 20  # so the tail percentile has ten samples beyond it
SETUP_PROBES = 5  # fresh processes timed for setup_s
TAIL_BEYOND = 10


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked: missing sources, models or references."""


@dataclasses.dataclass
class Op:
    """One timed call into the package and what its output check found."""

    kind: str
    seconds: float
    problems: list


def import_package():
    """Import ``frontier_moments`` from this checkout's ``src/``, never from elsewhere."""
    package = ROOT / "src" / "frontier_moments"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no package source at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import frontier_moments
    import frontier_moments.cli

    if Path(frontier_moments.__file__).resolve().parent != package.resolve():
        raise SetupError(f"imported frontier_moments from {frontier_moments.__file__}, not {package}")
    return frontier_moments


def load_valid_model(fm, path: Path):
    """Load a model file and fail loudly unless it passes ``validate``."""
    if not path.is_file():
        raise SetupError(f"model file {path} is missing")
    model = fm.model.load_model(path)
    report = fm.model.validate(model)
    if not report.ok:
        raise SetupError(f"model {path} fails validation: {[c.name for c in report.failures]}")
    return model


def timed_call(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


class StudyWorkload:
    """One ``run_study`` call per iteration; the pool varies its base seed."""

    def __init__(self, name, model_path, sizes, replications, grid_per_axis, workers):
        self.name = name
        self.model_path = model_path
        self.sizes = sizes
        self.replications = replications
        self.grid_per_axis = grid_per_axis
        self.workers = workers
        self.seeds = [1000 + i for i in range(POOL)]

    def config(self) -> dict:
        return {
            "model": str(self.model_path.relative_to(ROOT)),
            "sizes": list(self.sizes),
            "replications": self.replications,
            "grid_per_axis": self.grid_per_axis,
            "schedule": "optimal, default k1 and k2",
            "seeds": self.seeds,
        }

    def setup(self, fm) -> None:
        self.fm = fm
        self.model = load_valid_model(fm, self.model_path)
        alpha_bar = fm.model.field_range(self.model.alpha)[1]
        sched = fm.estimator.RateSchedule.optimal(self.model.dimension, self.model.eta_g, alpha_bar)
        self.configs = [
            fm.study.StudyConfig(
                sizes=self.sizes,
                replications=self.replications,
                schedule=sched,
                grid_per_axis=self.grid_per_axis,
                base_seed=seed,
            )
            for seed in self.seeds
        ]

    def run(self, index: int, ref: dict, workers: int | None = None) -> list[Op]:
        workers = self.workers if workers is None else workers
        (report, _), seconds = timed_call(self.fm.study.run_study, self.model, self.configs[index], workers=workers)
        return [Op("study", seconds, checks.check_study(report, ref["cells"]))]

    def reference(self, index: int) -> dict:
        report, _ = self.fm.study.run_study(self.model, self.configs[index], workers=self.workers)
        cells = [{k: c[k] for k in ("n", "replication", "sup_error", "failures")} for c in report["cells"]]
        return {"seed": self.seeds[index], "cells": cells}


class PipelineWorkload:
    """simulate -> estimate -> oracle-check through ``cli.main``; the pool varies the simulate seed."""

    name = "cli-pipeline"
    model_path = ROOT / "models" / "two_term_tail.json"
    n = 64000
    grid_per_axis = 101

    def __init__(self):
        self.seeds = [5000 + i for i in range(POOL)]
        self.workdir = WORK / self.name
        self.data = self.workdir / "data.csv"
        self.estimates = self.workdir / "estimates.csv"
        self.oracle = self.workdir / "oracle.json"

    def config(self) -> dict:
        return {
            "model": str(self.model_path.relative_to(ROOT)),
            "n": self.n,
            "grid_per_axis": self.grid_per_axis,
            "schedule": "optimal d = 1 at n, default k1 and k2",
            "seeds": self.seeds,
        }

    def setup(self, fm) -> None:
        self.fm = fm
        model = load_valid_model(fm, self.model_path)
        alpha_bar = fm.model.field_range(model.alpha)[1]
        sched = fm.estimator.RateSchedule.optimal(model.dimension, model.eta_g, alpha_bar)
        self.p, self.h = fm.estimator.schedule(self.n, sched)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def _main(self, argv) -> tuple[int, float]:
        """Time one ``cli.main`` call; its console output is kept out of the report."""
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                return timed_call(self.fm.cli.main, argv)
            except SystemExit as exc:  # argparse rejected the arguments
                return exc.code, math.nan

    def _argv(self, index: int):
        model = str(self.model_path)
        return (
            ["simulate", "--model", model, "--n", str(self.n), "--seed", str(self.seeds[index]), "--out", str(self.data)],
            ["estimate", str(self.data), "--p", repr(self.p), "--h", repr(self.h),
             "--grid", str(self.grid_per_axis), "--out", str(self.estimates)],
            ["oracle-check", "--model", model, "--out", str(self.oracle)],
        )

    def run(self, index: int, ref: dict, workers: int | None = None) -> list[Op]:
        simulate, estimate, oracle = self._argv(index)
        for path in (self.data, self.estimates, self.oracle):
            path.unlink(missing_ok=True)  # a failed step must not leave the last iteration's file
        ops = []
        code, seconds = self._main(simulate)
        ops.append(Op("simulate", seconds, checks.check_dataset(code, self.data, self.n)))
        code, seconds = self._main(estimate)
        rows = checks.read_estimates(self.estimates) if code == 0 else []
        ops.append(Op("estimate", seconds, checks.check_estimates(code, rows, ref["estimates"])))
        code, seconds = self._main(oracle)
        ops.append(Op("oracle-check", seconds, checks.check_oracle(code, self.oracle, ref["oracle"])))
        return ops

    def reference(self, index: int) -> dict:
        simulate, estimate, oracle = self._argv(index)
        for argv in (simulate, estimate, oracle):
            if self.fm.cli.main(argv) != 0:
                raise SetupError(f"{argv[0]} failed while making references")
        with open(self.oracle, encoding="utf-8") as fh:
            flags = checks.oracle_flags(json.load(fh))
        rows = checks.read_estimates(self.estimates)
        return {"seed": self.seeds[index], "estimates": rows, "oracle": flags}


WORKLOADS = {
    "study-1d": lambda: StudyWorkload(
        "study-1d", ROOT / "models" / "canonical.json", (1000, 4000, 16000), 4, 101, workers=1
    ),
    "study-2d-threads": lambda: StudyWorkload(
        "study-2d-threads", HERE / "models" / "plane_2d.json", (4000, 16000), 2, 21, workers=2
    ),
    "cli-pipeline": PipelineWorkload,
}


def load_references(workload) -> list[dict]:
    path = REFERENCES / f"{workload.name}.json"
    if not path.is_file():
        raise SetupError(f"reference file {path} is missing")
    with open(path, encoding="utf-8") as fh:
        stored = json.load(fh)
    if stored["config"] != workload.config():
        raise SetupError(f"{path} was made for another configuration; run benchmarks/make_references.py")
    return stored["inputs"]


def setup(name: str):
    """Everything before the first timed operation: import, models, references."""
    fm = import_package()
    workload = WORKLOADS[name]()
    workload.setup(fm)
    return fm, workload, load_references(workload)


def probe_setup_seconds(name: str) -> float:
    """Median set-up time over SETUP_PROBES fresh processes, import included."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n, n


def visiting_order(seed: int) -> list[int]:
    """The pool indices in an order derived from the seed."""
    order = list(range(POOL))
    random.Random(seed).shuffle(order)
    return order


class Loop:
    """The closed loop: iterations, their ops, and the failure count."""

    def __init__(self, workload, refs):
        self.workload = workload
        self.refs = refs
        self.attempted = 0
        self.failures: list[str] = []

    def iterate(self, index: int, workers: int | None = None) -> list[Op]:
        try:
            ops = self.workload.run(index, self.refs[index], workers)
        except Exception as err:  # an op that raises is a failed op, not a crashed benchmark
            ops = [Op(self.workload.name, math.nan, [f"raised {err!r}"])]
        self.attempted += len(ops)
        for op in ops:
            if op.problems:
                self.failures.append(f"{op.kind} on input {index}: {op.problems[0]}")
        return ops


def iteration_seconds(ops) -> float:
    return math.fsum(op.seconds for op in ops)


def passing(iterations) -> list:
    """The iterations whose operations all passed their checks; only these are timed."""
    return [ops for ops in iterations if not any(op.problems for op in ops)]


def run_untraced(loop: Loop, order, seconds: float):
    """(pool index, ops) per iteration, until ``seconds`` have passed and MIN_ITERATIONS are done."""
    loop.iterate(order[0])  # warm-up, untimed: lazy imports and caches
    iterations = []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MIN_ITERATIONS or time.perf_counter() < deadline:
        index = order[k % POOL]
        iterations.append((index, loop.iterate(index)))
        k += 1
    return iterations


def end_to_end(name: str, loop: Loop, iterations) -> tuple[dict, list[str]]:
    setup_s = probe_setup_seconds(name)
    ok = passing(ops for _, ops in iterations)
    times = [iteration_seconds(its) for its in ok] or [0.0]
    tail_s, pct, count = tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "iteration_s": (statistics.median(times), "s"),
        "iteration_tail_s": (tail_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    lines = [f"iteration_tail_s is p{pct:.1f} of {count} iterations"]
    kinds = sorted({op.kind for its in ok for op in its})
    for kind in kinds:
        secs = [op.seconds for its in ok for op in its if op.kind == kind]
        value, pct, count = tail(secs)
        lines.append(
            f"{kind}: median {statistics.median(secs):.6f} s, tail {value:.6f} s (p{pct:.1f} of {count})"
        )
    share = len(loop.failures) / loop.attempted
    lines.append(f"failed_ops_share {share:.6f} ({len(loop.failures)} of {loop.attempted} ops)")
    return metrics, lines


# per-layer self times: metric -> span name
SELF_TIMES = {
    "model.sample_s": "model.sample",
    "model.validate_s": "model.validate",
    "kernels.scaled_density_s": "kernels.scaled_density",
    "moments.ratio_pair_s": "moments.ratio_pair",
    "estimator.estimate_grid_s": "estimator.estimate_grid",
    "estimator.sup_error_s": "estimator.sup_error",
    "study.run_study_s": "study.run_study",
    "study.read_dataset_s": "study.read_dataset",
    "study.write_dataset_s": "study.write_dataset",
    "study.write_estimates_s": "study.write_estimates",
    "oracle.oracle_report_s": "oracle.oracle_report",
    "cli.self_s": "cli.main",
}

# per-layer counts: metric -> key in Span.counts, summed over one pass of the pool
COUNTS = {
    "model.draws": "draws",
    "kernels.points_scanned": "points_scanned",
    "kernels.bytes_scanned_computed": "bytes_scanned_computed",
    "moments.window_points": "window_points",
    "moments.empty_windows": "empty_windows",
    "estimator.grid_points": "grid_points",
    "estimator.failed_points": "failed_points",
    "study.cells": "cells",
    "study.dataset_bytes": "dataset_bytes",
}

UNITS = {
    "model.ns_per_draw": "ns",
    "kernels.bytes_scanned_computed": "bytes",
    "study.dataset_bytes": "bytes",
    "moments.window_hit_ratio": "ratio",
    "study.thread_speedup": "ratio",
    "trace.overhead": "ratio",
}


def unit_of(metric: str) -> str:
    return UNITS.get(metric, "s" if metric.endswith("_s") else "count")


def run_traced(loop: Loop, order, seconds: float, tracer: tracing.Tracer, patches):
    """Untraced and traced iterations on the same input, alternating which goes first.

    Iterations 0 .. POOL-1 visit every pool input once, so the counts taken
    from the traced ones do not depend on the seed.
    """
    loop.iterate(order[0])  # warm-up, untimed
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < POOL or time.perf_counter() < deadline:
        index = order[k % POOL]
        for traced_now in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_now:
                tracer.iteration = k
                with tracing.patched(patches):
                    traced.append((index, loop.iterate(index)))
            else:
                untraced.append((index, loop.iterate(index)))
        k += 1
    return untraced, traced


def per_layer(workload, loop: Loop, tracer, untraced, traced) -> tuple[dict, list[str]]:
    spans = tracer.spans
    own = tracing.self_times(spans)
    by_iteration: dict[int, dict[str, float]] = {}
    totals: dict[str, float] = {}
    counts = dict.fromkeys(COUNTS.values(), 0)
    for s in spans:
        by_iteration.setdefault(s.iteration, {}).setdefault(s.name, 0.0)
        by_iteration[s.iteration][s.name] += own[s.id]
        totals[s.name] = totals.get(s.name, 0.0) + own[s.id]
        if s.iteration < POOL:
            for key, value in s.counts.items():
                counts[key] += value
    iterations = sorted(by_iteration)
    metrics = {}
    for metric, span_name in SELF_TIMES.items():
        metrics[metric] = statistics.median(by_iteration[i].get(span_name, 0.0) for i in iterations)
    for metric, key in COUNTS.items():
        metrics[metric] = counts[key] / POOL

    all_draws = sum(s.counts.get("draws", 0) for s in spans)
    metrics["model.ns_per_draw"] = 1e9 * totals.get("model.sample", 0.0) / all_draws if all_draws else 0.0
    scanned = counts["points_scanned"]
    metrics["moments.window_hit_ratio"] = counts["window_points"] / scanned if scanned else 0.0

    plain = [iteration_seconds(ops) for ops in passing(ops for _, ops in untraced)] or [math.inf]
    with_trace = [iteration_seconds(ops) for ops in passing(ops for _, ops in traced)] or [0.0]
    metrics["trace.overhead"] = statistics.median(with_trace) / statistics.median(plain) - 1.0

    # the same study with workers=1, timed once, against its threaded untraced times
    metrics["study.thread_speedup"] = 1.0
    if getattr(workload, "workers", 1) > 1:
        first = untraced[0][0]
        (serial,) = loop.iterate(first, workers=1)
        threaded = [iteration_seconds(ops) for ops in passing(ops for index, ops in untraced if index == first)] or [math.inf]
        metrics["study.thread_speedup"] = 0.0 if serial.problems else serial.seconds / statistics.median(threaded)

    for kind, metric in (("simulate", "cli.simulate_s"), ("estimate", "cli.estimate_s"),
                         ("oracle-check", "cli.oracle_check_s")):
        secs = [op.seconds for ops in passing(ops for _, ops in untraced) for op in ops if op.kind == kind]
        metrics[metric] = statistics.median(secs) if secs else 0.0

    per_iteration = statistics.median(with_trace)
    lines = [f"traced iterations: {len(traced)}, untraced: {len(untraced)}, spans: {len(spans)}"]
    for metric, span_name in sorted(SELF_TIMES.items(), key=lambda kv: -metrics[kv[0]]):
        if metrics[metric] > 0:
            lines.append(f"  self {metric:28s} {metrics[metric]:.6f} s  {100 * metrics[metric] / per_iteration:5.1f} %")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    try:
        fm, workload, refs = setup(args.workload)
    except (SetupError, OSError, ImportError, ValueError, KeyError) as err:
        print(f"error: set-up failed: {err}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(time.perf_counter() - start))
        return 0

    loop = Loop(workload, refs)
    order = visiting_order(args.seed)
    if args.trace:
        tracer = tracing.Tracer()
        patches = tracing.targets(fm, tracer)
        untraced, traced = run_traced(loop, order, args.seconds, tracer, patches)
        metrics, lines = per_layer(workload, loop, tracer, untraced, traced)
        tracer.write(WORK / f"trace-{args.workload}.jsonl")
        metrics = {k: (v, unit_of(k)) for k, v in sorted(metrics.items())}
    else:
        iterations = run_untraced(loop, order, args.seconds)
        WORK.mkdir(exist_ok=True)
        timeline = [[index, op.kind, op.seconds] for index, ops in iterations for op in ops]
        (WORK / f"iterations-{args.workload}.json").write_text(json.dumps(timeline) + "\n", encoding="utf-8")
        try:
            metrics, lines = end_to_end(args.workload, loop, iterations)
        except SetupError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2

    for line in lines + loop.failures[:20]:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
