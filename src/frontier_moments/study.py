"""Monte-Carlo convergence studies and the dataset/report file formats.

Per-cell seeds are derived as base_seed + cell_index * (large odd stride),
with cells enumerated over sizes then replications, so results do not
depend on scheduling and identical configurations produce byte-identical
reports.  Wall times go to a separate timing file so the main report stays
deterministic.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .estimator import (
    DegenerateGridError,
    EstimatorConfig,
    RateSchedule,
    estimate_grid,
    evaluation_grid,
    schedule,
    sup_error,
    w_rate,
)
from .kernels import KernelSpec
from .model import FrontierModel, Sample, field_range, model_to_dict, sample
from .moments import scaled_moment
from .oracle import smoothed_moment

REPORT_SCHEMA = "frontier-moments/mc-study/1"
SEED_STRIDE = 2_147_483_647  # large odd constant between replication streams
_CONCENTRATION_GRID = 50


class DatasetFormatError(ValueError):
    """A dataset file does not match the expected CSV layout."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message)


@dataclass(frozen=True)
class StudyConfig:
    """Shape of a convergence study: sizes, replications, schedule, grid, seed."""

    sizes: tuple[int, ...]
    replications: int
    schedule: RateSchedule
    grid_per_axis: int = 101
    base_seed: int = 0
    a: float = 1.0
    kernel_profile: str = "epanechnikov_ball"

    def __post_init__(self) -> None:
        sizes = tuple(int(n) for n in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("a study needs at least two sizes to fit a slope")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sizes must be strictly increasing")
        if self.replications < 1:
            raise ValueError("at least one replication is required")
        if self.grid_per_axis < 2:
            raise ValueError("the evaluation grid needs at least two points per axis")


def cell_seed(base_seed: int, size_index: int, replication: int, replications: int) -> int:
    return base_seed + (size_index * replications + replication) * SEED_STRIDE


def _study_cells(model: FrontierModel, config: StudyConfig):
    """Validate the schedule at every size up front, then enumerate (n, replication, seed) cells."""
    scheduled = {n: schedule(n, config.schedule) for n in config.sizes}
    cells = []
    for i, n in enumerate(config.sizes):
        for rep in range(config.replications):
            cells.append((n, rep, cell_seed(config.base_seed, i, rep, config.replications)))
    return scheduled, cells


def _map_cells(run_cell, cells, workers: int) -> list:
    """run_cell over cells, results in cell order; on a thread pool when workers > 1."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_cell, cells))
    return [run_cell(c) for c in cells]


def run_study(model: FrontierModel, config: StudyConfig, workers: int = 1) -> tuple[dict, dict]:
    """Run the full study; returns (report, timing) dictionaries.

    The report is independent of ``workers``; only the timing dict varies.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    scheduled, cells = _study_cells(model, config)
    grid = evaluation_grid(model.omega, model.dimension, config.grid_per_axis)
    kernel = KernelSpec(profile=config.kernel_profile, dimension=model.dimension)

    def run_cell(cell):
        n, rep, seed = cell
        p, h = scheduled[n]
        start = time.perf_counter()
        smpl = sample(model, n, seed)
        records = estimate_grid(smpl, grid, EstimatorConfig(p=p, h=h, kernel=kernel, a=config.a))
        try:
            sup, failures = sup_error(records, model.g)
        except DegenerateGridError:
            sup, failures = None, len(records)
        elapsed = time.perf_counter() - start
        result = {
            "n": n,
            "replication": rep,
            "seed": seed,
            "p": p,
            "h": h,
            "w": w_rate(n, p, h, config.schedule.alpha_bar, model.dimension),
            "sup_error": sup,
            "failures": failures,
        }
        return result, elapsed

    outcomes = _map_cells(run_cell, cells, workers)
    results = [r for r, _ in outcomes]
    timings = [{"n": r["n"], "replication": r["replication"], "wall_time_s": t} for r, t in outcomes]

    report = {
        "schema": REPORT_SCHEMA,
        "model": model_to_dict(model),
        "config": {
            "sizes": list(config.sizes),
            "replications": config.replications,
            "grid_points_per_axis": config.grid_per_axis,
            "base_seed": config.base_seed,
            "a": config.a,
            "kernel": config.kernel_profile,
            "schedule": {
                "c1": config.schedule.c1,
                "c2": config.schedule.c2,
                "k1": config.schedule.k1,
                "k2": config.schedule.k2,
                "d": config.schedule.d,
                "eta_g": config.schedule.eta_g,
                "alpha_bar": config.schedule.alpha_bar,
            },
        },
        "cells": results,
        "aggregate": _aggregate(model, config, scheduled, results),
    }
    timing = {
        "cells": timings,
        "total_wall_time_s": sum(t["wall_time_s"] for t in timings),
    }
    return report, timing


def _aggregate(model, config, scheduled, results) -> dict:
    beta_min = field_range(model.beta)[0]
    medians: list[float | None] = []
    degenerate = 0
    for n in config.sizes:
        sups = [r["sup_error"] for r in results if r["n"] == n and r["sup_error"] is not None]
        degenerate += sum(1 for r in results if r["n"] == n and r["sup_error"] is None)
        medians.append(float(np.median(sups)) if sups else None)
    ws = [w_rate(n, *scheduled[n], config.schedule.alpha_bar, model.dimension) for n in config.sizes]

    slope = None
    residual = None
    usable = [(n, m) for n, m in zip(config.sizes, medians) if m is not None and m > 0.0]
    if len(usable) >= 2:
        logn = np.log([n for n, _ in usable])
        logm = np.log([m for _, m in usable])
        coef, diag = np.polyfit(logn, logm, 1, full=True)[:2]
        slope = float(coef[0])
        residual = float(diag[0]) if len(diag) else 0.0

    bias_terms = []
    for n in config.sizes:
        p, h = scheduled[n]
        bias_terms.append(
            {
                "n": n,
                "smoothing": h**model.eta_g,
                "alpha_oscillation": h**model.eta_alpha / p,
                "tail_remainder": p ** -(beta_min + 1.0),
            }
        )

    return {
        "sizes": list(config.sizes),
        "median_sup_error": medians,
        "degenerate_cells": degenerate,
        "w": ws,
        "w_times_median_sup_error": [
            (w * m if m is not None else None) for w, m in zip(ws, medians)
        ],
        "log_log_slope": slope,
        "log_log_residual": residual,
        "bias_terms": bias_terms,
    }


def moment_concentration(model: FrontierModel, config: StudyConfig) -> dict:
    """Worst relative deviation of the empirical kernel moment from its
    smoothed ground truth, per cell, with per-size medians, on a
    50-point-per-axis grid.

    Reuses the same per-cell seeds as ``run_study`` under the same config,
    so the underlying samples are shared between the two studies.
    """
    scheduled, cells = _study_cells(model, config)
    grid = evaluation_grid(model.omega, model.dimension, _CONCENTRATION_GRID)
    kernel = KernelSpec(profile=config.kernel_profile, dimension=model.dimension)

    log_truth: dict[int, np.ndarray] = {}
    log_g: dict[int, np.ndarray] = {}
    for n in config.sizes:
        p, h = scheduled[n]
        log_truth[n] = np.array(
            [math.log(smoothed_moment(model, grid[i], p, h, kernel)) for i in range(grid.shape[0])]
        )
        log_g[n] = np.log(model.g.values(grid))

    def run_cell(cell):
        n, rep, seed = cell
        p, h = scheduled[n]
        smpl = sample(model, n, seed)
        worst = 0.0
        for i in range(grid.shape[0]):
            moment = scaled_moment(smpl, grid[i], p, h, kernel)
            if moment.mantissa <= 0.0:
                deviation = 1.0  # an empty window estimates the moment as zero
            else:
                log_ratio = moment.log_value - p * log_g[n][i] - log_truth[n][i]
                deviation = abs(math.exp(log_ratio) - 1.0)
            worst = max(worst, deviation)
        return {"n": n, "replication": rep, "seed": seed, "p": p, "h": h, "max_deviation": worst}

    results = [run_cell(c) for c in cells]

    medians = []
    for n in config.sizes:
        vals = [r["max_deviation"] for r in results if r["n"] == n]
        medians.append(float(np.median(vals)))
    return {
        "sizes": list(config.sizes),
        "grid_points_per_axis": _CONCENTRATION_GRID,
        "cells": results,
        "median_max_deviation": medians,
    }


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def _columns(d: int, *tail: str) -> list[str]:
    """CSV header: the covariate columns x_1..x_d, then ``tail``."""
    return [f"x_{k + 1}" for k in range(d)] + list(tail)


def write_dataset(smpl: Sample, path) -> None:
    """CSV with header x_1..x_d,y; values as shortest round-trip decimals."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_columns(smpl.dimension, "y"))
        # csv writes a Python float as its repr, the shortest round-trip decimal
        writer.writerows(np.column_stack((smpl.xs, smpl.ys)).tolist())


def read_dataset(path) -> Sample:
    # surrogateescape turns an undecodable byte into text that fails the numeric parse below
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError("dataset file is empty", line=1) from None
        d = len(header) - 1
        if d < 1 or header != _columns(d, "y"):
            raise DatasetFormatError(f"unexpected header {header!r}; want x_1..x_d,y", line=1)
        xs, ys = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise DatasetFormatError(f"line {lineno}: expected {d + 1} columns, found {len(row)}", line=lineno)
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise DatasetFormatError(f"line {lineno}: non-numeric value in {row!r}", line=lineno) from None
            if not all(map(math.isfinite, values)):
                # well-formed but invalid data: a validation failure, like a nonpositive response
                raise ValueError(f"line {lineno}: non-finite value in {row!r}")
            xs.append(values[:d])
            ys.append(values[d])
    if not xs:
        raise DatasetFormatError("dataset holds no rows", line=2)
    return Sample(xs=np.asarray(xs), ys=np.asarray(ys))


def write_estimates(records, path) -> None:
    """CSV x_1..x_d,g_hat,effective_count,raw_inverse; failed points leave g_hat empty."""
    records = list(records)
    d = len(records[0].x) if records else 1
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_columns(d, "g_hat", "effective_count", "raw_inverse"))
        for r in records:
            row = [repr(v) for v in r.x]
            row.append(repr(r.g_hat) if r.g_hat is not None else "")
            row.append(str(r.effective_count))
            row.append(repr(r.raw_inverse) if r.raw_inverse is not None else "")
            writer.writerow(row)


def dump_json(payload: dict, path) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_report(report: dict, timing: dict, path) -> None:
    """Deterministic report at ``path``; wall times in a sidecar timing file."""
    out = Path(path)
    dump_json(report, out)
    dump_json(timing, out.with_name(out.stem + ".timing.json"))
