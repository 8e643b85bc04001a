"""Monte-Carlo convergence studies and the dataset/report file formats.

Per-cell seeds are derived as base_seed + cell_index * (large odd stride),
with cells enumerated over sizes then replications, so results do not
depend on scheduling and identical configurations produce byte-identical
reports.  Wall times go to a separate timing file so the main report stays
deterministic.
"""

from __future__ import annotations

import csv
import io
import math
import os
import pickle
import signal
import time
import warnings
from contextlib import suppress
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from .estimator import (
    DegenerateGridError,
    EstimatorConfig,
    RateSchedule,
    ScheduleError,
    estimate_grid,
    schedule,
    sup_error,
    w_rate,
)
from .kernels import KernelSpec
from .model import (
    FrontierModel,
    Sample,
    _output_file,
    dump_json,
    evaluation_grid,
    field_range,
    model_to_dict,
    sample,
)
from .moments import grid_windows
from .oracle import smoothed_moment

REPORT_SCHEMA = "frontier-moments/mc-study/1"
SEED_STRIDE = 2_147_483_647  # large odd constant between replication streams
_CONCENTRATION_GRID = 50
_WRITE_ROWS = 4096  # dataset rows formatted by one % call
# loadtxt strips these around a number as whitespace; float() refuses them
_ASCII_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_SCAN_BYTES = 2**18  # dataset bytes searched for those separators at once


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


def _study_setup(model: FrontierModel, config: StudyConfig, per_axis: int):
    """Check the schedule against the model and at every size before any cell runs.

    Returns (scheduled, cells, grid, kernel): (p, h) per size, the
    (n, replication, seed) cells, the evaluation grid and the kernel.
    """
    sched = config.schedule
    for name, ours, theirs in (("d", sched.d, model.dimension), ("eta_g", sched.eta_g, model.eta_g)):
        if ours != theirs:
            raise ScheduleError(f"schedule has {name} = {ours} but the model has {name} = {theirs}")
    scheduled = {n: schedule(n, sched) for n in config.sizes}
    cells = [
        (n, rep, cell_seed(config.base_seed, i, rep, config.replications))
        for i, n in enumerate(config.sizes)
        for rep in range(config.replications)
    ]
    grid = evaluation_grid(model.omega, model.dimension, per_axis)
    kernel = KernelSpec(profile=config.kernel_profile, dimension=model.dimension)
    return scheduled, cells, grid, kernel


def run_cell(model: FrontierModel, grid, config: EstimatorConfig, w: float, cell) -> tuple[dict, float]:
    """One study cell: draw its sample, estimate on the grid, take the sup-error.

    ``cell`` is (n, replication, seed); returns (report row, wall seconds).
    """
    n, rep, seed = cell
    start = time.perf_counter()
    smpl = sample(model, n, seed)
    records = estimate_grid(smpl, grid, config)
    try:
        sup, failures = sup_error(records, model.g)
    except DegenerateGridError:
        sup, failures = None, len(records)
    elapsed = time.perf_counter() - start
    result = {
        "n": n,
        "replication": rep,
        "seed": seed,
        "p": config.p,
        "h": config.h,
        "w": w,
        "sup_error": sup,
        "failures": failures,
    }
    return result, elapsed


def _map_cells(fn, tasks, workers: int) -> list:
    """``[fn(*task) for task in tasks]``, spread over ``workers`` processes in total.

    With w = min(workers, len(tasks)), task k belongs to share k % w.  The
    caller forks one child for each of shares 1..w-1, then runs share 0
    itself; each child runs its share in order and pickles (ok, results or
    its first exception with its traceback text) into its own pipe.  The
    caller reads the pipes in share order and raises the first error, its
    own share's first; a child's error is raised from a RuntimeError that
    holds the child's traceback.  Every child still alive when this returns
    or raises is killed and reaped.
    """
    w = min(workers, len(tasks))
    if w <= 1:
        return [fn(*task) for task in tasks]
    ordered = [None] * len(tasks)
    pipes, pids = {}, {}  # by share: read ends to close, children to reap
    try:
        for s in range(1, w):
            read_end, write_end = os.pipe()
            pipes[s] = open(read_end, "rb")
            try:
                pid = os.fork()
                if pid == 0:
                    _serve_share(fn, tasks[s::w], write_end)
            finally:
                os.close(write_end)
            pids[s] = pid
        ordered[0::w] = [fn(*task) for task in tasks[0::w]]
        for s in range(1, w):
            data = pipes[s].read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(s), 0)[1])
            if code != 0 or not data:
                raise RuntimeError(f"study worker {s} exited with code {code} and returned no result")
            ok, outcome = pickle.loads(data)
            if not ok:
                err, text = outcome
                raise err from RuntimeError(f"traceback in study worker {s}:\n{text}")
            ordered[s::w] = outcome
    finally:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes.values():
            pipe.close()
    return ordered


def _serve_share(fn, share, write_end: int) -> NoReturn:
    """A forked child's whole life: run ``share`` in order, pickle the outcome into ``write_end``, exit."""
    code = 1
    try:
        # Ctrl-C reaches the whole process group; only the caller acts on it
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        text = ""
        try:
            outcome = True, [fn(*task) for task in share]
        except Exception as err:
            import traceback  # only a failing child pays for it

            # a traceback does not pickle; its text goes back beside the exception
            text = traceback.format_exc()
            outcome = False, (err, text)
        try:
            data = pickle.dumps(outcome)
        except Exception as err:  # an exception or result holding something pickle refuses
            data = pickle.dumps((False, (RuntimeError(f"study worker result cannot be pickled: {err!r}"), text)))
        with open(write_end, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        # never return into the caller's code, and run none of its exit handlers
        os._exit(code)


def run_study(model: FrontierModel, config: StudyConfig, workers: int = 1) -> tuple[dict, dict]:
    """Run the full study; returns (report, timing) dictionaries.

    ``workers`` counts processes in total, the caller included: with N > 1
    the caller forks N - 1 children and runs cells 0, N, 2N, ... itself
    (``_map_cells``).  The report is independent of ``workers``; only the
    timing dict varies.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    scheduled, cells, grid, kernel = _study_setup(model, config, config.grid_per_axis)
    w_by_size = {n: w_rate(n, *scheduled[n], config.schedule.alpha_bar, model.dimension) for n in config.sizes}
    estimators = {n: EstimatorConfig(p=p, h=h, kernel=kernel, a=config.a) for n, (p, h) in scheduled.items()}
    tasks = [(model, grid, estimators[n], w_by_size[n], (n, rep, seed)) for n, rep, seed in cells]

    outcomes = _map_cells(run_cell, tasks, workers)
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
            "schedule": asdict(config.schedule),
        },
        "cells": results,
        "aggregate": _aggregate(model, config, scheduled, w_by_size, results),
    }
    timing = {
        "cells": timings,
        "total_wall_time_s": sum(t["wall_time_s"] for t in timings),
    }
    return report, timing


def _aggregate(model, config, scheduled, w_by_size, results) -> dict:
    beta_min = field_range(model.beta)[0]
    medians = _medians(config.sizes, results, "sup_error")
    degenerate = sum(r["sup_error"] is None for r in results)
    ws = [w_by_size[n] for n in config.sizes]

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


def _medians(sizes, results, key: str) -> list[float | None]:
    """Per size, the median of the cells' ``key`` values that are not None; None where every one is."""
    medians = []
    for n in sizes:
        values = [r[key] for r in results if r["n"] == n and r[key] is not None]
        medians.append(float(np.median(values)) if values else None)
    return medians


def moment_concentration(model: FrontierModel, config: StudyConfig) -> dict:
    """Worst relative deviation of the empirical kernel moment from its
    smoothed ground truth, per cell, with per-size medians, on a
    50-point-per-axis grid.

    Reuses the same per-cell seeds as ``run_study`` under the same config,
    so the underlying samples are shared between the two studies, and maps
    its cells through the same dispatcher, ``_map_cells``, in one process.
    An empty window counts as deviation 1.0.
    """
    scheduled, cells, grid, kernel = _study_setup(model, config, _CONCENTRATION_GRID)
    log_g = np.log(model.g.values(grid))
    log_truth = {
        n: np.array([math.log(smoothed_moment(model, x, *scheduled[n], kernel)) for x in grid]) for n in config.sizes
    }

    def concentration_cell(n, rep, seed):
        p, h = scheduled[n]
        smpl = sample(model, n, seed)
        worst = 0.0
        moments = (m for _, windows in grid_windows(smpl, grid, h, kernel) for m in windows.moments(p, n))
        for i, moment in enumerate(moments):
            if not moment.count:
                deviation = 1.0  # an empty window estimates the moment as zero
            else:
                log_ratio = moment.log_value - p * log_g[i] - log_truth[n][i]
                deviation = abs(math.exp(log_ratio) - 1.0)
            worst = max(worst, deviation)
        return {"n": n, "replication": rep, "seed": seed, "p": p, "h": h, "max_deviation": worst}

    results = _map_cells(concentration_cell, cells, 1)
    return {
        "sizes": list(config.sizes),
        "grid_points_per_axis": _CONCENTRATION_GRID,
        "cells": results,
        "median_max_deviation": _medians(config.sizes, results, "max_deviation"),
    }


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def _columns(d: int, *tail: str) -> list[str]:
    """CSV header: the covariate columns x_1..x_d, then ``tail``."""
    return [f"x_{k + 1}" for k in range(d)] + list(tail)


def write_dataset(smpl: Sample, path) -> None:
    """CSV with header x_1..x_d,y; values as shortest round-trip decimals, lines ending in CRLF.

    Each block of ``_WRITE_ROWS`` rows is one ``%`` format of the block's
    Python floats, whose ``%r`` is the repr that ``csv.writer`` would write:
    no repr needs quoting, and ``Sample`` holds finite values only.  As
    with every file ``_output_file`` opens, a failed write leaves no
    regular file, so a cut-short file never reads back as a shorter sample.
    """
    d = smpl.dimension
    line = ",".join(["%r"] * (d + 1)) + "\r\n"
    with _output_file(path) as fh:
        fh.write(",".join(_columns(d, "y")) + "\r\n")
        for lo in range(0, smpl.n, _WRITE_ROWS):
            block = np.column_stack((smpl.xs[lo : lo + _WRITE_ROWS], smpl.ys[lo : lo + _WRITE_ROWS]))
            # floats from tolist(): in numpy 2 the repr of an np.float64 is "np.float64(...)"
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def read_dataset(path) -> Sample:
    """Read a dataset CSV written by ``write_dataset`` (or by hand).

    The path is opened once and no copy of the file is kept; a pipe, which
    cannot be read twice, is first buffered whole.  Two paths give one
    result.  The bulk path scans the file in blocks for an ASCII separator
    byte (0x1c-0x1f), then checks the header, parses the body with one
    ``np.loadtxt`` call and keeps the table only if the file holds no
    separator, the call raised and warned nothing, and every row has d + 1
    columns; ``Sample`` then judges the values (at least one row, all
    finite, every response positive).  Any other file, and any table
    ``Sample`` refuses, is read again from its start by the row loop,
    ``_read_dataset_rows``, whose result or error stands: the loop decides
    every refusal, with its message, line number and exception type.
    """
    with open(path, "rb") as fh:
        data = fh if fh.seekable() else io.BytesIO(fh.read())
        if not _has_separator(data):
            data.seek(0)
            text = io.TextIOWrapper(data, encoding="utf-8", errors="surrogateescape", newline="")
            try:
                header = next(csv.reader(text), [])
                d = len(header) - 1
                if d >= 1 and header == _columns(d, "y"):
                    try:
                        with warnings.catch_warnings():
                            # loadtxt warns, not raises, on a body with no rows
                            warnings.simplefilter("error")
                            table = np.loadtxt(text, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
                    except (ValueError, UserWarning):
                        pass
                    else:
                        if table.shape[1] == d + 1:
                            # Sample refuses no rows, a non-finite value or a response <= 0; the row loop names the line
                            with suppress(ValueError):
                                # column slices of the table are strided; the loop's arrays are contiguous
                                return Sample(xs=np.ascontiguousarray(table[:, :d]), ys=np.ascontiguousarray(table[:, d]))
            finally:
                text.detach()  # closing the wrapper would close the file the row loop reads
        data.seek(0)
        return _read_dataset_rows(data)


def _has_separator(data) -> bool:
    """Whether a binary file holds one of ``_ASCII_SEPARATORS``, read ``_SCAN_BYTES`` at a time."""
    for block in iter(lambda: data.read(_SCAN_BYTES), b""):
        if any(sep in block for sep in _ASCII_SEPARATORS):
            return True
    return False


def _read_dataset_rows(source) -> Sample:
    """The row-by-row reader: ``csv.reader`` and ``float()``, one row at a time.

    ``source`` is a path, or a binary file at its start, which is closed.
    """
    raw = source if isinstance(source, io.IOBase) else open(source, "rb")
    # surrogateescape turns an undecodable byte into text that fails the numeric parse below
    with io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError("dataset file is empty", line=1) from None
        d = len(header) - 1
        if d < 1 or header != _columns(d, "y"):
            raise DatasetFormatError(f"unexpected header {header!r}; want x_1..x_d,y", line=1)
        xs, ys = [], []
        for row in reader:
            if not row:
                continue
            # the physical line the row ends on: a quoted field may hold a newline
            lineno = reader.line_num
            if len(row) != d + 1:
                raise DatasetFormatError(f"line {lineno}: expected {d + 1} columns, found {len(row)}", line=lineno)
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise DatasetFormatError(f"line {lineno}: non-numeric value in {row!r}", line=lineno) from None
            if not all(map(math.isfinite, values)):
                # well-formed but invalid data: a validation failure, like a nonpositive response
                raise ValueError(f"line {lineno}: non-finite value in {row!r}")
            if not values[d] > 0.0:
                raise ValueError(f"line {lineno}: nonpositive response in {row!r}")
            xs.append(values[:d])
            ys.append(values[d])
    if not xs:
        raise DatasetFormatError("dataset holds no rows", line=2)
    return Sample(xs=np.asarray(xs), ys=np.asarray(ys))


def write_estimates(records, path) -> None:
    """CSV x_1..x_d,g_hat,effective_count,raw_inverse; failed points leave g_hat empty."""
    records = list(records)
    d = len(records[0].x) if records else 1
    with _output_file(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(_columns(d, "g_hat", "effective_count", "raw_inverse"))
        # csv writes a float as its repr, an int with str and None as an empty field
        writer.writerows([*r.x, r.g_hat, r.effective_count, r.raw_inverse] for r in records)


def write_report(report: dict, timing: dict, path) -> None:
    """Deterministic report at ``path``; wall times in a sidecar timing file."""
    out = Path(path)
    dump_json(report, out)
    dump_json(timing, out.with_name(out.stem + ".timing.json"))
