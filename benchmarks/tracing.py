"""Spans and counts recorded around calls into the package's public functions.

Nothing under ``src/`` is edited: a traced iteration replaces each public
function at the name its caller looks it up by (``study.sample``,
``estimator.moment_ratio_pair``, ``KernelSpec.scaled_density``,
``cli.read_dataset``, ...) with a wrapper that records a span, and puts
the original back when the iteration ends.  Spans stay in memory; self
times and per-layer counts are computed from them when the run ends.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One call at a layer boundary.

    ``counts`` holds the work it did; ``tag`` tells calls of one function
    apart (the subcommand of ``cli.main``).
    """

    id: int
    parent: int | None
    name: str
    iteration: int
    thread: int
    start: float
    end: float = 0.0
    tag: str = ""
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans from every thread of one benchmark process.

    A span's parent is the innermost open span on its own thread.  A span
    opened on a thread with nothing open (a pool thread of ``run_study``)
    takes the innermost open *anchor* span as parent, so cell work on the
    pool is charged to the ``run_study`` call that dispatched it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.iteration = -1
        self._local = threading.local()
        self._anchors: list[int] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, anchor: bool = False):
        stack = self._stack()
        parent = stack[-1] if stack else (self._anchors[-1] if self._anchors else None)
        with self._lock:
            span_id = next(self._ids)
        record = Span(span_id, parent, name, self.iteration, threading.get_ident(), time.perf_counter())
        stack.append(span_id)
        if anchor:
            self._anchors.append(span_id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            if anchor:
                self._anchors.pop()
            stack.pop()
            self.spans.append(record)

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__, sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children on different threads may overlap; their union is subtracted,
    clipped to the parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def _wrap(tracer: Tracer, name: str, fn, count=None, anchor: bool = False, on_error=None):
    """Wrapper that records a span named ``name`` around ``fn``.

    ``count(args, kwargs, result, span)`` records work counts after a
    successful call; ``on_error(exc, span)`` after one that raised.
    """

    def traced(*args, **kwargs):
        with tracer.span(name, anchor=anchor) as record:
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc, record)
                raise
            if count is not None:
                count(args, kwargs, result, record)
            return result

    traced.__wrapped__ = fn
    return traced


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def targets(fm, tracer: Tracer):
    """(owner, attribute, wrapper) for every boundary the traced run records.

    ``fm`` is the imported ``frontier_moments`` package.  Span names are
    ``<layer>.<function>``; the layer is the module that defines the function.
    """
    cli, study, estimator, kernels = fm.cli, fm.study, fm.estimator, fm.kernels
    InsufficientLocalDataError = fm.moments.InsufficientLocalDataError

    def draws(args, kwargs, result, span):
        span.counts["draws"] = result.n

    def grid(args, kwargs, result, span):
        span.counts["grid_points"] = len(result)
        span.counts["failed_points"] = sum(1 for r in result if not r.ok)

    def scanned(args, kwargs, result, span):
        spec, xs = args[0], args[2]
        span.counts["points_scanned"] = len(xs)
        # computed, not measured: (d coordinates + 1 response) float64 per point
        span.counts["bytes_scanned_computed"] = (spec.dimension + 1) * 8 * len(xs)

    def window(args, kwargs, result, span):
        span.counts["window_points"] = result[2]

    def empty_window(exc, span):
        if isinstance(exc, InsufficientLocalDataError):
            span.counts["empty_windows"] = 1

    def cells(args, kwargs, result, span):
        span.counts["cells"] = len(result[0]["cells"])

    def csv_bytes(args, kwargs, result, span):
        span.counts["dataset_bytes"] = _file_bytes(args[1] if len(args) > 1 else args[0])

    def command(args, kwargs, result, span):
        span.tag = (args[0] if args else kwargs["argv"])[0]

    return [
        (study, "run_study", _wrap(tracer, "study.run_study", study.run_study, cells, anchor=True)),
        (study, "sample", _wrap(tracer, "model.sample", study.sample, draws)),
        (study, "estimate_grid", _wrap(tracer, "estimator.estimate_grid", study.estimate_grid, grid)),
        (study, "sup_error", _wrap(tracer, "estimator.sup_error", study.sup_error)),
        (
            estimator,
            "moment_ratio_pair",
            _wrap(tracer, "moments.ratio_pair", estimator.moment_ratio_pair, window, on_error=empty_window),
        ),
        (
            kernels.KernelSpec,
            "scaled_density",
            _wrap(tracer, "kernels.scaled_density", kernels.KernelSpec.scaled_density, scanned),
        ),
        (cli, "main", _wrap(tracer, "cli.main", cli.main, command)),
        (cli, "validate", _wrap(tracer, "model.validate", cli.validate)),
        (cli, "sample", _wrap(tracer, "model.sample", cli.sample, draws)),
        (cli, "write_dataset", _wrap(tracer, "study.write_dataset", cli.write_dataset, csv_bytes)),
        (cli, "read_dataset", _wrap(tracer, "study.read_dataset", cli.read_dataset, csv_bytes)),
        (cli, "estimate_grid", _wrap(tracer, "estimator.estimate_grid", cli.estimate_grid, grid)),
        (cli, "write_estimates", _wrap(tracer, "study.write_estimates", cli.write_estimates)),
        (cli, "oracle_report", _wrap(tracer, "oracle.oracle_report", cli.oracle_report)),
    ]


@contextmanager
def patched(patches):
    """Install the wrappers from ``targets`` and restore the originals on exit."""
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
