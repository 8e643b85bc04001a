"""Numerically stable empirical kernel moments and the ratios built on them.

A raw power sum (1/n) sum_i Y_i^p K_h(x - X_i) overflows or underflows for
p in the hundreds, so moments are carried as (mantissa, log_scale) pairs.
The scale is pinned to M, the largest response with positive kernel weight:
every mantissa term (Y_i / M)^p lies in [0, 1], the dominant one is exactly
1, and the represented value is mantissa * exp(log_scale) with
log_scale = p * log(M).  Ratios of consecutive moments share one window
scan and one scale, so the common factor cancels without ever being formed.

A grid of query points reads the sample through ``window_rows``, which
hands each point a superset of its window; the kernel's own strict test
still decides which of those rows are in it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec
from .model import Sample, _points, _positive


class InsufficientLocalDataError(RuntimeError):
    """The kernel window around the query point holds no usable mass."""

    def __init__(self, count: int, message: str | None = None):
        self.count = count
        super().__init__(message or f"kernel window holds {count} points")

    def __reduce__(self):
        # rebuild from both fields: the default passes only the message, as count
        return type(self), (self.count, str(self))


@dataclass(frozen=True)
class ScaledMoment:
    """Kernel moment in scaled form: value = mantissa * exp(log_scale)."""

    log_scale: float
    mantissa: float
    count: int

    @property
    def is_empty(self) -> bool:
        return self.count == 0

    @property
    def value(self) -> float:
        """Reconstructed moment; may overflow for extreme scales, by design."""
        return self.mantissa * math.exp(self.log_scale)

    @property
    def log_value(self) -> float:
        if self.mantissa <= 0.0:
            return -math.inf
        return math.log(self.mantissa) + self.log_scale


def _window(sample: Sample, x, h: float, kernel: KernelSpec, rows=None):
    """The one scan of the sample: (weights, t = Y / M, M) over the kernel window.

    ``rows`` (sorted sample indices, from ``window_rows``) limits the scan
    to those candidates; None scans every point.  Only points with positive
    kernel weight are kept; M is the largest response among them, so every
    t lies in (0, 1].  An empty window gives empty arrays and M = 0.
    """
    xs, ys = (sample.xs, sample.ys) if rows is None else (sample.xs[rows], sample.ys[rows])
    weights = kernel.scaled_density(_points(x, sample.dimension, one=True), xs, h)
    mask = weights > 0.0
    w, y = weights[mask], ys[mask]
    if w.size == 0:
        return w, y, 0.0
    m = float(y.max())
    return w, y / m, m


def _cells_per_axis(n: int, axes: int) -> int:
    """The largest c with c ** axes <= n: so many cells per axis keep the total at most n."""
    c = max(int(n ** (1.0 / axes)), 1)
    while c**axes > n:
        c -= 1
    while (c + 1) ** axes <= n:
        c += 1
    return c


def window_rows(sample: Sample, grid, h: float):
    """For each row of ``grid`` (shape (G, d)), the sample rows that may lie in its radius-h window.

    Returns an iterator of sorted index arrays, built one grid point at a
    time.  Each array is a superset of the window, so scanning only those
    rows gives the same window, in the same order, as scanning them all.

    The sample is sorted once by a cell on its first d - 1 coordinates,
    then by its last one: the key is cell * n + rank of the last coordinate.
    A grid point's box, x +- h on every axis padded outward by a few ulp,
    then covers one contiguous run of keys per neighbouring cell.  Cells
    are at least h wide, and wide enough that there are at most n of them.
    """
    xs = sample.xs
    n, d = xs.shape
    grid = _points(grid, d)
    # rounding is monotone, so every point the kernel's (x - X) / h test accepts lies in
    # [x - h, x + h] as rounded; the pad keeps the box a superset if that test rounds differently
    pad = 8.0 * np.spacing(np.maximum(np.abs(grid), h))
    lower, upper = grid - h - pad, grid + h + pad

    lead = xs[:, :-1]
    origin = lead.min(axis=0)
    span = lead.max(axis=0) - origin
    per_axis = _cells_per_axis(n, d - 1) if d > 1 else 1
    side = np.maximum(h, span / (per_axis - 1) if per_axis > 1 else 2.0 * span)

    def cell(v):
        # monotone in v, so a point inside a box lies in a cell between those of the box's corners
        return np.floor((v - origin) / side)

    count = cell(lead.max(axis=0)).astype(np.int64) + 1
    strides = np.array([np.prod(count[k + 1 :]) for k in range(d - 1)], dtype=np.int64)
    by_last = np.argsort(xs[:, -1])
    cell_of = (cell(lead).astype(np.int64) @ strides)[by_last]
    # stable, so by cell, then by last coordinate; by_cell[j] is the rank of order[j]'s last coordinate
    by_cell = np.argsort(cell_of, kind="stable")
    order = by_last[by_cell]
    keys = cell_of[by_cell] * n + by_cell

    first = np.clip(cell(lower[:, :-1]), 0, count).astype(np.int64)
    last = np.clip(cell(upper[:, :-1]), -1, count - 1).astype(np.int64)
    reach = int(np.max(last - first, initial=0)) + 1
    offsets = np.array(list(itertools.product(range(reach), repeat=d - 1)), dtype=np.int64)
    offsets = offsets.reshape(reach ** (d - 1), d - 1)
    cells = first[:, None, :] + offsets
    valid = np.all(cells <= last[:, None, :], axis=2)
    base = (cells @ strides) * n
    sorted_last = xs[by_last, -1]
    starts = np.searchsorted(keys, base + np.searchsorted(sorted_last, lower[:, -1], "left")[:, None])
    stops = np.searchsorted(keys, base + np.searchsorted(sorted_last, upper[:, -1], "right")[:, None])
    stops = np.where(valid, stops, starts)
    return (_gather(order, a, b) for a, b in zip(starts.tolist(), stops.tolist()))


def _gather(order, starts, stops):
    """The sample rows order[a:b] over the (a, b) runs, back in sample order."""
    runs = [order[a:b] for a, b in zip(starts, stops) if b > a]
    return np.sort(np.concatenate(runs)) if runs else np.empty(0, dtype=np.intp)


def _ratio(w, t, m: float, q: float) -> float:
    """mu_q / mu_(q+1) over the window, both moments on the scale m."""
    if w.size == 0:
        raise InsufficientLocalDataError(0)
    tq = t**q
    den = float(np.sum(tq * t * w))
    if den <= 0.0:
        raise InsufficientLocalDataError(w.size, f"window of {w.size} points carries no usable moment mass")
    return float(np.sum(tq * w)) / (m * den)


def scaled_moment(sample: Sample, x, p: float, h: float, kernel: KernelSpec, *, _rows=None) -> ScaledMoment:
    """(1/n) sum_i Y_i^p K_h(x - X_i) in scaled representation.

    An empty window is a value, not an error: count 0, mantissa 0.
    ``_rows`` is the candidate rows ``window_rows`` gives for x.
    """
    _positive(p=p, h=h)
    w, t, m = _window(sample, x, h, kernel, _rows)
    if w.size == 0:
        return ScaledMoment(log_scale=0.0, mantissa=0.0, count=0)
    mantissa = float(np.sum(t**p * w)) / sample.n
    return ScaledMoment(log_scale=p * math.log(m), mantissa=mantissa, count=w.size)


def moment_ratio(sample: Sample, x, p: float, h: float, kernel: KernelSpec) -> float:
    """Ratio of consecutive kernel moments at powers p and p + 1.

    Computed in one pass with a shared scale, mathematically identical to
    the naive ratio of the two moments.
    """
    _positive(p=p, h=h)
    return _ratio(*_window(sample, x, h, kernel), p)


def moment_ratio_pair(sample: Sample, x, p: float, a: float, h: float, kernel: KernelSpec, *, _rows=None):
    """The two ratios the frontier estimate needs, from a single window scan.

    Returns (high, low, count) where high is the ratio at power (a + 1) p,
    low the ratio at power p; all four underlying moments share one scale.
    ``_rows`` is the candidate rows ``window_rows`` gives for x.
    """
    _positive(p=p, h=h, a=a)
    w, t, m = _window(sample, x, h, kernel, _rows)
    high = _ratio(w, t, m, (a + 1.0) * p)
    low = _ratio(w, t, m, p)
    return high, low, w.size


def effective_count(sample: Sample, x, h: float) -> int:
    """Number of sample points strictly inside the radius-h ball around x.

    Uses the kernel window's own test, ||(x - X) / h||^2 < 1, so the count
    always matches the one the moment ratios report.
    """
    return _window(sample, x, h, KernelSpec("uniform_ball", sample.dimension))[0].size
