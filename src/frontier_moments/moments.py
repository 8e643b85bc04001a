"""Numerically stable empirical kernel moments and the ratios built on them.

A raw power sum (1/n) sum_i Y_i^p K_h(x - X_i) overflows or underflows for
p in the hundreds, so moments are carried as (mantissa, log_scale) pairs.
The scale is pinned to M, the largest response with positive kernel weight:
every mantissa term (Y_i / M)^p lies in [0, 1], the dominant one is exactly
1, and the represented value is mantissa * exp(log_scale) with
log_scale = p * log(M).  Ratios of consecutive moments share one window
scan and one scale, so the common factor cancels without ever being formed.

Every moment is read from one scan (``_scan``): a batch of (query point,
sample row) candidate pairs goes through one column-wise kernel pass
(``KernelSpec.window_weights``), and every per-window sum is a
``np.bincount`` over the window index, which adds each window's terms in
sample order.  Its candidates come from ``window_rows``, which hands each
query point the chord of its ball over each neighbouring cell, a superset
of its window; the kernel's own strict test decides which candidates are
in a window, so every value has the bits a scan of all n rows would give.
A one-point function is a one-row call of the grid path.  The estimator's
own combinations of these ratios, with its order multiplier a, live in
``estimator``.

A window fails only when it is empty.  The scale M is the largest response
in the window, so that row has t = Y / M = 1 exactly, and its term in every
moment is its kernel weight, which is positive: a window with a point has
positive mass at every power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec
from .model import Sample, _points, _positive, _tensor

# most candidate rows one batched scan holds at once; a grid with more is scanned in chunks.
# At 2**14 each transient array is 128 KB: larger chunks raised the studies' peak RSS and ran no faster.
_CHUNK_ROWS = 2**14
# np.finfo(float).tiny, the smallest normal float: a product below it has lost bits
_TINY = 2.0**-1022
# a run's radius in units of h: the kernel accepts a squared radius that rounds below 1 from at most
# 1 + (d + 5) eps, and the chord's own rounding costs a few eps more; 2^-40 covers both for any d <= 16
_REACH = 1.0 + 2.0**-40


class InsufficientLocalDataError(RuntimeError):
    """The kernel window around the query point is empty."""


@dataclass(frozen=True)
class ScaledMoment:
    """Kernel moment in scaled form: value = mantissa * exp(log_scale)."""

    log_scale: float
    mantissa: float
    count: int

    @property
    def log_value(self) -> float:
        if self.mantissa <= 0.0:
            return -math.inf
        return math.log(self.mantissa) + self.log_scale


@dataclass(frozen=True)
class Windows:
    """The kernel windows of a batch of query points, from one scan.

    ``seg``, ``w`` and ``t`` hold one entry per in-window row: the index of
    its window, its kernel weight and Y / M, ordered by window and then by
    sample row, so each window's rows are one run.  ``m`` (M, the largest
    response in the window, one ``np.maximum.reduceat`` over its run; 0
    when it is empty) and ``count`` hold one entry per window.
    """

    seg: np.ndarray
    w: np.ndarray
    t: np.ndarray
    m: np.ndarray
    count: np.ndarray

    def total(self, values) -> np.ndarray:
        """Per window, the sum of values * w over its rows, added in sample order."""
        return np.bincount(self.seg, values * self.w, minlength=self.count.size)

    def ratio(self, q: float) -> np.ndarray:
        """mu_q / mu_(q+1) on the scale M per window; NaN where the window is empty.

        The ratio is num / (M den).  Where M den overflows (M near the
        float maximum) or falls below the smallest normal float, it is
        num / den / M instead, so the ratio scales exactly with M.
        """
        tq = self.t**q
        num = self.total(tq)
        den = self.total(tq * self.t)
        full = self.count > 0
        with np.errstate(over="ignore"):
            scale = self.m * den
            fast = full & (scale >= _TINY) & (scale < np.inf)
            out = np.divide(num, scale, out=np.full(num.size, np.nan), where=fast)
            slow = full & ~fast
            if slow.any():
                out[slow] = num[slow] / den[slow] / self.m[slow]
        return out

    def moments(self, p: float, n: int) -> list[ScaledMoment]:
        """(1/n) sum_i Y_i^p K_h(x - X_i) per window; an empty window is count 0, mantissa 0."""
        mantissa = self.total(self.t**p) / n
        return [
            ScaledMoment(log_scale=p * math.log(m), mantissa=s, count=c) if c else ScaledMoment(0.0, 0.0, 0)
            for m, s, c in zip(self.m.tolist(), mantissa.tolist(), self.count.tolist())
        ]


def _scan(sample: Sample, points: np.ndarray, h: float, kernel: KernelSpec, rows, seg) -> Windows:
    """The one scan of the sample: the windows of ``points`` (shape (G, d)) over candidate pairs.

    Candidate k pairs point seg[k] with sample row rows[k], sorted by
    (seg, row).  One column-wise kernel pass (``KernelSpec.window_weights``)
    weighs every pair, and the pairs with positive weight are the windows;
    M per window is a ``np.maximum.reduceat`` over its rows, so every
    t = Y / M lies in (0, 1].
    """
    g = points.shape[0]
    # seg is sorted: the candidates of point j are bounds[j]:bounds[j + 1]
    bounds = np.searchsorted(seg, np.arange(g + 1))
    count = np.diff(bounds)
    inside, weights = kernel.window_weights(points, count, sample.xs, rows, h)
    # inside is None when every candidate is in its window: in d = 1 usually all are, and filtering cost study-1d 7 %
    if inside is not None:
        rows = np.take(rows, inside)
        count = np.diff(np.searchsorted(inside, bounds))
        seg = np.repeat(np.arange(g), count)
    ys = np.take(sample.ys, rows)
    m = np.zeros(g)
    full = np.flatnonzero(count)
    if full.size:
        # a maximum does not depend on the order of its terms: the bits np.maximum.at gives
        m[full] = np.maximum.reduceat(ys, np.take(np.cumsum(count) - count, full))
    return Windows(seg=seg, w=weights, t=ys / np.repeat(m, count), m=m, count=count)


def point_window(sample: Sample, x, h: float, kernel: KernelSpec) -> Windows:
    """The window of the one point x: a one-row call of ``grid_windows``."""
    ((_, windows),) = grid_windows(sample, _points(x, sample.dimension, one=True), h, kernel)
    return windows


def grid_windows(sample: Sample, grid, h: float, kernel: KernelSpec):
    """(points, windows) per chunk of ``window_rows``, in grid order: the chunk's grid rows and their windows."""
    grid = _points(grid, sample.dimension)
    if not np.isfinite(grid).all():
        raise ValueError("query points must be finite")
    if not math.isfinite(h):
        raise ValueError(f"bandwidth h must be finite, got {h!r}")
    _positive(h=h)
    # a window sum adds at most n weights of at most c / h^d: past the float maximum its ratios are NaN
    with np.errstate(over="ignore"):
        scale = h**sample.dimension
        if not (scale > 0.0 and math.isfinite(sample.n * kernel.normalization / scale)):
            raise ValueError(f"bandwidth h = {h!r} is too small: the kernel weights c / h^d overflow")
    for chunk, rows, seg in window_rows(sample, grid, h):
        points = grid[chunk]
        yield points, _scan(sample, points, h, kernel, rows, seg)


def _cells_per_axis(n: int, axes: int) -> int:
    """The largest c with c ** axes <= n: so many cells per axis keep the total at most n."""
    c = max(int(n ** (1.0 / axes)), 1)
    while c**axes > n:
        c -= 1
    while (c + 1) ** axes <= n:
        c += 1
    return c


def window_rows(sample: Sample, grid, h: float):
    """For the rows of ``grid`` (shape (G, d)), the sample rows that may lie in their radius-h windows.

    Returns an iterator over consecutive chunks of the grid, each a triple
    (chunk, rows, seg): ``chunk`` is the slice of grid rows, and candidate
    k pairs grid point chunk.start + seg[k] with sample row rows[k].  The pairs are sorted by (seg, row), and each point's rows are
    a superset of its window, so scanning only them gives the same window,
    in the same order, as scanning all n rows.  A chunk holds at most
    ``_CHUNK_ROWS`` candidates, unless one grid point alone has more.

    The sample is sorted once by a cell on its first d - 1 coordinates,
    then by its last one: the key is cell * n + rank of the last coordinate.
    Cells are h / 2 wide while a grid point's box meets at most 25 of them
    (d <= 3) and h wide beyond, and wide enough that there are at most n
    of them.  A grid point's box, x +- h on every axis padded outward by a
    few ulp, picks the neighbouring cells.  In each, the point's run of
    keys is the chord of the ball over the cell: x_d +- sqrt(h^2 - delta^2),
    where delta is the distance from the point's first d - 1 coordinates to
    the cell, and a cell with delta >= h is skipped.  The radius is padded by
    ``_REACH`` and every bound by a few ulp, so each run stays a superset of
    what the kernel's test accepts.  In d = 1 there is one cell, and the run
    is the box's slab.  The index holds two n-length arrays in d = 1 and
    about four in d >= 2, each dropped once it is used.
    """
    xs = sample.xs
    n, d = xs.shape
    grid = _points(grid, d)
    # rounding is monotone, so every point the kernel's (x - X) / h test accepts lies in
    # [x - h, x + h] as rounded; the pad keeps the box a superset if that test rounds differently
    pad = 8.0 * np.spacing(np.maximum(np.abs(grid), h))
    lower, upper = grid[:, :-1] - h - pad[:, :-1], grid[:, :-1] + h + pad[:, :-1]

    lead = xs[:, :-1]
    origin = lead.min(axis=0)
    span = lead.max(axis=0) - origin
    per_axis = _cells_per_axis(n, d - 1) if d > 1 else 1
    # a box meets 5 half-h cells per axis (6 when the pad tips it over an edge), so about 25 while d <= 3;
    # beyond, h-wide cells keep it at 3 per axis
    side = np.maximum(h / 2.0 if d <= 3 else h, span / (per_axis - 1) if per_axis > 1 else 2.0 * span)

    def cell(v):
        # monotone in v, so a point inside a box lies in a cell between those of the box's corners
        return np.floor((v - origin) / side)

    count = cell(lead.max(axis=0)).astype(np.int64) + 1
    strides = np.array([np.prod(count[k + 1 :]) for k in range(d - 1)], dtype=np.int64)
    first = np.clip(cell(lower), 0, count).astype(np.int64)
    last = np.clip(cell(upper), -1, count - 1).astype(np.int64)
    reach = int(np.max(last - first, initial=0)) + 1
    cells = first[:, None, :] + _tensor(np.arange(reach, dtype=np.int64), d - 1)
    valid = np.all(cells <= last[:, None, :], axis=2)

    # delta per (point, cell), in units of h: the gap from the point to the cell's edges as computed, less
    # a slack that covers where a row's computed cell and those edges disagree by rounding
    slack = 16.0 * np.spacing(np.abs(origin) + span + 2.0 * side)
    edge = origin + cells * side
    x = grid[:, None, :-1]
    gap = np.maximum(np.maximum(edge - x, x - (edge + side)) - slack, 0.0) / h
    rho2 = (gap * gap).sum(axis=2)
    valid &= rho2 < _REACH * _REACH
    half = h * np.sqrt(np.maximum(_REACH * _REACH - rho2, 0.0))

    by_last = np.argsort(xs[:, -1])
    sorted_last = np.take(xs[:, -1], by_last)
    # each chord's rank range in the last coordinate: its run of keys within its cell
    below = np.searchsorted(sorted_last, grid[:, -1:] - half - pad[:, -1:], "left")
    above = np.searchsorted(sorted_last, grid[:, -1:] + half + pad[:, -1:], "right")
    del sorted_last

    base = (cells @ strides) * n
    starts, stops = base + below, base + above
    if count.prod() == 1:
        # one cell (always in d = 1): the keys are 0..n-1, the sort by cell is the identity,
        # and a key's position in the keys is the key itself
        order = by_last
    else:
        # the cell of each row, in last-coordinate order; a stable sort on it orders by cell, then by
        # last coordinate, and by_cell[j] is the rank of order[j]'s last coordinate.  On the smallest
        # unsigned type that holds every cell, numpy sorts keys of 16 bits or fewer by radix, to the
        # same permutation
        keys = np.take(cell(lead).astype(np.int64) @ strides, by_last)
        by_cell = np.argsort(keys.astype(np.min_scalar_type(count.prod() - 1)), kind="stable")
        order = np.take(by_last, by_cell)
        del by_last
        keys = np.take(keys, by_cell)
        keys *= n
        keys += by_cell
        del by_cell
        starts, stops = np.searchsorted(keys, starts), np.searchsorted(keys, stops)
    return _chunks(order, starts, np.where(valid, stops - starts, 0))


def _chunks(order, starts, lengths):
    """(chunk, rows, seg) per chunk of grid points, from each point's runs order[start:start + length]."""
    per_point = lengths.sum(axis=1)
    # before[g]: candidates of the grid points ahead of g; a chunk ends before its total passes _CHUNK_ROWS
    before = np.concatenate(([0], np.cumsum(per_point)))
    lo = 0
    while lo < per_point.size:
        hi = max(int(np.searchsorted(before, before[lo] + _CHUNK_ROWS, "right")) - 1, lo + 1)
        yield slice(lo, hi), *_gather(order, starts[lo:hi].ravel(), lengths[lo:hi].ravel(), per_point[lo:hi])
        lo = hi


def _gather(order, starts, lengths, per_point):
    """(rows, seg): the rows of the runs order[start:start + length], each paired with its grid point.

    ``per_point`` is the number of rows of each grid point's runs; the
    pairs come back sorted by (seg, row).
    """
    ends = np.cumsum(lengths)
    at = np.repeat(starts - (ends - lengths), lengths)
    at += np.arange(at.size)
    seg = np.repeat(np.arange(per_point.size), per_point)
    # seg is sorted and each key seg * n + row stays within its point's block, so the sort keeps seg
    base = seg * order.size
    # np.take as in _scan; on a 1-D index it gains little over order[at] (0.16 vs 0.18 ms per 2-D 16,000-row cell)
    rows = np.take(order, at)
    rows += base
    rows.sort()
    rows -= base
    return rows, seg


def _one(windows: Windows, values) -> float:
    """The value of a one-point window, or InsufficientLocalDataError when it is empty."""
    if windows.count[0] == 0:
        raise InsufficientLocalDataError("kernel window holds 0 points")
    return float(values[0])


def scaled_moment(sample: Sample, x, p: float, h: float, kernel: KernelSpec) -> ScaledMoment:
    """(1/n) sum_i Y_i^p K_h(x - X_i) in scaled representation.

    An empty window is a value, not an error: count 0, mantissa 0.
    """
    return scaled_moments(sample, _points(x, sample.dimension, one=True), p, h, kernel)[0]


def scaled_moments(sample: Sample, grid, p: float, h: float, kernel: KernelSpec) -> list[ScaledMoment]:
    """``scaled_moment`` at every row of ``grid``, from the batched scan."""
    _positive(p=p, h=h)
    return [m for _, windows in grid_windows(sample, grid, h, kernel) for m in windows.moments(p, sample.n)]


def moment_ratio(sample: Sample, x, p: float, h: float, kernel: KernelSpec) -> float:
    """Ratio of consecutive kernel moments at powers p and p + 1.

    Computed in one pass with a shared scale, mathematically identical to
    the naive ratio of the two moments.
    """
    _positive(p=p, h=h)
    windows = point_window(sample, x, h, kernel)
    return _one(windows, windows.ratio(p))


def effective_count(sample: Sample, x, h: float) -> int:
    """Number of sample points strictly inside the radius-h ball around x.

    Uses the kernel window's own test, ||(x - X) / h||^2 < 1, so the count
    always matches the one the moment ratios report.
    """
    return int(point_window(sample, x, h, KernelSpec("uniform_ball", sample.dimension)).count[0])
