"""Numerically stable empirical kernel moments and the ratios built on them.

A raw power sum (1/n) sum_i Y_i^p K_h(x - X_i) overflows or underflows for
p in the hundreds, so moments are carried as (mantissa, log_scale) pairs.
The scale is pinned to M, the largest response with positive kernel weight:
every mantissa term (Y_i / M)^p lies in [0, 1], the dominant one is exactly
1, and the represented value is mantissa * exp(log_scale) with
log_scale = p * log(M).  Ratios of consecutive moments share one window
scan and one scale, so the common factor cancels without ever being formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec
from .model import Sample


class InsufficientLocalDataError(RuntimeError):
    """The kernel window around the query point holds no usable mass."""

    def __init__(self, count: int, message: str | None = None):
        self.count = count
        super().__init__(message or f"kernel window holds {count} points")


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


def _check_params(p: float, h: float) -> None:
    if not p > 0:
        raise ValueError("moment power p must be positive")
    if not h > 0:
        raise ValueError("bandwidth h must be positive")


def _window(sample: Sample, x, h: float, kernel: KernelSpec):
    """The one scan of the sample: (weights, t = Y / M, M) over the kernel window.

    Only points with positive kernel weight are kept; M is the largest
    response among them, so every t lies in (0, 1].  An empty window gives
    empty arrays and M = 0.
    """
    weights = kernel.scaled_density(x, sample.xs, h)
    mask = weights > 0.0
    w, y = weights[mask], sample.ys[mask]
    if w.size == 0:
        return w, y, 0.0
    m = float(y.max())
    return w, y / m, m


def _ratio(w, t, m: float, q: float) -> float:
    """mu_q / mu_(q+1) over the window, both moments on the scale m."""
    if w.size == 0:
        raise InsufficientLocalDataError(0)
    tq = t**q
    den = float(np.sum(tq * t * w))
    if den <= 0.0:
        raise InsufficientLocalDataError(w.size, f"window of {w.size} points carries no usable moment mass")
    return float(np.sum(tq * w)) / (m * den)


def scaled_moment(sample: Sample, x, p: float, h: float, kernel: KernelSpec) -> ScaledMoment:
    """(1/n) sum_i Y_i^p K_h(x - X_i) in scaled representation.

    An empty window is a value, not an error: count 0, mantissa 0.
    """
    _check_params(p, h)
    w, t, m = _window(sample, x, h, kernel)
    if w.size == 0:
        return ScaledMoment(log_scale=0.0, mantissa=0.0, count=0)
    mantissa = float(np.sum(t**p * w)) / sample.n
    return ScaledMoment(log_scale=p * math.log(m), mantissa=mantissa, count=w.size)


def moment_ratio(sample: Sample, x, p: float, h: float, kernel: KernelSpec) -> float:
    """Ratio of consecutive kernel moments at powers p and p + 1.

    Computed in one pass with a shared scale, mathematically identical to
    the naive ratio of the two moments.
    """
    _check_params(p, h)
    return _ratio(*_window(sample, x, h, kernel), p)


def moment_ratio_pair(sample: Sample, x, p: float, a: float, h: float, kernel: KernelSpec):
    """The two ratios the frontier estimate needs, from a single window scan.

    Returns (high, low, count) where high is the ratio at power (a + 1) p,
    low the ratio at power p; all four underlying moments share one scale.
    """
    _check_params(p, h)
    if not a > 0:
        raise ValueError("order multiplier a must be positive")
    w, t, m = _window(sample, x, h, kernel)
    high = _ratio(w, t, m, (a + 1.0) * p)
    low = _ratio(w, t, m, p)
    return high, low, w.size


def effective_count(sample: Sample, x, h: float) -> int:
    """Number of sample points strictly inside the radius-h ball around x.

    Uses the kernel window's own test, ||(x - X) / h||^2 < 1, so the count
    always matches the one the moment ratios report.
    """
    return _window(sample, x, h, KernelSpec("uniform_ball", sample.dimension))[0].size
