"""The frontier estimator, rate schedules, and sup-norm evaluation.

The estimate at a point x inverts

    1 / g_hat(x) = (1 / (a p)) * [ ((a+1) p + 1) * R_high  -  (p + 1) * R_low ]

where R_low and R_high are ratios of consecutive empirical kernel moments
at powers p and (a+1) p.  The two ratios share one leading bias term, so
the combination cancels it; what remains shrinks as p grows and the
bandwidth h shrinks at matched rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec
from .model import Sample, ScalarField, _points, _positive
from .moments import _one, grid_windows, point_window


class ScheduleError(ValueError):
    """A power/bandwidth schedule violates its growth or bias conditions."""


class DegenerateGridError(RuntimeError):
    """Every grid point failed; there is no sup-error to report."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs of a single estimation pass: power p, bandwidth h, kernel, order a."""

    p: float
    h: float
    kernel: KernelSpec
    a: float = 1.0

    def __post_init__(self) -> None:
        _positive(a=self.a)
        if not self.p >= 1:
            raise ValueError("moment power p must be at least 1")
        if not 0.0 < self.h < 1.0:
            raise ValueError("bandwidth h must lie in (0, 1)")
        for name, value in (("moment power p", self.p), ("order multiplier a", self.a)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class EstimateRecord:
    """Outcome at one grid point; g_hat is None when the point failed.

    raw_inverse is the value of 1 / g_hat before inversion, kept even when
    nonpositive so unstable points remain auditable; it is None only when
    the window is empty.
    """

    x: tuple[float, ...]
    g_hat: float | None
    effective_count: int
    raw_inverse: float | None

    @property
    def ok(self) -> bool:
        return self.g_hat is not None


# kept with no caller in src/: benchmarks/tracing.py wraps it, and tests/test_tracing_targets.py checks for it
def moment_ratio_pair(sample: Sample, x, p: float, a: float, h: float, kernel: KernelSpec):
    """The two ratios the frontier estimate needs, from a single window scan.

    Returns (high, low, count) where high is the ratio at power (a + 1) p,
    low the ratio at power p; all four underlying moments share one scale.
    """
    _positive(p=p, h=h, a=a)
    windows = point_window(sample, x, h, kernel)
    high = _one(windows, windows.ratio((a + 1.0) * p))
    low = _one(windows, windows.ratio(p))
    return high, low, int(windows.count[0])


def estimate_at(sample: Sample, x, config: EstimatorConfig) -> EstimateRecord:
    """Frontier estimate at a single point, the one-row call of ``estimate_grid``; failures are flags, not exceptions."""
    return estimate_grid(sample, _points(x, sample.dimension, one=True), config)[0]


def estimate_grid(sample: Sample, grid, config: EstimatorConfig) -> list[EstimateRecord]:
    """The estimate at every grid row, in grid order, from one batched scan per chunk.

    Each point scans only the candidate rows of its window (``window_rows``),
    and its sums add in sample order, so every record equals the one a scan
    of all n rows gives.  The formula runs once per chunk on the ratio
    arrays, which are NaN where a window is empty.  Where a non-empty
    window's 1 / g_hat is not finite (responses near 2^-1020, whose
    formula terms pass the float maximum), it is taken on the window's
    scale M instead: raw_M from the ratios times M, g_hat = M / raw_M and
    1 / g_hat = raw_M / M.  A point fails when its window is empty or its
    1 / g_hat is not positive and finite.
    """
    p, a = config.p, config.a

    def inverse(high, low):
        return (((a + 1.0) * p + 1.0) * high - (p + 1.0) * low) / (a * p)

    records = []
    for points, windows in grid_windows(sample, grid, config.h, config.kernel):
        # as Python floats would, overflow to inf and inf - inf to NaN without a warning;
        # 1 / raw is read only where raw > 0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            high, low = windows.ratio((a + 1.0) * p), windows.ratio(p)
            raw = inverse(high, low)
            g_hat = 1.0 / raw
            lost = np.flatnonzero((windows.count > 0) & ~np.isfinite(raw))
            if lost.size:
                m = windows.m[lost]
                raw_m = inverse(high[lost] * m, low[lost] * m)
                raw[lost], g_hat[lost] = raw_m / m, m / raw_m
        ok = (raw > 0.0) & (raw < np.inf)
        records += [
            EstimateRecord(x=tuple(x), g_hat=g if o else None, effective_count=c, raw_inverse=r if c else None)
            for x, g, o, r, c in zip(points.tolist(), g_hat.tolist(), ok.tolist(), raw.tolist(), windows.count.tolist())
        ]
    return records


def sup_error(estimates: list[EstimateRecord], truth: ScalarField) -> tuple[float, int]:
    """(max |g_hat - g| over successful points, number of failed points).

    Failures are counted, never silently dropped; if every point failed
    there is nothing to report and DegenerateGridError is raised.
    """
    usable = [r for r in estimates if r.ok]
    if not usable:
        raise DegenerateGridError(f"all {len(estimates)} grid points failed")
    errors = np.abs(np.array([r.g_hat for r in usable]) - truth.values([r.x for r in usable]))
    return float(errors.max()), len(estimates) - len(usable)


def rate_exponents(d: int, eta_g: float, alpha_bar: float) -> tuple[float, float]:
    """Optimal exponents (c1, c2) for p_n ~ n^c1 and h_n ~ n^-c2.

    The resulting sup-error rate is n^(-eta_g / (d + alpha_bar * eta_g)) up
    to a sqrt(log n) factor.
    """
    if d < 1 or not eta_g > 0 or not alpha_bar > 0:
        raise ValueError("dimension, smoothness and tail exponents must be positive")
    if not math.isfinite(alpha_bar):
        raise ValueError(f"tail exponent bound alpha_bar must be finite, got {alpha_bar!r}")
    denom = d + alpha_bar * eta_g
    return eta_g / denom, 1.0 / denom


def w_rate(n: float, p: float, h: float, alpha_bar: float, d: int) -> float:
    """Uniform convergence rate sqrt(n * p^(2 - alpha_bar) * h^d / log n)."""
    if n < 2:
        raise ValueError("rate is defined for n >= 2")
    _positive(p=p, h=h)
    return math.sqrt(n * p ** (2.0 - alpha_bar) * h**d / math.log(n))


@dataclass(frozen=True)
class RateSchedule:
    """Maps n to (p_n, h_n) = (k1 n^c1, k2 n^-c2).

    Two structural conditions are enforced:
      * growth: alpha_bar * c1 + d * c2 <= 1, so n p^-alpha_bar h^d does
        not shrink polynomially (equality is the boundary the optimal
        exponents sit on; the log factor is then not controlled, which is
        acceptable for rate studies but not for concentration ones);
      * bias: c1 <= eta_g * c2, so p * h^eta_g does not grow.
    """

    c1: float
    c2: float
    d: int
    eta_g: float
    alpha_bar: float
    k1: float = 0.5
    k2: float = 1.0

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "eta_g", "alpha_bar", "k1", "k2"):
            value = getattr(self, name)
            if not value > 0:
                raise ScheduleError(f"schedule parameter {name} must be positive")
            if not math.isfinite(value):
                raise ScheduleError(f"schedule parameter {name} must be finite, got {value!r}")
        if self.d < 1:
            raise ScheduleError("dimension d must be a positive integer")
        used = self.alpha_bar * self.c1 + self.d * self.c2
        if used > 1.0 + 1e-12:
            raise ScheduleError(
                f"growth condition violated: alpha_bar*c1 + d*c2 = {used:.6g} exceeds 1, "
                "so n p^-alpha_bar h^d / log n shrinks"
            )
        if self.c1 > self.eta_g * self.c2 + 1e-12:
            raise ScheduleError(
                f"bias condition violated: c1 = {self.c1:.6g} exceeds eta_g*c2 = "
                f"{self.eta_g * self.c2:.6g}, so p h^eta_g grows"
            )

    @classmethod
    def optimal(cls, d: int, eta_g: float, alpha_bar: float) -> "RateSchedule":
        """The rate-optimal exponents with the default constants k1, k2."""
        c1, c2 = rate_exponents(d, eta_g, alpha_bar)
        return cls(c1=c1, c2=c2, d=d, eta_g=eta_g, alpha_bar=alpha_bar)


def schedule(n: int, sched: RateSchedule) -> tuple[float, float]:
    """(p_n, h_n) at sample size n, checked to be usable: p_n >= 1 and 0 < h_n < 1."""
    if n < 2:
        raise ValueError("schedules are defined for n >= 2")
    p = sched.k1 * n**sched.c1
    h = sched.k2 * n ** (-sched.c2)
    if not 0.0 < h < 1.0:
        raise ScheduleError(f"bandwidth {h:.6g} falls outside (0, 1) at n={n}")
    if p < 1.0:
        raise ScheduleError(f"moment power {p:.6g} falls below 1 at n={n}")
    return p, h
