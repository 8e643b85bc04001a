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
# evaluation_grid lives with the model; it stays importable from here
from .model import Sample, ScalarField, evaluation_grid  # noqa: F401
from .moments import InsufficientLocalDataError, moment_ratio_pair


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
        if not self.a > 0:
            raise ValueError("order multiplier a must be positive")
        if not self.p >= 1:
            raise ValueError("moment power p must be at least 1")
        if not 0.0 < self.h < 1.0:
            raise ValueError("bandwidth h must lie in (0, 1)")


@dataclass(frozen=True)
class EstimateRecord:
    """Outcome at one grid point; g_hat is None when the point failed.

    raw_inverse is the value of 1 / g_hat before inversion, kept even when
    nonpositive so unstable points remain auditable; it is None only when
    the window itself was unusable.
    """

    x: tuple[float, ...]
    g_hat: float | None
    effective_count: int
    raw_inverse: float | None

    @property
    def ok(self) -> bool:
        return self.g_hat is not None


def estimate_at(sample: Sample, x, config: EstimatorConfig) -> EstimateRecord:
    """Frontier estimate at a single point; failures are flags, not exceptions."""
    point = tuple(float(v) for v in np.atleast_1d(np.asarray(x, dtype=float)))
    try:
        high, low, count = moment_ratio_pair(sample, x, config.p, config.a, config.h, config.kernel)
    except InsufficientLocalDataError as err:
        return EstimateRecord(x=point, g_hat=None, effective_count=err.count, raw_inverse=None)
    p, a = config.p, config.a
    raw_inverse = (((a + 1.0) * p + 1.0) * high - (p + 1.0) * low) / (a * p)
    g_hat = 1.0 / raw_inverse if raw_inverse > 0.0 else None
    return EstimateRecord(x=point, g_hat=g_hat, effective_count=count, raw_inverse=raw_inverse)


def estimate_grid(sample: Sample, grid, config: EstimatorConfig) -> list[EstimateRecord]:
    """estimate_at mapped over the grid rows, in deterministic order."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    return [estimate_at(sample, grid[i], config) for i in range(grid.shape[0])]


def sup_error(estimates: list[EstimateRecord], truth: ScalarField) -> tuple[float, int]:
    """(max |g_hat - g| over successful points, number of failed points).

    Failures are counted, never silently dropped; if every point failed
    there is nothing to report and DegenerateGridError is raised.
    """
    failures = sum(1 for r in estimates if not r.ok)
    errors = [abs(r.g_hat - truth(r.x)) for r in estimates if r.ok]
    if not errors:
        raise DegenerateGridError(f"all {len(estimates)} grid points failed")
    return max(errors), failures


def rate_exponents(d: int, eta_g: float, alpha_bar: float) -> tuple[float, float]:
    """Optimal exponents (c1, c2) for p_n ~ n^c1 and h_n ~ n^-c2.

    The resulting sup-error rate is n^(-eta_g / (d + alpha_bar * eta_g)) up
    to a sqrt(log n) factor.
    """
    if d < 1 or not eta_g > 0 or not alpha_bar > 0:
        raise ValueError("dimension, smoothness and tail exponents must be positive")
    denom = d + alpha_bar * eta_g
    return eta_g / denom, 1.0 / denom


def w_rate(n: float, p: float, h: float, alpha_bar: float, d: int) -> float:
    """Uniform convergence rate sqrt(n * p^(2 - alpha_bar) * h^d / log n)."""
    if n < 2:
        raise ValueError("rate is defined for n >= 2")
    if not p > 0 or not h > 0:
        raise ValueError("p and h must be positive")
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
            if not getattr(self, name) > 0:
                raise ScheduleError(f"schedule parameter {name} must be positive")
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
