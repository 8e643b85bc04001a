"""Compactly supported kernel densities on the unit ball of R^d.

All profiles are radial polynomials c * (1 - ||u||^2)^s restricted to the
open unit ball, normalized in closed form so no quadrature runs in hot
loops.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import _positive

# polynomial degree s of (1 - ||u||^2)^s per profile
_DEGREE = {"epanechnikov_ball": 1, "biweight_ball": 2, "uniform_ball": 0}
PROFILES = tuple(_DEGREE)

_ALIASES = {
    "epanechnikov": "epanechnikov_ball",
    "biweight": "biweight_ball",
    "uniform": "uniform_ball",
}


def _norm_const(s: int, d: int) -> float:
    # integral of (1 - ||u||^2)^s over the unit ball is pi^(d/2) Gamma(s+1) / Gamma(s+1+d/2)
    return math.gamma(s + 1 + d / 2) / (math.pi ** (d / 2) * math.gamma(s + 1))


@dataclass(frozen=True)
class KernelSpec:
    """Probability density supported in the unit ball of R^dimension.

    ``uniform_ball`` is discontinuous at the ball boundary and therefore
    not Lipschitz, so the paper's estimator conditions exclude it;
    ``effective_count`` counts the points in a ball with its window test.

    Every path forms the squared radius ``_squared_radius`` adds and the
    profile ``_profile`` gives: ``density`` and ``scaled_density`` on
    given offsets, and ``window_weights``, the moment scan's one entry, on
    (query point, sample row) pairs, column by column, keeping only the
    pairs inside the ball.
    """

    profile: str = "epanechnikov_ball"
    dimension: int = 1

    def __post_init__(self) -> None:
        if self.profile not in _DEGREE:
            raise ValueError(f"unknown kernel profile {self.profile!r}; choose from {PROFILES}")
        d = self.dimension
        if isinstance(d, bool) or not isinstance(d, numbers.Real) or not float(d).is_integer() or d < 1:
            raise ValueError("dimension must be a positive integer")
        object.__setattr__(self, "dimension", int(d))

    @property
    def degree(self) -> int:
        return _DEGREE[self.profile]

    @property
    def normalization(self) -> float:
        return _norm_const(self.degree, self.dimension)

    def _profile(self, r2):
        """c (1 - r^2)^s, the profile at squared radii r2 < 1."""
        return self.normalization * (1.0 - r2) ** self.degree

    def density(self, u):
        """K(u) for a point of shape (d,) or a batch of shape (n, d)."""
        u = np.asarray(u, dtype=float)
        single = u.ndim == 1
        u2 = np.atleast_2d(u)
        if u2.shape[1] != self.dimension:
            raise ValueError(f"points have dimension {u2.shape[1]}, kernel expects {self.dimension}")
        r2 = _squared_radius(u2[:, k] for k in range(self.dimension))
        vals = np.where(r2 < 1.0, self._profile(r2), 0.0)
        return float(vals[0]) if single else vals

    # kept with no caller in src/: benchmarks/tracing.py wraps it, and the tests check window_weights against it
    def scaled_density(self, x, xs, h: float):
        """Rescaled kernel h^(-d) K((x - xs) / h) with bandwidth h > 0."""
        _positive(h=h)
        x = np.asarray(x, dtype=float)
        xs = np.asarray(xs, dtype=float)
        return self.density((x - xs) / h) / h**self.dimension

    def window_weights(self, points, counts, xs, rows, h: float):
        """(inside, weights): the candidate pairs in the open radius-h ball, and their ``scaled_density``.

        Candidate k pairs point j, the j-th of ``points`` (shape (G, d))
        repeated counts[j] times in turn, with sample row rows[k] of ``xs``.
        The radius is formed column by column from those pairs, and the
        profile is evaluated only where r^2 < 1.  ``inside`` indexes the
        pairs whose weight is positive, or is None when all are; every
        weight has the bits ``scaled_density`` gives the pair.
        """
        _positive(h=h)

        def offsets():
            for k in range(self.dimension):
                u = np.repeat(points[:, k], counts)
                u -= np.take(xs[:, k], rows)
                u /= h
                yield u

        r2 = _squared_radius(offsets())
        inside = r2 < 1.0
        scale = h**self.dimension
        if inside.all():
            inside, weights = None, self._profile(r2) / scale
        else:
            inside = np.flatnonzero(inside)
            weights = self._profile(np.take(r2, inside)) / scale
        # 1 - r^2 >= 2^-53 where r^2 < 1: no weight is 0 unless this smallest one underflows (h^d past about 2^900)
        if not self._profile(1.0 - 2.0**-53) / scale > 0.0:
            positive = np.flatnonzero(weights > 0.0)
            inside = positive if inside is None else np.take(inside, positive)
            weights = np.take(weights, positive)
        return inside, weights


def _squared_radius(columns):
    """The sum of squares of ``columns``, added column by column, left to right.

    Bit-identical to np.sum(u**2, axis=1) for d <= 7 only (numpy's pairwise
    sum changes order from d = 8); every kernel path adds in this order, so
    they agree for any d.
    """
    columns = iter(columns)
    u = next(columns)
    r2 = u * u
    for u in columns:
        r2 += u * u
    return r2


def kernel_from_name(name: str, dimension: int) -> KernelSpec:
    """Resolve a CLI-style kernel name ('epanechnikov', ...) to a KernelSpec."""
    return KernelSpec(profile=_ALIASES.get(name, name), dimension=dimension)
